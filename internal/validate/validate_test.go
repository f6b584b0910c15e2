package validate

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func testValidator() *Validator {
	var key [KeySize]byte
	for i := range key {
		key[i] = byte(i * 7)
	}
	return New(key)
}

// testCipher is the reference PRF: crypto/aes keyed with testValidator's key.
func testCipher(t *testing.T) cipher.Block {
	key := testValidator().Key()
	block, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	return block
}

// A v4 word is the first 8 bytes of one AES block over src‖dst‖port‖0-pad.
func TestComputeKnownAnswer(t *testing.T) {
	in := [16]byte{10, 0, 0, 1, 1, 2, 3, 4, 0x01, 0xBB}
	var out [16]byte
	testCipher(t).Encrypt(out[:], in[:])
	want := binary.BigEndian.Uint64(out[:8])
	v := testValidator()
	if got := v.Compute(0x0A000001, 0x01020304, 443); got != want {
		t.Errorf("Validator.Compute = %#x, want %#x", got, want)
	}
	if got := v.NewHasher().Compute(0x0A000001, 0x01020304, 443); got != want {
		t.Errorf("Hasher.Compute = %#x, want %#x", got, want)
	}
}

// A v6 word is the first 8 bytes of the last block of a zero-IV CBC
// encryption of src‖dst‖port‖0-pad (fixed-length CBC-MAC).
func TestCompute6KnownAnswer(t *testing.T) {
	src := [16]byte{0x20, 0x01, 0x0d, 0xb8, 15: 1}
	dst := [16]byte{0x20, 0x01, 0x0d, 0xb8, 0xff, 15: 0x42}
	msg := make([]byte, 48)
	copy(msg[0:16], src[:])
	copy(msg[16:32], dst[:])
	binary.BigEndian.PutUint16(msg[32:34], 8443)
	cipher.NewCBCEncrypter(testCipher(t), make([]byte, aes.BlockSize)).CryptBlocks(msg, msg)
	want := binary.BigEndian.Uint64(msg[32:40])
	v := testValidator()
	if got := v.Compute6(src, dst, 8443); got != want {
		t.Errorf("Validator.Compute6 = %#x, want %#x", got, want)
	}
	if got := v.NewHasher().compute6(src, dst, 8443); got != want {
		t.Errorf("Hasher.compute6 = %#x, want %#x", got, want)
	}
}

func TestComputeDeterministic(t *testing.T) {
	v := testValidator()
	a := v.Compute(1, 2, 80)
	b := v.Compute(1, 2, 80)
	if a != b {
		t.Error("Compute not deterministic")
	}
}

func TestComputeDistinguishesTuples(t *testing.T) {
	v := testValidator()
	base := v.Compute(1, 2, 80)
	if v.Compute(2, 2, 80) == base || v.Compute(1, 3, 80) == base || v.Compute(1, 2, 81) == base {
		t.Error("tuple variation did not change validation word")
	}
}

func TestDifferentKeysDiffer(t *testing.T) {
	var k1, k2 [KeySize]byte
	k2[0] = 1
	if New(k1).Compute(1, 2, 80) == New(k2).Compute(1, 2, 80) {
		t.Error("different keys produced same word")
	}
}

func TestNewRandomKeysDistinct(t *testing.T) {
	v1, err := NewRandom()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := NewRandom()
	if err != nil {
		t.Fatal(err)
	}
	if v1.Key() == v2.Key() {
		t.Error("two random validators share a key")
	}
}

func TestTCPAckValidation(t *testing.T) {
	v := testValidator()
	seq := v.TCPSeq(10, 20, 443)
	if !v.TCPAckValid(10, 20, 443, seq+1, false) {
		t.Error("SYN-ACK with seq+1 rejected")
	}
	if v.TCPAckValid(10, 20, 443, seq, false) {
		t.Error("SYN-ACK with seq accepted (only RST may ack seq)")
	}
	if !v.TCPAckValid(10, 20, 443, seq, true) {
		t.Error("RST with seq rejected")
	}
	if !v.TCPAckValid(10, 20, 443, seq+1, true) {
		t.Error("RST with seq+1 rejected")
	}
	if v.TCPAckValid(10, 20, 443, seq+2, true) {
		t.Error("ack seq+2 accepted")
	}
	if v.TCPAckValid(10, 21, 443, seq+1, false) {
		t.Error("wrong flow accepted")
	}
}

func TestTCPAckValidProperty(t *testing.T) {
	// Property: a random ack is (nearly) never valid for a random flow.
	v := testValidator()
	f := func(src, dst uint32, port uint16, ack uint32) bool {
		seq := v.TCPSeq(src, dst, port)
		valid := v.TCPAckValid(src, dst, port, ack, true)
		shouldBe := ack == seq || ack == seq+1
		return valid == shouldBe
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestICMPIDSeqStable(t *testing.T) {
	v := testValidator()
	id1, seq1 := v.ICMPIDSeq(5, 6)
	id2, seq2 := v.ICMPIDSeq(5, 6)
	if id1 != id2 || seq1 != seq2 {
		t.Error("ICMP id/seq not deterministic")
	}
	id3, seq3 := v.ICMPIDSeq(5, 7)
	if id1 == id3 && seq1 == seq3 {
		t.Error("different destination produced identical ICMP id/seq")
	}
}

func TestSourcePortRange(t *testing.T) {
	v := testValidator()
	const base, count = 32768, 100
	seen := make(map[uint16]bool)
	for ip := uint32(0); ip < 2000; ip++ {
		p := v.SourcePort(base, count, ip, 80)
		if p < base || p >= base+count {
			t.Fatalf("source port %d outside [%d, %d)", p, base, base+count)
		}
		seen[p] = true
	}
	if len(seen) < count/2 {
		t.Errorf("only %d distinct ports of %d used; poor spread", len(seen), count)
	}
	// Stable per flow.
	if v.SourcePort(base, count, 42, 80) != v.SourcePort(base, count, 42, 80) {
		t.Error("source port not stable per flow")
	}
	// Single-port config always returns base.
	if v.SourcePort(base, 1, 42, 80) != base || v.SourcePort(base, 0, 42, 80) != base {
		t.Error("single-port config wrong")
	}
}

func BenchmarkCompute(b *testing.B) {
	v := testValidator()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = v.Compute(uint32(i), uint32(i*3), 80)
	}
	benchSink = sink
}

var benchSink uint64

// countingAdder satisfies ComputeCounter.
type countingAdder struct{ n uint64 }

func (c *countingAdder) Add(n uint64) { c.n += n }

func TestInstrumentCountsComputes(t *testing.T) {
	v := New([KeySize]byte{1})
	c := &countingAdder{}
	v.Instrument(c)
	v.Compute(1, 2, 80)
	v.TCPSeq(1, 2, 80) // one Compute
	v.ICMPIDSeq(1, 2)  // one Compute
	v.Compute6([16]byte{1}, [16]byte{2}, 443)
	if c.n != 4 {
		t.Errorf("compute counter = %d, want 4", c.n)
	}
	// SourcePort with a range consults the validator too.
	v.SourcePort(32768, 256, 9, 80)
	if c.n != 5 {
		t.Errorf("compute counter = %d after SourcePort, want 5", c.n)
	}
	// Detaching stops counting without breaking computation.
	v.Instrument(nil)
	v.Compute(1, 2, 80)
	if c.n != 5 {
		t.Errorf("counter advanced after detach: %d", c.n)
	}
}
