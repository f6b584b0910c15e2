package trace

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestRingRoundTrip(t *testing.T) {
	r := New(Config{Shards: 2, RingSize: 64})
	s0, s1 := r.Shard(0), r.Shard(1)
	s0.Record(KProbeGen, 0x0a000001, 80, 0)
	s0.Record(KProbeSent, 0x0a000001, 80, 7)
	s1.Record(KRespReceived, 0x0a000001, 80, 0)

	snap := r.Snapshot()
	if len(snap.Events) != 3 {
		t.Fatalf("got %d events, want 3", len(snap.Events))
	}
	for i := 1; i < len(snap.Events); i++ {
		if snap.Events[i].TS < snap.Events[i-1].TS {
			t.Fatalf("events not ts-sorted: %+v", snap.Events)
		}
	}
	e := snap.Events[0]
	if e.Kind != KProbeGen || e.IP != 0x0a000001 || e.Port != 80 {
		t.Fatalf("first event decoded wrong: %+v", e)
	}
	var sent *Event
	for i := range snap.Events {
		if snap.Events[i].Kind == KProbeSent {
			sent = &snap.Events[i]
		}
	}
	if sent == nil || sent.Val != 7 || sent.Shard != 0 || sent.Seq != 2 {
		t.Fatalf("sent event decoded wrong: %+v", sent)
	}
}

// TestRingWrap: overfilling a shard retains exactly the newest RingSize
// events with contiguous sequence numbers — the recorder is a window,
// not a leak.
func TestRingWrap(t *testing.T) {
	const ring = 32
	r := New(Config{Shards: 1, RingSize: ring})
	sh := r.Shard(0)
	const n = 5*ring + 3
	for i := 0; i < n; i++ {
		sh.Record(KProbeSent, uint32(i), uint16(i), uint64(i))
	}
	snap := r.Snapshot()
	if len(snap.Events) != ring {
		t.Fatalf("retained %d events, want %d", len(snap.Events), ring)
	}
	seqs := map[uint64]bool{}
	var minSeq, maxSeq uint64 = 1 << 62, 0
	for _, e := range snap.Events {
		seqs[e.Seq] = true
		if e.Seq < minSeq {
			minSeq = e.Seq
		}
		if e.Seq > maxSeq {
			maxSeq = e.Seq
		}
		if e.Val != uint64(e.Seq-1) {
			t.Fatalf("event %d payload skewed: %+v", e.Seq, e)
		}
	}
	if maxSeq != n || minSeq != n-ring+1 || len(seqs) != ring {
		t.Fatalf("retained window [%d,%d] x%d, want [%d,%d]", minSeq, maxSeq, len(seqs), n-ring+1, n)
	}
}

func TestSampling(t *testing.T) {
	r := New(Config{SampleEvery: 256})
	if r.SampleEvery() != 256 {
		t.Fatalf("SampleEvery = %d", r.SampleEvery())
	}
	hits := 0
	const n = 1 << 16
	for i := 0; i < n; i++ {
		ip := 0x0a000000 | uint32(i)
		if r.Sampled(ip, 443) != r.Sampled(ip, 443) {
			t.Fatal("Sampled not deterministic")
		}
		if r.Sampled(ip, 443) {
			hits++
			if r.Key(ip, 443) == 0 {
				t.Fatal("sampled target got zero key")
			}
			kip, kport := KeyParts(r.Key(ip, 443))
			if kip != ip || kport != 443 {
				t.Fatalf("key round trip: got %x:%d want %x:443", kip, kport, ip)
			}
		} else if r.Key(ip, 443) != 0 {
			t.Fatal("unsampled target got non-zero key")
		}
	}
	want := n / 256
	if hits < want/2 || hits > want*2 {
		t.Fatalf("sampled %d of %d targets, want ~%d", hits, n, want)
	}

	all := New(Config{SampleEvery: 1})
	if !all.Sampled(1, 1) || !all.Sampled(0xffffffff, 65535) {
		t.Fatal("SampleEvery 1 must sample everything")
	}
	off := New(Config{SampleEvery: -1})
	for i := 0; i < 4096; i++ {
		if off.Sampled(uint32(i*2654435761), uint16(i)) {
			t.Fatal("disabled sampling still sampled a target")
		}
	}
}

func TestJournalBounded(t *testing.T) {
	r := New(Config{JournalCap: 4})
	for i := 0; i < 10; i++ {
		r.Journal(JEntry{Kind: JPhase, Phase: "send"})
	}
	snap := r.Snapshot()
	if len(snap.Journal) != 4 || snap.JournalDrop != 6 {
		t.Fatalf("journal len %d drop %d, want 4 and 6", len(snap.Journal), snap.JournalDrop)
	}
	if snap.Journal[0].TS == 0 {
		t.Fatal("journal entry not timestamped")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := New(Config{Shards: 2, RingSize: 64})
	r.Shard(0).Record(KProbeGen, 0xc0a80102, 443, 0)
	r.Shard(0).Record(KProbeSent, 0xc0a80102, 443, 3)
	r.Shard(1).Record(KRespWritten, 0xc0a80102, 443, 0)
	r.Journal(JEntry{Kind: JRateDecrease, Reason: "unreach_spike", RatePPS: 5000,
		WindowSent: 100, WindowRecv: 3, UnreachFrac: 0.2})
	r.Journal(JEntry{Kind: JQuarantine, Prefix: "10.1.0.0/16"})

	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := r.Snapshot()
	if got.SampleEvery != want.SampleEvery || got.Shards != 2 || got.RingSize != 64 {
		t.Fatalf("meta mismatch: %+v", got)
	}
	if len(got.Events) != len(want.Events) {
		t.Fatalf("events %d != %d", len(got.Events), len(want.Events))
	}
	for i := range got.Events {
		if got.Events[i] != want.Events[i] {
			t.Fatalf("event %d: got %+v want %+v", i, got.Events[i], want.Events[i])
		}
	}
	if len(got.Journal) != 2 || got.Journal[0].Reason != "unreach_spike" ||
		got.Journal[0].RatePPS != 5000 || got.Journal[1].Prefix != "10.1.0.0/16" {
		t.Fatalf("journal mismatch: %+v", got.Journal)
	}
}

func TestChromeTraceParses(t *testing.T) {
	r := New(Config{Shards: 1, RingSize: 64})
	r.Shard(0).Record(KProbeGen, 0x0a000001, 80, 0)
	r.Shard(0).Record(KRespWritten, 0x0a000001, 80, 0)
	r.Journal(JEntry{Kind: JRateDecrease, Reason: "hit_rate_collapse", RatePPS: 1234})

	var buf bytes.Buffer
	if err := r.Snapshot().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range out.TraceEvents {
		names[e["name"].(string)] = true
		if _, ok := e["ph"].(string); !ok {
			t.Fatalf("event missing phase: %v", e)
		}
	}
	for _, want := range []string{"probe_gen", "resp_written", "rate_decrease", "controller_rate_pps", "10.0.0.1:80"} {
		if !names[want] {
			t.Fatalf("chrome trace missing %q event (have %v)", want, names)
		}
	}
}

// TestSnapshotUnderWriters is the -race probe for the seqlock: shards
// hammered by their writers while snapshots run concurrently must yield
// only well-formed events, in a hole-free window per shard.
func TestSnapshotUnderWriters(t *testing.T) {
	r := New(Config{Shards: 4, RingSize: 128})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			sh := r.Shard(shard)
			var n uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				n++
				sh.Record(KProbeSent, uint32(n), uint16(n), n)
			}
		}(i)
	}
	for i := 0; i < 50; i++ {
		snap := r.Snapshot()
		perShard := map[int]map[uint64]bool{}
		for _, e := range snap.Events {
			if e.Kind != KProbeSent || e.Seq == 0 {
				t.Fatalf("malformed event under concurrency: %+v", e)
			}
			if e.Val != e.Seq {
				t.Fatalf("torn slot leaked through: %+v", e)
			}
			m := perShard[e.Shard]
			if m == nil {
				m = map[uint64]bool{}
				perShard[e.Shard] = m
			}
			if m[e.Seq] {
				t.Fatalf("duplicate seq %d in shard %d", e.Seq, e.Shard)
			}
			m[e.Seq] = true
		}
		// Writers lap the reader here (128-slot rings), yet each shard's
		// retained window must still be hole-free.
		for shard, m := range perShard {
			lo, hi := ^uint64(0), uint64(0)
			for seq := range m {
				lo, hi = min(lo, seq), max(hi, seq)
			}
			if uint64(len(m)) != hi-lo+1 {
				t.Fatalf("shard %d: %d events spanning seqs %d..%d", shard, len(m), lo, hi)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// BenchmarkTraceRecord is the engine's per-event hot path: RecordAt
// with a caller-held timestamp. The send and receive loops already hold
// one (batch resolve time, receive time), so per-event cost excludes
// the clock read; BenchmarkTraceRecordStamp prices the variant that
// stamps its own. The ≤50ns/0-alloc budget applies here.
func BenchmarkTraceRecord(b *testing.B) {
	r := New(Config{Shards: 1, RingSize: 8192})
	sh := r.Shard(0)
	ts := r.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.RecordAt(ts, KProbeSent, uint32(i), uint16(i), uint64(i))
	}
}

// BenchmarkTraceRecordStamp includes the monotonic clock read
// (time.Since of the epoch) — the cost when no timestamp is at hand.
func BenchmarkTraceRecordStamp(b *testing.B) {
	r := New(Config{Shards: 1, RingSize: 8192})
	sh := r.Shard(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.Record(KProbeSent, uint32(i), uint16(i), uint64(i))
	}
}

func BenchmarkTraceSampled(b *testing.B) {
	r := New(Config{})
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		if r.Sampled(uint32(i), 443) {
			n++
		}
	}
	_ = n
}
