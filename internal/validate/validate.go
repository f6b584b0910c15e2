// Package validate implements ZMap's stateless response validation.
//
// ZMap keeps no per-probe state, so it must decide whether an inbound
// packet is a genuine response to a probe it sent — rather than backscatter
// or an attacker guessing — using only the packet itself. It does so by
// deriving the mutable fields of each probe (TCP sequence number, ICMP id,
// UDP source port entropy) from a keyed pseudorandom function of the flow
// tuple. A response echoes these fields (a SYN-ACK acknowledges seq+1), so
// the receiver can recompute the word and compare.
//
// Like the C implementation, the PRF is one AES block: a validation word
// is the first 8 bytes of E_k(src‖dst‖port‖zero pad), keyed with the
// per-scan 32-byte key (AES-256). IPv6 tuples do not fit one block, so
// Compute6 is a fixed-length CBC-MAC over src‖dst‖port (three blocks).
package validate

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"sync"
)

// KeySize is the size of the per-scan validation key in bytes.
const KeySize = 32

// ComputeCounter counts validation-word computations; satisfied by
// *metrics.Counter. A local interface keeps this package dependency-free.
type ComputeCounter interface {
	Add(n uint64)
}

// Validator computes per-target validation words for one scan.
//
// Compute sits on both hot paths — once per rendered probe and twice per
// classified response. Slices handed to cipher.Block.Encrypt escape, so
// the block buffers live in pooled Hashers rather than on the caller's
// stack: after warm-up a Compute performs no heap allocation, which the
// receive path's zero-alloc contract depends on. The pool makes the
// Validator safe for concurrent use by sender threads and receive workers.
type Validator struct {
	key      [KeySize]byte
	block    cipher.Block
	computes ComputeCounter
	hashers  sync.Pool // *Hasher, uncounted: Validator counts its own calls
}

// New creates a Validator with the given per-scan key.
func New(key [KeySize]byte) *Validator {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		// A KeySize-byte key is always a valid AES-256 key.
		panic("validate: " + err.Error())
	}
	return &Validator{key: key, block: block}
}

// NewRandom creates a Validator with a fresh random key.
func NewRandom() (*Validator, error) {
	var key [KeySize]byte
	if _, err := rand.Read(key[:]); err != nil {
		return nil, err
	}
	return New(key), nil
}

// Key returns the validator's key (for scan metadata / resumption).
func (v *Validator) Key() [KeySize]byte { return v.key }

// Instrument attaches a counter incremented once per validation-word
// computation (MakeProbe computes twice per probe — source port and
// sequence — and Classify once per candidate response, so this tracks
// validator load on both hot paths). Call before the scan starts; a nil
// counter disables counting.
func (v *Validator) Instrument(c ComputeCounter) { v.computes = c }

// NewHasher builds a reusable hasher keyed like the validator. It
// inherits the validator's compute counter (see Instrument) so
// validator-load metrics cover both paths; attach the counter before
// creating hashers.
func (v *Validator) NewHasher() *Hasher {
	return &Hasher{block: v.block, computes: v.computes}
}

// get counts one computation and fetches a pooled, uncounted Hasher;
// the caller puts it back.
func (v *Validator) get() *Hasher {
	if v.computes != nil {
		v.computes.Add(1)
	}
	if h, ok := v.hashers.Get().(*Hasher); ok {
		return h
	}
	return &Hasher{block: v.block}
}

// Compute returns the 8-byte validation word for a flow. The same tuple
// always produces the same word within a scan, so validation needs no
// lookup table. srcIP/dstIP are the PROBE's source and destination; when
// validating a response the caller swaps them back.
func (v *Validator) Compute(srcIP, dstIP uint32, dstPort uint16) uint64 {
	h := v.get()
	w := h.Compute(srcIP, dstIP, dstPort)
	v.hashers.Put(h)
	return w
}

// Compute6 is the IPv6 analogue of Compute over the 16-byte source and
// destination addresses plus the destination port.
func (v *Validator) Compute6(src, dst [16]byte, dstPort uint16) uint64 {
	h := v.get()
	w := h.compute6(src, dst, dstPort)
	v.hashers.Put(h)
	return w
}

// TCPSeq returns the 32-bit sequence number to place in a SYN probe for
// the flow. A valid SYN-ACK must acknowledge TCPSeq+1; a valid RST
// acknowledges TCPSeq+0 or +1 depending on the stack.
func (v *Validator) TCPSeq(srcIP, dstIP uint32, dstPort uint16) uint32 {
	return uint32(v.Compute(srcIP, dstIP, dstPort))
}

// TCPAckValid reports whether ack is a plausible acknowledgment of the
// probe identified by the flow tuple: seq+1 for SYN-ACKs, and seq or seq+1
// for RSTs (stacks differ).
func (v *Validator) TCPAckValid(srcIP, dstIP uint32, dstPort uint16, ack uint32, isRST bool) bool {
	seq := v.TCPSeq(srcIP, dstIP, dstPort)
	if ack == seq+1 {
		return true
	}
	return isRST && ack == seq
}

// ICMPIDSeq returns the (id, seq) pair for an ICMP echo probe.
func (v *Validator) ICMPIDSeq(srcIP, dstIP uint32) (id, seq uint16) {
	w := v.Compute(srcIP, dstIP, 0)
	return uint16(w >> 16), uint16(w)
}

// TCPSeq6 derives the SYN sequence number for a v6 flow.
func (v *Validator) TCPSeq6(src, dst [16]byte, dstPort uint16) uint32 {
	return uint32(v.Compute6(src, dst, dstPort))
}

// SourcePort returns the probe's TCP/UDP source port, drawn from the
// configured range [base, base+count) keyed by the flow so that retries
// reuse the same port but distinct targets spread load. This mirrors
// ZMap's --source-port range behavior.
func (v *Validator) SourcePort(base uint16, count uint16, dstIP uint32, dstPort uint16) uint16 {
	if count <= 1 {
		return base
	}
	return sourcePort(base, count, v.Compute(0, dstIP, dstPort))
}

func sourcePort(base, count uint16, w uint64) uint16 {
	return base + uint16(w>>32)%count
}

// Hasher computes validation words with one AES block encryption and
// zero heap allocations per call, for the batched send path. It owns the
// block buffers the cipher reads and writes, so nothing escapes per call.
//
// A Hasher is NOT safe for concurrent use: each sender thread owns one.
type Hasher struct {
	block    cipher.Block
	in, out  [aes.BlockSize]byte
	computes ComputeCounter
}

// encrypt counts one computation, enciphers in into out, and returns
// the word: the leading 8 bytes of out.
func (hr *Hasher) encrypt() uint64 {
	if hr.computes != nil {
		hr.computes.Add(1)
	}
	hr.block.Encrypt(hr.out[:], hr.in[:])
	return binary.BigEndian.Uint64(hr.out[:8])
}

// Compute returns the validation word for a flow; identical to
// Validator.Compute on the same key.
func (hr *Hasher) Compute(srcIP, dstIP uint32, dstPort uint16) uint64 {
	hr.in = [aes.BlockSize]byte{}
	binary.BigEndian.PutUint32(hr.in[0:4], srcIP)
	binary.BigEndian.PutUint32(hr.in[4:8], dstIP)
	binary.BigEndian.PutUint16(hr.in[8:10], dstPort)
	return hr.encrypt()
}

// compute6 returns the IPv6 validation word: the CBC-MAC (zero IV) of
// src‖dst‖port‖zero pad. The message length is fixed, which is what
// makes plain CBC-MAC a PRF. Only the last encryption is counted, so one
// word is one computation as in Compute.
func (hr *Hasher) compute6(src, dst [16]byte, dstPort uint16) uint64 {
	hr.in = src
	hr.block.Encrypt(hr.out[:], hr.in[:])
	for i := range hr.in {
		hr.in[i] = hr.out[i] ^ dst[i]
	}
	hr.block.Encrypt(hr.out[:], hr.in[:])
	hr.in = hr.out
	hr.in[0] ^= byte(dstPort >> 8)
	hr.in[1] ^= byte(dstPort)
	return hr.encrypt()
}

// SourcePort mirrors Validator.SourcePort.
func (hr *Hasher) SourcePort(base, count uint16, dstIP uint32, dstPort uint16) uint16 {
	if count <= 1 {
		return base
	}
	return sourcePort(base, count, hr.Compute(0, dstIP, dstPort))
}
