package main

import (
	"fmt"
	"strconv"

	"zmapgo/internal/netsim"
	"zmapgo/internal/packet"
	"zmapgo/internal/target"
	"zmapgo/zmap"
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// targetHash is one target's term in the send-side digest.
func targetHash(ip uint32, port uint16) uint64 { return mix64(uint64(ip)<<16 | uint64(port)) }

// rowHash is one result row's term in the output digest: FNV-1a over
// the row's "saddr,sport,classification" prefix, mixed. Summing terms
// makes the digest independent of row order but sensitive to repeats.
func rowHash(ip uint32, port uint16, class string) uint64 {
	var b [64]byte
	s := append(b[:0], target.FormatIPv4(ip)...)
	s = append(s, ',')
	s = strconv.AppendUint(s, uint64(port), 10)
	s = append(s, ',')
	s = append(s, class...)
	h := uint64(fnvOffset)
	for _, c := range s {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return mix64(h)
}

// rowDigest is the results sink: an io.Writer under the engine's CSV
// writer that discards the bytes but folds each row's first three
// fields into an order-independent digest, skipping the header line.
// Rows may straddle Write calls; the state machine carries across them.
type rowDigest struct {
	header bool
	commas int
	h      uint64
	rows   uint64
	sum    uint64
}

func newRowDigest() *rowDigest { return &rowDigest{h: fnvOffset} }

func (d *rowDigest) Write(p []byte) (int, error) {
	for _, c := range p {
		switch {
		case c == '\n':
			if d.header {
				d.rows++
				d.sum += mix64(d.h)
			}
			d.header = true
			d.commas, d.h = 0, fnvOffset
		case d.commas < 3:
			if c == ',' {
				d.commas++
				if d.commas == 3 {
					continue
				}
			}
			d.h = (d.h ^ uint64(c)) * fnvPrime
		}
	}
	return len(p), nil
}

// expectation is a workload's ground truth, computed outside the timed
// region.
type expectation struct {
	probes     uint64 // probes the scan must send
	rows       uint64 // unique result rows it must write
	digest     uint64 // sum of rowHash over those rows
	dups       uint64 // duplicate responses dedup must flag
	sendDigest uint64 // sum of targetHash over every target (send-null)
}

// expect computes the ground truth for the inputs.
func (in *inputs) expect() expectation {
	var e expectation
	switch in.w.wire {
	case wireNull:
		in.eachTarget(func(ip uint32, port uint16) {
			e.probes++
			e.sendDigest += targetHash(ip, port)
		})
	case wireReflect:
		r := &reflector{salt: in.salt}
		in.eachTarget(func(ip uint32, port uint16) {
			e.probes++
			e.rows++
			e.digest += rowHash(ip, port, "synack")
			if r.duplicate(ip, port) {
				e.dups++
			}
		})
	case wireSim:
		sim := in.internet()
		opts := packet.BuildOptions(packet.LayoutMSS, 0)
		in.eachTarget(func(ip uint32, port uint16) {
			e.probes++
			if !sim.ExpectedSYNACK(ip, port, opts) {
				return
			}
			e.rows++
			e.digest += rowHash(ip, port, "synack")
			if !sim.Middlebox(ip) && sim.ServiceOpen(ip, port) {
				e.dups += uint64(sim.BlowbackCount(ip, port))
			}
		})
	}
	return e
}

// internet is the workload's simulated population: the paper-calibrated
// defaults, lossless so every count is exact.
func (in *inputs) internet() *netsim.Internet {
	cfg := netsim.DefaultConfig(in.popSeed)
	cfg.ProbeLoss, cfg.ResponseLoss, cfg.PathBadFraction = 0, 0, 0
	return netsim.New(cfg)
}

// verdict is the oracle's judgement of one scan.
type verdict struct {
	missed   uint64 // expected rows not written, plus ring drops
	expected uint64
	problems []string
}

func (v verdict) ok() bool { return len(v.problems) == 0 }

// missedFrac is the failure share over scans: rows missed plus ring
// drops, over rows expected (at least one per scan, for send-null).
func missedFrac(scans []*scanResult) float64 {
	var missed, expected uint64
	for _, s := range scans {
		missed += s.verdict.missed
		expected += max(s.verdict.expected, 1)
	}
	return float64(missed) / float64(max(expected, 1))
}

// check compares one scan's outputs with the expectation.
func check(e expectation, sum *zmap.Summary, sink *rowDigest, ringDrops uint64, sendDigest uint64, isNull bool) verdict {
	v := verdict{expected: e.rows}
	fail := func(format string, args ...any) { v.problems = append(v.problems, fmt.Sprintf(format, args...)) }
	if sink.rows < e.rows {
		v.missed += e.rows - sink.rows
	}
	v.missed += ringDrops
	if sink.rows != e.rows {
		fail("wrote %d result rows, want %d", sink.rows, e.rows)
	} else if sink.sum != e.digest {
		fail("result digest %016x, want %016x", sink.sum, e.digest)
		v.missed = max(v.missed, 1)
	}
	if ringDrops != 0 {
		fail("%d frames dropped at the receive ring", ringDrops)
	}
	if sum.PacketsSent != e.probes {
		fail("sent %d probes, want %d", sum.PacketsSent, e.probes)
	}
	if sum.UniqueSucc != e.rows {
		fail("%d unique successes, want %d", sum.UniqueSucc, e.rows)
	}
	if sum.Duplicates != e.dups {
		fail("%d duplicates flagged, want %d", sum.Duplicates, e.dups)
	}
	if bad := sum.RecvTruncated + sum.RecvUnsupported + sum.RecvChecksumFail + sum.RecvInvalid; bad != 0 {
		fail("%d received frames rejected", bad)
	}
	if isNull {
		if sum.PacketsRecv != 0 {
			fail("received %d frames on the null transport", sum.PacketsRecv)
			v.missed += sum.PacketsRecv
		}
		if sendDigest != e.sendDigest {
			fail("probed-target digest %016x, want %016x", sendDigest, e.sendDigest)
		}
	}
	return v
}
