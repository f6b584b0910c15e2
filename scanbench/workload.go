package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"zmapgo/internal/target"
	"zmapgo/zmap"
)

type wireKind int

const (
	wireNull wireKind = iota
	wireReflect
	wireSim
)

// workload is one named whole-scan configuration. Every workload runs
// tcp_synscan with one sender thread; README.md says which layer each
// isolates.
type workload struct {
	name        string
	prefixBits  int    // the target block is one /prefixBits
	ports       string // zmap port syntax
	rate        float64
	recvWorkers int
	wire        wireKind
	// cooldown is short because every wire answers synchronously: once
	// the senders finish, only frames already queued remain to be read,
	// and the null wire never answers at all.
	cooldown time.Duration
}

// simPacedRate is about a third of what the simulator sustains unpaced
// with one sender and one receive worker (about 540k probes/s on a
// 2-core x86 box, see README.md), so the limiter paces every batch.
const simPacedRate = 180_000

var workloads = []*workload{
	{name: "send-null", prefixBits: 16, ports: "80", wire: wireNull, recvWorkers: 1, cooldown: 10 * time.Millisecond},
	{name: "reflect-multiport", prefixBits: 14, ports: "22,80,443,8080", wire: wireReflect, recvWorkers: 2, cooldown: 100 * time.Millisecond},
	{name: "sim-paced", prefixBits: 14, ports: "80", rate: simPacedRate, wire: wireSim, recvWorkers: 1, cooldown: 100 * time.Millisecond},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// inputs are everything a run derives from its seed: which block is
// scanned, the scan's permutation seed, the reflector's duplicate salt
// and the simulated population. The same seed gives the same inputs.
type inputs struct {
	w        *workload
	seed     int64
	base     uint32
	scanSeed int64
	salt     uint64
	popSeed  uint64
	ports    []uint16
}

func newInputs(w *workload, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	ps, err := target.ParsePorts(w.ports)
	if err != nil {
		return nil, err
	}
	in := &inputs{
		w:        w,
		seed:     seed,
		scanSeed: rng.Int63n(1<<62) + 1,
		salt:     rng.Uint64(),
		popSeed:  rng.Uint64(),
		ports:    make([]uint16, ps.Len()),
	}
	for i := range in.ports {
		in.ports[i] = ps.At(i)
	}
	// A block inside 11.0.0.0-99.255.255.255: public-looking space well
	// clear of the scanner's 192.0.2.1 source address. On the simulated
	// population the block must hold no middlebox /16: one would answer
	// all of its 65536 addresses and turn the calibrated mix (about 1.2%
	// unique hits) into a different workload from seed to seed.
	blocks := uint32(89) << (w.prefixBits - 8)
	for {
		in.base = uint32(11)<<24 + uint32(rng.Int63n(int64(blocks)))<<(32-w.prefixBits)
		if w.wire != wireSim || !in.hasMiddlebox() {
			return in, nil
		}
	}
}

// hasMiddlebox reports whether any /16 of the block is fronted by a
// simulated middlebox.
func (in *inputs) hasMiddlebox() bool {
	sim := in.internet()
	for ip := uint64(in.base); ip < uint64(in.base)+in.numIPs(); ip += 1 << 16 {
		if sim.Middlebox(uint32(ip)) {
			return true
		}
	}
	return false
}

func (in *inputs) cidr() string {
	return fmt.Sprintf("%s/%d", target.FormatIPv4(in.base), in.w.prefixBits)
}

func (in *inputs) numIPs() uint64 { return 1 << (32 - in.w.prefixBits) }

// eachTarget visits every (ip, port) target of the scan.
func (in *inputs) eachTarget(fn func(ip uint32, port uint16)) {
	for i := uint64(0); i < in.numIPs(); i++ {
		for _, p := range in.ports {
			fn(in.base+uint32(i), p)
		}
	}
}

// options is the scan configuration handed to Compile.
func (in *inputs) options(results io.Writer, recvWorkers int) zmap.Options {
	return zmap.Options{
		Ranges:      []string{in.cidr()},
		Ports:       in.w.ports,
		Probe:       "tcp_synscan",
		Rate:        in.w.rate,
		Threads:     1,
		RecvWorkers: recvWorkers,
		Seed:        in.scanSeed,
		Cooldown:    in.w.cooldown,
		Format:      "csv",
		Results:     results,
	}
}
