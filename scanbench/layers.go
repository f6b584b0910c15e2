package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"zmapgo/internal/cyclic"
	"zmapgo/internal/dedup"
	"zmapgo/internal/netsim"
	"zmapgo/internal/output"
	"zmapgo/internal/packet"
	"zmapgo/internal/probe"
	"zmapgo/internal/ratelimit"
	"zmapgo/internal/shard"
	"zmapgo/internal/target"
	"zmapgo/internal/validate"
)

// Layer calls replay a sample of the workload's own targets, probes and
// response frames through each layer's exported functions, timed one
// layer at a time. They run after the traced scans, outside them.
const (
	layerSample = 1 << 15 // targets replayed per call batch
	layerReps   = 9       // batches per layer; the median is reported
)

// Scanner identity as zmap.Options.Compile sets it up by default.
var (
	srcIP      = uint32(0xC0000201) // 192.0.2.1
	srcMAC     = packet.MAC{0x02, 0x5A, 0x47, 0x4F, 0x00, 0x01}
	gwMAC      = packet.MAC{0x02, 0x5A, 0x47, 0x4F, 0x00, 0xFE}
	sportBase  = uint16(32768)
	sportCount = uint16(256)
)

type tgt struct {
	ip   uint32
	port uint16
}

// layerEnv is the workload rebuilt layer by layer from its inputs.
type layerEnv struct {
	in    *inputs
	cons  *target.Constraint
	ports *target.PortSet
	space *cyclic.Space
	cycle cyclic.Cycle
	ctx   *probe.Context
	mod   probe.Module
	rend  *probe.Renderer

	elems   []uint64 // the first layerSample permutation elements
	targets []tgt
	probes  [][]byte
	replies [][]byte // the workload's response frames to probes
}

func newLayerEnv(in *inputs) (*layerEnv, error) {
	e := &layerEnv{in: in, cons: target.NewConstraint(false)}
	if err := e.cons.AllowCIDR(in.cidr()); err != nil {
		return nil, err
	}
	e.cons.Finalize()
	var err error
	if e.ports, err = target.ParsePorts(in.w.ports); err != nil {
		return nil, err
	}
	if e.space, err = cyclic.NewSpace(e.cons.Count(), uint64(e.ports.Len())); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(in.scanSeed))
	e.cycle = cyclic.NewCycle(e.space.Group(), rng)
	var key [validate.KeySize]byte
	rng.Read(key[:])
	e.ctx = &probe.Context{
		SrcIP:           srcIP,
		SrcMAC:          srcMAC,
		GwMAC:           gwMAC,
		Validator:       validate.New(key),
		SourcePortBase:  sportBase,
		SourcePortCount: sportCount,
		Options:         packet.LayoutMSS,
		RandomIPID:      true,
		TTL:             packet.DefaultProbeTTL,
		TimestampValue:  uint32(in.scanSeed),
	}
	if e.mod, err = probe.Lookup("tcp_synscan"); err != nil {
		return nil, err
	}
	tm, ok := e.mod.(probe.Templater)
	if !ok {
		return nil, fmt.Errorf("tcp_synscan has no template renderer")
	}
	if e.rend, err = tm.MakeTemplate(e.ctx); err != nil {
		return nil, err
	}

	it := e.iterator()
	for len(e.targets) < layerSample {
		el, ok := it.Next()
		if !ok {
			break
		}
		e.elems = append(e.elems, el)
		if ipIdx, portIdx, ok := e.space.Decode(el); ok {
			e.targets = append(e.targets, tgt{e.cons.At(ipIdx), e.ports.At(int(portIdx))})
		}
	}
	for _, t := range e.targets {
		f := make([]byte, e.rend.Len())
		e.rend.Seed(f)
		e.rend.Render(f, t.ip, t.port)
		e.probes = append(e.probes, f)
	}
	e.replies = e.responses()
	return e, nil
}

func (e *layerEnv) iterator() *cyclic.Iterator {
	a := shard.Plan(shard.Pizza, e.space.Group().Order(), 1, 1, 0, 0)
	return a.Iterator(e.cycle)
}

// responses are what the workload's wire answers the sampled probes
// with: the reflector's SYN-ACKs (also used for send-null, whose wire
// answers nothing) or the simulated population's replies.
func (e *layerEnv) responses() [][]byte {
	var out [][]byte
	if e.in.w.wire == wireSim {
		sim := e.in.internet()
		for _, p := range e.probes {
			for _, r := range sim.Respond(p) {
				out = append(out, append([]byte(nil), r.Frame...))
				netsim.PutFrame(r.Frame)
			}
		}
		return out
	}
	var sc packet.FrameScratch
	for _, p := range e.probes {
		if f, err := sc.ParseVerified(p); err == nil {
			out = append(out, buildSYNACK(nil, f))
		}
	}
	return out
}

// timeOps runs fn, which performs n operations, layerReps times and
// returns the median nanoseconds per operation and the allocations per
// operation of the final batch.
func timeOps(n int, fn func()) (ns, allocs float64) {
	if n == 0 {
		return 0, 0
	}
	samples := make([]float64, layerReps)
	var m0, m1 runtime.MemStats
	for i := range samples {
		last := i == len(samples)-1
		if last {
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		fn()
		samples[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
		if last {
			runtime.ReadMemStats(&m1)
		}
	}
	return median(samples), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// sink keeps results of timed loops alive.
var sink uint64

// virtualClock lets the limiter's pacing arithmetic run without
// sleeping: Sleep advances Now.
type virtualClock struct{ now time.Time }

func (c *virtualClock) Now() time.Time        { return c.now }
func (c *virtualClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// measureLayers times every layer call on the workload's inputs.
func measureLayers(in *inputs, recvWorkers int) ([]metric, error) {
	e, err := newLayerEnv(in)
	if err != nil {
		return nil, err
	}
	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit, ""}) }

	// cyclic: group selection plus generator search, as Compile does it.
	setup, _ := timeOps(1, func() {
		sp, _ := cyclic.NewSpace(e.cons.Count(), uint64(e.ports.Len()))
		c := cyclic.NewCycle(sp.Group(), rand.New(rand.NewSource(in.scanSeed)))
		sink += c.Generator
	})
	add("cyclic.setup_ns", setup, "ns")
	next, _ := timeOps(len(e.elems), func() {
		it := e.iterator()
		for range e.elems {
			el, _ := it.Next()
			sink += el
		}
	})
	add("cyclic.next_ns", next, "ns")
	decode, _ := timeOps(len(e.elems), func() {
		for _, el := range e.elems {
			if ipIdx, portIdx, ok := e.space.Decode(el); ok {
				sink += uint64(e.cons.At(ipIdx)) + uint64(e.ports.At(int(portIdx)))
			}
		}
	})
	add("target.decode_ns", decode, "ns")

	// probe render and the validation words inside it.
	frame := make([]byte, e.rend.Len())
	e.rend.Seed(frame)
	render, renderAllocs := timeOps(len(e.targets), func() {
		for _, t := range e.targets {
			e.rend.Render(frame, t.ip, t.port)
		}
	})
	add("probe.render_ns", render, "ns")
	add("probe.render_allocs", renderAllocs, "count")
	h := e.ctx.Validator.NewHasher()
	compute, _ := timeOps(len(e.targets), func() {
		for _, t := range e.targets {
			sink += h.Compute(srcIP, t.ip, t.port)
		}
	})
	add("validate.compute_ns", compute, "ns")
	sport, _ := timeOps(len(e.targets), func() {
		for _, t := range e.targets {
			sink += uint64(h.SourcePort(sportBase, sportCount, t.ip, t.port))
		}
	})
	add("validate.sport_ns", sport, "ns")

	// ratelimit: the pacing arithmetic per granted probe at the
	// workload's configured rate (unlimited workloads grant at once).
	lim := ratelimit.New(in.w.rate, &virtualClock{now: time.Unix(0, 0)})
	waitN, _ := timeOps(len(e.targets), func() {
		for got := 0; got < len(e.targets); {
			got += lim.WaitN(64)
		}
	})
	add("ratelimit.waitn_ns", waitN, "ns")

	// receive side on the workload's response frames.
	var sc packet.FrameScratch
	parse, parseAllocs := timeOps(len(e.replies), func() {
		for _, r := range e.replies {
			f, _ := sc.ParseVerified(r)
			sink += uint64(f.IP.Src)
		}
	})
	add("packet.parse_ns", parse, "ns")
	add("packet.parse_allocs", parseAllocs, "count")
	parsed := make([]*packet.Frame, 0, len(e.replies))
	var records []output.Record
	for _, r := range e.replies {
		f, err := packet.ParseVerified(r)
		if err != nil {
			return nil, fmt.Errorf("workload response does not parse: %w", err)
		}
		parsed = append(parsed, f)
		if res, ok := e.mod.Classify(e.ctx, f); ok {
			records = append(records, output.Record{
				Saddr: target.FormatIPv4(res.IP), Sport: res.Port, Classification: res.Class,
				Success: res.Success, TTL: res.TTL, Timestamp: 1.5,
			})
		}
	}
	if len(records) != len(parsed) {
		return nil, fmt.Errorf("%d of %d workload responses fail classification", len(parsed)-len(records), len(parsed))
	}
	classify, _ := timeOps(len(parsed), func() {
		for _, f := range parsed {
			res, _ := e.mod.Classify(e.ctx, f)
			sink += uint64(res.IP)
		}
	})
	add("probe.classify_ns", classify, "ns")

	// dedup: the engine's per-worker window, fresh keys then repeats.
	per := (dedup.DefaultWindowSize + recvWorkers - 1) / recvWorkers
	fresh, repeat := make([]float64, 0, layerReps), make([]float64, 0, layerReps)
	for i := 0; i < layerReps; i++ {
		w := dedup.NewWindow(per)
		t0 := time.Now()
		for _, t := range e.targets {
			w.Seen(t.ip, t.port)
		}
		t1 := time.Now()
		for _, t := range e.targets {
			w.Seen(t.ip, t.port)
		}
		t2 := time.Now()
		fresh = append(fresh, float64(t1.Sub(t0).Nanoseconds())/float64(len(e.targets)))
		repeat = append(repeat, float64(t2.Sub(t1).Nanoseconds())/float64(len(e.targets)))
	}
	add("dedup.seen_fresh_ns", median(fresh), "ns")
	add("dedup.seen_repeat_ns", median(repeat), "ns")
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const windowSets = 5
	newWindows := make([]float64, 0, windowSets)
	for i := 0; i < windowSets; i++ {
		t0 := time.Now()
		for j := 0; j < recvWorkers; j++ {
			sink += uint64(dedup.NewWindow(per).Size())
		}
		newWindows = append(newWindows, float64(time.Since(t0).Nanoseconds()))
	}
	runtime.ReadMemStats(&m1)
	add("dedup.new_window_ns", median(newWindows), "ns")
	add("dedup.window_bytes", float64(m1.TotalAlloc-m0.TotalAlloc)/windowSets, "B")

	// output: the workload's writer (CSV behind the default filter).
	filter, err := output.CompileFilter(output.DefaultFilterExpr)
	if err != nil {
		return nil, err
	}
	wr := &output.Filtered{W: output.NewCSVWriter(newRowDigest()), Filter: filter}
	var werr error
	write, writeAllocs := timeOps(len(records), func() {
		for _, rec := range records {
			if err := wr.Write(rec); err != nil {
				werr = err
			}
		}
	})
	if werr != nil {
		return nil, fmt.Errorf("output write: %w", werr)
	}
	add("output.write_ns", write, "ns")
	add("output.write_allocs", writeAllocs, "count")

	// netsim: the simulated population answering the workload's probes.
	sim := in.internet()
	respond, respondAllocs := timeOps(len(e.probes), func() {
		for _, p := range e.probes {
			for _, r := range sim.Respond(p) {
				netsim.PutFrame(r.Frame)
			}
		}
	})
	add("netsim.respond_ns", respond, "ns")
	add("netsim.respond_allocs", respondAllocs, "count")
	return out, nil
}
