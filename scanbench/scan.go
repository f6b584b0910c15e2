package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"

	"zmapgo/internal/netsim"
	"zmapgo/zmap"
)

// scanResult is one whole scan's measurements and the oracle's verdict.
type scanResult struct {
	setupS, totalS float64
	sendS          float64 // the "send" phase from Summary.Phases
	probes         uint64
	cpuNs          float64
	mallocs, bytes uint64
	peakHeap       uint64
	ringDrops      uint64
	verdict        verdict
	layers         scanLayers
}

// scanLayers are one scan's per-layer readings, copied out of the
// transport (traced scans only), the reflector, the Summary and the
// engine's registry right after Run, so that no scanner outlives its
// scan.
type scanLayers struct {
	sendCalls, sendFrames    uint64
	recvCalls, recvFrames    uint64
	sendNs, blockedNs        int64
	poolMisses               uint64 // reflector frames allocated, not pooled
	computes                 uint64
	dedupHits, dedupMisses   uint64
	rateWait                 time.Duration
	recvP50, recvP99         time.Duration
	packetsRecv, recvInvalid uint64
}

func readLayers(tr *transport, rf *reflector, sum *zmap.Summary, reg *zmap.MetricsRegistry) scanLayers {
	l := scanLayers{
		computes:    reg.Counter("zmapgo_validate_computes_total", "").Value(),
		dedupHits:   reg.Counter("zmapgo_dedup_hits_total", "").Value(),
		dedupMisses: reg.Counter("zmapgo_dedup_misses_total", "").Value(),
		packetsRecv: sum.PacketsRecv,
		recvInvalid: sum.RecvInvalid,
	}
	if tr != nil {
		l.sendCalls, l.sendFrames = tr.sendCalls.Load(), tr.sendFrames.Load()
		l.recvCalls, l.recvFrames = tr.recvCalls.Load(), tr.recvFrames.Load()
		l.sendNs = tr.sendNs.Load()
	}
	if rf != nil {
		l.blockedNs = rf.blockedNs.Load()
		l.poolMisses = rf.poolMisses.Load()
	}
	wait := reg.Histogram("zmapgo_ratelimit_wait_seconds", "", 1).Snapshot()
	l.rateWait = time.Duration(wait.SumNs)
	rv := reg.Histogram("zmapgo_recv_validate_seconds", "", 1).Snapshot()
	l.recvP50, l.recvP99 = rv.Quantile(0.50), rv.Quantile(0.99)
	return l
}

func (r *scanResult) scanPPS() float64 { return float64(r.probes) / r.sendS }

func (r *scanResult) perProbe(v float64) float64 { return v / float64(max(r.probes, 1)) }

// runner owns what a run reuses across its scans: the inputs, their
// ground truth, the reflector and the simulated population.
type runner struct {
	in   *inputs
	exp  expectation
	rf   *reflector
	sim  *netsim.Internet
	scan int
}

func newRunner(in *inputs) *runner {
	r := &runner{in: in, exp: in.expect()}
	switch in.w.wire {
	case wireReflect:
		r.rf = newReflector(in.salt)
	case wireSim:
		r.sim = in.internet()
	}
	return r
}

// simRing sizes the simulated link's receive ring above the longest
// blowback train (netsim caps trains at 5000 duplicates), which is
// delivered at once when the time scale is 0.
const simRing = 1 << 15

// run executes one whole scan: Options.Compile, then Scanner.Run. Only
// Compile and Run are inside the measured region; the wire, the sink
// and a full GC come before it.
func (r *runner) run(spans *spanLog, recvWorkers int) (*scanResult, error) {
	var w wire
	var nw *nullWire
	switch r.in.w.wire {
	case wireNull:
		nw = newNullWire()
		w = nw
	case wireReflect:
		r.rf.reset(spans != nil)
		w = r.rf
	case wireSim:
		link := netsim.NewLink(r.sim, simRing, 0)
		defer link.Close()
		w = link
	}
	r.scan++
	// Untraced scans get the wire itself; traced ones a wrapper that
	// times every call into it.
	var t zmap.Transport = w
	var tr *transport
	if spans != nil {
		tr = newTransport(w, spans, r.scan)
		t = tr
	}
	sink := newRowDigest()
	opts := r.in.options(sink, recvWorkers)

	// Start every scan from a collected heap whose free pages are back
	// with the OS, as in a fresh process: Compile's allocations then
	// always pay their page faults, instead of only when the background
	// scavenger happened to run since the previous scan.
	debug.FreeOSMemory()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	heap := startHeapSampler()
	t0 := time.Now()
	sc, err := opts.Compile(t)
	if err != nil {
		heap.stop()
		return nil, fmt.Errorf("compile: %w", err)
	}
	t1 := time.Now()
	sum, err := sc.Run(context.Background())
	t2 := time.Now()
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)
	// One collection with the scanner still reachable adds its end-of-
	// scan live heap to the peak.
	runtime.GC()
	peak := heap.stop()
	runtime.KeepAlive(sc)
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}

	res := &scanResult{
		setupS:   t1.Sub(t0).Seconds(),
		totalS:   t2.Sub(t0).Seconds(),
		probes:   sum.PacketsSent,
		cpuNs:    float64(cpu1 - cpu0),
		mallocs:  m1.Mallocs - m0.Mallocs,
		bytes:    m1.TotalAlloc - m0.TotalAlloc,
		peakHeap: peak,
		layers:   readLayers(tr, r.rf, sum, sc.Metrics()),
	}
	for _, p := range sum.Phases {
		if p.Phase == "send" {
			res.sendS = p.DurationSecs
		}
	}
	_, _, res.ringDrops = w.Stats()
	var sendDigest uint64
	if nw != nil {
		sendDigest = nw.digest
	}
	res.verdict = check(r.exp, sum, sink, res.ringDrops, sendDigest, nw != nil)
	if r.rf != nil {
		if left := r.rf.drain(); left != 0 {
			res.verdict.problems = append(res.verdict.problems,
				fmt.Sprintf("%d reflected frames left unread in the ring", left))
		}
	}
	return res, nil
}

// cpuTime is the process's user+system CPU time in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// heapSampler tracks the high-water mark of the Go heap's live bytes:
// the most any garbage collection during the scan found reachable. The
// bytes in not-yet-swept objects peak wherever the GC pacer happens to
// trigger, which varies by several megabytes from scan to scan; the live
// heap is what the scan actually needs. It changes only when a
// collection ends, so sampling every 5 ms misses nothing but two
// collections ending within one interval.
type heapSampler struct {
	quit chan struct{}
	done chan uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	hs := &heapSampler{quit: make(chan struct{}), done: make(chan uint64)}
	go func() {
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-hs.quit:
				metrics.Read(sample)
				hs.done <- max(peak, sample[0].Value.Uint64())
				return
			case <-tick.C:
			}
		}
	}()
	return hs
}

// stop ends sampling (after one last sample) and returns the peak.
func (hs *heapSampler) stop() uint64 {
	close(hs.quit)
	return <-hs.done
}
