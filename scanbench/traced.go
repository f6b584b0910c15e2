package main

import (
	"time"
)

// tracedRun is a --trace 1 run. It runs rounds of an untraced scan (the
// tracing-overhead baseline), the same scan with transport spans on,
// and on reflect-multiport a scan at one receive worker (the sharding
// base). Interleaving lets drift in the machine's speed hit all three
// alike, and alternating which of the first two goes first cancels any
// order effect. The layer calls follow the scans.
type tracedRun struct {
	untraced, traced, oneWorker []*scanResult
	spans                       *spanLog
	layers                      []metric
	rate                        float64
}

// spanCapacity bounds the span log (about 14 MB); a reflect-multiport
// scan records roughly 16k send and 4k receive spans.
const spanCapacity = 1 << 18

func (r *runner) traced(budget time.Duration, recvWorkers int) (*tracedRun, error) {
	t := &tracedRun{spans: newSpanLog(spanCapacity), rate: r.in.w.rate}
	speedup := r.in.w.wire == wireReflect && recvWorkers > 1
	start := time.Now()
	for len(t.traced) < 2 || time.Since(start) < budget {
		pair := [2]*spanLog{nil, t.spans}
		if len(t.traced)%2 == 1 {
			pair[0], pair[1] = pair[1], pair[0]
		}
		for _, spans := range pair {
			res, err := r.run(spans, recvWorkers)
			if err != nil {
				return nil, err
			}
			if spans == nil {
				t.untraced = append(t.untraced, res)
			} else {
				t.traced = append(t.traced, res)
			}
		}
		if speedup {
			one, err := r.run(nil, 1)
			if err != nil {
				return nil, err
			}
			t.oneWorker = append(t.oneWorker, one)
		}
	}
	var err error
	if t.layers, err = measureLayers(r.in, recvWorkers); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *tracedRun) all() []*scanResult {
	out := append([]*scanResult(nil), t.untraced...)
	out = append(out, t.traced...)
	return append(out, t.oneWorker...)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayer reduces the traced run to the per-layer metrics: medians over
// the traced scans for span- and registry-based numbers, then the layer
// calls.
func (t *tracedRun) perLayer() []metric {
	med := func(f func(s *scanResult) float64) float64 { return medianOf(t.traced, f) }
	sendNs := func(s *scanResult) float64 { return s.sendS * 1e9 }

	var drops uint64
	for _, s := range t.all() {
		drops += s.ringDrops
	}
	// Overhead and speedup are medians of per-round ratios, each ratio
	// taken between scans run back to back.
	untracedPPS := medianOf(t.untraced, (*scanResult).scanPPS)
	overhead := make([]float64, len(t.traced))
	for i := range t.traced {
		overhead[i] = 1 - t.traced[i].scanPPS()/t.untraced[i].scanPPS()
	}
	var speedup, onePPS float64
	if len(t.oneWorker) > 0 {
		onePPS = medianOf(t.oneWorker, (*scanResult).scanPPS)
		ratios := make([]float64, len(t.oneWorker))
		for i, one := range t.oneWorker {
			ratios[i] = t.untraced[i].scanPPS() / one.scanPPS()
		}
		speedup = median(ratios)
	}
	overheadFrac := median(overhead)

	out := []metric{
		{"core.send_self_ns", med(func(s *scanResult) float64 {
			return s.perProbe(sendNs(s) - float64(s.layers.sendNs))
		}), "ns", ""},
		{"transport.send_ns", med(func(s *scanResult) float64 {
			return ratio(float64(s.layers.sendNs), float64(s.layers.sendFrames))
		}), "ns", ""},
		{"transport.frames_per_send", med(func(s *scanResult) float64 {
			return ratio(float64(s.layers.sendFrames), float64(s.layers.sendCalls))
		}), "count", ""},
		{"transport.frames_per_recv", med(func(s *scanResult) float64 {
			return ratio(float64(s.layers.recvFrames), float64(s.layers.recvCalls))
		}), "count", ""},
		{"transport.backpressure_frac", med(func(s *scanResult) float64 {
			return ratio(float64(s.layers.blockedNs), sendNs(s))
		}), "ratio", ""},
		{"transport.ring_drops", float64(drops), "count", ""},
		{"validate.computes_per_probe", med(func(s *scanResult) float64 {
			return s.perProbe(float64(s.layers.computes))
		}), "count", ""},
		{"ratelimit.wait_s", med(func(s *scanResult) float64 { return s.layers.rateWait.Seconds() }), "s", ""},
		{"ratelimit.lag_frac", med(func(s *scanResult) float64 {
			if t.rate == 0 {
				return 0
			}
			return 1 - s.scanPPS()/t.rate
		}), "ratio", ""},
		{"core.recv_validate_p50_us", med(func(s *scanResult) float64 { return float64(s.layers.recvP50) / 1e3 }), "us", ""},
		{"core.recv_validate_p99_us", med(func(s *scanResult) float64 { return float64(s.layers.recvP99) / 1e3 }), "us", ""},
		{"dedup.hit_frac", med(func(s *scanResult) float64 {
			hits := float64(s.layers.dedupHits)
			return ratio(hits, hits+float64(s.layers.dedupMisses))
		}), "ratio", ""},
		{"core.recv_invalid_frac", med(func(s *scanResult) float64 {
			return ratio(float64(s.layers.recvInvalid), float64(s.layers.packetsRecv))
		}), "ratio", ""},
		{"core.recv_shard_speedup", speedup, "ratio", ""},
		{"core.recv_1worker_pps", onePPS, "1/s", ""},
		{"tracing.overhead_pps", -overheadFrac * untracedPPS, "1/s", ""},
		{"tracing.overhead_frac", overheadFrac, "ratio", ""},
		{"oracle.missed_frac", missedFrac(t.all()), "ratio", ""},
	}
	return append(out, t.layers...)
}
