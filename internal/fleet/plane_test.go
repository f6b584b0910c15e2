package fleet

import (
	"context"
	"log/slog"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"zmapgo/internal/checkpoint"
	"zmapgo/internal/metrics"
	"zmapgo/internal/trace"
)

// stubPlane is the minimal ControlPlane for coordinator tests that never
// reach a worker: it grants nothing durable and records rate shares.
type stubPlane struct {
	mu    sync.Mutex
	rates map[int]float64
}

func (p *stubPlane) Start(PlaneInfo) error                         { return nil }
func (p *stubPlane) Grant(*WorkerSpec, *checkpoint.Lease) error    { return nil }
func (p *stubPlane) WorkerEnv(*WorkerSpec) []string                { return nil }
func (p *stubPlane) Offer(*WorkerSpec)                             {}
func (p *stubPlane) TakeExit(shard, epoch int) (code int, ok bool) { return 0, false }
func (p *stubPlane) Close() error                                  { return nil }

func (p *stubPlane) SetRate(shard int, pps float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rates == nil {
		p.rates = map[int]float64{}
	}
	p.rates[shard] = pps
}

func (p *stubPlane) rate(shard int) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rates[shard]
}

// TestNilPlaneRejected: the control plane is required; a fleet without
// one is a config error, never a silent default, and leaves no
// directory behind.
func TestNilPlaneRejected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fleet")
	_, err := Run(context.Background(), Config{
		Dir: dir, Fingerprints: []checkpoint.Fingerprint{slotFingerprint},
		Binary: "/bin/false",
	})
	if err == nil || !strings.Contains(err.Error(), "Plane is required") {
		t.Fatalf("nil Plane accepted: %v", err)
	}
}

// TestSetAliveMovesBudgetThroughPlane: losing a worker hands its share
// of the budget to the survivors through the plane, the dead shard keeps
// its last share until it is live again, and recovery splits the
// budget evenly once more. Every move is journaled.
func TestSetAliveMovesBudgetThroughPlane(t *testing.T) {
	reg := metrics.NewRegistry()
	plane := &stubPlane{}
	c := &coordinator{
		cfg:          Config{RateBudget: 1000},
		log:          slog.New(slog.DiscardHandler),
		jr:           trace.New(trace.Config{Shards: 1, SampleEvery: -1}),
		plane:        plane,
		alive:        []bool{true, true},
		workersAlive: reg.Gauge("zmapgo_fleet_workers_alive", "test"),
	}
	for i := 0; i < 2; i++ {
		lbl := strconv.Itoa(i)
		c.workerUp = append(c.workerUp, reg.GaugeWith("zmapgo_fleet_worker_up", "test", "shard", lbl))
		c.rateAlloc = append(c.rateAlloc, reg.GaugeWith("zmapgo_fleet_rate_allocation_pps", "test", "shard", lbl))
	}
	c.mu.Lock()
	c.reallocateLocked("start")
	c.mu.Unlock()
	if plane.rate(0) != 500 || plane.rate(1) != 500 {
		t.Fatalf("start shares %v/%v, want 500/500", plane.rate(0), plane.rate(1))
	}

	c.setAlive(1, false, "crash")
	if plane.rate(0) != 1000 {
		t.Fatalf("survivor's share %v after a loss, want the full 1000", plane.rate(0))
	}
	if plane.rate(1) != 500 {
		t.Fatalf("dead shard's share moved to %v; it keeps its last share", plane.rate(1))
	}

	c.setAlive(1, true, "spawn")
	if plane.rate(0) != 500 || plane.rate(1) != 500 {
		t.Fatalf("recovered shares %v/%v, want 500/500", plane.rate(0), plane.rate(1))
	}
	var moves []float64
	for _, e := range c.jr.Snapshot().Journal {
		if e.Kind == trace.JFleetRateRealloc {
			moves = append(moves, e.RatePPS)
		}
	}
	if len(moves) != 2 || moves[0] != 1000 || moves[1] != 500 {
		t.Fatalf("journaled reallocations %v, want [1000 500]", moves)
	}
}
