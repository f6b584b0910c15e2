package fleet

import (
	"log/slog"

	"zmapgo/internal/checkpoint"
	"zmapgo/internal/metrics"
	"zmapgo/internal/trace"
)

// The coordinator↔worker protocol — lease grant/renew/fence,
// heartbeats, rate-budget publication, checkpoint adoption,
// result/metadata shipping, and the epoch commit record — has one
// implementation: the HTTP/JSON plane in internal/fleetnet, served for
// every fleet (on loopback when workers are spawned locally). It is a
// fencing facade over the fleet directory, so merge, crash-resume, and
// journal logic here read the same durable files the server writes.
//
// ControlPlane stays an interface only because this package cannot
// import internal/fleetnet (fleetnet imports fleet).

// PlaneInfo is what a ControlPlane learns about the fleet at Start:
// where the durable state lives, how wide the fleet is, and the hooks
// it journals and measures through.
type PlaneInfo struct {
	// Dir is the fleet state directory (shard dirs already exist).
	Dir string
	// Workers is the shard count.
	Workers int
	// Format is the scan output format (run-file extension).
	Format string
	// Journal receives control-plane decisions for the coordinator's
	// decision journal. Never nil after fleet.Run wiring.
	Journal func(trace.JEntry)
	// Metrics is the fleet's registry; planes may register counters.
	Metrics *metrics.Registry
	// Logger receives structured plane logs; never nil after wiring.
	Logger *slog.Logger
}

// ControlPlane is the coordinator's side of the protocol: how a shard
// epoch is granted (the fencing point), how a worker process is told to
// join it, and how each shard's live rate share reaches its worker.
type ControlPlane interface {
	// Start binds the plane to a running fleet. Called once, before any
	// Grant or SetRate.
	Start(info PlaneInfo) error
	// Grant publishes a new epoch's worker spec and lease. The lease
	// write is the fencing point: once it lands, renewals under any
	// older epoch fail. Spec must be durable before the lease.
	Grant(spec *WorkerSpec, lease *checkpoint.Lease) error
	// WorkerEnv returns the environment entries a locally-spawned
	// worker needs to find this grant.
	WorkerEnv(spec *WorkerSpec) []string
	// Offer makes a grant acquirable by a worker process the
	// coordinator did not spawn (zmapgo fleet-worker --join).
	Offer(spec *WorkerSpec)
	// TakeExit consumes a joined worker's reported exit code for the
	// given epoch, if one arrived.
	TakeExit(shard, epoch int) (code int, ok bool)
	// SetRate sets the shard's share of the fleet rate budget in pps
	// (0 = no cap). Every lease renewal answers with the latest value.
	SetRate(shard int, pps float64)
	// Close releases listeners and handles. Safe after Start failure.
	Close() error
}
