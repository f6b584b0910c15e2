package zmap

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"zmapgo/internal/checkpoint"
	"zmapgo/internal/fleet"
	"zmapgo/internal/fleetnet"
)

// FleetResult is the fleet-level scan summary: per-shard supervision
// history, the merge accounting, and aggregated engine counters.
type FleetResult = fleet.Result

// FleetFaultPlan is a deterministic schedule of injected worker faults
// (kill, hang, slow) for chaos testing a fleet; see ParseFleetFaults.
type FleetFaultPlan = fleet.FaultPlan

// ErrFleetRespawnsExhausted is wrapped into RunFleet's error when one
// shard's worker died more times than FleetOptions.MaxRespawns allows.
var ErrFleetRespawnsExhausted = fleet.ErrRespawnsExhausted

// ParseFleetFaults reads a fault schedule like
// "kill:0@800ms,hang:1@1.2s,slow:2@500ms/300ms" — each term is
// kind:shard@delay, with /duration on slow faults.
func ParseFleetFaults(s string) (*FleetFaultPlan, error) {
	return fleet.ParseFaultPlan(s)
}

// RandomFleetFaults derives a deterministic chaos schedule from a seed:
// count faults spread over the window, hitting random shards with
// random kinds. Same inputs, same plan.
func RandomFleetFaults(seed uint64, workers, count int, window, maxSlow time.Duration) *FleetFaultPlan {
	return fleet.RandomFaultPlan(seed, workers, count, window, maxSlow)
}

// FleetOptions configures a fault-tolerant multi-worker scan: one
// logical scan split into Workers pizza shards, each run by a separate
// supervised worker process against the shared simulated Internet, with
// crash recovery from per-shard checkpoints and an exactly-once merge
// of the results. See RunFleet.
type FleetOptions struct {
	// Workers is the shard/worker count (default 1).
	Workers int

	// Dir is the fleet state directory (default: a fresh temp dir).
	// Re-running over an existing directory resumes it: finished
	// shards are skipped, live workers are adopted, dead ones are
	// reclaimed and resumed from their checkpoints.
	Dir string

	// Binary is the worker executable; default is this process's own
	// binary, which must call FleetWorkerMain at the top of main().
	Binary string

	// Scan is the scan every worker runs, shipped to each as JSON: any
	// field rides along except the process-local json:"-" handles
	// (BlocklistFile and Resume are refused). Each worker sets its own
	// shard, output streams and checkpoint. Scan.Seed must be non-zero
	// so every worker derives the same permutation; Threads is per
	// worker; the compiled rate (Rate or Bandwidth) is the aggregate
	// budget, shared equally by live workers (0 = unlimited).
	Scan Options

	// Simulated Internet shared by all workers (the population is a
	// pure function of SimSeed, so every process sees the same hosts).
	SimSeed            uint64
	SimLossless        bool
	SimDisableBlowback bool
	SimTimeScale       float64

	// Supervision knobs; zero values take the fleet defaults
	// (2s lease TTL, TTL/4 heartbeat, 500ms checkpoints, 5 respawns,
	// 100ms initial backoff doubling to 2s). CheckpointInterval
	// overrides Scan.CheckpointInterval.
	LeaseTTL           time.Duration
	HeartbeatInterval  time.Duration
	CheckpointInterval time.Duration
	MaxRespawns        int
	RespawnBackoff     time.Duration
	RespawnBackoffMax  time.Duration

	// Faults optionally injects a chaos schedule into the run.
	Faults *FleetFaultPlan

	// Listen is the bind address of the control plane the coordinator
	// always serves: the coordinator↔worker protocol over HTTP/JSON
	// (host:port; default 127.0.0.1:0, and port 0 picks a free one).
	// Locally spawned workers join it on loopback; name a reachable
	// address for RemoteWorkers, and a fixed port so a restarted
	// coordinator can adopt workers still running. The durable state
	// lives in Dir — the server is a fencing facade over its files.
	Listen string
	// Advertise overrides the URL published to workers (useful when
	// workers reach the coordinator through a different address, e.g. a
	// proxy or NAT). Default: http://<bound address>.
	Advertise string
	// JoinToken is required on every worker RPC. When empty and the
	// workers are spawned locally, the fleet uses a random token kept in
	// <Dir>/join.token (mode 0600, reused when Dir is re-run) and hands
	// it to each worker through its environment, so no other local user
	// can drive the control plane. Remote workers must be given the
	// token, so a RemoteWorkers fleet without one is open.
	JoinToken string
	// RemoteWorkers stops the coordinator from spawning local worker
	// processes: grants are offered over the network and remote
	// `zmapgo fleet-worker --join` processes acquire and run them.
	// Pair it with a Listen address those processes can reach.
	RemoteWorkers bool
	// OnListen, when set, receives the control plane's directly-bound
	// URL (http://<listen address>) once the listener is up, before any
	// worker is granted. Workers join via the Advertise URL when set;
	// the bound one is what a front proxy or health check targets.
	OnListen func(url string)

	// MergedOutput receives the deduplicated union of every shard's
	// results (default <Dir>/merged.<ext>). MetadataPath receives the
	// fleet summary document; TracePath the coordinator's decision
	// journal as JSONL ("-" disables either).
	MergedOutput string
	MetadataPath string
	TracePath    string

	// Metrics optionally supplies the registry fleet metrics record
	// into; Logger receives coordinator logs (nil discards).
	Metrics *MetricsRegistry
	Logger  *slog.Logger
}

// RunFleet splits the scan into Workers pizza shards and runs each in a
// supervised worker process: heartbeat leases detect crashed or hung
// workers, which are reclaimed and respawned from their last durable
// checkpoint with bounded backoff (at-least-once per shard), and the
// per-shard outputs are merged with cross-shard deduplication back to
// exactly-once. The merged result is byte-equivalent to an
// uninterrupted single-process scan of the same space (text format,
// sorted-unique), faults or not.
func RunFleet(ctx context.Context, o FleetOptions) (*FleetResult, error) {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Scan.BlocklistFile != nil || o.Scan.Resume != nil {
		return nil, errors.New("zmap: fleet scans cannot ship Scan.BlocklistFile or Scan.Resume to workers " +
			"(list CIDRs in Scan.Blocklist; re-run over the same Dir to resume)")
	}
	fps, rate, err := fleetFingerprints(o.Scan, o.Workers)
	if err != nil {
		return nil, err
	}
	payload, err := json.Marshal(fleetScan{
		Options:            o.Scan,
		SimSeed:            o.SimSeed,
		SimLossless:        o.SimLossless,
		SimDisableBlowback: o.SimDisableBlowback,
		SimTimeScale:       o.SimTimeScale,
	})
	if err != nil {
		return nil, err
	}
	dir := o.Dir
	if dir == "" {
		if dir, err = os.MkdirTemp("", "zmapgo-fleet-"); err != nil {
			return nil, err
		}
	}
	token := o.JoinToken
	if token == "" && !o.RemoteWorkers {
		if token, err = localJoinToken(dir); err != nil {
			return nil, err
		}
	}
	plane := fleetnet.NewServer(fleetnet.ServerOptions{
		Listen:    o.Listen,
		Advertise: o.Advertise,
		Token:     token,
		OnListen:  o.OnListen,
	})
	return fleet.Run(ctx, fleet.Config{
		Dir:                dir,
		Binary:             o.Binary,
		Plane:              plane,
		Scan:               payload,
		Format:             o.Scan.Format,
		Fingerprints:       fps,
		RateBudget:         rate,
		LeaseTTL:           o.LeaseTTL,
		HeartbeatInterval:  o.HeartbeatInterval,
		CheckpointInterval: o.CheckpointInterval,
		MaxRespawns:        o.MaxRespawns,
		RespawnBackoff:     o.RespawnBackoff,
		RespawnBackoffMax:  o.RespawnBackoffMax,
		Faults:             o.Faults,
		RemoteWorkers:      o.RemoteWorkers,
		MergedOutput:       o.MergedOutput,
		MetadataPath:       o.MetadataPath,
		TracePath:          o.TracePath,
		Metrics:            o.Metrics,
		Logger:             o.Logger,
	})
}

// localJoinToken returns the fleet directory's join token, creating a
// random one on first use. It outlives the coordinator so a restarted
// one still answers the live workers it adopts.
func localJoinToken(dir string) (string, error) {
	path := filepath.Join(dir, "join.token")
	if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
		return string(data), nil
	}
	var b [32]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	token := hex.EncodeToString(b[:])
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	if err := os.WriteFile(path, []byte(token), 0o600); err != nil {
		return "", fmt.Errorf("zmap: fleet join token: %w", err)
	}
	return token, nil
}

// fleetScan is the scan payload every worker of a fleet receives: the
// full Options plus the simulated Internet they all share (the
// population is a pure function of SimSeed, so every process observes
// the same hosts).
type fleetScan struct {
	Options
	SimSeed            uint64  `json:"sim_seed"`
	SimLossless        bool    `json:"sim_lossless,omitempty"`
	SimDisableBlowback bool    `json:"sim_disable_blowback,omitempty"`
	SimTimeScale       float64 `json:"sim_time_scale,omitempty"`
}

// fleetFingerprints predicts each shard's checkpoint fingerprint with
// the code its worker runs (Options.config, then
// core.Config.Fingerprint), so a reclaimed shard's checkpoint is judged
// by the engine's own defaults. It also returns the scan's compiled
// rate, the fleet's aggregate budget.
func fleetFingerprints(scan Options, workers int) ([]checkpoint.Fingerprint, float64, error) {
	fps := make([]checkpoint.Fingerprint, workers)
	var rate float64
	for i := range fps {
		scan.Shards, scan.ShardIndex = workers, i
		cfg, err := scan.config()
		if err != nil {
			return nil, 0, err
		}
		if fps[i], err = cfg.Fingerprint(); err != nil {
			return nil, 0, err
		}
		rate = cfg.Rate
	}
	return fps, rate, nil
}
