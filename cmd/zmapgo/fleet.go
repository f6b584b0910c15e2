package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"zmapgo/zmap"
)

// runFleet is the `zmapgo fleet` subcommand: one logical scan split into
// --workers pizza shards, each run by a supervised worker process
// (re-executions of this binary, dispatched through FleetWorkerMain),
// with crash recovery from per-shard checkpoints and an exactly-once
// merge of the results.
func runFleet(args []string) int {
	fs := flag.NewFlagSet("zmapgo fleet", flag.ContinueOnError)
	var (
		workers     = fs.Int("workers", 2, "worker processes (= pizza shards)")
		fleetDir    = fs.String("fleet-dir", "", "fleet state directory (default: a fresh temp dir; reuse to resume)")
		ports       = fs.String("p", "80", "ports to scan (ZMap syntax: 80,443 or 8000-8100 or *)")
		ranges      = fs.String("r", "", "comma-separated target CIDRs (default: all IPv4)")
		blocklist   = fs.String("b", "", "comma-separated blocklist CIDRs")
		probeModule = fs.String("M", "tcp_synscan", "probe module: tcp_synscan|icmp_echoscan|udp")
		rate        = fs.Float64("rate", 0, "aggregate fleet send budget in packets/sec, shared by live workers (0 = unlimited)")
		seed        = fs.Int64("seed", 0, "permutation seed (required non-zero: all workers must derive the same permutation)")
		threads     = fs.Int("T", 1, "sender threads per worker")
		probes      = fs.Int("P", 1, "probes per target")
		cooldown    = fs.Duration("cooldown-time", 2*time.Second, "per-worker receive quiescence window")
		maxRuntime  = fs.Duration("max-runtime", 0, "per-worker sending time limit (0 = no limit)")
		format      = fs.String("O", "text", "output format: text|csv|jsonl")
		filter      = fs.String("output-filter", "", `output filter (default "success = 1 && repeat = 0")`)
		outFile     = fs.String("o", "", "merged output file (default <fleet-dir>/merged.<ext>)")
		metaFile    = fs.String("metadata-file", "", "fleet summary JSON (default <fleet-dir>/fleet-metadata.json, - = off)")
		traceFile   = fs.String("trace-file", "", "coordinator decision journal JSONL (default <fleet-dir>/fleet-trace.jsonl, - = off)")
		leaseTTL    = fs.Duration("lease-ttl", 0, "worker heartbeat lease TTL; a shard silent this long is reclaimed (0 = 2s)")
		hbInterval  = fs.Duration("heartbeat-interval", 0, "worker lease renewal period (0 = TTL/4)")
		ckptEvery   = fs.Duration("checkpoint-interval", 0, "per-worker checkpoint snapshot period (0 = 500ms)")
		maxRespawns = fs.Int("max-respawns", 0, "respawn budget per shard before the fleet fails (0 = default 5, negative = none)")
		backoff     = fs.Duration("respawn-backoff", 0, "initial respawn backoff, doubled per reclaim (0 = 100ms)")
		faultPlan   = fs.String("fault-plan", "", "chaos schedule, e.g. kill:0@800ms,hang:1@1.2s,slow:2@500ms/300ms")
		faultSeed   = fs.Uint64("fault-seed", 0, "derive a random fault plan from this seed instead of --fault-plan")
		faultCount  = fs.Int("fault-count", 3, "faults in the derived plan (with --fault-seed)")
		faultWindow = fs.Duration("fault-window", 2*time.Second, "window the derived faults spread over (with --fault-seed)")
		listen      = fs.String("listen", "", "control-plane bind address host:port; every fleet serves its workers over HTTP (default 127.0.0.1:0, port 0 = pick)")
		advertise   = fs.String("advertise", "", "control-plane URL published to workers (default http://<bound address>)")
		joinToken   = fs.String("join-token", "", "token required on every worker RPC; give it to remote workers (default: a random token in <dir>/join.token for locally spawned workers, none with --remote-workers)")
		remote      = fs.Bool("remote-workers", false, "do not spawn local workers; offer grants to `zmapgo fleet-worker --join` processes (requires --listen)")
		simSeed     = fs.Uint64("sim-seed", 1, "simulated-Internet population seed (identical in every worker)")
		simLossless = fs.Bool("sim-lossless", false, "disable simulated packet loss")
		timeScale   = fs.Float64("sim-time-scale", 1e-3, "RTT compression factor for the simulated links")
		verbose     = fs.Bool("v", false, "verbose coordinator logging to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seed == 0 {
		fmt.Fprintln(os.Stderr, "zmapgo fleet: --seed is required and must be non-zero (workers share the permutation it derives)")
		return 2
	}
	if *remote && *listen == "" {
		fmt.Fprintln(os.Stderr, "zmapgo fleet: --remote-workers requires --listen")
		return 2
	}

	opts := zmap.FleetOptions{
		Workers: *workers,
		Dir:     *fleetDir,
		Scan: zmap.Options{
			Ranges:          zmap.ParseTargets(*ranges),
			Blocklist:       zmap.ParseTargets(*blocklist),
			Ports:           *ports,
			Probe:           *probeModule,
			Seed:            *seed,
			Threads:         *threads,
			ProbesPerTarget: *probes,
			Cooldown:        *cooldown,
			MaxRuntime:      *maxRuntime,
			Format:          *format,
			Filter:          *filter,
			Rate:            *rate,
		},
		SimSeed:            *simSeed,
		SimLossless:        *simLossless,
		SimTimeScale:       *timeScale,
		LeaseTTL:           *leaseTTL,
		HeartbeatInterval:  *hbInterval,
		CheckpointInterval: *ckptEvery,
		MaxRespawns:        *maxRespawns,
		RespawnBackoff:     *backoff,
		Listen:             *listen,
		Advertise:          *advertise,
		JoinToken:          *joinToken,
		RemoteWorkers:      *remote,
		MergedOutput:       *outFile,
		MetadataPath:       *metaFile,
		TracePath:          *traceFile,
	}
	if *faultPlan != "" && *faultSeed != 0 {
		fmt.Fprintln(os.Stderr, "zmapgo fleet: --fault-plan and --fault-seed are mutually exclusive")
		return 2
	}
	if *faultPlan != "" {
		plan, err := zmap.ParseFleetFaults(*faultPlan)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zmapgo fleet:", err)
			return 2
		}
		opts.Faults = plan
	} else if *faultSeed != 0 {
		opts.Faults = zmap.RandomFleetFaults(*faultSeed, *workers, *faultCount, *faultWindow, *faultWindow/4)
		fmt.Fprintf(os.Stderr, "zmapgo fleet: derived fault plan %q\n", opts.Faults.String())
	}
	if *listen != "" {
		opts.OnListen = func(bound string) {
			join := bound
			if *advertise != "" {
				join = *advertise
			}
			fmt.Fprintf(os.Stderr, "zmapgo fleet: control plane at %s (workers: zmapgo fleet-worker --join %s)\n", bound, join)
		}
	}
	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	opts.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	// First SIGINT/SIGTERM cancels the fleet: the coordinator kills its
	// workers and exits; re-running with the same --fleet-dir resumes
	// every shard from its last checkpoint.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		select {
		case sig := <-sigCh:
			fmt.Fprintf(os.Stderr, "zmapgo fleet: %v: stopping (re-run with the same --fleet-dir to resume)\n", sig)
			cancel()
		case <-ctx.Done():
		}
	}()

	res, err := zmap.RunFleet(ctx, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zmapgo fleet:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr,
		"zmapgo fleet: %d workers scanned %d targets in %.2fs: %d unique rows merged (%d duplicates dropped), %d reclaims\n",
		res.Workers, res.TargetsScanned, res.DurationSecs,
		res.Merge.UniqueRows, res.Merge.Duplicates, res.Reclaims)
	fmt.Fprintf(os.Stderr, "zmapgo fleet: merged output in %s\n", res.MergedOutput)
	return 0
}
