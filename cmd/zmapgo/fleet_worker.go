package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"zmapgo/zmap"
)

// runFleetWorkerCmd is the `zmapgo fleet-worker` subcommand: join a
// fleet coordinator's control plane from another host (or
// terminal) and run shard grants as they are offered. The coordinator
// side is `zmapgo fleet --listen ... --remote-workers`.
func runFleetWorkerCmd(args []string) int {
	fs := flag.NewFlagSet("zmapgo fleet-worker", flag.ContinueOnError)
	var (
		join    = fs.String("join", "", "coordinator control-plane URL (http://host:port), as printed by `zmapgo fleet --listen`")
		token   = fs.String("join-token", "", "fleet join token (must match the coordinator's --join-token)")
		once    = fs.Bool("once", false, "run one granted shard and exit instead of polling for more work")
		verbose = fs.Bool("v", false, "verbose worker logging to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *join == "" && fs.NArg() > 0 {
		*join = fs.Arg(0)
	}
	if *join == "" {
		fmt.Fprintln(os.Stderr, "zmapgo fleet-worker: --join URL is required")
		return 2
	}

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		select {
		case sig := <-sigCh:
			fmt.Fprintf(os.Stderr, "zmapgo fleet-worker: %v: leaving the fleet\n", sig)
			cancel()
		case <-ctx.Done():
		}
	}()

	fmt.Fprintf(os.Stderr, "zmapgo fleet-worker: joining %s\n", *join)
	err := zmap.JoinFleet(ctx, zmap.JoinFleetOptions{
		URL:    *join,
		Token:  *token,
		Once:   *once,
		Logger: logger,
	})
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "zmapgo fleet-worker:", err)
		return 1
	}
	return 0
}
