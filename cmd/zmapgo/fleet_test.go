package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"zmapgo/zmap"
)

// TestMain makes this test binary usable as its own fleet worker: the
// coordinator spawned by the fleet subcommand re-executes the current
// binary, which under `go test` is the test binary itself. It also fails
// the suite if a test dumped the flight recorder into the package
// directory (the CLI's default dump path) instead of a temp dir.
func TestMain(m *testing.M) {
	if zmap.FleetWorkerMain() {
		return
	}
	before := traceDumps()
	code := m.Run()
	for name, mod := range traceDumps() {
		if prev, ok := before[name]; !ok || !prev.Equal(mod) {
			fmt.Fprintf(os.Stderr, "test wrote flight-recorder dump %s into the source tree; pass --trace-file under t.TempDir()\n", name)
			code = 1
		}
	}
	os.Exit(code)
}

// traceDumps maps each default-path trace dump in the working directory
// to its modification time.
func traceDumps() map[string]time.Time {
	names, _ := filepath.Glob("zmapgo-trace.*")
	dumps := make(map[string]time.Time, len(names))
	for _, name := range names {
		if fi, err := os.Stat(name); err == nil {
			dumps[name] = fi.ModTime()
		}
	}
	return dumps
}

// TestCLIFleetScan drives the fleet subcommand end-to-end: two worker
// processes, merged output, summary metadata, decision journal.
func TestCLIFleetScan(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fleet scan")
	}
	dir := t.TempDir()
	code := runFleet([]string{
		"-workers", "2",
		"-fleet-dir", dir,
		"-r", "10.9.0.0/22",
		"-p", "80",
		"-seed", "11",
		"-rate", "20000",
		"-cooldown-time", "200ms",
		"-sim-lossless",
		"-sim-time-scale", "0",
	})
	if code != 0 {
		t.Fatalf("fleet exit code %d", code)
	}
	merged, err := os.ReadFile(filepath.Join(dir, "merged.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(merged), "\n"); lines < 3 {
		t.Errorf("only %d merged rows", lines)
	}
	meta, err := os.ReadFile(filepath.Join(dir, "fleet-metadata.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"workers": 2`, `"merge"`, `"shards"`} {
		if !strings.Contains(string(meta), want) {
			t.Errorf("fleet metadata missing %s", want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "fleet-trace.jsonl")); err != nil {
		t.Errorf("no decision journal: %v", err)
	}
}

// TestCLIFleetBadFlags covers the config-error exits.
func TestCLIFleetBadFlags(t *testing.T) {
	if code := runFleet([]string{"-r", "10.0.0.0/24"}); code != 2 {
		t.Errorf("missing --seed exited %d, want 2", code)
	}
	if code := runFleet([]string{"-seed", "1", "-fault-plan", "explode:0@1s"}); code != 2 {
		t.Errorf("bad fault plan exited %d, want 2", code)
	}
	if code := runFleet([]string{"-seed", "1", "-fault-plan", "kill:0@1s", "-fault-seed", "3"}); code != 2 {
		t.Errorf("conflicting fault flags exited %d, want 2", code)
	}
}
