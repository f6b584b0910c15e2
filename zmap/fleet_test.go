package zmap

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"zmapgo/internal/checkpoint"
	"zmapgo/internal/fleet"
	"zmapgo/internal/fleetnet"
	"zmapgo/internal/packet"
	"zmapgo/internal/ratelimit"
	"zmapgo/internal/target"
	"zmapgo/internal/trace"
)

// TestMain doubles this test binary as a fleet worker executable: a
// coordinator under test spawns os.Executable() — this binary — with
// the worker environment set, and FleetWorkerMain takes over before the
// test runner would start.
func TestMain(m *testing.M) {
	if FleetWorkerMain() {
		return
	}
	os.Exit(m.Run())
}

// fleetSim is the shared simulated-internet shape for fleet tests:
// lossless and blowback-free, so the response set is a pure function of
// the probed targets and exact-count comparisons are meaningful.
const fleetSimSeed = 1234

// referenceLines runs the same scan uninterrupted in a single process
// and returns its result lines sorted the way the fleet merge sorts:
// numerically by address, then port.
func referenceLines(t *testing.T, ranges []string, seed int64) []string {
	t.Helper()
	in := NewInternet(SimOptions{Seed: fleetSimSeed, Lossless: true, DisableBlowback: true})
	link := in.NewLink(1<<16, 0)
	defer link.Close()
	var buf bytes.Buffer
	s, err := Options{
		Ranges:   ranges,
		Seed:     seed,
		Results:  &buf,
		Cooldown: 200 * time.Millisecond,
	}.Compile(link)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(buf.String())
	sort.Slice(lines, func(i, j int) bool {
		a, _ := target.ParseIPv4(lines[i])
		b, _ := target.ParseIPv4(lines[j])
		return a < b
	})
	// Dedup (the engine already dedups; belt and braces).
	uniq := lines[:0]
	for i, l := range lines {
		if i == 0 || l != lines[i-1] {
			uniq = append(uniq, l)
		}
	}
	return uniq
}

func readLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Fields(string(data))
}

func readFleetJournal(t *testing.T, path string) []trace.JEntry {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	return snap.Journal
}

func countJournal(entries []trace.JEntry, kind string) int {
	n := 0
	for _, e := range entries {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// fleetOpts is the shared configuration for the acceptance runs.
func fleetOpts(dir string, ranges []string) FleetOptions {
	return FleetOptions{
		Workers: 3,
		Dir:     dir,
		Scan: Options{
			Ranges:   ranges,
			Seed:     77,
			Rate:     15000, // aggregate: 5000 pps per live worker
			Cooldown: 200 * time.Millisecond,
		},
		SimSeed:            fleetSimSeed,
		SimLossless:        true,
		SimDisableBlowback: true,
		LeaseTTL:           700 * time.Millisecond,
		CheckpointInterval: 150 * time.Millisecond,
		MaxRespawns:        4,
		RespawnBackoff:     100 * time.Millisecond,
	}
}

// TestFleetChaosExactlyOnce is the acceptance test: a 3-worker fleet is
// run once fault-free and once with a seeded fault schedule that kills
// or hangs every worker mid-scan. Both merged outputs must be byte-
// equivalent to the uninterrupted single-process reference union, every
// reclaim decision must be journaled, and the chaos run must finish
// within 2x the fault-free wall clock.
func TestFleetChaosExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos test")
	}
	ranges := []string{"10.0.0.0/17"} // 32768 addrs, ~2.2s per shard at 5000 pps
	ref := referenceLines(t, ranges, 77)
	if len(ref) == 0 {
		t.Fatal("reference scan found nothing; the comparison would be vacuous")
	}
	refBytes := strings.Join(ref, "\n") + "\n"

	// Fault-free fleet run.
	cleanDir := t.TempDir()
	cleanStart := time.Now()
	cleanRes, err := RunFleet(context.Background(), fleetOpts(cleanDir, ranges))
	if err != nil {
		t.Fatalf("clean fleet run: %v", err)
	}
	cleanWall := time.Since(cleanStart)
	cleanMerged, err := os.ReadFile(cleanRes.MergedOutput)
	if err != nil {
		t.Fatal(err)
	}
	if string(cleanMerged) != refBytes {
		t.Fatalf("clean fleet merge diverges from reference: %d vs %d rows",
			len(strings.Fields(string(cleanMerged))), len(ref))
	}
	if cleanRes.Reclaims != 0 {
		t.Fatalf("clean run reclaimed %d times", cleanRes.Reclaims)
	}

	// Chaos run: every one of the 3 workers is killed or hung once,
	// mid-scan (the send phase is ~2.2s per shard).
	chaosDir := t.TempDir()
	opts := fleetOpts(chaosDir, ranges)
	plan, err := ParseFleetFaults("kill:0@800ms,hang:1@900ms,kill:2@1300ms")
	if err != nil {
		t.Fatal(err)
	}
	opts.Faults = plan
	chaosStart := time.Now()
	chaosRes, err := RunFleet(context.Background(), opts)
	if err != nil {
		t.Fatalf("chaos fleet run: %v", err)
	}
	chaosWall := time.Since(chaosStart)

	// Exactly-once: the merged output equals the reference union even
	// though shards were re-probed across crash boundaries.
	chaosMerged, err := os.ReadFile(chaosRes.MergedOutput)
	if err != nil {
		t.Fatal(err)
	}
	if string(chaosMerged) != refBytes {
		t.Fatalf("chaos fleet merge diverges from reference: %d vs %d rows",
			len(strings.Fields(string(chaosMerged))), len(ref))
	}
	if chaosRes.FaultsInjected != 3 {
		t.Fatalf("injected %d faults, want 3", chaosRes.FaultsInjected)
	}
	if chaosRes.Reclaims != 3 {
		t.Fatalf("reclaimed %d shards, want 3 (one per fault)", chaosRes.Reclaims)
	}
	// At-least-once under the hood: the crash re-probe overlap shows
	// up as duplicates the merge collapsed (kills mid-send with a
	// 150ms checkpoint interval essentially always re-probe something;
	// zero would mean the faults landed outside the send phase).
	if chaosRes.Merge.Duplicates == 0 {
		t.Log("note: no cross-run duplicates; faults may have landed at phase edges")
	}

	// Every reclaim decision is journaled, with its cause and respawn.
	entries := readFleetJournal(t, filepath.Join(chaosDir, "fleet-trace.jsonl"))
	if n := countJournal(entries, trace.JFleetReclaim); n != 3 {
		t.Fatalf("journal has %d reclaim entries, want 3", n)
	}
	if n := countJournal(entries, trace.JFleetRespawn); n != 3 {
		t.Fatalf("journal has %d respawn entries, want 3", n)
	}
	if n := countJournal(entries, trace.JFleetFault); n != 3 {
		t.Fatalf("journal has %d fault entries, want 3", n)
	}
	// The hang must have been detected by lease staleness, not exit.
	if n := countJournal(entries, trace.JFleetLeaseExpired); n < 1 {
		t.Fatal("hung worker produced no lease-expiry journal entry")
	}
	// Rate redistribution: losing one of three workers moves the
	// budget to 7500 pps per survivor; recovery returns it to 5000.
	sawHalf, sawThird := false, false
	for _, e := range entries {
		if e.Kind == trace.JFleetRateRealloc {
			switch e.RatePPS {
			case 7500:
				sawHalf = true
			case 5000:
				sawThird = true
			}
		}
	}
	if !sawHalf || !sawThird {
		t.Fatalf("rate reallocation not observed (7500: %v, 5000: %v)", sawHalf, sawThird)
	}

	// Killed and hung workers never reach their own cleanup; the
	// coordinator drops their spools once they are reaped.
	if left, _ := filepath.Glob(filepath.Join(chaosDir, "shard-*", "spool.run-*")); len(left) != 0 {
		t.Fatalf("worker spools left behind: %v", left)
	}

	// Bounded recovery: chaos wall clock within 2x fault-free.
	if chaosWall > 2*cleanWall {
		t.Fatalf("chaos run took %v, over 2x the fault-free %v", chaosWall, cleanWall)
	}
	t.Logf("clean=%v chaos=%v reclaims=%d dups=%d rows=%d",
		cleanWall.Round(time.Millisecond), chaosWall.Round(time.Millisecond),
		chaosRes.Reclaims, chaosRes.Merge.Duplicates, chaosRes.Merge.UniqueRows)
}

// TestFleetSlowWorkerNotReclaimed: a pause shorter than the lease TTL
// must ride out on heartbeat slack — reclaiming a merely-slow worker
// would double-scan its shard for nothing.
func TestFleetSlowWorkerNotReclaimed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	dir := t.TempDir()
	plan, err := ParseFleetFaults("slow:0@400ms/250ms")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFleet(context.Background(), FleetOptions{
		Workers: 1,
		Dir:     dir,
		Scan: Options{
			Ranges:   []string{"10.2.0.0/20"}, // 4096 addrs
			Seed:     31,
			Rate:     4000,
			Cooldown: 150 * time.Millisecond,
		},
		SimSeed:            fleetSimSeed,
		SimLossless:        true,
		SimDisableBlowback: true,
		LeaseTTL:           900 * time.Millisecond,
		CheckpointInterval: 100 * time.Millisecond,
		Faults:             plan,
	})
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if res.Reclaims != 0 {
		t.Fatalf("slow worker was reclaimed %d times", res.Reclaims)
	}
	if res.FaultsInjected != 1 {
		t.Fatalf("injected %d faults, want 1", res.FaultsInjected)
	}
	entries := readFleetJournal(t, filepath.Join(dir, "fleet-trace.jsonl"))
	if n := countJournal(entries, trace.JFleetReclaim); n != 0 {
		t.Fatalf("journal shows %d reclaims for a slow-only fault", n)
	}
	ref := referenceLines(t, []string{"10.2.0.0/20"}, 31)
	got := readLines(t, res.MergedOutput)
	if strings.Join(got, ",") != strings.Join(ref, ",") {
		t.Fatalf("slow-run merge diverges: %d vs %d rows", len(got), len(ref))
	}
}

// TestFleetRerunAdoptsFinishedShards: re-running a fleet over its own
// completed directory must not rescan — finished shards are recognized
// by their done leases and commit records, and the merge is rebuilt
// from the existing run files.
func TestFleetRerunAdoptsFinishedShards(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	dir := t.TempDir()
	opts := FleetOptions{
		Workers: 2,
		Dir:     dir,
		Scan: Options{
			Ranges:   []string{"10.3.0.0/22"}, // 1024 addrs, fast
			Seed:     13,
			Cooldown: 100 * time.Millisecond,
		},
		SimSeed:            fleetSimSeed,
		SimLossless:        true,
		SimDisableBlowback: true,
	}
	res1, err := RunFleet(context.Background(), opts)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	merged1, err := os.ReadFile(res1.MergedOutput)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	res2, err := RunFleet(context.Background(), opts)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	rerunWall := time.Since(start)
	merged2, err := os.ReadFile(res2.MergedOutput)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged1, merged2) {
		t.Fatal("rerun over a finished directory changed the merged output")
	}
	entries := readFleetJournal(t, filepath.Join(dir, "fleet-trace.jsonl"))
	adopts := 0
	for _, e := range entries {
		if e.Kind == trace.JFleetAdopt && e.Reason == "already_done" {
			adopts++
		}
	}
	if adopts != 2 {
		t.Fatalf("rerun adopted %d finished shards, want 2", adopts)
	}
	if n := countJournal(entries, trace.JFleetSpawn); n != 0 {
		t.Fatalf("rerun spawned %d workers over a finished directory", n)
	}
	if rerunWall > 5*time.Second {
		t.Fatalf("rerun over finished directory took %v", rerunWall)
	}
}

// workerSpecFixture lays out a one-shard fleet whose epoch-1 grant
// runs a small scan, and serves its control plane in-process, as the
// coordinator does before spawning a worker (no processes involved).
func workerSpecFixture(t *testing.T, dir string) (*fleetnet.Server, *fleet.WorkerSpec, checkpoint.Fingerprint) {
	t.Helper()
	payload, fp := workerScan(t, fleetScan{
		Options: Options{
			Ranges:   []string{"10.4.0.0/23"},
			Seed:     19,
			Cooldown: 50 * time.Millisecond,
		},
		SimSeed:     fleetSimSeed,
		SimLossless: true,
	})
	spec := &fleet.WorkerSpec{
		FleetID: "test-fleet", Shard: 0, Shards: 1, Epoch: 1,
		Scan: payload, Paths: fleet.PathsFor(dir, 0, 1, "text"),
		CheckpointInterval: 100 * time.Millisecond,
		HeartbeatInterval:  100 * time.Millisecond,
	}
	return servePlane(t, dir), spec, fp
}

// servePlane starts a one-shard fleet's control plane over dir.
func servePlane(t *testing.T, dir string) *fleetnet.Server {
	t.Helper()
	if err := os.MkdirAll(fleet.ShardDir(dir, 0), 0o755); err != nil {
		t.Fatal(err)
	}
	srv := fleetnet.NewServer(fleetnet.ServerOptions{})
	if err := srv.Start(fleet.PlaneInfo{Dir: dir, Workers: 1, Format: "text"}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// workerScan encodes a one-shard fleet's payload and predicts its
// fingerprint, exactly as RunFleet does.
func workerScan(t *testing.T, scan fleetScan) (json.RawMessage, checkpoint.Fingerprint) {
	t.Helper()
	fps, _, err := fleetFingerprints(scan.Options, 1)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(scan)
	if err != nil {
		t.Fatal(err)
	}
	return payload, fps[0]
}

// grantEpoch grants spec's shard at epoch through the plane — spec
// first, then the fencing lease — the way the coordinator does.
func grantEpoch(t *testing.T, srv *fleetnet.Server, spec fleet.WorkerSpec, epoch int, fp checkpoint.Fingerprint) *fleet.WorkerSpec {
	t.Helper()
	spec.Epoch = epoch
	spec.Paths = fleet.PathsFor(filepath.Dir(spec.Paths.Dir), spec.Shard, epoch, "text")
	now := time.Now()
	l := &checkpoint.Lease{
		FleetID: "test-fleet", ShardIndex: 0, Epoch: epoch,
		WorkerID:  spec.WorkerID(),
		State:     checkpoint.LeaseGranted,
		GrantedAt: now, RenewedAt: now, TTLSecs: 5, Fingerprint: fp,
	}
	if err := srv.Grant(&spec, l); err != nil {
		t.Fatal(err)
	}
	return &spec
}

// dialWorker joins the plane for the granted epoch, as a spawned
// worker does from its environment.
func dialWorker(t *testing.T, srv *fleetnet.Server, epoch int) *fleetnet.Client {
	t.Helper()
	client, err := fleetnet.Dial(srv.URL(), "", 0, epoch, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// TestFleetWorkerFencedAtStart: a worker whose shard was re-granted
// before it could adopt its lease must exit fenced without scanning.
func TestFleetWorkerFencedAtStart(t *testing.T) {
	dir := t.TempDir()
	srv, spec, fp := workerSpecFixture(t, dir)
	spec = grantEpoch(t, srv, *spec, 1, fp)
	client := dialWorker(t, srv, 1)
	grantEpoch(t, srv, *spec, 2, fp) // epoch moved past the worker's 1
	if code := runShard(client, nil); code != fleet.ExitFenced {
		t.Fatalf("fenced worker exited %d, want %d", code, fleet.ExitFenced)
	}
	if _, err := os.Stat(spec.Paths.Metadata); err == nil {
		t.Fatal("fenced worker wrote a commit record")
	}
}

// TestFleetWorkerRefusesForeignCheckpoint is satellite-3's worker-side
// half: even if a mismatched checkpoint slips past the coordinator, the
// worker's own Compile-time verification refuses the handoff with the
// dedicated exit code instead of scanning the wrong slice.
func TestFleetWorkerRefusesForeignCheckpoint(t *testing.T) {
	dir := t.TempDir()
	srv, spec, fp := workerSpecFixture(t, dir)
	spec.Resume = true
	spec = grantEpoch(t, srv, *spec, 1, fp)
	foreign := fp
	foreign.Seed = fp.Seed + 1
	snap := &checkpoint.Snapshot{
		Tool: "zmapgo", WrittenAt: time.Now(), Phase: "send",
		Progress: []uint64{3}, Fingerprint: foreign,
	}
	if err := checkpoint.Save(spec.Paths.Checkpoint, snap); err != nil {
		t.Fatal(err)
	}
	if code := runShard(dialWorker(t, srv, 1), nil); code != fleet.ExitFingerprint {
		t.Fatalf("worker exited %d on foreign checkpoint, want %d", code, fleet.ExitFingerprint)
	}
}

// TestFleetWorkerCompletesShard: the direct (in-process) happy path —
// adopt, scan, commit metadata, mark the lease done.
func TestFleetWorkerCompletesShard(t *testing.T) {
	dir := t.TempDir()
	srv, spec, fp := workerSpecFixture(t, dir)
	spec = grantEpoch(t, srv, *spec, 1, fp)
	if code := runShard(dialWorker(t, srv, 1), nil); code != fleet.ExitOK {
		t.Fatalf("worker exited %d", code)
	}
	if _, err := os.Stat(spec.Paths.Metadata); err != nil {
		t.Fatal("no commit record written")
	}
	l, err := checkpoint.LoadLease(spec.Paths.Lease)
	if err != nil {
		t.Fatal(err)
	}
	if l.State != checkpoint.LeaseDone {
		t.Fatalf("lease state %q after completion", l.State)
	}
	ref := referenceLines(t, []string{"10.4.0.0/23"}, 19)
	if len(ref) == 0 {
		t.Fatal("reference scan found nothing; the comparison would be vacuous")
	}
	got := readLines(t, spec.Paths.Output)
	sort.Slice(got, func(i, j int) bool {
		a, _ := target.ParseIPv4(got[i])
		b, _ := target.ParseIPv4(got[j])
		return a < b
	})
	if strings.Join(got, ",") != strings.Join(ref, ",") {
		t.Fatalf("single-shard worker output diverges: %d vs %d rows", len(got), len(ref))
	}
}

// TestFleetWorkerAppliesRateMidScan: a rate share the coordinator sets
// mid-scan reaches the running scanner through the next heartbeat. The
// shard starts capped at 200 pps, about 80 s for its 16384 targets, and
// must finish within seconds once the cap is lifted to the full budget.
func TestFleetWorkerAppliesRateMidScan(t *testing.T) {
	dir := t.TempDir()
	payload, fp := workerScan(t, fleetScan{
		Options: Options{
			Ranges:    []string{"10.4.0.0/18"},
			Seed:      19,
			Rate:      1e6,
			BatchSize: 8, // a capped batch lasts 40 ms, so the cap is re-read often
			Cooldown:  50 * time.Millisecond,
		},
		SimSeed:     fleetSimSeed,
		SimLossless: true,
	})
	srv := servePlane(t, dir)
	spec := grantEpoch(t, srv, fleet.WorkerSpec{
		FleetID: "test-fleet", Shard: 0, Shards: 1,
		Scan: payload, Paths: fleet.PathsFor(dir, 0, 1, "text"),
		CheckpointInterval: 100 * time.Millisecond,
		HeartbeatInterval:  100 * time.Millisecond,
	}, 1, fp)
	srv.SetRate(0, 200)
	client := dialWorker(t, srv, 1)
	done := make(chan int, 1)
	go func() { done <- runShard(client, nil) }()

	select {
	case code := <-done:
		t.Fatalf("shard capped at 200 pps finished early (exit %d)", code)
	case <-time.After(time.Second):
	}
	srv.SetRate(0, 1e6)
	lifted := time.Now()
	select {
	case code := <-done:
		if code != fleet.ExitOK {
			t.Fatalf("worker exited %d after the cap was lifted", code)
		}
		t.Logf("shard finished %v after the cap was lifted", time.Since(lifted).Round(time.Millisecond))
	case <-time.After(20 * time.Second):
		t.Fatal("lifting the rate share mid-scan did not reach the scanner")
	}
	if _, err := os.Stat(spec.Paths.Metadata); err != nil {
		t.Fatalf("no commit record after the shard finished: %v", err)
	}
}

// TestRunFleetPlaneRequiresToken: a fleet started without a JoinToken
// still guards its control plane. Its spawned workers get a random
// per-fleet token, and an RPC that lacks it, or carries a wrong one,
// is refused before it can renew, append results, or commit.
func TestRunFleetPlaneRequiresToken(t *testing.T) {
	dir := t.TempDir()
	var refused []string
	probe := func(url string) {
		rpcs := []struct{ path, body string }{
			{"/v1/renew", `{"shard":0,"epoch":1,"pid":1}`},
			{"/v1/result?shard=0&epoch=1&offset=0", "10.9.9.9\n"},
			{"/v1/commit", `{"shard":0,"epoch":1,"size":0}`},
		}
		for _, rpc := range rpcs {
			for _, token := range []string{"", "wrong"} {
				req, err := http.NewRequest(http.MethodPost, url+rpc.path, strings.NewReader(rpc.body))
				if err != nil {
					t.Error(err)
					return
				}
				if token != "" {
					req.Header.Set("X-Fleet-Token", token)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Errorf("%s: %v", rpc.path, err)
					continue
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusUnauthorized {
					t.Errorf("%s with token %q: status %d, want 401", rpc.path, token, resp.StatusCode)
				}
				refused = append(refused, rpc.path)
			}
		}
	}
	res, err := RunFleet(context.Background(), FleetOptions{
		Workers: 1,
		Dir:     dir,
		Scan: Options{
			Ranges:   []string{"10.4.0.0/24"},
			Seed:     19,
			Cooldown: 50 * time.Millisecond,
		},
		SimSeed:     fleetSimSeed,
		SimLossless: true,
		OnListen:    probe,
	})
	if err != nil {
		t.Fatalf("fleet run (its own workers hold the token): %v", err)
	}
	if len(refused) != 6 {
		t.Fatalf("%d of 6 unauthenticated RPCs checked", len(refused))
	}
	if res.Reclaims != 0 {
		t.Fatalf("%d reclaims, want 0: a forged RPC disturbed the shard", res.Reclaims)
	}
	st, err := os.Stat(filepath.Join(dir, "join.token"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o600 {
		t.Fatalf("join.token mode %v, want 0600", st.Mode().Perm())
	}
}

// TestRunFleetRefusesProcessLocalScanInputs: a blocklist reader or a
// resume snapshot cannot travel to workers, and silently dropping
// either would change the scan, so RunFleet refuses them up front.
func TestRunFleetRefusesProcessLocalScanInputs(t *testing.T) {
	for name, scan := range map[string]Options{
		"blocklist_file": {Seed: 5, BlocklistFile: strings.NewReader("10.0.0.0/8\n")},
		"resume":         {Seed: 5, Resume: &Checkpoint{}},
	} {
		dir := filepath.Join(t.TempDir(), "fleet")
		if _, err := RunFleet(context.Background(), FleetOptions{Dir: dir, Scan: scan}); err == nil {
			t.Errorf("%s: RunFleet accepted it", name)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%s: fleet dir created before the refusal", name)
		}
	}
}

// TestFleetFingerprintsMatchCompile: the coordinator's expected shard
// fingerprints are exactly what each worker's Compile produces, for a
// scan far from the defaults, and the fleet budget is the scan's
// compiled (bandwidth-derived) rate.
func TestFleetFingerprintsMatchCompile(t *testing.T) {
	scan := Options{
		Ranges:              []string{"10.7.0.0/20"},
		Blocklist:           []string{"10.7.4.0/24"},
		Ports:               "443,80",
		Seed:                61,
		Threads:             3,
		ProbesPerTarget:     2,
		InterleavedSharding: true,
		Bandwidth:           "10M",
	}
	const workers = 3
	fps, rate, err := fleetFingerprints(scan, workers)
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != workers {
		t.Fatalf("got %d fingerprints for %d workers", len(fps), workers)
	}
	wantRate := ratelimit.BandwidthToRate(10e6, packet.WireLen(packet.SYNFrameLen(packet.LayoutMSS)))
	if rate != wantRate {
		t.Fatalf("fleet budget %g, want the bandwidth-derived %g", rate, wantRate)
	}

	in := NewInternet(SimOptions{Seed: fleetSimSeed, Lossless: true})
	for i := 0; i < workers; i++ {
		o := scan
		o.Shards, o.ShardIndex = workers, i
		link := in.NewLink(16, 0)
		s, err := o.Compile(link)
		link.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := s.inner.Fingerprint(); got != fps[i] {
			t.Errorf("shard %d: Compile fingerprint %+v, fleet predicted %+v", i, got, fps[i])
		}
	}
	if fp := fps[1]; fp.Threads != 3 || fp.ProbesPerTarget != 2 || fp.ShardMode != "interleaved" ||
		fp.Shards != workers || fp.ShardIndex != 1 {
		t.Fatalf("non-default scan shape lost from the fingerprint: %+v", fp)
	}
}
