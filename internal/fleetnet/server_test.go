package fleetnet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"zmapgo/internal/checkpoint"
	"zmapgo/internal/fleet"
	"zmapgo/internal/trace"
)

// journalSink collects the server's decision-journal entries.
type journalSink struct {
	mu      sync.Mutex
	entries []trace.JEntry
}

func (j *journalSink) add(e trace.JEntry) {
	j.mu.Lock()
	j.entries = append(j.entries, e)
	j.mu.Unlock()
}

func (j *journalSink) count(kind string) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, e := range j.entries {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

func newTestServer(t *testing.T, token string) (*Server, *journalSink, string) {
	t.Helper()
	dir := t.TempDir()
	js := &journalSink{}
	srv := NewServer(ServerOptions{Token: token})
	err := srv.Start(fleet.PlaneInfo{
		Dir: dir, Workers: 2, Format: "text", Journal: js.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, js, dir
}

// testFingerprint is the granted shard's expected fingerprint. The
// server stores and compares fingerprints but never computes them, so
// a literal serves.
var testFingerprint = checkpoint.Fingerprint{
	Seed: 5, Shards: 1, ShardIndex: 0, Threads: 1, ShardMode: "pizza",
	ProbeModule: "tcp_synscan", Ports: "80", ProbesPerTarget: 1,
	TargetsDigest: "5f0c2a9d8e7b6a5948372615f4e3d2c1",
}

// grantShard grants (shard 0, epoch) on the server exactly like the
// coordinator would, returning the spec and its fingerprint.
func grantShard(t *testing.T, srv *Server, dir string, epoch int) (*fleet.WorkerSpec, checkpoint.Fingerprint) {
	t.Helper()
	return grant(t, srv, dir, 0, epoch), testFingerprint
}

// grant grants (shard, epoch) of the two-shard test fleet.
func grant(t *testing.T, srv *Server, dir string, shard, epoch int) *fleet.WorkerSpec {
	t.Helper()
	paths := fleet.PathsFor(dir, shard, epoch, "text")
	if err := os.MkdirAll(paths.Dir, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := &fleet.WorkerSpec{
		FleetID: "net-test", Shard: shard, Shards: 2, Epoch: epoch,
		Scan: json.RawMessage(`{"ranges":["10.9.0.0/28"],"seed":5}`), Paths: paths, LeaseTTL: time.Second,
	}
	now := time.Now()
	lease := &checkpoint.Lease{
		FleetID: "net-test", ShardIndex: shard, Epoch: epoch,
		WorkerID: spec.WorkerID(), State: checkpoint.LeaseGranted,
		GrantedAt: now, RenewedAt: now, TTLSecs: 5, Fingerprint: testFingerprint,
	}
	if err := srv.Grant(spec, lease); err != nil {
		t.Fatal(err)
	}
	return spec
}

// postChunk uploads one result chunk and returns the HTTP status plus
// the server's authoritative size.
func postChunk(t *testing.T, base string, epoch int, offset int64, chunk []byte, sha string) (int, int64) {
	t.Helper()
	url := fmt.Sprintf("%s%s?shard=0&epoch=%d&offset=%d", base, pathResult, epoch, offset)
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(chunk))
	if err != nil {
		t.Fatal(err)
	}
	if sha == "" {
		sum := sha256.Sum256(chunk)
		sha = hex.EncodeToString(sum[:])
	}
	req.Header.Set(headerChunkSHA, sha)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr resultResponse
	json.NewDecoder(resp.Body).Decode(&rr)
	return resp.StatusCode, rr.Size
}

// TestServerResultIdempotentAppend: the append-iff-offset==size rule.
// A duplicated chunk acks without re-appending; a chunk past the
// durable size is refused with the authoritative size (and journaled)
// so the client rewinds; a corrupted body never lands.
func TestServerResultIdempotentAppend(t *testing.T) {
	srv, js, dir := newTestServer(t, "")
	spec, _ := grantShard(t, srv, dir, 1)

	chunk := []byte("10.9.0.1,80,synack\n")
	if code, size := postChunk(t, srv.URL(), 1, 0, chunk, ""); code != 200 || size != int64(len(chunk)) {
		t.Fatalf("first append: code=%d size=%d", code, size)
	}
	// The chaos proxy's dup fault: identical chunk, identical offset.
	if code, size := postChunk(t, srv.URL(), 1, 0, chunk, ""); code != 200 || size != int64(len(chunk)) {
		t.Fatalf("duplicate append: code=%d size=%d", code, size)
	}
	data, err := os.ReadFile(spec.Paths.Output)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, chunk) {
		t.Fatalf("duplicate chunk double-applied: run file holds %q", data)
	}

	// Gap: a chunk arriving past the durable size means an earlier one
	// was lost; the server must refuse to leave a hole.
	if code, size := postChunk(t, srv.URL(), 1, 100, []byte("late\n"), ""); code != 200 || size != int64(len(chunk)) {
		t.Fatalf("gap chunk: code=%d size=%d", code, size)
	}
	if got := js.count(trace.JFleetNetGap); got != 1 {
		t.Fatalf("gap journaled %d times, want 1", got)
	}

	// Corruption: digest mismatch is rejected before touching the file.
	if code, _ := postChunk(t, srv.URL(), 1, int64(len(chunk)), []byte("junk\n"), strings.Repeat("0", 64)); code != http.StatusBadRequest {
		t.Fatalf("corrupted chunk accepted with code %d", code)
	}
	if data, _ := os.ReadFile(spec.Paths.Output); !bytes.Equal(data, chunk) {
		t.Fatalf("rejected chunks mutated the run file: %q", data)
	}
}

// TestServerFencesStaleEpoch: after a re-grant, every RPC carrying the
// old epoch is rejected with the fenced verdict — the late heartbeat or
// result upload of a partitioned worker can never be merged.
func TestServerFencesStaleEpoch(t *testing.T) {
	srv, js, dir := newTestServer(t, "")
	grantShard(t, srv, dir, 1)
	if code, size := postChunk(t, srv.URL(), 1, 0, []byte("epoch1-row\n"), ""); code != 200 || size == 0 {
		t.Fatalf("epoch-1 append before re-grant: code=%d", code)
	}
	grantShard(t, srv, dir, 2) // reclaim: epoch moves on

	// Stale result upload.
	if code, _ := postChunk(t, srv.URL(), 1, 10, []byte("stale-row\n"), ""); code != http.StatusConflict {
		t.Fatalf("stale-epoch result upload answered %d, want 409", code)
	}
	// Stale renewal, through the client so the fenced verdict's error
	// mapping is exercised too.
	c := newClient(srv.URL(), "", 0, 1, nil)
	if _, err := c.Renew(os.Getpid()); !errors.Is(err, checkpoint.ErrLeaseFenced) {
		t.Fatalf("stale renew error = %v, want ErrLeaseFenced", err)
	}
	// Stale commit.
	body, _ := json.Marshal(commitRequest{Shard: 0, Epoch: 1, Size: 0, SHA256: ""})
	resp, err := http.Post(srv.URL()+pathCommit, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale commit answered %d, want 409", resp.StatusCode)
	}
	if js.count(trace.JFleetNetFence) < 3 {
		t.Fatalf("only %d fence decisions journaled, want >=3", js.count(trace.JFleetNetFence))
	}
	// The current epoch still works.
	if code, _ := postChunk(t, srv.URL(), 2, 0, []byte("epoch2-row\n"), ""); code != 200 {
		t.Fatalf("current-epoch append answered %d", code)
	}
}

func putCheckpoint(t *testing.T, base string, epoch int, snap *checkpoint.Snapshot) int {
	t.Helper()
	snap.FormatVersion = checkpoint.FormatVersion
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("%s%s?shard=0&epoch=%d", base, pathCheckpoint, epoch)
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestServerCheckpointMonotonic: a delayed or duplicated checkpoint
// upload must never regress the durable snapshot a successor would
// resume from, and a checkpoint from a different scan never lands.
func TestServerCheckpointMonotonic(t *testing.T) {
	srv, js, dir := newTestServer(t, "")
	spec, fp := grantShard(t, srv, dir, 1)
	now := time.Now().UTC()

	fresh := &checkpoint.Snapshot{Tool: "zmapgo", WrittenAt: now, Phase: "send",
		Progress: []uint64{7}, Fingerprint: fp}
	if code := putCheckpoint(t, srv.URL(), 1, fresh); code != http.StatusNoContent {
		t.Fatalf("fresh checkpoint PUT: %d", code)
	}
	// The reordered duplicate of an older snapshot arrives late.
	stale := &checkpoint.Snapshot{Tool: "zmapgo", WrittenAt: now.Add(-time.Minute), Phase: "send",
		Progress: []uint64{3}, Fingerprint: fp}
	if code := putCheckpoint(t, srv.URL(), 1, stale); code != http.StatusConflict {
		t.Fatalf("stale checkpoint PUT: %d, want 409", code)
	}
	if got := js.count(trace.JFleetNetCkptRej); got != 1 {
		t.Fatalf("checkpoint rejection journaled %d times, want 1", got)
	}
	durable, err := checkpoint.Load(spec.Paths.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if !durable.WrittenAt.Equal(now) || durable.Progress[0] != 7 {
		t.Fatalf("durable checkpoint regressed: %+v", durable)
	}

	// Foreign scan: fingerprint mismatch against the granted lease.
	foreignFP := fp
	foreignFP.Seed = fp.Seed + 1
	foreign := &checkpoint.Snapshot{Tool: "zmapgo", WrittenAt: now.Add(time.Minute), Phase: "send",
		Progress: []uint64{9}, Fingerprint: foreignFP}
	if code := putCheckpoint(t, srv.URL(), 1, foreign); code != http.StatusBadRequest {
		t.Fatalf("foreign checkpoint PUT: %d, want 400", code)
	}
}

// TestServerCommitVerifiedAndIdempotent: commit only lands over a fully
// shipped, digest-matching run file, appears atomically, and retries
// are no-ops.
func TestServerCommitVerifiedAndIdempotent(t *testing.T) {
	srv, js, dir := newTestServer(t, "")
	spec, _ := grantShard(t, srv, dir, 1)
	rows := []byte("10.9.0.1,80\n10.9.0.2,80\n")
	if code, _ := postChunk(t, srv.URL(), 1, 0, rows, ""); code != 200 {
		t.Fatalf("upload: %d", code)
	}
	sum := sha256.Sum256(rows)
	meta := []byte(`{"shard":0}`)

	commit := func(size int64, sha string) int {
		body, _ := json.Marshal(commitRequest{Shard: 0, Epoch: 1, Size: size,
			SHA256: sha, Metadata: meta})
		resp, err := http.Post(srv.URL()+pathCommit, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// The client believes it shipped more than the server holds (lost
	// chunks): refused, nothing committed.
	if code := commit(int64(len(rows))+5, hex.EncodeToString(sum[:])); code != http.StatusConflict {
		t.Fatalf("short-upload commit: %d, want 409", code)
	}
	if _, err := os.Stat(spec.Paths.Metadata); err == nil {
		t.Fatal("refused commit still wrote a metadata record")
	}
	if code := commit(int64(len(rows)), hex.EncodeToString(sum[:])); code != http.StatusNoContent {
		t.Fatalf("commit: %d", code)
	}
	got, err := os.ReadFile(spec.Paths.Metadata)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, meta) {
		t.Fatalf("metadata %q", got)
	}
	// Retried commit (the chaos proxy's oneway fault): idempotent ack.
	if code := commit(int64(len(rows)), hex.EncodeToString(sum[:])); code != http.StatusNoContent {
		t.Fatalf("retried commit: %d", code)
	}
	if js.count(trace.JFleetNetCommit) != 1 {
		t.Fatalf("commit journaled %d times, want 1", js.count(trace.JFleetNetCommit))
	}
	// The done-mark rode along.
	l, err := checkpoint.LoadLease(spec.Paths.Lease)
	if err != nil {
		t.Fatal(err)
	}
	if l.State != checkpoint.LeaseDone {
		t.Fatalf("lease state %q after commit", l.State)
	}
}

// TestClientRewindsOnGapVerdict: a client that believes it uploaded
// bytes the server never received (dropped mid-partition) adopts the
// server's authoritative size and re-sends — the spool and the run file
// converge byte-identically.
func TestClientRewindsOnGapVerdict(t *testing.T) {
	srv, js, dir := newTestServer(t, "")
	spec, _ := grantShard(t, srv, dir, 1)
	c := newClient(srv.URL(), "", 0, 1, nil)
	if err := c.adoptSpec(spec); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rows := []byte("10.9.0.1,80\n10.9.0.2,80\n10.9.0.3,80\n")
	if err := os.WriteFile(c.spoolPath, rows, 0o644); err != nil {
		t.Fatal(err)
	}
	// Simulate a partition that ate the first upload after the client
	// counted it: the client's high-water mark is past the server's.
	c.uploaded = 12
	if err := c.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	got, err := os.ReadFile(spec.Paths.Output)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, rows) {
		t.Fatalf("run file diverged after rewind: %q vs %q", got, rows)
	}
	if js.count(trace.JFleetNetGap) == 0 {
		t.Fatal("gap rewind left no journal entry")
	}
}

// TestClientRetriesServerFailure: a write that fails on the server is
// a 500 server_error, which the client retries like a dropped
// connection instead of taking it as a verdict. The lease file vanishes
// for a moment, so a renewal cannot be saved; Adopt must ride it out.
func TestClientRetriesServerFailure(t *testing.T) {
	srv, _, dir := newTestServer(t, "")
	spec, _ := grantShard(t, srv, dir, 1)
	lease, err := os.ReadFile(spec.Paths.Lease)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(spec.Paths.Lease); err != nil {
		t.Fatal(err)
	}
	rec := serve(srv, http.MethodPost, pathRenew, []byte(`{"shard":0,"epoch":1,"pid":1}`))
	var body errorResponse
	json.Unmarshal(rec.Body.Bytes(), &body)
	if rec.Code != http.StatusInternalServerError || body.Code != codeServerError {
		t.Fatalf("renew over a missing lease: %d %q, want 500 %q", rec.Code, body.Code, codeServerError)
	}

	c := newClient(srv.URL(), "", 0, 1, nil)
	if err := c.adoptSpec(spec); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	restored := make(chan error, 1)
	go func() {
		time.Sleep(20 * time.Millisecond) // the first attempt fails
		restored <- os.WriteFile(spec.Paths.Lease+".tmp", lease, 0o644)
		os.Rename(spec.Paths.Lease+".tmp", spec.Paths.Lease)
	}()
	if _, err := c.Adopt(1); err != nil {
		t.Fatalf("adopt gave up on a transient server failure: %v", err)
	}
	if err := <-restored; err != nil {
		t.Fatal(err)
	}
}

// TestServerRejectsBadToken: every RPC must carry the fleet token.
func TestServerRejectsBadToken(t *testing.T) {
	srv, _, dir := newTestServer(t, "s3cret")
	grantShard(t, srv, dir, 1)
	resp, err := http.Get(srv.URL() + pathSpec + "?shard=0&epoch=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless RPC answered %d, want 401", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL()+pathSpec+"?shard=0&epoch=1", nil)
	req.Header.Set(headerToken, "s3cret")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authed RPC answered %d", resp.StatusCode)
	}
}

// TestAcquireValidatesGrant: a network worker checks its grant exactly
// as a filesystem worker checks its spec file — a spec in another
// schema version, or naming a shard outside the fleet, is refused
// before any spool is laid out or scan started.
func TestAcquireValidatesGrant(t *testing.T) {
	cases := []struct {
		name  string
		spec  fleet.WorkerSpec
		valid bool
	}{
		{"current", fleet.WorkerSpec{FormatVersion: fleet.SpecFormatVersion, Shard: 1, Shards: 2}, true},
		{"format_v1", fleet.WorkerSpec{FormatVersion: 1, Shard: 0, Shards: 2}, false},
		{"shard_past_end", fleet.WorkerSpec{FormatVersion: fleet.SpecFormatVersion, Shard: 2, Shards: 2}, false},
		{"negative_shard", fleet.WorkerSpec{FormatVersion: fleet.SpecFormatVersion, Shard: -1, Shards: 2}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != pathAcquire {
					http.NotFound(w, r)
					return
				}
				json.NewEncoder(w).Encode(tc.spec)
			}))
			defer ts.Close()
			c, err := Acquire(context.Background(), ts.URL, "", time.Second, nil)
			if c != nil {
				defer c.Close()
			}
			if tc.valid && err != nil {
				t.Fatalf("valid grant refused: %v", err)
			}
			if !tc.valid && err == nil {
				t.Fatalf("invalid grant %+v accepted", tc.spec)
			}
		})
	}
}

// commitBody encodes a commit of the given run-file bytes.
func commitBody(shard, epoch int, rows, meta []byte) []byte {
	sum := sha256.Sum256(rows)
	body, _ := json.Marshal(commitRequest{Shard: shard, Epoch: epoch, Size: int64(len(rows)),
		SHA256: hex.EncodeToString(sum[:]), Metadata: meta})
	return body
}

// serve drives the server's mux in-process and returns the recorded
// response.
func serve(srv *Server, method, target string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.srv.Handler.ServeHTTP(rec, req)
	return rec
}

// TestServerCommitBestEffortDoneMark: the metadata file is the one
// commit record; the lease done-mark is an optimization. A commit whose
// done-mark cannot be written must still succeed — the coordinator's
// rerun adoption (already_done) keys off the metadata file, never the
// lease state.
func TestServerCommitBestEffortDoneMark(t *testing.T) {
	srv, _, dir := newTestServer(t, "")
	spec, _ := grantShard(t, srv, dir, 1)
	rows := []byte("10.9.0.1,80\n")
	if code, _ := postChunk(t, srv.URL(), 1, 0, rows, ""); code != 200 {
		t.Fatalf("upload: %d", code)
	}
	// Fault injection: the lease location is unusable (here: occupied by
	// a directory, so both the read-back and the atomic save fail). The
	// commit must tolerate it.
	if err := os.Remove(spec.Paths.Lease); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(spec.Paths.Lease, 0o755); err != nil {
		t.Fatal(err)
	}
	meta := []byte(`{"ok":true}`)
	if rec := serve(srv, http.MethodPost, pathCommit, commitBody(0, 1, rows, meta)); rec.Code != http.StatusNoContent {
		t.Fatalf("commit failed on a lost done-mark: %d %s", rec.Code, rec.Body)
	}
	got, err := os.ReadFile(spec.Paths.Metadata)
	if err != nil {
		t.Fatalf("commit record missing: %v", err)
	}
	if !bytes.Equal(got, meta) {
		t.Fatalf("metadata %q", got)
	}
}

// TestServerCommitSkipsForeignEpochDoneMark: a commit landing after the
// shard was re-granted is fenced, writes no commit record, and must not
// flip the successor's lease terminal.
func TestServerCommitSkipsForeignEpochDoneMark(t *testing.T) {
	srv, js, dir := newTestServer(t, "")
	grantShard(t, srv, dir, 1)
	rows := []byte("10.9.0.1,80\n")
	if code, _ := postChunk(t, srv.URL(), 1, 0, rows, ""); code != 200 {
		t.Fatalf("upload: %d", code)
	}
	next, _ := grantShard(t, srv, dir, 2)
	c := newClient(srv.URL(), "", 0, 2, nil)
	if _, err := c.Renew(os.Getpid()); err != nil {
		t.Fatalf("successor renewal: %v", err)
	}

	if rec := serve(srv, http.MethodPost, pathCommit, commitBody(0, 1, rows, []byte("{}"))); rec.Code != http.StatusConflict {
		t.Fatalf("stale-epoch commit answered %d, want 409", rec.Code)
	}
	if js.count(trace.JFleetNetFence) != 1 {
		t.Fatalf("stale commit journaled %d fences, want 1", js.count(trace.JFleetNetFence))
	}
	if _, err := os.Stat(fleet.PathsFor(dir, 0, 1, "text").Metadata); err == nil {
		t.Fatal("stale-epoch commit wrote a commit record")
	}
	l, err := checkpoint.LoadLease(next.Paths.Lease)
	if err != nil {
		t.Fatal(err)
	}
	if l.State != checkpoint.LeaseRunning || l.Epoch != 2 {
		t.Fatalf("epoch-1 commit rewrote epoch-2 lease: %+v", l)
	}
}

// TestServerRenewCarriesRate: the rate share the coordinator sets
// rides the next renewal of that shard, from memory. When the
// coordinator loses a worker it hands the survivor the whole budget
// (see fleet's TestSetAliveMovesBudgetThroughPlane), and the survivor's
// next renewal answers with it.
func TestServerRenewCarriesRate(t *testing.T) {
	srv, _, dir := newTestServer(t, "")
	grant(t, srv, dir, 0, 1)
	grant(t, srv, dir, 1, 1)
	renew := func(shard int) float64 {
		t.Helper()
		pps, err := newClient(srv.URL(), "", shard, 1, nil).Renew(os.Getpid())
		if err != nil {
			t.Fatalf("shard %d renewal: %v", shard, err)
		}
		return pps
	}
	if got := renew(0); got != 0 {
		t.Fatalf("renewal before any SetRate answered %v, want 0 (no cap)", got)
	}

	srv.SetRate(0, 400)
	srv.SetRate(1, 600)
	if a, b := renew(0), renew(1); a != 400 || b != 600 {
		t.Fatalf("renewals answered %v/%v, want 400/600", a, b)
	}

	// Shard 1 is lost: the survivor gets the full budget, the dead
	// shard's slot keeps its last share until it is live again.
	srv.SetRate(0, 1000)
	if got := renew(0); got != 1000 {
		t.Fatalf("survivor's renewal answered %v, want the full 1000", got)
	}
	if got := renew(1); got != 600 {
		t.Fatalf("lost shard's share changed to %v", got)
	}
	// A re-grant keeps the share: a respawned worker starts at it.
	grant(t, srv, dir, 1, 2)
	pps, err := newClient(srv.URL(), "", 1, 2, nil).Renew(os.Getpid())
	if err != nil || pps != 600 {
		t.Fatalf("respawned worker's first renewal: %v, %v", pps, err)
	}
}

// TestServerRejectsInvalidTarget: every shard-scoped RPC is checked
// before it touches state. A shard outside the fleet or an epoch below 1
// is a bad request (400), never a 500 and never a fresh per-shard slot;
// a valid but ungranted shard fences every epoch (409). None of it
// leaves a file behind — in particular no out.run--01 file for the
// merge glob to pick up.
func TestServerRejectsInvalidTarget(t *testing.T) {
	snap, _ := json.Marshal(&checkpoint.Snapshot{FormatVersion: checkpoint.FormatVersion,
		Tool: "zmapgo", WrittenAt: time.Now(), Phase: "send", Progress: []uint64{1},
		Fingerprint: testFingerprint})
	rpcs := []struct {
		name, method, path string
		body               func(shard, epoch int) []byte
	}{
		{"spec", http.MethodGet, pathSpec, nil},
		{"renew", http.MethodPost, pathRenew, func(shard, epoch int) []byte {
			b, _ := json.Marshal(renewRequest{Shard: shard, Epoch: epoch, PID: 1})
			return b
		}},
		{"checkpoint_get", http.MethodGet, pathCheckpoint, nil},
		{"checkpoint_put", http.MethodPut, pathCheckpoint, func(int, int) []byte { return snap }},
		{"result", http.MethodPost, pathResult, func(int, int) []byte { return []byte("10.9.0.1,80\n") }},
		{"commit", http.MethodPost, pathCommit, func(shard, epoch int) []byte {
			return commitBody(shard, epoch, nil, []byte("{}"))
		}},
		{"exit", http.MethodPost, pathExit, func(shard, epoch int) []byte {
			b, _ := json.Marshal(exitRequest{Shard: shard, Epoch: epoch, Code: 0})
			return b
		}},
	}
	cases := []struct {
		shard, epoch, want int
	}{
		{0, -1, http.StatusBadRequest},
		{0, 0, http.StatusBadRequest},
		{1, -3, http.StatusBadRequest},
		{-3, 1, http.StatusBadRequest},
		{2, 1, http.StatusBadRequest},
		{7, 1, http.StatusBadRequest},
		{1000, 1, http.StatusBadRequest},
		{0, 1, http.StatusConflict}, // inside the fleet, never granted
		{1, 5, http.StatusConflict},
	}
	srv, _, dir := newTestServer(t, "")
	for shard := 0; shard < 2; shard++ { // fleet.Run creates these before Start
		if err := os.MkdirAll(fleet.ShardDir(dir, shard), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, rpc := range rpcs {
		for _, tc := range cases {
			target := fmt.Sprintf("%s?shard=%d&epoch=%d&offset=0", rpc.path, tc.shard, tc.epoch)
			var body []byte
			if rpc.body != nil {
				body = rpc.body(tc.shard, tc.epoch)
			}
			rec := serve(srv, rpc.method, target, body)
			if rec.Code != tc.want {
				t.Errorf("%s shard=%d epoch=%d: %d %s, want %d",
					rpc.name, tc.shard, tc.epoch, rec.Code, strings.TrimSpace(rec.Body.String()), tc.want)
			}
		}
	}
	if len(srv.shards) != 2 {
		t.Errorf("server holds %d shard slots for a 2-shard fleet", len(srv.shards))
	}
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			t.Errorf("refused RPCs left %s in the fleet directory", path)
		}
		return err
	})
}
