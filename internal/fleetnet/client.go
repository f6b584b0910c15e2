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
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"time"

	"zmapgo/internal/checkpoint"
	"zmapgo/internal/fleet"
)

// ErrNoWork is returned by Acquire when the long-poll elapsed without
// the coordinator offering a grant.
var ErrNoWork = errors.New("fleetnet: no grant offered")

// chunkSize bounds one result-upload RPC. Small enough that a retry
// after a mid-body partition is cheap, large enough to amortize the
// round trip.
const chunkSize = 256 << 10

// Client is the worker's side of the control plane for one lease
// epoch: liveness, fencing, rate discovery, checkpoint adoption, result
// shipping, and the commit record, each an RPC against the coordinator.
// The scan engine works against a private local spool (checkpoint +
// result files in WorkerPaths.Spool for a spawned worker, a temp dir
// for a joined one); Sync ships the spool upstream in
// digest-checked, offset-idempotent chunks, and Commit publishes the
// epoch's metadata only after the server confirms it holds every result
// byte.
//
// Every RPC carries the granted epoch; a codeFenced verdict surfaces as
// a wrapped checkpoint.ErrLeaseFenced, which tells the worker runtime
// that the epoch moved on.
type Client struct {
	base   string
	token  string
	shard  int
	epoch  int
	remote bool
	hc     *http.Client
	log    *slog.Logger

	spec       *fleet.WorkerSpec
	workDir    string
	ckptPath   string
	spoolPath  string
	out        *os.File
	rpcTimeout time.Duration

	syncMu   sync.Mutex
	uploaded int64
	lastCkpt [sha256.Size]byte
	sentCkpt bool
}

// Dial fetches the grant for (shard, epoch) from the coordinator and
// builds the worker's client for it. The spec RPC is retried with
// bounded backoff so a worker spawned a beat before the listener
// settles still joins.
func Dial(baseURL, token string, shard, epoch int, logger *slog.Logger) (*Client, error) {
	c := newClient(baseURL, token, shard, epoch, logger)
	var spec fleet.WorkerSpec
	q := url.Values{"shard": {strconv.Itoa(shard)}, "epoch": {strconv.Itoa(epoch)}}
	err := c.rpcRetry("spec", 6, func() error {
		return c.doJSON(http.MethodGet, pathSpec+"?"+q.Encode(), nil, &spec)
	})
	if err != nil {
		return nil, fmt.Errorf("fleetnet: join %s: %w", baseURL, err)
	}
	if err := c.adoptSpec(&spec); err != nil {
		return nil, err
	}
	return c, nil
}

// Acquire long-polls the coordinator for an offered grant and builds
// the worker's client for it. It returns ErrNoWork when the wait
// elapsed quietly; connection errors pass through for the caller's
// backoff.
func Acquire(ctx context.Context, baseURL, token string, wait time.Duration, logger *slog.Logger) (*Client, error) {
	c := newClient(baseURL, token, -1, -1, logger)
	body, _ := json.Marshal(acquireRequest{WaitMS: wait.Milliseconds()})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+pathAcquire, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set(headerToken, token)
	hc := &http.Client{Timeout: wait + 10*time.Second}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil, ErrNoWork
	case http.StatusOK:
	default:
		return nil, decodeError(resp)
	}
	var spec fleet.WorkerSpec
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&spec); err != nil {
		return nil, fmt.Errorf("fleetnet: acquire decode: %w", err)
	}
	c.shard, c.epoch, c.remote = spec.Shard, spec.Epoch, true
	if err := c.adoptSpec(&spec); err != nil {
		return nil, err
	}
	return c, nil
}

// ReportExit best-effort tells the coordinator how a joined worker's
// epoch ended, so reclaim can be attributed faster than lease expiry.
func ReportExit(baseURL, token string, shard, epoch, code int) {
	body, _ := json.Marshal(exitRequest{Shard: shard, Epoch: epoch, Code: code})
	req, err := http.NewRequest(http.MethodPost, baseURL+pathExit, bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set(headerToken, token)
	req.Header.Set(headerShard, strconv.Itoa(shard))
	hc := &http.Client{Timeout: 2 * time.Second}
	if resp, err := hc.Do(req); err == nil {
		resp.Body.Close()
	}
}

func newClient(baseURL, token string, shard, epoch int, logger *slog.Logger) *Client {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	return &Client{
		base:       baseURL,
		token:      token,
		shard:      shard,
		epoch:      epoch,
		log:        logger,
		hc:         &http.Client{Timeout: 2 * time.Second},
		rpcTimeout: 2 * time.Second,
	}
}

// adoptSpec finishes construction once the grant is known: validate it,
// size the per-RPC timeout off the lease TTL, and lay out the local
// spool.
func (c *Client) adoptSpec(spec *fleet.WorkerSpec) error {
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("fleetnet: grant: %w", err)
	}
	c.spec = spec
	if ttl := spec.LeaseTTL; ttl > 0 {
		t := ttl / 2
		if t < 100*time.Millisecond {
			t = 100 * time.Millisecond
		}
		if t > 5*time.Second {
			t = 5 * time.Second
		}
		c.rpcTimeout = t
		c.hc.Timeout = t
	}
	dir, err := c.spoolDir(spec)
	if err != nil {
		return fmt.Errorf("fleetnet: spool dir: %w", err)
	}
	c.workDir = dir
	c.ckptPath = dir + "/scan.ckpt"
	c.spoolPath = dir + "/out.spool"
	return nil
}

// spoolDir creates the epoch's local spool. A spawned worker shares the
// coordinator's filesystem, so it spools in the shard directory, where
// the coordinator can clean up after a crash; a joined remote worker
// cannot see that directory and spools under its own temp dir.
func (c *Client) spoolDir(spec *fleet.WorkerSpec) (string, error) {
	if c.remote {
		return os.MkdirTemp("", fmt.Sprintf("zmapgo-fleetnet-s%d-e%d-", spec.Shard, spec.Epoch))
	}
	// Mkdir, not MkdirAll: each epoch has one worker, so an existing
	// spool means a second claimant, whose offsets this one would skew.
	return spec.Paths.Spool, os.Mkdir(spec.Paths.Spool, 0o700)
}

// Spec returns the granted worker spec (valid after Dial/Acquire).
func (c *Client) Spec() *fleet.WorkerSpec { return c.spec }

// ---------------------------------------------------------------------
// The worker's protocol.
// ---------------------------------------------------------------------

// Adopt is the first renewal, retried a few beats so a listener
// mid-hiccup does not kill a fresh worker. It proves liveness to the
// coordinator, fences this worker out (checkpoint.ErrLeaseFenced,
// wrapped) if the shard has already been re-granted, and returns the
// shard's current rate share in pps (0 = no cap).
func (c *Client) Adopt(pid int) (float64, error) {
	var rate float64
	err := c.rpcRetry("adopt", 4, func() error {
		var err error
		rate, err = c.Renew(pid)
		return err
	})
	return rate, err
}

// Renew is one heartbeat, one RPC — the caller's heartbeat loop is the
// retry policy, and the self-fence clock (WorkerSpec.LeaseTTL) bounds
// how long failures are tolerated. It returns the shard's current rate
// share in pps (0 = no cap); a wrapped checkpoint.ErrLeaseFenced means
// the epoch moved on and the worker must stop scanning.
func (c *Client) Renew(pid int) (float64, error) {
	var resp renewResponse
	err := c.doJSON(http.MethodPost, pathRenew,
		renewRequest{Shard: c.shard, Epoch: c.epoch, PID: pid, Remote: c.remote}, &resp)
	if err != nil {
		return -1, err
	}
	return resp.RatePPS, nil
}

// CheckpointPath is the local file the scan engine snapshots into: a
// private spool that Sync ships upstream.
func (c *Client) CheckpointPath() string { return c.ckptPath }

// LoadCheckpoint fetches the coordinator's durable snapshot for this
// shard, or (nil, nil) when none exists (204 = fresh start).
func (c *Client) LoadCheckpoint() (*checkpoint.Snapshot, error) {
	q := url.Values{"shard": {strconv.Itoa(c.shard)}, "epoch": {strconv.Itoa(c.epoch)}}
	var snap *checkpoint.Snapshot
	err := c.rpcRetry("checkpoint_get", 4, func() error {
		req, err := c.newRequest(http.MethodGet, pathCheckpoint+"?"+q.Encode(), nil)
		if err != nil {
			return err
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusNoContent:
			snap = nil
			return nil
		case http.StatusOK:
			data, err := io.ReadAll(io.LimitReader(resp.Body, maxCheckpoint))
			if err != nil {
				return err
			}
			var sn checkpoint.Snapshot
			if err := json.Unmarshal(data, &sn); err != nil {
				return fmt.Errorf("fleetnet: decode checkpoint: %w", err)
			}
			snap = &sn
			return nil
		default:
			return decodeError(resp)
		}
	})
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// OpenResults opens this epoch's result stream: the engine writes
// result rows to the local spool file; Sync ships them.
func (c *Client) OpenResults() (io.WriteCloser, error) {
	f, err := os.OpenFile(c.spoolPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	c.out = f
	return f, nil
}

// Sync makes the coordinator's durable view catch up with local
// progress. Ordering is the correctness core:
// the local checkpoint is read FIRST, then the spool is shipped through
// its CURRENT size, then the checkpoint is uploaded. Because the engine
// flushes result rows before writing a checkpoint, spool-size-now ≥
// rows covered by the snapshot read first — so the server can never
// hold a checkpoint whose covered rows it lacks, and a reclaimed shard
// resumed elsewhere never skips a row.
func (c *Client) Sync() error {
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	ckpt, ckptErr := os.ReadFile(c.ckptPath)
	if err := c.uploadSpoolLocked(); err != nil {
		return err
	}
	if ckptErr != nil || len(ckpt) == 0 {
		return nil // no checkpoint yet
	}
	sum := sha256.Sum256(ckpt)
	if c.sentCkpt && sum == c.lastCkpt {
		return nil
	}
	q := url.Values{"shard": {strconv.Itoa(c.shard)}, "epoch": {strconv.Itoa(c.epoch)}}
	err := c.rpcRetry("checkpoint_put", 3, func() error {
		req, err := c.newRequest(http.MethodPut, pathCheckpoint+"?"+q.Encode(), bytes.NewReader(ckpt))
		if err != nil {
			return err
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusNoContent {
			return nil
		}
		werr := decodeError(resp)
		if isCode(werr, codeConflict) {
			// The server holds a newer snapshot (a delayed duplicate of
			// ours landed first, or a successor already progressed).
			// Local state is simply behind; not an error.
			return nil
		}
		return werr
	})
	if err != nil {
		return err
	}
	c.lastCkpt, c.sentCkpt = sum, true
	return nil
}

// uploadSpoolLocked ships spool bytes [uploaded, size) in digest-tagged
// chunks, adopting the server's authoritative size after every RPC —
// which makes duplicated uploads no-ops and lost ones self-healing
// (the server answers with its size and we rewind). Caller holds
// syncMu.
func (c *Client) uploadSpoolLocked() error {
	st, err := os.Stat(c.spoolPath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	size := st.Size()
	if size <= c.uploaded {
		return nil
	}
	f, err := os.Open(c.spoolPath)
	if err != nil {
		return err
	}
	defer f.Close()
	for c.uploaded < size {
		n := size - c.uploaded
		if n > chunkSize {
			n = chunkSize
		}
		chunk := make([]byte, n)
		if _, err := f.ReadAt(chunk, c.uploaded); err != nil {
			return fmt.Errorf("fleetnet: spool read: %w", err)
		}
		sum := sha256.Sum256(chunk)
		q := url.Values{
			"shard":  {strconv.Itoa(c.shard)},
			"epoch":  {strconv.Itoa(c.epoch)},
			"offset": {strconv.FormatInt(c.uploaded, 10)},
		}
		var resp resultResponse
		before := c.uploaded
		err := c.rpcRetry("result", 4, func() error {
			req, err := c.newRequest(http.MethodPost, pathResult+"?"+q.Encode(), bytes.NewReader(chunk))
			if err != nil {
				return err
			}
			req.Header.Set(headerChunkSHA, hex.EncodeToString(sum[:]))
			return c.finishJSON(req, &resp)
		})
		if err != nil {
			return err
		}
		switch {
		case resp.Size > before:
			c.uploaded = resp.Size
		case resp.Size == before:
			// The server neither applied nor already held these bytes;
			// retrying identical input cannot converge.
			return fmt.Errorf("fleetnet: result upload made no progress at offset %d", before)
		default:
			// Gap verdict: the server lost earlier chunks; rewind to its
			// authoritative size and re-send from there.
			c.uploaded = resp.Size
		}
	}
	return nil
}

// Commit publishes the epoch's metadata document — the shard's atomic
// completion record: final Sync, then the metadata with the complete
// run file's length and digest.
// The server applies it atomically and idempotently; a codeConflict
// verdict (lost chunks) triggers one more Sync and a retry.
func (c *Client) Commit(metadata []byte) error {
	if err := c.Sync(); err != nil {
		return err
	}
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	size, digest, err := spoolDigest(c.spoolPath)
	if err != nil {
		return err
	}
	req := commitRequest{Shard: c.shard, Epoch: c.epoch, Size: size, SHA256: digest, Metadata: metadata}
	commitOnce := func() error {
		return c.doJSON(http.MethodPost, pathCommit, req, nil)
	}
	err = c.rpcRetry("commit", 5, commitOnce)
	if isCode(err, codeConflict) {
		if err := c.uploadSpoolLocked(); err != nil {
			return err
		}
		err = c.rpcRetry("commit", 3, commitOnce)
	}
	return err
}

// Close drops the local spool without committing.
func (c *Client) Close() error {
	if c.out != nil {
		c.out.Close()
		c.out = nil
	}
	if c.workDir != "" {
		os.RemoveAll(c.workDir)
	}
	return nil
}

func spoolDigest(path string) (int64, string, error) {
	n, digest, err := fileDigest(path)
	if err != nil && os.IsNotExist(err) {
		return 0, digest, nil
	}
	return n, digest, err
}

// ---------------------------------------------------------------------
// RPC plumbing: per-RPC timeouts, bounded backoff, fencing verdicts.
// ---------------------------------------------------------------------

// wireError is a server verdict (4xx/409) carried back to the caller.
// Fenced verdicts additionally match checkpoint.ErrLeaseFenced so the
// worker runtime's existing fencing paths fire unchanged.
type wireError struct {
	Status int
	Code   string
	Detail string
}

func (e *wireError) Error() string {
	return fmt.Sprintf("fleetnet: server says %s (%d): %s", e.Code, e.Status, e.Detail)
}

func (e *wireError) Unwrap() error {
	if e.Code == codeFenced {
		return checkpoint.ErrLeaseFenced
	}
	return nil
}

func isCode(err error, code string) bool {
	var we *wireError
	return errors.As(err, &we) && we.Code == code
}

func decodeError(resp *http.Response) error {
	var body errorResponse
	json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&body)
	if body.Code == "" {
		body.Code = codeConflict
		if resp.StatusCode >= 500 {
			body.Code = codeServerError
		}
	}
	return &wireError{Status: resp.StatusCode, Code: body.Code, Detail: body.Detail}
}

func (c *Client) newRequest(method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set(headerToken, c.token)
	if c.shard >= 0 {
		req.Header.Set(headerShard, strconv.Itoa(c.shard))
	}
	return req, nil
}

// doJSON performs one RPC with a JSON request body (nil = none) and
// decodes a JSON response into out (nil = expect no body).
func (c *Client) doJSON(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := c.newRequest(method, path, body)
	if err != nil {
		return err
	}
	return c.finishJSON(req, out)
}

func (c *Client) finishJSON(req *http.Request, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return decodeError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(out)
}

// rpcRetry runs fn up to attempts times with doubling backoff
// (50ms..800ms), stopping immediately on server verdicts that retrying
// cannot change: fencing, bad requests, auth failures.
func (c *Client) rpcRetry(rpc string, attempts int, fn func() error) error {
	backoff := 50 * time.Millisecond
	var err error
	for i := 0; i < attempts; i++ {
		if err = fn(); err == nil {
			return nil
		}
		if errors.Is(err, checkpoint.ErrLeaseFenced) ||
			isCode(err, codeBadRequest) || isCode(err, codeUnauthorized) || isCode(err, codeConflict) {
			return err
		}
		if i < attempts-1 {
			c.log.Debug("rpc retry", "rpc", rpc, "attempt", i+1, "err", err)
			time.Sleep(backoff)
			backoff *= 2
			if backoff > 800*time.Millisecond {
				backoff = 800 * time.Millisecond
			}
		}
	}
	return fmt.Errorf("fleetnet: %s failed after %d attempts: %w", rpc, attempts, err)
}
