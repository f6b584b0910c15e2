package fleetnet

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"zmapgo/internal/checkpoint"
	"zmapgo/internal/fleet"
	"zmapgo/internal/metrics"
	"zmapgo/internal/trace"
)

// Body size ceilings. A result chunk larger than maxChunk is a client
// bug; checkpoints carry the dedup recent-window so they get headroom.
const (
	maxChunk      = 4 << 20
	maxCheckpoint = 64 << 20
	maxCommitBody = 64 << 20
)

// ServerOptions configures the control plane's listener.
type ServerOptions struct {
	// Listen is the bind address (host:port; default 127.0.0.1:0, and
	// port 0 picks a free one).
	Listen string
	// Advertise overrides the URL published to workers (WorkerEnv,
	// OnListen); defaults to http://<bound address>.
	Advertise string
	// Token, when non-empty, must ride every RPC in X-Fleet-Token.
	Token string
	// OnListen, when set, receives the server's directly-bound URL
	// (http://<listen address>) once the listener is up — before any
	// worker is granted. Workers are told the advertised URL; the bound
	// one is what a front proxy targets.
	OnListen func(url string)
}

// Server is the fleet's control plane (fleet.ControlPlane): an
// HTTP/JSON fencing facade over the shard-directory files. Grants land
// as spec+lease files, locally spawned workers find them through
// WorkerEnv, and joining fleet-worker processes acquire offered grants
// over /v1/acquire.
//
// Every shard-scoped RPC names a shard inside the fleet and an epoch of
// at least 1, or is refused as a bad request. It is then epoch-fenced:
// an RPC carrying any epoch other than the shard's current one is
// rejected with codeFenced and journaled, so a partitioned worker's late
// heartbeat or result upload can never corrupt a re-granted shard.
type Server struct {
	opts ServerOptions
	info fleet.PlaneInfo
	log  *slog.Logger

	ln  net.Listener
	srv *http.Server
	url string // advertised base URL

	shards []*netShard // one per shard, allocated at Start
	offers chan *fleet.WorkerSpec

	mRPCs    *metrics.Counter
	mFenced  *metrics.Counter
	mBytes   *metrics.Counter
	mCommits *metrics.Counter
	mGaps    *metrics.Counter
}

// netShard serializes one shard's server-side state transitions: grant,
// renew, result append, and commit all hold its lock, which closes the
// load-modify-save race between a heartbeat and a concurrent re-grant.
type netShard struct {
	mu      sync.Mutex
	epoch   int // current granted epoch; -1 until known
	spec    *fleet.WorkerSpec
	out     *os.File // open run file for the current epoch
	outSize int64
	rate    float64 // rate share answered on every renewal (0 = no cap)
	// exitEpoch/exitCode hold a joined worker's exit report for the
	// current epoch until TakeExit consumes it (exitEpoch 0 = none).
	exitEpoch int
	exitCode  int
}

// NewServer builds the control plane; Start binds it.
func NewServer(opts ServerOptions) *Server {
	return &Server{
		opts:   opts,
		offers: make(chan *fleet.WorkerSpec, 64),
	}
}

// URL returns the advertised base URL (valid after Start).
func (s *Server) URL() string { return s.url }

// Start implements fleet.ControlPlane: bind the listener, publish the
// URL, and start serving RPCs.
func (s *Server) Start(info fleet.PlaneInfo) error {
	s.info = info
	s.log = info.Logger
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	s.shards = make([]*netShard, info.Workers)
	for i := range s.shards {
		s.shards[i] = &netShard{epoch: -1}
	}
	if reg := info.Metrics; reg != nil {
		s.mRPCs = reg.Counter("zmapgo_fleetnet_rpcs_total",
			"Control-plane RPCs served.")
		s.mFenced = reg.Counter("zmapgo_fleetnet_rpcs_fenced_total",
			"RPCs rejected by server-side epoch fencing.")
		s.mBytes = reg.Counter("zmapgo_fleetnet_result_bytes_total",
			"Result bytes appended from workers.")
		s.mCommits = reg.Counter("zmapgo_fleetnet_commits_total",
			"Epoch commit records applied.")
		s.mGaps = reg.Counter("zmapgo_fleetnet_upload_gaps_total",
			"Result uploads arriving past the server's size (client rewound).")
	}

	addr := s.opts.Listen
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("fleetnet: listen %s: %w", addr, err)
	}
	s.ln = ln
	bound := "http://" + ln.Addr().String()
	s.url = s.opts.Advertise
	if s.url == "" {
		s.url = bound
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET "+pathSpec, s.auth(s.handleSpec))
	mux.HandleFunc("POST "+pathRenew, s.auth(s.handleRenew))
	mux.HandleFunc("GET "+pathCheckpoint, s.auth(s.handleCheckpointGet))
	mux.HandleFunc("PUT "+pathCheckpoint, s.auth(s.handleCheckpointPut))
	mux.HandleFunc("POST "+pathResult, s.auth(s.handleResult))
	mux.HandleFunc("POST "+pathCommit, s.auth(s.handleCommit))
	mux.HandleFunc("POST "+pathAcquire, s.auth(s.handleAcquire))
	mux.HandleFunc("POST "+pathExit, s.auth(s.handleExit))
	s.srv = &http.Server{Handler: mux}
	go func() {
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.log.Warn("fleetnet server stopped", "err", err)
		}
	}()

	detail := bound
	if s.url != bound {
		detail += " advertised=" + s.url
	}
	s.journal(trace.JEntry{Kind: trace.JFleetNetListen, Detail: detail})
	s.log.Info("fleet control plane listening", "bound", bound, "advertised", s.url)
	if s.opts.OnListen != nil {
		s.opts.OnListen(bound)
	}
	return nil
}

// Grant implements fleet.ControlPlane: durably publish the spec, then
// the fencing lease, then swap the shard's in-memory epoch so in-flight
// RPCs from the previous epoch fence immediately.
func (s *Server) Grant(spec *fleet.WorkerSpec, lease *checkpoint.Lease) error {
	sh := s.shards[spec.Shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := fleet.SaveWorkerSpec(spec.Paths.Spec, spec); err != nil {
		return err
	}
	if err := checkpoint.SaveLease(spec.Paths.Lease, lease); err != nil {
		return err
	}
	if sh.out != nil {
		sh.out.Close()
		sh.out = nil
	}
	sh.epoch = spec.Epoch
	sh.spec = spec
	sh.outSize = 0
	return nil
}

// WorkerEnv implements fleet.ControlPlane: a locally-spawned worker
// finds its grant through the join URL plus shard/epoch.
func (s *Server) WorkerEnv(spec *fleet.WorkerSpec) []string {
	return []string{
		JoinEnv + "=" + s.url,
		ShardEnv + "=" + strconv.Itoa(spec.Shard),
		EpochEnv + "=" + strconv.Itoa(spec.Epoch),
		TokenEnv + "=" + s.opts.Token,
	}
}

// Offer implements fleet.ControlPlane: make the grant acquirable by a
// joining worker. Offers are best-effort — the coordinator re-offers a
// grant that sits unadopted — so a full queue sheds the oldest entry.
func (s *Server) Offer(spec *fleet.WorkerSpec) {
	select {
	case s.offers <- spec:
		return
	default:
	}
	select {
	case <-s.offers:
	default:
	}
	select {
	case s.offers <- spec:
	default:
	}
}

// TakeExit implements fleet.ControlPlane: consume a joined worker's
// reported exit code for the epoch, if one arrived.
func (s *Server) TakeExit(shard, epoch int) (int, bool) {
	sh := s.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.exitEpoch != epoch {
		return 0, false
	}
	sh.exitEpoch = 0
	return sh.exitCode, true
}

// SetRate implements fleet.ControlPlane: the next renewal of the shard
// answers with pps.
func (s *Server) SetRate(shard int, pps float64) {
	sh := s.shards[shard]
	sh.mu.Lock()
	sh.rate = pps
	sh.mu.Unlock()
}

// Close implements fleet.ControlPlane.
func (s *Server) Close() error {
	if s.srv != nil {
		s.srv.Close()
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.out != nil {
			sh.out.Close()
			sh.out = nil
		}
		sh.mu.Unlock()
	}
	return nil
}

// currentEpoch resolves the shard's live epoch under sh.mu. When the
// server has not granted in this incarnation (coordinator restart), the
// lease file on disk is authoritative.
func (s *Server) currentEpoch(sh *netShard, shard int) int {
	if sh.spec != nil {
		return sh.epoch
	}
	l, err := checkpoint.LoadLease(fleet.PathsFor(s.info.Dir, shard, 0, s.info.Format).Lease)
	if err != nil {
		return -1
	}
	sh.epoch = l.Epoch
	return l.Epoch
}

func (s *Server) journal(e trace.JEntry) {
	if s.info.Journal != nil {
		s.info.Journal(e)
	}
}

func (s *Server) count(c *metrics.Counter) {
	if c != nil {
		c.Inc()
	}
}

// ---------------------------------------------------------------------
// HTTP plumbing.
// ---------------------------------------------------------------------

func (s *Server) auth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.count(s.mRPCs)
		if s.opts.Token != "" &&
			subtle.ConstantTimeCompare([]byte(r.Header.Get(headerToken)), []byte(s.opts.Token)) != 1 {
			writeError(w, http.StatusUnauthorized, codeUnauthorized, "bad or missing fleet token")
			return
		}
		h(w, r)
	}
}

func writeError(w http.ResponseWriter, status int, code, detail string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Code: code, Detail: detail})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// fence rejects the RPC and attributes the rejection in the journal.
func (s *Server) fence(w http.ResponseWriter, rpc string, shard, gotEpoch, curEpoch int) {
	s.count(s.mFenced)
	s.journal(trace.JEntry{
		Kind:   trace.JFleetNetFence,
		Index:  shard,
		Reason: rpc,
		Detail: fmt.Sprintf("epoch %d, current %d", gotEpoch, curEpoch),
	})
	writeError(w, http.StatusConflict, codeFenced,
		fmt.Sprintf("shard %d epoch %d superseded (current %d)", shard, gotEpoch, curEpoch))
}

// target checks the (shard, epoch) an RPC names before any state is
// touched: the shard must be inside the fleet and the epoch a possible
// grant (epochs start at 1). Every shard-scoped handler calls it, and
// its shard is then safe to index s.shards with. A shard not granted in
// this incarnation and without a lease on disk has current epoch -1, so
// it fences every epoch that passes here.
func (s *Server) target(shard, epoch int) (*netShard, error) {
	if shard < 0 || shard >= len(s.shards) {
		return nil, fmt.Errorf("shard %d outside the fleet's %d", shard, len(s.shards))
	}
	if epoch < 1 {
		return nil, fmt.Errorf("epoch %d never granted (epochs start at 1)", epoch)
	}
	return s.shards[shard], nil
}

// queryTarget parses and checks the shard= and epoch= query parameters.
func (s *Server) queryTarget(r *http.Request) (sh *netShard, shard, epoch int, err error) {
	shard, err1 := strconv.Atoi(r.URL.Query().Get("shard"))
	epoch, err2 := strconv.Atoi(r.URL.Query().Get("epoch"))
	if err1 != nil || err2 != nil {
		return nil, 0, 0, fmt.Errorf("want integer shard= and epoch=")
	}
	sh, err = s.target(shard, epoch)
	return sh, shard, epoch, err
}

// ---------------------------------------------------------------------
// Handlers.
// ---------------------------------------------------------------------

func (s *Server) handleSpec(w http.ResponseWriter, r *http.Request) {
	sh, shard, epoch, err := s.queryTarget(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := s.currentEpoch(sh, shard)
	if sh.spec == nil || epoch != cur {
		s.fence(w, "spec", shard, epoch, cur)
		return
	}
	writeJSON(w, sh.spec)
}

func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req renewRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 4096)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	sh, err := s.target(req.Shard, req.Epoch)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	pid := req.PID
	if req.Remote {
		// Remote pids are recorded negated so a restarted coordinator's
		// liveness probe (kill -0) can never match an unrelated local
		// process that happens to share the number.
		if pid > 0 {
			pid = -pid
		} else if pid == 0 {
			pid = -1
		}
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := s.currentEpoch(sh, req.Shard)
	if req.Epoch != cur {
		s.fence(w, "renew", req.Shard, req.Epoch, cur)
		return
	}
	paths := fleet.PathsFor(s.info.Dir, req.Shard, req.Epoch, s.info.Format)
	if _, err := checkpoint.RenewLease(paths.Lease, req.Epoch, pid, time.Now()); err != nil {
		if errors.Is(err, checkpoint.ErrLeaseFenced) {
			s.fence(w, "renew", req.Shard, req.Epoch, cur)
			return
		}
		writeError(w, http.StatusInternalServerError, codeServerError, err.Error())
		return
	}
	writeJSON(w, renewResponse{RatePPS: sh.rate})
}

func (s *Server) handleCheckpointGet(w http.ResponseWriter, r *http.Request) {
	sh, shard, epoch, err := s.queryTarget(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := s.currentEpoch(sh, shard)
	if epoch != cur {
		s.fence(w, "checkpoint_get", shard, epoch, cur)
		return
	}
	data, err := os.ReadFile(fleet.PathsFor(s.info.Dir, shard, epoch, s.info.Format).Checkpoint)
	if err != nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Server) handleCheckpointPut(w http.ResponseWriter, r *http.Request) {
	sh, shard, epoch, err := s.queryTarget(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxCheckpoint+1))
	if err != nil || len(data) > maxCheckpoint {
		writeError(w, http.StatusBadRequest, codeBadRequest, "checkpoint body unreadable or oversized")
		return
	}
	var snap checkpoint.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "checkpoint not a snapshot: "+err.Error())
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := s.currentEpoch(sh, shard)
	if epoch != cur {
		s.fence(w, "checkpoint_put", shard, epoch, cur)
		return
	}
	paths := fleet.PathsFor(s.info.Dir, shard, epoch, s.info.Format)
	if l, err := checkpoint.LoadLease(paths.Lease); err == nil {
		if err := snap.Verify(l.Fingerprint); err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, "fingerprint: "+err.Error())
			return
		}
	}
	// Monotonicity: a delayed or duplicated upload must never regress
	// the durable checkpoint below what a successor would resume from.
	if prev, err := checkpoint.Load(paths.Checkpoint); err == nil && prev.WrittenAt.After(snap.WrittenAt) {
		s.journal(trace.JEntry{
			Kind:   trace.JFleetNetCkptRej,
			Index:  shard,
			Reason: "stale_written_at",
			Detail: fmt.Sprintf("epoch %d: held %s, got %s", epoch,
				prev.WrittenAt.Format(time.RFC3339Nano), snap.WrittenAt.Format(time.RFC3339Nano)),
		})
		writeError(w, http.StatusConflict, codeConflict, "checkpoint older than durable one")
		return
	}
	if err := atomicWrite(paths.Checkpoint, data); err != nil {
		writeError(w, http.StatusInternalServerError, codeServerError, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	sh, shard, epoch, err := s.queryTarget(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	offset, err := strconv.ParseInt(r.URL.Query().Get("offset"), 10, 64)
	if err != nil || offset < 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "want integer offset=")
		return
	}
	chunk, err := io.ReadAll(io.LimitReader(r.Body, maxChunk+1))
	if err != nil || len(chunk) > maxChunk {
		writeError(w, http.StatusBadRequest, codeBadRequest, "chunk unreadable or oversized")
		return
	}
	if want := r.Header.Get(headerChunkSHA); want != "" {
		got := sha256.Sum256(chunk)
		if hex.EncodeToString(got[:]) != want {
			writeError(w, http.StatusBadRequest, codeBadRequest, "chunk digest mismatch")
			return
		}
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := s.currentEpoch(sh, shard)
	if epoch != cur {
		s.fence(w, "result", shard, epoch, cur)
		return
	}
	if err := s.openOutLocked(sh, shard, epoch); err != nil {
		writeError(w, http.StatusInternalServerError, codeServerError, err.Error())
		return
	}
	switch {
	case offset == sh.outSize:
		n, err := sh.out.Write(chunk)
		sh.outSize += int64(n)
		if err != nil {
			writeError(w, http.StatusInternalServerError, codeServerError, err.Error())
			return
		}
		if s.mBytes != nil {
			s.mBytes.Add(uint64(n))
		}
	case offset < sh.outSize:
		// Duplicated or retried chunk: the bytes are already durable;
		// ack with the authoritative size, never re-append.
	default:
		// Gap: an earlier chunk was lost in flight. Answer with the
		// authoritative size so the client rewinds and re-sends.
		s.count(s.mGaps)
		s.journal(trace.JEntry{
			Kind:   trace.JFleetNetGap,
			Index:  shard,
			Reason: "result",
			Detail: fmt.Sprintf("epoch %d: offset %d past size %d", epoch, offset, sh.outSize),
		})
	}
	writeJSON(w, resultResponse{Size: sh.outSize})
}

// openOutLocked lazily opens the epoch's run file for appending,
// adopting whatever size is already durable (coordinator restart,
// server-side reopen). Caller holds sh.mu.
func (s *Server) openOutLocked(sh *netShard, shard, epoch int) error {
	if sh.out != nil {
		return nil
	}
	paths := fleet.PathsFor(s.info.Dir, shard, epoch, s.info.Format)
	f, err := os.OpenFile(paths.Output, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("fleetnet: open run file: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("fleetnet: stat run file: %w", err)
	}
	sh.out = f
	sh.outSize = st.Size()
	return nil
}

func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request) {
	var req commitRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxCommitBody)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	sh, err := s.target(req.Shard, req.Epoch)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := s.currentEpoch(sh, req.Shard)
	if req.Epoch != cur {
		s.fence(w, "commit", req.Shard, req.Epoch, cur)
		return
	}
	paths := fleet.PathsFor(s.info.Dir, req.Shard, req.Epoch, s.info.Format)
	if _, err := os.Stat(paths.Metadata); err == nil {
		// Retried commit of an applied epoch: idempotent ack.
		w.WriteHeader(http.StatusNoContent)
		return
	}
	size, digest, err := fileDigest(paths.Output)
	if err != nil && !os.IsNotExist(err) {
		writeError(w, http.StatusInternalServerError, codeServerError, err.Error())
		return
	}
	if size != req.Size || (req.Size > 0 && digest != req.SHA256) {
		// The client believes it shipped more (or different) bytes than
		// the server holds — lost chunks. Refuse; the client re-syncs
		// and retries.
		writeError(w, http.StatusConflict, codeConflict,
			fmt.Sprintf("run file %d bytes sha %s, commit names %d bytes sha %s",
				size, digest, req.Size, req.SHA256))
		return
	}
	if sh.out != nil {
		sh.out.Close()
		sh.out = nil
	}
	if err := atomicWrite(paths.Metadata, req.Metadata); err != nil {
		writeError(w, http.StatusInternalServerError, codeServerError, err.Error())
		return
	}
	s.count(s.mCommits)
	s.journal(trace.JEntry{
		Kind:   trace.JFleetNetCommit,
		Index:  req.Shard,
		Detail: fmt.Sprintf("epoch %d: %d bytes", req.Epoch, req.Size),
	})
	// Done-mark is advisory (the metadata file IS the commit record):
	// its failure is logged, not fatal, because a restarted coordinator
	// adopts the shard as finished on the commit record alone.
	if l, err := checkpoint.LoadLease(paths.Lease); err == nil && l.Epoch == req.Epoch {
		l.State = checkpoint.LeaseDone
		l.RenewedAt = time.Now()
		if err := checkpoint.SaveLease(paths.Lease, l); err != nil {
			s.log.Warn("lease done-mark failed (commit record already durable)",
				"shard", req.Shard, "err", err)
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleAcquire(w http.ResponseWriter, r *http.Request) {
	var req acquireRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 4096)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	wait := time.Duration(req.WaitMS) * time.Millisecond
	if wait <= 0 || wait > 30*time.Second {
		wait = 30 * time.Second
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		select {
		case spec := <-s.offers:
			// A re-offered grant may have been superseded while queued;
			// hand out only grants that are still the shard's current
			// epoch.
			sh := s.shards[spec.Shard]
			sh.mu.Lock()
			cur := s.currentEpoch(sh, spec.Shard)
			sh.mu.Unlock()
			if spec.Epoch != cur {
				continue
			}
			s.journal(trace.JEntry{
				Kind:   trace.JFleetAcquire,
				Index:  spec.Shard,
				Name:   spec.WorkerID(),
				Detail: fmt.Sprintf("epoch %d acquired by %s", spec.Epoch, r.RemoteAddr),
			})
			writeJSON(w, spec)
			return
		case <-deadline.C:
			w.WriteHeader(http.StatusNoContent)
			return
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleExit(w http.ResponseWriter, r *http.Request) {
	var req exitRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 4096)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	sh, err := s.target(req.Shard, req.Epoch)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Only the current epoch's report can still steer the coordinator
	// (TakeExit asks for it); a straggler's report is fenced like any
	// other stale RPC, and one slot per shard bounds what is held.
	if cur := s.currentEpoch(sh, req.Shard); req.Epoch != cur {
		s.fence(w, "exit", req.Shard, req.Epoch, cur)
		return
	}
	sh.exitEpoch, sh.exitCode = req.Epoch, req.Code
	s.journal(trace.JEntry{
		Kind:   trace.JFleetNetExit,
		Index:  req.Shard,
		Detail: fmt.Sprintf("epoch %d exit code %d", req.Epoch, req.Code),
	})
	w.WriteHeader(http.StatusNoContent)
}

// ---------------------------------------------------------------------
// Small file helpers.
// ---------------------------------------------------------------------

// atomicWrite lands bytes under path via temp+rename so readers (and a
// crashed server's successor) never observe a torn file.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// fileDigest returns a file's length and hex SHA-256. A missing file
// digests as (0, sha256("")) with the stat error passed through.
func fileDigest(path string) (int64, string, error) {
	h := sha256.New()
	f, err := os.Open(path)
	if err != nil {
		return 0, hex.EncodeToString(h.Sum(nil)), err
	}
	defer f.Close()
	n, err := io.Copy(h, f)
	if err != nil {
		return n, "", err
	}
	return n, hex.EncodeToString(h.Sum(nil)), nil
}
