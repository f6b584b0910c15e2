package fleetnet

// wire.go names everything that crosses the TCP boundary: environment
// variables a spawned worker finds its grant through, the HTTP
// endpoint paths, the JSON request/response bodies, and the error
// vocabulary. Both halves (server.go, client.go) import only from here,
// so a drift between them is a compile error, not a protocol bug.

// Environment variables the coordinator sets on locally-spawned
// workers. A remote worker (zmapgo fleet-worker --join) takes the URL
// and token from flags and its grant from /v1/acquire instead.
const (
	// JoinEnv is the coordinator's base URL (http://host:port).
	JoinEnv = "ZMAPGO_FLEET_JOIN"
	// ShardEnv is the granted shard index.
	ShardEnv = "ZMAPGO_FLEET_SHARD"
	// EpochEnv is the granted lease epoch; every RPC carries it and the
	// server fences any RPC whose epoch is not the shard's current one.
	EpochEnv = "ZMAPGO_FLEET_EPOCH"
	// TokenEnv is the shared join token ("" = open fleet).
	TokenEnv = "ZMAPGO_FLEET_TOKEN"
)

// HTTP endpoint paths (all under the coordinator's base URL).
const (
	pathSpec       = "/v1/spec"       // GET  ?shard=&epoch=        -> WorkerSpec JSON
	pathRenew      = "/v1/renew"      // POST renewRequest          -> renewResponse
	pathCheckpoint = "/v1/checkpoint" // GET  ?shard=&epoch= (204 = none) / PUT raw snapshot JSON
	pathResult     = "/v1/result"     // POST ?shard=&epoch=&offset= raw chunk -> resultResponse
	pathCommit     = "/v1/commit"     // POST commitRequest         -> commitResponse
	pathAcquire    = "/v1/acquire"    // POST acquireRequest        -> WorkerSpec JSON | 204
	pathExit       = "/v1/exit"       // POST exitRequest           -> 204
)

// Request headers.
const (
	// headerToken authenticates every RPC when the fleet has a token.
	headerToken = "X-Fleet-Token"
	// headerShard scopes an RPC to a shard for the chaos proxy's
	// per-shard partitions; the server trusts the URL/body, not this.
	headerShard = "X-Fleet-Shard"
	// headerChunkSHA is the hex SHA-256 of a result chunk's bytes; the
	// server verifies it before appending, so a truncated or corrupted
	// body is rejected rather than merged.
	headerChunkSHA = "X-Chunk-Sha256"
)

// Wire error codes (errorResponse.Code). Everything else the client
// treats as retryable; these four are verdicts.
const (
	// codeFenced: the RPC's epoch is not the shard's current epoch, or
	// the lease moved on. The worker must stop scanning.
	codeFenced = "fenced"
	// codeBadRequest: malformed RPC; retrying identical bytes is useless.
	codeBadRequest = "bad_request"
	// codeUnauthorized: token mismatch.
	codeUnauthorized = "unauthorized"
	// codeConflict: upload state disagreement the client can reconcile
	// (e.g. a checkpoint older than the one the server holds).
	codeConflict = "conflict"
)

// codeServerError answers a server-side failure (a lease, run-file or
// checkpoint write that failed). It is not a verdict: the client
// retries it like a dropped connection.
const codeServerError = "server_error"

type errorResponse struct {
	Code   string `json:"code"`
	Detail string `json:"detail,omitempty"`
}

type renewRequest struct {
	Shard int `json:"shard"`
	Epoch int `json:"epoch"`
	// PID is the worker's process id on ITS host. The server records
	// remote pids negated so a restarted coordinator never mistakes a
	// remote worker's pid for a live local process.
	PID    int  `json:"pid"`
	Remote bool `json:"remote,omitempty"`
}

type renewResponse struct {
	// RatePPS is the shard's current rate share, piggybacked on every
	// heartbeat so a separate rate poll RPC is unnecessary.
	RatePPS float64 `json:"rate_pps"`
}

type resultResponse struct {
	// Size is the authoritative byte length of the shard's epoch run
	// file after this RPC. The client always adopts it: on a duplicated
	// chunk the server acks without re-appending (offset < size), and on
	// a gap (offset > size, an earlier chunk was lost) the client
	// rewinds to Size and re-sends from there.
	Size int64 `json:"size"`
}

type commitRequest struct {
	Shard int `json:"shard"`
	Epoch int `json:"epoch"`
	// Size and SHA256 describe the COMPLETE run file; the commit is
	// refused unless the server's file matches both, so a commit can
	// never land over a partially-shipped result stream.
	Size     int64  `json:"size"`
	SHA256   string `json:"sha256"`
	Metadata []byte `json:"metadata"`
}

type acquireRequest struct {
	// WaitMS long-polls: the server holds the request up to this long
	// waiting for an offered grant before answering 204.
	WaitMS int64 `json:"wait_ms"`
}

type exitRequest struct {
	Shard int `json:"shard"`
	Epoch int `json:"epoch"`
	Code  int `json:"code"`
}
