package fleetnet

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"zmapgo/internal/checkpoint"
	"zmapgo/internal/fleet"
)

// routes are the (method, path) pairs the server's mux dispatches to a
// handler. HEAD is served by the GET routes.
var routes = map[string]bool{
	"GET " + pathSpec:        true,
	"HEAD " + pathSpec:       true,
	"POST " + pathRenew:      true,
	"GET " + pathCheckpoint:  true,
	"HEAD " + pathCheckpoint: true,
	"PUT " + pathCheckpoint:  true,
	"POST " + pathResult:     true,
	"POST " + pathCommit:     true,
	"POST " + pathAcquire:    true,
	"POST " + pathExit:       true,
}

// FuzzServerRPC drives the real mux with untrusted method, path, query,
// body, chunk digest and token presence, against a fresh two-shard
// fleet whose shard 0 is granted at epoch 1 and shard 1 re-granted at
// epoch 2. Whatever arrives, the server must not panic, a routed RPC
// must answer with one of the protocol's statuses, and no file may
// appear in the fleet directory except the layout files of a granted
// epoch.
func FuzzServerRPC(f *testing.F) {
	snap, _ := json.Marshal(&checkpoint.Snapshot{FormatVersion: checkpoint.FormatVersion,
		Tool: "zmapgo", WrittenAt: time.Now(), Phase: "send", Progress: []uint64{4},
		Fingerprint: testFingerprint})
	renew, _ := json.Marshal(renewRequest{Shard: 1, Epoch: 2, PID: 7, Remote: true})
	exit, _ := json.Marshal(exitRequest{Shard: 0, Epoch: 1, Code: 4})
	rows := []byte("10.9.0.1\n")
	seeds := []struct {
		method, path, query string
		body                []byte
		sha                 string
		token               bool
	}{
		{"GET", pathSpec, "shard=0&epoch=1", nil, "", true},
		{"POST", pathRenew, "", renew, "", true},
		{"GET", pathCheckpoint, "shard=1&epoch=2", nil, "", true},
		{"PUT", pathCheckpoint, "shard=0&epoch=1", snap, "", true},
		{"POST", pathResult, "shard=0&epoch=1&offset=0", rows, "", true},
		{"POST", pathResult, "shard=1&epoch=-1&offset=0", rows, "", true},
		{"POST", pathResult, "shard=0&epoch=1&offset=9", rows, "00", true},
		{"POST", pathCommit, "", commitBody(0, 1, nil, []byte("{}")), "", true},
		{"POST", pathCommit, "", commitBody(1, 1, rows, []byte("{}")), "", true},
		{"POST", pathAcquire, "", []byte(`{"wait_ms":1}`), "", true},
		{"POST", pathExit, "", exit, "", true},
		{"POST", pathExit, "", exit, "", false},
		{"DELETE", pathSpec, "shard=0&epoch=1", nil, "", true},
		{"GET", "/v1/../v1/spec", "shard=0&epoch=1", nil, "", true},
	}
	for _, s := range seeds {
		f.Add(s.method, s.path, s.query, s.body, s.sha, s.token)
	}
	f.Fuzz(func(t *testing.T, method, path, query string, body []byte, sha string, token bool) {
		req, err := http.NewRequest(method, "http://fleet"+path+"?"+query, bytes.NewReader(body))
		if err != nil {
			return // not a request a client could send
		}
		srv, _, dir := newTestServer(t, "tok")
		grant(t, srv, dir, 0, 1)
		grant(t, srv, dir, 1, 1)
		grant(t, srv, dir, 1, 2)
		if token {
			req.Header.Set(headerToken, "tok")
		}
		if sha != "" {
			req.Header.Set(headerChunkSHA, sha)
		}
		// A canceled context ends the acquire long-poll at once; no
		// other handler waits on it.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		rec := httptest.NewRecorder()
		srv.srv.Handler.ServeHTTP(rec, req.WithContext(ctx))

		if routes[req.Method+" "+req.URL.Path] {
			switch rec.Code {
			case http.StatusOK, http.StatusNoContent, http.StatusBadRequest,
				http.StatusUnauthorized, http.StatusConflict:
			default:
				t.Fatalf("%s %s?%s answered %d: %s", method, path, query, rec.Code, rec.Body)
			}
		}

		layout := map[string]bool{}
		for _, g := range [][2]int{{0, 1}, {1, 1}, {1, 2}} {
			p := fleet.PathsFor(dir, g[0], g[1], "text")
			for _, f := range []string{p.Dir, p.Spec, p.Lease, p.Checkpoint, p.Output, p.Metadata} {
				layout[f] = true
			}
		}
		filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && path != dir && !layout[path] {
				t.Errorf("%s %s?%s left %s in the fleet directory", method, req.URL.Path, query, path)
			}
			return err
		})
	})
}
