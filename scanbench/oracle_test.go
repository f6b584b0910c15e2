package main

import (
	"testing"

	"zmapgo/internal/output"
	"zmapgo/internal/packet"
)

// The digest sink must fold each CSV row the engine's writer emits into
// exactly the term the oracle expects, however the writer splits its
// output across Write calls.
func TestRowDigestMatchesRowHash(t *testing.T) {
	rows := []struct {
		ip    uint32
		port  uint16
		class string
	}{{0x0B000001, 80, "synack"}, {0x0B0000FF, 8080, "synack"}, {0x63FFFFFE, 22, "rst"}}
	for _, chunk := range []int{1, 7, 4096} {
		sink := newRowDigest()
		w := output.NewCSVWriter(&chunked{w: sink, n: chunk})
		var want uint64
		for _, r := range rows {
			rec := output.NewRecord(r.ip, r.port, r.class, true, false, false, 64, 1500)
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
			want += rowHash(r.ip, r.port, r.class)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if sink.rows != uint64(len(rows)) || sink.sum != want {
			t.Errorf("chunk %d: %d rows digest %x, want %d rows digest %x", chunk, sink.rows, sink.sum, len(rows), want)
		}
	}
}

// chunked forwards writes n bytes at a time.
type chunked struct {
	w interface{ Write([]byte) (int, error) }
	n int
}

func (c *chunked) Write(p []byte) (int, error) {
	for i := 0; i < len(p); i += c.n {
		if _, err := c.w.Write(p[i:min(i+c.n, len(p))]); err != nil {
			return i, err
		}
	}
	return len(p), nil
}

// Every probe the scanner renders must come back from the reflector as
// a SYN-ACK that parses, verifies and classifies as a success for the
// probed target, and the reflector must hand its frames back to its
// free list.
func TestReflectorAnswersValidate(t *testing.T) {
	in, err := newInputs(workloads[1], 5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newLayerEnv(in)
	if err != nil {
		t.Fatal(err)
	}
	r := newReflector(in.salt)
	free := len(r.free)
	var sc packet.FrameScratch
	dups := 0
	for i, probe := range e.probes[:256] {
		if _, err := r.SendBatch([][]byte{probe}); err != nil {
			t.Fatal(err)
		}
		for n := len(r.ring); n > 0; n-- {
			reply := <-r.ring
			f, err := sc.ParseVerified(reply)
			if err != nil {
				t.Fatalf("probe %d: reply does not parse: %v", i, err)
			}
			res, ok := e.mod.Classify(e.ctx, f)
			if !ok || !res.Success || res.IP != e.targets[i].ip || res.Port != e.targets[i].port {
				t.Fatalf("probe %d: reply classifies as %+v ok=%v, want a success for %+v", i, res, ok, e.targets[i])
			}
			if n == 2 {
				dups++
			}
			r.Release(reply)
		}
	}
	if dups == 0 || dups > 64 {
		t.Errorf("%d of 256 targets answered twice, want about 1 in 8", dups)
	}
	if len(r.free) != free || r.poolMisses.Load() != 0 {
		t.Errorf("free list %d of %d frames, %d misses", len(r.free), free, r.poolMisses.Load())
	}
}
