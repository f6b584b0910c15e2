package validate

import (
	"sync"
	"testing"
)

// The receive path classifies every candidate response with the shared
// Validator from several workers at once, so Compute must be both
// concurrency-safe and allocation-free once its hasher pool is warm. This
// pins the zero-alloc half; TestComputeConcurrent (under -race) covers
// the other.
func TestComputeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items; alloc counts are not meaningful")
	}
	v := New([KeySize]byte{1, 2, 3})
	v.Compute(1, 2, 3) // warm the pool
	if a := testing.AllocsPerRun(200, func() { benchSink = v.Compute(4, 5, 6) }); a != 0 {
		t.Errorf("Compute allocates %.2f objects per call, want 0", a)
	}
	v.Compute6([16]byte{1}, [16]byte{2}, 443)
	if a := testing.AllocsPerRun(200, func() {
		benchSink = v.Compute6([16]byte{9}, [16]byte{8}, 443)
	}); a != 0 {
		t.Errorf("Compute6 allocates %.2f objects per call, want 0", a)
	}
}

// Concurrent callers must see the same words a lone caller computes:
// pooled hasher state must never bleed between flows.
func TestComputeConcurrent(t *testing.T) {
	v := New([KeySize]byte{7, 7, 7})
	const flows = 512
	want := make([]uint64, flows)
	for i := range want {
		want[i] = v.Compute(uint32(i), uint32(i)*3+1, uint16(i))
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 50; pass++ {
				for i := range want {
					if got := v.Compute(uint32(i), uint32(i)*3+1, uint16(i)); got != want[i] {
						select {
						case errs <- "goroutine observed a different validation word":
						default:
						}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}
