package predict

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dalia-hpc/dalia/internal/dense"
)

// The snapshot read path performs zero heap allocations after the pooled
// scratch warms up — the lock-free hot path neither locks nor allocates.
func TestSnapshotPredictIntoAllocs(t *testing.T) {
	if dense.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Put items; zero-alloc assertion only holds without -race")
	}
	f := getFitted(t)
	s, err := NewSnapshot(f.ds.Model, f.res)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	qs := randomQueries(rng, f, s.MaxBatch())
	means := make([]float64, len(qs))
	vars := make([]float64, len(qs))
	if err := s.PredictInto(qs, means, vars); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := s.PredictInto(qs, means, vars); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Snapshot.PredictInto allocates %.1f objects per run, want 0", allocs)
	}
	// Through the handle too: one atomic load must not reintroduce
	// allocations.
	h := NewHandle(s)
	allocs = testing.AllocsPerRun(10, func() {
		if err := h.PredictInto(qs, means, vars); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Handle.PredictInto allocates %.1f objects per run, want 0", allocs)
	}
}

// Concurrent readers on one Snapshot all get exactly the single-threaded
// answer: the read path shares no mutable state (under -race this is the
// lock-free claim's proof obligation).
func TestSnapshotConcurrentReaders(t *testing.T) {
	f := getFitted(t)
	s, err := NewSnapshot(f.ds.Model, f.res)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	qs := randomQueries(rng, f, 40)
	wantM, wantV, err := s.Predict(qs)
	if err != nil {
		t.Fatal(err)
	}
	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			means := make([]float64, len(qs))
			vars := make([]float64, len(qs))
			for it := 0; it < 20; it++ {
				if err := s.PredictInto(qs, means, vars); err != nil {
					errs <- err
					return
				}
				for i := range qs {
					if means[i] != wantM[i] || vars[i] != wantV[i] {
						errs <- errors.New("concurrent read diverged from single-threaded answer")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// Swapping snapshots under concurrent read load never tears a batch: every
// PredictInto answers entirely from one snapshot — the means vector matches
// one generation's reference bitwise, never a mix. The two generations
// share θ (same factor, same variances) and differ only in the latent mean,
// scaled ×2, so every query distinguishes them.
func TestHandleSwapUnderLoadNoTearing(t *testing.T) {
	f := getFitted(t)
	sA, err := NewSnapshot(f.ds.Model, f.res)
	if err != nil {
		t.Fatal(err)
	}
	res2 := *f.res
	res2.Mu = make([]float64, len(f.res.Mu))
	for i, v := range f.res.Mu {
		res2.Mu[i] = 2 * v
	}
	sB, err := NewSnapshot(f.ds.Model, &res2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	qs := randomQueries(rng, f, 24)
	refA, _, err := sA.Predict(qs)
	if err != nil {
		t.Fatal(err)
	}
	refB, _, err := sB.Predict(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if refA[i] == refB[i] {
			t.Fatalf("query %d cannot distinguish the generations (mean %v)", i, refA[i])
		}
	}

	h := NewHandle(sA)
	var stop atomic.Bool
	var sawA, sawB, torn atomic.Int64
	const readers = 4
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			means := make([]float64, len(qs))
			vars := make([]float64, len(qs))
			for !stop.Load() {
				if err := h.PredictInto(qs, means, vars); err != nil {
					errs <- err
					return
				}
				matchA, matchB := true, true
				for i := range qs {
					if means[i] != refA[i] {
						matchA = false
					}
					if means[i] != refB[i] {
						matchB = false
					}
				}
				switch {
				case matchA:
					sawA.Add(1)
				case matchB:
					sawB.Add(1)
				default:
					torn.Add(1)
				}
			}
		}()
	}
	// Swap generations back and forth while the readers hammer the handle.
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			h.Swap(sB)
		} else {
			h.Swap(sA)
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if n := torn.Load(); n > 0 {
		t.Fatalf("%d torn reads (matched neither generation)", n)
	}
	if sawA.Load() == 0 || sawB.Load() == 0 {
		t.Logf("swap test saw generations A=%d B=%d; both >0 expected under normal scheduling", sawA.Load(), sawB.Load())
	}
}

// A retired snapshot holds no goroutines: after a swap the old generation
// just drains to the garbage collector, so churning through generations
// under load leaves the goroutine count flat.
func TestSnapshotSwapLeaksNoGoroutines(t *testing.T) {
	f := getFitted(t)
	before := runtime.NumGoroutine()
	s0, err := NewSnapshot(f.ds.Model, f.res)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandle(s0)
	rng := rand.New(rand.NewSource(25))
	qs := randomQueries(rng, f, 8)
	means := make([]float64, len(qs))
	vars := make([]float64, len(qs))
	for gen := 0; gen < 5; gen++ {
		s, err := NewSnapshot(f.ds.Model, f.res)
		if err != nil {
			t.Fatal(err)
		}
		old := h.Swap(s)
		// The old generation keeps answering in-flight reads, then drains.
		if err := old.PredictInto(qs, means, vars); err != nil {
			t.Fatal(err)
		}
		if err := h.PredictInto(qs, means, vars); err != nil {
			t.Fatal(err)
		}
	}
	// Generous settle: anything the runtime spawned transiently winds down.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines grew %d → %d across snapshot generations", before, now)
	}
}
