package inla

import (
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/dalia-hpc/dalia/internal/sched"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// TestDAGFitMatchesSequential is the cross-evaluation determinism suite:
// the full INLA fit scheduled on the shared work-stealing executor must
// reproduce the same fit run on a zero-worker private executor, where every
// task runs on the goroutine that joins it — mode θ, objective, optimizer
// trajectory, latent mean and variances — to 1e-10 across the partition ×
// arrow-width × reduced-recursion grid. Frontier installs stay in partition
// order, tip folds sit at fixed positions, and every other write set is
// disjoint, so how the tasks interleave changes no arithmetic.
func TestDAGFitMatchesSequential(t *testing.T) {
	seq := sched.New(0)
	defer seq.Close()
	for _, nr := range []int{1, 2} { // arrow width: nv*nr fixed effects
		ds, err := synth.Generate(synth.GenConfig{
			Nv: 1, Nt: 8, Nr: nr,
			MeshNx: 3, MeshNy: 3,
			ObsPerStep: 10,
			Seed:       31,
		})
		if err != nil {
			t.Fatal(err)
		}
		prior := WeakPrior(ds.Theta0, 5)
		for _, parts := range []int{1, 3} {
			for _, rec := range []int{-1, 1} {
				opts := DefaultFitOptions()
				opts.Opt.MaxIter = 3
				opts.SkipHyperUncertainty = true
				opts.SolverPartitions = parts
				opts.SolverRecursion = rec
				got, err := Fit(ds.Model, prior, ds.Theta0, opts)
				if err != nil {
					t.Fatalf("nr=%d parts=%d rec=%d dag: %v", nr, parts, rec, err)
				}
				ref := &BTAEvaluator{Model: ds.Model, Prior: prior, S2: true,
					Partitions: parts, Recursion: rec, Exec: seq}
				want, err := fitWith(ref, ds.Theta0, opts)
				if err != nil {
					t.Fatalf("nr=%d parts=%d rec=%d sequential: %v", nr, parts, rec, err)
				}
				const tol = 1e-10
				if math.Abs(got.Opt.F-want.Opt.F) > tol*(1+math.Abs(want.Opt.F)) {
					t.Fatalf("nr=%d parts=%d rec=%d: dag F=%v, sequential F=%v", nr, parts, rec, got.Opt.F, want.Opt.F)
				}
				if got.Opt.Iterations != want.Opt.Iterations || got.Opt.FEvals != want.Opt.FEvals {
					t.Fatalf("nr=%d parts=%d rec=%d: dag trajectory (%d it, %d evals) vs sequential (%d it, %d evals)",
						nr, parts, rec, got.Opt.Iterations, got.Opt.FEvals, want.Opt.Iterations, want.Opt.FEvals)
				}
				for i := range want.Theta {
					if math.Abs(got.Theta[i]-want.Theta[i]) > tol*(1+math.Abs(want.Theta[i])) {
						t.Fatalf("nr=%d parts=%d rec=%d: θ[%d] dag %v, sequential %v", nr, parts, rec, i, got.Theta[i], want.Theta[i])
					}
				}
				for i := range want.Mu {
					if math.Abs(got.Mu[i]-want.Mu[i]) > tol*(1+math.Abs(want.Mu[i])) {
						t.Fatalf("nr=%d parts=%d rec=%d: μ[%d] dag %v, sequential %v", nr, parts, rec, i, got.Mu[i], want.Mu[i])
					}
					if math.Abs(got.LatentVar[i]-want.LatentVar[i]) > tol*(1+math.Abs(want.LatentVar[i])) {
						t.Fatalf("nr=%d parts=%d rec=%d: var[%d] dag %v, sequential %v", nr, parts, rec, i, got.LatentVar[i], want.LatentVar[i])
					}
				}
			}
		}
	}
}

// TestDAGEvalBatchMatchesSequential pins the batch layer itself on a wider
// stencil than the fits above exercise: the same 2d+1 gradient batch on the
// shared executor, where solver tasks from different θ points interleave on
// one worker pool, and on a zero-worker executor.
func TestDAGEvalBatchMatchesSequential(t *testing.T) {
	ds, err := synth.Generate(synth.GenConfig{
		Nv: 2, Nt: 6, Nr: 1,
		MeshNx: 3, MeshNy: 3,
		ObsPerStep: 10,
		Seed:       37,
	})
	if err != nil {
		t.Fatal(err)
	}
	prior := WeakPrior(ds.Theta0, 5)
	pts := gradientPoints(ds.Theta0, 1e-3)
	seq := sched.New(0)
	defer seq.Close()
	ref := &BTAEvaluator{Model: ds.Model, Prior: prior, Partitions: 2, Exec: seq}
	want := ref.EvalBatch(pts)
	e := &BTAEvaluator{Model: ds.Model, Prior: prior, Partitions: 2}
	got := e.EvalBatch(pts)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
			t.Fatalf("point %d: dag F=%v, sequential F=%v", i, got[i], want[i])
		}
	}
}

// TestEvaluatorPrivateExecutorShutdown: an evaluator pinned to a private
// executor (BTAEvaluator.Exec) runs its batches and posterior there, and
// closing the executor leaves no goroutines behind — the leak assertion of
// the DAG port.
func TestEvaluatorPrivateExecutorShutdown(t *testing.T) {
	ds, err := synth.Generate(synth.GenConfig{
		Nv: 1, Nt: 6, Nr: 1,
		MeshNx: 3, MeshNy: 3,
		ObsPerStep: 10,
		Seed:       41,
	})
	if err != nil {
		t.Fatal(err)
	}
	prior := WeakPrior(ds.Theta0, 5)
	before := runtime.NumGoroutine()

	ex := sched.New(3)
	seq := sched.New(0)
	e := &BTAEvaluator{Model: ds.Model, Prior: prior, Partitions: 2, Exec: ex}
	ref := &BTAEvaluator{Model: ds.Model, Prior: prior, Partitions: 2, Exec: seq}
	pts := gradientPoints(ds.Theta0, 1e-3)
	want := ref.EvalBatch(pts)
	got := e.EvalBatch(pts)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
			t.Fatalf("point %d: private-executor F=%v, sequential F=%v", i, got[i], want[i])
		}
	}
	if _, _, err := e.Posterior(ds.Theta0); err != nil {
		t.Fatal(err)
	}
	ex.Close()
	seq.Close()

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak after executor Close: %d before, %d after", before, after)
	}
}
