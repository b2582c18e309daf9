package inla

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/sched"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// genPintime builds a dataset with enough time blocks for parallel-in-time
// partitioning to be in play (nt = 12 supports up to 3 useful partitions).
func genPintime(t *testing.T) *synth.Dataset {
	t.Helper()
	ds, err := synth.Generate(synth.GenConfig{
		Nv: 2, Nt: 12, Nr: 2,
		MeshNx: 4, MeshNy: 3,
		ObsPerStep: 20,
		Seed:       17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestPlanBatchFillsPointsFirst(t *testing.T) {
	// Wide gradient batch on a matching core budget: all cores go to S1,
	// the factorizations stay sequential.
	p := PlanBatch(9, 8, 64, true)
	if p.PointWorkers != 8 {
		t.Fatalf("PointWorkers = %d, want 8", p.PointWorkers)
	}
	if p.Partitions != 1 {
		t.Fatalf("wide batch must stay sequential, got %d partitions", p.Partitions)
	}
	// Width-1 line-search probe: the whole budget flows inside the single
	// factorization (halved by the S2 pipeline split).
	p = PlanBatch(1, 8, 64, true)
	if p.PointWorkers != 1 {
		t.Fatalf("PointWorkers = %d, want 1", p.PointWorkers)
	}
	if p.Partitions != 4 {
		t.Fatalf("width-1 batch with 8 cores and S2 should run 4 partitions, got %d", p.Partitions)
	}
	// Without S2 the full budget becomes partition width.
	p = PlanBatch(1, 8, 64, false)
	if p.Partitions != 8 {
		t.Fatalf("width-1 batch with 8 cores, no S2: want 8 partitions, got %d", p.Partitions)
	}
}

// TestPlanBatchReducedEngineDefaults: narrow batches with wide partition
// gangs turn on one level of reduced-system recursion and the pipelined
// handoff; narrow gangs (below the crossover width) stay sequential.
func TestPlanBatchReducedEngineDefaults(t *testing.T) {
	// 40 cores, width 1, no S2 → 5 partitions ≥ the crossover width.
	p := PlanBatch(1, 5, 64, false)
	if p.Partitions < recursionWorthwhileWidth {
		t.Fatalf("plan %+v: expected a gang at least %d wide", p, recursionWorthwhileWidth)
	}
	if p.Recursion != 1 || !p.PipelineReduced {
		t.Fatalf("wide gang must schedule recursion + pipelining, got %+v", p)
	}
	// 2 partitions: reduced system of 2 blocks — nothing to nest or stream.
	p = PlanBatch(1, 2, 64, false)
	if p.Recursion != 0 || p.PipelineReduced {
		t.Fatalf("narrow gang must stay sequential, got %+v", p)
	}
}

// TestEvaluatorReducedKnobs: the pinned knobs override the plan the same
// way Partitions does.
func TestEvaluatorReducedKnobs(t *testing.T) {
	ds := genPintime(t)
	e := &BTAEvaluator{Model: ds.Model, Workers: 20, Partitions: 6, Recursion: 2, ReducedCrossover: 4}
	spec := e.specFor(1, false)
	if spec.parts != 6 { // the pin; the per-scratch solver clamp applies later
		t.Fatalf("spec parts = %d, want the pinned 6", spec.parts)
	}
	if spec.depth != 2 || spec.crossover != 4 {
		t.Fatalf("spec %+v: pinned depth/crossover not honored", spec)
	}
	e.Recursion = -1
	if s := e.specFor(1, false); s.depth != 0 {
		t.Fatalf("Recursion=-1 must force the sequential reduced solve, got depth %d", s.depth)
	}
	e.NoPipeline = true
	if s := e.specFor(1, false); s.pipeline {
		t.Fatal("NoPipeline must force the eager assembly")
	}
}

func TestPlanBatchRespectsTimePartitionability(t *testing.T) {
	// nt = 8 supports at most 8/4 = 2 useful partitions regardless of the
	// core budget.
	p := PlanBatch(1, 64, 8, false)
	if p.Partitions != 2 {
		t.Fatalf("partitions = %d, want the nt-bound 2", p.Partitions)
	}
	// Tiny time dimensions disable the layer entirely.
	p = PlanBatch(1, 64, 3, false)
	if p.Partitions != 1 {
		t.Fatalf("partitions = %d, want 1 for nt=3", p.Partitions)
	}
	// A single core disables every layer.
	p = PlanBatch(5, 1, 64, true)
	if p.PointWorkers != 1 || p.Partitions != 1 {
		t.Fatalf("single-core plan must be fully sequential, got %+v", p)
	}
}

// TestRunOnExecutorCapsConcurrency: the batch runners must never exceed
// their bound, must cover every index exactly once, and must not deadlock on
// degenerate bounds — including bounds above the executor's pool size.
func TestRunOnExecutorCapsConcurrency(t *testing.T) {
	ex := sched.New(4)
	defer ex.Close()
	e := &BTAEvaluator{Exec: ex}
	for _, workers := range []int{1, 3, 8, 100} {
		const n = 64
		var active, peak, calls atomic.Int64
		var mu sync.Mutex
		seen := make(map[int]int)
		e.runOnExecutor(n, workers, func(i int) {
			cur := active.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			mu.Lock()
			seen[i]++
			mu.Unlock()
			calls.Add(1)
			active.Add(-1)
		})
		if calls.Load() != n {
			t.Fatalf("workers=%d: %d calls, want %d", workers, calls.Load(), n)
		}
		for i := 0; i < n; i++ {
			if seen[i] != 1 {
				t.Fatalf("workers=%d: index %d evaluated %d times", workers, i, seen[i])
			}
		}
		bound := int64(workers)
		if bound > n {
			bound = n
		}
		if peak.Load() > bound {
			t.Fatalf("workers=%d: observed concurrency %d beyond the bound %d", workers, peak.Load(), bound)
		}
	}
}

// TestEvalBatchBoundedWorkersMatchesSequential: the pooled batch must give
// the same values as width-1 evaluations, whatever the worker bound.
func TestEvalBatchBoundedWorkersMatchesSequential(t *testing.T) {
	ds := genSmall(t, 2)
	prior := WeakPrior(ds.Theta0, 5)
	pts := gradientPoints(ds.Theta0, 1e-3)
	want := (&BTAEvaluator{Model: ds.Model, Prior: prior, Workers: 1}).EvalBatch(pts)
	got := (&BTAEvaluator{Model: ds.Model, Prior: prior, Workers: 3}).EvalBatch(pts)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("point %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestBFGSIterationAllocFree pins the satellite fix: with the state
// allocated once, one iteration's bookkeeping — stencil refill, gradient
// extraction, direction, trial point, curvature update, Hessian reset —
// performs zero heap allocations.
func TestBFGSIterationAllocFree(t *testing.T) {
	if dense.RaceEnabled {
		t.Skip("race mode skews allocation accounting")
	}
	d := 5
	theta := make([]float64, d)
	st := newBFGSState(theta)
	hInv := dense.Eye(d)
	vals := make([]float64, 2*d+1)
	for i := range vals {
		vals[i] = float64(i%3) - 1
	}
	for i := range st.s {
		st.s[i] = 0.1 * float64(i+1)
		st.yv[i] = 0.2 * float64(d-i)
	}
	allocs := testing.AllocsPerRun(50, func() {
		fillGradientPoints(st.pts, st.x, 1e-3)
		_ = gradientFromBatchInto(st.g, vals, 1e-3)
		dense.Gemv(dense.NoTrans, -1, hInv, st.g, 0, st.p)
		searchPoint(st.xNew, st.x, st.p, 0.5)
		bfgsUpdate(hInv, st.s, st.yv, st.hy)
		setEye(hInv)
	})
	if allocs != 0 {
		t.Fatalf("BFGS iteration bookkeeping allocates %.1f objects per run, want 0", allocs)
	}
}

// TestFitParallelSolverMatchesSequential: a fit forced onto the
// parallel-in-time solver must reproduce the sequential fit's mode to
// optimizer tolerance (the backends agree to 1e-10 per evaluation, so the
// whole BFGS trajectory coincides).
func TestFitParallelSolverMatchesSequential(t *testing.T) {
	ds := genPintime(t)
	prior := WeakPrior(ds.Theta0, 5)
	opts := DefaultFitOptions()
	opts.Opt.MaxIter = 4
	opts.SkipHyperUncertainty = true

	opts.SolverPartitions = 1
	seq, err := Fit(ds.Model, prior, ds.Theta0, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.SolverPartitions = 3
	par, err := Fit(ds.Model, prior, ds.Theta0, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Theta {
		if math.Abs(seq.Theta[i]-par.Theta[i]) > 1e-6 {
			t.Fatalf("theta[%d]: sequential %v vs parallel %v", i, seq.Theta[i], par.Theta[i])
		}
	}
	if math.Abs(seq.Opt.F-par.Opt.F) > 1e-6*(1+math.Abs(seq.Opt.F)) {
		t.Fatalf("objective at the mode: %v vs %v", seq.Opt.F, par.Opt.F)
	}
	for i := range seq.LatentVar {
		if math.Abs(seq.LatentVar[i]-par.LatentVar[i]) > 1e-8*(1+seq.LatentVar[i]) {
			t.Fatalf("latent variance %d: %v vs %v", i, seq.LatentVar[i], par.LatentVar[i])
		}
	}
}

// TestPosteriorParallelMatchesSequential: selected inversion through the
// parallel backend must reproduce the sequential latent posterior.
func TestPosteriorParallelMatchesSequential(t *testing.T) {
	ds := genPintime(t)
	prior := WeakPrior(ds.Theta0, 5)
	seqE := &BTAEvaluator{Model: ds.Model, Prior: prior, Partitions: 1}
	parE := &BTAEvaluator{Model: ds.Model, Prior: prior, Partitions: 3}
	muS, vaS, err := seqE.Posterior(ds.Theta0)
	if err != nil {
		t.Fatal(err)
	}
	muP, vaP, err := parE.Posterior(ds.Theta0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range muS {
		if math.Abs(muS[i]-muP[i]) > 1e-9*(1+math.Abs(muS[i])) {
			t.Fatalf("μ[%d]: %v vs %v", i, muS[i], muP[i])
		}
		if math.Abs(vaS[i]-vaP[i]) > 1e-9*(1+vaS[i]) {
			t.Fatalf("var[%d]: %v vs %v", i, vaS[i], vaP[i])
		}
	}
}
