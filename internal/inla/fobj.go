// Package inla implements the integrated nested Laplace approximation
// engine of the paper (§III): the objective function fobj(θ) of Eq. 8, its
// BFGS optimization with parallel central-difference gradients (layer S1),
// the concurrent prior/conditional factorization pipelines (layer S2), the
// distributed solver integration (layer S3, package bta), posterior
// extraction for the hyperparameters (Hessian at the mode) and for the
// latent field (selected inversion of Q_c).
package inla

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/model"
	"github.com/dalia-hpc/dalia/internal/sched"
)

// evalLabels caches eval=<k> pprof label contexts so batch runners tag each
// point's work for per-evaluation profile attribution without allocating.
var evalLabels = sched.NewLabelSet("eval")

// Prior places independent Gaussian priors on the working-scale
// hyperparameters θ.
type Prior struct {
	Mean []float64
	SD   []float64
}

// WeakPrior centers a wide prior (sd) at the given point.
func WeakPrior(center []float64, sd float64) Prior {
	m := append([]float64(nil), center...)
	s := make([]float64, len(center))
	for i := range s {
		s[i] = sd
	}
	return Prior{Mean: m, SD: s}
}

// LogDensity evaluates Σ log N(θ_i | mean_i, sd_i²).
func (p Prior) LogDensity(theta []float64) float64 {
	var ll float64
	for i, t := range theta {
		z := (t - p.Mean[i]) / p.SD[i]
		ll += -0.5*z*z - math.Log(p.SD[i]) - 0.5*math.Log(2*math.Pi)
	}
	return ll
}

// FobjParts carries the per-term decomposition of one objective evaluation
// (Eq. 8), plus the conditional mean computed on the way.
type FobjParts struct {
	LogPrior  float64
	LogLik    float64
	LogDetQp  float64
	LogDetQc  float64
	QuadQp    float64 // μᵀ·Q_p·μ
	Mu        []float64
	LatentDim int
}

// F returns fobj(θ) = log p(θ) + log ℓ(y|θ,x*) + log p(x*|θ) − log p_G(x*|θ,y).
// For the Gaussian likelihood the Laplace approximation is exact and the
// Gaussian normalization constants of the two densities cancel:
// fobj = log p(θ) + log ℓ + ½log|Q_p| − ½μᵀQ_pμ − ½log|Q_c|.
func (p FobjParts) F() float64 {
	return p.LogPrior + p.LogLik + 0.5*p.LogDetQp - 0.5*p.QuadQp - 0.5*p.LogDetQc
}

// solverScratch is the reusable arena of one fobj evaluation pipeline pair:
// the two BTA workspaces and solver backends (prior and conditional
// precision), the conditional-mean vector, and the assembly/permutation
// scratch vectors. After warm-up, repeated Refactorize+Solve cycles on the
// same scratch perform zero heap allocations — the fixed-memory-footprint
// property the INLA mode search needs across its hundreds of θ-evaluations.
//
// The arena holds the sequential factors always and builds the
// parallel-in-time pair lazily the first time a batch plan asks for
// within-factorization partitions, so purely wide workloads never pay for
// the second set of factor storage.
type solverScratch struct {
	qp, qc *bta.Matrix
	fp, fc *bta.Factor // sequential backends (partitions = 1)

	pfp, pfc cachedParallel // parallel-in-time backends, built on demand

	sigC *bta.Matrix // selected-inversion output (posterior extraction)

	mu  []float64 // conditional mean (solution of Q_c·μ = rhs)
	tmp []float64 // Q_p·μ product for the quadratic form
	pm  []float64 // process-major rhs before permutation
	obs []float64 // weighted response combination
}

func newSolverScratch(m *model.Model) *solverScratch {
	n, b, a := m.Dims.BTAShape()
	tot := m.Dims.Total()
	return &solverScratch{
		qp:  bta.NewMatrix(n, b, a),
		qc:  bta.NewMatrix(n, b, a),
		fp:  bta.NewFactor(n, b, a),
		fc:  bta.NewFactor(n, b, a),
		mu:  make([]float64, tot),
		tmp: make([]float64, tot),
		pm:  make([]float64, tot),
		obs: make([]float64, m.Obs.M()),
	}
}

// solverSpec pins the per-factorization solver configuration one batch runs
// at: the parallel-in-time width plus the reduced-system engine knobs
// (recursion depth/crossover and the pipelined boundary handoff).
type solverSpec struct {
	parts     int
	depth     int
	crossover int
	pipeline  bool
	prec      bta.Precision
	maxRefine int
	// exec overrides the task executor the solver phases run on (nil =
	// sched.Shared()); it participates in the spec comparison that gates
	// cachedParallel rebuilds.
	exec *sched.Executor
}

// specOf converts a batch plan into the factorization spec.
func specOf(plan SharedPlan) solverSpec {
	return solverSpec{parts: plan.Partitions, depth: plan.Recursion,
		pipeline: plan.PipelineReduced, prec: plan.Precision}
}

// cachedParallel lazily builds and caches one parallel-in-time factor per
// spec, so the Q_p and Q_c pipelines share a single caching policy while
// staying independent (a posterior-only workload never builds the Q_p
// one).
type cachedParallel struct {
	pf   *bta.ParallelFactor
	spec solverSpec
}

// solver returns seq for widths the clamp reduces to 1, otherwise the
// cached parallel factor for the spec (rebuilding only when it changes).
func (c *cachedParallel) solver(seq *bta.Factor, n, b, a int, spec solverSpec) (bta.Solver, error) {
	if mx := bta.MaxUsefulPartitions(n); spec.parts > mx {
		spec.parts = mx
	}
	if spec.parts <= 1 {
		seq.SetPrecision(spec.prec)
		seq.SetMaxRefine(spec.maxRefine)
		return seq, nil
	}
	if c.pf == nil || c.spec != spec {
		pf, err := bta.NewParallelFactorOpts(n, b, a, bta.ParallelOptions{
			Partitions: spec.parts,
			Precision:  spec.prec,
			MaxRefine:  spec.maxRefine,
			Reduced: bta.ReducedOptions{
				Depth: spec.depth, Crossover: spec.crossover, Pipeline: spec.pipeline,
			},
			Executor: spec.exec,
		})
		if err != nil {
			return nil, err
		}
		c.pf, c.spec = pf, spec
	}
	return c.pf, nil
}

// priorSolver returns the Q_p solver for the requested factorization spec;
// condSolver the Q_c one.
func (ws *solverScratch) priorSolver(m *model.Model, spec solverSpec) (bta.Solver, error) {
	n, b, a := m.Dims.BTAShape()
	return ws.pfp.solver(ws.fp, n, b, a, spec)
}

func (ws *solverScratch) condSolver(m *model.Model, spec solverSpec) (bta.Solver, error) {
	n, b, a := m.Dims.BTAShape()
	return ws.pfc.solver(ws.fc, n, b, a, spec)
}

// solvers returns the (Q_p, Q_c) solver pair for the requested spec.
func (ws *solverScratch) solvers(m *model.Model, spec solverSpec) (sp, sc bta.Solver, err error) {
	if sp, err = ws.priorSolver(m, spec); err != nil {
		return nil, nil, err
	}
	if sc, err = ws.condSolver(m, spec); err != nil {
		return nil, nil, err
	}
	return sp, sc, nil
}

// EvalFobj evaluates the objective at theta using the sequential BTA solver
// (the single-device DALIA path). The two factorizations of Q_p and Q_c are
// independent (§III-A); runS2 runs them concurrently when true — the S2
// layer in shared-memory form. Non-Gaussian likelihoods route through the
// inner Newton loop for the conditional mode.
func EvalFobj(m *model.Model, prior Prior, theta []float64, runS2 bool) (FobjParts, error) {
	return evalFobjScratch(m, prior, theta, runS2, solverSpec{parts: 1}, nil)
}

// evalFobjScratch is EvalFobj against a caller-owned arena (nil allocates a
// fresh one), with the factorizations run at the given parallel-in-time
// width (1 = sequential POBTAF, >1 = bta.ParallelFactor over that many
// partitions). The returned FobjParts.Mu aliases the arena's μ buffer and
// is only valid until the arena's next evaluation.
func evalFobjScratch(m *model.Model, prior Prior, theta []float64, runS2 bool, spec solverSpec, ws *solverScratch) (FobjParts, error) {
	t, err := m.DecodeTheta(theta)
	if err != nil {
		return FobjParts{}, err
	}
	if m.Lik == model.LikPoisson {
		return evalFobjPoisson(m, prior, t, theta)
	}
	if ws == nil {
		ws = newSolverScratch(m)
	}
	fp, fc, err := ws.solvers(m, spec)
	if err != nil {
		return FobjParts{}, err
	}
	parts := FobjParts{LogPrior: prior.LogDensity(theta)}

	var qpErr, qcErr error
	var ldQp, ldQc float64
	qpPipeline := func() {
		if qpErr = m.QpInto(t, ws.qp); qpErr != nil {
			return
		}
		if qpErr = fp.Refactorize(ws.qp); qpErr != nil {
			qpErr = fmt.Errorf("inla: Q_p factorization: %w", qpErr)
			return
		}
		ldQp = fp.LogDet()
	}
	qcPipeline := func() {
		if qcErr = m.QcInto(t, ws.qc); qcErr != nil {
			return
		}
		if qcErr = fc.Refactorize(ws.qc); qcErr != nil {
			qcErr = fmt.Errorf("inla: Q_c factorization: %w", qcErr)
			return
		}
		m.CondRHSInto(t, ws.mu, ws.pm, ws.obs)
		fc.Solve(ws.mu)
		ldQc = fc.LogDet()
	}
	if runS2 {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			qpPipeline()
		}()
		qcPipeline()
		wg.Wait()
	} else {
		qpPipeline()
		qcPipeline()
	}
	if qpErr != nil {
		return FobjParts{}, qpErr
	}
	if qcErr != nil {
		return FobjParts{}, qcErr
	}

	parts.LogDetQp = ldQp
	parts.LogDetQc = ldQc
	parts.Mu = ws.mu
	parts.LatentDim = len(ws.mu)
	// μᵀ·Q_p·μ via the block structure.
	ws.qp.MulVec(ws.mu, ws.tmp)
	parts.QuadQp = dense.Dot(ws.mu, ws.tmp)
	parts.LogLik = m.LogLik(t, ws.mu)
	return parts, nil
}

// Evaluator evaluates −fobj at a batch of hyperparameter points; its
// implementations define where the work runs (goroutines here, the comm
// simulator in dist.go, the general sparse solver in package baselines).
// Infeasible points (non-SPD precision) evaluate to +Inf.
type Evaluator interface {
	EvalBatch(points [][]float64) []float64
	// Posterior computes the conditional mean and latent marginal variances
	// at theta (selected inversion of Q_c).
	Posterior(theta []float64) (mu, variance []float64, err error)
}

// BTAEvaluator runs fobj on the structured BTA solvers with goroutine
// parallelism across points (S1), across the two pipelines (S2), and —
// when the batch is too narrow to fill the cores — across parallel-in-time
// partitions inside each factorization (S3, bta.ParallelFactor), following
// the per-batch SharedPlan. Every worker draws a solverScratch arena from
// an internal pool, so steady-state batches re-use precision workspaces,
// factors and vectors instead of re-allocating them at each of the
// 2·dim(θ)+1 evaluations per iteration.
type BTAEvaluator struct {
	Model *model.Model
	Prior Prior
	// Workers is the core budget the batch plan distributes across the
	// layers (and the bound on concurrent point evaluations); 0 = GOMAXPROCS.
	Workers int
	// S2 toggles the concurrent Q_p/Q_c pipelines.
	S2 bool
	// Partitions pins the parallel-in-time width: 0 schedules it per batch
	// (PlanBatch: wide batches sequential, narrow batches partitioned),
	// 1 forces the sequential factorization chain, ≥ 2 forces that width.
	Partitions int
	// Recursion pins the reduced-system nesting depth: 0 follows the batch
	// plan (one level once the gang is wide enough), -1 forces the
	// sequential reduced solve, ≥ 1 forces that depth.
	Recursion int
	// ReducedCrossover overrides the smallest reduced block count worth
	// recursing on (0 = bta.DefaultReducedCrossover) — the threshold knob
	// of the reduced-system engine.
	ReducedCrossover int
	// NoPipeline forces the eager (non-streamed) reduced assembly even
	// where the batch plan would pipeline the boundary handoff.
	NoPipeline bool
	// Precision selects the per-stage factorization precision policy:
	// bta.PrecMixed runs interior elimination sweeps in fp32 with the
	// reduced system, log-dets and non-SPD recovery in fp64, and fp64
	// iterative refinement on the conditional-mean solves. The zero value
	// keeps pure fp64 everywhere.
	Precision bta.Precision
	// MaxRefine bounds the fp64 refinement iterations per mixed-precision
	// solve (0 = bta.DefaultMaxRefine).
	MaxRefine int
	// Exec overrides the task executor batches and solvers run on
	// (nil = sched.Shared()). Tests use private executors so shutdown/leak
	// behaviour can be asserted in isolation.
	Exec *sched.Executor

	scratch sync.Pool // *solverScratch, shape-bound to Model

	// Quarantine bookkeeping: failed θ evaluations (infeasible points,
	// non-SPD beyond the solver's recovery, escaped panics) are absorbed as
	// +Inf and recorded here instead of crashing the fit.
	failures    atomic.Int64
	evalErrMu   sync.Mutex
	lastEvalErr *EvalError
}

// EvalError is one quarantined θ evaluation failure: the point, the retry
// attempt it occurred on (0 for a first evaluation), and the underlying
// cause. BFGS absorbs quarantined evaluations as +Inf objective values and
// recovers with step-backoff (OptOptions.MaxEvalRetries/RetryBackoff).
type EvalError struct {
	Theta   []float64
	Attempt int
	Err     error
}

func (e *EvalError) Error() string {
	return fmt.Sprintf("inla: evaluation at θ=%v quarantined (attempt %d): %v", e.Theta, e.Attempt, e.Err)
}

func (e *EvalError) Unwrap() error { return e.Err }

// quarantine records one failed evaluation.
func (e *BTAEvaluator) quarantine(theta []float64, err error) {
	ee := &EvalError{Theta: append([]float64(nil), theta...), Err: err}
	e.failures.Add(1)
	e.evalErrMu.Lock()
	e.lastEvalErr = ee
	e.evalErrMu.Unlock()
}

// EvalFailures returns how many evaluations have been quarantined.
func (e *BTAEvaluator) EvalFailures() int64 { return e.failures.Load() }

// LastEvalError returns the most recently quarantined evaluation (nil when
// every evaluation so far succeeded).
func (e *BTAEvaluator) LastEvalError() *EvalError {
	e.evalErrMu.Lock()
	defer e.evalErrMu.Unlock()
	return e.lastEvalErr
}

func (e *BTAEvaluator) getScratch() *solverScratch {
	if ws, ok := e.scratch.Get().(*solverScratch); ok {
		return ws
	}
	return newSolverScratch(e.Model)
}

// cores resolves the evaluator's core budget.
func (e *BTAEvaluator) cores() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// planFor resolves the batch plan for the given width with the evaluator's
// pinned knobs applied (Partitions/Recursion/ReducedCrossover/NoPipeline).
// s2 tells the plan whether the evaluation actually runs two concurrent
// pipelines (Posterior runs only the Q_c one, so its full spare budget
// flows into that single factorization).
func (e *BTAEvaluator) planFor(width int, s2 bool) SharedPlan {
	plan := PlanBatch(width, e.cores(), e.Model.Dims.Nt, s2)
	if e.Partitions > 0 {
		plan.Partitions = e.Partitions
		plan.applyReducedDefaults() // re-derive for the pinned width
	}
	if e.Recursion > 0 {
		plan.Recursion = e.Recursion
	} else if e.Recursion < 0 {
		plan.Recursion = 0
	}
	if e.NoPipeline {
		plan.PipelineReduced = false
	}
	plan.Precision = e.Precision
	return plan
}

// specFor is planFor reduced to the factorization spec.
func (e *BTAEvaluator) specFor(width int, s2 bool) solverSpec {
	spec := specOf(e.planFor(width, s2))
	spec.crossover = e.ReducedCrossover
	spec.maxRefine = e.MaxRefine
	spec.exec = e.Exec
	return spec
}

// executor resolves the task executor the evaluator's batches run on.
func (e *BTAEvaluator) executor() *sched.Executor {
	if e.Exec != nil {
		return e.Exec
	}
	return sched.Shared()
}

// StencilPlan reports how a batch of the given width would spend the
// evaluator's core budget (the StencilPlanner hook of HessianAtMode): the
// per-batch SharedPlan, with the pinned knobs taking precedence exactly as
// they do inside EvalBatch.
func (e *BTAEvaluator) StencilPlan(width int) SharedPlan {
	return e.planFor(width, e.S2)
}

// EvalBatch evaluates −fobj at every point, +Inf for infeasible ones. The
// batch runs at a bound of min(width, core budget) concurrent point
// evaluations pulling points off a shared counter (dynamic load balance:
// line-search-adjacent batches mix cheap and infeasible points), and
// narrow batches route their spare cores into parallel-in-time
// factorization partitions per the batch plan. The point bodies are heavy
// tasks on the shared work-stealing executor — warm workers reused across
// gradient/Hessian/line-search batches, and tasks from concurrently running
// batches interleaved on the same cores.
func (e *BTAEvaluator) EvalBatch(points [][]float64) []float64 {
	out := make([]float64, len(points))
	w := e.cores()
	if w > len(points) {
		w = len(points)
	}
	spec := e.specFor(len(points), e.S2)
	body := func(i int) {
		ws := e.getScratch()
		var parts FobjParts
		var err error
		panicked := true
		func() {
			defer func() {
				if r := recover(); r != nil {
					// A solver abort must cost one point, not the process;
					// the poisoned scratch is dropped, not pooled.
					err = fmt.Errorf("inla: evaluation panicked: %v", r)
				}
			}()
			parts, err = evalFobjScratch(e.Model, e.Prior, points[i], e.S2, spec, ws)
			panicked = false
		}()
		if err != nil {
			e.quarantine(points[i], err)
			out[i] = math.Inf(1)
		} else {
			out[i] = -parts.F()
		}
		if !panicked {
			e.scratch.Put(ws) // parts.Mu is dead past this point
		}
	}
	e.runOnExecutor(len(points), w, body)
	return out
}

// runOnExecutor executes body(i) for i in [0, n) as at most `workers`
// concurrent runners: workers−1 heavy tasks submitted to the executor's
// injector plus the calling goroutine, all pulling indices from a shared
// atomic counter. The caller finishes by help-joining (WaitHeavy), so the
// batch completes even when every executor worker is busy in another
// evaluation — and those workers, when free, pick these runners up without
// a single goroutine spawn.
func (e *BTAEvaluator) runOnExecutor(n, workers int, body func(i int)) {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	runner := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				pprof.SetGoroutineLabels(context.Background())
				return
			}
			pprof.SetGoroutineLabels(evalLabels.Get(i))
			body(i)
		}
	}
	if workers == 1 {
		runner()
		return
	}
	ex := e.executor()
	var g sched.Group
	g.Init(ex)
	g.Add(workers - 1)
	tasks := make([]sched.Task, workers-1)
	for k := range tasks {
		tasks[k].Reset(ex, &g, runner, nil)
		ex.Submit(&tasks[k])
	}
	runner()
	g.WaitHeavy(nil)
}

// Posterior computes μ(θ) and the latent marginal variances via selected
// inversion at the width-1 plan — the spare cores run inside the single
// factorization and the PPOBTASI sweeps. Poisson models center the
// Gaussian approximation at the conditional mode.
func (e *BTAEvaluator) Posterior(theta []float64) ([]float64, []float64, error) {
	if e.Model.Lik == model.LikPoisson {
		return posteriorPoisson(e.Model, theta)
	}
	t, err := e.Model.DecodeTheta(theta)
	if err != nil {
		return nil, nil, err
	}
	ws := e.getScratch()
	defer e.scratch.Put(ws)
	// Posterior runs the Q_c pipeline alone: no S2 split, so the whole
	// width-1 spare budget goes into this one factorization.
	fc, err := ws.condSolver(e.Model, e.specFor(1, false))
	if err != nil {
		return nil, nil, err
	}
	if err := e.Model.QcInto(t, ws.qc); err != nil {
		return nil, nil, err
	}
	if err := fc.Refactorize(ws.qc); err != nil {
		return nil, nil, err
	}
	e.Model.CondRHSInto(t, ws.mu, ws.pm, ws.obs)
	fc.Solve(ws.mu)
	if ws.sigC == nil {
		n, b, a := e.Model.Dims.BTAShape()
		ws.sigC = bta.NewMatrix(n, b, a)
	}
	if err := fc.SelectedInversionInto(ws.sigC); err != nil {
		return nil, nil, err
	}
	mu := append([]float64(nil), ws.mu...) // detach from the pooled arena
	return mu, ws.sigC.DiagVec(), nil
}
