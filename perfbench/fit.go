package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/inla"
	"github.com/dalia-hpc/dalia/internal/model"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// fitSpec is one fit workload: the dataset recipe and the fit recipe.
type fitSpec struct {
	gen     synth.GenConfig // Seed is set per dataset
	maxIter int             // BFGS iteration cap
	// recordedF is F* = −fobj(θ*) of the dataset with seed recordedSeed;
	// convergedF, when set, is F* of the same dataset's mode search run to
	// GradTol, checked by an extra untimed search.
	recordedSeed int64
	recordedF    float64
	convergedF   float64
}

// ap1Spec is the §VI air-pollution model: nv=3, ns=48, nt=8, nr=2, so the
// BTA shape is b=144, a=6 and dim θ=15. The mode search is capped at 8
// iterations, as in the application study.
var ap1Spec = fitSpec{gen: synth.AP1().Gen, maxIter: 8, recordedSeed: 106, recordedF: 2270.1146957026}

// chainSpec is a univariate long chain: nv=1, ns=30, nt=96, nr=1 (b=30,
// a=1, dim θ=4). Its mode search reaches GradTol after 10 to 14
// iterations depending on the dataset; the cap of 8 keeps the work per fit
// the same on every seed, so fit times compare across seeds.
var chainSpec = fitSpec{
	gen:     synth.GenConfig{Nv: 1, Nt: 96, Nr: 1, MeshNx: 6, MeshNy: 5, ObsPerStep: 20},
	maxIter: 8, recordedSeed: 7, recordedF: 2468.4051326385, convergedF: 2468.4049592089,
}

const (
	// setupRepeats is how often set-up is repeated to report its median.
	setupRepeats = 5
	// datasetStride separates the dataset seeds of one run, so runs with
	// nearby seeds share no dataset.
	datasetStride = 1_000_003
	// replayTol and fobjTol are the relative agreement required between
	// the replayed or independently evaluated objective and the fit's.
	replayTol = 1e-10
	fobjTol   = 1e-10
)

func fitAP1(cfg config) (*report, error)   { return runFit(ap1Spec, cfg) }
func fitChain(cfg config) (*report, error) { return runFit(chainSpec, cfg) }

// datasetSeed is the synth seed of the k-th dataset of a run.
func datasetSeed(seed int64, k int) int64 { return seed + int64(k)*datasetStride }

func (s fitSpec) dataset(seed int64) (*synth.Dataset, error) {
	g := s.gen
	g.Seed = seed
	return synth.Generate(g)
}

// prior is the fit workloads' prior: weak (sd 3) around the generating
// truth, as in the application study.
func prior(ds *synth.Dataset) inla.Prior {
	return inla.WeakPrior(ds.Model.EncodeTheta(ds.TrueTheta), 3)
}

func evaluator(ds *synth.Dataset) *inla.BTAEvaluator {
	return &inla.BTAEvaluator{Model: ds.Model, Prior: prior(ds), S2: true}
}

// hessianPoints is the size of HessianAtMode's stencil at dimension d.
func hessianPoints(d int) int { return 2*d*d + 1 }

// fitResult is one complete fit's outputs and wall time.
type fitResult struct {
	opt      *inla.OptResult
	thetaSD  []float64 // nil when the Hessian at the mode is not positive definite
	mu, vars []float64
	wall     time.Duration
}

func (r *fitResult) fevals() int { return r.opt.FEvals + hessianPoints(len(r.opt.Theta)) }

// fitOptions is the fit recipe: the program's defaults with the mode search
// capped at maxIter iterations.
func (s fitSpec) fitOptions() inla.FitOptions {
	opts := inla.DefaultFitOptions()
	opts.Opt.MaxIter = s.maxIter
	return opts
}

// fit runs one complete fit through the program's own inla.Fit.
func (s fitSpec) fit(ds *synth.Dataset) (*fitResult, error) {
	t0 := time.Now()
	res, err := inla.Fit(ds.Model, prior(ds), ds.Theta0, s.fitOptions())
	wall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	return &fitResult{opt: res.Opt, thetaSD: res.ThetaSD, mu: res.Mu, vars: res.LatentVar, wall: wall}, nil
}

// fitTraced runs the stages of inla.Fit on a wrapped evaluator, which
// inla.Fit cannot take, with one span per stage: the BFGS mode search, the
// Hessian at the mode and its inverse, then the latent marginals. Like
// inla.Fit it carries on from the mode a stalled line search returns, and
// drops the hyperparameter uncertainty when the Hessian fails.
func (s fitSpec) fitTraced(e inla.Evaluator, theta0 []float64, tr *tracer) (*fitResult, error) {
	opts := s.fitOptions()
	t0 := time.Now()
	root := tr.begin("fit")
	sp := tr.begin("inla.Minimize")
	or, err := inla.Minimize(e, theta0, opts.Opt)
	tr.end(sp)
	if or == nil {
		return nil, fmt.Errorf("mode search: %w", err)
	}
	r := &fitResult{opt: or}
	sp = tr.begin("inla.HessianAtMode")
	h, err := inla.HessianAtMode(e, or.Theta, opts.HessStep)
	tr.end(sp)
	if err == nil {
		sp = tr.begin("dense.Inverse")
		cov, err := dense.Inverse(h)
		tr.end(sp)
		if err == nil {
			r.thetaSD = make([]float64, len(or.Theta))
			for i := range r.thetaSD {
				if v := cov.At(i, i); v > 0 {
					r.thetaSD[i] = math.Sqrt(v)
				} else {
					r.thetaSD = nil
					break
				}
			}
		}
	}
	sp = tr.begin("inla.Posterior")
	r.mu, r.vars, err = e.Posterior(or.Theta)
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("latent marginals: %w", err)
	}
	r.wall = time.Since(t0)
	return r, nil
}

// check verifies one fit's outputs: F* against an independent sequential
// evaluation at θ*, against the recorded value on the recorded seed, finite
// hyperparameter sds, and finite positive latent marginal variances.
func (s fitSpec) check(ds *synth.Dataset, seed int64, r *fitResult) []string {
	var probs []string
	parts, err := inla.EvalFobj(ds.Model, prior(ds), r.opt.Theta, false)
	if err != nil {
		probs = append(probs, fmt.Sprintf("seed %d: EvalFobj at θ*: %v", seed, err))
	} else if e := relErr(-parts.F(), r.opt.F); e > fobjTol {
		probs = append(probs, fmt.Sprintf("seed %d: F*=%.10f but EvalFobj(θ*) gives %.10f (rel %.2g)", seed, r.opt.F, -parts.F(), e))
	}
	if seed == s.recordedSeed {
		if e := relErr(r.opt.F, s.recordedF); e > fobjTol {
			probs = append(probs, fmt.Sprintf("seed %d: F*=%.10f, recorded %.10f (rel %.2g)", seed, r.opt.F, s.recordedF, e))
		}
	}
	for _, v := range r.thetaSD {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			probs = append(probs, fmt.Sprintf("seed %d: non-finite hyperparameter sd", seed))
			break
		}
	}
	if len(r.vars) != ds.Model.Dims.Total() {
		probs = append(probs, fmt.Sprintf("seed %d: %d marginal variances, want %d", seed, len(r.vars), ds.Model.Dims.Total()))
	}
	for i, v := range r.vars {
		if !(v > 0) || math.IsInf(v, 0) {
			probs = append(probs, fmt.Sprintf("seed %d: latent marginal variance %d is %g", seed, i, v))
			break
		}
	}
	return probs
}

// checkConverged runs the mode search to GradTol and compares its F* with
// the recorded value.
func (s fitSpec) checkConverged(ds *synth.Dataset, seed int64) []string {
	or, err := inla.Minimize(evaluator(ds), ds.Theta0, inla.DefaultOptOptions())
	switch {
	case err != nil:
		return []string{fmt.Sprintf("seed %d: converged mode search: %v", seed, err)}
	case !or.Converged:
		return []string{fmt.Sprintf("seed %d: mode search stopped after %d iterations without reaching GradTol", seed, or.Iterations)}
	case relErr(or.F, s.convergedF) > fobjTol:
		return []string{fmt.Sprintf("seed %d: converged F*=%.10f, recorded %.10f", seed, or.F, s.convergedF)}
	}
	return nil
}

// runFit runs a fit workload. Set-up generates the first dataset several
// times. The untraced run then fits datasets one after another until the
// measuring time is used up; the traced run fits the first dataset once
// untraced and once traced, then replays every visited θ layer by layer.
func runFit(s fitSpec, cfg config) (*report, error) {
	rep := newReport()
	var gens []float64
	var ds0 *synth.Dataset
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		ds, err := s.dataset(datasetSeed(cfg.seed, 0))
		if err != nil {
			return nil, fmt.Errorf("dataset generation: %w", err)
		}
		gens = append(gens, time.Since(t0).Seconds())
		ds0 = ds
	}
	rep.e2e.set(mSetup, median(gens), "s")
	rep.layers.set("synth.generate_s", median(gens), "s")
	if cfg.trace {
		return rep, s.traced(cfg, ds0, rep)
	}

	// Another fit starts only if one more of the last fit's length still
	// ends within the measuring time, so every run fits the same number of
	// datasets on a given host.
	var lat, heaps []float64
	var fevals int
	var busy, last time.Duration
	start := time.Now()
	for k := 0; k == 0 || time.Since(start)+last <= cfg.seconds; k++ {
		seed := datasetSeed(cfg.seed, k)
		ds := ds0
		if k > 0 {
			var err error
			if ds, err = s.dataset(seed); err != nil {
				return nil, fmt.Errorf("dataset generation: %w", err)
			}
		}
		rep.attempted++
		heap := sampleHeap()
		r, err := s.fit(ds)
		heapMB := heap.medianMB()
		if err != nil {
			rep.failed++
			rep.fail("seed %d: fit: %v", seed, err)
			continue
		}
		heaps = append(heaps, heapMB)
		fmt.Printf("  fit seed=%d F*=%.10f iterations=%d evaluations=%d theta_sd=%v wall=%.3fs live_heap=%.1fMB\n",
			seed, r.opt.F, r.opt.Iterations, r.fevals(), r.thetaSD != nil, r.wall.Seconds(), heapMB)
		if probs := s.check(ds, seed, r); len(probs) > 0 {
			rep.failed++
			rep.problems = append(rep.problems, probs...)
		}
		lat = append(lat, ms(r.wall))
		fevals += r.fevals()
		busy += r.wall
		last = r.wall
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no fit completed: %v", rep.problems)
	}
	if datasetSeed(cfg.seed, 0) == s.recordedSeed && s.convergedF != 0 {
		rep.problems = append(rep.problems, s.checkConverged(ds0, s.recordedSeed)...)
	}
	rep.e2e.set(mP50, median(lat), "ms")
	rep.e2e.set(mThroughput, float64(fevals)/busy.Seconds(), "1/s")
	rep.e2e.set(mHeap, median(heaps), "MB")
	return rep, nil
}

// tracedEvaluator wraps the fit's evaluator: it records a span around every
// batch and keeps every visited θ with the value EvalBatch returned. It
// passes StencilPlan through, so the Hessian still splits its stencil the
// way it does untraced.
type tracedEvaluator struct {
	inner  *inla.BTAEvaluator
	tr     *tracer
	points [][]float64
	values []float64
}

func (t *tracedEvaluator) EvalBatch(points [][]float64) []float64 {
	sp := t.tr.begin("inla.EvalBatch")
	vals := t.inner.EvalBatch(points)
	t.tr.end(sp)
	for i, p := range points {
		t.points = append(t.points, append([]float64(nil), p...))
		t.values = append(t.values, vals[i])
	}
	return vals
}

func (t *tracedEvaluator) Posterior(theta []float64) ([]float64, []float64, error) {
	return t.inner.Posterior(theta)
}

func (t *tracedEvaluator) StencilPlan(width int) inla.SharedPlan { return t.inner.StencilPlan(width) }

// traced is the per-layer run of a fit workload.
func (s fitSpec) traced(cfg config, ds *synth.Dataset, rep *report) error {
	seed := datasetSeed(cfg.seed, 0)
	t0 := time.Now()

	// One gradient batch first, so neither timed fit pays the process's
	// warm-up (executor start, first scratch arenas) alone.
	warm := inla.DefaultOptOptions()
	warm.MaxIter = 0
	if _, err := inla.Minimize(evaluator(ds), ds.Theta0, warm); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	// Untraced and traced fits alternate until the measuring time is used
	// (one pair at least); the medians of each kind give the overhead. The
	// first traced fit is the one whose spans and visited θ are reported.
	var untracedS, tracedS []float64
	var te *tracedEvaluator
	var r *fitResult
	var fitSpans []span
	for start := time.Now(); len(tracedS) == 0 || time.Since(start) < cfg.seconds; {
		base, err := s.fit(ds)
		if err != nil {
			return fmt.Errorf("untraced fit: %w", err)
		}
		tr := newTracer(t0)
		tr.setOp("fit-%d", len(tracedS))
		e := &tracedEvaluator{inner: evaluator(ds), tr: tr}
		res, err := s.fitTraced(e, ds.Theta0, tr)
		if err != nil {
			return fmt.Errorf("traced fit: %w", err)
		}
		rep.attempted += 2
		for _, f := range []*fitResult{base, res} {
			if probs := s.check(ds, seed, f); len(probs) > 0 {
				rep.failed++
				rep.problems = append(rep.problems, probs...)
			}
		}
		if te == nil {
			te, r, fitSpans = e, res, tr.spans
		}
		untracedS = append(untracedS, base.wall.Seconds())
		tracedS = append(tracedS, res.wall.Seconds())
	}

	fst := aggregate(fitSpans)
	L := rep.layers
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	L.set("inla.mode_s", sec(fst.total["inla.Minimize"]), "s")
	L.set("inla.hessian_s", sec(fst.total["inla.HessianAtMode"]), "s")
	L.set("inla.marginals_s", sec(fst.total["inla.Posterior"]), "s")
	L.set("inla.evalbatch_s", sec(fst.total["inla.EvalBatch"]), "s")
	L.set("inla.optimizer_s", sec(fst.self["inla.Minimize"]), "s") // Minimize minus its EvalBatch time
	L.set("inla.fevals", float64(len(te.points)), "count")
	L.set("inla.bfgs_iters", float64(r.opt.Iterations), "count")
	L.set("inla.batch_width_mean", float64(len(te.points))/float64(fst.count["inla.EvalBatch"]), "points")
	L.set("inla.quarantined", float64(te.inner.EvalFailures()), "count")
	L.set("trace.fit_s", median(tracedS), "s")
	L.set("trace.untraced_fit_s", median(untracedS), "s")
	L.set("trace.overhead_pct", 100*(median(tracedS)-median(untracedS))/median(untracedS), "%")

	replaySpans, maxErr, mismatches := replay(ds.Model, prior(ds), te.points, te.values, t0)
	if len(mismatches) > 0 {
		rep.failed++ // the traced fit's evaluations do not replay
	}
	for _, m := range mismatches {
		rep.fail("seed %d: replay: %s", seed, m)
	}
	selSpans, err := replaySelinv(ds.Model, r.opt.Theta, t0)
	if err != nil {
		return err
	}
	rep.spans = mergeSpans(fitSpans, replaySpans, selSpans)
	layerRows(L, replaySpans, selSpans, maxErr, len(mismatches), ds.Model)
	_, b, _ := ds.Model.Dims.BTAShape()
	kernelRows(L, b)
	return nil
}

// replayScratch is one replay worker's storage.
type replayScratch struct {
	qp, qc            *bta.Matrix
	fp, fc            *bta.Factor
	mu, tmp, pm, obsv []float64
}

func newReplayScratch(m *model.Model) *replayScratch {
	n, b, a := m.Dims.BTAShape()
	tot := m.Dims.Total()
	return &replayScratch{
		qp: bta.NewMatrix(n, b, a), qc: bta.NewMatrix(n, b, a),
		fp: bta.NewFactor(n, b, a), fc: bta.NewFactor(n, b, a),
		mu: make([]float64, tot), tmp: make([]float64, tot), pm: make([]float64, tot),
		obsv: make([]float64, m.Obs.M()),
	}
}

// replayEval recomputes fobj(θ) through the public layer calls, one span
// per call, and returns F = fobj(θ).
func replayEval(m *model.Model, pr inla.Prior, theta []float64, ws *replayScratch, tr *tracer) (float64, error) {
	root := tr.begin("replay.eval")
	defer tr.end(root)
	call := func(name string, f func()) {
		sp := tr.begin(name)
		f()
		tr.end(sp)
	}
	var t *model.Theta
	var err error
	call("model.DecodeTheta", func() { t, err = m.DecodeTheta(theta) })
	if err != nil {
		return 0, err
	}
	var parts inla.FobjParts
	call("model.QpInto", func() { err = m.QpInto(t, ws.qp) })
	if err != nil {
		return 0, err
	}
	call("bta.Refactorize", func() { err = ws.fp.Refactorize(ws.qp) })
	if err != nil {
		return 0, err
	}
	call("bta.LogDet", func() { parts.LogDetQp = ws.fp.LogDet() })
	call("model.QcInto", func() { err = m.QcInto(t, ws.qc) })
	if err != nil {
		return 0, err
	}
	call("bta.Refactorize", func() { err = ws.fc.Refactorize(ws.qc) })
	if err != nil {
		return 0, err
	}
	call("model.CondRHSInto", func() { m.CondRHSInto(t, ws.mu, ws.pm, ws.obsv) })
	call("bta.Solve", func() { ws.fc.Solve(ws.mu) })
	call("bta.LogDet", func() { parts.LogDetQc = ws.fc.LogDet() })
	call("bta.MulVec", func() { ws.qp.MulVec(ws.mu, ws.tmp) })
	call("dense.Dot", func() { parts.QuadQp = dense.Dot(ws.mu, ws.tmp) })
	call("model.LogLik", func() { parts.LogLik = m.LogLik(t, ws.mu) })
	call("inla.Prior.LogDensity", func() { parts.LogPrior = pr.LogDensity(theta) })
	var f float64
	call("inla.FobjParts.F", func() { f = parts.F() })
	return f, nil
}

// replay re-evaluates every visited θ on GOMAXPROCS workers and compares
// each replayed objective with the value EvalBatch returned (−fobj, +Inf
// for a quarantined point). It returns the replay spans, the largest
// relative difference, and a description of every mismatch.
func replay(m *model.Model, pr inla.Prior, points [][]float64, values []float64, t0 time.Time) ([]span, float64, []string) {
	workers := min(runtime.GOMAXPROCS(0), len(points))
	got := make([]float64, len(points))
	errs := make([]error, len(points))
	tracers := make([]*tracer, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range tracers {
		tracers[w] = newTracer(t0)
		wg.Add(1)
		go func(tr *tracer) {
			defer wg.Done()
			ws := newReplayScratch(m)
			for {
				k := int(next.Add(1)) - 1
				if k >= len(points) {
					return
				}
				tr.setOp("eval-%d", k)
				got[k], errs[k] = replayEval(m, pr, points[k], ws, tr)
			}
		}(tracers[w])
	}
	wg.Wait()

	var maxErr float64
	var bad []string
	for k, v := range values {
		if math.IsInf(v, 1) {
			if errs[k] == nil {
				bad = append(bad, fmt.Sprintf("θ #%d was quarantined by EvalBatch but replays to %.10f", k, got[k]))
			}
			continue
		}
		if errs[k] != nil {
			bad = append(bad, fmt.Sprintf("θ #%d: %v", k, errs[k]))
			continue
		}
		e := relErr(-got[k], v)
		maxErr = math.Max(maxErr, e)
		if e > replayTol {
			bad = append(bad, fmt.Sprintf("θ #%d: replayed %.12g, EvalBatch %.12g (rel %.2g)", k, -got[k], v, e))
		}
	}
	lists := make([][]span, len(tracers))
	for i, tr := range tracers {
		lists[i] = tr.spans
	}
	return mergeSpans(lists...), maxErr, bad
}

// selinvRepeats is how often the selected inversion is timed.
const selinvRepeats = 3

// replaySelinv times the latent-marginal step at θ*: the selected inversion
// of the conditional precision's factor.
func replaySelinv(m *model.Model, theta []float64, t0 time.Time) ([]span, error) {
	ws := newReplayScratch(m)
	t, err := m.DecodeTheta(theta)
	if err != nil {
		return nil, err
	}
	if err := m.QcInto(t, ws.qc); err != nil {
		return nil, err
	}
	if err := ws.fc.Refactorize(ws.qc); err != nil {
		return nil, err
	}
	n, b, a := m.Dims.BTAShape()
	sig := bta.NewMatrix(n, b, a)
	tr := newTracer(t0)
	tr.setOp("marginals")
	root := tr.begin("replay.marginals")
	for i := 0; i < selinvRepeats; i++ {
		sp := tr.begin("bta.SelectedInversionInto")
		err = ws.fc.SelectedInversionInto(sig)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	tr.end(root)
	return tr.spans, nil
}

// layerRows turns the replay spans into per-layer rows: per-call times, the
// computed factorization flop rate, and each layer's share of the replayed
// evaluation time with the unattributed remainder.
func layerRows(L metricSet, replaySpans, selSpans []span, maxErr float64, nBad int, m *model.Model) {
	st := aggregate(replaySpans)
	evalNs := st.total["replay.eval"]
	evals := st.count["replay.eval"]
	perEvalMs := func(ns int64) float64 { return float64(ns) / float64(evals) / 1e6 }
	share := func(ns int64) float64 { return 100 * float64(ns) / float64(evalNs) }

	L.set("model.decode_ms", st.perCallMs("model.DecodeTheta"), "ms")
	L.set("model.qp_assembly_ms", st.perCallMs("model.QpInto"), "ms")
	L.set("model.qc_assembly_ms", st.perCallMs("model.QcInto"), "ms")
	L.set("model.cond_rhs_ms", st.perCallMs("model.CondRHSInto"), "ms")
	L.set("model.loglik_ms", st.perCallMs("model.LogLik"), "ms")
	L.set("model.share", share(st.layerSelf("model")), "%")
	L.set("bta.factor_ms", st.perCallMs("bta.Refactorize"), "ms")
	L.set("bta.solve_ms", st.perCallMs("bta.Solve"), "ms")
	L.set("bta.logdet_ms", st.perCallMs("bta.LogDet"), "ms")
	L.set("bta.mulvec_ms", st.perCallMs("bta.MulVec"), "ms")
	L.set("bta.selinv_ms", aggregate(selSpans).perCallMs("bta.SelectedInversionInto"), "ms")
	n, b, a := m.Dims.BTAShape()
	flops := btaFactorFlops(n, b, a)
	L.set("bta.factor_computed_flops", flops, "flop")
	L.set("bta.factor_gflops", flops/(st.perCallMs("bta.Refactorize")*1e6), "GFLOP/s")
	L.set("bta.share", share(st.layerSelf("bta")), "%")
	L.set("inla.fobj_share", share(st.layerSelf("inla")+st.layerSelf("dense")), "%")
	L.set("trace.replay_eval_ms", perEvalMs(evalNs), "ms")
	L.set("trace.unattributed_ms", perEvalMs(st.self["replay.eval"]), "ms")
	L.set("trace.unattributed_share", share(st.self["replay.eval"]), "%")
	L.set("trace.replay_evals", float64(evals), "count")
	L.set("trace.replay_mismatches", float64(nBad), "count")
	L.set("trace.replay_max_relerr", maxErr, "ratio")
}

// btaFactorFlops is the computed flop count of one sequential BTA
// factorization (POBTAF) with n diagonal blocks of size b and an arrow of
// size a: per block a POTRF (b³/3), the TRSMs of its lower and arrow
// couplings (b³, ab²) and the SYRK/GEMM Schur updates (b³, 2ab², a²b),
// then the tip's POTRF (a³/3).
func btaFactorFlops(n, b, a int) float64 {
	fn, fb, fa := float64(n), float64(b), float64(a)
	return fn*(fb*fb*fb/3+fa*fb*fb+fa*fa*fb) + (fn-1)*(2*fb*fb*fb+2*fa*fb*fb) + fa*fa*fa/3
}
