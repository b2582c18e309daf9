package inla

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/model"
)

// FitOptions configures a full INLA fit.
type FitOptions struct {
	Opt OptOptions
	// HessStep is the finite-difference step of the mode Hessian.
	HessStep float64
	// SkipHyperUncertainty disables the Hessian stage (scaling benches).
	SkipHyperUncertainty bool
	// Workers is the core budget the per-batch scheduling plan distributes
	// across point-level parallelism and parallel-in-time factorization
	// partitions; 0 = GOMAXPROCS.
	Workers int
	// DisableS2 turns off the concurrent Q_p/Q_c pipelines.
	DisableS2 bool
	// SolverPartitions pins the parallel-in-time solver width: 0 schedules
	// it per batch (wide gradient/Hessian batches stay on point-level
	// parallelism, narrow line-search and posterior evaluations spend the
	// spare cores inside the factorization), 1 forces the sequential
	// solver everywhere, ≥ 2 forces that partition count.
	SolverPartitions int
	// SolverRecursion pins the reduced-system nesting depth of the
	// parallel-in-time factorizations: 0 follows the batch plan (one level
	// once the partition gang is wide enough), -1 forces the sequential
	// reduced solve, ≥ 1 forces that depth.
	SolverRecursion int
	// ReducedCrossover overrides the smallest reduced block count worth
	// recursing on (0 = bta.DefaultReducedCrossover).
	ReducedCrossover int
	// NoPipeline disables the pipelined boundary handoff of the reduced
	// assembly.
	NoPipeline bool
	// Precision selects the per-stage factorization precision policy:
	// bta.PrecMixed runs interior elimination sweeps in fp32 (twice the
	// AVX2 vector width) while the reduced boundary system, log-det
	// accumulation and non-SPD recovery stay fp64, with fp64 iterative
	// refinement restoring solve accuracy to fp64 level. The zero value
	// keeps pure fp64 everywhere.
	Precision bta.Precision
	// MaxRefine bounds the fp64 refinement iterations per mixed-precision
	// solve (0 = bta.DefaultMaxRefine).
	MaxRefine int
	// IntegrateHyperGrid additionally integrates the latent posterior over
	// the eigenvector grid of the mode Hessian (§III-4) instead of the
	// plug-in at θ* only; requires the Hessian stage.
	IntegrateHyperGrid bool
	// MaxEvalRetries / RetryBackoff override the mode search's
	// quarantined-evaluation retry policy (OptOptions.MaxEvalRetries /
	// OptOptions.RetryBackoff) when set (> 0); zero keeps whatever Opt
	// carries.
	MaxEvalRetries int
	RetryBackoff   float64
	// Ctx, when non-nil, propagates cancellation into the mode search: a
	// canceled context aborts the BFGS loop at the next iteration boundary
	// (a checkpoint boundary) and Fit returns ErrFitCanceled. The posterior
	// stages are skipped on an aborted search.
	Ctx context.Context
	// Checkpoint, when set, receives a deep-copied resumable snapshot of
	// the optimizer state every CheckpointEvery completed mode-search
	// iterations — the hook the persistence layer uses so a killed fit
	// resumes from the last BFGS iterate instead of θ₀.
	Checkpoint func(*OptCheckpoint) error
	// CheckpointEvery is the iteration stride of Checkpoint (≤ 0 = every
	// iteration).
	CheckpointEvery int
	// Resume restarts the mode search from a previously captured optimizer
	// checkpoint instead of theta0.
	Resume *OptCheckpoint
}

// DefaultFitOptions returns the standard configuration.
func DefaultFitOptions() FitOptions {
	return FitOptions{Opt: DefaultOptOptions(), HessStep: 5e-3}
}

// Result is the outcome of a full INLA fit: the hyperparameter mode and its
// Gaussian approximation, and the latent posterior (mean + marginal
// variances, BTA ordering).
type Result struct {
	Theta     []float64
	ThetaSD   []float64
	ThetaCov  *dense.Matrix
	Opt       *OptResult
	Mu        []float64
	LatentVar []float64
	// Integrated holds the grid-integrated latent posterior when
	// FitOptions.IntegrateHyperGrid was set and the Hessian stage succeeded.
	Integrated *IntegratedPosterior
}

// Fit runs the complete INLA procedure on the model: mode search (BFGS with
// parallel central differences), hyperparameter uncertainty (Hessian at the
// mode), and latent posterior extraction (conditional mean and selected
// inversion of Q_c at the mode).
func Fit(m *model.Model, prior Prior, theta0 []float64, opts FitOptions) (*Result, error) {
	e := &BTAEvaluator{Model: m, Prior: prior, Workers: opts.Workers,
		S2: !opts.DisableS2, Partitions: opts.SolverPartitions,
		Recursion: opts.SolverRecursion, ReducedCrossover: opts.ReducedCrossover,
		NoPipeline: opts.NoPipeline, Precision: opts.Precision, MaxRefine: opts.MaxRefine}
	return fitWith(e, theta0, opts)
}

// fitWith runs the INLA stages on any Evaluator backend.
func fitWith(e Evaluator, theta0 []float64, opts FitOptions) (*Result, error) {
	if opts.MaxEvalRetries > 0 {
		opts.Opt.MaxEvalRetries = opts.MaxEvalRetries
	}
	if opts.RetryBackoff > 0 {
		opts.Opt.RetryBackoff = opts.RetryBackoff
	}
	if opts.Ctx != nil {
		opts.Opt.Ctx = opts.Ctx
	}
	if opts.Checkpoint != nil {
		opts.Opt.Checkpoint = opts.Checkpoint
		opts.Opt.CheckpointEvery = opts.CheckpointEvery
	}
	if opts.Resume != nil {
		opts.Opt.Resume = opts.Resume
	}
	opt, err := Minimize(e, theta0, opts.Opt)
	if err != nil && opt == nil {
		return nil, err
	}
	if errors.Is(err, ErrFitCanceled) {
		// An aborted search has no business running the posterior stages;
		// the caller holds the resumable checkpoint.
		return nil, err
	}
	// A failed line search still yields a usable (if premature) mode.
	res := &Result{Theta: opt.Theta, Opt: opt}

	if !opts.SkipHyperUncertainty {
		h := opts.HessStep
		if h == 0 {
			h = 5e-3
		}
		hess, herr := HessianAtMode(e, opt.Theta, h)
		if herr == nil {
			if opts.IntegrateHyperGrid {
				if ip, ierr := IntegrateHyper(e, opt.Theta, hess, 1); ierr == nil {
					res.Integrated = ip
				}
			}
			if cov, cerr := dense.Inverse(hess); cerr == nil {
				res.ThetaCov = cov
				res.ThetaSD = make([]float64, len(opt.Theta))
				ok := true
				for i := range res.ThetaSD {
					v := cov.At(i, i)
					if v <= 0 {
						ok = false
						break
					}
					res.ThetaSD[i] = math.Sqrt(v)
				}
				if !ok {
					res.ThetaSD = nil
					res.ThetaCov = nil
				}
			}
		}
	}

	mu, va, perr := e.Posterior(opt.Theta)
	if perr != nil {
		return nil, fmt.Errorf("inla: posterior extraction at the mode: %w", perr)
	}
	res.Mu = mu
	res.LatentVar = va
	return res, nil
}

// FixedEffect summarizes one fixed effect's Gaussian posterior.
type FixedEffect struct {
	Process int
	Index   int
	Mean    float64
	SD      float64
	Q025    float64
	Q975    float64
}

// FixedEffects extracts the fixed-effect posteriors from the latent result
// (they live in the BTA arrow tip, ordered process-major).
func FixedEffects(m *model.Model, r *Result) []FixedEffect {
	d := m.Dims
	base := d.Nv * d.Ns * d.Nt
	out := make([]FixedEffect, 0, d.Nv*d.Nr)
	const z = 1.959963984540054
	for v := 0; v < d.Nv; v++ {
		for k := 0; k < d.Nr; k++ {
			idx := base + v*d.Nr + k
			sd := math.Sqrt(r.LatentVar[idx])
			out = append(out, FixedEffect{
				Process: v, Index: k,
				Mean: r.Mu[idx], SD: sd,
				Q025: r.Mu[idx] - z*sd, Q975: r.Mu[idx] + z*sd,
			})
		}
	}
	return out
}
