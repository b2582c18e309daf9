// Package predict turns a finished INLA fit into a reusable posterior
// prediction engine: given the fitted hyperparameter mode, the factorized
// conditional precision Q_c at that mode, and the latent posterior mean, it
// computes posterior predictive means and variances of any response at
// arbitrary new space-time locations — the downscaling/serving operation
// the paper's fitted models exist to provide.
//
// For a query (point p, time t, response k, covariates c) the linear
// predictor is η = φᵀx with the sparse cross-projection row
//
//	φ = Σ_j Λ[k,j]·( Σ_v w_v·e_{j,t,node_v} + Σ_r c_r·e_{j,fixed_r} )
//
// where w are the barycentric basis weights of p in the SPDE mesh. Under
// the Gaussian posterior x ~ N(μ, Q_c⁻¹), the predictive law is
//
//	η ~ N(φᵀμ, φᵀ·Q_c⁻¹·φ),  φᵀQ_c⁻¹φ = ‖L⁻¹φ‖².
//
// Queries are batched: a whole batch of φ columns is half-solved through
// the mode factor in one BLAS-3 multi-RHS sweep (bta.MultiSolve), and every
// per-batch buffer comes from a pooled scratch arena, so the steady-state
// prediction path performs zero heap allocations — the same fixed-memory
// discipline the INLA mode search established for fitting.
//
// The engine is the Snapshot: an immutable predictor over the sequential
// factor whose read path takes no lock at all. N readers query one Snapshot
// concurrently with per-goroutine pooled scratch, and a Handle swaps
// refitted Snapshots in atomically without blocking in-flight reads.
package predict

import (
	"fmt"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/mesh"
)

// Query asks for the posterior predictive law of one response at one
// space-time location.
type Query struct {
	Point mesh.Point
	// T is the time index in [0, nt).
	T int
	// Response selects the response process k in [0, nv).
	Response int
	// Covariates holds the nr fixed-effect covariate values at the query
	// location (e.g. intercept, elevation). nil means all-zero covariates,
	// i.e. the spatio-temporal field contribution alone.
	Covariates []float64
}

// config collects the option state of Snapshot construction.
type config struct {
	maxBatch     int
	includeNoise bool
}

// Option customizes a Snapshot.
type Option func(*config)

// WithMaxBatch sets the number of queries coalesced into one multi-RHS
// solve (default 64). Larger batches amortize the triangular sweeps better;
// the scratch arena grows linearly with it.
func WithMaxBatch(k int) Option { return func(c *config) { c.maxBatch = k } }

// WithObservationNoise adds the Gaussian observation noise 1/τ_k to every
// predictive variance, turning the latent-predictor law into the posterior
// predictive law of a new observation.
func WithObservationNoise() Option { return func(c *config) { c.includeNoise = true } }

// batchScratch is one worker's arena: the multi-RHS workspace whose columns
// hold the φ rows and, after the half solve, L⁻¹φ.
type batchScratch struct {
	ms *bta.MultiSolve
}

// fillBatch zeroes the narrowed workspace, assembles one φ column per query
// and accumulates the predictive means against μ during the fill.
func (s *Snapshot) fillBatch(ms *bta.MultiSolve, qs []Query, means []float64) error {
	d := s.m.Dims
	lc := s.theta.Lambda.CoregView()
	msh := s.m.Builder.Mesh
	per := d.PerProcess()
	rhs := ms.RHS
	rhs.Zero()

	for col, q := range qs {
		if q.T < 0 || q.T >= d.Nt {
			return fmt.Errorf("predict: query %d: time index %d outside [0,%d)", col, q.T, d.Nt)
		}
		if q.Response < 0 || q.Response >= d.Nv {
			return fmt.Errorf("predict: query %d: response %d outside [0,%d)", col, q.Response, d.Nv)
		}
		if q.Covariates != nil && len(q.Covariates) != d.Nr {
			return fmt.Errorf("predict: query %d: %d covariates, want %d", col, len(q.Covariates), d.Nr)
		}
		ti, bc, err := msh.Locate(q.Point)
		if err != nil {
			return fmt.Errorf("predict: query %d: %w", col, err)
		}
		tri := msh.Tri[ti]
		var mean float64
		for j := 0; j <= q.Response; j++ {
			f := lc.At(q.Response, j)
			if f == 0 {
				continue
			}
			base := j * per
			for v := 0; v < 3; v++ {
				if bc[v] == 0 {
					continue
				}
				idx := s.m.BTAIndex(base + q.T*d.Ns + tri[v])
				w := f * bc[v]
				rhs.Set(idx, col, rhs.At(idx, col)+w)
				mean += w * s.mu[idx]
			}
			for r := 0; r < d.Nr && q.Covariates != nil; r++ {
				c := q.Covariates[r]
				if c == 0 {
					continue
				}
				idx := s.m.BTAIndex(base + d.Ns*d.Nt + r)
				w := f * c
				rhs.Set(idx, col, rhs.At(idx, col)+w)
				mean += w * s.mu[idx]
			}
		}
		means[col] = mean
	}
	return nil
}

// readVariances reads predictive variances back as the half-solved columns'
// squared norms (nonnegative by construction), folding in observation noise
// when the snapshot is configured for it.
func (s *Snapshot) readVariances(ms *bta.MultiSolve, qs []Query, vars []float64) {
	for i := range qs {
		vars[i] = 0
	}
	rhs := ms.RHS
	dim := ms.Dim()
	for r := 0; r < dim; r++ {
		row := rhs.Row(r)
		for i := range qs {
			vars[i] += row[i] * row[i]
		}
	}
	if s.includeNoise {
		for i, q := range qs {
			vars[i] += 1 / s.theta.TauY[q.Response]
		}
	}
}
