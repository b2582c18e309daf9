package inla

import (
	"fmt"
	"math"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/model"
)

// ModeFactor assembles and factorizes the conditional precision Q_c(θ) —
// typically at the fitted mode θ* of a Result — and returns the decoded
// configuration alongside the factor. This is the entry point the
// prediction layer uses to turn a finished fit back into a solver: the
// factor supports Solve/SolveMultiInto/SelectedInversion for arbitrary
// downstream right-hand sides (cross-projections at unobserved locations,
// posterior samples) without re-running any INLA stage.
//
// The returned factor is freshly allocated and exclusively owned by the
// caller, so long-lived services can hold it for the lifetime of a
// registered model while the evaluator pools keep recycling their own.
func ModeFactor(m *model.Model, theta []float64) (*model.Theta, *bta.Factor, error) {
	t, err := m.DecodeTheta(theta)
	if err != nil {
		return nil, nil, err
	}
	n, b, a := m.Dims.BTAShape()
	qc := bta.NewMatrix(n, b, a)
	if err := m.QcInto(t, qc); err != nil {
		return nil, nil, err
	}
	s := bta.NewFactor(n, b, a)
	if err := s.Refactorize(qc); err != nil {
		return nil, nil, fmt.Errorf("inla: Q_c factorization at the mode: %w", err)
	}
	return t, s, nil
}

// LatentMarginal returns the posterior marginal (mean, sd) of latent
// coordinate i in the BTA ordering, reusing the mean and selected-inversion
// diagonal the fit already computed — no solve is performed. Predictions at
// observed mesh nodes reduce to exactly these numbers (scaled through the
// coregionalization), which the prediction tests exploit as an invariant.
func (r *Result) LatentMarginal(i int) (mean, sd float64) {
	return r.Mu[i], math.Sqrt(r.LatentVar[i])
}
