package predict

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/inla"
	"github.com/dalia-hpc/dalia/internal/mesh"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// fitted caches one small fitted bivariate model for the whole test file
// (fitting dominates test time; every invariant shares the same fit).
type fitted struct {
	ds  *synth.Dataset
	res *inla.Result
	pr  *Snapshot
}

var (
	fitOnce sync.Once
	fitVal  fitted
	fitErr  error
)

func getFitted(t *testing.T) fitted {
	t.Helper()
	fitOnce.Do(func() {
		ds, err := synth.Generate(synth.GenConfig{
			Nv: 2, Nt: 4, Nr: 2,
			MeshNx: 4, MeshNy: 4,
			ObsPerStep: 25,
			Seed:       11,
		})
		if err != nil {
			fitErr = err
			return
		}
		prior := inla.WeakPrior(ds.Theta0, 5)
		opts := inla.DefaultFitOptions()
		opts.Opt.MaxIter = 10
		opts.SkipHyperUncertainty = true
		res, err := inla.Fit(ds.Model, prior, ds.Theta0, opts)
		if err != nil {
			fitErr = err
			return
		}
		pr, err := NewSnapshot(ds.Model, res)
		if err != nil {
			fitErr = err
			return
		}
		fitVal = fitted{ds: ds, res: res, pr: pr}
	})
	if fitErr != nil {
		t.Fatal(fitErr)
	}
	return fitVal
}

// randomQueries draws in-domain queries across times, responses and
// covariate values.
func randomQueries(rng *rand.Rand, f fitted, n int) []Query {
	d := f.ds.Model.Dims
	qs := make([]Query, n)
	for i := range qs {
		cov := make([]float64, d.Nr)
		cov[0] = 1
		for r := 1; r < d.Nr; r++ {
			cov[r] = rng.NormFloat64()
		}
		qs[i] = Query{
			Point:      mesh.Point{X: rng.Float64() * 300, Y: rng.Float64() * 300},
			T:          rng.Intn(d.Nt),
			Response:   rng.Intn(d.Nv),
			Covariates: cov,
		}
	}
	return qs
}

// Predictive variances are nonnegative everywhere, and adding observation
// noise strictly increases them.
func TestPredictiveVarianceNonnegative(t *testing.T) {
	f := getFitted(t)
	rng := rand.New(rand.NewSource(1))
	qs := randomQueries(rng, f, 150)
	_, vars, err := f.pr.Predict(qs)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := NewSnapshot(f.ds.Model, f.res, WithObservationNoise())
	if err != nil {
		t.Fatal(err)
	}
	_, nvars, err := noisy.Predict(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vars {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("query %d: predictive variance %v", i, v)
		}
		if nvars[i] <= v {
			t.Fatalf("query %d: noise did not increase variance (%v vs %v)", i, nvars[i], v)
		}
	}
}

// A query exactly at an observed mesh node with zero covariates must
// reproduce the latent marginal the fit already computed, scaled through
// the coregionalization (for response 0, the single factor Λ[0,0]).
func TestObservedNodeReproducesLatentMarginal(t *testing.T) {
	f := getFitted(t)
	d := f.ds.Model.Dims
	msh := f.ds.Model.Builder.Mesh
	lc := f.pr.Theta().Lambda.CoregView()
	s := lc.At(0, 0)
	for _, node := range []int{0, 5, d.Ns - 1} {
		for _, tm := range []int{0, d.Nt - 1} {
			q := Query{Point: msh.Nodes[node], T: tm, Response: 0}
			means, vars, err := f.pr.Predict([]Query{q})
			if err != nil {
				t.Fatal(err)
			}
			idx := f.ds.Model.BTAIndex(tm*d.Ns + node)
			wantMean, wantSD := f.res.LatentMarginal(idx)
			if math.Abs(means[0]-s*wantMean) > 1e-10*(1+math.Abs(s*wantMean)) {
				t.Errorf("node %d t %d: mean %v, latent marginal gives %v", node, tm, means[0], s*wantMean)
			}
			wantVar := s * s * wantSD * wantSD
			if math.Abs(vars[0]-wantVar) > 1e-8*(1+wantVar) {
				t.Errorf("node %d t %d: var %v, latent marginal gives %v", node, tm, vars[0], wantVar)
			}
		}
	}
}

// Predictive means must agree with the existing independent downscaling
// path (model.PredictMean applied to the posterior mean).
func TestMeansMatchModelPredictMean(t *testing.T) {
	f := getFitted(t)
	rng := rand.New(rand.NewSource(2))
	qs := randomQueries(rng, f, 40)
	means, _, err := f.pr.Predict(qs)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]mesh.Point, len(qs))
	tidx := make([]int, len(qs))
	cov := dense.New(len(qs), f.ds.Model.Dims.Nr)
	for i, q := range qs {
		pts[i] = q.Point
		tidx[i] = q.T
		for r, v := range q.Covariates {
			cov.Set(i, r, v)
		}
	}
	ref, err := f.ds.Model.PredictMean(f.pr.Theta(), f.res.Mu, pts, tidx, cov)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if math.Abs(means[i]-ref[q.Response][i]) > 1e-10*(1+math.Abs(ref[q.Response][i])) {
			t.Errorf("query %d: mean %v, PredictMean %v", i, means[i], ref[q.Response][i])
		}
	}
}

// Predictive variances must match a direct dense reference: Σ = Q_c⁻¹
// computed by dense inversion, variance = φᵀΣφ with φ recovered from the
// solver path itself being cross-checked through the mean tests above.
func TestVariancesMatchDenseReference(t *testing.T) {
	f := getFitted(t)
	rng := rand.New(rand.NewSource(3))
	qs := randomQueries(rng, f, 12)
	means, vars, err := f.pr.Predict(qs)
	if err != nil {
		t.Fatal(err)
	}
	qc, err := f.ds.Model.Qc(f.pr.Theta())
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := dense.Inverse(qc.ToDense())
	if err != nil {
		t.Fatal(err)
	}
	d := f.ds.Model.Dims
	lc := f.pr.Theta().Lambda.CoregView()
	msh := f.ds.Model.Builder.Mesh
	per := d.PerProcess()
	dim := d.Total()
	for i, q := range qs {
		// Independent φ assembly in BTA coordinates.
		phi := make([]float64, dim)
		ti, bc, err := msh.Locate(q.Point)
		if err != nil {
			t.Fatal(err)
		}
		tri := msh.Tri[ti]
		for j := 0; j <= q.Response; j++ {
			fw := lc.At(q.Response, j)
			for v := 0; v < 3; v++ {
				phi[f.ds.Model.BTAIndex(j*per+q.T*d.Ns+tri[v])] += fw * bc[v]
			}
			for r := 0; r < d.Nr; r++ {
				phi[f.ds.Model.BTAIndex(j*per+d.Ns*d.Nt+r)] += fw * q.Covariates[r]
			}
		}
		var wantVar, wantMean float64
		for a := 0; a < dim; a++ {
			wantMean += phi[a] * f.res.Mu[a]
			row := sigma.Row(a)
			for b := 0; b < dim; b++ {
				wantVar += phi[a] * row[b] * phi[b]
			}
		}
		if math.Abs(vars[i]-wantVar) > 1e-8*(1+wantVar) {
			t.Errorf("query %d: var %v, dense reference %v", i, vars[i], wantVar)
		}
		if math.Abs(means[i]-wantMean) > 1e-8*(1+math.Abs(wantMean)) {
			t.Errorf("query %d: mean %v, dense reference %v", i, means[i], wantMean)
		}
	}
}

// The batched prediction path performs zero heap allocations after the
// pooled scratch warms up.
func TestPredictIntoAllocs(t *testing.T) {
	if dense.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Put items; zero-alloc assertion only holds without -race")
	}
	f := getFitted(t)
	rng := rand.New(rand.NewSource(4))
	qs := randomQueries(rng, f, f.pr.MaxBatch())
	means := make([]float64, len(qs))
	vars := make([]float64, len(qs))
	// Warm the pool.
	if err := f.pr.PredictInto(qs, means, vars); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := f.pr.PredictInto(qs, means, vars); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("PredictInto allocates %.1f objects per run, want 0", allocs)
	}
	// Partial batches go through narrowed (memoized) workspaces and stay
	// allocation-free too once their width has been seen.
	part := qs[:5]
	if err := f.pr.PredictInto(part, means[:5], vars[:5]); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(10, func() {
		if err := f.pr.PredictInto(part, means[:5], vars[:5]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("partial-batch PredictInto allocates %.1f objects per run, want 0", allocs)
	}
}

// Chunking across several batches gives identical answers to one query at
// a time.
func TestBatchChunkingConsistent(t *testing.T) {
	f := getFitted(t)
	rng := rand.New(rand.NewSource(5))
	qs := randomQueries(rng, f, 2*f.pr.MaxBatch()+7)
	means, vars, err := f.pr.Predict(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		m1, v1, err := f.pr.Predict([]Query{q})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m1[0]-means[i]) > 1e-12*(1+math.Abs(means[i])) || math.Abs(v1[0]-vars[i]) > 1e-12*(1+vars[i]) {
			t.Fatalf("query %d: batched (%v,%v) vs single (%v,%v)", i, means[i], vars[i], m1[0], v1[0])
		}
	}
}

// Invalid queries are rejected with errors, not panics.
func TestQueryValidation(t *testing.T) {
	f := getFitted(t)
	d := f.ds.Model.Dims
	bad := []Query{
		{Point: mesh.Point{X: 1, Y: 1}, T: -1, Response: 0},
		{Point: mesh.Point{X: 1, Y: 1}, T: d.Nt, Response: 0},
		{Point: mesh.Point{X: 1, Y: 1}, T: 0, Response: d.Nv},
		{Point: mesh.Point{X: 1, Y: 1}, T: 0, Response: -1},
		{Point: mesh.Point{X: 1, Y: 1}, T: 0, Response: 0, Covariates: []float64{1}},
	}
	for i, q := range bad {
		if _, _, err := f.pr.Predict([]Query{q}); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
}
