package predict

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/dalia-hpc/dalia/internal/bta"
	"github.com/dalia-hpc/dalia/internal/inla"
	"github.com/dalia-hpc/dalia/internal/model"
)

// Snapshot is an immutable, read-only posterior prediction engine: the
// factorization of Q_c at the fitted mode frozen into a value that any
// number of goroutines query concurrently with zero locking. A fitted
// factorization never changes, so the read path is lock-free by
// construction — the sequential BTA factor's triangular sweeps touch only
// caller-owned multi-RHS workspaces, and every reader draws its workspace
// from a per-goroutine pooled arena (zero heap allocations after warmup).
//
// Snapshots are what replicated serving wants: N worker replicas hammer one
// Snapshot's PredictInto concurrently, and a refit publishes a new Snapshot
// through a Handle swap without blocking in-flight readers (readers that
// loaded the old snapshot finish against it; its scratch drains to the
// garbage collector with no goroutines to wind down).
//
// Predictive variances are the squared norms of triangular half solves
// against the snapshot's own fp64 factorization of Q_c at the fitted θ.
type Snapshot struct {
	m     *model.Model
	theta *model.Theta
	mu    []float64   // latent posterior mean, BTA ordering
	fc    *bta.Factor // sequential factor: lock-free concurrent solves

	maxBatch     int
	includeNoise bool

	scratch sync.Pool // *batchScratch, per-goroutine via the pool's P-local caches
}

// NewSnapshot freezes a fitted result into an immutable read-only
// predictor: the mode θ* is re-decoded, Q_c(θ*) is assembled and factorized
// into the sequential (lock-free) factor (inla.ModeFactor), and the latent
// mean is copied out so the snapshot stays valid however the result is used
// afterwards.
func NewSnapshot(m *model.Model, res *inla.Result, opts ...Option) (*Snapshot, error) {
	c := config{maxBatch: 64}
	for _, o := range opts {
		o(&c)
	}
	if len(res.Mu) != m.Dims.Total() {
		return nil, fmt.Errorf("predict: latent mean length %d, want %d", len(res.Mu), m.Dims.Total())
	}
	if c.maxBatch < 1 {
		return nil, fmt.Errorf("predict: max batch %d < 1", c.maxBatch)
	}
	if c.includeNoise && m.Lik != model.LikGaussian {
		return nil, fmt.Errorf("predict: observation noise is only defined for Gaussian likelihoods")
	}
	t, fc, err := inla.ModeFactor(m, res.Theta)
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		m:            m,
		theta:        t,
		mu:           append([]float64(nil), res.Mu...),
		fc:           fc,
		maxBatch:     c.maxBatch,
		includeNoise: c.includeNoise,
	}, nil
}

// Theta returns the decoded hyperparameter configuration the snapshot is
// frozen at.
func (s *Snapshot) Theta() *model.Theta { return s.theta }

// MaxBatch returns the multi-RHS coalescing width.
func (s *Snapshot) MaxBatch() int { return s.maxBatch }

func (s *Snapshot) getScratch() *batchScratch {
	if ws, ok := s.scratch.Get().(*batchScratch); ok {
		return ws
	}
	n, b, a := s.m.Dims.BTAShape()
	return &batchScratch{ms: bta.NewMultiSolve(n, b, a, s.maxBatch)}
}

// Predict computes posterior predictive means and variances for the
// queries, allocating the result slices. See PredictInto for the
// allocation-free variant services use.
func (s *Snapshot) Predict(qs []Query) (means, vars []float64, err error) {
	means = make([]float64, len(qs))
	vars = make([]float64, len(qs))
	if err := s.PredictInto(qs, means, vars); err != nil {
		return nil, nil, err
	}
	return means, vars, nil
}

// PredictInto computes posterior predictive means and variances into the
// caller-provided slices (len(qs) each). The path acquires no lock: any
// number of goroutines may call it concurrently, each drawing pooled
// scratch, and after warmup it performs zero heap allocations.
func (s *Snapshot) PredictInto(qs []Query, means, vars []float64) error {
	if len(means) < len(qs) || len(vars) < len(qs) {
		return fmt.Errorf("predict: output length %d/%d for %d queries", len(means), len(vars), len(qs))
	}
	ws := s.getScratch()
	defer s.scratch.Put(ws)
	for lo := 0; lo < len(qs); lo += s.maxBatch {
		hi := lo + s.maxBatch
		if hi > len(qs) {
			hi = len(qs)
		}
		ms := ws.ms.Narrow(hi - lo)
		if err := s.fillBatch(ms, qs[lo:hi], means[lo:hi]); err != nil {
			return err
		}
		s.fc.ForwardSolveMultiInto(ms)
		s.readVariances(ms, qs[lo:hi], vars[lo:hi])
	}
	return nil
}

// Handle is an atomically swappable reference to the current Snapshot of a
// model: the publication point between refits (writers) and serving
// replicas (readers). Readers Load the current snapshot with one atomic
// pointer read and run entire batches against it; a refit Swaps the new
// snapshot in without blocking anyone — in-flight reads complete against
// the snapshot they loaded, and the old snapshot's pooled scratch simply
// drains to the garbage collector (there are no goroutines to stop).
type Handle struct {
	p atomic.Pointer[Snapshot]
}

// NewHandle publishes an initial snapshot.
func NewHandle(s *Snapshot) *Handle {
	h := &Handle{}
	h.p.Store(s)
	return h
}

// Load returns the currently published snapshot.
func (h *Handle) Load() *Snapshot { return h.p.Load() }

// Swap publishes a new snapshot and returns the previous one. In-flight
// readers keep the snapshot they already loaded; new reads see the
// replacement.
func (h *Handle) Swap(s *Snapshot) *Snapshot { return h.p.Swap(s) }

// Predict answers against the currently published snapshot, allocating the
// result slices.
func (h *Handle) Predict(qs []Query) (means, vars []float64, err error) {
	return h.Load().Predict(qs)
}

// PredictInto answers against the currently published snapshot: one atomic
// load, then the snapshot's lock-free batched path. The entire call runs
// against a single snapshot — a concurrent Swap never tears a batch.
func (h *Handle) PredictInto(qs []Query, means, vars []float64) error {
	return h.Load().PredictInto(qs, means, vars)
}
