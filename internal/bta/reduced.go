package bta

import "github.com/dalia-hpc/dalia/internal/dense"

// DefaultReducedCrossover is the smallest reduced-system block count worth
// re-entering the partition machinery on. Below it (P < 5 partitions, so a
// reduced system of fewer than 8 blocks) the sequential POBTAF chain beats
// a nested gang, and the engine takes the sequential path bit for bit.
const DefaultReducedCrossover = 8

// MaxRecursionDepth bounds the recursive nesting of reduced-system engines.
// Each level shrinks the system from n to 2P−2 ≤ n/2 blocks, so depth
// beyond a handful cannot ever trigger; the bound keeps misconfigured
// knobs from requesting absurd towers of nested gangs.
const MaxRecursionDepth = 8

// ReducedOptions configures how a parallel backend treats its 2P−2-block
// reduced boundary system — the serial fraction of the parallel-in-time
// scheme (§V-B's scaling knee).
type ReducedOptions struct {
	// Depth is the recursive-nesting budget: a positive depth lets the
	// engine re-enter the partition machinery on the reduced system itself
	// (which is block-tridiagonal-arrowhead with the same structure),
	// factorizing it with a second-level partition gang instead of a
	// sequential sweep. Each nested level receives Depth−1. 0 = always
	// sequential (the historical behaviour).
	Depth int
	// Crossover is the smallest reduced block count to recurse on
	// (0 = DefaultReducedCrossover). Reduced systems below it run the
	// sequential kernel bit for bit regardless of Depth.
	Crossover int
	// Pipeline streams partitions' boundary contributions into the reduced
	// assembly as each interior elimination finishes, overlapping the
	// reduced phase with the tail of the interior sweeps. Off = assemble
	// and factorize only after every partition completed (the historical
	// behaviour, kept bit-for-bit).
	Pipeline bool
}

// normalize clamps the options into their valid ranges.
func (o ReducedOptions) normalize() ReducedOptions {
	if o.Depth < 0 {
		o.Depth = 0
	}
	if o.Depth > MaxRecursionDepth {
		o.Depth = MaxRecursionDepth
	}
	if o.Crossover <= 0 {
		o.Crossover = DefaultReducedCrossover
	}
	if o.Crossover < 4 {
		// A reduced system below 4 blocks cannot hold two partitions with
		// anything left to eliminate in parallel.
		o.Crossover = 4
	}
	return o
}

// reducedEngine factorizes and solves one reduced boundary system, either
// sequentially in place of the assembled storage (the historical path) or
// through a recursively nested ParallelFactor when the system is wide
// enough to deserve its own partition gang. All storage — including the
// nested factor — is built once at construction, so repeated cycles stay
// allocation-free.
type reducedEngine struct {
	nr, b, a int
	opts     ReducedOptions

	seqF   *Factor         // factor view over the assembled storage (sequential mode)
	nested *ParallelFactor // non-nil when the engine recurses
}

// nestedReducedWidth returns the partition count a nested gang over an
// nr-block reduced system should run at (0 = don't recurse).
func nestedReducedWidth(nr, crossover int) int {
	if nr < crossover {
		return 0
	}
	// nr/4 is MaxUsefulPartitions' diminishing-returns policy; once past
	// the crossover a gang of at least 2 always beats the sequential sweep
	// the caller would otherwise idle through.
	p := nr / 4
	if p < 2 {
		p = 2
	}
	if mx := MaxPartitions(nr); p > mx {
		p = mx
	}
	return p
}

// newReducedEngine builds the engine for the reduced system assembled into
// red. The sequential mode factorizes red's blocks in place (seqF is a
// factor view over that same storage); the nested mode copies red into the
// nested factor's own storage on every Refactorize, leaving red intact as
// the assembly staging area.
func newReducedEngine(red *Matrix, opts ReducedOptions) (*reducedEngine, error) {
	opts = opts.normalize()
	e := &reducedEngine{nr: red.N, b: red.B, a: red.A, opts: opts}
	e.seqF = &Factor{N: red.N, B: red.B, A: red.A,
		Diag: red.Diag, Lower: red.Lower, Arrow: red.Arrow, Tip: red.Tip}
	if opts.Depth > 0 {
		if p := nestedReducedWidth(red.N, opts.Crossover); p > 0 {
			nested, err := NewParallelFactorOpts(red.N, red.B, red.A, ParallelOptions{
				Partitions: p,
				Reduced: ReducedOptions{
					Depth:     opts.Depth - 1,
					Crossover: opts.Crossover,
					Pipeline:  opts.Pipeline,
				},
			})
			if err != nil {
				return nil, err
			}
			e.nested = nested
		}
	}
	return e, nil
}

// seqReducedEngine wraps an existing sequential factor (used by the p = 1
// distributed fallback, where the "reduced system" is the whole matrix
// factorized in place of the local slice).
func seqReducedEngine(f *Factor) *reducedEngine {
	return &reducedEngine{nr: f.N, b: f.B, a: f.A, seqF: f}
}

// matches reports whether the engine can be reused for a reduced system of
// the given shape under the given options (the DistScratch recycling test).
func (e *reducedEngine) matches(nr, b, a int, opts ReducedOptions) bool {
	return e != nil && e.nr == nr && e.b == b && e.a == a && e.opts == opts.normalize()
}

// recursing reports whether the reduced factorization runs on a nested
// partition gang (vs the sequential in-place kernel).
func (e *reducedEngine) recursing() bool { return e.nested != nil }

// rebind points the sequential factor view at a different assembled storage
// of the same shape (the distributed path recycles reduced matrices through
// DistScratch, so the storage identity can change between factorizations).
func (e *reducedEngine) rebind(red *Matrix) {
	e.seqF.Diag, e.seqF.Lower, e.seqF.Arrow, e.seqF.Tip = red.Diag, red.Lower, red.Arrow, red.Tip
}

// factorize computes the reduced factorization from the fully assembled
// system in red. Sequential mode consumes red's blocks as the factor
// storage; nested mode reads them into the nested factor.
func (e *reducedEngine) factorize(red *Matrix) error {
	if e.nested != nil {
		return e.nested.Refactorize(red)
	}
	e.rebind(red)
	return factorizeInPlace(red)
}

// logDet returns the reduced factor's log-determinant contribution.
func (e *reducedEngine) logDet() float64 {
	if e.nested != nil {
		return e.nested.LogDet()
	}
	return e.seqF.LogDet()
}

// solve solves the reduced system in place of rhs.
func (e *reducedEngine) solve(rhs []float64) {
	if e.nested != nil {
		e.nested.Solve(rhs)
		return
	}
	e.seqF.Solve(rhs)
}

// solveLT applies the backend's L̃⁻ᵀ to x in place (the GMRF-sampling
// primitive; each nesting level contributes its own symmetric permutation,
// under which i.i.d. Gaussian inputs are invariant).
func (e *reducedEngine) solveLT(x []float64) {
	if e.nested != nil {
		e.nested.SolveLT(x)
		return
	}
	e.seqF.backward(x)
}

// forwardMS / backwardMS are the multi-RHS half solves over the reduced
// workspace.
func (e *reducedEngine) forwardMS(w *MultiSolve) {
	if e.nested != nil {
		e.nested.ForwardSolveMultiInto(w)
		return
	}
	e.seqF.ForwardSolveMultiInto(w)
}

func (e *reducedEngine) backwardMS(w *MultiSolve) {
	if e.nested != nil {
		e.nested.BackwardSolveMultiInto(w)
		return
	}
	e.seqF.BackwardSolveMultiInto(w)
}

// selinvInto computes the reduced selected inverse on the BTA pattern.
func (e *reducedEngine) selinvInto(sig *Matrix) error {
	if e.nested != nil {
		return e.nested.SelectedInversionInto(sig)
	}
	return e.seqF.SelectedInversionInto(sig)
}

// reducedOwner returns the partition owning reduced block i (reduced
// ordering [hi₀, lo₁, hi₁, …, lo_{P−1}]: block 0 belongs to partition 0,
// blocks 2r−1 and 2r to partition r).
func reducedOwner(i int) int { return (i + 1) / 2 }

// redFrontier advances an incremental in-place factorization of the reduced
// system as partitions deliver their boundary contributions in partition
// order — the pipelined boundary handoff. Eliminating reduced block i
// Schur-updates block i+1, so the frontier may pass block i only once the
// owner of block i+1 has installed its contribution; owners are monotone in
// the block index, which makes the resulting operation sequence a pure
// function of the install order (deterministic regardless of which
// partition's elimination finished first).
//
// Tip handling: partition r's Schur tip accumulator is folded into the
// assembled tip right before the frontier eliminates the first block r owns
// — a fixed position in the operation sequence — rather than at delivery
// time, which would make the floating-point summation order depend on
// goroutine scheduling.
type redFrontier struct {
	red  *Matrix
	p    int             // total partitions
	tips []*dense.Matrix // per-partition tip deltas (nil entries allowed)
	next int             // next reduced block to eliminate
	err  error
}

func (rf *redFrontier) reset(red *Matrix, p int, tips []*dense.Matrix) {
	rf.red, rf.p, rf.tips, rf.next, rf.err = red, p, tips, 0, nil
}

// advance runs factorSteps for every reduced block whose inputs are
// complete once partitions 0..installedThrough have installed their
// contributions. Errors latch: further calls are no-ops.
func (rf *redFrontier) advance(installedThrough int) {
	if rf.err != nil {
		return
	}
	nr := rf.red.N
	for rf.next < nr {
		need := rf.next + 1
		if need > nr-1 {
			need = nr - 1
		}
		if reducedOwner(need) > installedThrough {
			return
		}
		i := rf.next
		if rf.red.A > 0 && rf.tips != nil {
			// Fold the tip delta of the partition whose first owned block
			// this is (block 0 → partition 0, block 2r−1 → partition r).
			if i == 0 {
				rf.foldTip(0)
			} else if i%2 == 1 {
				rf.foldTip((i + 1) / 2)
			}
		}
		if err := factorStep(rf.red, i); err != nil {
			rf.err = err
			return
		}
		rf.next++
	}
}

func (rf *redFrontier) foldTip(r int) {
	if r < len(rf.tips) && rf.tips[r] != nil {
		rf.red.Tip.Add(1, rf.tips[r])
	}
}

// finish completes the factorization after every partition installed:
// remaining frontier steps plus the tip Cholesky.
func (rf *redFrontier) finish() error {
	rf.advance(rf.p - 1)
	if rf.err != nil {
		return rf.err
	}
	return factorFinishTip(rf.red)
}
