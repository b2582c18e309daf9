package bta

import (
	"fmt"
	"math"

	"github.com/dalia-hpc/dalia/internal/comm"
	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/sched"
)

func logOf(v float64) float64 { return math.Log(v) }

// Message tags used by the distributed routines. Bases are spaced so the
// tag+i arithmetic of multi-part transfers cannot collide across kinds.
// A rank owning several partitions (the hybrid two-level topology) reuses
// the same tags for each of them: both sides walk the owned partitions in
// the same order and mailboxes deliver per-tag FIFO, so the pairing stays
// deterministic without widening the tag space.
const (
	tagDiag     = 100 // +0, +1: boundary diagonal blocks
	tagCoupling = 110 // +0: cross-partition coupling, +1: within-partition fill
	tagArrow    = 120 // +0, +1: boundary arrow blocks
	tagTip      = 130
	tagRhs      = 140
	tagSol      = 150
	tagSig      = 160 // +0..+5: scattered Σ boundary blocks
)

// LocalBTA is one rank's slice of a global BTA matrix under the time-domain
// partitioning: the diagonal, sub-diagonal, and arrow blocks of the owned
// block range plus the coupling to the previous rank. The arrow tip is
// carried by rank 0 only (it is globally shared and enters the reduced
// system exactly once).
//
// Under the hybrid two-level topology a rank models a multi-stream node and
// owns several consecutive partitions of the global partition list; Sub
// records them (global block ranges). A nil/single-entry Sub is the flat
// one-partition-per-rank configuration.
type LocalBTA struct {
	Part    Partition   // the rank's whole owned block range
	Sub     []Partition // owned partitions; nil ⇒ flat (Sub = [Part])
	Streams []int       // global per-rank stream counts; nil ⇒ uniform len(Sub) everywhere
	NGlobal int
	B, A    int

	Diag        []*dense.Matrix // blocks Lo..Hi
	Lower       []*dense.Matrix // couplings (k+1,k) for k = Lo..Hi−1
	TopCoupling *dense.Matrix   // block (Lo, Lo−1); nil on rank 0
	Arrow       []*dense.Matrix // blocks (a, Lo..Hi); empty when A == 0
	Tip         *dense.Matrix   // original tip; required on rank 0, ignored elsewhere
}

// LocalSlice extracts rank's partition from a globally assembled matrix
// (tests and single-host experiment drivers; at paper scale each rank would
// assemble its slice directly).
func LocalSlice(g *Matrix, parts []Partition, rank int) *LocalBTA {
	l := NewLocalBTA(parts[rank], g.N, g.B, g.A, rank)
	l.FillFrom(g)
	return l
}

// LocalSliceNode is LocalSlice for the hybrid two-level topology: parts is
// the global partition list of ranks·perRank entries, and the returned
// slice covers rank's perRank consecutive partitions.
func LocalSliceNode(g *Matrix, parts []Partition, rank, perRank int) *LocalBTA {
	l := NewLocalBTANode(parts, rank, perRank, g.N, g.B, g.A)
	l.FillFrom(g)
	return l
}

// NewLocalBTA allocates a zeroed local slice workspace for one rank's
// partition, refillable with FillFrom. The factorization consumes the
// slice blocks as workspace, so a slice refilled every INLA iteration gives
// the distributed path the same fixed memory footprint as the sequential
// Refactorize loop.
func NewLocalBTA(part Partition, nGlobal, b, a, rank int) *LocalBTA {
	return newLocalBTA(part, nil, nGlobal, b, a, rank)
}

// NewLocalBTANode allocates the local slice of a rank under the hybrid
// two-level topology: the global partition list parts has ranks·perRank
// entries and rank owns the perRank consecutive partitions starting at
// rank·perRank.
func NewLocalBTANode(parts []Partition, rank, perRank, nGlobal, b, a int) *LocalBTA {
	if perRank < 1 {
		perRank = 1
	}
	owned := append([]Partition(nil), parts[rank*perRank:(rank+1)*perRank]...)
	span := Partition{Lo: owned[0].Lo, Hi: owned[len(owned)-1].Hi}
	return newLocalBTA(span, owned, nGlobal, b, a, rank)
}

// NewLocalBTAHybrid allocates the local slice of a rank under an arbitrary
// per-rank stream layout: counts[r] is rank r's stream count and the global
// partition list (e.g. from HybridPartition) assigns each rank its counts[r]
// consecutive partitions. Unequal counts are allowed — the factorization
// derives the global partition indexing from the recorded layout. The
// layout is validated here (these are the entry points for externally
// constructed layouts), so a mismatched parts/counts pair errors instead of
// slicing out of range.
func NewLocalBTAHybrid(parts []Partition, counts []int, rank, nGlobal, b, a int) (*LocalBTA, error) {
	if rank < 0 || rank >= len(counts) {
		return nil, fmt.Errorf("bta: rank %d outside the %d-entry stream layout", rank, len(counts))
	}
	total := 0
	for r, q := range counts {
		if q < 1 {
			return nil, fmt.Errorf("bta: rank %d stream count %d < 1", r, q)
		}
		total += q
	}
	if total != len(parts) {
		return nil, fmt.Errorf("bta: stream layout covers %d partitions, partition list has %d", total, len(parts))
	}
	base := 0
	for r := 0; r < rank; r++ {
		base += counts[r]
	}
	owned := append([]Partition(nil), parts[base:base+counts[rank]]...)
	span := Partition{Lo: owned[0].Lo, Hi: owned[len(owned)-1].Hi}
	l := newLocalBTA(span, owned, nGlobal, b, a, rank)
	l.Streams = append([]int(nil), counts...)
	return l, nil
}

// LocalSliceHybrid is LocalSlice for an arbitrary per-rank stream layout.
func LocalSliceHybrid(g *Matrix, parts []Partition, counts []int, rank int) (*LocalBTA, error) {
	l, err := NewLocalBTAHybrid(parts, counts, rank, g.N, g.B, g.A)
	if err != nil {
		return nil, err
	}
	l.FillFrom(g)
	return l, nil
}

func newLocalBTA(span Partition, sub []Partition, nGlobal, b, a, rank int) *LocalBTA {
	l := &LocalBTA{Part: span, Sub: sub, NGlobal: nGlobal, B: b, A: a}
	size := span.Size()
	l.Diag = make([]*dense.Matrix, size)
	if size > 1 {
		l.Lower = make([]*dense.Matrix, size-1)
	}
	for i := 0; i < size; i++ {
		l.Diag[i] = dense.New(b, b)
		if i < size-1 {
			l.Lower[i] = dense.New(b, b)
		}
	}
	if span.Lo > 0 {
		l.TopCoupling = dense.New(b, b)
	}
	if a > 0 {
		l.Arrow = make([]*dense.Matrix, size)
		for i := range l.Arrow {
			l.Arrow[i] = dense.New(a, b)
		}
		if rank == 0 {
			l.Tip = dense.New(a, a)
		}
	}
	return l
}

// FillFrom refills the slice from a globally assembled matrix without
// allocating — the per-θ workspace-reuse primitive of the distributed
// evaluation loop.
func (l *LocalBTA) FillFrom(g *Matrix) {
	for k := l.Part.Lo; k <= l.Part.Hi; k++ {
		l.Diag[k-l.Part.Lo].CopyFrom(g.Diag[k])
		if k < l.Part.Hi {
			l.Lower[k-l.Part.Lo].CopyFrom(g.Lower[k])
		}
		if g.A > 0 {
			l.Arrow[k-l.Part.Lo].CopyFrom(g.Arrow[k])
		}
	}
	if l.Part.Lo > 0 {
		l.TopCoupling.CopyFrom(g.Lower[l.Part.Lo-1])
	}
	if g.A > 0 && l.Tip != nil {
		l.Tip.CopyFrom(g.Tip)
	}
}

// distPart is one owned partition's slice of the distributed factor state:
// the partitionElim outputs, the fill-chain blocks handed to it, the
// boundary blocks after elimination, and the partition's Schur tip
// accumulator. Under the hybrid topology a rank holds several of these and
// sweeps them concurrently (its simulated streams).
type distPart struct {
	part   Partition
	global int // global partition index
	off    int // block offset of part.Lo within the rank's local span

	interior []int // global block indices, elimination order

	l, gNext, gTop, gArr []*dense.Matrix
	chain                []*dense.Matrix // fill blocks predrawn for partitionElim
	fill                 *dense.Matrix
	tipDelta             *dense.Matrix

	bndDiag, bndArrow []*dense.Matrix
	topCoupling       *dense.Matrix // original coupling (Lo, Lo−1); nil for partition 0

	shadow *elimShadow32 // fp32 sweep arena (PrecMixed only)

	err error
}

// solveCore builds the shared partition-relative solve core over the
// partition's elimination outputs.
func (dp *distPart) solveCore(b int) partitionSolve {
	return partitionSolve{
		L: dp.l, GNext: dp.gNext, GTop: dp.gTop, GArr: dp.gArr,
		Interiors: dp.interior, Base: dp.part.Lo, B: b,
	}
}

// DistFactor is the outcome of PPOBTAF: rank-local interior factor data for
// every owned partition plus the factorized reduced system on rank 0. It
// supports the distributed triangular solve (PPOBTAS), selected inversion
// (PPOBTASI), and the collective log-determinant.
type DistFactor struct {
	span        Partition // the rank's whole owned block range
	rank, ranks int
	perRank     int   // partitions owned by THIS rank (its stream width)
	counts      []int // per-rank stream counts (len ranks)
	base        []int // per-rank first global partition index (len ranks)
	p           int   // total partitions = Σ counts
	nGlobal     int
	b, a        int
	opts        DistOptions

	parts []*distPart

	localTip *dense.Matrix // original tip (rank 0)

	redM     *Matrix        // assembled reduced system storage (rank 0, p > 1)
	red      *reducedEngine // rank 0 only (also the p == 1 full-system factor)
	frontier redFrontier    // pipelined incremental reduced factorization (rank 0)
	logDet   float64        // full log-determinant, replicated on all ranks

	low        bool // interior factor blocks came from the fp32 sweeps
	lastRefine int  // corrections of the most recent PPOBTASRefined

	// Multi-stream gang state (task-DAG mode): prebuilt task nodes and
	// per-stream bodies, built on first runOwned and reused every call so
	// the per-step allocation count stays constant.
	gangEx    *sched.Executor
	gangGroup sched.Group
	gangTasks []sched.Task
	gangFns   []func()
	gangBody  func(j int)

	scr *DistScratch // optional recycled storage (PPOBTAFScratch)
}

// DistOptions configures the distributed factorization beyond the topology
// carried by the local slice.
type DistOptions struct {
	// Reduced configures rank 0's reduced boundary system: recursive
	// nesting (a nested shared-memory gang factorizes the 2P−2 system when
	// it is wide enough) and the pipelined boundary handoff (rank 0
	// interleaves reduced elimination with the arrival of later ranks'
	// boundary contributions instead of idling until the last one lands).
	Reduced ReducedOptions
	// Precision selects the per-stage precision policy: under PrecMixed the
	// rank-local interior sweeps run fp32 (with fp64 fallback on lost
	// definiteness) while the reduced boundary system on rank 0 stays fp64,
	// and PPOBTASRefined recovers fp64 solves via residual correction. With
	// a single global partition there are no interior sweeps and the policy
	// degenerates to pure fp64. All ranks must pass the same value.
	Precision Precision
	// MaxRefine caps the fp64 residual corrections per PPOBTASRefined call
	// (0 = DefaultMaxRefine).
	MaxRefine int
}

// sweepScratch is one owned partition's preallocated selected-inversion
// sweep workspace (the partitionSweep temporaries).
type sweepScratch struct {
	gN, gT, gA, tmpB *dense.Matrix
	loBuf            [2]*dense.Matrix
}

// distSolveScratch recycles the PPOBTAS vector workspaces across INLA
// iterations: the rank-local solution buffer, the per-partition forward tip
// accumulators, and the reduced-system staging vectors on rank 0.
type distSolveScratch struct {
	y       []float64   // rank-local solution workspace
	tips    [][]float64 // per owned partition forward tip accumulators
	tipSum  []float64   // node-level tip contribution
	payload []float64   // boundary-rhs staging
	red     []float64   // rank 0: reduced right-hand side
	sol     []float64   // rank 0: per-peer solution staging
	xTip    []float64   // replicated tip solution
	full    []float64   // p == 1 full-system workspace

	// PPOBTASRefined workspaces: the replicated full-length solution,
	// residual and correction vectors, plus the owned-span staging buffer.
	xFull, rFull, dxFull, rhsSpan []float64
}

// DistScratch recycles the per-factorization block allocations of the
// distributed path (fill-coupling chains, tip deltas, reduced system) and
// the solve/selected-inversion workspaces across INLA iterations, so the
// rank-local compute between communication calls is allocation-free after
// warmup — matching the shared-memory engines. Usage: pass it to
// PPOBTAFScratch; when the factor is no longer needed — before the next
// factorization — call Reclaim on it.
type DistScratch struct {
	bb  []*dense.Matrix // spare b×b blocks
	aa  []*dense.Matrix // spare a×a tip deltas
	red *Matrix         // spare reduced system (rank 0)

	solve  distSolveScratch
	sweep  []*sweepScratch // per owned partition
	sigma  *LocalSigma     // recycled Σ output storage (PPOBTASI)
	redSig *Matrix         // rank 0: recycled reduced selected inverse
	redEng *reducedEngine  // rank 0: recycled reduced engine (nested gang incl.)

	// shadows holds per-owned-partition fp32 sweep arenas (PrecMixed);
	// partition shapes are fixed across INLA refits, so these persist.
	shadows []*elimShadow32
}

func (s *DistScratch) popBB() *dense.Matrix {
	if n := len(s.bb); n > 0 {
		m := s.bb[n-1]
		s.bb = s.bb[:n-1]
		return m
	}
	return nil
}

// Reclaim returns a dead factor's recycled blocks to the scratch. The
// factor must not be used afterwards.
func (s *DistScratch) Reclaim(f *DistFactor) {
	if f == nil {
		return
	}
	for _, dp := range f.parts {
		// The predrawn chain covers every fill block the elimination handed
		// out (gTop entries and the parked/unconsumed fill alike), so the
		// chain returns wholesale — nothing can leak on failed sweeps.
		s.bb = append(s.bb, dp.chain...)
		dp.chain = nil
		if dp.tipDelta != nil {
			s.aa = append(s.aa, dp.tipDelta)
			dp.tipDelta = nil
		}
	}
	if f.redM != nil && f.p > 1 {
		s.red = f.redM
		f.redM = nil
	}
}

// newBB returns a b×b working block, recycled when scratch is attached.
func (f *DistFactor) newBB() *dense.Matrix {
	if f.scr != nil {
		if m := f.scr.popBB(); m != nil {
			return m
		}
	}
	return dense.New(f.b, f.b)
}

// newTipDelta returns a zeroed a×a accumulator block.
func (f *DistFactor) newTipDelta() *dense.Matrix {
	if f.scr != nil {
		if n := len(f.scr.aa); n > 0 {
			m := f.scr.aa[n-1]
			f.scr.aa = f.scr.aa[:n-1]
			m.Zero()
			return m
		}
	}
	return dense.New(f.a, f.a)
}

// newReduced returns reduced-system storage for nr blocks, zeroed.
func (f *DistFactor) newReduced(nr int) *Matrix {
	if f.scr != nil && f.scr.red != nil && f.scr.red.N == nr && f.scr.red.B == f.b && f.scr.red.A == f.a {
		red := f.scr.red
		f.scr.red = nil
		for i := 0; i < red.N; i++ {
			red.Diag[i].Zero()
			if i < red.N-1 {
				red.Lower[i].Zero()
			}
			if red.A > 0 {
				red.Arrow[i].Zero()
			}
		}
		if red.A > 0 {
			red.Tip.Zero()
		}
		return red
	}
	return NewMatrix(nr, f.b, f.a)
}

// solveScratch returns the recycled solve arena, or a throwaway one when
// the factor carries no scratch.
func (f *DistFactor) solveScratch() *distSolveScratch {
	if f.scr != nil {
		return &f.scr.solve
	}
	return &distSolveScratch{}
}

// growF returns buf resized to n values, reusing its backing when possible.
func growF(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

// sweepScratchFor returns owned partition j's selected-inversion sweep
// workspace, allocating (into the recycled arena when attached) on first
// use. Must be called outside the partition gang — growth is not
// synchronized.
func (f *DistFactor) sweepScratchFor(j int) *sweepScratch {
	var ws *sweepScratch
	if f.scr != nil {
		for len(f.scr.sweep) <= j {
			f.scr.sweep = append(f.scr.sweep, &sweepScratch{})
		}
		ws = f.scr.sweep[j]
	} else {
		ws = &sweepScratch{}
	}
	b, a := f.b, f.a
	if ws.gN == nil || ws.gN.Rows != b {
		ws.gN, ws.tmpB = dense.New(b, b), dense.New(b, b)
		ws.gT, ws.gA = nil, nil
		ws.loBuf = [2]*dense.Matrix{}
	}
	if f.parts[j].global != 0 && ws.gT == nil {
		ws.gT = dense.New(b, b)
		ws.loBuf[0], ws.loBuf[1] = dense.New(b, b), dense.New(b, b)
	}
	if a > 0 && (ws.gA == nil || ws.gA.Rows != a || ws.gA.Cols != b) {
		ws.gA = dense.New(a, b)
	}
	return ws
}

// Part returns the factor's whole owned block range.
func (f *DistFactor) Part() Partition { return f.span }

// PerRank returns the node's stream width (owned partitions per rank).
func (f *DistFactor) PerRank() int { return f.perRank }

// LogDet returns log|A| (already replicated across ranks by PPOBTAF).
func (f *DistFactor) LogDet() float64 { return f.logDet }

// Low reports whether the interior factor blocks came from the fp32 sweeps
// (PrecMixed with more than one global partition).
func (f *DistFactor) Low() bool { return f.low }

// LastRefineIters reports the fp64 residual corrections of the most recent
// PPOBTASRefined call on this factor (0 before any, or after an unrefined
// solve).
func (f *DistFactor) LastRefineIters() int { return f.lastRefine }

// runOwned executes body for every owned partition — concurrently when the
// rank models a multi-stream node (perRank > 1), inline otherwise. Callers
// wrap it in comm.Compute, the simulator's timing hook: the measured wall
// time of the whole gang is what gets charged to the rank's virtual clock,
// i.e. one node-level makespan rather than a per-stream sum.
func (f *DistFactor) runOwned(body func(j int)) {
	if len(f.parts) == 1 {
		body(0)
		return
	}
	// The node's streams become tasks on the shared executor (prebuilt
	// bodies, built on first use, reused every call), with stream 0 on the
	// calling goroutine which then help-joins. The gang's makespan is one
	// node-level compute interval for the comm.Compute charging around the
	// caller.
	if f.gangTasks == nil {
		f.gangEx = sched.Shared()
		f.gangGroup.Init(f.gangEx)
		f.gangTasks = make([]sched.Task, len(f.parts))
		f.gangFns = make([]func(), len(f.parts))
		for j := 1; j < len(f.parts); j++ {
			j := j
			f.gangFns[j] = func() { f.gangBody(j) }
		}
	}
	f.gangBody = body
	l := f.gangEx.AcquireLane()
	f.gangGroup.Add(len(f.parts) - 1)
	for j := 1; j < len(f.parts); j++ {
		f.gangTasks[j].Reset(f.gangEx, &f.gangGroup, f.gangFns[j], nil)
		l.Spawn(&f.gangTasks[j])
	}
	body(0)
	f.gangGroup.Wait(l)
	f.gangEx.ReleaseLane(l)
	f.gangBody = nil
}

// tipSum folds the owned partitions' Schur tip accumulators into the
// first one and returns it (the node-level arrow contribution).
func (f *DistFactor) tipSum() *dense.Matrix {
	t := f.parts[0].tipDelta
	for _, dp := range f.parts[1:] {
		t.Add(1, dp.tipDelta)
	}
	return t
}

// PPOBTAF performs the distributed BTA Cholesky factorization over the
// time-domain partitioning (the Serinv-style nested-dissection scheme):
// every rank eliminates the interiors of its owned partitions concurrently
// — non-first partitions run the costlier two-sided elimination that also
// updates their top boundary — then rank 0 assembles and factorizes the
// reduced block-tridiagonal-arrowhead system over the 2P−2 boundary blocks,
// where P = ranks·partitions-per-rank is the total partition count of the
// two-level topology.
//
// Must be called collectively by all ranks of c with consistent local
// slices (including a consistent Sub width). The local input is consumed
// (its blocks are used as workspace).
func PPOBTAF(c *comm.Comm, local *LocalBTA) (*DistFactor, error) {
	return PPOBTAFScratch(c, local, nil)
}

// PPOBTAFScratch is PPOBTAF with recycled storage: the fill-coupling
// chains, tip deltas and reduced system are drawn from scr (which the
// caller refills via DistScratch.Reclaim on the previous iteration's
// factor) instead of freshly allocated, and the factor's solve and
// selected-inversion paths reuse scr's workspaces. scr may be nil.
func PPOBTAFScratch(c *comm.Comm, local *LocalBTA, scr *DistScratch) (*DistFactor, error) {
	return PPOBTAFOpts(c, local, scr, DistOptions{})
}

// PPOBTAFOpts is PPOBTAFScratch with the reduced-system engine configured:
// recursion depth/crossover for rank 0's reduced factorization and the
// pipelined boundary handoff. All ranks must pass identical options.
//
// A communication fault mid-factorization (a dead peer, a revoked
// communicator, a receive timeout) aborts the evaluation cleanly: the
// partially built factor's recycled blocks flow back to the scratch, no
// gang goroutines are left running (the compute gangs complete before any
// communication call), and the fault is returned as a wrapped error the
// driver can test with comm.Retryable.
func PPOBTAFOpts(c *comm.Comm, local *LocalBTA, scr *DistScratch, opts DistOptions) (f *DistFactor, err error) {
	defer func() {
		if r := recover(); r != nil {
			fe := comm.FaultOf(r)
			if fe == nil {
				panic(r)
			}
			if scr != nil {
				scr.Reclaim(f)
			}
			f = nil
			err = fmt.Errorf("bta: distributed factorization aborted: %w", fe)
		}
	}()
	opts.Reduced = opts.Reduced.normalize()
	ranks := c.Size()
	rank := c.Rank()
	sub := local.Sub
	if len(sub) == 0 {
		sub = []Partition{local.Part}
	}
	q := len(sub)
	counts := local.Streams
	if counts == nil {
		// Uniform layout: every rank runs this rank's stream width. The two
		// O(ranks) layout slices below are part of the tolerated per-cycle
		// constant (like the message layer) — the alloc pins check growth
		// with nt, not ranks.
		counts = make([]int, ranks)
		for r := range counts {
			counts[r] = q
		}
	} else if len(counts) != ranks {
		return nil, fmt.Errorf("bta: rank %d stream layout has %d entries for %d ranks", rank, len(counts), ranks)
	} else if counts[rank] != q {
		return nil, fmt.Errorf("bta: rank %d owns %d partitions but the stream layout records %d", rank, q, counts[rank])
	}
	base := make([]int, ranks)
	p := 0
	for r := 0; r < ranks; r++ {
		base[r] = p
		p += counts[r]
	}
	f = &DistFactor{
		span: local.Part, rank: rank, ranks: ranks, perRank: q,
		counts: counts, base: base, p: p,
		nGlobal: local.NGlobal, b: local.B, a: local.A,
		opts: opts,
		scr:  scr,
	}
	f.parts = make([]*distPart, q)
	for j, part := range sub {
		g := base[rank] + j
		f.parts[j] = &distPart{
			part: part, global: g, off: part.Lo - f.span.Lo,
			interior: interiors(part, g, p),
		}
	}
	if p == 1 {
		return ppobtafSingle(c, local, f)
	}

	// Error handling is collective: a failed Cholesky on any rank (an
	// infeasible hyperparameter configuration in the INLA loop) must not
	// leave peers blocked in a collective, so ranks agree on success after
	// each phase.
	var elimErr error
	c.Compute(func() { elimErr = f.eliminateInteriors(local) })
	if anyFailed(c, elimErr) {
		// The dead partial factor's recycled blocks must flow back to the
		// scratch: infeasible θ points are routine in the INLA mode search,
		// and dropping the chains on every failure would reintroduce
		// per-evaluation allocation churn.
		if scr != nil {
			scr.Reclaim(f)
		}
		if elimErr != nil {
			return nil, elimErr
		}
		return nil, fmt.Errorf("bta: rank %d: a peer rank failed local elimination", rank)
	}
	redErr := f.assembleAndFactorReduced(c, local)
	if anyFailed(c, redErr) {
		if scr != nil {
			scr.Reclaim(f)
		}
		if redErr != nil {
			return nil, redErr
		}
		return nil, fmt.Errorf("bta: rank %d: reduced-system factorization failed", rank)
	}
	f.shareLogDet(c)
	// With a single global partition (handled above) there are no interior
	// sweeps, so only the multi-partition path can carry a low factor.
	f.low = opts.Precision == PrecMixed
	return f, nil
}

// anyFailed reports collectively whether any rank observed an error.
func anyFailed(c *comm.Comm, err error) bool {
	flag := 0.0
	if err != nil {
		flag = 1
	}
	return c.AllReduceMax([]float64{flag})[0] > 0
}

// ppobtafSingle is the P == 1 fallback: plain sequential factorization
// presented through the distributed interface.
func ppobtafSingle(c *comm.Comm, local *LocalBTA, f *DistFactor) (*DistFactor, error) {
	g := &Matrix{N: local.NGlobal, B: local.B, A: local.A,
		Diag: local.Diag, Lower: local.Lower, Arrow: local.Arrow, Tip: local.Tip}
	var seq *Factor
	var err error
	c.Compute(func() {
		err = factorizeInPlace(g)
		seq = &Factor{N: g.N, B: g.B, A: g.A, Diag: g.Diag, Lower: g.Lower, Arrow: g.Arrow, Tip: g.Tip}
	})
	if err != nil {
		return nil, err
	}
	f.red = seqReducedEngine(seq)
	f.parts[0].interior = nil
	f.logDet = seq.LogDet()
	return f, nil
}

// reducedEngineFor returns rank 0's reduced-system engine, recycled from
// the scratch when it matches the topology and options (the nested gang of
// a recursive engine is construction-time storage, exactly like the fill
// chains).
func (f *DistFactor) reducedEngineFor(red *Matrix, nr int) (*reducedEngine, error) {
	if f.scr != nil && f.scr.redEng.matches(nr, f.b, f.a, f.opts.Reduced) {
		return f.scr.redEng, nil
	}
	eng, err := newReducedEngine(red, f.opts.Reduced)
	if err != nil {
		return nil, err
	}
	if f.scr != nil {
		f.scr.redEng = eng
	}
	return eng, nil
}

// eliminateInteriors runs the rank-local phase of PPOBTAF: every owned
// partition's interior elimination through the shared partitionElim core —
// the same core the shared-memory ParallelFactor drives — with the owned
// partitions swept concurrently when the rank models a multi-stream node.
func (f *DistFactor) eliminateInteriors(local *LocalBTA) error {
	hasArrow := f.a > 0
	// Predraw every partition's fill chain and tip accumulator before the
	// gang launches: the scratch pools are not synchronized.
	for _, dp := range f.parts {
		if dp.global > 0 {
			need := len(dp.interior) + 1
			dp.chain = make([]*dense.Matrix, need)
			for i := range dp.chain {
				dp.chain[i] = f.newBB()
			}
		}
		if hasArrow {
			dp.tipDelta = f.newTipDelta()
		}
		nInt := len(dp.interior)
		dp.l = make([]*dense.Matrix, 0, nInt)
		dp.gNext = make([]*dense.Matrix, 0, nInt)
		dp.gTop = make([]*dense.Matrix, 0, nInt)
		dp.gArr = make([]*dense.Matrix, 0, nInt)
	}
	// Shadow arenas for the fp32 sweeps, persistent across refits (the
	// partition shapes are fixed): allocated here, outside the gang.
	if f.opts.Precision == PrecMixed {
		for j, dp := range f.parts {
			size := dp.part.Size()
			nChain := 0
			if dp.global > 0 {
				nChain = len(dp.interior) + 1
			}
			var sh *elimShadow32
			if f.scr != nil {
				for len(f.scr.shadows) <= j {
					f.scr.shadows = append(f.scr.shadows, nil)
				}
				sh = f.scr.shadows[j]
			}
			if !sh.fits(size, nChain, f.b, f.a) {
				sh = newElimShadow32(size, nChain, f.b, f.a)
				if f.scr != nil {
					f.scr.shadows[j] = sh
				}
			}
			dp.shadow = sh
		}
	}
	f.runOwned(func(j int) { f.parts[j].err = f.elimOwned(local, j) })
	for _, dp := range f.parts {
		if dp.err != nil {
			return dp.err
		}
	}
	f.localTip = local.Tip
	return nil
}

// elimOwned eliminates one owned partition's interiors and records its
// boundary state.
func (f *DistFactor) elimOwned(local *LocalBTA, j int) error {
	dp := f.parts[j]
	off, size := dp.off, dp.part.Size()
	used := 0
	pe := partitionElim{
		Diag:      local.Diag[off : off+size],
		Lower:     local.Lower[off : off+size-1],
		Interiors: dp.interior,
		Base:      dp.part.Lo,
		TwoSided:  dp.global != 0,
		NewBB: func() *dense.Matrix {
			m := dp.chain[used]
			used++
			return m
		},
		Kind: "rank", ID: f.rank,
		L: dp.l, GNext: dp.gNext, GTop: dp.gTop, GArr: dp.gArr,
		Prec: f.opts.Precision, Shadow: dp.shadow,
	}
	if f.a > 0 {
		pe.Arrow = local.Arrow[off : off+size]
		pe.TipDelta = dp.tipDelta
	}
	err := pe.run()
	// Transfer the sweep outputs even on failure: the elimination state must
	// stay reachable for DistScratch.Reclaim.
	dp.l, dp.gNext, dp.gTop, dp.gArr, dp.fill = pe.L, pe.GNext, pe.GTop, pe.GArr, pe.Fill
	if err != nil {
		return err
	}

	// Record boundary state.
	for _, gbl := range boundaries(dp.part, dp.global, f.p) {
		dp.bndDiag = append(dp.bndDiag, local.Diag[gbl-f.span.Lo])
		if f.a > 0 {
			dp.bndArrow = append(dp.bndArrow, local.Arrow[gbl-f.span.Lo])
		}
	}
	if dp.global > 0 {
		if off == 0 {
			dp.topCoupling = local.TopCoupling // coupling to the previous rank
		} else {
			dp.topCoupling = local.Lower[off-1] // rank-internal partition border
		}
	}
	return nil
}

// assembleAndFactorReduced gathers every partition's boundary contributions
// on rank 0, assembles the 2P−2-block reduced BTA system, and hands it to
// the reduced engine. With the pipelined handoff rank 0 interleaves reduced
// elimination with the arrival of later ranks' contributions; otherwise it
// assembles eagerly and factorizes once everything landed (the historical
// path, bit for bit).
func (f *DistFactor) assembleAndFactorReduced(c *comm.Comm, local *LocalBTA) error {
	nr := reducedSize(f.p)
	hasArrow := f.a > 0

	if f.rank != 0 {
		// Ship boundary contributions to rank 0, one partition at a time in
		// owned order (the receiver walks the same order). The sends are
		// eager, so each partition's contribution is in flight the moment
		// the node gang produced it — the streaming half of the handoff.
		for _, dp := range f.parts {
			for i, d := range dp.bndDiag {
				c.SendMatrix(0, tagDiag+i, d)
			}
			c.SendMatrix(0, tagCoupling, dp.topCoupling)
			if dp.fill != nil {
				c.SendMatrix(0, tagCoupling+1, dp.fill)
			}
			if hasArrow {
				for i, am := range dp.bndArrow {
					c.SendMatrix(0, tagArrow+i, am)
				}
			}
		}
		if hasArrow {
			c.SendMatrix(0, tagTip, f.tipSum())
		}
		return nil
	}

	red := f.newReduced(nr)
	eng, err := f.reducedEngineFor(red, nr)
	if err != nil {
		return err
	}

	pipeline := f.opts.Reduced.Pipeline && !eng.recursing()
	var rf *redFrontier
	if pipeline {
		rf = &f.frontier
		rf.reset(red, f.p, nil)
	}

	// Rank 0's own partitions. The tip deltas of ALL owned partitions fold
	// here (eager path keeps its historical summation order; the frontier
	// path folds before any elimination step, which is equally fixed).
	dp0 := f.parts[0]
	red.Diag[0].CopyFrom(dp0.bndDiag[0])
	if hasArrow {
		red.Arrow[0].CopyFrom(dp0.bndArrow[0])
		red.Tip.CopyFrom(f.localTip)
		for _, dp := range f.parts {
			red.Tip.Add(1, dp.tipDelta)
		}
	}
	for _, dp := range f.parts[1:] {
		f.installReducedLocal(red, dp)
	}
	if pipeline {
		// Rank 0's own blocks are complete: start the reduced elimination
		// while remote ranks are still eliminating/sending.
		c.Compute(func() { rf.advance(f.base[0] + f.counts[0] - 1) })
	}

	// Remote ranks: receive each rank's partitions in its send order,
	// advancing the elimination frontier past each rank's blocks as they
	// land when pipelining.
	for r := 1; r < f.ranks; r++ {
		for jj := 0; jj < f.counts[r]; jj++ {
			g := f.base[r] + jj
			top := reducedIndexTop(g)
			red.Lower[top-1].CopyFrom(c.RecvMatrix(r, tagCoupling)) // (lo_g, hi_{g−1})
			red.Diag[top].CopyFrom(c.RecvMatrix(r, tagDiag))
			if g < f.p-1 {
				red.Diag[top+1].CopyFrom(c.RecvMatrix(r, tagDiag+1))
				fill := c.RecvMatrix(r, tagCoupling+1)
				fill.TransposeInto(red.Lower[top]) // (hi_g, lo_g) = fillᵀ
				if hasArrow {
					red.Arrow[top].CopyFrom(c.RecvMatrix(r, tagArrow))
					red.Arrow[top+1].CopyFrom(c.RecvMatrix(r, tagArrow+1))
				}
			} else if hasArrow {
				red.Arrow[top].CopyFrom(c.RecvMatrix(r, tagArrow))
			}
		}
		if hasArrow {
			red.Tip.Add(1, c.RecvMatrix(r, tagTip))
		}
		if pipeline {
			c.Compute(func() { rf.advance(f.base[r] + f.counts[r] - 1) })
		}
	}
	c.Compute(func() {
		if pipeline {
			eng.rebind(red)
			err = rf.finish()
		} else {
			err = eng.factorize(red)
		}
		if err == nil {
			f.redM = red
			f.red = eng
		} else if f.scr != nil {
			// Failed reduced factorization: hand the (recycled) storage
			// straight back rather than dropping it with the dead factor.
			f.scr.red = red
		}
	})
	return err
}

// installReducedLocal copies one of rank 0's own non-first partitions'
// boundary contributions into the reduced system (the message-free
// counterpart of the remote receive path).
func (f *DistFactor) installReducedLocal(red *Matrix, dp *distPart) {
	top := reducedIndexTop(dp.global)
	red.Lower[top-1].CopyFrom(dp.topCoupling)
	red.Diag[top].CopyFrom(dp.bndDiag[0])
	if dp.global < f.p-1 {
		red.Diag[top+1].CopyFrom(dp.bndDiag[1])
		dp.fill.TransposeInto(red.Lower[top])
		if f.a > 0 {
			red.Arrow[top].CopyFrom(dp.bndArrow[0])
			red.Arrow[top+1].CopyFrom(dp.bndArrow[1])
		}
	} else if f.a > 0 {
		red.Arrow[top].CopyFrom(dp.bndArrow[0])
	}
}

// shareLogDet computes log|A| collectively: interior contributions from all
// owned partitions plus the reduced factor's log-determinant from rank 0.
func (f *DistFactor) shareLogDet(c *comm.Comm) {
	var localSum float64
	for _, dp := range f.parts {
		for _, lk := range dp.l {
			for i := 0; i < f.b; i++ {
				localSum += logOf(lk.At(i, i))
			}
		}
	}
	localSum *= 2
	if f.rank == 0 && f.red != nil {
		localSum += f.red.logDet()
	}
	total := c.AllReduceSum([]float64{localSum})
	f.logDet = total[0]
}
