package bta

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"time"

	"github.com/dalia-hpc/dalia/internal/dense"
	"github.com/dalia-hpc/dalia/internal/sched"
)

// Precomputed pprof label contexts for the DAG phases: applying a label set
// is allocation-free, so `dalia-bench -cpuprofile` attributes samples per
// phase without disturbing the AllocsPerRun pins.
var (
	labelElim    = sched.LabelCtx("phase", "elim")
	labelReduced = sched.LabelCtx("phase", "reduced")
	labelSweep   = sched.LabelCtx("phase", "sweep")
	labelSigma   = sched.LabelCtx("phase", "sigma")
	labelNone    = context.Background()
)

// phaseLabelCtx maps a gang phase to its pprof label context: interior
// eliminations are "elim" and forward/backward substitutions "sweep"
// ("reduced" and "sigma" are applied around the boundary-system work and the
// selected-inversion tasks directly).
func phaseLabelCtx(ph int) context.Context {
	if ph == phaseElim {
		return labelElim
	}
	return labelSweep
}

// relabel swaps the calling goroutine's pprof label set (alloc-free).
func relabel(ctx context.Context) { pprof.SetGoroutineLabels(ctx) }

// DefaultLoadBalance is the load-balance factor ParallelFactor hands to
// PartitionBlocks: the first partition runs the cheaper one-sided
// elimination (no top-boundary updates, §V-C), so it gets ~1.7× the blocks
// of the two-sided partitions to equalize the per-partition makespan.
const DefaultLoadBalance = 1.7

// MaxPartitions returns the largest partition count PartitionBlocks accepts
// for n diagonal blocks (middle partitions need two boundary blocks, so
// n ≥ 2p−2).
func MaxPartitions(n int) int {
	p := (n + 2) / 2
	if p < 1 {
		p = 1
	}
	return p
}

// MaxUsefulPartitions bounds the parallel-in-time width by diminishing
// returns rather than bare partitionability: beyond n/4 partitions the
// 2P−2-block sequential reduced system rivals the per-partition interior
// work and the speedup collapses (§V-B's strong-scaling knee). This is the
// clamp schedulers should use when converting a core budget to a width.
func MaxUsefulPartitions(n int) int {
	p := n / 4
	if mx := MaxPartitions(n); p > mx {
		p = mx
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Gang phases dispatched to the partition tasks. Per-call inputs travel
// through the curM/curRhs/curMS fields, set before the tasks spawn.
const (
	phaseElim = iota
	phaseFwd
	phaseBwd
	phaseFwdMS
	phaseBwdMS
)

// partState is one partition's persistent slice of the parallel factor:
// elimination outputs, fill-chain storage, Schur/tip accumulators and the
// selected-inversion sweep scratch. Everything is allocated once at
// construction so repeated Refactorize/Solve/SelectedInversionInto cycles
// stay allocation-free.
type partState struct {
	part      Partition
	interiors []int // global block indices, elimination order

	chain     []*dense.Matrix // fill-coupling blocks M(lo,·), b×b
	chainUsed int
	newBB     func() *dense.Matrix // prebuilt pop-from-chain closure

	// partitionElim output backings (gTop is the one the solves consume;
	// l/gNext/gArr are recoverable from the global storage by index).
	l, gNext, gTop, gArr []*dense.Matrix
	fill                 *dense.Matrix
	tipDelta             *dense.Matrix // a×a Schur accumulator
	tipVec               []float64     // a-vector forward-solve accumulator

	// multi-RHS forward accumulator: backing grown to the widest batch
	// seen, plus memoized width views (cleared when the backing regrows).
	tipMS      *dense.Matrix
	tipMSViews map[int]*dense.Matrix

	// selected-inversion sweep scratch
	gN, gT, tmpB *dense.Matrix    // b×b
	gA           *dense.Matrix    // a×b
	loBuf        [2]*dense.Matrix // b×b ping-pong for the rolling Σ(lo,·)

	// fp32 shadow arena of the interior sweep (nil under PrecFloat64)
	shadow *elimShadow32

	err error
}

// ParallelFactor is the shared-memory parallel-in-time BTA solver: the
// PPOBTAF/PPOBTAS/PPOBTASI scheme of §IV-C–E run over goroutines instead of
// communicator ranks. The nt diagonal blocks are split into P contiguous
// partitions (PartitionBlocks); Refactorize eliminates every partition's
// interior blocks concurrently (two-sided for non-first partitions), then
// factorizes the 2P−2-block reduced boundary system sequentially. Solves
// and the selected inversion follow the same interior-parallel /
// reduced-sequential structure.
//
// Unlike the comm-based DistFactor there are no ranks and no message
// copies: all partitions share the factor's block storage, boundary Schur
// contributions land in per-partition accumulators, and the reduced system
// is assembled by plain block copies. All storage — including the task nodes
// and their prebuilt bodies — is created at construction, so every operation
// of the Solver surface is allocation-free after warmup.
//
// A ParallelFactor is not safe for concurrent use of the same instance
// (exactly like Factor); different instances may run concurrently.
type ParallelFactor struct {
	N, B, A int
	P       int

	opts  ParallelOptions
	parts []Partition
	store *Matrix // factor block storage, Matrix layout

	seq *Factor // P == 1 delegate over store (nil otherwise)

	ps        []*partState
	red       *Matrix        // reduced boundary system, 2P−2 blocks
	eng       *reducedEngine // sequential or recursively nested reduced solver
	redSig    *Matrix        // reduced selected inverse
	redRhs    []float64
	redGlobal []int       // reduced block index → global block index
	redMS     *MultiSolve // lazily sized multi-RHS reduced workspace

	// Task-DAG scheduling state: the executor the factor's phases run on,
	// the join group, and the caller-owned task nodes reused across cycles —
	// phase tasks for partitions 1..P−1, pipelined-elimination tasks for all
	// partitions, and the Σ-scatter DAG's install→sweep pairs.
	ex          *sched.Executor
	g           sched.Group
	tasks       []sched.Task
	tasksPipe   []sched.Task
	taskInstall []sched.Task
	taskSweep   []sched.Task
	fnPhase     []func()
	fnInstall   []func()
	fnSweep     []func()

	phase int
	// per-call inputs for the phase tasks
	curM   *Matrix
	curRhs []float64
	curMS  *MultiSolve
	curSig *Matrix

	// pipelined-handoff state: one prebuilt task body per partition signalling
	// its elimination completion, the delivery bitmap, the incremental
	// reduced-factorization frontier, and the per-partition tip deltas in
	// the frontier's fold order.
	workPipe  []func()
	elimDone  chan int
	delivered []bool
	frontier  redFrontier
	tipDeltas []*dense.Matrix

	// Mixed-precision state (precision.go): the retained input matrix of the
	// last Refactorize (fp64 residual corrections), the low flag, and the
	// refinement scratch. Same single-instance concurrency contract as the
	// rest of the struct.
	ref        *Matrix
	low        bool
	lastRefine int
	refB, refR []float64

	// wall-clock split of the last Refactorize (FactorPhaseSeconds).
	elimSeconds  float64
	totalSeconds float64
}

// ParallelOptions configures a shared-memory parallel-in-time factor beyond
// the partition count.
type ParallelOptions struct {
	// Partitions is the parallel-in-time width P (< 1 is treated as 1).
	Partitions int
	// LoadBalance is the §V-C first-partition factor handed to
	// PartitionBlocks (0 = DefaultLoadBalance).
	LoadBalance float64
	// Reduced configures the 2P−2 reduced boundary system: recursive
	// nesting depth, recursion crossover, and the pipelined boundary
	// handoff.
	Reduced ReducedOptions
	// Precision selects the per-stage precision policy: under PrecMixed the
	// partition interior sweeps run fp32 (with per-partition fp64 fallback on
	// lost definiteness) while the reduced boundary system stays fp64, and
	// solves run fp64 iterative refinement. See the Precision doc.
	Precision Precision
	// MaxRefine caps the fp64 residual corrections per refined solve
	// (0 = DefaultMaxRefine).
	MaxRefine int
	// Executor overrides the task executor the partition phases run on
	// (nil = sched.Shared()).
	Executor *sched.Executor
}

// NewParallelFactor allocates a parallel-in-time factor for the BTA shape
// (n, b, a) over p partitions with the default options (sequential reduced
// solve, no pipelining — the historical behaviour). p = 1 degenerates to
// the sequential POBTAF chain behind the same interface. Partition counts
// the time dimension cannot support (n < 2p−2) are an error; MaxPartitions
// gives the bound.
func NewParallelFactor(n, b, a, p int) (*ParallelFactor, error) {
	return NewParallelFactorOpts(n, b, a, ParallelOptions{Partitions: p})
}

// NewParallelFactorOpts is NewParallelFactor with the reduced-system engine
// configured: recursion depth/crossover for the nested reduced
// factorization and the pipelined boundary handoff.
func NewParallelFactorOpts(n, b, a int, o ParallelOptions) (*ParallelFactor, error) {
	p := o.Partitions
	if p < 1 {
		p = 1
	}
	o.Partitions = p
	o.Reduced = o.Reduced.normalize()
	f := &ParallelFactor{N: n, B: b, A: a, P: p, opts: o, store: NewMatrix(n, b, a)}
	if p == 1 {
		f.parts = []Partition{{0, n - 1}}
		f.seq = &Factor{N: n, B: b, A: a,
			Diag: f.store.Diag, Lower: f.store.Lower, Arrow: f.store.Arrow, Tip: f.store.Tip}
		f.seq.SetPrecision(o.Precision)
		f.seq.SetMaxRefine(o.MaxRefine)
		return f, nil
	}
	lb := o.LoadBalance
	if lb <= 0 {
		lb = DefaultLoadBalance
	}
	parts, err := PartitionBlocks(n, p, lb)
	if err != nil {
		// The load-balanced split can fail on tiny block counts where the
		// even split still fits.
		parts, err = PartitionBlocks(n, p, 1)
		if err != nil {
			return nil, err
		}
	}
	f.parts = parts

	nr := reducedSize(p)
	f.red = NewMatrix(nr, b, a)
	f.eng, err = newReducedEngine(f.red, o.Reduced)
	if err != nil {
		return nil, err
	}
	f.redSig = NewMatrix(nr, b, a)
	f.redRhs = make([]float64, nr*b+a)
	f.redGlobal = make([]int, nr)
	f.redGlobal[0] = parts[0].Hi
	for r := 1; r < p; r++ {
		f.redGlobal[reducedIndexTop(r)] = parts[r].Lo
		if r < p-1 {
			f.redGlobal[reducedIndexBot(r)] = parts[r].Hi
		}
	}

	f.ps = make([]*partState, p)
	for r := 0; r < p; r++ {
		ps := &partState{part: parts[r]}
		ps.interiors = interiors(parts[r], r, p)
		nInt := len(ps.interiors)
		if r > 0 {
			ps.chain = make([]*dense.Matrix, nInt+1)
			for i := range ps.chain {
				ps.chain[i] = dense.New(b, b)
			}
		}
		ps.newBB = func() *dense.Matrix {
			m := ps.chain[ps.chainUsed]
			ps.chainUsed++
			return m
		}
		ps.l = make([]*dense.Matrix, 0, nInt)
		ps.gNext = make([]*dense.Matrix, 0, nInt)
		ps.gTop = make([]*dense.Matrix, 0, nInt)
		ps.gArr = make([]*dense.Matrix, 0, nInt)
		if a > 0 {
			ps.tipDelta = dense.New(a, a)
			ps.tipVec = make([]float64, a)
			ps.gA = dense.New(a, b)
		}
		ps.gN = dense.New(b, b)
		ps.tmpB = dense.New(b, b)
		if r > 0 {
			ps.gT = dense.New(b, b)
			ps.loBuf[0] = dense.New(b, b)
			ps.loBuf[1] = dense.New(b, b)
		}
		ps.tipMSViews = map[int]*dense.Matrix{}
		if o.Precision == PrecMixed {
			size := parts[r].Hi - parts[r].Lo + 1
			nChain := 0
			if r > 0 {
				nChain = nInt + 1
			}
			ps.shadow = newElimShadow32(size, nChain, b, a)
		}
		f.ps[r] = ps
	}

	// Phases are spawned as caller-owned task nodes on the work-stealing
	// executor. Bodies are prebuilt once here so steady-state spawning stays
	// allocation-free.
	f.ex = o.Executor
	if f.ex == nil {
		f.ex = sched.Shared()
	}
	f.g.Init(f.ex)
	f.tasks = make([]sched.Task, p)
	f.tasksPipe = make([]sched.Task, p)
	f.taskInstall = make([]sched.Task, p)
	f.taskSweep = make([]sched.Task, p)
	f.fnPhase = make([]func(), p)
	f.fnInstall = make([]func(), p)
	f.fnSweep = make([]func(), p)
	for r := 1; r < p; r++ {
		r := r
		f.fnPhase[r] = func() { f.partitionPhase(r) }
		f.fnInstall[r] = func() { f.installSigmaPart(r) }
		f.fnSweep[r] = func() { f.ps[r].err = f.sweepPartition(r, f.curSig) }
	}
	// Pipelined-handoff bodies: every partition (0 included) signals its
	// identity on completion, so the calling goroutine can stream boundary
	// contributions into the reduced assembly while later partitions are
	// still eliminating.
	f.elimDone = make(chan int, p)
	f.workPipe = make([]func(), p)
	for r := 0; r < p; r++ {
		r := r
		f.workPipe[r] = func() {
			f.partitionPhase(r)
			f.elimDone <- r
		}
	}
	f.delivered = make([]bool, p)
	f.tipDeltas = make([]*dense.Matrix, p)
	for r, ps := range f.ps {
		f.tipDeltas[r] = ps.tipDelta
	}
	return f, nil
}

// Options returns the options the factor was built with (normalized).
func (f *ParallelFactor) Options() ParallelOptions { return f.opts }

// ReducedRecursing reports whether the reduced boundary system is
// factorized by a recursively nested partition gang (depth and crossover
// permitting) rather than the sequential kernel.
func (f *ParallelFactor) ReducedRecursing() bool { return f.P > 1 && f.eng.recursing() }

// FactorPhaseSeconds returns the wall-clock split of the last Refactorize:
// elim is the time until the last partition finished its interior
// elimination, tail the remainder — the reduced-system work that did not
// overlap the interior sweeps. tail/(elim+tail) is the serial fraction the
// reduced-system engine attacks; both are 0 for P = 1 (no reduced system).
func (f *ParallelFactor) FactorPhaseSeconds() (elim, tail float64) {
	if f.P == 1 {
		return 0, 0
	}
	return f.elimSeconds, f.totalSeconds - f.elimSeconds
}

// Parts returns the time-domain partitioning.
func (f *ParallelFactor) Parts() []Partition { return f.parts }

// Dim returns the full system dimension.
func (f *ParallelFactor) Dim() int { return f.N*f.B + f.A }

// runPhase fans the current phase out to the partition gang: partitions
// 1..P−1 become tasks on a pooled lane of the executor — runnable by any
// worker or helping joiner, and interleaved with tasks from other concurrent
// operations — while partition 0 runs on the calling goroutine, which then
// help-joins. Every partition's work has completed when runPhase returns.
func (f *ParallelFactor) runPhase(ph int) {
	f.phase = ph
	lbl := phaseLabelCtx(ph)
	l := f.ex.AcquireLane()
	f.g.Add(f.P - 1)
	for r := 1; r < f.P; r++ {
		f.tasks[r].Reset(f.ex, &f.g, f.fnPhase[r], lbl)
		l.Spawn(&f.tasks[r])
	}
	relabel(lbl)
	f.partitionPhase(0)
	f.g.Wait(l)
	relabel(labelNone)
	f.ex.ReleaseLane(l)
}

func (f *ParallelFactor) partitionPhase(r int) {
	switch f.phase {
	case phaseElim:
		f.ps[r].err = f.elimPartition(r)
	case phaseFwd:
		f.forwardPartition(r, f.curRhs)
	case phaseBwd:
		f.backwardPartition(r, f.curRhs)
	case phaseFwdMS:
		f.forwardPartitionMS(r, f.curMS)
	case phaseBwdMS:
		f.backwardPartitionMS(r, f.curMS)
	}
}

// Refactorize recomputes the parallel factorization of m in place of f's
// storage (the PPOBTAF sweep). m is not modified. On error the factor
// contents are undefined until the next successful Refactorize; all
// recycled scratch (fill chains, accumulators) is retained either way, so
// infeasible-θ failures in the INLA loop cost no allocation churn.
func (f *ParallelFactor) Refactorize(m *Matrix) error {
	if f.N != m.N || f.B != m.B || f.A != m.A {
		return fmt.Errorf("bta: refactorize shape mismatch: parallel factor (n=%d,b=%d,a=%d), matrix (n=%d,b=%d,a=%d)",
			f.N, f.B, f.A, m.N, m.B, m.A)
	}
	if f.P == 1 {
		return f.seq.Refactorize(m)
	}
	// Retained for the fp64 residual corrections of refined solves; m must
	// stay unchanged until the next Refactorize (see Factor.Refactorize).
	f.ref = m
	f.low = false
	t0 := time.Now()
	if f.A > 0 {
		f.store.Tip.CopyFrom(m.Tip)
	}
	f.curM = m
	var err error
	if f.opts.Reduced.Pipeline {
		err = f.refactorizePipelined(t0)
	} else {
		f.runPhase(phaseElim)
		f.elimSeconds = time.Since(t0).Seconds()
		err = nil
		for _, ps := range f.ps {
			if ps.err != nil {
				err = ps.err
				break
			}
		}
		if err == nil {
			err = f.factorReduced()
		}
	}
	f.curM = nil
	f.totalSeconds = time.Since(t0).Seconds()
	// Partitions whose fp32 sweep fell back to fp64 only tighten the factor;
	// the refinement loop converges faster there, so the whole factor is
	// treated as low whenever the policy is mixed.
	f.low = err == nil && f.opts.Precision == PrecMixed
	return err
}

// refactorizePipelined is the pipelined-boundary-handoff elimination: every
// partition runs as its own task and reports completion, while this (the
// calling) goroutine streams finished partitions' boundary blocks into
// the reduced assembly in partition order. With the sequential reduced
// engine the assembly feeds the incremental factorization frontier, so
// reduced-phase work overlaps the tail of the interior sweeps; with a
// nested (recursive) engine the streaming covers the assembly copies and
// the nested gang launches once the last contribution lands.
func (f *ParallelFactor) refactorizePipelined(t0 time.Time) error {
	for i := range f.delivered {
		f.delivered[i] = false
	}
	f.phase = phaseElim
	// Every partition (0 included) becomes an elimination task that signals
	// its identity on completion; the calling goroutine streams the reduced
	// assembly below and runs pending tasks between completion signals
	// (recvElim), so it is a full gang member too. The tasks are also
	// counted into the join group: the channel send happens inside the task
	// body, so the group join below is what guarantees the node epilogues
	// finished before the nodes are reused by the next Refactorize.
	lane := f.ex.AcquireLane()
	f.g.Add(f.P)
	for r := 0; r < f.P; r++ {
		f.tasksPipe[r].Reset(f.ex, &f.g, f.workPipe[r], labelElim)
		lane.Spawn(&f.tasksPipe[r])
	}
	red := f.red
	if f.A > 0 {
		red.Tip.CopyFrom(f.store.Tip)
	}
	stream := !f.eng.recursing()
	if stream {
		f.frontier.reset(red, f.P, f.tipDeltas)
	}
	installed := -1
	failed := false
	for done := 0; done < f.P; done++ {
		r := f.recvElim(lane)
		if done == f.P-1 {
			// The interior phase ends here — before the trailing installs
			// and frontier steps below, which are exactly the reduced work
			// that did NOT overlap the sweeps and must land in the tail.
			f.elimSeconds = time.Since(t0).Seconds()
		}
		f.delivered[r] = true
		if f.ps[r].err != nil {
			failed = true
		}
		if failed {
			continue
		}
		relabel(labelReduced)
		for installed+1 < f.P && f.delivered[installed+1] {
			installed++
			f.installReducedPart(installed)
			if stream {
				f.frontier.advance(installed)
			}
		}
		relabel(labelNone)
	}
	f.g.Wait(lane)
	f.ex.ReleaseLane(lane)
	// Surface elimination failures deterministically (partition order).
	for _, ps := range f.ps {
		if ps.err != nil {
			return ps.err
		}
	}
	relabel(labelReduced)
	defer relabel(labelNone)
	if stream {
		if err := f.frontier.finish(); err != nil {
			return fmt.Errorf("bta: reduced boundary system: %w", err)
		}
		return nil
	}
	if f.A > 0 {
		for _, ps := range f.ps {
			red.Tip.Add(1, ps.tipDelta)
		}
	}
	if err := f.eng.factorize(red); err != nil {
		return fmt.Errorf("bta: reduced boundary system: %w", err)
	}
	return nil
}

// recvElim receives one partition-completion signal. The calling goroutine
// runs pending light tasks between polls — it is both the reduced-assembly
// streamer and a gang member — and blocks on the channel only when nothing
// is runnable (its own tasks are then in flight on other goroutines).
func (f *ParallelFactor) recvElim(lane *sched.Lane) int {
	for {
		select {
		case r := <-f.elimDone:
			return r
		default:
		}
		if !lane.Help() {
			return <-f.elimDone
		}
	}
}

// elimPartition copies the partition's slice of the input matrix into the
// shared factor storage and runs the shared interior elimination core on it.
func (f *ParallelFactor) elimPartition(r int) error {
	ps := f.ps[r]
	lo, hi := ps.part.Lo, ps.part.Hi
	m := f.curM
	for k := lo; k <= hi; k++ {
		f.store.Diag[k].CopyFrom(m.Diag[k])
		if k < hi {
			f.store.Lower[k].CopyFrom(m.Lower[k])
		}
		if f.A > 0 {
			f.store.Arrow[k].CopyFrom(m.Arrow[k])
		}
	}
	if r > 0 {
		f.store.Lower[lo-1].CopyFrom(m.Lower[lo-1])
	}

	ps.chainUsed = 0
	pe := partitionElim{
		Diag:      f.store.Diag[lo : hi+1],
		Lower:     f.store.Lower[lo:hi],
		Interiors: ps.interiors,
		Base:      lo,
		TwoSided:  r != 0,
		NewBB:     ps.newBB,
		Kind:      "partition",
		ID:        r,
		L:         ps.l[:0],
		GNext:     ps.gNext[:0],
		GTop:      ps.gTop[:0],
		GArr:      ps.gArr[:0],
		Prec:      f.opts.Precision,
		Shadow:    ps.shadow,
	}
	if f.A > 0 {
		pe.Arrow = f.store.Arrow[lo : hi+1]
		ps.tipDelta.Zero()
		pe.TipDelta = ps.tipDelta
	}
	err := pe.run()
	ps.l, ps.gNext, ps.gTop, ps.gArr, ps.fill = pe.L, pe.GNext, pe.GTop, pe.GArr, pe.Fill
	return err
}

// factorReduced assembles the 2P−2-block reduced boundary system from the
// post-elimination boundary blocks and hands it to the reduced engine
// (sequential in-place factorization, or the nested gang when recursing).
func (f *ParallelFactor) factorReduced() error {
	relabel(labelReduced)
	defer relabel(labelNone)
	red := f.red
	if f.A > 0 {
		red.Tip.CopyFrom(f.store.Tip)
		for _, ps := range f.ps {
			red.Tip.Add(1, ps.tipDelta)
		}
	}
	for r := 0; r < f.P; r++ {
		f.installReducedPart(r)
	}
	if err := f.eng.factorize(red); err != nil {
		return fmt.Errorf("bta: reduced boundary system: %w", err)
	}
	return nil
}

// installReducedPart copies partition r's boundary contribution into the
// reduced system: its post-elimination boundary Diag/Arrow blocks, the
// untouched coupling to the previous partition, and the remaining
// boundary-boundary fill of middle partitions. Safe to call as soon as
// partition r's elimination finished — every destination block belongs to r
// alone. Tip deltas are deliberately excluded (the caller folds them at
// fixed points of the operation sequence).
func (f *ParallelFactor) installReducedPart(r int) {
	red, parts := f.red, f.parts
	hasArrow := f.A > 0
	if r == 0 {
		red.Diag[0].CopyFrom(f.store.Diag[parts[0].Hi])
		if hasArrow {
			red.Arrow[0].CopyFrom(f.store.Arrow[parts[0].Hi])
		}
		return
	}
	top := reducedIndexTop(r)
	lo, hi := parts[r].Lo, parts[r].Hi
	red.Lower[top-1].CopyFrom(f.store.Lower[lo-1]) // (lo_r, hi_{r−1}), untouched original
	red.Diag[top].CopyFrom(f.store.Diag[lo])
	if hasArrow {
		red.Arrow[top].CopyFrom(f.store.Arrow[lo])
	}
	if r < f.P-1 {
		red.Diag[top+1].CopyFrom(f.store.Diag[hi])
		f.ps[r].fill.TransposeInto(red.Lower[top]) // (hi_r, lo_r) = M(lo_r, hi_r)ᵀ
		if hasArrow {
			red.Arrow[top+1].CopyFrom(f.store.Arrow[hi])
		}
	}
}

// LogDet returns log|A|: interior Cholesky diagonals plus the reduced
// factor's log-determinant.
func (f *ParallelFactor) LogDet() float64 {
	if f.P == 1 {
		return f.seq.LogDet()
	}
	var s float64
	for _, ps := range f.ps {
		for _, k := range ps.interiors {
			d := f.store.Diag[k]
			for i := 0; i < f.B; i++ {
				s += math.Log(d.At(i, i))
			}
		}
	}
	return 2*s + f.eng.logDet()
}

// Solve solves A·x = rhs in place of rhs (the PPOBTAS sweeps in shared
// memory): parallel forward elimination over the partition interiors, a
// sequential reduced solve over the boundaries, parallel backward
// substitution.
func (f *ParallelFactor) Solve(rhs []float64) {
	if len(rhs) < f.Dim() {
		panic(fmt.Sprintf("bta: solve rhs length %d < %d", len(rhs), f.Dim()))
	}
	if f.P == 1 {
		f.seq.Solve(rhs)
		return
	}
	if f.low {
		f.solveRefined(rhs)
		return
	}
	f.solveOnce(rhs)
}

// solveOnce is the unrefined PPOBTAS sweep.
func (f *ParallelFactor) solveOnce(rhs []float64) {
	f.curRhs = rhs
	f.runPhase(phaseFwd)
	f.gatherRhs(rhs, true)
	f.eng.solve(f.redRhs)
	f.scatterRhs(rhs)
	f.runPhase(phaseBwd)
	f.curRhs = nil
}

// solveRefined is Solve against a mixed-precision factor: fp64 residual
// corrections against the retained input matrix, exactly as in
// Factor.solveRefined but with the parallel sweep as the inner solver.
func (f *ParallelFactor) solveRefined(rhs []float64) {
	d := f.Dim()
	f.refB = growF(f.refB, d)
	f.refR = growF(f.refR, d)
	b0, r := f.refB, f.refR
	x := rhs[:d]
	copy(b0, x)
	f.solveOnce(x)
	maxR := f.opts.MaxRefine
	if maxR <= 0 {
		maxR = DefaultMaxRefine
	}
	iters := 0
	for iters < maxR {
		f.ref.MulVec(x, r)
		for i := range r {
			r[i] = b0[i] - r[i]
		}
		f.solveOnce(r)
		iters++
		var ndx, nx float64
		for i := range r {
			x[i] += r[i]
			if v := math.Abs(r[i]); v > ndx {
				ndx = v
			}
			if v := math.Abs(x[i]); v > nx {
				nx = v
			}
		}
		if ndx <= refineTol*nx {
			break
		}
	}
	f.lastRefine = iters
}

// LastRefineIters reports the fp64 residual corrections of the most recent
// refined solve (0 after a pure-fp64 solve).
func (f *ParallelFactor) LastRefineIters() int {
	if f.P == 1 {
		return f.seq.LastRefineIters()
	}
	return f.lastRefine
}

// Low reports whether the current factor blocks came from the fp32 sweeps.
func (f *ParallelFactor) Low() bool {
	if f.P == 1 {
		return f.seq.Low()
	}
	return f.low
}

// promote replaces a mixed factor with a full fp64 refactorization of the
// retained matrix — for operations with no residual to refine against
// (sampling half-solves, multi-RHS half solves, selected inversion). Cannot
// lose definiteness: fp64 is strictly more robust than the fp32 sweep that
// already succeeded. No-op on fp64 factors.
func (f *ParallelFactor) promote() {
	if !f.low || f.ref == nil {
		return
	}
	saved := f.opts.Precision
	f.opts.Precision = PrecFloat64
	err := f.Refactorize(f.ref)
	f.opts.Precision = saved
	if err != nil {
		panic(fmt.Sprintf("bta: fp64 promotion of an fp32-feasible parallel factor failed: %v", err))
	}
}

// SolveLT solves L̃ᵀ·x = x in place for the parallel factor's own Cholesky
// ordering (interiors first, boundaries last). For z ~ N(0, I) the result
// has covariance A⁻¹ — i.i.d. Gaussian vectors are invariant under the
// implicit symmetric permutation — so GMRF sampling works identically
// through either backend.
func (f *ParallelFactor) SolveLT(x []float64) {
	if len(x) < f.Dim() {
		panic(fmt.Sprintf("bta: SolveLT length %d < %d", len(x), f.Dim()))
	}
	if f.P == 1 {
		f.seq.SolveLT(x)
		return
	}
	f.promote() // half-solves have no residual to refine against
	f.gatherRhs(x, false)
	f.eng.solveLT(f.redRhs)
	f.scatterRhs(x)
	f.curRhs = x
	f.runPhase(phaseBwd)
	f.curRhs = nil
}

// gatherRhs copies the boundary blocks and the tip into the reduced
// right-hand side. withAcc folds the partitions' forward tip accumulators
// in — only correct right after a forward phase.
func (f *ParallelFactor) gatherRhs(rhs []float64, withAcc bool) {
	b, a := f.B, f.A
	for i, g := range f.redGlobal {
		copy(f.redRhs[i*b:(i+1)*b], rhs[g*b:(g+1)*b])
	}
	if a > 0 {
		tip := f.redRhs[len(f.redGlobal)*b:]
		copy(tip, rhs[f.N*b:f.N*b+a])
		if withAcc {
			for _, ps := range f.ps {
				dense.Axpy(1, ps.tipVec, tip)
			}
		}
	}
}

// scatterRhs copies the reduced solution back into the boundary and tip
// slots of the full vector.
func (f *ParallelFactor) scatterRhs(rhs []float64) {
	b, a := f.B, f.A
	for i, g := range f.redGlobal {
		copy(rhs[g*b:(g+1)*b], f.redRhs[i*b:(i+1)*b])
	}
	if a > 0 {
		copy(rhs[f.N*b:f.N*b+a], f.redRhs[len(f.redGlobal)*b:])
	}
}

// solveCore builds the shared partition-relative solve core over partition
// r's elimination outputs (valid after a successful Refactorize).
func (f *ParallelFactor) solveCore(r int) partitionSolve {
	ps := f.ps[r]
	return partitionSolve{
		L: ps.l, GNext: ps.gNext, GTop: ps.gTop, GArr: ps.gArr,
		Interiors: ps.interiors, Base: ps.part.Lo, B: f.B,
	}
}

// forwardPartition runs the interior forward elimination of one partition
// through the shared partitionSolve core, accumulating arrow contributions
// in the partition's private tip accumulator.
func (f *ParallelFactor) forwardPartition(r int, rhs []float64) {
	ps := f.ps[r]
	for i := range ps.tipVec {
		ps.tipVec[i] = 0
	}
	pv := f.solveCore(r)
	pv.forward(rhs[ps.part.Lo*f.B:(ps.part.Hi+1)*f.B], ps.tipVec)
}

// backwardPartition runs the interior backward substitution of one
// partition against the already-final boundary and tip solutions.
func (f *ParallelFactor) backwardPartition(r int, rhs []float64) {
	ps := f.ps[r]
	var xa []float64
	if f.A > 0 {
		xa = rhs[f.N*f.B : f.N*f.B+f.A]
	}
	pv := f.solveCore(r)
	pv.backward(rhs[ps.part.Lo*f.B:(ps.part.Hi+1)*f.B], xa)
}

// reducedMS returns the reduced multi-RHS workspace narrowed to k columns,
// growing the backing on first use (or a wider batch than ever seen).
func (f *ParallelFactor) reducedMS(k int) *MultiSolve {
	if f.redMS == nil || f.redMS.K < k {
		f.redMS = NewMultiSolve(reducedSize(f.P), f.B, f.A, k)
	}
	return f.redMS.Narrow(k)
}

// tipAcc returns partition r's a×k forward accumulator view, zeroed.
func (f *ParallelFactor) tipAcc(r, k int) *dense.Matrix {
	ps := f.ps[r]
	if ps.tipMS == nil || ps.tipMS.Cols < k {
		ps.tipMS = dense.New(f.A, k)
		for w := range ps.tipMSViews {
			delete(ps.tipMSViews, w)
		}
	}
	v, ok := ps.tipMSViews[k]
	if !ok {
		v = ps.tipMS.View(0, 0, f.A, k)
		ps.tipMSViews[k] = v
	}
	v.Zero()
	return v
}

// gatherMS copies the boundary block rows of the workspace into the
// reduced multi-RHS workspace. withAcc folds the partitions' forward arrow
// accumulators in — only correct right after a forward phase.
func (f *ParallelFactor) gatherMS(w, red *MultiSolve, withAcc bool) {
	for i, g := range f.redGlobal {
		red.blocks[i].CopyFrom(w.blocks[g])
	}
	if f.A > 0 {
		red.arrow.CopyFrom(w.arrow)
		if withAcc {
			for _, ps := range f.ps {
				red.arrow.Add(1, ps.tipMSViews[w.K])
			}
		}
	}
}

// scatterMS copies the reduced solution rows back into the workspace.
func (f *ParallelFactor) scatterMS(w, red *MultiSolve) {
	for i, g := range f.redGlobal {
		w.blocks[g].CopyFrom(red.blocks[i])
	}
	if f.A > 0 {
		w.arrow.CopyFrom(red.arrow)
	}
}

// ForwardSolveMultiInto computes the half solve Y = L̃⁻¹·B in place of the
// workspace RHS for all columns, with the interiors swept in parallel.
// Column squared norms equal φᵀ·A⁻¹·φ exactly as for the sequential factor
// (the parallel elimination ordering is a symmetric permutation, which
// leaves the half-solve norms invariant) — the batched-predictive-variance
// contract of the serving path.
func (f *ParallelFactor) ForwardSolveMultiInto(w *MultiSolve) {
	if f.P == 1 {
		f.seq.ForwardSolveMultiInto(w)
		return
	}
	f.promote() // half-solve norms feed predictive variances; keep them fp64
	w.checkDims(f.N, f.B, f.A)
	f.curMS = w
	f.runPhase(phaseFwdMS)
	red := f.reducedMS(w.K)
	f.gatherMS(w, red, true)
	f.eng.forwardMS(red)
	f.scatterMS(w, red)
	f.curMS = nil
}

// BackwardSolveMultiInto computes X = L̃⁻ᵀ·Y in place of the workspace RHS.
func (f *ParallelFactor) BackwardSolveMultiInto(w *MultiSolve) {
	if f.P == 1 {
		f.seq.BackwardSolveMultiInto(w)
		return
	}
	f.promote()
	w.checkDims(f.N, f.B, f.A)
	red := f.reducedMS(w.K)
	f.gatherMS(w, red, false)
	f.eng.backwardMS(red)
	f.scatterMS(w, red)
	f.curMS = w
	f.runPhase(phaseBwdMS)
	f.curMS = nil
}

// SolveMultiInto solves A·X = B in place of the workspace RHS for all
// columns.
func (f *ParallelFactor) SolveMultiInto(w *MultiSolve) {
	if f.P == 1 {
		f.seq.SolveMultiInto(w)
		return
	}
	f.ForwardSolveMultiInto(w)
	f.BackwardSolveMultiInto(w)
}

// forwardPartitionMS is forwardPartition over all workspace columns at once
// (BLAS-3 throughout), via the shared core.
func (f *ParallelFactor) forwardPartitionMS(r int, w *MultiSolve) {
	ps := f.ps[r]
	var acc *dense.Matrix
	if f.A > 0 {
		acc = f.tipAcc(r, w.K)
	}
	pv := f.solveCore(r)
	pv.forwardMS(w.blocks[ps.part.Lo:ps.part.Hi+1], acc)
}

// backwardPartitionMS is backwardPartition over all workspace columns.
func (f *ParallelFactor) backwardPartitionMS(r int, w *MultiSolve) {
	ps := f.ps[r]
	pv := f.solveCore(r)
	pv.backwardMS(w.blocks[ps.part.Lo:ps.part.Hi+1], w.arrow)
}

// SelectedInversion computes Σ = A⁻¹ on the BTA pattern into fresh storage.
func (f *ParallelFactor) SelectedInversion() (*Matrix, error) {
	sig := NewMatrix(f.N, f.B, f.A)
	if err := f.SelectedInversionInto(sig); err != nil {
		return nil, err
	}
	return sig, nil
}

// SelectedInversionInto is the shared-memory PPOBTASI: selected inversion
// of the reduced boundary system first (sequential, small), boundary-block
// installation, then the per-partition backward recursions over the
// interiors run concurrently. Alloc-free after warmup.
func (f *ParallelFactor) SelectedInversionInto(sig *Matrix) error {
	if f.P == 1 {
		return f.seq.SelectedInversionInto(sig)
	}
	if sig.N != f.N || sig.B != f.B || sig.A != f.A {
		return fmt.Errorf("bta: selinv output BTA(n=%d,b=%d,a=%d), factor (n=%d,b=%d,a=%d)",
			sig.N, sig.B, sig.A, f.N, f.B, f.A)
	}
	f.promote() // posterior covariances stay fp64 (per-stage policy)
	relabel(labelReduced)
	err := f.eng.selinvInto(f.redSig)
	relabel(labelNone)
	if err != nil {
		return err
	}
	if f.A > 0 {
		// The tip is read by every partition's sweep; land it before any
		// sweep task can start.
		sig.Tip.CopyFrom(f.redSig.Tip)
	}
	f.curSig = sig
	// Σ-scatter DAG: each partition's boundary install is a task whose
	// dependent interior sweep starts as soon as its own boundary blocks
	// land — no barrier on the full scatter. A partition's sweep reads only
	// blocks written by its own install (plus the tip, copied above, and
	// redSig, finalized above), so install(r)→sweep(r) are the only edges.
	l := f.ex.AcquireLane()
	f.g.Add(2 * (f.P - 1))
	for r := 1; r < f.P; r++ {
		f.taskInstall[r].Reset(f.ex, &f.g, f.fnInstall[r], labelSigma)
		f.taskSweep[r].Reset(f.ex, &f.g, f.fnSweep[r], labelSigma)
		f.taskSweep[r].After(&f.taskInstall[r])
		// Dependents spawn before predecessors (sched.Lane.Spawn).
		l.Spawn(&f.taskSweep[r])
		l.Spawn(&f.taskInstall[r])
	}
	relabel(labelSigma)
	f.installSigmaPart(0)
	f.ps[0].err = f.sweepPartition(0, sig)
	f.g.Wait(l)
	relabel(labelNone)
	f.ex.ReleaseLane(l)
	f.curSig = nil
	for _, ps := range f.ps {
		if ps.err != nil {
			return ps.err
		}
	}
	return nil
}

// installSigmaPart copies partition r's boundary Σ blocks from the reduced
// selected inverse into the output. Every destination belongs to partition
// r alone, so installs of different partitions commute and each partition's
// interior sweep may start as soon as its own install finished.
func (f *ParallelFactor) installSigmaPart(r int) {
	sig := f.curSig
	parts := f.parts
	hasArrow := f.A > 0
	if r == 0 {
		sig.Diag[parts[0].Hi].CopyFrom(f.redSig.Diag[0])
		if hasArrow {
			sig.Arrow[parts[0].Hi].CopyFrom(f.redSig.Arrow[0])
		}
		return
	}
	top := reducedIndexTop(r)
	lo, hi := parts[r].Lo, parts[r].Hi
	sig.Diag[lo].CopyFrom(f.redSig.Diag[top])
	sig.Lower[lo-1].CopyFrom(f.redSig.Lower[top-1]) // Σ(lo_r, hi_{r−1})
	if hasArrow {
		sig.Arrow[lo].CopyFrom(f.redSig.Arrow[top])
	}
	if r < f.P-1 {
		sig.Diag[hi].CopyFrom(f.redSig.Diag[top+1])
		if hasArrow {
			sig.Arrow[hi].CopyFrom(f.redSig.Arrow[top+1])
		}
		if len(f.ps[r].interiors) == 0 {
			// Size-2 middle partition: its within coupling is a
			// boundary-boundary block of the reduced system.
			sig.Lower[lo].CopyFrom(f.redSig.Lower[top])
		}
	}
}

// sweepPartition runs one partition's backward selected-inversion recursion
// over its interiors through the shared partitionSweep core, writing
// straight into the shared output and drawing every temporary from the
// partition's preallocated scratch.
func (f *ParallelFactor) sweepPartition(r int, sig *Matrix) error {
	ps := f.ps[r]
	if len(ps.interiors) == 0 {
		return nil
	}
	lo, hi := ps.part.Lo, ps.part.Hi
	pw := partitionSweep{
		L: ps.l, GNext: ps.gNext, GTop: ps.gTop, GArr: ps.gArr,
		Interiors: ps.interiors, Base: lo, TwoSided: r != 0,
		Diag:  sig.Diag[lo : hi+1],
		Lower: sig.Lower[lo:hi],
		GN:    ps.gN, GT: ps.gT, GA: ps.gA, TmpB: ps.tmpB,
		LoBuf: ps.loBuf,
		Kind:  "partition", ID: r,
	}
	if f.A > 0 {
		pw.Arrow = sig.Arrow[lo : hi+1]
		pw.SigTip = sig.Tip
	}
	if r > 0 && r < f.P-1 {
		// Σ(hi_r, lo_r) of middle partitions seeds the rolling Σ(lo,·).
		pw.SigBotTop = f.redSig.Lower[reducedIndexTop(r)]
	}
	return pw.run()
}
