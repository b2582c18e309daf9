package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"github.com/dalia-hpc/dalia/internal/inla"
	"github.com/dalia-hpc/dalia/internal/sched"
	"github.com/dalia-hpc/dalia/internal/synth"
)

// SchedResult is one measured point of the task-DAG scheduler experiment.
type SchedResult struct {
	// Kind is "gradbatch" (a 2d+1-point gradient-stencil EvalBatch — the
	// mode search's hot loop, where cross-θ-evaluation overlap pays),
	// "evalbatch1" (a width-1 line-search evaluation whose solver phases
	// run as partition tasks), or "spawnjoin" (raw executor spawn/join
	// cycles of empty tasks — the scheduling overhead itself).
	Kind string `json:"kind"`
	// Mode is "dag" (the shared work-stealing executor). Baselines recorded
	// while the phase-barrier schedule still existed also carry "barrier"
	// rows, which no current row matches.
	Mode    string  `json:"mode"`
	Points  int     `json:"points,omitempty"` // batch width (eval rows)
	Tasks   int     `json:"tasks,omitempty"`  // tasks per join (spawnjoin)
	Seconds float64 `json:"seconds"`          // latency per operation
	PerSec  float64 `json:"per_sec"`
}

// SchedBaseline is the serialized task-DAG scheduler baseline
// (BENCH_9.json): gradient-batch makespan and width-1 evaluation latency
// on the DAG executor, plus the raw spawn/join rate. NumCPU records the
// hardware parallelism.
type SchedBaseline struct {
	GoMaxProcs int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	Nt         int `json:"nt"`
	BlockSize  int `json:"block_size"`
	ArrowSize  int `json:"arrow_size"`
	// Precision records the factorization precision the run measured
	// ("fp64", the only one).
	Precision string        `json:"precision"`
	Results   []SchedResult `json:"results"`
}

// Sched measures the work-stealing task-DAG executor on a time-deep
// univariate model: the 2d+1-point gradient-stencil EvalBatch (where
// evaluations from different θ points interleave on one worker pool), the
// width-1 line-search evaluation (solver phases run as partition tasks),
// and the raw spawn/join cycle rate of the executor itself. quick trims
// repetitions, not the workload.
func Sched(quick bool) (*SchedBaseline, error) {
	ds, err := synth.Generate(synth.GenConfig{
		Nv: 1, Nt: 48, Nr: 2,
		MeshNx: 6, MeshNy: 5,
		ObsPerStep: 40,
		Seed:       29,
	})
	if err != nil {
		return nil, err
	}
	m := ds.Model
	n, b, a := m.Dims.BTAShape()
	out := &SchedBaseline{
		Precision:  "fp64",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Nt:         n, BlockSize: b, ArrowSize: a,
	}
	reps := 3
	if quick {
		reps = 1
	}
	prior := inla.WeakPrior(ds.Theta0, 5)

	// The 2d+1-point central-difference stencil of the mode search's
	// gradient: the makespan workload where the executor overlaps the
	// solver phases of different θ evaluations.
	d := len(ds.Theta0)
	stencil := make([][]float64, 2*d+1)
	for i := range stencil {
		stencil[i] = append([]float64(nil), ds.Theta0...)
	}
	const h = 5e-3
	for k := 0; k < d; k++ {
		stencil[2*k+1][k] += h
		stencil[2*k+2][k] -= h
	}

	evalRow := func(kind string, points [][]float64, partitions int) {
		e := &inla.BTAEvaluator{Model: m, Prior: prior, S2: true, Partitions: partitions}
		e.EvalBatch(points) // warm the scratch pool
		secs := timeIt(reps, func() { e.EvalBatch(points) })
		out.Results = append(out.Results, SchedResult{Kind: kind, Mode: "dag",
			Points: len(points), Seconds: secs, PerSec: 1 / secs})
	}

	// Gradient-batch makespan: batch-level parallelism dominates, the
	// plan keeps the solver sequential inside each point.
	evalRow("gradbatch", stencil, 0)

	// Width-1 line-search evaluation: the plan spends the cores inside
	// the factorization, which runs as partition tasks.
	plan := inla.PlanBatch(1, 0, n, true)
	evalRow("evalbatch1", [][]float64{ds.Theta0}, plan.Partitions)

	// Raw executor spawn/join rate: one lane, spawnTasks empty tasks per
	// join cycle on a private executor sized like the shared one. This is
	// the overhead every phase pays; the eval rows above show whether it
	// is visible at solver-block granularity.
	{
		const spawnTasks = 256
		ex := sched.New(runtime.GOMAXPROCS(0))
		defer ex.Close()
		var g sched.Group
		g.Init(ex)
		tasks := make([]sched.Task, spawnTasks)
		nop := func() {}
		cycle := func() {
			l := ex.AcquireLane()
			g.Add(spawnTasks)
			for i := range tasks {
				tasks[i].Reset(ex, &g, nop, nil)
				l.Spawn(&tasks[i])
			}
			g.Wait(l)
			ex.ReleaseLane(l)
		}
		cycle() // warm the lane pool
		secs := timeIt(reps*100, cycle)
		out.Results = append(out.Results, SchedResult{
			Kind: "spawnjoin", Mode: "dag", Tasks: spawnTasks,
			Seconds: secs, PerSec: float64(spawnTasks) / secs,
		})
	}
	return out, nil
}

// WriteSchedBaseline serializes the scheduler baseline.
func WriteSchedBaseline(b *SchedBaseline, path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadSchedBaseline reads a stored scheduler baseline back in.
func LoadSchedBaseline(path string) (*SchedBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b SchedBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bench: parse sched baseline %s: %w", path, err)
	}
	return &b, nil
}

// SchedComparable reports whether two scheduler runs can be gated against
// each other: the makespans scale with the worker pool, so a GOMAXPROCS
// mismatch would flag the host configuration rather than a code
// regression.
func SchedComparable(cur, base *SchedBaseline) bool {
	return cur.GoMaxProcs == base.GoMaxProcs
}

// CompareSched checks the current measurements against a stored baseline
// and returns one description per failure: every (kind, mode) rate must
// hold (1−maxRegress) of the baseline. Rows too short to time reliably are
// informational.
func CompareSched(cur, base *SchedBaseline, maxRegress float64) []string {
	if !SchedComparable(cur, base) {
		return nil
	}
	var failures []string
	key := func(r SchedResult) string { return fmt.Sprintf("%s/%s", r.Kind, r.Mode) }
	baseRate := map[string]float64{}
	for _, r := range base.Results {
		if r.PerSec > 0 && r.Seconds >= minCompareSeconds {
			baseRate[key(r)] = r.PerSec
		}
	}
	for _, r := range cur.Results {
		if r.PerSec <= 0 || r.Seconds < minCompareSeconds {
			continue
		}
		want, ok := baseRate[key(r)]
		if !ok {
			continue
		}
		floor := want * (1 - maxRegress)
		if r.PerSec < floor {
			failures = append(failures,
				fmt.Sprintf("%s: %.2f ops/s vs baseline %.2f (floor %.2f, −%.0f%%)",
					key(r), r.PerSec, want, floor, 100*(1-r.PerSec/want)))
		}
	}
	return failures
}

// PrintSched renders the scheduler table.
func PrintSched(b *SchedBaseline, w *os.File) {
	fmt.Fprintf(w, "  task-DAG executor (nt=%d, b=%d, a=%d, GOMAXPROCS=%d, %d hardware CPUs)\n",
		b.Nt, b.BlockSize, b.ArrowSize, b.GoMaxProcs, b.NumCPU)
	fmt.Fprintf(w, "  %-12s %-9s %7s %12s %10s\n", "kind", "mode", "width", "latency", "ops/s")
	for _, r := range b.Results {
		width := r.Points
		if r.Kind == "spawnjoin" {
			width = r.Tasks
		}
		fmt.Fprintf(w, "  %-12s %-9s %7d %12s %10.1f\n",
			r.Kind, r.Mode, width, fmtDuration(r.Seconds), r.PerSec)
	}
}
