// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed measuring time, checks the program's outputs against
// independent references, and prints every metric by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With -trace 1 the run records spans around every layer call and the
// metrics are the per-layer ones. See README.md for the workloads, the
// metrics and the seeds.
//
// Usage (from the root of the source tree, after building with run.py):
//
//	perfbench -workload fit-ap1 -seed 106 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to measurements.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// report is what a workload run hands back to main.
type report struct {
	attempted, failed int
	// problems lists every failed output check; the run is correct only
	// when it is empty.
	problems []string
	e2e      metricSet // end-to-end metrics (untraced run)
	layers   metricSet // per-layer metrics (traced run)
	spans    []span    // traced run only
}

func newReport() *report { return &report{e2e: metricSet{}, layers: metricSet{}} }

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// workload is one benchmark input set.
type workload struct {
	name string
	// defaultSeed is the seed the workload's recorded reference values were
	// taken on; heldOut lists seeds reserved for re-checking a claim on
	// inputs its author did not tune on.
	defaultSeed int64
	heldOut     []int64
	run         func(cfg config) (*report, error)
}

var workloads = []workload{
	{name: "fit-ap1", defaultSeed: 106, heldOut: []int64{9001, 9002, 9003}, run: fitAP1},
	{name: "fit-chain", defaultSeed: 7, heldOut: []int64{9001, 9002, 9003}, run: fitChain},
	{name: "serve-ap1", defaultSeed: 106, heldOut: []int64{9001, 9002, 9003}, run: serveAP1},
}

// End-to-end metric names, shared by every workload (see README.md for
// what each means on a fit and on a serving workload).
const (
	mSetup      = "setup_s"
	mP50        = "latency_p50_ms"
	mThroughput = "throughput_per_s"
	mHeap       = "live_heap_mb"
)

// precisionMode is the factorization precision every run uses: the
// program's default (pure fp64).
const precisionMode = "fp64"

func main() {
	name := flag.String("workload", "", "workload to run: fit-ap1, fit-chain or serve-ap1")
	seed := flag.String("seed", "", "workload seed, any integer (empty = the workload's default seed)")
	seconds := flag.Float64("seconds", 20, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	recordDir := flag.String("record-dir", "", "directory for the run record and its spans (empty = none)")
	flag.Parse()
	list, err := loadMetricList("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("-seconds must be positive and -trace 0 or 1"))
	}
	cfg := config{seed: w.defaultSeed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	if *seed != "" {
		if cfg.seed, err = parseSeed(*seed); err != nil {
			fatal(err)
		}
	}
	host := map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"precision":  precisionMode,
	}
	heldOut := false
	for _, s := range w.heldOut {
		heldOut = heldOut || s == cfg.seed
	}
	fmt.Printf("perfbench workload=%s seed=%d held_out=%v seconds=%g trace=%d num_cpu=%d gomaxprocs=%d go=%s precision=%s\n",
		w.name, cfg.seed, heldOut, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), precisionMode)

	rep, err := w.run(cfg)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	rep.layers.set("host.num_cpu", float64(runtime.NumCPU()), "count")
	rep.layers.set("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")
	rep.layers.set("host.peak_rss_mb", peakRSSMB(), "MB")
	rep.layers.set("trace.spans", float64(len(rep.spans)), "count")
	if err := complete(rep.layers, list.PerLayer, true); err != nil {
		fatal(err)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", p)
	}

	out := rep.e2e
	if cfg.trace {
		out = rep.layers
	} else if err := complete(rep.e2e, list.EndToEnd, false); err != nil {
		fatal(err)
	}
	printTable(out)
	if *recordDir != "" {
		if err := writeRecord(*recordDir, w.name, cfg, host, rep); err != nil {
			fatal(err)
		}
	}
	last, err := json.Marshal(map[string]any{
		"correct":   len(rep.problems) == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(last))
}

// parseSeed reads a seed of any size or sign and maps it onto [0, 2⁶³)
// by reducing it modulo 2⁶³, so seeds in that range are used as given.
func parseSeed(s string) (int64, error) {
	v, ok := new(big.Int).SetString(s, 10)
	if !ok {
		return 0, fmt.Errorf("-seed %q is not an integer", s)
	}
	return v.Mod(v, new(big.Int).Lsh(big.NewInt(1), 63)).Int64(), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// printTable prints the metrics one per line, sorted by name.
func printTable(set metricSet) {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %16.6g %s\n", n, set[n].Value, set[n].Unit)
	}
}

// writeRecord stores the full run record (host fields, both metric sets,
// problems) and, for a traced run, its spans.
func writeRecord(dir, name string, cfg config, host map[string]any, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", name, cfg.seed, btoi(cfg.trace)))
	rec := map[string]any{
		"workload": name, "seed": cfg.seed, "seconds": cfg.seconds.Seconds(), "trace": cfg.trace,
		"host": host, "attempted": rep.attempted, "failed": rep.failed, "problems": rep.problems,
		"end_to_end": rep.e2e, "per_layer": rep.layers,
	}
	if err := writeJSON(base+".json", rec); err != nil {
		return err
	}
	if cfg.trace {
		return writeJSON(base+".spans.json", rep.spans)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write record: %w", err)
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// heapSampler samples the Go heap's live bytes, as marked by the latest
// garbage collection, every heapSampleEvery. Its median over the measured
// work is the memory the work holds; the peak of a single fit depends on
// which moment a collection happens to mark and varied by up to 30%
// between runs.
type heapSampler struct {
	stop   chan struct{}
	median chan float64
}

const heapSampleEvery = 2 * time.Millisecond

// sampleHeap collects garbage, so the work that follows starts from its
// own live set, and starts sampling. The second collection frees what the
// first left in sync.Pool victim caches.
func sampleHeap() *heapSampler {
	runtime.GC()
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{}), median: make(chan float64)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		var mb []float64
		for {
			metrics.Read(s)
			mb = append(mb, float64(s[0].Value.Uint64())/(1<<20))
			select {
			case <-h.stop:
				h.median <- median(mb)
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// medianMB stops the sampler and returns the median live heap in MB.
func (h *heapSampler) medianMB() float64 {
	close(h.stop)
	return <-h.median
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile reads the q-quantile of an ascending-sorted sample by the
// nearest-rank method.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// relErr is |got − want| relative to max(1, |want|).
func relErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Max(1, math.Abs(want))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
