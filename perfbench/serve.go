package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dalia-hpc/dalia/internal/inla"
	"github.com/dalia-hpc/dalia/internal/mesh"
	"github.com/dalia-hpc/dalia/internal/predict"
	"github.com/dalia-hpc/dalia/internal/serve"
	"github.com/dalia-hpc/dalia/internal/synth"
)

const (
	serveModel   = "ap1"
	serveMaxIter = 8 // BFGS cap of the serving fit
	// openRate is phase 1's fixed arrival rate (requests/s); openShare is
	// the share of the measuring time phase 1 gets, phase 2 the rest.
	openRate  = 300
	openShare = 0.4
	// conns is the generator's keep-alive connection count in both phases.
	conns          = 2
	queriesPerReq  = 8
	requestPool    = 64 // distinct request bodies, each with its reference answer
	requestTimeout = 2 * time.Second
	// answerTol is the agreement required between a served answer and the
	// independently built reference snapshot's.
	answerTol = 1e-8
	// predictMinTime is how long each predict row measures.
	predictMinTime = 200 * time.Millisecond
)

// serveOptions are the server's settings: batches flush as soon as the
// queue drains (no collection window), so no request waits on a timer, and
// a 10 ms SLO flush budget.
var serveOptions = serve.Options{SLO: 10 * time.Millisecond}

// request is one pre-built predict request with its reference answer.
type request struct {
	qs          []predict.Query
	body        []byte
	mean, vars  []float64
	description string
}

// phaseCounts tallies one load phase's requests.
type phaseCounts struct {
	sent, ok, failed, shed int
}

func (p *phaseCounts) add(o phaseCounts) {
	p.sent += o.sent
	p.ok += o.ok
	p.failed += o.failed
	p.shed += o.shed
}

// serveAP1 fits the AP1 model through the server during set-up, then drives
// it over HTTP: an open loop at openRate, then a closed loop on conns
// connections. Every answer is checked against a snapshot built from an
// independent fit with the server's recipe.
func serveAP1(cfg config) (*report, error) {
	rep := newReport()
	gen := synth.AP1().Gen
	gen.Seed = cfg.seed

	srv := serve.New(serveOptions)
	t0 := time.Now()
	m, err := srv.FitModel(serve.FitRequest{Name: serveModel, MaxIter: serveMaxIter, Gen: &serve.GenSpec{
		Nv: gen.Nv, Nt: gen.Nt, Nr: gen.Nr, MeshNx: gen.MeshNx, MeshNy: gen.MeshNy,
		Width: gen.Width, Height: gen.Height, ObsPerStep: gen.ObsPerStep, Seed: gen.Seed,
	}})
	if err != nil {
		return nil, fmt.Errorf("serving fit: %w", err)
	}
	if err := srv.Register(m); err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	rep.e2e.set(mSetup, setup.Seconds(), "s")
	rep.layers.set("serve.fit_s", setup.Seconds(), "s")

	var gens []float64
	var ds *synth.Dataset
	for i := 0; i < setupRepeats; i++ {
		g0 := time.Now()
		if ds, err = synth.Generate(gen); err != nil {
			return nil, fmt.Errorf("dataset generation: %w", err)
		}
		gens = append(gens, time.Since(g0).Seconds())
	}
	rep.layers.set("synth.generate_s", median(gens), "s")
	ref, err := referenceSnapshot(ds)
	if err != nil {
		return nil, err
	}
	pool, err := buildRequests(cfg.seed, ref, gen)
	if err != nil {
		return nil, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx) // the run's result is already measured
		<-served
		_ = srv.Shutdown(ctx)
	}()
	g := newGenerator("http://"+ln.Addr().String(), pool)
	defer g.transport.CloseIdleConnections()

	heap := sampleHeap()
	t1 := time.Now()
	openDur := time.Duration(openShare * float64(cfg.seconds))
	open := g.openLoop(openDur, cfg.trace, t1)
	closed := g.closedLoop(cfg.seconds-openDur, cfg.trace, t1)
	rep.e2e.set(mHeap, heap.medianMB(), "MB")
	for _, p := range append(open.problems, closed.problems...) {
		rep.fail("%s", p)
	}
	rep.attempted = open.counts.sent + closed.counts.sent
	rep.failed = open.counts.failed + open.counts.shed + closed.counts.failed + closed.counts.shed

	if len(open.latMs) == 0 {
		return nil, fmt.Errorf("no open-loop request succeeded: %v", rep.problems)
	}
	sort.Float64s(open.latMs)
	p50 := quantile(open.latMs, 0.5)
	rep.e2e.set(mP50, p50, "ms")
	rep.e2e.set(mThroughput, float64(closed.counts.ok*queriesPerReq)/closed.elapsed.Seconds(), "1/s")

	if !cfg.trace {
		return rep, nil
	}
	st, err := g.stats()
	if err != nil {
		return nil, err
	}
	L := rep.layers
	L.set("serve.p90_ms", quantile(open.latMs, 0.9), "ms")
	L.set("serve.p99_ms", quantile(open.latMs, 0.99), "ms")
	L.set("serve.avg_batch_size", st.AvgBatchSize, "queries")
	L.set("serve.slo_flushes", float64(st.SLOFlushes), "count")
	L.set("serve.shed", float64(st.ShedRequests), "count")
	L.set("serve.generator_late_ms", mean(open.lateMs), "ms")
	for _, ph := range []struct {
		name string
		c    phaseCounts
	}{{"open", open.counts}, {"closed", closed.counts}} {
		L.set("serve."+ph.name+"_sent", float64(ph.c.sent), "count")
		L.set("serve."+ph.name+"_ok", float64(ph.c.ok), "count")
		L.set("serve."+ph.name+"_failed", float64(ph.c.failed), "count")
		L.set("serve."+ph.name+"_shed", float64(ph.c.shed), "count")
	}
	b8, err := predictRow(m.Snapshot(), pool, queriesPerReq)
	if err != nil {
		return nil, err
	}
	b64, err := predictRow(m.Snapshot(), pool, 64)
	if err != nil {
		return nil, err
	}
	L.set("predict.batch8_ms", b8, "ms")
	L.set("predict.batch64_ms", b64, "ms")
	L.set("predict.us_per_query", 1000*b64/64, "us")
	L.set("serve.overhead_ms", p50-b8, "ms")
	_, b, _ := ds.Model.Dims.BTAShape()
	kernelRows(L, b)
	rep.spans = mergeSpans(append(open.spans, closed.spans...)...)
	return rep, nil
}

// referenceSnapshot fits the dataset independently of the server, with the
// server's recipe (weak prior of sd 5 around θ₀, 8 BFGS iterations, no
// Hessian), and freezes the result.
func referenceSnapshot(ds *synth.Dataset) (*predict.Snapshot, error) {
	opts := inla.DefaultFitOptions()
	opts.Opt.MaxIter = serveMaxIter
	opts.SkipHyperUncertainty = true
	res, err := inla.Fit(ds.Model, inla.WeakPrior(ds.Theta0, 5), ds.Theta0, opts)
	if err != nil {
		return nil, fmt.Errorf("reference fit: %w", err)
	}
	snap, err := predict.NewSnapshot(ds.Model, res)
	if err != nil {
		return nil, fmt.Errorf("reference snapshot: %w", err)
	}
	return snap, nil
}

// buildRequests draws requestPool requests of queriesPerReq queries at
// random points of the domain, with intercept and elevation covariates,
// and answers each with the reference snapshot.
func buildRequests(seed int64, ref *predict.Snapshot, gen synth.GenConfig) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]request, requestPool)
	for i := range pool {
		var pr serve.PredictRequest
		qs := make([]predict.Query, queriesPerReq)
		for j := range qs {
			p := mesh.Point{X: rng.Float64() * gen.Width, Y: rng.Float64() * gen.Height}
			qs[j] = predict.Query{Point: p, T: rng.Intn(gen.Nt), Response: rng.Intn(gen.Nv),
				Covariates: []float64{1, synth.Elevation(p, gen.Width, gen.Height)}}
			pr.Queries = append(pr.Queries, serve.QueryJSON{X: p.X, Y: p.Y, T: qs[j].T, Response: qs[j].Response, Covariates: qs[j].Covariates})
		}
		body, err := json.Marshal(pr)
		if err != nil {
			return nil, err
		}
		mean, vars, err := ref.Predict(qs)
		if err != nil {
			return nil, fmt.Errorf("reference prediction: %w", err)
		}
		pool[i] = request{qs: qs, body: body, mean: mean, vars: vars, description: fmt.Sprintf("request %d", i)}
	}
	return pool, nil
}

// generator is the load generator: one HTTP client on at most conns
// keep-alive connections.
type generator struct {
	url       string
	pool      []request
	transport *http.Transport
	client    *http.Client
}

func newGenerator(base string, pool []request) *generator {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &generator{url: base, pool: pool, transport: tr, client: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

// phaseResult is what one load phase measured.
type phaseResult struct {
	counts   phaseCounts
	latMs    []float64 // per request, from when it was due (open loop) or sent
	lateMs   []float64 // open loop: how late each request was sent
	elapsed  time.Duration
	problems []string
	spans    [][]span
}

// send posts pool request i and classifies the reply: ok, shed (429) or
// failed (transport error, timeout, other status, or a wrong answer).
func (g *generator) send(i int) (ok, shed bool, problem string) {
	rq := &g.pool[i%len(g.pool)]
	resp, err := g.client.Post(g.url+"/v1/models/"+serveModel+"/predict", "application/json", bytes.NewReader(rq.body))
	if err != nil {
		return false, false, fmt.Sprintf("%s: %v", rq.description, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	switch {
	case err != nil:
		return false, false, fmt.Sprintf("%s: reading reply: %v", rq.description, err)
	case resp.StatusCode == http.StatusTooManyRequests:
		return false, true, ""
	case resp.StatusCode != http.StatusOK:
		return false, false, fmt.Sprintf("%s: status %d: %s", rq.description, resp.StatusCode, body)
	}
	var pr serve.PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return false, false, fmt.Sprintf("%s: decoding reply: %v", rq.description, err)
	}
	if len(pr.Mean) != len(rq.mean) || len(pr.Variance) != len(rq.vars) {
		return false, false, fmt.Sprintf("%s: %d answers, want %d", rq.description, len(pr.Mean), len(rq.mean))
	}
	for j := range rq.mean {
		if e := max(relErr(pr.Mean[j], rq.mean[j]), relErr(pr.Variance[j], rq.vars[j])); e > answerTol {
			return false, false, fmt.Sprintf("%s: query %d answered (%g, %g), reference (%g, %g)",
				rq.description, j, pr.Mean[j], pr.Variance[j], rq.mean[j], rq.vars[j])
		}
	}
	return true, false, ""
}

// run drives conns sender goroutines until next reports no more work and
// merges what they measured. next returns the request index and its due
// time (zero = send at once), or ok=false to stop.
func (g *generator) run(phase string, trace bool, t0 time.Time, next func() (int, time.Time, bool)) phaseResult {
	var res phaseResult
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tr *tracer
			if trace {
				tr = newTracer(t0)
			}
			root := tr.begin("serve." + phase + "_loop")
			var local phaseResult
			for {
				i, due, more := next()
				if !more {
					break
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				if due.IsZero() {
					due = sent
				}
				tr.setOp("%s-req-%d", phase, i)
				sp := tr.begin("http.predict")
				ok, shed, problem := g.send(i)
				tr.end(sp)
				done := time.Now()
				local.counts.sent++
				switch {
				case ok:
					local.counts.ok++
					local.latMs = append(local.latMs, ms(done.Sub(due)))
				case shed:
					local.counts.shed++
				default:
					local.counts.failed++
					local.problems = append(local.problems, phase+" loop: "+problem)
				}
				local.lateMs = append(local.lateMs, ms(sent.Sub(due)))
			}
			tr.end(root)
			mu.Lock()
			defer mu.Unlock()
			res.counts.add(local.counts)
			res.latMs = append(res.latMs, local.latMs...)
			res.lateMs = append(res.lateMs, local.lateMs...)
			res.problems = append(res.problems, local.problems...)
			if tr != nil {
				res.spans = append(res.spans, tr.spans)
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// openLoop sends requests due every 1/openRate seconds for d, whether or
// not earlier ones have been answered; each latency runs from when its
// request was due.
func (g *generator) openLoop(d time.Duration, trace bool, t0 time.Time) phaseResult {
	period := time.Second / openRate
	start := time.Now()
	n := int64(d / period)
	var k atomic.Int64
	return g.run("open", trace, t0, func() (int, time.Time, bool) {
		i := k.Add(1) - 1
		if i >= n {
			return 0, time.Time{}, false
		}
		return int(i), start.Add(time.Duration(i) * period), true
	})
}

// closedLoop sends back to back on each connection for d.
func (g *generator) closedLoop(d time.Duration, trace bool, t0 time.Time) phaseResult {
	end := time.Now().Add(d)
	var k atomic.Int64
	return g.run("closed", trace, t0, func() (int, time.Time, bool) {
		if time.Now().After(end) {
			return 0, time.Time{}, false
		}
		return int(k.Add(1) - 1), time.Time{}, true
	})
}

func (g *generator) stats() (*serve.Stats, error) {
	resp, err := g.client.Get(g.url + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, errors.New("stats: " + resp.Status)
	}
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	return &st, nil
}

// predictRow is the median time of one Snapshot.PredictInto call on k
// queries taken from the request pool.
func predictRow(s *predict.Snapshot, pool []request, k int) (float64, error) {
	var qs []predict.Query
	for i := 0; len(qs) < k; i++ {
		qs = append(qs, pool[i%len(pool)].qs...)
	}
	qs = qs[:k]
	means, vars := make([]float64, k), make([]float64, k)
	var times []float64
	for start := time.Now(); time.Since(start) < predictMinTime; {
		t0 := time.Now()
		if err := s.PredictInto(qs, means, vars); err != nil {
			return 0, fmt.Errorf("predict row of %d queries: %w", k, err)
		}
		times = append(times, ms(time.Since(t0)))
	}
	return median(times), nil
}
