package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mdacache/internal/core"
	"mdacache/internal/experiments"
	"mdacache/internal/serve"
)

const (
	serveClients     = 2
	serveSpecsPerJob = 4
	serveScale       = 16
	// serveRecent is how far back in a client's own history a repeated
	// spec is drawn from, so repeats usually find the spec cache warm.
	serveRecent = 32
	// serveCountJobs is how many jobs per client feed the simulated counts,
	// which therefore repeat exactly for a seed. Every client runs at least
	// this many jobs.
	serveCountJobs = 128
	// serveDeadline bounds every client call, so a wedged server fails the
	// run instead of hanging it.
	serveDeadline = 150 * time.Second
)

var (
	serveBenches = []string{"sgemm", "ssyrk", "ssyr2k", "strmm", "sobel", "htap1", "htap2"}
	serveDesigns = []string{"1P1L", "1P2L", "1P2L_SameSet", "2P2L", "2P2L_Dense"}
)

// serveUniverse lists every distinct spec a serve-jobs job may name: small
// scale-16 design points of tens of ms each. They differ only in fields that
// experiments.SpecKey, the service's key for its spec cache and per-job
// checkpoints, tells apart (kernel, design, N and LLC); see README.md for why.
// The order is balanced: each stretch of 35 names every kernel × design once,
// and N and the LLC size both cycle fast (6 and 31 values, coprime, so every
// pair occurs once in 186 sizes). Any stretch of the list therefore holds
// about the same mix of cheap and costly, cache-friendly and cache-bound
// specs, and one seed's job lists cost what another's do.
func serveUniverse() []serve.SpecRequest {
	ns := []int{12, 16, 20, 24, 28, 32}
	const llcSizes = 31 // 512 KB to 4.25 MB in steps of 128 KB
	sizes := len(ns) * llcSizes
	kd := len(serveBenches) * len(serveDesigns)
	out := make([]serve.SpecRequest, 0, kd*sizes)
	for block := 0; block < sizes; block++ {
		for i := 0; i < kd; i++ {
			sz := (block + i) % sizes
			out = append(out, serve.SpecRequest{
				Bench: serveBenches[i%len(serveBenches)], Design: serveDesigns[i/len(serveBenches)],
				N: ns[sz%len(ns)], LLCKB: 512 + 128*(sz%llcSizes), Scale: serveScale,
			})
		}
	}
	return out
}

// jobGen draws one client's job lists: each slot repeats one of the
// client's recent specs or takes the client's next fresh one, half and
// half. The fresh specs are the universe rotated to a seed-chosen stretch,
// dealt alternately to the clients, so no spec is fresh for both and the
// specs each client submits depend on the seed alone.
type jobGen struct {
	rng     *rand.Rand
	fresh   []int
	history []int
}

func newJobGens(seed uint64, universe int) []*jobGen {
	stretch := len(serveBenches) * len(serveDesigns)
	start := int(seed%uint64(universe/stretch)) * stretch
	gens := make([]*jobGen, serveClients)
	for c := range gens {
		g := &jobGen{rng: rand.New(rand.NewSource(int64(seed)*serveClients + int64(c) + 1))}
		for k := c; k < universe; k += serveClients {
			g.fresh = append(g.fresh, (start+k)%universe)
		}
		gens[c] = g
	}
	return gens
}

func (g *jobGen) next() []int {
	job := make([]int, 0, serveSpecsPerJob)
	in := make(map[int]bool)
	recent := g.history[max(0, len(g.history)-serveRecent):]
	var added []int
	for len(job) < serveSpecsPerJob {
		idx := -1
		if len(recent) > 0 && (g.rng.Intn(2) == 0 || len(g.fresh) == 0) {
			if c := recent[g.rng.Intn(len(recent))]; !in[c] {
				idx = c
			}
		}
		if idx < 0 && len(g.fresh) > 0 {
			idx, g.fresh = g.fresh[0], g.fresh[1:]
			added = append(added, idx)
		}
		if idx < 0 {
			continue // every recent spec is already in this job; draw again
		}
		job = append(job, idx)
		in[idx] = true
	}
	g.history = append(g.history, added...)
	return job
}

// retryCounter counts the client's retry notes for load shedding.
type retryCounter struct{ n atomic.Int64 }

func (c *retryCounter) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(serve.CodeQueueFull)) || bytes.Contains(p, []byte(serve.CodeDraining)) {
		c.n.Add(1)
	}
	return len(p), nil
}

// serveEnv is one in-process mdaserve: default options with a fresh durable
// state dir, behind Handler() on a loopback listener.
type serveEnv struct {
	dir     string
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	client  *serve.Client
	tr      *http.Transport
	retries *retryCounter
}

func startServe(o options) (*serveEnv, error) {
	parent := filepath.Join(o.outDir, "serve-state")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, "state-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{StateDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	e := &serveEnv{
		dir:     dir,
		srv:     srv,
		hs:      &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served:  make(chan error, 1),
		tr:      &http.Transport{MaxIdleConnsPerHost: 2 * serveClients},
		retries: &retryCounter{},
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	e.client = &serve.Client{
		Nodes: []string{"http://" + ln.Addr().String()},
		HTTP:  &http.Client{Transport: e.tr},
		Log:   e.retries,
	}
	ctx, cancel := context.WithTimeout(context.Background(), serveDeadline)
	defer cancel()
	warm := serve.SubmitRequest{Specs: []serve.SpecRequest{{Bench: "htap1", Design: "1P1L", N: 8, Scale: serveScale}}}
	resp, err := e.client.Submit(ctx, warm)
	if err == nil {
		var st serve.JobStatus
		st, err = e.client.Wait(ctx, resp.ID)
		if err == nil && st.State != serve.StateDone {
			err = fmt.Errorf("warm-up job ended %s", st.State)
		}
	}
	if err != nil {
		e.close()
		return nil, fmt.Errorf("serve warm-up: %w", err)
	}
	return e, nil
}

// close drains the server, stops the listener and removes the state dir.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e.srv.Shutdown(ctx)
	e.hs.Shutdown(ctx)
	<-e.served
	e.tr.CloseIdleConnections()
	os.RemoveAll(e.dir)
}

func (e *serveEnv) stateDirBytes() int64 {
	var total int64
	filepath.WalkDir(e.dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// jobRecord is one job as its client saw it.
type jobRecord struct {
	client, index int
	specs         []int
	latMS         float64
	submitMS      float64
	doneAt        time.Time       // terminal event delivered to the client
	status        serve.JobStatus // Runs dropped once checked, but for counted jobs
	runs, cached  int
	ops           uint64 // simulated ops over the job's runs
	err           error  // the job could not be submitted or followed
	bad           error  // the job's outcome failed a check
}

type serveSegment struct {
	jobs    []*jobRecord
	served  servedSet
	wall    float64
	retries int64
	bytes   int64
}

// measureServe drives env with serveClients closed-loop clients until
// seconds have passed, at least minJobs jobs have finished and each client
// has run its serveCountJobs counted jobs.
func measureServe(env *serveEnv, universe []serve.SpecRequest, seed uint64, seconds float64, minJobs int, tr *tracer) *serveSegment {
	ctx, cancel := context.WithTimeout(context.Background(), serveDeadline)
	defer cancel()
	gens := newJobGens(seed, len(universe))
	seg := &serveSegment{}
	var mu sync.Mutex
	var finished atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; ; j++ {
				if time.Since(start).Seconds() >= seconds && finished.Load() >= int64(minJobs) && j >= serveCountJobs {
					return
				}
				rec := runJob(ctx, env.client, tr, universe, gens[c], c, j)
				seg.served.add(rec)
				mu.Lock()
				seg.jobs = append(seg.jobs, rec)
				mu.Unlock()
				finished.Add(1)
				if ctx.Err() != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	seg.wall = time.Since(start).Seconds()
	seg.retries = env.retries.n.Load()
	seg.bytes = env.stateDirBytes()
	return seg
}

// runJob submits one job, follows its event stream to the terminal event,
// and fetches its runs.
func runJob(ctx context.Context, client *serve.Client, tr *tracer, universe []serve.SpecRequest, g *jobGen, c, j int) *jobRecord {
	rec := &jobRecord{client: c, index: j, specs: g.next()}
	req := serve.SubmitRequest{}
	for _, i := range rec.specs {
		req.Specs = append(req.Specs, universe[i])
	}
	runID := fmt.Sprintf("c%d/j%d", c, j)
	t0 := time.Now()
	root := tr.begin("bench.job", runID, 0)
	defer tr.end(root)

	sp := tr.begin("serve.Client.Submit", runID, root)
	resp, err := client.Submit(ctx, req)
	tr.end(sp)
	rec.submitMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}
	sp = tr.begin("serve.Client.Watch", runID, root)
	err = client.Watch(ctx, resp.ID, 0, func(ev serve.JobEvent) error {
		if ev.Type == "run" && ev.Run != nil {
			rec.runs++
			if ev.Run.Cached {
				rec.cached++
			}
		}
		return nil
	})
	rec.doneAt = time.Now()
	tr.end(sp)
	if err != nil {
		rec.err = fmt.Errorf("watch %s: %w", resp.ID, err)
		return rec
	}
	sp = tr.begin("serve.Client.Status", runID, root)
	rec.status, err = client.Status(ctx, resp.ID, true)
	tr.end(sp)
	rec.latMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		rec.err = fmt.Errorf("status %s: %w", resp.ID, err)
	}
	return rec
}

// servedSet checks each job as it finishes: it must be done with one
// successful run per spec, and a run of a spec served before must repeat
// that spec's first served results. It keeps the first run of each distinct
// spec for the comparison with direct runs after the window.
type servedSet struct {
	mu    sync.Mutex
	first map[string]*servedSpec
	keys  []string
}

type servedSpec struct {
	run  experiments.SweepRun
	jobs []*jobRecord
}

func (v *servedSet) add(j *jobRecord) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.first == nil {
		v.first = make(map[string]*servedSpec)
	}
	switch {
	case j.err != nil:
		j.bad = j.err
		return
	case j.status.State != serve.StateDone:
		j.bad = fmt.Errorf("job %s ended %s: %v", j.status.ID, j.status.State, j.status.Error)
		return
	case len(j.status.Runs) != len(j.specs):
		j.bad = fmt.Errorf("job %s: %d runs for %d specs", j.status.ID, len(j.status.Runs), len(j.specs))
		return
	}
	for _, run := range j.status.Runs {
		if !run.OK() {
			j.bad = fmt.Errorf("job %s: %v failed: %s", j.status.ID, run.Spec, run.Err)
			return
		}
		j.ops += run.Results.Ops
		// Group by every field of the spec, not by the service's own
		// key (experiments.SpecKey), so a run the service mistook for
		// another spec's is still caught.
		key := fullSpecKey(run.Spec)
		s, ok := v.first[key]
		if !ok {
			s = &servedSpec{run: run}
			v.first[key] = s
			v.keys = append(v.keys, key)
		} else if err := experiments.DiffRunResults([]experiments.SweepRun{s.run}, []experiments.SweepRun{run}); err != nil && j.bad == nil {
			j.bad = fmt.Errorf("served runs of one spec differ: %w", err)
		}
		s.jobs = append(s.jobs, j)
	}
	if j.index >= serveCountJobs {
		j.status.Runs = nil
	}
}

// verifyServe runs every distinct served spec directly and compares the
// results under experiments.DiffRunResults, then counts each job that
// failed a check. Direct runs go through experiments.RunSweep, or through
// the traced layer calls when tr is set.
func verifyServe(r *report, seg *serveSegment, tr *tracer, lc *layerCost) error {
	v := &seg.served
	direct := make([]experiments.SweepRun, len(v.keys))
	if tr == nil {
		specs := make([]experiments.RunSpec, len(v.keys))
		for i, k := range v.keys {
			specs[i] = v.first[k].run.Spec
		}
		runs, err := experiments.RunSweep(context.Background(), specs, experiments.SweepOptions{})
		if err != nil {
			return fmt.Errorf("direct runs: %w", err)
		}
		direct = runs
	} else {
		for i, k := range v.keys {
			served := v.first[k].run
			res, _, err := runLayers(tr, lc, "verify/"+served.Spec.String(), served.Spec, nil)
			direct[i] = experiments.SweepRun{Spec: served.Spec, Key: served.Key, Results: res}
			if err != nil {
				direct[i].Err = err.Error()
			}
		}
	}
	for i, k := range v.keys {
		want, err := viaJSON(direct[i])
		if err == nil {
			err = experiments.DiffRunResults([]experiments.SweepRun{v.first[k].run}, []experiments.SweepRun{want})
		}
		if err != nil {
			for _, j := range v.first[k].jobs {
				if j.bad == nil {
					j.bad = fmt.Errorf("served run differs from a direct run: %w", err)
				}
			}
		}
	}
	for _, j := range seg.jobs {
		r.attempted++
		if j.bad != nil {
			r.fail("client %d job %d: %v", j.client, j.index, j.bad)
		}
	}
	r.notef("verified %d jobs against %d direct runs", len(seg.jobs), len(v.keys))
	return nil
}

// fullSpecKey identifies a spec by all of its fields.
func fullSpecKey(spec experiments.RunSpec) string {
	data, err := json.Marshal(spec)
	if err != nil {
		panic(err) // a RunSpec is plain data
	}
	return string(data)
}

// viaJSON passes a run through the JSON encoding the service's responses
// use, so a comparison with a served run sees the same representation.
func viaJSON(run experiments.SweepRun) (experiments.SweepRun, error) {
	data, err := json.Marshal(run)
	if err != nil {
		return run, err
	}
	var out experiments.SweepRun
	err = json.Unmarshal(data, &out)
	return out, err
}

// countedRuns are the runs of each client's first serveCountJobs jobs.
func (seg *serveSegment) countedRuns() []*core.Results {
	var out []*core.Results
	for _, j := range seg.jobs {
		if j.index < serveCountJobs && j.err == nil {
			for _, run := range j.status.Runs {
				if run.Results != nil {
					out = append(out, run.Results)
				}
			}
		}
	}
	return out
}

func (seg *serveSegment) done() []*jobRecord {
	var out []*jobRecord
	for _, j := range seg.jobs {
		if j.err == nil {
			out = append(out, j)
		}
	}
	return out
}

func runServeJobs(o options) (*report, error) {
	universe := serveUniverse()
	for _, s := range universe {
		if _, err := s.Spec(); err != nil {
			return nil, fmt.Errorf("spec %+v: %w", s, err)
		}
	}
	start := func() (*serveEnv, error) { return startServe(o) }
	var setupSecs []float64
	env, err := timeSetup(&setupSecs, start, (*serveEnv).close)
	if err != nil {
		return nil, err
	}
	r := newReport()
	if !o.trace {
		seg := measureServe(env, universe, o.seed, o.seconds, minJobs, nil)
		env.close()
		if env, err = timeSetup(&setupSecs, start, (*serveEnv).close); err != nil {
			return nil, err
		}
		env.close()
		if err := verifyServe(r, seg, nil, nil); err != nil {
			return nil, err
		}
		done := seg.done()
		lat := make([]float64, len(done))
		var ops uint64
		for i, j := range done {
			lat[i] = j.latMS
			ops += j.ops
		}
		if err := r.jobMetrics(lat, float64(len(done))/seg.wall); err != nil {
			return nil, err
		}
		r.m["setup_s"] = median(setupSecs)
		r.m["sim_ops_per_s"] = float64(ops) / seg.wall
		var cops, cycles uint64
		for _, res := range seg.countedRuns() {
			cops += res.Ops
			cycles += res.Cycles
		}
		r.m["ops_per_kcycle"] = ratio(float64(cops), float64(cycles)) * 1000
		r.m["norm_cycles_1P2L"], r.m["norm_cycles_2P2L"] = 1, 1
		r.notef("%d jobs of %d specs from %d closed-loop clients in %.2f s", len(seg.jobs), serveSpecsPerJob, serveClients, seg.wall)
		r.notef("norm_cycles_* are 1 (not applicable): jobs draw design points at random")
		return r, nil
	}

	base := measureServe(env, universe, o.seed, o.seconds/2, 0, nil)
	env.close()
	if err := verifyServe(r, base, nil, nil); err != nil {
		return nil, err
	}
	// A fresh server, so the traced segment starts as cold as the base one.
	if env, err = startServe(o); err != nil {
		return nil, err
	}
	tr := newTracer()
	seg := measureServe(env, universe, o.seed, o.seconds/2, 0, tr)
	env.close()
	var lc layerCost
	if err := verifyServe(r, seg, tr, &lc); err != nil {
		return nil, err
	}
	done := seg.done()
	if len(done) == 0 {
		return nil, errors.New("no job finished in the traced segment")
	}
	var submit, wait, exec, notify []float64
	var runs, cached int
	for _, j := range done {
		st := j.status
		submit = append(submit, j.submitMS)
		wait = append(wait, float64(st.StartedMS-st.CreatedMS))
		exec = append(exec, float64(st.FinishedMS-st.StartedMS))
		notify = append(notify, float64(j.doneAt.UnixNano())/1e6-float64(st.FinishedMS))
		runs += j.runs
		cached += j.cached
	}
	// Means, not medians: the service stamps whole milliseconds, and a
	// median of whole numbers hides any change smaller than one.
	r.m["serve.submit_ms"] = mean(submit)
	r.m["serve.queue_wait_ms"] = mean(wait)
	r.m["serve.exec_ms"] = mean(exec)
	r.m["serve.notify_ms"] = mean(notify)
	r.m["serve.spec_cache_hit_ratio"] = ratio(float64(cached), float64(runs))
	r.m["serve.spec_cache_lookups"] = float64(runs)
	r.m["serve.retries"] = float64(seg.retries)
	r.m["serve.state_dir_bytes"] = ratio(float64(seg.bytes), float64(len(seg.jobs)))
	lc.metrics(r.m)
	var counts modelCounts
	for _, res := range seg.countedRuns() {
		counts.add(res)
	}
	counts.metrics(r.m)
	r.traceMetrics(tr, len(seg.jobs), meanLatency(seg), meanLatency(base))
	r.notef("untraced %d jobs, traced %d jobs; serve.* timings are means per job, state dir bytes per job", len(base.jobs), len(seg.jobs))
	return r, r.writeTrace(o, tr)
}

func meanLatency(seg *serveSegment) float64 {
	var lat []float64
	for _, j := range seg.done() {
		lat = append(lat, j.latMS)
	}
	return mean(lat)
}
