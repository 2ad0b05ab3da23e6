package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"gpulat/internal/metrics"
	"gpulat/internal/runner"
	"gpulat/internal/service"
)

// svc-mixed's traffic. The rate sits well below what the two-station
// tier sustains on a 2-CPU host, so latency measures the tier, not a
// growing backlog.
//
// Simulation dominates the set-up and the misses (a population point
// simulates for tens of milliseconds, a fresh one for about ten), so
// their times follow the host's speed rather than its millisecond
// scheduling stalls, which swung few-millisecond latencies and set-ups
// by a third between sets of runs.
const (
	svcRate         = 30   // offered requests per second, open loop
	svcMissShare    = 0.3  // share of requests that are fresh chase points
	svcPopulation   = 100  // chase points simulated during set-up
	svcPopAccesses  = 2048 // timed loads per population point
	svcMissAccesses = 512  // timed loads per fresh point
	svcHitSample    = 0.1  // share of hits re-run directly to check them
	svcSLO          = 100 * time.Millisecond
)

// svcPoints draws n distinct chase points on GF100 that are not in
// seen: DRAM-bound rings (far beyond the L2, so no warm lap) at the
// static harness's DRAM stride, with seeded footprints and the given
// number of timed loads. Points of one kind cost about the same to
// simulate, so miss latency measures the tier rather than the mix.
func svcPoints(rng *rand.Rand, n, accesses int, seen map[runner.JobKey]bool) []runner.Job {
	const stride, lo, hi = 512, 5 << 18, 8 << 18
	var out []runner.Job
	for len(out) < n {
		fp := uint32(lo + stride*rng.IntN((hi-lo)/stride))
		job := runner.Job{Kind: runner.KindChase, Arch: "GF100",
			Options: runner.Options{Stride: stride, Footprint: fp, Accesses: accesses}}
		if k := job.Key(); !seen[k] {
			seen[k] = true
			out = append(out, job)
		}
	}
	return out
}

// svcSchedule is one open-loop arrival sequence.
type svcSchedule struct {
	due  []time.Duration
	jobs []runner.Job
	miss []bool
}

// planSvc draws the population and one schedule per window from seed.
// Each window offers svcRate requests per second for span; exactly
// svcMissShare of them are fresh points, the rest uniform repeats over
// the population.
func planSvc(seed uint64, span time.Duration, windows int) ([]runner.Job, []svcSchedule) {
	rng := newRand(seed, 3)
	seen := map[runner.JobKey]bool{}
	pop := svcPoints(rng, svcPopulation, svcPopAccesses, seen)
	scheds := make([]svcSchedule, windows)
	for w := range scheds {
		n := int(svcRate * span.Seconds())
		misses := int(float64(n)*svcMissShare + 0.5)
		fresh := svcPoints(rng, misses, svcMissAccesses, seen)
		s := svcSchedule{due: poissonSchedule(rng, n, span), jobs: make([]runner.Job, n), miss: make([]bool, n)}
		for i, p := range rng.Perm(n) {
			if i < misses {
				s.jobs[p], s.miss[p] = fresh[i], true
			} else {
				s.jobs[p] = pop[rng.IntN(len(pop))]
			}
		}
		scheds[w] = s
	}
	return pop, scheds
}

// tier is an in-process sharded service: a Coordinator over two
// loopback Station backends, each with one worker and its own disk
// Cache, all behind HTTP servers, and the load generator's Client.
type tier struct {
	stations  []*service.Station
	servers   []*http.Server
	addrs     []string // backend, backend, front
	serving   sync.WaitGroup
	coord     *service.Coordinator
	backends  []string
	front     string
	transport *http.Transport
	client    *service.Client
}

// tierHooks are the traced run's instruments: an executor wrapping
// runner.Execute, and a wrapper around each backend's Station.
type tierHooks struct {
	exec runner.ExecFunc
	wrap func(st *service.Station) service.JobService
}

// startTier starts a tier whose backends keep their caches under dir.
// Restarting over the same caches must reuse the previous tier's
// addresses (prev): the coordinator places keys by hashing backend
// addresses, so new addresses would send keys to the backend that does
// not hold them.
func startTier(dir string, hooks tierHooks, prev *tier) (*tier, error) {
	t := &tier{}
	addr := func(i int) string {
		if prev == nil {
			return "127.0.0.1:0"
		}
		return strings.TrimPrefix(prev.addrs[i], "http://")
	}
	for i := 0; i < 2; i++ {
		c, err := service.OpenCache(filepath.Join(dir, fmt.Sprintf("backend%d", i)), 0)
		if err != nil {
			t.close()
			return nil, err
		}
		st := service.NewStation(c, service.StationConfig{Workers: 1, Exec: hooks.exec})
		t.stations = append(t.stations, st)
		var svc service.JobService = st
		if hooks.wrap != nil {
			svc = hooks.wrap(st)
		}
		url, err := t.serve(addr(i), service.NewServer(svc, c))
		if err != nil {
			t.close()
			return nil, err
		}
		t.backends = append(t.backends, url)
	}
	coord, err := service.NewCoordinator(service.CoordinatorConfig{Backends: t.backends})
	if err != nil {
		t.close()
		return nil, err
	}
	t.coord = coord
	if t.front, err = t.serve(addr(2), service.NewServer(coord, nil)); err != nil {
		t.close()
		return nil, err
	}
	// The load generator holds at most two connections to the tier.
	t.transport = &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	t.client = service.NewClient(t.front)
	t.client.HTTP = &http.Client{Transport: t.transport}
	return t, nil
}

func (t *tier) serve(addr string, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	url := "http://" + ln.Addr().String()
	t.addrs = append(t.addrs, url)
	srv := &http.Server{Handler: h}
	t.servers = append(t.servers, srv)
	t.serving.Add(1)
	go func() {
		defer t.serving.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return url, nil
}

// close stops the front end first, then the coordinator, then the
// backends, and waits for every server goroutine and simulation.
func (t *tier) close() {
	if t.transport != nil {
		t.transport.CloseIdleConnections()
	}
	for i := len(t.servers) - 1; i >= 0; i-- {
		_ = t.servers[i].Close() // drops open connections; nothing to flush
		if i == len(t.servers)-1 && t.coord != nil {
			t.coord.Close()
		}
	}
	t.serving.Wait()
	for _, st := range t.stations {
		st.Close()
	}
}

// scrape fetches and parses one server's /metrics.
func (t *tier) scrape(ctx context.Context, base string) (*metrics.Scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := t.client.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return metrics.Parse(body)
}

// svcCounts are the tier counters a window reports, from /metrics.
type svcCounts struct {
	submitted, deduped, diskHits, executed, rejected, rerouted, stolen float64
}

func (t *tier) counts(ctx context.Context) (svcCounts, error) {
	var c svcCounts
	front, err := t.scrape(ctx, t.front)
	if err != nil {
		return c, err
	}
	c.submitted = front.Sum("gpulat_station_submitted_total")
	c.deduped = front.Sum("gpulat_station_deduped_total")
	c.rejected = front.Sum("gpulat_station_rejected_total")
	c.rerouted = front.Sum("gpulat_station_rerouted_total")
	c.stolen = front.Sum("gpulat_station_stolen_total")
	for _, b := range t.backends {
		s, err := t.scrape(ctx, b)
		if err != nil {
			return c, err
		}
		c.diskHits += s.Sum("gpulat_station_cache_hits_total")
		c.executed += s.Sum("gpulat_station_executed_total")
		c.rejected += s.Sum("gpulat_station_rejected_total")
	}
	return c, nil
}

func (c svcCounts) minus(o svcCounts) svcCounts {
	return svcCounts{c.submitted - o.submitted, c.deduped - o.deduped, c.diskHits - o.diskHits,
		c.executed - o.executed, c.rejected - o.rejected, c.rerouted - o.rerouted, c.stolen - o.stolen}
}

// setupTier is svc-mixed's set-up: start a tier over empty caches,
// simulate the population through it, and restart it over the same
// caches, so later repeats are read from disk.
func setupTier(ctx context.Context, dir string, pop []runner.Job) (*tier, error) {
	t, err := startTier(dir, tierHooks{}, nil)
	if err != nil {
		return nil, err
	}
	set, err := t.client.RunJobs(ctx, pop)
	t.close()
	if err != nil {
		return nil, fmt.Errorf("populate: %w", err)
	}
	if err := set.Err(); err != nil {
		return nil, fmt.Errorf("populate: %w", err)
	}
	return startTier(dir, tierHooks{}, t)
}

// outcome is one request's fate; times are offsets from window start.
type outcome struct {
	sent, done time.Duration
	res        runner.Result
	err        error
}

func (o outcome) failed() bool { return o.err != nil || o.res.Err != "" }

// driveFunc sends one request and waits for its result.
type driveFunc func(ctx context.Context, i int, job runner.Job) (runner.Result, error)

// runJobs is the untraced request: one Client.RunJobs call.
func (t *tier) runJobs(ctx context.Context, _ int, job runner.Job) (runner.Result, error) {
	set, err := t.client.RunJobs(ctx, []runner.Job{job})
	if err != nil {
		return runner.Result{}, err
	}
	return set.Results[0], nil
}

// drive replays one schedule open loop: each request is sent at its due
// time whatever the state of earlier ones, from a single generator.
func drive(ctx context.Context, s svcSchedule, send driveFunc) ([]outcome, window) {
	outs := make([]outcome, len(s.due))
	var wg sync.WaitGroup
	mem := startResident()
	w := window{before: snapshot()}
	start := w.before.wall
	for i := range s.due {
		if d := time.Until(start.Add(s.due[i])); d > 0 {
			time.Sleep(d)
		}
		outs[i].sent = time.Since(start)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rctx := service.WithTrace(ctx, fmt.Sprintf("req-%d", i))
			outs[i].res, outs[i].err = send(rctx, i, s.jobs[i])
			outs[i].done = time.Since(start)
		}(i)
	}
	wg.Wait()
	w.after = snapshot()
	w.peakMB = mem.peakMB()
	return outs, w
}

// svcWindow is one driven schedule and what it left behind.
type svcWindow struct {
	sched svcSchedule
	outs  []outcome
	win   window
	delta svcCounts
	sim   counters // simulated work of the window's misses
}

func (sw *svcWindow) latencies(keep func(i int) bool) []float64 {
	var out []float64
	for i, o := range sw.outs {
		if keep(i) {
			out = append(out, ms(o.done-sw.sched.due[i]))
		}
	}
	return out
}

func (sw *svcWindow) failures() int {
	n := 0
	for _, o := range sw.outs {
		if o.failed() {
			n++
		}
	}
	return n
}

// runWindow drives one schedule against t and scrapes the tier's
// counters around it.
func runWindow(ctx context.Context, t *tier, s svcSchedule, send driveFunc) (*svcWindow, error) {
	before, err := t.counts(ctx)
	if err != nil {
		return nil, err
	}
	sw := &svcWindow{sched: s}
	sw.outs, sw.win = drive(ctx, s, send)
	after, err := t.counts(ctx)
	if err != nil {
		return nil, err
	}
	sw.delta = after.minus(before)
	return sw, nil
}

// verify checks a window outside its timed stretch: every miss, and a
// seeded sample of hits, must equal a direct runner.Execute of the same
// job, and the layer path must reproduce it too. The misses' layer runs
// also give the window's simulated work, traced under tr.
func (sw *svcWindow) verify(ctx context.Context, rng *rand.Rand, chk *checks, tr *Tracer, plain bool) {
	direct := map[runner.JobKey]runner.Result{}
	for i, o := range sw.outs {
		job := sw.sched.jobs[i]
		name := fmt.Sprintf("request %d (%s stride=%d footprint=%d)", i, job.Name(), job.Options.Stride, job.Options.Footprint)
		if o.failed() {
			chk.fail("%s failed: %v%s", name, o.err, o.res.Err)
			continue
		}
		if !sw.sched.miss[i] && rng.Float64() >= svcHitSample {
			continue
		}
		key := job.Key()
		want, ok := direct[key]
		if !ok {
			want = runner.Execute(ctx, job)
			direct[key] = want
		}
		if d, bad := sameMetrics(want.Metrics, o.res.Metrics); bad {
			chk.fail("%s differs from a direct run: %s", name, d)
		}
		if !sw.sched.miss[i] {
			continue
		}
		req := fmt.Sprintf("miss-%d", i)
		root := tr.begin(req, 0, "job")
		run, err := execLayers(tr, req, root, job, true)
		tr.end(root)
		if err != nil {
			chk.fail("%s layer path: %v", name, err)
			continue
		}
		if d, bad := diffMetrics(want.Metrics, run.metrics); bad {
			chk.fail("%s layer path differs from a direct run: %s", name, d)
		}
		sw.sim.add(run.counts)
		if plain {
			proot := tr.begin(req, 0, "plain.job")
			_, _ = execLayers(tr, req, proot, job, false) // same job just ran tracked
			tr.end(proot)
		}
	}
}

// endToEnd fills the end-to-end metrics and the hit/miss detail.
func (sw *svcWindow) endToEnd(m Metrics, detail map[string]any) (attempted, failed int) {
	attempted, failed = len(sw.outs), sw.failures()
	all := sw.latencies(func(int) bool { return true })
	hits := sw.latencies(func(i int) bool { return !sw.sched.miss[i] })
	misses := sw.latencies(func(i int) bool { return sw.sched.miss[i] })
	sloMiss := 0
	for i, o := range sw.outs {
		if o.failed() || o.done-sw.sched.due[i] > svcSLO {
			sloMiss++
		}
	}
	ok := float64(attempted - failed)
	wall := sw.win.seconds()
	tail := sw.tail()
	m.set("jobs_per_s", "1/s", ok/wall)
	m.set("job_p50_ms", "ms", median(all))
	m.set("cpu_s_per_job", "s", (sw.win.after.cpu-sw.win.before.cpu).Seconds()/float64(attempted))
	m.set("alloc_mb_per_job", "MB", float64(sw.win.after.alloc-sw.win.before.alloc)/float64(attempted)/(1<<20))
	m.set("peak_rss_mb", "MB", sw.win.peakMB)
	m.set("ok_frac", "ratio", ok/float64(attempted))
	m.set("sim_insts_per_s", "1/s", float64(sw.sim[cInsts])/wall)
	m.set("sim_cycles_per_s", "1/s", float64(sw.sim[cCycles])/wall)

	missTail := tailOf(misses)
	sent := make([]time.Duration, len(sw.outs))
	for i, o := range sw.outs {
		sent[i] = o.sent
	}
	detail["job_tail"] = tail
	detail["hit_p50_ms"] = median(hits)
	detail["miss_p50_ms"] = median(misses)
	detail["miss_tail_ms"] = missTail
	detail["slo_ms"] = ms(svcSLO)
	detail["slo_miss_frac"] = float64(sloMiss) / float64(attempted)
	detail["loadgen.lag_p99_ms"] = quantile(sortedCopy(lagsMS(sw.sched.due, sent)), 0.99)
	detail["rate_per_s"] = float64(svcRate)
	return attempted, failed
}

// tail applies the tail rule to each third of the window, split by due
// time, and returns the median of the three, so a host stall that hits
// one third does not set the run's tail. At the default length each
// third holds 300 requests: p90 with 30 beyond.
func (sw *svcWindow) tail() Tail {
	n := len(sw.outs)
	thirds := make([]Tail, 3)
	for k := range thirds {
		lo, hi := k*n/3, (k+1)*n/3
		thirds[k] = tailOf(sw.latencies(func(i int) bool { return i >= lo && i < hi }))
	}
	sort.Slice(thirds, func(i, j int) bool { return thirds[i].Value < thirds[j].Value })
	return thirds[1]
}

// counterDetail reports the window's /metrics deltas.
func (sw *svcWindow) counterDetail(detail map[string]any) {
	d := sw.delta
	share := func(x float64) float64 {
		if d.submitted == 0 {
			return 0
		}
		return x / d.submitted
	}
	detail["svc.disk_hit_frac"] = share(d.diskHits)
	detail["svc.dedup_frac"] = share(d.deduped)
	detail["svc.executed"] = d.executed
	detail["svc.rejected"] = d.rejected
	detail["coord.rerouted"] = d.rerouted
	detail["coord.stolen"] = d.stolen
}

// svcTrace is the traced window's client side and program-side
// instruments. Spans of one request share its request ID, the trace ID
// the client sends; the executor's and station's spans find it through
// the job key.
type svcTrace struct {
	tr *Tracer

	mu       sync.Mutex
	roots    map[string]int // request ID -> its root span
	byKey    map[runner.JobKey]traceRef
	admitted map[runner.JobKey]time.Time
	execs    map[runner.JobKey][2]time.Time
	seen     map[runner.JobKey]time.Time
	polls    int
	notDone  int
}

type traceRef struct {
	req  string
	root int
}

func newSvcTrace(tr *Tracer) *svcTrace {
	return &svcTrace{tr: tr, roots: map[string]int{}, byKey: map[runner.JobKey]traceRef{},
		admitted: map[runner.JobKey]time.Time{}, execs: map[runner.JobKey][2]time.Time{},
		seen: map[runner.JobKey]time.Time{}}
}

// hooks returns the executor and station wrappers for the traced tier.
func (st *svcTrace) hooks() tierHooks {
	return tierHooks{
		exec: func(ctx context.Context, job runner.Job) runner.Result {
			start := time.Now()
			res := runner.Execute(ctx, job)
			end := time.Now()
			key := job.Key()
			st.mu.Lock()
			st.execs[key] = [2]time.Time{start, end}
			ref, ok := st.byKey[key]
			adm := st.admitted[key]
			st.mu.Unlock()
			if ok {
				if !adm.IsZero() {
					st.tr.record(ref.req, ref.root, "station.queue", adm, start)
				}
				st.tr.record(ref.req, ref.root, "runner.execute", start, end)
			}
			return res
		},
		wrap: func(s *service.Station) service.JobService { return &admitTimer{JobService: s, st: st} },
	}
}

// admitTimer records when each backend admission returns.
type admitTimer struct {
	service.JobService
	st *svcTrace
}

func (a *admitTimer) Submit(ctx context.Context, job runner.Job) (runner.JobKey, service.Status, error) {
	key, status, err := a.JobService.Submit(ctx, job)
	a.st.admit(key)
	return key, status, err
}

func (a *admitTimer) SubmitMany(ctx context.Context, jobs []runner.Job) ([]service.JobTicket, error) {
	tickets, err := a.JobService.SubmitMany(ctx, jobs)
	for _, t := range tickets {
		a.st.admit(t.Key)
	}
	return tickets, err
}

func (st *svcTrace) admit(key runner.JobKey) {
	now := time.Now()
	st.mu.Lock()
	if _, ok := st.admitted[key]; !ok {
		st.admitted[key] = now
	}
	st.mu.Unlock()
}

// send returns the traced request: the same Client.RunJobs call as the
// untraced window, under a root span. The client's HTTP calls are timed
// by the transport, which finds the root through the trace ID.
func (st *svcTrace) send(t *tier) driveFunc {
	return func(ctx context.Context, i int, job runner.Job) (runner.Result, error) {
		ref := traceRef{req: service.TraceID(ctx)}
		ref.root = st.tr.begin(ref.req, 0, "request")
		defer st.tr.end(ref.root)
		st.mu.Lock()
		st.roots[ref.req] = ref.root
		if _, ok := st.byKey[job.Key()]; !ok {
			st.byKey[job.Key()] = ref
		}
		st.mu.Unlock()
		return t.runJobs(ctx, i, job)
	}
}

// clientRoute names the span of one client request, and the job key in
// its path: POST /v1/jobs is client.submit, GET /v1/jobs/{key}
// client.status, and GET /v1/results/{key} client.result. Other
// requests get no span.
func clientRoute(req *http.Request) (string, runner.JobKey) {
	path := req.URL.Path
	switch {
	case req.Method == http.MethodPost && path == "/v1/jobs":
		return "client.submit", ""
	case req.Method != http.MethodGet:
		return "", ""
	case strings.HasPrefix(path, "/v1/jobs/"):
		return "client.status", runner.JobKey(strings.TrimPrefix(path, "/v1/jobs/"))
	case strings.HasPrefix(path, "/v1/results/"):
		return "client.result", runner.JobKey(strings.TrimPrefix(path, "/v1/results/"))
	}
	return "", ""
}

// spanTransport opens a span around each request a traced client call
// makes, from sending it until the caller closes the response body.
type spanTransport struct {
	next http.RoundTripper
	st   *svcTrace
}

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	st := t.st
	name, key := clientRoute(req)
	reqID := req.Header.Get(service.TraceHeader)
	st.mu.Lock()
	root, ok := st.roots[reqID]
	if ok && name == "client.result" {
		if _, done := st.seen[key]; !done {
			st.seen[key] = time.Now() // RunJobs fetches a result once it sees "done"
		}
	}
	st.mu.Unlock()
	if !ok || name == "" {
		return t.next.RoundTrip(req)
	}
	id := st.tr.begin(reqID, root, name)
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		st.tr.end(id)
		return nil, err
	}
	body := resp.Body
	if name == "client.status" {
		data, rerr := io.ReadAll(body)
		body.Close()
		if rerr != nil {
			st.tr.end(id)
			return nil, rerr
		}
		var js service.JobStatus
		_ = json.Unmarshal(data, &js) // an error body leaves Status empty: a not-done poll
		st.mu.Lock()
		st.polls++
		if js.Status != service.StatusDone && js.Status != service.StatusFailed {
			st.notDone++
		}
		st.mu.Unlock()
		body = io.NopCloser(bytes.NewReader(data))
	}
	resp.Body = &spanBody{ReadCloser: body, end: func() { st.tr.end(id) }}
	return resp, nil
}

// spanBody ends its request's span when the caller closes it.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// detail reports the traced window's service-layer metrics.
func (st *svcTrace) detail(sw *svcWindow, detail map[string]any) {
	spans := st.tr.Spans()
	st.mu.Lock()
	defer st.mu.Unlock()
	var doneToSeen, queueWait []float64
	for i, miss := range sw.sched.miss {
		if !miss {
			continue
		}
		key := sw.sched.jobs[i].Key()
		ex, ok := st.execs[key]
		if !ok {
			continue
		}
		if seen, ok := st.seen[key]; ok {
			doneToSeen = append(doneToSeen, ms(seen.Sub(ex[1])))
		}
		if adm, ok := st.admitted[key]; ok {
			queueWait = append(queueWait, ms(ex[0].Sub(adm)))
		}
	}
	n := float64(len(sw.outs))
	detail["client.submit_ms"] = median(durationsByName(spans, "client.submit"))
	detail["client.result_ms"] = median(durationsByName(spans, "client.result"))
	detail["client.polls_per_job"] = float64(st.polls) / n
	detail["client.not_done_poll_frac"] = float64(st.notDone) / max(float64(st.polls), 1)
	detail["svc.done_to_seen_ms"] = median(doneToSeen)
	detail["station.queue_wait_ms"] = median(queueWait)
	detail["runner.exec_ms"] = median(durationsByName(spans, "runner.execute"))
}
