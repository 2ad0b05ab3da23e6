// Command gpubench is gpulat's benchmark: it runs one named workload
// for a fixed time, checks every output, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as the last line
// of standard output. See README.md for the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash gpubench/run.sh --workload fig-dynamic --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"gpulat/internal/runner"
)

const (
	defaultSeed    = 1
	defaultSeconds = 30
	setupReps      = 5 // batch set-ups before and again after the window
	svcSetupReps   = 2 // svc-mixed set-ups before and after (each simulates the population)
	runDeadline    = 170 * time.Second
	digestPath     = "gpubench/digest.json" // relative to the repository root
)

var workloads = []string{"fig-dynamic", "table1-chase", "svc-mixed"}

type options struct {
	workload  string
	seed      uint64
	seconds   time.Duration
	trace     bool
	artifacts string
}

// checks collects output-check failures; any one fails the run.
type checks struct {
	mu   sync.Mutex
	errs []string
}

func (c *checks) fail(format string, args ...any) {
	c.mu.Lock()
	c.errs = append(c.errs, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

// result is what one run reports.
type result struct {
	metrics   Metrics
	attempted int
	failed    int
	detail    map[string]any
	digest    map[string]float64
	tracer    *Tracer
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var seed uint64
	var seconds, trace int
	var commit string
	var writeDigest bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloads, ", "))
	flag.Uint64Var(&seed, "seed", defaultSeed, "seed the workload's inputs are drawn from")
	flag.IntVar(&seconds, "seconds", defaultSeconds, "how long the timed window runs")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&o.artifacts, "artifacts", ".bench_build", "directory for caches and span files")
	flag.StringVar(&commit, "commit", "", "commit the binary was built from, recorded with the host")
	flag.BoolVar(&writeDigest, "write-digest", false, "record this run's results in the digest instead of checking them")
	flag.Parse()
	o.seed, o.seconds, o.trace = seed, time.Duration(seconds)*time.Second, trace == 1
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "gpubench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(o.artifacts, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "gpubench:", err)
		return 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	chk := &checks{}
	var res *result
	var err error
	switch o.workload {
	case "fig-dynamic":
		res, err = runBatch(ctx, o, figDynamicJobs(o.seed), chk)
	case "table1-chase":
		res, err = runBatch(ctx, o, table1ChaseJobs(o.seed), chk)
	case "svc-mixed":
		res, err = runSvc(ctx, o, chk)
	default:
		fmt.Fprintf(os.Stderr, "gpubench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloads, ", "))
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpubench:", err)
		return 1
	}

	key := digestKey(o)
	if o.seed == defaultSeed {
		if writeDigest {
			if err := saveDigest(key, res.digest); err != nil {
				fmt.Fprintln(os.Stderr, "gpubench:", err)
				return 1
			}
		} else {
			checkDigest(chk, key, res.digest, o.seconds == defaultSeconds*time.Second)
		}
	}
	if res.tracer != nil {
		path := filepath.Join(o.artifacts, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
		if err := res.tracer.writeJSONL(path); err != nil {
			fmt.Fprintln(os.Stderr, "gpubench:", err)
			return 1
		}
		res.detail["spans_file"] = path
	}

	res.detail["workload"] = o.workload
	res.detail["seed"] = o.seed
	res.detail["trace"] = trace
	res.detail["host"] = hostInfo(commit)
	res.detail["check_failures"] = len(chk.errs)
	line, err := json.Marshal(res.detail)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpubench:", err)
		return 1
	}
	fmt.Println(string(line))
	final, _ := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   Metrics `json:"metrics"`
	}{len(chk.errs) == 0, res.attempted, res.failed, res.metrics}) // plain data: cannot fail
	fmt.Println(string(final))
	if len(chk.errs) > 0 {
		for i, e := range chk.errs {
			if i == 10 {
				fmt.Fprintf(os.Stderr, "gpubench: ... and %d more\n", len(chk.errs)-i)
				break
			}
			fmt.Fprintln(os.Stderr, "gpubench: check failed:", e)
		}
		return 1
	}
	return 0
}

// runBatch runs fig-dynamic or table1-chase: set-up, a reference round
// on the layer path, then the timed (or traced) rounds.
func runBatch(ctx context.Context, o options, jobs []runner.Job, chk *checks) (*result, error) {
	res := &result{metrics: Metrics{}, detail: map[string]any{}}
	var setups []float64
	setup := func() error { return buildInputs(jobs) }
	if err := timeSetups(&setups, setupReps, setup); err != nil {
		return nil, err
	}
	ref, err := reference(ctx, jobs)
	if err != nil {
		return nil, fmt.Errorf("reference round: %w", err)
	}
	b := &batchRun{jobs: jobs, ref: ref, chk: chk}
	res.digest = refDigest(jobs, ref)
	res.detail["jobs_per_round"] = len(jobs)
	refResults := make([]runner.Result, len(jobs))
	for i, r := range ref {
		refResults[i] = runner.Result{Job: jobs[i], Metrics: r.metrics}
	}
	if errPct, where := table1MaxErrPct(refResults); where != "" {
		res.detail["table1_max_err_pct"] = errPct
		res.detail["table1_max_err_cell"] = where
	}

	if o.trace {
		res.tracer = newTracer()
		res.attempted, res.failed, err = b.traced(ctx, res.metrics, res.detail, o.seconds, res.tracer)
		return res, err
	}
	rounds, w, err := runRounds(ctx, jobs, nil, o.seconds)
	if err != nil {
		return nil, err
	}
	b.checkRounds(rounds, "timed")
	if err := timeSetups(&setups, setupReps, setup); err != nil {
		return nil, err
	}
	res.metrics.set("setup_s", "s", median(setups))
	res.attempted, res.failed = b.endToEnd(res.metrics, rounds, w)
	var lat []float64
	for _, round := range rounds {
		for _, r := range round {
			lat = append(lat, ms(r.Elapsed))
		}
	}
	res.detail["round_s"] = w.rounds
	res.detail["job_tail"] = tailOf(lat)
	return res, nil
}

// timeSetups runs setup n times, appending each duration to setups.
// Runs take set-ups both before and after their window, so setup_s, the
// median, samples the host at two moments.
func timeSetups(setups *[]float64, n int, setup func() error) error {
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		*setups = append(*setups, time.Since(start).Seconds())
	}
	return nil
}

// runSvc runs svc-mixed: set-ups, then one timed window, or for the
// traced run an untraced and a traced half window, each on a tier
// freshly restarted over the populated caches.
func runSvc(ctx context.Context, o options, chk *checks) (*result, error) {
	res := &result{metrics: Metrics{}, detail: map[string]any{}}
	windows := 1
	if o.trace {
		windows = 2
	}
	pop, scheds := planSvc(o.seed, o.seconds/time.Duration(windows), windows)
	root, err := os.MkdirTemp(o.artifacts, "svc-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	// Each set-up starts over empty caches; the window runs on the last.
	var setups []float64
	var tiers []*tier
	var dirs []string
	setup := func() error {
		dir, err := os.MkdirTemp(root, "tier-")
		if err != nil {
			return err
		}
		t, err := setupTier(ctx, dir, pop)
		if err != nil {
			return err
		}
		tiers, dirs = append(tiers, t), append(dirs, dir)
		return nil
	}
	closeTiers := func(keep int) {
		for _, t := range tiers[:len(tiers)-keep] {
			t.close()
		}
		tiers = tiers[len(tiers)-keep:]
	}
	if err := timeSetups(&setups, svcSetupReps, setup); err != nil {
		closeTiers(0)
		return nil, err
	}
	closeTiers(1)
	t, dir := tiers[0], dirs[len(dirs)-1]
	rng := newRand(o.seed, 4)

	first, err := runWindow(ctx, t, scheds[0], t.runJobs)
	closeTiers(0)
	if err != nil {
		return nil, err
	}
	if !o.trace {
		err := timeSetups(&setups, svcSetupReps, setup)
		closeTiers(0)
		if err != nil {
			return nil, err
		}
		first.verify(ctx, rng, chk, newTracer(), false)
		res.metrics.set("setup_s", "s", median(setups))
		res.attempted, res.failed = first.endToEnd(res.metrics, res.detail)
		first.counterDetail(res.detail)
		res.digest = svcDigest(first)
		return res, nil
	}

	res.tracer = newTracer()
	st := newSvcTrace(res.tracer)
	t2, err := startTier(dir, st.hooks(), t)
	if err != nil {
		return nil, err
	}
	t2.client.HTTP = &http.Client{Transport: spanTransport{next: t2.transport, st: st}}
	second, err := runWindow(ctx, t2, scheds[1], st.send(t2))
	t2.close()
	if err != nil {
		return nil, err
	}
	first.verify(ctx, rng, chk, newTracer(), false)
	layers := newTracer()
	second.verify(ctx, rng, chk, layers, true)
	res.digest = svcDigest(first)
	res.attempted = len(first.outs) + len(second.outs)
	res.failed = first.failures() + second.failures()

	traced := map[string]any{}
	second.endToEnd(Metrics{}, traced)
	second.counterDetail(res.detail)
	st.detail(second, res.detail)
	res.detail["hit_p50_ms"] = traced["hit_p50_ms"]
	res.detail["miss_p50_ms"] = traced["miss_p50_ms"]
	res.detail["loadgen.lag_p99_ms"] = traced["loadgen.lag_p99_ms"]

	lspans := layers.Spans()
	lix := indexSpans(lspans)
	misses := 0
	var layerS []float64
	for _, s := range lspans {
		if s.Name == "job" {
			misses++
			layerS = append(layerS, lix.childCover(s).Seconds())
		}
	}
	if misses == 0 {
		return nil, fmt.Errorf("traced window simulated nothing")
	}
	simLayerMetrics(res.metrics, lspans, misses, second.sim, misses)
	run, _ := sumByName(lspans, "gpu.run")
	plainRun, _ := sumByName(lspans, "plain.gpu.run")
	m := res.metrics
	m.set("core.tracker_overhead_s", "s", (run-plainRun).Seconds()/float64(misses))
	spans := res.tracer.Spans()
	var execS []float64
	for _, d := range durationsByName(spans, "runner.execute") {
		execS = append(execS, d/1000)
	}
	m.set("runner.execute_s", "s", mean(execS))
	m.set("runner.overhead_s", "s", mean(execS)-mean(layerS))
	p50 := func(sw *svcWindow) float64 { return median(sw.latencies(func(int) bool { return true })) }
	m.set("trace.overhead_frac", "ratio", p50(second)/p50(first)-1)
	ix := indexSpans(spans)
	minCover := 1.0
	for _, s := range spans {
		if s.Name == "request" {
			minCover = min(minCover, ix.coverage(s))
		}
	}
	m.set("trace.span_coverage", "ratio", minCover)
	res.detail["self_s_per_request"] = selfByName(spans, len(second.outs))
	res.detail["layer_self_s_per_miss"] = selfByName(lspans, misses)
	return res, nil
}

// refDigest is a batch workload's default-seed record: every result
// metric of the reference round, and its summed component counters.
func refDigest(jobs []runner.Job, ref []jobRun) map[string]float64 {
	d := map[string]float64{}
	var tot counters
	for i, r := range ref {
		for _, m := range r.metrics {
			d[fmt.Sprintf("j%02d.%s.%s", i, jobs[i].Name(), m.Name)] = m.Value
		}
		tot.add(r.counts)
	}
	for i, v := range tot {
		d["counters."+counterNames[i]] = float64(v)
	}
	return d
}

// svcDigest is svc-mixed's default-seed record: every result metric of
// the window's misses, and their summed component counters.
func svcDigest(sw *svcWindow) map[string]float64 {
	d := map[string]float64{}
	for i, o := range sw.outs {
		if sw.sched.miss[i] {
			for _, m := range o.res.Metrics {
				d[fmt.Sprintf("r%04d.%s", i, m.Name)] = m.Value
			}
		}
	}
	for i, v := range sw.sim {
		d["counters."+counterNames[i]] = float64(v)
	}
	return d
}

// digestKey names a run's digest entry. A batch workload's record is
// its reference round, the same in either trace mode. svc-mixed records
// its first window, whose schedule follows the window's length: the
// whole run, or half of it in the traced run.
func digestKey(o options) string {
	if o.workload != "svc-mixed" {
		return o.workload
	}
	return fmt.Sprintf("%s/trace%d/s%d", o.workload, map[bool]int{false: 0, true: 1}[o.trace], int(o.seconds.Seconds()))
}

func loadDigest() (map[string]map[string]float64, error) {
	all := map[string]map[string]float64{}
	data, err := os.ReadFile(digestPath)
	if os.IsNotExist(err) {
		return all, nil
	}
	if err != nil {
		return nil, err
	}
	return all, json.Unmarshal(data, &all)
}

func saveDigest(key string, d map[string]float64) error {
	all, err := loadDigest()
	if err != nil {
		return err
	}
	all[key] = d
	data, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestPath, append(data, '\n'), 0o644)
}

// checkDigest compares a default-seed run with its committed record and
// names the first value that differs. A missing record fails only a
// run at the default length, the one the record is made for.
func checkDigest(chk *checks, key string, got map[string]float64, required bool) {
	all, err := loadDigest()
	if err != nil {
		chk.fail("digest %s: %v", digestPath, err)
		return
	}
	want, ok := all[key]
	if !ok {
		if required {
			chk.fail("digest %s has no entry %s", digestPath, key)
		}
		return
	}
	names := make([]string, 0, len(want)+len(got))
	for n := range want {
		names = append(names, n)
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		w, wok := want[n]
		g, gok := got[n]
		switch {
		case !gok:
			chk.fail("digest %s: %s missing, want %v", key, n, w)
		case !wok:
			chk.fail("digest %s: unexpected %s = %v", key, n, g)
		case w != g:
			chk.fail("digest %s: %s = %v, want %v", key, n, g, w)
		default:
			continue
		}
		return
	}
}
