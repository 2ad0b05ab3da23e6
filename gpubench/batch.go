package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"gpulat/internal/config"
	"gpulat/internal/core"
	"gpulat/internal/gpu"
	"gpulat/internal/kernels"
	"gpulat/internal/runner"
)

// workers is the runner and station worker count: the benchmark host
// has two CPUs, and one of them also runs the Go runtime and the load
// generator.
const workers = 2

// figDynamicJobs is one round of fig-dynamic: the Figure 1/2 BFS job
// nine times over seeded graphs, beside one of each of the paper's
// "other workloads". Nine BFS jobs put the round's median job well
// inside the BFS jobs rather than at their fastest edge. The order is
// longest first, so two workers finish a round together.
func figDynamicJobs(seed uint64) []runner.Job {
	rng := newRand(seed, 1)
	dyn := func(kernel, label string) runner.Job {
		return runner.Job{Kind: runner.KindDynamic, Arch: "GF100", Kernel: kernel,
			Seed: rng.Uint64(), Options: runner.Options{Label: label}}
	}
	jobs := []runner.Job{dyn("spmv", "")}
	for i := 0; i < 9; i++ {
		jobs = append(jobs, dyn("bfs", fmt.Sprintf("g%d", i)))
	}
	for _, k := range []string{"reduce", "histogram", "vecadd", "stencil2d", "transpose"} {
		jobs = append(jobs, dyn(k, ""))
	}
	return jobs
}

// table1ChaseJobs is one round of table1-chase: the Table I row of
// every preset, then a stride×footprint pointer-chase sweep on GF100.
// Footprint tiers sit inside the L1, inside the L2, and far beyond it;
// the seed jitters each footprint by up to a quarter of its tier.
func table1ChaseJobs(seed uint64) []runner.Job {
	rng := newRand(seed, 2)
	var jobs []runner.Job
	for _, arch := range []string{"GF100", "GF106", "GK104", "GT200", "GM107"} {
		jobs = append(jobs, runner.Job{Kind: runner.KindStatic, Arch: arch})
	}
	for _, stride := range []uint32{128, 256, 512, 1024} {
		for _, tier := range []uint32{16 << 10, 64 << 10, 4 << 20, 16 << 20} {
			steps := tier / stride / 4
			fp := tier + stride*uint32(rng.IntN(int(steps)+1))
			jobs = append(jobs, runner.Job{Kind: runner.KindChase, Arch: "GF100",
				Options: runner.Options{Stride: stride, Footprint: fp}})
		}
	}
	return jobs
}

// buildInputs is a batch workload's set-up: resolve every job's
// architecture, construct a device from it, and generate every input
// the jobs will simulate, so a malformed job fails before timing.
func buildInputs(jobs []runner.Job) error {
	for _, job := range jobs {
		cfg, err := config.ByNameOrFile(job.Arch)
		if err != nil {
			return err
		}
		_ = gpu.New(cfg)
		switch {
		case job.Kernel == "bfs":
			g := kernels.GenScaleFree(1<<13, 4, job.Seed)
			if _, err := kernels.BFS(kernels.BFSConfig{Graph: g, BlockDim: 128}); err != nil {
				return err
			}
		case job.Kind == runner.KindDynamic:
			if _, err := kernels.NewByName(job.Kernel, kernels.ScaleExperiment, job.Seed); err != nil {
				return err
			}
		case job.Kind == runner.KindChase:
			if _, err := kernels.PChase(kernels.PChaseConfig{Base: 0x10000, StrideBytes: job.Options.Stride,
				FootprintBytes: job.Options.Footprint, Accesses: 256}); err != nil {
				return err
			}
		}
	}
	return nil
}

// window is one timed stretch of a run.
type window struct {
	before, after usage
	peakMB        float64   // peak resident memory during the window
	rounds        []float64 // wall seconds of each batch round
}

func (w window) seconds() float64 { return w.after.wall.Sub(w.before.wall).Seconds() }

// runRounds runs whole rounds of jobs on a two-worker runner until d has
// passed; a round is never cut, so every window holds the same job mix.
func runRounds(ctx context.Context, jobs []runner.Job, exec runner.ExecFunc, d time.Duration) ([][]runner.Result, window, error) {
	r := &runner.Runner{Workers: workers, Exec: exec}
	var rounds [][]runner.Result
	mem := startResident()
	w := window{before: snapshot()}
	for {
		start := time.Now()
		set, err := r.Run(ctx, jobs)
		w.rounds = append(w.rounds, time.Since(start).Seconds())
		if err != nil {
			mem.peakMB()
			return nil, w, err
		}
		for i := range set.Results {
			set.Results[i].Payload = timedCounts(set.Results[i].Payload)
		}
		rounds = append(rounds, set.Results)
		if time.Since(w.before.wall) >= d {
			break
		}
	}
	w.after = snapshot()
	w.peakMB = mem.peakMB()
	return rounds, w, nil
}

// timedCounts replaces a timed job's payload with the component
// counters of the device it ran on, where the payload keeps one: a
// dynamic job's core.DynamicResult retains its device, and the layer
// path's executor returns its counters. Other payloads carry no device
// and are dropped, as is the tracker, which holds every load record.
func timedCounts(p any) any {
	switch p := p.(type) {
	case *core.DynamicResult:
		if p.Device != nil {
			var c counters
			c.addDevice(p.Device)
			return c
		}
	case counters:
		return p
	}
	return nil
}

// reference runs one round layer by layer, outside any timed window. It
// supplies the simulated work of each job (instructions, cycles, and
// component counters) and is the copy every timed round must equal.
func reference(ctx context.Context, jobs []runner.Job) ([]jobRun, error) {
	tr := newTracer()
	exec := func(_ context.Context, job runner.Job) runner.Result {
		run, err := execLayers(tr, "ref", 0, job, true)
		res := runner.Result{Job: job, Metrics: run.metrics, Payload: run}
		if err != nil {
			res.Err = err.Error()
		}
		return res
	}
	set, err := (&runner.Runner{Workers: workers, Exec: exec}).Run(ctx, jobs)
	if err != nil {
		return nil, err
	}
	if err := set.Err(); err != nil {
		return nil, err
	}
	out := make([]jobRun, len(jobs))
	for i, res := range set.Results {
		out[i] = res.Payload.(jobRun)
	}
	return out, nil
}

// batchRun is one run of a closed-loop batch workload.
type batchRun struct {
	jobs []runner.Job
	ref  []jobRun
	chk  *checks
}

// checkRounds requires every round to equal the reference round, metric
// for metric, and counter for counter wherever a job's result kept its
// counters: the layer path reproduces runner.Execute, and repeating a
// job repeats its result.
func (b *batchRun) checkRounds(rounds [][]runner.Result, what string) {
	for r, round := range rounds {
		for i, res := range round {
			name := fmt.Sprintf("%s round %d job %d (%s)", what, r, i, res.Job.Name())
			if res.Err != "" {
				b.chk.fail("%s failed: %s", name, res.Err)
				continue
			}
			if d, bad := diffMetrics(res.Metrics, b.ref[i].metrics); bad {
				b.chk.fail("%s differs from the reference round: %s", name, d)
			}
			if c, ok := res.Payload.(counters); ok && c != b.ref[i].counts {
				b.chk.fail("%s counters differ from the reference round: %s", name, counterDiff(b.ref[i].counts, c))
			}
		}
	}
}

// refTotals sums the reference round's counters.
func (b *batchRun) refTotals() counters {
	var c counters
	for _, r := range b.ref {
		c.add(r.counts)
	}
	return c
}

// endToEnd fills the end-to-end metrics from the timed rounds. The
// simulated work is each timed job's own counters where its result kept
// them (every fig-dynamic job), else its reference-round counters, which
// checkRounds has matched metric for metric (table1-chase).
func (b *batchRun) endToEnd(m Metrics, rounds [][]runner.Result, w window) (attempted, failed int) {
	var lat []float64
	var sim counters
	for _, round := range rounds {
		for i, res := range round {
			attempted++
			if res.Err != "" {
				failed++
			}
			lat = append(lat, ms(res.Elapsed))
			if c, ok := res.Payload.(counters); ok {
				sim.add(c)
			} else {
				sim.add(b.ref[i].counts)
			}
		}
	}
	ok := float64(attempted - failed)
	wall := w.seconds()
	m.set("jobs_per_s", "1/s", ok/wall)
	m.set("job_p50_ms", "ms", median(lat))
	m.set("cpu_s_per_job", "s", (w.after.cpu-w.before.cpu).Seconds()/float64(attempted))
	m.set("alloc_mb_per_job", "MB", float64(w.after.alloc-w.before.alloc)/float64(attempted)/(1<<20))
	m.set("peak_rss_mb", "MB", w.peakMB)
	m.set("ok_frac", "ratio", ok/float64(attempted))
	m.set("sim_insts_per_s", "1/s", float64(sim[cInsts])/wall)
	m.set("sim_cycles_per_s", "1/s", float64(sim[cCycles])/wall)
	return attempted, failed
}

// tracedExec runs each job layer by layer under a root "job" span and
// returns the same result runner.Execute would, with the job's counters
// as its payload.
func tracedExec(tr *Tracer) runner.ExecFunc {
	var seq atomic.Int64
	return func(_ context.Context, job runner.Job) runner.Result {
		req := fmt.Sprintf("job-%d", seq.Add(1))
		root := tr.begin(req, 0, "job")
		run, err := execLayers(tr, req, root, job, true)
		tr.end(root)
		res := runner.Result{Job: job, Metrics: run.metrics, Payload: run.counts}
		if err != nil {
			res.Err = err.Error()
		}
		return res
	}
}

// plainRound runs one round layer by layer without the latency tracker,
// to price it.
func plainRound(ctx context.Context, tr *Tracer, jobs []runner.Job) error {
	exec := func(_ context.Context, job runner.Job) runner.Result {
		root := tr.begin("plain", 0, "plain.job")
		_, err := execLayers(tr, "plain", root, job, false)
		tr.end(root)
		res := runner.Result{Job: job}
		if err != nil {
			res.Err = err.Error()
		}
		return res
	}
	set, err := (&runner.Runner{Workers: workers, Exec: exec}).Run(ctx, jobs)
	if err != nil {
		return err
	}
	return set.Err()
}

// traced is the traced run of a batch workload: an untraced half window
// on runner.Execute, a traced half window on the layer path, and one
// untracked round to price the latency tracker.
func (b *batchRun) traced(ctx context.Context, m Metrics, detail map[string]any, d time.Duration, tr *Tracer) (attempted, failed int, err error) {
	plain, _, err := runRounds(ctx, b.jobs, nil, d/2)
	if err != nil {
		return 0, 0, err
	}
	b.checkRounds(plain, "untraced")
	traced, _, err := runRounds(ctx, b.jobs, tracedExec(tr), d/2)
	if err != nil {
		return 0, 0, err
	}
	for _, round := range append(plain, traced...) {
		for _, res := range round {
			attempted++
			if res.Err != "" {
				failed++
			}
		}
	}
	b.checkRounds(traced, "traced")
	if err := plainRound(ctx, tr, b.jobs); err != nil {
		return 0, 0, err
	}

	spans := tr.Spans()
	ix := indexSpans(spans)
	var execS, jobS []float64
	for _, round := range plain {
		for _, res := range round {
			execS = append(execS, res.Elapsed.Seconds())
		}
	}
	var layerS []float64
	minCover := 1.0
	for _, s := range spans {
		if s.Name == "job" {
			jobS = append(jobS, s.Dur().Seconds())
			layerS = append(layerS, ix.childCover(s).Seconds())
			minCover = min(minCover, ix.coverage(s))
		}
	}
	jobsTraced := len(jobS)
	perJob := func(name string) float64 {
		d, _ := sumByName(spans, name)
		return d.Seconds() / float64(jobsTraced)
	}
	plainRun, _ := sumByName(spans, "plain.gpu.run")
	simLayerMetrics(m, spans, jobsTraced, b.refTotals(), len(b.jobs))
	m.set("core.tracker_overhead_s", "s", perJob("gpu.run")-plainRun.Seconds()/float64(len(b.jobs)))
	m.set("runner.execute_s", "s", mean(execS))
	m.set("runner.overhead_s", "s", mean(execS)-mean(layerS))
	m.set("trace.overhead_frac", "ratio", mean(jobS)/mean(execS)-1)
	m.set("trace.span_coverage", "ratio", minCover)
	var tracedSpans []Span
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "plain.") {
			tracedSpans = append(tracedSpans, s)
		}
	}
	detail["self_s_per_job"] = selfByName(tracedSpans, jobsTraced)
	return attempted, failed, nil
}

// simLayerMetrics fills the per-layer metrics of the simulator layers:
// host time per job from the spans of jobsTimed traced jobs, and
// simulated counts per job from the counters of refJobs jobs.
func simLayerMetrics(m Metrics, spans []Span, jobsTimed int, c counters, refJobs int) {
	perJob := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			s, _ := sumByName(spans, n)
			d += s
		}
		return d.Seconds() / float64(jobsTimed)
	}
	per := func(k int) float64 { return float64(c[k]) / float64(refJobs) }
	stepped := float64(c[cCycles] - c[cSkipped])
	m.set("kernels.build_s", "s", perJob("kernels.build", "kernels.next"))
	m.set("kernels.setup_verify_s", "s", perJob("kernels.setup", "kernels.verify"))
	m.set("gpu.new_s", "s", perJob("gpu.new"))
	m.set("gpu.run_s", "s", perJob("gpu.run"))
	m.set("gpu.stepped_cycles", "count", stepped/float64(refJobs))
	m.set("gpu.ns_per_stepped_cycle", "ns", perJob("gpu.run")*1e9/(stepped/float64(refJobs)))
	m.set("gpu.skipped_frac", "ratio", ratio(c[cSkipped], c[cCycles]))
	m.set("sim.wakes_per_stepped_cycle", "ratio", float64(c[cWakes])/stepped)
	m.set("sim.arms_per_wake", "ratio", ratio(c[cArms], c[cWakes]))
	m.set("sm.inst_issued", "count", per(cInsts))
	m.set("sm.stall_empty", "ratio", ratio(c[cStallEmpty], c[cIssueSlots]))
	m.set("cache.l1_hit_ratio", "ratio", ratio(c[cL1Hits], c[cL1Hits]+c[cL1Misses]))
	m.set("cache.l1_mshr_merges", "count", per(cL1Merges))
	m.set("cache.l1_reservation_fails", "count", per(cL1ResFails))
	m.set("icnt.req_wake_frac", "ratio", float64(c[cReqWakes])/stepped)
	m.set("icnt.reply_wake_frac", "ratio", float64(c[cReplyWakes])/stepped)
	m.set("mempart.l2_hit_ratio", "ratio", ratio(c[cL2Hits], c[cL2Hits]+c[cL2Misses]))
	m.set("mempart.l2_stalls", "count", per(cL2Stalls))
	m.set("dram.row_hit_ratio", "ratio", ratio(c[cDRAMRowHits], c[cDRAMScheduled]))
	m.set("dram.mean_queue_wait_cycles", "cycles", ratio(c[cDRAMQueueWait], c[cDRAMScheduled]))
	m.set("sched.blocks_dispatched", "count", per(cBlocks))
	m.set("core.analysis_s", "s", perJob("core.analysis"))
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// counterDiff names the first counter that differs.
func counterDiff(want, got counters) string {
	for i := range want {
		if want[i] != got[i] {
			return fmt.Sprintf("%s: %d, want %d", counterNames[i], got[i], want[i])
		}
	}
	return ""
}

// table1Cells are the paper's Table I latencies, in cycles, by preset
// and level — the cells the presets were tuned to.
var table1Cells = map[string]map[string]float64{
	"GF106": {"l1_cycles": 45, "l2_cycles": 310, "dram_cycles": 685},
	"GT200": {"dram_cycles": 440},
	"GK104": {"l1_cycles": 30, "l2_cycles": 175, "dram_cycles": 300},
	"GM107": {"l2_cycles": 194, "dram_cycles": 350},
}

// table1MaxErrPct is the largest relative error, in percent, of the
// measured Table I rows against the paper's cells. The presets were fit
// to these cells, so it is a fit residual, not a validation.
func table1MaxErrPct(results []runner.Result) (float64, string) {
	worst, where := 0.0, ""
	for _, res := range results {
		if res.Job.Kind != runner.KindStatic {
			continue
		}
		for _, mt := range res.Metrics {
			if want, ok := table1Cells[res.Job.Arch][mt.Name]; ok {
				if e := 100 * math.Abs(mt.Value-want) / want; e > worst {
					worst, where = e, res.Job.Arch+"."+mt.Name
				}
			}
		}
	}
	return worst, where
}
