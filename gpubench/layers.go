package main

import (
	"fmt"
	"math"

	"gpulat/internal/config"
	"gpulat/internal/core"
	"gpulat/internal/gpu"
	"gpulat/internal/kernels"
	"gpulat/internal/runner"
	"gpulat/internal/sim"
	"gpulat/internal/sm"
)

// Component counters summed over every device a job builds, read from
// each component's Stats() after the run. They are simulated
// statistics: a change to any of them is a model change.
const (
	cDevices = iota
	cCycles
	cSkipped
	cInsts
	cArms
	cWakes
	cReqWakes
	cReplyWakes
	cIssueSlots
	cStallEmpty
	cL1Hits
	cL1Misses
	cL1Merges
	cL1ResFails
	cL2Hits
	cL2Misses
	cL2Stalls
	cDRAMScheduled
	cDRAMRowHits
	cDRAMQueueWait
	cBlocks
	nCounters
)

var counterNames = [nCounters]string{
	"devices", "cycles", "skipped_cycles", "inst_issued",
	"wake_arms", "wakes", "reqnet_wakes", "replynet_wakes",
	"issue_slots", "stall_empty",
	"l1_hits", "l1_misses", "l1_mshr_merges", "l1_reservation_fails",
	"l2_hits", "l2_misses", "l2_stalls",
	"dram_scheduled", "dram_row_hits", "dram_queue_wait",
	"blocks_dispatched",
}

type counters [nCounters]uint64

func (c *counters) add(o counters) {
	for i := range c {
		c[i] += o[i]
	}
}

// addDevice folds one finished device's component statistics into c.
func (c *counters) addDevice(g *gpu.GPU) {
	st := g.Stats()
	c[cDevices]++
	c[cCycles] += st.Cycles
	c[cSkipped] += st.SkippedCycles
	c[cBlocks] += st.BlocksDispatch
	for _, w := range g.WakeStats() {
		c[cArms] += w.Arms
		c[cWakes] += w.Fired
		switch w.Name {
		case "reqnet":
			c[cReqWakes] += w.Fired
		case "replynet":
			c[cReplyWakes] += w.Fired
		}
	}
	for _, s := range g.SMs() {
		ss := s.Stats()
		c[cInsts] += ss.InstIssued
		c[cIssueSlots] += ss.Cycles * uint64(g.Config().SM.IssueWidth)
		c[cStallEmpty] += ss.IssueStallEmpty
		if l1 := s.L1(); l1 != nil {
			cs := l1.Stats()
			c[cL1Hits] += cs.Hits
			c[cL1Misses] += cs.Misses
			c[cL1Merges] += cs.MSHRMerges
			c[cL1ResFails] += cs.ReservationFails
		}
	}
	for _, p := range g.Partitions() {
		ps := p.Stats()
		c[cL2Hits] += ps.L2Hits
		c[cL2Misses] += ps.L2Misses
		c[cL2Stalls] += ps.L2Stalls
		ds := p.DRAM().Stats()
		c[cDRAMScheduled] += ds.Scheduled
		c[cDRAMRowHits] += ds.RowHits
		c[cDRAMQueueWait] += ds.QueueWaitSum
	}
}

// jobRun is one job executed layer by layer.
type jobRun struct {
	metrics []runner.Metric
	counts  counters
}

// layerExec runs one job by calling each layer's public API in the
// order runner.Execute calls it, with a span around every call. With
// tracked false it builds devices without the latency tracker and skips
// the analysis — the same simulation, priced without the
// instrumentation; its spans are prefixed "plain.".
type layerExec struct {
	tr      *Tracer
	req     string
	parent  int
	tracked bool
	run     jobRun
}

// execLayers runs job layer by layer under span parent.
func execLayers(tr *Tracer, req string, parent int, job runner.Job, tracked bool) (jobRun, error) {
	x := &layerExec{tr: tr, req: req, parent: parent, tracked: tracked}
	cfg, err := config.ByNameOrFile(job.Arch)
	if err == nil {
		cfg, err = job.Options.Overrides.Apply(cfg)
	}
	if err != nil {
		return x.run, err
	}
	switch job.Kind {
	case runner.KindDynamic:
		err = x.dynamic(cfg, job)
	case runner.KindStatic:
		err = x.static(cfg, job)
	case runner.KindChase:
		err = x.chaseJob(cfg, job)
	default:
		err = fmt.Errorf("gpubench: no layer path for job kind %q", job.Kind)
	}
	return x.run, err
}

func (x *layerExec) span(name string, f func() error) error {
	if !x.tracked {
		name = "plain." + name
	}
	id := x.tr.begin(x.req, x.parent, name)
	err := f()
	x.tr.end(id)
	return err
}

// add appends a result metric, dropping non-finite values as
// runner.Execute does.
func (x *layerExec) add(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	x.run.metrics = append(x.run.metrics, runner.Metric{Name: name, Value: v})
}

// newDevice builds the job's device, with the latency tracker as both
// observers when tracked (as core.RunDynamic wires it), or only as the
// request observer when issueObs is false (as the pointer chase does).
func (x *layerExec) newDevice(cfg gpu.Config, issueObs bool) (*gpu.GPU, *core.Tracker) {
	var g *gpu.GPU
	var trk *core.Tracker
	_ = x.span("gpu.new", func() error {
		switch {
		case !x.tracked:
			g = gpu.New(cfg)
		case issueObs:
			trk = core.NewTracker()
			g = gpu.NewWithObservers(cfg, trk, trk)
		default:
			trk = core.NewTracker()
			g = gpu.NewWithObservers(cfg, trk, nil)
		}
		return nil
	})
	return g, trk
}

func (x *layerExec) runKernel(g *gpu.GPU, k *sm.Kernel) (sim.Cycle, error) {
	var c sim.Cycle
	err := x.span("gpu.run", func() (err error) {
		c, err = g.RunKernel(k)
		return err
	})
	return c, err
}

func (x *layerExec) dynamic(cfg gpu.Config, job runner.Job) error {
	o := job.Options
	scale, vertices := kernels.ScaleExperiment, 1<<13
	if o.TestScale {
		scale, vertices = kernels.ScaleTest, 1<<9
	}
	if o.Vertices > 0 {
		vertices = o.Vertices
	}
	blockDim, buckets := 128, 48
	if o.BlockDim > 0 {
		blockDim = o.BlockDim
	}
	if o.Buckets > 0 {
		buckets = o.Buckets
	}

	var wl *kernels.Workload
	var mk *kernels.MultiKernel
	err := x.span("kernels.build", func() (err error) {
		if job.Kernel == "bfs" {
			graph := kernels.GenScaleFree(vertices, 4, job.Seed)
			mk, err = kernels.BFS(kernels.BFSConfig{Graph: graph, Source: 0, BlockDim: blockDim})
			return err
		}
		wl, err = kernels.NewByName(job.Kernel, scale, job.Seed)
		return err
	})
	if err != nil {
		return err
	}
	g, trk := x.newDevice(cfg, true)
	var cycles sim.Cycle
	launches := 0
	name := ""
	if mk != nil {
		name = mk.Name
		_ = x.span("kernels.setup", func() error { mk.Setup(g.Memory); return nil })
		for {
			var k *sm.Kernel
			_ = x.span("kernels.next", func() error { k = mk.Next(g.Memory, launches); return nil })
			if k == nil {
				break
			}
			c, err := x.runKernel(g, k)
			cycles += c
			if err != nil {
				return fmt.Errorf("%s iteration %d: %w", mk.Name, launches, err)
			}
			launches++
		}
		err = x.span("kernels.verify", func() error { return mk.Verify(g.Memory) })
	} else {
		name = wl.Name
		_ = x.span("kernels.setup", func() error { wl.Setup(g.Memory); return nil })
		if cycles, err = x.runKernel(g, wl.Kernel); err != nil {
			return fmt.Errorf("%s: %w", wl.Name, err)
		}
		launches = 1
		err = x.span("kernels.verify", func() error { return wl.Verify(g.Memory) })
	}
	if err != nil {
		return err
	}
	var dev counters
	dev.addDevice(g)
	x.run.counts.add(dev)
	if !x.tracked {
		return nil
	}
	dr := &core.DynamicResult{Arch: cfg.Name, Workload: name, Tracker: trk, Cycles: cycles,
		Launches: launches, Instructions: dev[cInsts], Device: g}
	return x.span("core.analysis", func() error {
		sum := dr.LoadSummary()
		bd := dr.Breakdown(buckets)
		ex := dr.Exposure(buckets)
		x.add("cycles", float64(dr.Cycles))
		x.add("instructions", float64(dr.Instructions))
		x.add("ipc", dr.IPC())
		x.add("launches", float64(dr.Launches))
		x.add("loads", float64(sum.Count))
		x.add("load_lat_mean", sum.Mean)
		x.add("load_lat_p50", sum.P50)
		x.add("load_lat_p90", sum.P90)
		x.add("load_lat_p99", sum.P99)
		x.add("l1_to_icnt_pct", bd.TotalPct(core.StageL1ToICNT))
		x.add("dram_queue_pct", bd.TotalPct(core.StageDRAMQueue))
		x.add("exposed_pct", ex.OverallExposedPct())
		x.add("mostly_exposed_pct", ex.MostlyExposedPct())
		return nil
	})
}

// chase runs one pointer chase on a fresh device, as core's static
// harness does: an optional untimed warm lap, then the timed lap, and
// the mean instruction-visible latency of the timed loads.
func (x *layerExec) chase(cfg gpu.Config, pc kernels.PChaseConfig, warm bool) (float64, error) {
	g, trk := x.newDevice(cfg, false)
	var wl *kernels.Workload
	err := x.span("kernels.build", func() (err error) {
		wl, err = kernels.PChase(pc)
		return err
	})
	if err != nil {
		return 0, err
	}
	_ = x.span("kernels.setup", func() error { wl.Setup(g.Memory); return nil })
	if warm {
		wcfg := pc
		wcfg.Accesses = int(pc.FootprintBytes / pc.StrideBytes)
		var wwl *kernels.Workload
		if err := x.span("kernels.build", func() (err error) {
			wwl, err = kernels.PChase(wcfg)
			return err
		}); err != nil {
			return 0, err
		}
		if _, err := x.runKernel(g, wwl.Kernel); err != nil {
			return 0, err
		}
		if trk != nil {
			trk.Reset()
		}
	}
	if _, err := x.runKernel(g, wl.Kernel); err != nil {
		return 0, err
	}
	if err := x.span("kernels.verify", func() error { return wl.Verify(g.Memory) }); err != nil {
		return 0, err
	}
	x.run.counts.addDevice(g)
	if !x.tracked {
		return math.NaN(), nil
	}
	var mean float64
	err = x.span("core.analysis", func() error {
		recs := trk.Records()
		if len(recs) == 0 {
			return fmt.Errorf("core: chase produced no tracked loads")
		}
		var sum float64
		for _, r := range recs {
			sum += float64(r.InstTotal)
		}
		mean = sum / float64(len(recs))
		return nil
	})
	return mean, err
}

// levelFootprints mirrors core's Table I probe sizing: inside the L1,
// between L1 and L2, and far beyond the total L2.
func levelFootprints(cfg gpu.Config) (l1FP, l2FP, dramFP uint32) {
	l1Size := uint32(cfg.SM.L1.SizeBytes())
	l2Total := uint32(cfg.Partition.L2.SizeBytes()) * uint32(cfg.NumPartitions)
	if !cfg.Partition.L2Enabled {
		l2Total = 1 << 20
	}
	l1FP = max(l1Size/3, 4096)
	l2FP = l1Size * 4
	if cfg.Partition.L2Enabled && l2FP > l2Total/3 {
		l2FP = l2Total / 3
	}
	l2FP = max(l2FP, 16384)
	dramFP = l2Total * 16
	return
}

// static measures one Table I row, level by level.
func (x *layerExec) static(cfg gpu.Config, job runner.Job) error {
	opt := core.DefaultStaticOptions()
	if job.Options.Accesses > 0 {
		opt.Accesses = job.Options.Accesses
	}
	l1FP, l2FP, dramFP := levelFootprints(cfg)
	mk := func(fp uint32, local bool) kernels.PChaseConfig {
		return kernels.PChaseConfig{Base: opt.Base, StrideBytes: opt.Stride, FootprintBytes: fp,
			Accesses: opt.Accesses, Local: local}
	}
	l1, l2 := math.NaN(), math.NaN()
	var err error
	switch {
	case cfg.SM.L1Enabled:
		l1, err = x.chase(cfg, mk(l1FP, false), true)
	case cfg.SM.L1LocalEnabled:
		l1, err = x.chase(cfg, mk(l1FP, true), true)
	}
	if err != nil {
		return fmt.Errorf("L1 chase: %w", err)
	}
	if cfg.Partition.L2Enabled {
		if l2, err = x.chase(cfg, mk(l2FP, false), true); err != nil {
			return fmt.Errorf("L2 chase: %w", err)
		}
	}
	dpc := mk(dramFP, false)
	if opt.DRAMStride > opt.Stride {
		dpc.StrideBytes = opt.DRAMStride
	}
	dram, err := x.chase(cfg, dpc, false)
	if err != nil {
		return fmt.Errorf("DRAM chase: %w", err)
	}
	x.add("l1_cycles", l1)
	x.add("l2_cycles", l2)
	x.add("dram_cycles", dram)
	return nil
}

// chaseJob measures one stride×footprint point.
func (x *layerExec) chaseJob(cfg gpu.Config, job runner.Job) error {
	o := job.Options
	if o.Stride == 0 || o.Footprint == 0 || o.Footprint < o.Stride {
		return fmt.Errorf("gpubench: chase job needs stride <= footprint, got %d and %d", o.Stride, o.Footprint)
	}
	opt := core.DefaultStaticOptions()
	if o.Accesses > 0 {
		opt.Accesses = o.Accesses
	}
	pc := kernels.PChaseConfig{Base: opt.Base, StrideBytes: o.Stride, FootprintBytes: o.Footprint, Accesses: opt.Accesses}
	v, err := x.chase(cfg, pc, o.Footprint <= 1<<20)
	if err != nil {
		return err
	}
	x.add("stride", float64(o.Stride))
	x.add("footprint", float64(o.Footprint))
	x.add("mean_lat", v)
	return nil
}

// sameMetrics names the first metric missing from either list or whose
// values differ.
func sameMetrics(want, got []runner.Metric) (string, bool) {
	if d, bad := diffMetrics(want, got); bad {
		return d, true
	}
	return diffMetrics(got, want)
}

// diffMetrics names the first metric of got whose value differs from,
// or is missing in, want. Metrics want has beyond got are ignored: the
// layer path reproduces runner.Execute's numbers, not every one of them.
func diffMetrics(want, got []runner.Metric) (string, bool) {
	w := make(map[string]float64, len(want))
	for _, m := range want {
		w[m.Name] = m.Value
	}
	for _, m := range got {
		v, ok := w[m.Name]
		if !ok {
			return fmt.Sprintf("%s: missing, want %v", m.Name, m.Value), true
		}
		if v != m.Value {
			return fmt.Sprintf("%s: %v, want %v", m.Name, m.Value, v), true
		}
	}
	return "", false
}
