package gpulat

// Allocation benchmarks and the allocation-regression gate for the
// per-cycle hot path. The simulator's steady state — coalescing, cache
// lookups, the full device Step — must not allocate: GC pressure is
// wall-clock cost on every simulated cycle, and a single stray
// make/append in a Tick silently costs more than any micro-optimisation
// saves. BENCH_alloc.json pins the budget (allocs/op per benchmark);
// TestAllocRegression fails when a measurement exceeds it. Refresh the
// baseline with `make alloc-baseline` after an intentional change.

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"gpulat/internal/cache"
	"gpulat/internal/gpu"
	"gpulat/internal/kernels"
	"gpulat/internal/mem"
	"gpulat/internal/sim"
	"gpulat/internal/sm"
)

const allocBaselineFile = "BENCH_alloc.json"

// allocStat is one benchmark's committed budget.
type allocStat struct {
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// allocCoalesceAccesses builds a fixed 32-lane pattern that exercises
// every coalescer path: stride runs that merge, 8-byte accesses that
// straddle segment boundaries, and duplicate segments out of order.
func allocCoalesceAccesses() []mem.LaneAccess {
	acc := make([]mem.LaneAccess, 32)
	for i := range acc {
		acc[i] = mem.LaneAccess{Lane: i, Addr: uint64(0x1000 + i*40), Size: 8}
	}
	// A few lanes jump backward so sorted insertion shifts.
	acc[7].Addr = 0x40
	acc[19].Addr = 0x48
	acc[31].Addr = 0x1000
	return acc
}

// BenchmarkAllocCoalesce measures a warm per-SM coalescer scratch: the
// per-instruction address-divergence path (tentpole budget: 0 allocs/op).
func BenchmarkAllocCoalesce(b *testing.B) {
	var cs mem.CoalesceScratch
	acc := allocCoalesceAccesses()
	cs.Coalesce(acc, 128) // reach capacity before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Coalesce(acc, 128)
	}
}

// allocCacheState builds a small warm cache plus a private request so
// the benchmark loop exercises miss+fill (MSHR churn, victim scan,
// free-list reuse) without touching the request pool.
func allocCacheState() (*cache.Cache, *mem.Request, []uint64) {
	c := cache.New(cache.Config{
		Name: "bench.l1", Sets: 32, Ways: 4, LineSize: 128,
		Replacement: cache.LRU, Write: cache.WriteBackAlloc,
		MSHREntries: 8, MSHRMaxMerge: 4,
	})
	// More distinct lines than capacity, so the steady state is a miss
	// (with eviction) followed by its fill — the most churn-heavy path.
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(i) * 128
	}
	return c, &mem.Request{Size: 4, Kind: mem.KindLoad, SM: -1, Warp: -1}, addrs
}

// BenchmarkAllocCache measures the steady-state miss+fill cycle on a
// warm cache (tentpole budget: 0 allocs/op after MSHR free-listing).
func BenchmarkAllocCache(b *testing.B) {
	c, req, addrs := allocCacheState()
	cy := sim.Cycle(0)
	step := func() {
		req.Addr = addrs[int(cy)%len(addrs)]
		req.ID = uint64(cy)
		if res := c.Access(cy, req); res.Status == cache.Miss {
			c.Fill(cy, c.BlockAddr(req.Addr))
		}
		cy++
	}
	for i := 0; i < 2*len(addrs); i++ {
		step() // warm: every set filled, MSHR free list populated
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// allocSteadyDevice builds a GF100 device running a pointer chase far
// longer than the measurement window and warms it past every lazy
// capacity growth (queues, scratch buffers, free lists), so each further
// Step is pure steady-state simulation under the given warp scheduler.
func allocSteadyDevice(tb testing.TB, sched sm.SchedPolicy) *gpu.GPU {
	cfg, err := Preset("GF100")
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Engine = sim.EngineTick
	cfg.SM.Scheduler = sched
	g := gpu.New(cfg)
	wl, err := kernels.PChase(kernels.PChaseConfig{
		Base: 0x10000, StrideBytes: 512, FootprintBytes: 2 << 20, Accesses: 1 << 30,
	})
	if err != nil {
		tb.Fatal(err)
	}
	wl.Setup(g.Memory)
	if err := g.Launch(wl.Kernel); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		g.Step()
	}
	return g
}

// BenchmarkAllocSMTick measures one full-device cycle — SM cores, both
// networks, partitions, DRAM, dispatch — in steady state under the
// default LRR scheduler (tentpole budget: 0 allocs/op).
func BenchmarkAllocSMTick(b *testing.B) { benchAllocStep(b, sm.LRR) }

// BenchmarkAllocSMTickGTO is BenchmarkAllocSMTick under GTO, so the gate
// covers both schedulers' pick paths (budget: 0 allocs/op).
func BenchmarkAllocSMTickGTO(b *testing.B) { benchAllocStep(b, sm.GTO) }

func benchAllocStep(b *testing.B, sched sm.SchedPolicy) {
	g := allocSteadyDevice(b, sched)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Step()
	}
}

// measureAllocs runs the gated paths under testing.AllocsPerRun.
func measureAllocs(tb testing.TB) map[string]float64 {
	var cs mem.CoalesceScratch
	acc := allocCoalesceAccesses()
	cs.Coalesce(acc, 128)

	c, req, addrs := allocCacheState()
	cy := sim.Cycle(0)
	for i := 0; i < 2*len(addrs); i++ {
		req.Addr = addrs[int(cy)%len(addrs)]
		if res := c.Access(cy, req); res.Status == cache.Miss {
			c.Fill(cy, c.BlockAddr(req.Addr))
		}
		cy++
	}

	g := allocSteadyDevice(tb, sm.LRR)
	gGTO := allocSteadyDevice(tb, sm.GTO)

	return map[string]float64{
		"BenchmarkAllocCoalesce": testing.AllocsPerRun(200, func() {
			cs.Coalesce(acc, 128)
		}),
		"BenchmarkAllocCache": testing.AllocsPerRun(200, func() {
			req.Addr = addrs[int(cy)%len(addrs)]
			if res := c.Access(cy, req); res.Status == cache.Miss {
				c.Fill(cy, c.BlockAddr(req.Addr))
			}
			cy++
		}),
		"BenchmarkAllocSMTick": testing.AllocsPerRun(200, func() {
			g.Step()
		}),
		"BenchmarkAllocSMTickGTO": testing.AllocsPerRun(200, func() {
			gGTO.Step()
		}),
	}
}

// TestAllocRegression is the allocation gate: each measured path must
// stay within its committed BENCH_alloc.json budget (exactly zero for a
// zero baseline, 10% headroom otherwise). GPULAT_ALLOC_BASELINE=write
// refreshes the baseline instead of comparing — bytes/op comes from a
// full -benchmem run of the corresponding benchmark.
func TestAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is not meaningful under -race")
	}
	if testing.Short() {
		t.Skip("steady-state warm-up is too slow for -short")
	}
	measured := measureAllocs(t)

	if os.Getenv("GPULAT_ALLOC_BASELINE") == "write" {
		writeAllocBaseline(t, measured)
		return
	}

	data, err := os.ReadFile(allocBaselineFile)
	if err != nil {
		t.Fatalf("no %s (run `make alloc-baseline` to create it): %v", allocBaselineFile, err)
	}
	var baseline map[string]allocStat
	if err := json.Unmarshal(data, &baseline); err != nil {
		t.Fatalf("parse %s: %v", allocBaselineFile, err)
	}
	for name, got := range measured {
		base, ok := baseline[name]
		if !ok {
			t.Errorf("%s: missing from %s (run `make alloc-baseline`)", name, allocBaselineFile)
			continue
		}
		limit := base.AllocsPerOp * 1.10
		if got > limit {
			t.Errorf("%s: %.2f allocs/op exceeds baseline %.2f (limit %.2f) — the hot path regressed",
				name, got, base.AllocsPerOp, limit)
		} else {
			t.Logf("%s: %.2f allocs/op (baseline %.2f)", name, got, base.AllocsPerOp)
		}
	}
}

// writeAllocBaseline regenerates BENCH_alloc.json: allocs/op from the
// gate's own measurement, bytes/op from a full benchmark run.
func writeAllocBaseline(t *testing.T, measured map[string]float64) {
	bench := map[string]func(*testing.B){
		"BenchmarkAllocCoalesce":  BenchmarkAllocCoalesce,
		"BenchmarkAllocCache":     BenchmarkAllocCache,
		"BenchmarkAllocSMTick":    BenchmarkAllocSMTick,
		"BenchmarkAllocSMTickGTO": BenchmarkAllocSMTickGTO,
	}
	out := make(map[string]allocStat, len(measured))
	for name, allocs := range measured {
		r := testing.Benchmark(bench[name])
		out[name] = allocStat{AllocsPerOp: allocs, BytesPerOp: r.AllocedBytesPerOp()}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(allocBaselineFile, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %s: %s\n", allocBaselineFile, data)
}
