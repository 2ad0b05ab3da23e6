package gpu

import (
	"fmt"
	"strings"
	"testing"

	"gpulat/internal/dram"
	"gpulat/internal/icnt"
	"gpulat/internal/isa"
	"gpulat/internal/sched"
	"gpulat/internal/sim"
	"gpulat/internal/sm"
)

// chaseKernel builds a single-thread pointer chase: r1 = mem[r1],
// repeated n times around a ring — the latency-bound extreme where the
// whole machine idles on one in-flight load at a time, the event
// engine's best case and the paper's motivating access pattern.
func chaseKernel(base uint64, n int) *sm.Kernel {
	b := isa.NewBuilder("chase")
	b.Param(1, 0).
		MovI(2, int32(n)).
		Label("loop").
		Ldg(1, 1, 0). // r1 = mem[r1]
		IAddI(2, 2, -1).
		ISetpI(0, isa.CmpGT, 2, 0).
		P(0).Bra("loop").
		Param(3, 1).
		Stg(3, 0, 1). // publish the final pointer
		Exit()
	return &sm.Kernel{
		Program:  b.Build(),
		Params:   []uint32{uint32(base), uint32(base + 1<<20)},
		BlockDim: 1,
		GridDim:  1,
	}
}

// setupRing writes a pointer ring of the given stride under the kernel's
// base address.
func setupRing(g *GPU, base uint64, elems int, stride uint64) {
	for i := 0; i < elems; i++ {
		next := base + uint64((i+1)%elems)*stride
		g.Memory.Store32(base+uint64(i)*stride, uint32(next))
	}
}

// fillKernel keeps every warp slot busy with divergent, barrier-
// synchronized work: each thread loads in[gid], adds 1 for (tid&3)+1
// loop trips (lanes of one warp diverge), meets its block at a barrier
// and stores the sum to out[gid]. The grid is two full waves of the
// device's warp slots, so slots are refilled by relaunches while the
// previous residents' loads may still be in flight.
func fillKernel(cfg Config, in, out uint32) *sm.Kernel {
	const blockDim = 128
	n := 2 * cfg.NumSMs * cfg.SM.MaxWarps * cfg.SM.WarpSize
	b := isa.NewBuilder("fill")
	b.S2R(1, isa.SrTID).
		S2R(2, isa.SrCTAID).
		S2R(3, isa.SrNTID).
		IMad(4, 2, 3, 1). // gid
		ShlI(5, 4, 2).
		Param(6, 0).
		IAdd(6, 6, 5).
		Ldg(7, 6, 0).
		AndI(9, 1, 3).
		MovI(10, 0).
		Label("loop").
		IAddI(7, 7, 1).
		IAddI(10, 10, 1).
		ISetp(0, isa.CmpLE, 10, 9).
		P(0).Bra("loop").
		Bar().
		Param(8, 1).
		IAdd(8, 8, 5).
		Stg(8, 0, 7).
		Exit()
	return &sm.Kernel{
		Program:  b.Build(),
		Params:   []uint32{in, out},
		BlockDim: blockDim,
		GridDim:  n / blockDim,
	}
}

// engineWorkloads are the micro-workloads every engine variant runs.
var engineWorkloads = []string{"vecinc", "chase", "fill"}

// engineVariants are the configurations the cross-engine checks cover:
// every DRAM scheduler, both warp schedulers, and the cache topologies
// of all simulated generations (Fermi with L1+L2, Tesla with neither in
// the global path). The wide variants fill all 64 warp slots (the top
// bit of the SM's warp-slot masks) and issue two instructions per
// cycle, so the per-cycle exclude set is exercised under both
// schedulers.
func engineVariants() map[string]Config {
	base := tinyConfig()

	tesla := tinyConfig()
	tesla.SM.L1Enabled = false
	tesla.SM.L1LocalEnabled = false
	tesla.Partition.L2Enabled = false

	fcfs := tinyConfig()
	fcfs.Partition.DRAM.Scheduler = dram.FCFS

	capped := tinyConfig()
	capped.Partition.DRAM.Scheduler = dram.FRFCFSCap
	capped.Partition.DRAM.CapStreak = 2

	gto := tinyConfig()
	gto.SM.Scheduler = sm.GTO

	wide := tinyConfig()
	wide.SM.MaxWarps = 64
	wide.SM.MaxBlocks = 16
	wide.SM.IssueWidth = 2

	wideGTO := wide
	wideGTO.SM.Scheduler = sm.GTO

	return map[string]Config{
		"base": base, "tesla": tesla, "fcfs": fcfs, "cap": capped, "gto": gto,
		"wide": wide, "wide-gto": wideGTO,
	}
}

// runEngineWorkload launches one of the named micro-workloads on a fresh
// device and runs it to completion.
func runEngineWorkload(t *testing.T, cfg Config, workload string) (*GPU, sim.Cycle) {
	t.Helper()
	g := New(cfg)
	// The lost-wakeup detector re-polls every component's horizon after
	// each stepped cycle; a component able to act before its armed wake
	// fails the run even when the final state happens to match.
	g.SetWakeAudit(true)
	var k *sm.Kernel
	switch workload {
	case "vecinc":
		const n = 512
		in, out := uint64(0x1000), uint64(0x40000)
		for i := 0; i < n; i++ {
			g.Memory.Store32(in+uint64(i)*4, uint32(i))
		}
		k = vecIncKernel(uint32(in), uint32(out), n, 64)
	case "chase":
		const base, elems, stride = 0x10000, 64, 512
		setupRing(g, base, elems, stride)
		k = chaseKernel(base, 3*elems)
	case "fill":
		k = fillKernel(cfg, 0x100000, 0x200000)
		for i := 0; i < k.TotalThreads(); i++ {
			g.Memory.Store32(0x100000+uint64(i)*4, uint32(i))
		}
	default:
		t.Fatalf("unknown workload %q", workload)
	}
	cycles, err := g.RunKernel(k)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if bad := g.WakeAuditViolations(); len(bad) > 0 {
		t.Fatalf("%s: wake audit violations:\n%s", workload, strings.Join(bad, "\n"))
	}
	if workload == "fill" {
		for i := 0; i < k.TotalThreads(); i++ {
			want := uint32(i) + uint32(i%k.BlockDim&3) + 1
			if got := g.Memory.Load32(0x200000 + uint64(i)*4); got != want {
				t.Fatalf("fill: out[%d] = %d, want %d", i, got, want)
			}
		}
	}
	return g, cycles
}

// deviceSignature renders every piece of semantic device state the
// engines must agree on, canonicalized at cycle at (the SM applies
// due-but-undrained writebacks virtually — see sm.DebugState). Per-cycle
// idle observations are excluded: the device and SM cycle counters and
// empty-issue-slot counts advance on skipped cycles by design (and are
// replayed by SkipIdle), and the crossbar's EjectBlocked counts
// full-queue observations, not events. A non-nil retry is added to the
// stall counters it covers, rendering the state one more cycle of parked
// retries would leave.
func deviceSignature(g *GPU, at sim.Cycle, retry *parkedRetries) string {
	var b strings.Builder
	gs := g.Stats()
	gs.Cycles, gs.SkippedCycles = 0, 0
	fmt.Fprintf(&b, "gpu:%+v disp:%s\n", gs, g.disp.DebugState())
	for i, s := range g.sms {
		ss := s.Stats()
		ss.Cycles, ss.IssueStallEmpty = 0, 0
		fmt.Fprintf(&b, "sm%d:%+v %s\n", s.Config().ID, ss, s.DebugState(at))
		if l1 := s.L1(); l1 != nil {
			ls := l1.Stats()
			if retry != nil {
				ls.ReservationFails += retry.l1Resv[i]
			}
			fmt.Fprintf(&b, "  l1:%+v\n", ls)
		}
	}
	for i, p := range g.parts {
		ps, ds := p.Stats(), p.DRAM().Stats()
		if retry != nil {
			ps.L2Stalls += retry.l2Stalls[i]
			ds.Stalls += retry.dramStalls[i]
		}
		fmt.Fprintf(&b, "part%d:%+v %s\n", i, ps, p.DebugState())
		fmt.Fprintf(&b, "  dram:%+v %s\n", ds, p.DRAM().DebugState())
		if l2 := p.L2(); l2 != nil {
			ls := l2.Stats()
			if retry != nil {
				ls.ReservationFails += retry.l2Resv[i]
			}
			fmt.Fprintf(&b, "  l2:%+v\n", ls)
		}
	}
	for _, x := range []*icnt.Crossbar{g.reqNet, g.replyNet} {
		xs := x.Stats()
		xs.EjectBlocked = 0
		fmt.Fprintf(&b, "%s:%+v %s\n", x.Config().Name, xs, x.DebugState())
	}
	return b.String()
}

// parkedRetries holds the stall counters one cycle of retries by the
// parked queue heads records: per SM the L1 reservation failures of a
// parked LDST head, per partition the L2 stalls, L2 reservation
// failures and DRAM stall marks of a parked L2 queue head. Each is 0 or
// 1, and non-zero only while its head is parked — exactly what SkipIdle
// and SkipStalled replay per skipped cycle.
type parkedRetries struct {
	l1Resv, l2Stalls, l2Resv, dramStalls []uint64
}

func parkedRetriesOf(g *GPU) *parkedRetries {
	r := &parkedRetries{l1Resv: make([]uint64, len(g.sms))}
	for i, s := range g.sms {
		r.l1Resv[i] = s.ParkedReservationFails()
	}
	for _, p := range g.parts {
		l2Stalls, l2Resv, dramStalls := p.ParkedStalls()
		r.l2Stalls = append(r.l2Stalls, l2Stalls)
		r.l2Resv = append(r.l2Resv, l2Resv)
		r.dramStalls = append(r.dramStalls, dramStalls)
	}
	return r
}

// statsSignature is the engine-comparable subset of deviceSignature: the
// full counters including the idle observations SkipIdle replays, so the
// test also proves the replay is exact.
func statsSignature(g *GPU) string {
	var b strings.Builder
	gs := g.Stats()
	gs.SkippedCycles = 0
	fmt.Fprintf(&b, "gpu:%+v\n", gs)
	for _, s := range g.sms {
		fmt.Fprintf(&b, "sm%d:%+v\n", s.Config().ID, s.Stats())
		if l1 := s.L1(); l1 != nil {
			fmt.Fprintf(&b, "  l1:%+v\n", l1.Stats())
		}
	}
	for i, p := range g.parts {
		fmt.Fprintf(&b, "part%d:%+v dram:%+v\n", i, p.Stats(), p.DRAM().Stats())
		if l2 := p.L2(); l2 != nil {
			fmt.Fprintf(&b, "  l2:%+v\n", l2.Stats())
		}
	}
	for _, x := range []*icnt.Crossbar{g.reqNet, g.replyNet} {
		xs := x.Stats()
		xs.EjectBlocked = 0
		fmt.Fprintf(&b, "net:%+v\n", xs)
	}
	return b.String()
}

// TestEventEngineMatchesTick runs each micro-workload on each
// configuration variant under both engines and requires identical
// cycle counts, final semantic state, and statistics — including the
// idle counters SkipIdle reconstructs.
func TestEventEngineMatchesTick(t *testing.T) {
	for vname, cfg := range engineVariants() {
		for _, wl := range engineWorkloads {
			t.Run(vname+"/"+wl, func(t *testing.T) {
				tickCfg := cfg
				tickCfg.Engine = sim.EngineTick
				eventCfg := cfg
				eventCfg.Engine = sim.EngineEvent

				gt, ct := runEngineWorkload(t, tickCfg, wl)
				ge, ce := runEngineWorkload(t, eventCfg, wl)
				if ct != ce {
					t.Fatalf("cycles: tick %d, event %d", ct, ce)
				}
				if a, b := deviceSignature(gt, gt.Cycle(), nil), deviceSignature(ge, ge.Cycle(), nil); a != b {
					t.Fatalf("final state diverged:\n--- tick ---\n%s--- event ---\n%s", a, b)
				}
				if a, b := statsSignature(gt), statsSignature(ge); a != b {
					t.Fatalf("statistics diverged:\n--- tick ---\n%s--- event ---\n%s", a, b)
				}
				if ge.Stats().SkippedCycles == 0 {
					t.Fatalf("event engine skipped nothing on %s/%s", vname, wl)
				}
			})
		}
	}
}

// runCoRunWorkload co-runs a latency-bound chase and a bandwidth-bound
// vecinc on independent streams (disjoint data) under the given engine
// and placement.
func runCoRunWorkload(t *testing.T, cfg Config) (*GPU, sim.Cycle) {
	t.Helper()
	g := New(cfg)
	g.SetWakeAudit(true)
	const n = 256
	for i := 0; i < n; i++ {
		g.Memory.Store32(0x40000+uint64(i)*4, uint32(i))
	}
	setupRing(g, 0x10000, 32, 512)
	if _, err := g.Enqueue("lat", chaseKernel(0x10000, 96)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Enqueue("bw", vecIncKernel(0x40000, 0x60000, n, 64)); err != nil {
		t.Fatal(err)
	}
	cycles, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if bad := g.WakeAuditViolations(); len(bad) > 0 {
		t.Fatalf("co-run wake audit violations:\n%s", strings.Join(bad, "\n"))
	}
	return g, cycles
}

// TestEventEngineMatchesTickCoRun extends the engine-equivalence check
// to concurrent kernels: multi-stream horizons must merge exactly, under
// both placement policies.
func TestEventEngineMatchesTickCoRun(t *testing.T) {
	for _, placement := range []sched.Placement{sched.PlacementShared, sched.PlacementSpatial} {
		t.Run(placement.String(), func(t *testing.T) {
			tickCfg := tinyConfig()
			tickCfg.Engine = sim.EngineTick
			tickCfg.Placement = placement
			eventCfg := tickCfg
			eventCfg.Engine = sim.EngineEvent

			gt, ct := runCoRunWorkload(t, tickCfg)
			ge, ce := runCoRunWorkload(t, eventCfg)
			if ct != ce {
				t.Fatalf("cycles: tick %d, event %d", ct, ce)
			}
			if a, b := deviceSignature(gt, gt.Cycle(), nil), deviceSignature(ge, ge.Cycle(), nil); a != b {
				t.Fatalf("final state diverged:\n--- tick ---\n%s--- event ---\n%s", a, b)
			}
			if a, b := statsSignature(gt), statsSignature(ge); a != b {
				t.Fatalf("statistics diverged:\n--- tick ---\n%s--- event ---\n%s", a, b)
			}
			if ge.Stats().SkippedCycles == 0 {
				t.Fatal("event engine skipped nothing on the co-run")
			}
		})
	}
}

// TestNextEventHorizonNeverLate is the NextEvent-contract property test:
// under the tick engine, every simulated cycle strictly before the
// reported horizon must be a provable no-op. The only change allowed
// inside a reported quiescent span is one cycle of parked heads' retry
// counters (parkedRetries), which SkipIdle and SkipStalled replay; any
// other change means a component over-reported its horizon — exactly
// the bug that would let the event engine skip real work.
func TestNextEventHorizonNeverLate(t *testing.T) {
	for vname, cfg := range engineVariants() {
		for _, wl := range engineWorkloads {
			t.Run(vname+"/"+wl, func(t *testing.T) {
				cfg := cfg
				cfg.Engine = sim.EngineTick
				g := New(cfg)
				var k *sm.Kernel
				switch wl {
				case "vecinc":
					const n = 256
					for i := 0; i < n; i++ {
						g.Memory.Store32(0x1000+uint64(i)*4, uint32(i))
					}
					k = vecIncKernel(0x1000, 0x40000, n, 64)
				case "chase":
					setupRing(g, 0x10000, 32, 512)
					k = chaseKernel(0x10000, 64)
				case "fill":
					k = fillKernel(cfg, 0x100000, 0x200000)
				}
				if err := g.Launch(k); err != nil {
					t.Fatal(err)
				}
				quiet, checked := 0, 0
				for !g.Done() {
					now := g.Cycle()
					h := g.NextEvent(now)
					if h == sim.Never {
						t.Fatalf("cycle %d: Never horizon on a non-drained device", now)
					}
					// Canonicalize both captures at the SAME cycle (now):
					// the step is allowed to drain writebacks already due
					// at now, and the canonical rendering makes that drain
					// invisible. It is also allowed the stall counters of
					// parked heads' retries, rendered into the expected
					// state up front — any other change is a contract
					// violation.
					var sig string
					if h > now {
						sig = deviceSignature(g, now, parkedRetriesOf(g))
					}
					g.Step()
					if g.Cycle() > 500_000 {
						t.Fatal("runaway simulation")
					}
					if h > now {
						quiet++
						if got := deviceSignature(g, now, nil); got != sig {
							t.Fatalf("cycle %d changed state inside reported quiescence until %d:\n--- before ---\n%s--- after ---\n%s",
								now, h, sig, got)
						}
					}
					checked++
				}
				if quiet == 0 {
					t.Fatalf("horizon never exceeded now in %d cycles (nothing would be skipped)", checked)
				}
			})
		}
	}
}
