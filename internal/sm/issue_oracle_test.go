package sm

import (
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"gpulat/internal/isa"
	"gpulat/internal/sim"
)

// The oracle below is the full-slot scan the bitmask issue path
// replaced: every pick and every horizon visits all MaxWarps slots and
// re-decodes each warp's next instruction through isa.SrcRegs. It is
// kept only as the reference TestIssueMatchesSlotScan compares against.

func (s *SM) oracleCanIssue(c sim.Cycle, ws int) bool {
	return s.blockedTo[ws] <= c && s.oracleIssuableIgnoringDelay(ws)
}

// oracleHazard decodes an instruction's scoreboard and predicate masks.
func oracleHazard(in *isa.Instruction) (uint64, uint8) {
	var regMask uint64
	var buf [4]isa.Reg
	for _, r := range in.SrcRegs(buf[:0]) {
		regMask |= 1 << r
	}
	if in.Op.WritesDst() && in.Dst != isa.RZ {
		regMask |= 1 << in.Dst
	}
	var predMask uint8
	if in.Pred != isa.PT {
		predMask |= 1 << in.Pred
	}
	if (in.Op == isa.OpISETP || in.Op == isa.OpSELP) && in.PDst != isa.PT {
		predMask |= 1 << in.PDst
	}
	return regMask, predMask
}

func (s *SM) oracleIssuableIgnoringDelay(ws int) bool {
	w := s.warps[ws]
	if w == nil || w.Done() || w.AtBarrier {
		return false
	}
	in := s.blocks[w.BlockSlot].kernel.Program.At(w.PC())
	regMask, predMask := oracleHazard(in)
	if s.sbRegs[ws]&regMask != 0 || s.sbPreds[ws]&predMask != 0 {
		return false
	}
	return !in.Op.IsMemory() || s.ldstQ.CanPush()
}

func (s *SM) oracleIssueReadyAt(ws int) (sim.Cycle, bool) {
	if s.sbHazard&(1<<ws) != 0 {
		if s.exec.Len() == 0 {
			return 0, false
		}
		return s.exec.NextReady(), true
	}
	w := s.warps[ws]
	in := s.blocks[w.BlockSlot].kernel.Program.At(w.PC())
	regMask, predMask := oracleHazard(in)
	var at sim.Cycle
	for m := s.sbRegs[ws] & regMask; m != 0; m &= m - 1 {
		rel := s.regClearAt[ws*64+bits.TrailingZeros64(m)]
		if rel == sim.Never {
			return 0, false
		}
		at = max(at, rel)
	}
	for m := s.sbPreds[ws] & predMask; m != 0; m &= m - 1 {
		at = max(at, s.predClearAt[ws*8+bits.TrailingZeros8(m)])
	}
	if in.Op.IsMemory() && !s.ldstQ.CanPush() {
		return 0, false
	}
	return at, true
}

func (s *SM) oraclePickWarp(c sim.Cycle, exclude uint64) int {
	n := s.cfg.MaxWarps
	switch s.cfg.Scheduler {
	case LRR:
		for k := 1; k <= n; k++ {
			ws := (s.lastSched + k) % n
			if exclude&(1<<ws) == 0 && s.oracleCanIssue(c, ws) {
				return ws
			}
		}
	case GTO:
		if g := s.greedyWarp; g >= 0 && g < n && exclude&(1<<g) == 0 && s.oracleCanIssue(c, g) {
			return g
		}
		best, bestSeq := -1, ^uint64(0)
		for ws := 0; ws < n; ws++ {
			if exclude&(1<<ws) != 0 || s.warps[ws] == nil || !s.oracleCanIssue(c, ws) {
				continue
			}
			if s.warpSeq[ws] < bestSeq {
				best, bestSeq = ws, s.warpSeq[ws]
			}
		}
		return best
	}
	return -1
}

func (s *SM) oracleNextSelfEvent(now sim.Cycle) sim.Cycle {
	busy := s.Pending() > 0
	for _, w := range s.warps {
		busy = busy || w != nil
	}
	if !busy {
		return sim.Never
	}
	if s.respQ.Len() > 0 {
		return now
	}
	h := sim.Never
	if s.retire.Len() > 0 {
		h = min(h, max(now, s.retire.NextReady()))
	}
	if s.ldstQ.Len() > 0 && !s.ldstHeadParked() {
		h = min(h, max(now, s.ldstQ.NextReady()))
	}
	for ws, w := range s.warps {
		if w == nil || w.Done() || w.AtBarrier {
			continue
		}
		at, ok := s.oracleIssueReadyAt(ws)
		if !ok {
			continue
		}
		h = min(h, max(now, s.blockedTo[ws], at))
	}
	if h == sim.Never && s.exec.Len() > 0 {
		h = max(now, s.exec.NextReady())
	}
	return h
}

// randomProgram builds a straight-line program over a small register
// and predicate file, so random scoreboard bits collide with the
// operands often: arithmetic, predicate ops, branches, barriers and
// every memory space, some guarded, some touching RZ.
func randomProgram(rng *rand.Rand, n int) *isa.Program {
	reg := func() isa.Reg {
		if rng.Intn(10) == 0 {
			return isa.RZ
		}
		return isa.Reg(rng.Intn(8))
	}
	pred := func() isa.PredReg {
		if rng.Intn(6) == 0 {
			return isa.PT
		}
		return isa.PredReg(rng.Intn(4))
	}
	b := isa.NewBuilder("random")
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			b.P(pred())
		case 1:
			b.PNot(pred())
		}
		switch rng.Intn(15) {
		case 0:
			b.IAdd(reg(), reg(), reg())
		case 1:
			b.IAddI(reg(), reg(), 3)
		case 2:
			b.IMad(reg(), reg(), reg(), reg())
		case 3:
			b.Mov(reg(), reg())
		case 4:
			b.MovI(reg(), 1)
		case 5:
			b.Selp(reg(), reg(), reg(), pred())
		case 6:
			b.ISetp(pred(), isa.CmpLT, reg(), reg())
		case 7:
			b.S2R(reg(), isa.SrTID)
		case 8:
			b.Ldg(reg(), reg(), 0)
		case 9:
			b.Stg(reg(), 0, reg())
		case 10:
			b.Lds(reg(), reg(), 0)
		case 11:
			b.Sts(reg(), 0, reg())
		case 12:
			b.Atom(reg(), reg(), 0, reg())
		case 13:
			b.Bar()
		case 14:
			b.Bra("end")
		}
	}
	return b.Label("end").Exit().Build()
}

// randomIssueState builds an SM mid-run: random residency with holes,
// random PCs, barrier waits, branch-delay windows, scoreboard bits
// pending on arithmetic writebacks (timed) and on loads (Never),
// sbHazard slots with a previous resident's writebacks still in flight,
// a full LDST queue, and lastSched/greedyWarp at the edges. Every
// scoreboard set goes through the same bookkeeping issue uses, and every
// slot's stamp is refreshed, as the SM's own mutation paths do.
func randomIssueState(rng *rand.Rand, now sim.Cycle) *SM {
	cfg := testSMConfig()
	cfg.MaxWarps = []int{1, 7, 8, 48, 63, 64, 64, 1 + rng.Intn(64)}[rng.Intn(8)]
	cfg.MaxBlocks = 16
	cfg.IssueWidth = 1 + rng.Intn(2)
	cfg.ALULatency = sim.Cycle(1 + rng.Intn(8))
	cfg.LDSTQueueDepth = 1 + rng.Intn(3)
	if rng.Intn(2) == 0 {
		cfg.Scheduler = GTO
	}
	s := New(cfg, nil, func() uint64 { return 0 }, nil)
	k := &Kernel{
		Program:  randomProgram(rng, 4+rng.Intn(20)),
		BlockDim: 1 + rng.Intn(4*cfg.WarpSize),
		GridDim:  1 << 20,
	}
	for ctaid := 0; s.CanLaunch(k); ctaid++ {
		s.LaunchBlock(k, ctaid, 0)
	}
	n := cfg.MaxWarps
	for ws := 0; ws < n; ws++ {
		if w := s.warps[ws]; w != nil && rng.Intn(5) == 0 {
			w.ExitLanes(w.ActiveMask(), w.PC()+1)
			s.retireWarpIfDone(now, ws)
		}
	}

	type wb struct {
		enter sim.Cycle
		ev    wbEvent
	}
	var wbs []wb
	depth := s.exec.Depth()
	pending := func(ws int, regMask uint64, predMask uint8) {
		enter := now - sim.Cycle(rng.Intn(int(depth)))
		wbs = append(wbs, wb{enter, wbEvent{warpSlot: ws, regMask: regMask, predMask: predMask}})
		s.wbInFlight[ws]++
	}
	for ws := 0; ws < n; ws++ {
		w := s.warps[ws]
		if w == nil {
			continue
		}
		w.Advance(rng.Intn(k.Program.Len()))
		w.AtBarrier = rng.Intn(8) == 0
		if rng.Intn(3) == 0 {
			s.blockedTo[ws] = now - 3 + sim.Cycle(rng.Intn(10))
		}
		for i := rng.Intn(4); i > 0; i-- {
			r := isa.Reg(rng.Intn(8))
			if s.sbRegs[ws]&(1<<r) != 0 {
				continue
			}
			s.sbRegs[ws] |= 1 << r
			if rng.Intn(3) == 0 {
				s.regClearAt[ws*64+int(r)] = sim.Never // a load
				continue
			}
			pending(ws, 1<<r, 0)
			s.regClearAt[ws*64+int(r)] = wbs[len(wbs)-1].enter + depth
		}
		if rng.Intn(3) == 0 {
			p := rng.Intn(4)
			if s.sbPreds[ws]&(1<<p) == 0 {
				s.sbPreds[ws] |= 1 << p
				pending(ws, 0, 1<<p)
				s.predClearAt[ws*8+p] = wbs[len(wbs)-1].enter + depth
			}
		}
		if rng.Intn(8) == 0 {
			// A previous resident's writebacks, striking whatever bits
			// they name whenever they land.
			s.sbHazard |= 1 << ws
			for i := 1 + rng.Intn(2); i > 0; i-- {
				pending(ws, uint64(rng.Intn(256)), uint8(rng.Intn(16)))
			}
		}
	}
	sort.SliceStable(wbs, func(i, j int) bool { return wbs[i].enter < wbs[j].enter })
	for _, e := range wbs {
		s.exec.Enter(e.enter, e.ev)
	}
	if rng.Intn(3) == 0 {
		for s.ldstQ.CanPush() {
			s.ldstQ.Push(now, &memInst{})
		}
	}
	switch rng.Intn(4) {
	case 0:
		s.lastSched = 0
	case 1:
		s.lastSched = n - 1
	default:
		s.lastSched = rng.Intn(n)
	}
	s.greedyWarp = rng.Intn(n)
	for ws := 0; ws < n; ws++ {
		s.refreshReady(ws)
	}
	return s
}

// TestIssueMatchesSlotScan compares the bitmask pick and the cached-
// stamp horizon with the full-slot scan on seeded random SM states,
// stepping each state's exec pipe through every pending drain.
func TestIssueMatchesSlotScan(t *testing.T) {
	const now = 100
	seeds := 3000
	if testing.Short() {
		seeds = 300
	}
	sawTop, sawPick := false, 0
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		s := randomIssueState(rng, now)
		n := s.cfg.MaxWarps
		sawTop = sawTop || (n == 64 && s.lastSched == 63)
		for c := sim.Cycle(now); c <= now+s.exec.Depth()+2; c++ {
			s.drainExec(c)
			for _, excl := range []uint64{0, rng.Uint64(), s.resident &^ (1 << rng.Intn(n)), ^uint64(0)} {
				got, want := s.pickWarp(c, excl), s.oraclePickWarp(c, excl)
				if got != want {
					t.Fatalf("seed %d cycle %d %v exclude %#x: pickWarp %d, slot scan %d",
						seed, c, s.cfg.Scheduler, excl, got, want)
				}
				if got >= 0 {
					sawPick++
				}
			}
			for _, at := range []sim.Cycle{c, c + 1} {
				if got, want := s.NextSelfEvent(at), s.oracleNextSelfEvent(at); got != want {
					t.Fatalf("seed %d at %d: NextSelfEvent %d, slot scan %d", seed, at, got, want)
				}
			}
		}
	}
	if !sawTop || sawPick == 0 {
		t.Fatalf("states too narrow: lastSched=63 at 64 slots seen %v, successful picks %d", sawTop, sawPick)
	}
}
