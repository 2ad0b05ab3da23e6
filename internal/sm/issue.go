package sm

import (
	"math/bits"

	"gpulat/internal/isa"
	"gpulat/internal/sim"
)

// issue runs the warp scheduler(s): up to IssueWidth instructions from
// distinct ready warps per cycle.
func (s *SM) issue(c sim.Cycle) {
	if s.resident == 0 {
		return
	}
	// issuedWarp is a warp-slot bitmask (validate caps MaxWarps at 64),
	// so the per-cycle exclude set costs no allocation.
	var issuedWarp uint64
	for slot := 0; slot < s.cfg.IssueWidth; slot++ {
		ws := s.pickWarp(c, issuedWarp)
		if ws < 0 {
			// No warp can issue this slot, so none can issue the remaining
			// slots either (a failed pick changes no state the next pick
			// reads). Account every leftover slot and skip the re-scans.
			s.stats.IssueStallEmpty += uint64(s.cfg.IssueWidth - slot)
			break
		}
		s.issueFrom(c, ws)
		issuedWarp |= 1 << ws
		s.lastSched = ws
		s.greedyWarp = ws
	}
}

// refreshReady recomputes warp slot ws's cached issue stamp, readyAt:
// the earliest cycle at which its next instruction passes the
// scoreboard, ignoring the branch-delay window and LDST queue space. It
// is the max of regClearAt/predClearAt over the pending bits the
// instruction's hazard entry names (zero when none is pending), and
// Never when one of them waits on a load, when the warp waits at a
// barrier, or when the slot is empty. It also records in memNext
// whether that instruction needs LDST queue space. Only resident slots'
// entries are read.
//
// The stamp is a pure function of the warp's PC, barrier flag and
// scoreboard. Every change to them calls refreshReady: issue, launch,
// barrier release, and every scoreboard clear (exec drain and memory
// completion). A clear can come early — a previous resident's
// writeback striking a relaunched slot (sbHazard) — but it refreshes
// the stamp when it lands; and no bit stays set past its recorded
// time, since each Tick drains every writeback due before it picks. So
// at every pick, a stamp <= now means exactly that the needed bits are
// clear.
func (s *SM) refreshReady(ws int) {
	bit := uint64(1) << ws
	w := s.warps[ws]
	if w == nil || w.AtBarrier {
		s.readyAt[ws] = sim.Never
		s.memNext &^= bit
		return
	}
	h := &s.blocks[w.BlockSlot].kernel.Program.Hazards[w.PC()]
	var at sim.Cycle
	for m := s.sbRegs[ws] & h.Regs; m != 0; m &= m - 1 {
		at = max(at, s.regClearAt[ws*64+bits.TrailingZeros64(m)])
	}
	for m := s.sbPreds[ws] & h.Preds; m != 0; m &= m - 1 {
		at = max(at, s.predClearAt[ws*8+bits.TrailingZeros8(m)])
	}
	s.readyAt[ws] = at
	if h.Mem {
		s.memNext |= bit
	} else {
		s.memNext &^= bit
	}
}

// issuable reports whether resident warp slot ws can issue at c, given
// that LDST queue space has already been checked.
func (s *SM) issuable(c sim.Cycle, ws int) bool {
	return max(s.blockedTo[ws], s.readyAt[ws]) <= c
}

// pickWarp selects the next warp per the configured policy; exclude is
// a bitmask of warp slots already issued this cycle. Candidates are the
// resident slots outside exclude, less those whose next instruction
// needs a full LDST queue.
func (s *SM) pickWarp(c sim.Cycle, exclude uint64) int {
	cand := s.resident &^ exclude
	if !s.ldstQ.CanPush() {
		cand &^= s.memNext
	}
	switch s.cfg.Scheduler {
	case LRR:
		// Slots lastSched+1..63 ascending, then 0..lastSched: the order
		// of (lastSched+k) % MaxWarps for k = 1..MaxWarps.
		hi := cand & (^uint64(0) << (s.lastSched + 1))
		for _, m := range [2]uint64{hi, cand &^ hi} {
			for ; m != 0; m &= m - 1 {
				if ws := bits.TrailingZeros64(m); s.issuable(c, ws) {
					return ws
				}
			}
		}
	case GTO:
		if g := s.greedyWarp; cand&(1<<g) != 0 && s.issuable(c, g) {
			return g
		}
		best, bestSeq := -1, ^uint64(0)
		for m := cand; m != 0; m &= m - 1 {
			ws := bits.TrailingZeros64(m)
			if s.warpSeq[ws] < bestSeq && s.issuable(c, ws) {
				best, bestSeq = ws, s.warpSeq[ws]
			}
		}
		return best
	}
	return -1
}

// issueFrom issues one instruction from warp slot ws. The caller has
// verified readiness via pickWarp.
func (s *SM) issueFrom(c sim.Cycle, ws int) {
	w := s.warps[ws]
	bs := &s.blocks[w.BlockSlot]
	prog := bs.kernel.Program
	pc := w.PC()
	in := prog.At(pc)
	active := w.ActiveMask()

	// Per-lane guard evaluation.
	var passMask uint32
	for l := 0; l < s.cfg.WarpSize; l++ {
		if active&(1<<l) == 0 {
			continue
		}
		if w.Threads[l].GuardPasses(in) {
			passMask |= 1 << l
		}
	}

	s.stats.InstIssued++
	s.issuedThisCycle++
	w.InstRetired++
	s.instSeq++

	switch {
	case in.Op == isa.OpBRA:
		reconv := prog.Reconv[pc]
		w.Branch(pc, in.TargetPC, reconv, prog.Len(), passMask)
		s.blockedTo[ws] = c + s.cfg.BranchLatency
	case in.Op == isa.OpEXIT:
		if passMask == 0 {
			w.Advance(pc + 1)
			break
		}
		w.ExitLanes(passMask, pc+1)
		s.retireWarpIfDone(c, ws)
	case in.Op == isa.OpBAR:
		w.Advance(pc + 1)
		if passMask != 0 {
			w.AtBarrier = true
			bs.barrierArrived++
			s.releaseBarrierIfComplete(w.BlockSlot)
		}
	case in.Op.IsMemory():
		s.issueMemInst(c, ws, in, passMask)
		w.Advance(pc + 1)
	default:
		// Arithmetic / moves / predicates: functional execution now,
		// result latency via the exec pipeline.
		for l := 0; l < s.cfg.WarpSize; l++ {
			if passMask&(1<<l) == 0 {
				continue
			}
			t := &w.Threads[l]
			if in.Op == isa.OpS2R && in.Special == isa.SrClock {
				t.Clock = uint32(c)
			}
			t.Eval(in)
		}
		var regMask uint64
		var predMask uint8
		if in.Op.WritesDst() && in.Dst != isa.RZ {
			regMask = 1 << in.Dst
		}
		if in.Op == isa.OpISETP && in.PDst != isa.PT {
			predMask = 1 << in.PDst
		}
		if regMask != 0 || predMask != 0 {
			s.sbRegs[ws] |= regMask
			s.sbPreds[ws] |= predMask
			s.exec.Enter(c, wbEvent{warpSlot: ws, regMask: regMask, predMask: predMask})
			s.wbInFlight[ws]++
			ready := c + s.exec.Depth()
			if regMask != 0 {
				s.regClearAt[ws*64+int(in.Dst)] = ready
			}
			if predMask != 0 {
				s.predClearAt[ws*8+int(in.PDst)] = ready
			}
		}
		w.Advance(pc + 1)
	}
	s.refreshReady(ws)
}

// releaseBarrierIfComplete opens the barrier when every live warp of the
// block has arrived.
func (s *SM) releaseBarrierIfComplete(blockSlot int) {
	bs := &s.blocks[blockSlot]
	if !bs.active || bs.barrierArrived == 0 || bs.barrierArrived < bs.liveWarps {
		return
	}
	for _, ws := range bs.warps {
		if w := s.warps[ws]; w != nil && w.AtBarrier {
			w.AtBarrier = false
			s.refreshReady(ws)
		}
	}
	bs.barrierArrived = 0
}
