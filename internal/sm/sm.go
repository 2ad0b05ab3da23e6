// Package sm models one streaming multiprocessor: warp residency and
// block slots, warp schedulers (loose round-robin and greedy-then-oldest),
// a register scoreboard, fixed-latency execution pipelines, and the LDST
// unit with address coalescing, the L1 data cache, and the miss queue
// toward the interconnect. The time an instruction-generated memory
// request spends inside the SM before its L1 access is the paper's
// "SM Base" latency component; the time a miss waits in the miss queue
// before network injection is "L1toICNT".
//
// Warp issue costs O(resident warps), not O(warp slots × decode). The
// SM keeps the resident warps as a uint64 slot mask, and each program
// carries a per-PC hazard table (isa.Program.Hazards: the registers and
// predicates an instruction needs, and whether it takes an LDST queue
// entry), computed once when the program is built. Each resident warp
// caches a ready stamp: the earliest cycle its next instruction clears
// the scoreboard, from the per-register release times of in-flight
// arithmetic writebacks (regClearAt/predClearAt), or Never while it
// waits on a load or a barrier. The stamp is recomputed only when that
// warp's state changes (refreshReady). A pick walks the resident mask —
// LRR as two ascending TrailingZeros passes split at the last issued
// slot, GTO as the greedy warp then the oldest — and tests
// max(branch-delay window, stamp) <= now, plus LDST queue space for
// memory instructions.
//
// Under the event engine the SM wakes the device (NextEvent /
// NextSelfEvent) when: a buffered response awaits processing (pins now);
// a retire event or the LDST queue head comes due; a warp's next
// instruction becomes issuable — the minimum over resident warps of
// their branch-delay windows and ready stamps, so pure pipe-drain cycles
// are never stepped; or, with nothing else pending, when the execution
// pipe must drain so the core can report itself idle. A queued miss pins
// NextEvent (the engine's injection phase must run) without forcing a
// core tick. Warps blocked on loads carry no term: their wake rides the
// response/retire horizons.
package sm

import (
	"fmt"
	"math/bits"
	"strings"

	"gpulat/internal/cache"
	"gpulat/internal/isa"
	"gpulat/internal/mem"
	"gpulat/internal/sim"
	"gpulat/internal/warp"
)

// SchedPolicy selects the warp scheduling policy.
type SchedPolicy uint8

const (
	// LRR is loose round-robin: rotate through ready warps.
	LRR SchedPolicy = iota
	// GTO is greedy-then-oldest: keep issuing the same warp until it
	// stalls, then switch to the oldest ready warp.
	GTO
)

// String names the policy.
func (p SchedPolicy) String() string {
	if p == LRR {
		return "LRR"
	}
	return "GTO"
}

// Config describes one SM.
type Config struct {
	ID        int
	WarpSize  int
	MaxWarps  int
	MaxBlocks int
	Scheduler SchedPolicy
	// IssueWidth is the number of instructions issued per cycle
	// (distinct warps).
	IssueWidth int

	// ALULatency is the dependent-use latency of arithmetic results;
	// BranchLatency stalls the issuing warp after a branch while it
	// resolves.
	ALULatency    sim.Cycle
	BranchLatency sim.Cycle

	// LDSTIssueLatency is the pipeline depth from instruction issue to
	// the coalescer/L1 access (the front part of "SM Base").
	LDSTIssueLatency sim.Cycle
	// LDSTQueueDepth bounds in-flight warp memory instructions.
	LDSTQueueDepth int
	// CoalesceSegment is the memory transaction size in bytes.
	CoalesceSegment uint32

	// L1Enabled routes global accesses through the L1; L1LocalEnabled
	// routes local (thread-private) accesses through it. On Fermi both
	// are true; on Kepler only locals may use L1; on Tesla and Maxwell
	// the L1 is absent for both.
	L1Enabled      bool
	L1LocalEnabled bool
	L1             cache.Config

	// MissQueueDepth bounds requests waiting to enter the network;
	// ResponseQueueDepth bounds replies waiting to be processed.
	MissQueueDepth     int
	ResponseQueueDepth int
	// WritebackLatency is the return-path depth from data arrival (or
	// L1 hit) to register writeback (the tail of a load's lifetime).
	WritebackLatency sim.Cycle

	// SharedLatency is the base shared-memory access latency;
	// SharedBanks is the bank count for conflict modeling.
	SharedLatency sim.Cycle
	SharedBanks   int
}

func (c Config) validate() error {
	switch {
	case c.WarpSize <= 0 || c.WarpSize > 32:
		return fmt.Errorf("sm %d: warp size must be in 1..32", c.ID)
	case c.MaxWarps <= 0 || c.MaxBlocks <= 0:
		return fmt.Errorf("sm %d: warp/block capacity must be positive", c.ID)
	case c.MaxWarps > 64:
		// Warp-slot sets are uint64 bitmasks: the resident set, the
		// memory-next set, the sbHazard set and issue's per-cycle
		// exclude set. Every real GPU generation modeled resides at most
		// 64 warps per SM.
		return fmt.Errorf("sm %d: at most 64 warp slots supported, got %d", c.ID, c.MaxWarps)
	case c.IssueWidth <= 0:
		return fmt.Errorf("sm %d: issue width must be positive", c.ID)
	case c.LDSTQueueDepth <= 0 || c.MissQueueDepth <= 0 || c.ResponseQueueDepth <= 0:
		return fmt.Errorf("sm %d: queue depths must be positive", c.ID)
	case c.CoalesceSegment == 0 || c.CoalesceSegment&(c.CoalesceSegment-1) != 0:
		return fmt.Errorf("sm %d: coalesce segment must be a power of two", c.ID)
	case c.SharedBanks <= 0:
		return fmt.Errorf("sm %d: shared banks must be positive", c.ID)
	}
	return nil
}

// Kernel bundles everything needed to launch a grid.
type Kernel struct {
	Program *isa.Program
	// Params are the launch parameters readable via S2R PARAM.
	Params []uint32
	// BlockDim is threads per block; GridDim is blocks per grid (1-D).
	BlockDim int
	GridDim  int
	// SharedBytes is the per-block scratchpad allocation.
	SharedBytes uint32
	// LocalBase and LocalBytesPerThread place thread-private "local"
	// memory in the global address space with word interleaving across
	// threads (so unit-offset local accesses coalesce, as on hardware).
	LocalBase           uint64
	LocalBytesPerThread uint32
}

// TotalThreads returns GridDim*BlockDim.
func (k *Kernel) TotalThreads() int { return k.BlockDim * k.GridDim }

// WarpsPerBlock returns the warps needed to cover BlockDim.
func (k *Kernel) WarpsPerBlock(warpSize int) int {
	return (k.BlockDim + warpSize - 1) / warpSize
}

// blockSlot is one resident block's bookkeeping.
type blockSlot struct {
	active         bool
	ctaid          int
	kernel         *Kernel
	kernelID       int   // device-wide launch sequence (per-kernel attribution)
	warps          []int // warp slot indices
	shared         []uint32
	barrierArrived int
	liveWarps      int
	launchSeq      uint64
}

// wbEvent is an execution-pipe writeback releasing scoreboard entries.
type wbEvent struct {
	warpSlot int
	regMask  uint64
	predMask uint8
}

// completion finishes one memory transaction for a warp mem instruction.
type completion struct {
	mi  *memInst
	req *mem.Request
}

// SM is one streaming multiprocessor instance.
type SM struct {
	cfg    Config
	memory *mem.Memory

	warps     []*warp.Warp // indexed by warp slot; nil when free
	resident  uint64       // bit ws set iff warps[ws] != nil
	warpSeq   []uint64     // launch sequence for GTO oldest ordering
	sbRegs    []uint64     // scoreboard: pending dst registers per warp slot
	sbPreds   []uint8      // scoreboard: pending predicate dsts
	blockedTo []sim.Cycle  // warp issue blocked until cycle (branch delay)
	blocks    []blockSlot

	// regClearAt/predClearAt record, for every scoreboard bit currently
	// set, the cycle at which its pending writeback will clear it:
	// the exact exec-pipe exit for arithmetic results, Never for memory
	// loads (their completion time is not knowable from SM-local state —
	// those releases ride the response/retire horizon terms instead).
	// Entries are written at issue time only; a stale entry under a
	// cleared bit is never read. Indexed [slot*64+reg] / [slot*8+pred].
	regClearAt  []sim.Cycle
	predClearAt []sim.Cycle
	// readyAt caches each slot's scoreboard issue stamp and memNext marks
	// slots whose next instruction needs LDST queue space; both are kept
	// current by refreshReady, so neither pickWarp nor NextSelfEvent
	// decodes an instruction.
	readyAt []sim.Cycle
	memNext uint64
	// wbInFlight counts in-flight exec-pipe writebacks per warp slot;
	// sbHazard marks slots relaunched while a previous resident's
	// writebacks were still in flight — their foreign masks will clear
	// the new warp's scoreboard bits at times regClearAt cannot know, so
	// NextSelfEvent falls back to waking at every exec drain until the
	// slot's in-flight count returns to zero.
	wbInFlight []int
	sbHazard   uint64

	ldstQ  *sim.Queue[*memInst]
	missQ  *sim.Queue[*mem.Request]
	respQ  *sim.Queue[*mem.Request]
	l1     *cache.Cache
	exec   *sim.Pipeline[wbEvent]
	retire *sim.Calendar[completion] // delivers at writeback time

	// outstanding maps request ID → transaction bookkeeping. Values, not
	// pointers: entries are written once and deleted on completion, so
	// the steady-state insert-after-delete churn reuses map buckets
	// without heap traffic.
	outstanding map[uint64]txnCtx

	// ldstBlockedOn remembers the LDST-queue head whose last transaction
	// attempt failed on a structural stall, and ldstBlockReason records
	// which one:
	//
	//   - blockMissQ: the miss queue was full. Releases only when the
	//     engine's injection phase pops a miss (external to the SM).
	//   - blockL1: the L1 refused the access (MSHRs exhausted, merge
	//     slots exhausted, or no evictable way). All three release only
	//     via an L1 fill, which happens exclusively in this SM's own
	//     response processing.
	//
	// While the same instruction is still at the head and its stall
	// reason has not been released, re-ticking the LDST unit is a
	// provable no-op (the retry's only effects — a queue-stall note, a
	// cache reservation-fail count and LRU stamp advance — are invisible
	// to the engine-equivalence signatures and preserve relative LRU
	// order), so NextSelfEvent drops the LDST term and the SM sleeps
	// until the releasing event arrives, each of which re-ticks the SM in
	// the same cycle the cycle-driven loop's retry would first succeed.
	// Cleared whenever an attempt gets past the failing check.
	ldstBlockedOn   *memInst
	ldstBlockReason ldstBlock

	newReqID func() uint64
	observer mem.Observer

	// onBlockRetire, when set, is called once per retired block with the
	// retire cycle and the block's kernel ID — the dispatcher's per-
	// kernel completion tracking hangs off it.
	onBlockRetire func(c sim.Cycle, kernelID int)

	lastSched  int
	greedyWarp int
	launchSeq  uint64
	instSeq    uint64

	stats Stats

	// issuedThisCycle is exported to the GPU for exposure accounting.
	issuedThisCycle int

	// Same-cycle memory visibility. During a tick the functional global
	// store is read-only: stores and atomics append to memLog and shadow
	// themselves in memOvl so this SM's own loads still observe them.
	// FlushCycle commits the log once every SM has ticked, so a global
	// store becomes visible to other SMs on the next cycle (see
	// internal/sim/doc.go, "Same-cycle memory visibility").
	memLog []memOp
	memOvl map[uint64]ovlEntry

	// Shared bank-conflict scratch, reused across processShared calls so
	// the steady-state path allocates nothing: bankWords[b] collects the
	// distinct (wrapped) word indices touched in bank b by the current
	// instruction; touchedBanks lists the dirty entries so the reset is
	// O(banks touched), not O(banks).
	bankWords    [][]uint64
	touchedBanks []int

	// coalesce is the per-SM scratch buffer behind mem.Coalesce's flat
	// rewrite; its result is consumed before the next coalesce (only the
	// LDST-queue head ever coalesces, and strictly after the previous
	// head popped).
	coalesce mem.CoalesceScratch

	// reqPool recycles Request/StageLog objects device-wide (nil means
	// plain allocation); miFree recycles this SM's memInst objects. A
	// memInst is recycled at finishMemInst, where provably nothing
	// references it: it left the LDST queue when its last transaction
	// issued, its outstanding map entries are deleted, and ldstBlockedOn
	// is cleared on every successful issue attempt.
	reqPool *mem.RequestPool
	miFree  []*memInst
}

// memOp is one deferred functional-memory effect, replayed in program
// order by FlushCycle.
type memOp struct {
	atom bool
	addr uint64
	val  uint32 // store value, or atomic add operand
	// Atomics write the pre-add word back to a lane register; the lane
	// and destination are captured here because the old value is only
	// known at commit. Deferring the write is safe: the destination is
	// scoreboarded until the atomic's response returns, cycles later.
	t   *isa.ThreadCtx
	dst isa.Reg
}

// ovlEntry shadows a deferred word so this SM's later same-cycle loads
// observe it: abs entries carry a full value (a store happened); plain
// entries accumulate atomic deltas over the committed word.
type ovlEntry struct {
	abs   bool
	val   uint32
	delta uint32
}

type txnCtx struct {
	mi        *memInst
	fillL1    bool
	blockAddr uint64
}

// ldstBlock is the structural-stall reason parking the LDST head.
type ldstBlock uint8

const (
	blockNone ldstBlock = iota
	blockMissQ
	blockL1
)

// Stats counts SM activity.
type Stats struct {
	Cycles          uint64
	InstIssued      uint64
	LoadsIssued     uint64
	StoresIssued    uint64
	IssueStallEmpty uint64 // issue slots left empty: no ready warp
	L1Hits          uint64
	L1Misses        uint64
	L1MergedMisses  uint64
	SharedConflicts uint64
	BlocksRetired   uint64
}

// New constructs an SM. memory is the functional global store shared by
// the whole GPU; newReqID must return unique request IDs; observer
// receives tracked-request completions (may be nil).
func New(cfg Config, memory *mem.Memory, newReqID func() uint64, observer mem.Observer) *SM {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	if observer == nil {
		observer = mem.NopObserver{}
	}
	name := fmt.Sprintf("sm%d", cfg.ID)
	s := &SM{
		cfg:         cfg,
		memory:      memory,
		warps:       make([]*warp.Warp, cfg.MaxWarps),
		warpSeq:     make([]uint64, cfg.MaxWarps),
		sbRegs:      make([]uint64, cfg.MaxWarps),
		sbPreds:     make([]uint8, cfg.MaxWarps),
		blockedTo:   make([]sim.Cycle, cfg.MaxWarps),
		regClearAt:  make([]sim.Cycle, cfg.MaxWarps*64),
		predClearAt: make([]sim.Cycle, cfg.MaxWarps*8),
		readyAt:     make([]sim.Cycle, cfg.MaxWarps),
		wbInFlight:  make([]int, cfg.MaxWarps),
		blocks:      make([]blockSlot, cfg.MaxBlocks),
		ldstQ:       sim.NewQueue[*memInst](name+".ldst", cfg.LDSTQueueDepth, cfg.LDSTIssueLatency),
		missQ:       sim.NewQueue[*mem.Request](name+".miss", cfg.MissQueueDepth, 0),
		respQ:       sim.NewQueue[*mem.Request](name+".resp", cfg.ResponseQueueDepth, 0),
		exec:        sim.NewPipeline[wbEvent](name+".exec", cfg.ALULatency),
		retire:      sim.NewCalendar[completion](name + ".retire"),
		outstanding: make(map[uint64]txnCtx),
		newReqID:    newReqID,
		observer:    observer,
		memOvl:      make(map[uint64]ovlEntry),
		bankWords:   make([][]uint64, cfg.SharedBanks),
	}
	if cfg.L1Enabled || cfg.L1LocalEnabled {
		s.l1 = cache.New(cfg.L1)
	}
	return s
}

// SetRequestPool wires the device-wide request free list. The GPU calls
// it once at construction; standalone SMs (tests) may leave it unset and
// run unpooled. Must not be called while a simulation is in flight.
func (s *SM) SetRequestPool(p *mem.RequestPool) { s.reqPool = p }

// Config returns the SM configuration.
func (s *SM) Config() Config { return s.cfg }

// Stats returns a snapshot of the counters.
func (s *SM) Stats() Stats { return s.stats }

// L1 exposes the data cache (nil when absent).
func (s *SM) L1() *cache.Cache { return s.l1 }

// FreeBlockSlot returns a free block slot index, or -1.
func (s *SM) FreeBlockSlot() int {
	for i := range s.blocks {
		if !s.blocks[i].active {
			return i
		}
	}
	return -1
}

// freeSlots is the set of empty warp slots.
func (s *SM) freeSlots() uint64 {
	return ^s.resident & (^uint64(0) >> (64 - s.cfg.MaxWarps))
}

// freeWarpSlots returns the n lowest free warp slot indices, or nil if
// fewer than n are free.
func (s *SM) freeWarpSlots(n int) []int {
	if !s.hasFreeWarpSlots(n) {
		return nil
	}
	out := make([]int, 0, n)
	for free := s.freeSlots(); len(out) < n; free &= free - 1 {
		out = append(out, bits.TrailingZeros64(free))
	}
	return out
}

// hasFreeWarpSlots reports whether n warp slots are free. CanLaunch
// runs it every dispatch pass, so it must not allocate.
func (s *SM) hasFreeWarpSlots(n int) bool {
	return bits.OnesCount64(s.freeSlots()) >= n
}

// CanLaunch reports whether a block of kernel k fits right now.
func (s *SM) CanLaunch(k *Kernel) bool {
	return s.FreeBlockSlot() >= 0 && s.hasFreeWarpSlots(k.WarpsPerBlock(s.cfg.WarpSize))
}

// SetBlockRetireObserver installs the per-block retire hook (called with
// the retire cycle and the retiring block's kernel ID). The GPU wires it
// to the stream dispatcher's completion tracking.
func (s *SM) SetBlockRetireObserver(fn func(c sim.Cycle, kernelID int)) {
	s.onBlockRetire = fn
}

// LaunchBlock makes block ctaid of kernel k resident, attributed to the
// device-wide kernel launch sequence kernelID. It panics if the block
// does not fit; call CanLaunch first.
func (s *SM) LaunchBlock(k *Kernel, ctaid int, kernelID int) {
	slot := s.FreeBlockSlot()
	nw := k.WarpsPerBlock(s.cfg.WarpSize)
	warpSlots := s.freeWarpSlots(nw)
	if slot < 0 || warpSlots == nil {
		panic(fmt.Sprintf("sm %d: block does not fit", s.cfg.ID))
	}
	s.launchSeq++
	bs := &s.blocks[slot]
	*bs = blockSlot{
		active:    true,
		ctaid:     ctaid,
		kernel:    k,
		kernelID:  kernelID,
		warps:     warpSlots,
		shared:    make([]uint32, (k.SharedBytes+3)/4),
		liveWarps: nw,
		launchSeq: s.launchSeq,
	}
	for wi, ws := range warpSlots {
		lanes := s.cfg.WarpSize
		if rem := k.BlockDim - wi*s.cfg.WarpSize; rem < lanes {
			lanes = rem
		}
		w := warp.New(ws, slot, s.cfg.WarpSize, lanes)
		for l := 0; l < lanes; l++ {
			t := &w.Threads[l]
			t.TID = uint32(wi*s.cfg.WarpSize + l)
			t.NTID = uint32(k.BlockDim)
			t.CTAID = uint32(ctaid)
			t.NCTAID = uint32(k.GridDim)
			t.LaneID = uint32(l)
			t.WarpID = uint32(wi)
			t.SMID = uint32(s.cfg.ID)
			t.Params = k.Params
		}
		s.warps[ws] = w
		s.resident |= 1 << ws
		s.warpSeq[ws] = s.launchSeq*1024 + uint64(wi)
		s.sbRegs[ws] = 0
		s.sbPreds[ws] = 0
		s.blockedTo[ws] = 0
		if s.wbInFlight[ws] > 0 {
			s.sbHazard |= 1 << ws
		}
		s.refreshReady(ws)
	}
}

// Busy reports whether any warp is resident or any memory transaction is
// outstanding. (A block slot is active exactly while one of its warps is
// resident.)
func (s *SM) Busy() bool {
	return s.resident != 0 || s.Pending() > 0
}

// Pending returns the number of memory transactions and timed events
// buffered anywhere in the SM (the Busy drain check builds on it).
func (s *SM) Pending() int {
	return s.ldstQ.Len() + s.missQ.Len() + s.respQ.Len() +
		s.exec.Len() + s.retire.Len() + len(s.outstanding)
}

// NextEvent implements the event-driven kernel's horizon contract. The
// SM can act when an execution-pipe writeback, a retire event, or the
// LDST queue head comes due, or when a warp's branch-delay window ends
// while it is otherwise ready to issue. Buffered handoffs whose progress
// depends on components outside the SM — responses to process, misses
// awaiting network injection — pin the horizon at now. Warps blocked on
// the scoreboard need no term of their own: every release path (exec
// drain, retire, LDST completion) is already covered by the timed terms.
func (s *SM) NextEvent(now sim.Cycle) sim.Cycle {
	if s.missQ.Len() > 0 {
		return now
	}
	return s.NextSelfEvent(now)
}

// NextSelfEvent is the horizon of the SM's own Tick: the earliest cycle
// at which calling Tick could do anything beyond idle accounting. It is
// NextEvent minus the miss-queue pin — a queued miss needs the ENGINE
// to act (the network-injection transfer phase), not the SM itself, so
// the event engine arms the scheduler with NextEvent (keeping injection
// cycles stepped) but ticks the core only when NextSelfEvent is due.
// Additionally, when the LDST head's last transaction attempt failed on
// a full miss queue and the queue is still full, the retry is a provable
// no-op and the LDST term drops out entirely; the engine re-ticks the SM
// in the same cycle it drains a miss, which is exactly when the
// cycle-driven loop's retry would first succeed.
//
// Execution-pipe writebacks carry no term of their own: draining one
// only clears private scoreboard bits, which is invisible until some
// warp's issue depends on it — and the per-warp terms below already
// account for every pending clear at its exact time (the ready stamps).
// A canonical-state observer (DebugState) applies due-but-undrained
// writebacks virtually, so deferring the drain to the next real wake
// is unobservable. The one exception is liveness: with no other term
// left, the SM must still wake to drain the pipe so the device can
// report itself done.
func (s *SM) NextSelfEvent(now sim.Cycle) sim.Cycle {
	if !s.Busy() {
		return sim.Never
	}
	if s.respQ.Len() > 0 {
		return now
	}
	// Every term below is floored at now, so the horizon cannot improve
	// once it reaches now — return immediately and skip the remaining
	// terms. The per-warp terms visit only resident slots and read their
	// cached stamps (refreshReady), so no instruction is decoded here.
	// This is the event engine's re-arm hot path: it runs after every
	// core tick.
	h := sim.Never
	if s.retire.Len() > 0 {
		if h = min(h, max(now, s.retire.NextReady())); h == now {
			return now
		}
	}
	if s.ldstQ.Len() > 0 && !s.ldstHeadParked() {
		if h = min(h, max(now, s.ldstQ.NextReady())); h == now {
			return now
		}
	}
	// A warp waiting on a load (stamp Never) or on LDST queue space has
	// no timed release visible here; its wake rides the response/retire
	// terms, or the Tick that frees queue space, which the queue's own
	// term (or the miss-drain re-tick) already schedules. An sbHazard
	// slot's pending clears are not described by regClearAt — a previous
	// resident's writebacks may strike its bits early — so its term falls
	// back to the next pipe drain, the earliest any release can land.
	stalled := uint64(0)
	if !s.ldstQ.CanPush() {
		stalled = s.memNext
	}
	for m := s.resident; m != 0; m &= m - 1 {
		ws := bits.TrailingZeros64(m)
		t := max(now, s.blockedTo[ws])
		if t >= h {
			continue
		}
		at := s.readyAt[ws]
		if s.sbHazard&(1<<ws) != 0 {
			if s.warps[ws].AtBarrier || s.exec.Len() == 0 {
				// (The hazard clears when the pipe drains; never report a
				// horizon term of Never.)
				continue
			}
			at = s.exec.NextReady()
		} else if at == sim.Never || stalled&(1<<ws) != 0 {
			continue
		}
		if at > t {
			t = at
		}
		if t < h {
			if h = t; h == now {
				return now
			}
		}
	}
	if h == sim.Never && s.exec.Len() > 0 {
		// Liveness fallback: nothing will issue, but the pipe must still
		// drain before the SM can report itself idle.
		h = max(now, s.exec.NextReady())
	}
	return h
}

// ldstHeadParked reports whether re-ticking the LDST unit is a provable
// no-op: the head's last transaction attempt failed on a structural
// stall whose releasing event has not happened. For a full miss queue
// the release is a pop (checked live via CanPush); for an L1 reservation
// failure the release is a fill, which only this SM's own response
// processing performs — and a buffered response already pins the horizon
// at now, so no liveness check is needed here.
func (s *SM) ldstHeadParked() bool {
	if s.ldstBlockedOn == nil {
		return false
	}
	if head, ok := s.ldstQ.Head(); !ok || head != s.ldstBlockedOn {
		return false
	}
	switch s.ldstBlockReason {
	case blockMissQ:
		return !s.missQ.CanPush()
	case blockL1:
		return true
	}
	return false
}

// WantsMissDrain reports whether the LDST unit is parked on miss-queue
// backpressure: its head instruction's last transaction attempt failed
// because the miss queue was full. When the engine pops a miss for
// network injection and this holds, it must tick the SM in the same
// cycle — the cycle-driven loop's retry (which runs after the injection
// phase) would succeed that very cycle. Deliberately ignores the queue's
// current fill level: the engine calls this right after popping, when
// space exists again.
func (s *SM) WantsMissDrain() bool {
	if s.ldstBlockedOn == nil || s.ldstBlockReason != blockMissQ {
		return false
	}
	head, ok := s.ldstQ.Head()
	return ok && head == s.ldstBlockedOn
}

// MissQueued reports whether any outbound request is waiting for network
// injection (the engine-side transfer phase's wake condition).
func (s *SM) MissQueued() bool { return s.missQ.Len() > 0 }

// DebugState renders the SM's full semantic state — warps, scoreboard,
// delay windows, buffer occupancy — for the engine-equivalence audit,
// canonicalized at cycle c: execution-pipe writebacks due at or before
// c are applied virtually (their scoreboard bits rendered clear, the
// pipe rendered post-drain). The event engine may leave a due writeback
// undrained until the SM's next real wake — the drain is representation-
// only, so a device that deferred it and one that drained every cycle
// are in the same semantic state and must render identically.
func (s *SM) DebugState(c sim.Cycle) string {
	effRegs := append([]uint64(nil), s.sbRegs...)
	effPreds := append([]uint8(nil), s.sbPreds...)
	s.exec.EachDue(c, func(wb wbEvent) {
		effRegs[wb.warpSlot] &^= wb.regMask
		effPreds[wb.warpSlot] &^= wb.predMask
	})
	execLen, execNext := s.exec.PendingAfter(c)
	var b strings.Builder
	for ws, w := range s.warps {
		if w == nil {
			continue
		}
		fmt.Fprintf(&b, "w%d={pc=%d m=%#x d=%v b=%v sb=%#x/%#x to=%d} ",
			ws, w.PC(), w.ActiveMask(), w.Done(), w.AtBarrier,
			effRegs[ws], effPreds[ws], s.blockedTo[ws])
	}
	fmt.Fprintf(&b, "ldst=%d@%d miss=%d resp=%d exec=%d@%d ret=%d@%d out=%d sched=%d/%d",
		s.ldstQ.Len(), s.ldstQ.NextReady(), s.missQ.Len(), s.respQ.Len(),
		execLen, execNext, s.retire.Len(), s.retire.NextReady(),
		len(s.outstanding), s.lastSched, s.greedyWarp)
	return b.String()
}

// SkipIdle accounts for delta cycles the event-driven kernel
// fast-forwarded while this SM was busy (work in flight) but provably
// unable to issue or retire anything. The cycle-driven loop would have
// ticked those cycles and recorded only idle observations — a cycle
// count, empty issue slots when warps are resident, and a parked LDST
// head's ParkedReservationFails; replaying those counters keeps both
// engines' statistics identical.
func (s *SM) SkipIdle(delta sim.Cycle) {
	if delta == 0 || !s.Busy() {
		return
	}
	s.stats.Cycles += uint64(delta)
	if s.resident != 0 {
		s.stats.IssueStallEmpty += uint64(delta) * uint64(s.cfg.IssueWidth)
	}
	if n := s.ParkedReservationFails(); n > 0 {
		s.l1.AddReservationFails(n * uint64(delta))
	}
}

// ParkedReservationFails returns the L1 reservation failures one
// cycle-driven retry of a parked LDST head records: 1 while the head is
// parked on an L1 reservation failure, else 0. The retry provably fails
// again — the cache's reservation state is frozen while the SM sleeps —
// and changes nothing else, so this is exactly what SkipIdle replays per
// skipped cycle. (The miss-queue park's retries touch only queue-level
// stall marks, which are diagnostic-only.)
func (s *SM) ParkedReservationFails() uint64 {
	if s.ldstBlockReason == blockL1 && s.ldstHeadParked() {
		return 1
	}
	return 0
}

// IssuedThisCycle returns the instructions issued in the current cycle
// (valid after Tick).
func (s *SM) IssuedThisCycle() int { return s.issuedThisCycle }

// PopMiss removes the next outbound memory request for network injection.
func (s *SM) PopMiss(c sim.Cycle) (*mem.Request, bool) { return s.missQ.Pop(c) }

// PeekMiss inspects the next outbound request.
func (s *SM) PeekMiss(c sim.Cycle) (*mem.Request, bool) { return s.missQ.Peek(c) }

// CanAcceptResponse reports whether the response queue has room.
func (s *SM) CanAcceptResponse() bool { return s.respQ.CanPush() }

// AcceptResponse receives a reply from the network.
func (s *SM) AcceptResponse(c sim.Cycle, r *mem.Request) { s.respQ.Push(c, r) }

// Tick advances the SM one cycle: writeback, memory responses, the LDST
// unit, then instruction issue (downstream-first ordering).
func (s *SM) Tick(c sim.Cycle) {
	s.stats.Cycles++
	s.issuedThisCycle = 0
	s.drainExec(c)
	s.drainRetire(c)
	s.processResponses(c)
	s.tickLDST(c)
	s.issue(c)
}

// readGlobal reads the functional global store as this SM's logged
// ops would leave it: the cycle's overlay first, the committed word
// otherwise. Other SMs' stores from this cycle are not yet committed,
// so they stay invisible until the next cycle.
func (s *SM) readGlobal(addr uint64) uint32 {
	if len(s.memOvl) != 0 {
		if e, ok := s.memOvl[addr]; ok {
			if e.abs {
				return e.val
			}
			return s.memory.Load32(addr) + e.delta
		}
	}
	return s.memory.Load32(addr)
}

// deferStore queues a functional store for commit at FlushCycle.
func (s *SM) deferStore(addr uint64, v uint32) {
	s.memLog = append(s.memLog, memOp{addr: addr, val: v})
	s.memOvl[addr] = ovlEntry{abs: true, val: v}
}

// deferAtom queues a functional atomic add; the lane's old-value write
// happens at commit, where the pre-add word is known.
func (s *SM) deferAtom(addr uint64, delta uint32, t *isa.ThreadCtx, dst isa.Reg) {
	s.memLog = append(s.memLog, memOp{atom: true, addr: addr, val: delta, t: t, dst: dst})
	e := s.memOvl[addr]
	if e.abs {
		e.val += delta
	} else {
		e.delta += delta
	}
	s.memOvl[addr] = e
}

// FlushCycle commits the global stores and atomics this SM issued in
// the current cycle, in program order; atomics read-modify-write the
// committed store and deliver old values to their lanes. It implements
// the same-cycle visibility rule: the GPU calls it for every SM, in SM
// index order, only after all SMs have ticked, so no SM observes
// another's store from the cycle it was issued in. Standalone harnesses
// driving Tick directly (tests) must call it after each Tick.
func (s *SM) FlushCycle() {
	if len(s.memLog) == 0 {
		return
	}
	for i := range s.memLog {
		op := &s.memLog[i]
		if op.atom {
			old := s.memory.Load32(op.addr)
			s.memory.Store32(op.addr, old+op.val)
			op.t.WriteReg(op.dst, old)
		} else {
			s.memory.Store32(op.addr, op.val)
		}
	}
	s.memLog = s.memLog[:0]
	clear(s.memOvl)
}

func (s *SM) drainExec(c sim.Cycle) {
	for _, wb := range s.exec.Ready(c) {
		ws := wb.warpSlot
		s.sbRegs[ws] &^= wb.regMask
		s.sbPreds[ws] &^= wb.predMask
		s.wbInFlight[ws]--
		if s.wbInFlight[ws] == 0 {
			s.sbHazard &^= 1 << ws
		}
		s.refreshReady(ws)
	}
}

func (s *SM) drainRetire(c sim.Cycle) {
	for _, comp := range s.retire.Ready(c) {
		s.completeTransaction(c, comp)
	}
}

// completeTransaction finishes one memory transaction at writeback time.
func (s *SM) completeTransaction(c sim.Cycle, comp completion) {
	if comp.req != nil && comp.req.Log != nil {
		comp.req.Log.Mark(mem.PtReturnSM, c)
		s.observer.RequestDone(c, comp.req)
		// The observer delivery is the tracked load's retire point; per
		// the Observer contract the request is dead afterwards and its
		// objects go back to the pool.
		s.reqPool.Put(comp.req)
	}
	mi := comp.mi
	if mi == nil {
		return
	}
	mi.outstanding--
	if mi.outstanding == 0 && mi.issuedAll {
		s.finishMemInst(mi)
	}
}

// finishMemInst releases the scoreboard entries of a completed warp
// memory instruction and recycles it (finishMemInst is called exactly
// once per memInst, after its last reference left every queue).
func (s *SM) finishMemInst(mi *memInst) {
	if mi.op.WritesDst() && mi.dst != isa.RZ {
		s.sbRegs[mi.warpSlot] &^= 1 << mi.dst
		s.refreshReady(mi.warpSlot)
	}
	s.miFree = append(s.miFree, mi)
}

// retireWarpIfDone updates block bookkeeping when a warp completes.
func (s *SM) retireWarpIfDone(c sim.Cycle, ws int) {
	w := s.warps[ws]
	if w == nil || !w.Done() {
		return
	}
	bs := &s.blocks[w.BlockSlot]
	bs.liveWarps--
	s.warps[ws] = nil
	s.resident &^= 1 << ws
	s.releaseBarrierIfComplete(w.BlockSlot)
	if bs.liveWarps == 0 {
		bs.active = false
		s.stats.BlocksRetired++
		if s.onBlockRetire != nil {
			s.onBlockRetire(c, bs.kernelID)
		}
	}
}
