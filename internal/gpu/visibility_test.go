package gpu

import (
	"testing"

	"gpulat/internal/isa"
	"gpulat/internal/sim"
	"gpulat/internal/sm"
)

// swapKernel has two blocks exchange words in a single cycle. Each block
// runs two warps that issue in lockstep with the other block's warps:
// warp 0 stores the block's marker to its own word while warp 1, in the
// same cycle, loads the other block's word and records it in out[ctaid].
func swapKernel(wordsAddr, outAddr uint32) *sm.Kernel {
	b := isa.NewBuilder("swap")
	b.S2R(1, isa.SrTID).
		S2R(2, isa.SrCTAID).
		Param(3, 0).
		ShlI(4, 2, 2). // ctaid*4
		IAdd(5, 3, 4). // own word
		MovI(6, 4).
		Xor(7, 4, 6).  // the other block's offset (ctaid is 0 or 1)
		IAdd(7, 3, 7). // other word
		Param(8, 1).
		IAdd(8, 8, 4).     // out[ctaid]
		IAddI(9, 2, 0xB0). // marker: 0xB0 + ctaid
		ISetpI(0, isa.CmpGE, 1, 32).
		P(0).Bra("load").
		Stg(5, 0, 9). // warp 0: own word = marker
		Exit().
		Label("load").
		Ldg(10, 7, 0). // warp 1: read the other word, same cycle
		Stg(8, 0, 10).
		Exit()
	return &sm.Kernel{
		Program:  b.Build(),
		Params:   []uint32{wordsAddr, outAddr},
		BlockDim: 64,
		GridDim:  2,
	}
}

// TestSameCycleStoresInvisibleAcrossSMs pins the same-cycle visibility
// rule: a global store from one SM is not visible to another SM's load
// issued in the same cycle, whichever SM index ticks first. Both blocks
// must read the word as it stood before that cycle; committing stores at
// issue would let SM 1 see SM 0's marker.
func TestSameCycleStoresInvisibleAcrossSMs(t *testing.T) {
	const words, out = 0x10000, 0x20000
	for _, engine := range []sim.Engine{sim.EngineTick, sim.EngineEvent} {
		t.Run(engine.String(), func(t *testing.T) {
			cfg := tinyConfig()
			cfg.Engine = engine
			cfg.SM.IssueWidth = 2
			cfg.SM.MaxBlocks = 1 // one block per SM, both placed in cycle 0
			g := New(cfg)
			g.Memory.Store32(words, 0xA0)
			g.Memory.Store32(words+4, 0xA1)
			if _, err := g.RunKernel(swapKernel(words, out)); err != nil {
				t.Fatal(err)
			}
			for i, s := range g.SMs() {
				if got := s.Stats().BlocksRetired; got != 1 {
					t.Fatalf("sm%d retired %d blocks, want 1", i, got)
				}
			}
			for ctaid := uint64(0); ctaid < 2; ctaid++ {
				if got, want := g.Memory.Load32(words+ctaid*4), uint32(0xB0+ctaid); got != want {
					t.Errorf("word %d = %#x, want marker %#x", ctaid, got, want)
				}
				other := 1 - ctaid
				if got, want := g.Memory.Load32(out+ctaid*4), uint32(0xA0+other); got != want {
					t.Errorf("block %d read %#x from block %d's word, want the pre-cycle value %#x",
						ctaid, got, other, want)
				}
			}
		})
	}
}

// histKernel has every thread of the grid atomically bump one shared
// counter and record the old value — the worst case for same-cycle
// cross-SM atomics, which the commit order must serialize.
func histKernel(ctrAddr, outAddr uint32, blockDim, gridDim int) *sm.Kernel {
	b := isa.NewBuilder("hist")
	b.Param(1, 0).
		MovI(2, 1).
		Atom(3, 1, 0, 2). // old = atomicAdd(ctr, 1)
		Param(4, 1).
		S2R(5, isa.SrTID).
		S2R(6, isa.SrCTAID).
		S2R(7, isa.SrNTID).
		IMad(5, 6, 7, 5). // gid
		ShlI(5, 5, 2).
		IAdd(4, 4, 5).
		Stg(4, 0, 3). // out[gid] = old
		Exit()
	return &sm.Kernel{
		Program:  b.Build(),
		Params:   []uint32{ctrAddr, outAddr},
		BlockDim: blockDim,
		GridDim:  gridDim,
	}
}

// TestAtomicOldValuesUniqueAcrossSMs checks the logged atomic commit:
// with blocks spread over four SMs racing one counter, every thread must
// still observe a distinct old value and the final count must be exact.
func TestAtomicOldValuesUniqueAcrossSMs(t *testing.T) {
	const blocks, blockDim = 8, 64
	cfg := tinyConfig()
	cfg.NumSMs = 4
	g := New(cfg)
	if _, err := g.RunKernel(histKernel(0x30000, 0x40000, blockDim, blocks)); err != nil {
		t.Fatal(err)
	}
	n := uint32(blocks * blockDim)
	if got := g.Memory.Load32(0x30000); got != n {
		t.Fatalf("counter = %d, want %d", got, n)
	}
	seen := make(map[uint32]bool)
	for i := uint64(0); i < uint64(n); i++ {
		old := g.Memory.Load32(0x40000 + i*4)
		if old >= n || seen[old] {
			t.Fatalf("thread %d observed duplicate/out-of-range old value %d", i, old)
		}
		seen[old] = true
	}
}
