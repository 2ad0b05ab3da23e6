package isa

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBuilderResolvesLabels(t *testing.T) {
	p := NewBuilder("t").
		MovI(0, 5).
		Label("loop").
		IAddI(0, 0, -1).
		ISetpI(0, CmpNE, 0, 0).
		P(0).Bra("loop").
		Exit().
		Build()
	if p.Insts[3].TargetPC != 1 {
		t.Fatalf("branch target = %d, want 1", p.Insts[3].TargetPC)
	}
	if p.Insts[3].Pred != 0 || p.Insts[3].PredNeg {
		t.Fatal("guard not applied")
	}
	if p.Insts[0].Pred != PT {
		t.Fatal("default guard should be PT")
	}
}

// TestBuildHazardTable pins the per-PC hazard table Build computes: the
// registers read or written (RZ never counts), the guard and ISETP/SELP
// destination predicates (PT never counts), and LDST occupancy.
func TestBuildHazardTable(t *testing.T) {
	p := NewBuilder("t").
		IMad(4, 1, 2, 3).
		P(2).ISetp(5, CmpLT, 6, RZ).
		Selp(7, 8, 9, 1).
		PNot(3).Stg(10, 0, 11).
		Atom(RZ, 12, 0, 13).
		Label("end").
		Bra("end").
		Exit().
		Build()
	want := []Hazard{
		{Regs: 1<<1 | 1<<2 | 1<<3 | 1<<4},
		{Regs: 1 << 6, Preds: 1<<2 | 1<<5},
		{Regs: 1<<7 | 1<<8 | 1<<9, Preds: 1 << 1},
		{Regs: 1<<10 | 1<<11, Preds: 1 << 3, Mem: true},
		{Regs: 1<<12 | 1<<13, Mem: true},
		{},
		{},
	}
	if len(p.Hazards) != len(p.Insts) {
		t.Fatalf("%d hazard entries for %d instructions", len(p.Hazards), len(p.Insts))
	}
	for pc, h := range want {
		if p.Hazards[pc] != h {
			t.Errorf("pc %d (%s): hazard %+v, want %+v", pc, p.Insts[pc].String(), p.Hazards[pc], h)
		}
	}
}

func TestBuilderUndefinedLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder("t").Bra("nowhere").Exit().Build()
}

func TestBuilderDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder("t").Label("a").Label("a")
}

func TestEvalArithmetic(t *testing.T) {
	ctx := &ThreadCtx{}
	ctx.Regs[1] = 7
	ctx.Regs[2] = 3
	cases := []struct {
		in   Instruction
		want uint32
	}{
		{Instruction{Op: OpIADD, Dst: 0, SrcA: 1, SrcB: 2}, 10},
		{Instruction{Op: OpISUB, Dst: 0, SrcA: 1, SrcB: 2}, 4},
		{Instruction{Op: OpIMUL, Dst: 0, SrcA: 1, SrcB: 2}, 21},
		{Instruction{Op: OpIADD, Dst: 0, SrcA: 1, Imm: -2, UseImm: true}, 5},
		{Instruction{Op: OpAND, Dst: 0, SrcA: 1, SrcB: 2}, 3},
		{Instruction{Op: OpOR, Dst: 0, SrcA: 1, SrcB: 2}, 7},
		{Instruction{Op: OpXOR, Dst: 0, SrcA: 1, SrcB: 2}, 4},
		{Instruction{Op: OpSHL, Dst: 0, SrcA: 1, Imm: 2, UseImm: true}, 28},
		{Instruction{Op: OpSHR, Dst: 0, SrcA: 1, Imm: 1, UseImm: true}, 3},
		{Instruction{Op: OpIMIN, Dst: 0, SrcA: 1, SrcB: 2}, 3},
		{Instruction{Op: OpIMAX, Dst: 0, SrcA: 1, SrcB: 2}, 7},
	}
	for i, c := range cases {
		ctx.Eval(&c.in)
		if got := ctx.Regs[0]; got != c.want {
			t.Errorf("case %d (%v): got %d, want %d", i, c.in.Op, got, c.want)
		}
	}
}

func TestEvalIMad(t *testing.T) {
	ctx := &ThreadCtx{}
	ctx.Regs[1] = 5
	ctx.Regs[2] = 6
	ctx.Regs[3] = 7
	in := Instruction{Op: OpIMAD, Dst: 0, SrcA: 1, SrcB: 2, SrcC: 3}
	ctx.Eval(&in)
	if ctx.Regs[0] != 37 {
		t.Fatalf("IMAD = %d, want 37", ctx.Regs[0])
	}
}

func TestEvalFloat(t *testing.T) {
	ctx := &ThreadCtx{}
	ctx.Regs[1] = math.Float32bits(1.5)
	ctx.Regs[2] = math.Float32bits(2.25)
	in := Instruction{Op: OpFADD, Dst: 0, SrcA: 1, SrcB: 2}
	ctx.Eval(&in)
	if got := math.Float32frombits(ctx.Regs[0]); got != 3.75 {
		t.Fatalf("FADD = %v", got)
	}
	in = Instruction{Op: OpFMUL, Dst: 0, SrcA: 1, SrcB: 2}
	ctx.Eval(&in)
	if got := math.Float32frombits(ctx.Regs[0]); got != 3.375 {
		t.Fatalf("FMUL = %v", got)
	}
}

func TestEvalRZSemantics(t *testing.T) {
	ctx := &ThreadCtx{}
	ctx.Regs[1] = 42
	in := Instruction{Op: OpIADD, Dst: RZ, SrcA: 1, SrcB: RZ}
	ctx.Eval(&in)
	if ctx.ReadReg(RZ) != 0 {
		t.Fatal("RZ must read zero after write")
	}
	in = Instruction{Op: OpIADD, Dst: 0, SrcA: 1, SrcB: RZ}
	ctx.Eval(&in)
	if ctx.Regs[0] != 42 {
		t.Fatal("RZ source must read zero")
	}
}

func TestEvalPredicates(t *testing.T) {
	ctx := &ThreadCtx{}
	ctx.Regs[1] = 5
	in := Instruction{Op: OpISETP, PDst: 2, Cmp: CmpSLT, SrcA: 1, Imm: 10, UseImm: true}
	ctx.Eval(&in)
	if !ctx.Preds[2] {
		t.Fatal("5 < 10 should set predicate")
	}
	guard := Instruction{Op: OpIADD, Dst: 0, SrcA: 1, Imm: 1, UseImm: true, Pred: 2, PredNeg: true}
	if ctx.GuardPasses(&guard) {
		t.Fatal("@!P2 should fail when P2 true")
	}
	// PT semantics.
	ctx.WritePred(PT, false)
	if !ctx.ReadPred(PT) {
		t.Fatal("PT must remain true")
	}
}

func TestEvalSignedUnsignedCompare(t *testing.T) {
	neg := uint32(0xFFFFFFFF) // -1 signed, max unsigned
	if CmpLT.Eval(neg, 1) {
		t.Fatal("unsigned: 0xFFFFFFFF < 1 must be false")
	}
	if !CmpSLT.Eval(neg, 1) {
		t.Fatal("signed: -1 < 1 must be true")
	}
}

func TestEvalSpecialRegisters(t *testing.T) {
	ctx := &ThreadCtx{TID: 3, NTID: 128, CTAID: 2, NCTAID: 10, LaneID: 3,
		WarpID: 0, SMID: 7, Clock: 999, Params: []uint32{11, 22}}
	cases := []struct {
		sr   Special
		imm  int32
		want uint32
	}{
		{SrTID, 0, 3}, {SrNTID, 0, 128}, {SrCTAID, 0, 2}, {SrNCTAID, 0, 10},
		{SrLaneID, 0, 3}, {SrWarpID, 0, 0}, {SrSMID, 0, 7}, {SrClock, 0, 999},
		{SrParam, 0, 11}, {SrParam, 1, 22}, {SrParam, 5, 0},
	}
	for _, c := range cases {
		in := Instruction{Op: OpS2R, Dst: 0, Special: c.sr, Imm: c.imm}
		ctx.Eval(&in)
		if ctx.Regs[0] != c.want {
			t.Errorf("S2R %v[%d] = %d, want %d", c.sr, c.imm, ctx.Regs[0], c.want)
		}
	}
}

func TestEvalMemoryAddressing(t *testing.T) {
	ctx := &ThreadCtx{}
	ctx.Regs[1] = 0x1000
	ctx.Regs[2] = 77
	ld := Instruction{Op: OpLDG, Dst: 0, SrcA: 1, Imm: 8}
	r := ctx.Eval(&ld)
	if r.MemAddr != 0x1008 || r.MemSize != 4 {
		t.Fatalf("load addr=%#x size=%d", r.MemAddr, r.MemSize)
	}
	st := Instruction{Op: OpSTG, SrcA: 1, Imm: -16, SrcB: 2}
	r = ctx.Eval(&st)
	if r.MemAddr != 0xFF0 || r.StoreVal != 77 {
		t.Fatalf("store addr=%#x val=%d", r.MemAddr, r.StoreVal)
	}
}

func TestSrcRegs(t *testing.T) {
	in := Instruction{Op: OpIMAD, Dst: 0, SrcA: 1, SrcB: 2, SrcC: 3}
	regs := in.SrcRegs(nil)
	if len(regs) != 3 {
		t.Fatalf("IMAD srcs = %v", regs)
	}
	imm := Instruction{Op: OpIADD, Dst: 0, SrcA: 1, Imm: 4, UseImm: true}
	if regs := imm.SrcRegs(nil); len(regs) != 1 {
		t.Fatalf("imm add srcs = %v", regs)
	}
	st := Instruction{Op: OpSTG, SrcA: 1, SrcB: 2}
	if regs := st.SrcRegs(nil); len(regs) != 2 {
		t.Fatalf("store srcs = %v", regs)
	}
	rz := Instruction{Op: OpIADD, Dst: 0, SrcA: RZ, SrcB: RZ}
	if regs := rz.SrcRegs(nil); len(regs) != 0 {
		t.Fatalf("RZ sources reported: %v", regs)
	}
}

// --- reconvergence analysis ---

func TestReconvergenceIfElse(t *testing.T) {
	// if (P0) {A} else {B}; C
	p := NewBuilder("ifelse").
		ISetpI(0, CmpEQ, 1, 0). // 0
		PNot(0).Bra("else").    // 1
		IAddI(2, 2, 1).         // 2: then
		Bra("join").            // 3
		Label("else").
		IAddI(2, 2, 2). // 4: else
		Label("join").
		IAddI(3, 3, 1). // 5: join
		Exit().         // 6
		Build()
	if got := p.Reconv[1]; got != 5 {
		t.Fatalf("if-else reconvergence = %d, want 5 (join)", got)
	}
	if got := p.Reconv[3]; got != 5 {
		t.Fatalf("then-exit branch reconvergence = %d, want 5", got)
	}
}

func TestReconvergenceLoopBackedge(t *testing.T) {
	p := NewBuilder("loop").
		MovI(0, 10). // 0
		Label("loop").
		IAddI(0, 0, -1).        // 1
		ISetpI(0, CmpNE, 0, 0). // 2
		P(0).Bra("loop").       // 3 backedge
		IAddI(1, 1, 1).         // 4 tail
		Exit().                 // 5
		Build()
	// Lanes that exit the loop early wait at the tail (PC 4).
	if got := p.Reconv[3]; got != 4 {
		t.Fatalf("loop backedge reconvergence = %d, want 4 (tail)", got)
	}
}

func TestReconvergenceBranchToExit(t *testing.T) {
	p := NewBuilder("early").
		ISetpI(0, CmpEQ, 1, 0). // 0
		P(0).Bra("done").       // 1
		IAddI(2, 2, 1).         // 2
		Label("done").
		Exit(). // 3
		Build()
	if got := p.Reconv[1]; got != 3 {
		t.Fatalf("early-exit branch reconvergence = %d, want 3", got)
	}
}

func TestReconvergenceNestedIf(t *testing.T) {
	// if(P0){ if(P1){A} B } C
	p := NewBuilder("nested").
		PNot(0).Bra("outer"). // 0
		PNot(1).Bra("inner"). // 1
		Nop().                // 2 A
		Label("inner").
		Nop(). // 3 B
		Label("outer").
		Nop().  // 4 C
		Exit(). // 5
		Build()
	if got := p.Reconv[0]; got != 4 {
		t.Fatalf("outer reconvergence = %d, want 4", got)
	}
	if got := p.Reconv[1]; got != 3 {
		t.Fatalf("inner reconvergence = %d, want 3", got)
	}
}

// Property: reconvergence PC is always strictly greater than the branch
// PC or equal to the branch target for backedges — specifically, it must
// always be a valid PC in [0, Len] and post-dominate both paths (weakly
// checked: not inside (branchPC, min(target, fallthrough)) exclusive).
func TestReconvergenceBoundsProperty(t *testing.T) {
	f := func(seed uint32) bool {
		// Generate a random but structured program: sequence of
		// if-else diamonds and loops.
		b := NewBuilder("prop")
		n := int(seed%4) + 1
		for i := 0; i < n; i++ {
			switch (seed >> (2 * i)) % 3 {
			case 0: // diamond
				lbl := string(rune('a'+i)) + "e"
				join := string(rune('a'+i)) + "j"
				b.PNot(0).Bra(lbl).Nop().Bra(join).Label(lbl).Nop().Label(join).Nop()
			case 1: // loop
				lbl := string(rune('a'+i)) + "l"
				b.Label(lbl).IAddI(0, 0, -1).ISetpI(0, CmpNE, 0, 0).P(0).Bra(lbl).Nop()
			case 2:
				b.Nop().Nop()
			}
		}
		p := b.Exit().Build()
		for pc, rpc := range p.Reconv {
			if rpc < 0 || rpc > p.Len() {
				return false
			}
			_ = pc
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestProgramString(t *testing.T) {
	p := NewBuilder("str").MovI(1, 3).Ldg(2, 1, 4).Stg(1, 0, 2).Exit().Build()
	s := p.String()
	if s == "" {
		t.Fatal("empty disassembly")
	}
}
