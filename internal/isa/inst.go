package isa

import (
	"fmt"
	"strings"
)

// Instruction is one decoded ISA instruction. Fields not used by an
// opcode are ignored.
type Instruction struct {
	Op Opcode

	Dst  Reg
	SrcA Reg
	SrcB Reg
	SrcC Reg

	// Imm is the immediate operand; when UseImm is set it replaces SrcB
	// for arithmetic, and for memory ops it is always the address
	// offset added to SrcA.
	Imm    int32
	UseImm bool

	// PDst receives the result of OpISETP.
	PDst PredReg
	// Guard predicate: the instruction executes in lanes where
	// Pred (negated when PredNeg) is true. Defaults to PT via builder.
	Pred    PredReg
	PredNeg bool

	Cmp     CmpOp
	Special Special

	// TargetPC is the resolved branch destination.
	TargetPC int
	// label is the unresolved branch target (builder use).
	label string
}

// SrcRegs appends the register numbers read by the instruction.
func (in *Instruction) SrcRegs(buf []Reg) []Reg {
	add := func(r Reg) {
		if r != RZ {
			buf = append(buf, r)
		}
	}
	switch in.Op {
	case OpIADD, OpISUB, OpIMUL, OpAND, OpOR, OpXOR, OpSHL, OpSHR,
		OpIMIN, OpIMAX, OpFADD, OpFMUL, OpISETP:
		add(in.SrcA)
		if !in.UseImm {
			add(in.SrcB)
		}
	case OpIMAD, OpFFMA:
		add(in.SrcA)
		if !in.UseImm {
			add(in.SrcB)
		}
		add(in.SrcC)
	case OpMOV:
		if !in.UseImm {
			add(in.SrcA)
		}
	case OpSELP:
		add(in.SrcA)
		if !in.UseImm {
			add(in.SrcB)
		}
	case OpLDG, OpLDL, OpLDS:
		add(in.SrcA)
	case OpSTG, OpSTL, OpSTS, OpATOM:
		add(in.SrcA)
		add(in.SrcB)
	}
	return buf
}

// Hazard is one instruction's issue-time dependence summary: the
// scoreboard bits that must be clear before it issues, and whether it
// needs LDST queue space.
type Hazard struct {
	// Regs holds the registers the instruction reads or writes (RZ
	// excluded): a pending write to any of them blocks issue.
	Regs uint64
	// Preds holds its guard predicate and, for ISETP/SELP, PDst (PT
	// excluded).
	Preds uint8
	// Mem marks memory instructions, which take an LDST queue entry.
	Mem bool
}

// hazard computes the instruction's dependence summary.
func (in *Instruction) hazard() Hazard {
	var h Hazard
	var buf [4]Reg
	for _, r := range in.SrcRegs(buf[:0]) {
		h.Regs |= 1 << r
	}
	if in.Op.WritesDst() && in.Dst != RZ {
		h.Regs |= 1 << in.Dst
	}
	if in.Pred != PT {
		h.Preds |= 1 << in.Pred
	}
	if (in.Op == OpISETP || in.Op == OpSELP) && in.PDst != PT {
		h.Preds |= 1 << in.PDst
	}
	h.Mem = in.Op.IsMemory()
	return h
}

// String renders an assembly-like form.
func (in *Instruction) String() string {
	var b strings.Builder
	if in.Pred != PT || in.PredNeg {
		neg := ""
		if in.PredNeg {
			neg = "!"
		}
		fmt.Fprintf(&b, "@%s%s ", neg, in.Pred)
	}
	b.WriteString(in.Op.String())
	switch in.Op {
	case OpNOP, OpEXIT, OpBAR:
	case OpBRA:
		fmt.Fprintf(&b, " %d", in.TargetPC)
	case OpS2R:
		if in.Special == SrParam {
			fmt.Fprintf(&b, " %s, %s[%d]", in.Dst, in.Special, in.Imm)
		} else {
			fmt.Fprintf(&b, " %s, %s", in.Dst, in.Special)
		}
	case OpISETP:
		fmt.Fprintf(&b, ".%s %s, %s, %s", in.Cmp, in.PDst, in.SrcA, in.operandBString())
	case OpLDG, OpLDL, OpLDS:
		fmt.Fprintf(&b, " %s, [%s+%d]", in.Dst, in.SrcA, in.Imm)
	case OpSTG, OpSTL, OpSTS:
		fmt.Fprintf(&b, " [%s+%d], %s", in.SrcA, in.Imm, in.SrcB)
	case OpATOM:
		fmt.Fprintf(&b, ".ADD %s, [%s+%d], %s", in.Dst, in.SrcA, in.Imm, in.SrcB)
	case OpIMAD, OpFFMA:
		fmt.Fprintf(&b, " %s, %s, %s, %s", in.Dst, in.SrcA, in.operandBString(), in.SrcC)
	case OpMOV:
		fmt.Fprintf(&b, " %s, %s", in.Dst, in.operandBStringFromA())
	default:
		fmt.Fprintf(&b, " %s, %s, %s", in.Dst, in.SrcA, in.operandBString())
	}
	return b.String()
}

func (in *Instruction) operandBString() string {
	if in.UseImm {
		return fmt.Sprintf("%d", in.Imm)
	}
	return in.SrcB.String()
}

func (in *Instruction) operandBStringFromA() string {
	if in.UseImm {
		return fmt.Sprintf("%d", in.Imm)
	}
	return in.SrcA.String()
}

// Program is a fully resolved instruction sequence. PCs are instruction
// indices (not byte addresses).
type Program struct {
	Name  string
	Insts []Instruction
	// Reconv maps the PC of every potentially divergent branch to its
	// reconvergence PC (immediate post-dominator), computed by Analyze.
	Reconv map[int]int
	// Hazards holds the dependence summary of Insts[pc] for every pc,
	// computed once by Build so the warp scheduler never re-decodes
	// operands.
	Hazards []Hazard
}

// Len returns the instruction count.
func (p *Program) Len() int { return len(p.Insts) }

// At returns the instruction at pc.
func (p *Program) At(pc int) *Instruction { return &p.Insts[pc] }

// String disassembles the program.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "// %s\n", p.Name)
	for pc := range p.Insts {
		fmt.Fprintf(&b, "%4d: %s\n", pc, p.Insts[pc].String())
	}
	return b.String()
}
