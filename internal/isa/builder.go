package isa

import "fmt"

// Builder assembles a Program with symbolic labels. Methods append one
// instruction each and return the builder for chaining. Build resolves
// labels and runs the reconvergence analysis; assembly errors (undefined
// or duplicate labels) panic, since programs are static test/workload
// data and a bad program is a programming error.
type Builder struct {
	name   string
	insts  []Instruction
	labels map[string]int
	// pending guard applied to the next appended instruction.
	guard    PredReg
	guardNeg bool
	hasGuard bool
}

// NewBuilder starts a program named name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, labels: make(map[string]int)}
}

// Label binds name to the next instruction's PC.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		panic(fmt.Sprintf("isa: duplicate label %q in %s", name, b.name))
	}
	b.labels[name] = len(b.insts)
	return b
}

// P guards the next instruction with predicate p ("@P").
func (b *Builder) P(p PredReg) *Builder {
	b.guard, b.guardNeg, b.hasGuard = p, false, true
	return b
}

// PNot guards the next instruction with the negation of p ("@!P").
func (b *Builder) PNot(p PredReg) *Builder {
	b.guard, b.guardNeg, b.hasGuard = p, true, true
	return b
}

func (b *Builder) push(in Instruction) *Builder {
	if b.hasGuard {
		in.Pred, in.PredNeg, b.hasGuard = b.guard, b.guardNeg, false
	} else {
		in.Pred = PT
	}
	b.insts = append(b.insts, in)
	return b
}

// --- arithmetic ---

// IAdd appends Dst = a + bReg.
func (b *Builder) IAdd(d, a, src Reg) *Builder {
	return b.push(Instruction{Op: OpIADD, Dst: d, SrcA: a, SrcB: src})
}

// IAddI appends Dst = a + imm.
func (b *Builder) IAddI(d, a Reg, imm int32) *Builder {
	return b.push(Instruction{Op: OpIADD, Dst: d, SrcA: a, Imm: imm, UseImm: true})
}

// ISub appends Dst = a - src.
func (b *Builder) ISub(d, a, src Reg) *Builder {
	return b.push(Instruction{Op: OpISUB, Dst: d, SrcA: a, SrcB: src})
}

// IMul appends Dst = a * src (low 32 bits).
func (b *Builder) IMul(d, a, src Reg) *Builder {
	return b.push(Instruction{Op: OpIMUL, Dst: d, SrcA: a, SrcB: src})
}

// IMulI appends Dst = a * imm.
func (b *Builder) IMulI(d, a Reg, imm int32) *Builder {
	return b.push(Instruction{Op: OpIMUL, Dst: d, SrcA: a, Imm: imm, UseImm: true})
}

// IMad appends Dst = a*srcB + c.
func (b *Builder) IMad(d, a, srcB, c Reg) *Builder {
	return b.push(Instruction{Op: OpIMAD, Dst: d, SrcA: a, SrcB: srcB, SrcC: c})
}

// IMadI appends Dst = a*imm + c.
func (b *Builder) IMadI(d, a Reg, imm int32, c Reg) *Builder {
	return b.push(Instruction{Op: OpIMAD, Dst: d, SrcA: a, Imm: imm, UseImm: true, SrcC: c})
}

// And appends Dst = a & src.
func (b *Builder) And(d, a, src Reg) *Builder {
	return b.push(Instruction{Op: OpAND, Dst: d, SrcA: a, SrcB: src})
}

// AndI appends Dst = a & imm.
func (b *Builder) AndI(d, a Reg, imm int32) *Builder {
	return b.push(Instruction{Op: OpAND, Dst: d, SrcA: a, Imm: imm, UseImm: true})
}

// Or appends Dst = a | src.
func (b *Builder) Or(d, a, src Reg) *Builder {
	return b.push(Instruction{Op: OpOR, Dst: d, SrcA: a, SrcB: src})
}

// Xor appends Dst = a ^ src.
func (b *Builder) Xor(d, a, src Reg) *Builder {
	return b.push(Instruction{Op: OpXOR, Dst: d, SrcA: a, SrcB: src})
}

// ShlI appends Dst = a << imm.
func (b *Builder) ShlI(d, a Reg, imm int32) *Builder {
	return b.push(Instruction{Op: OpSHL, Dst: d, SrcA: a, Imm: imm, UseImm: true})
}

// ShrI appends Dst = a >> imm (logical).
func (b *Builder) ShrI(d, a Reg, imm int32) *Builder {
	return b.push(Instruction{Op: OpSHR, Dst: d, SrcA: a, Imm: imm, UseImm: true})
}

// IMin appends Dst = min(a, src) (unsigned).
func (b *Builder) IMin(d, a, src Reg) *Builder {
	return b.push(Instruction{Op: OpIMIN, Dst: d, SrcA: a, SrcB: src})
}

// IMax appends Dst = max(a, src) (unsigned).
func (b *Builder) IMax(d, a, src Reg) *Builder {
	return b.push(Instruction{Op: OpIMAX, Dst: d, SrcA: a, SrcB: src})
}

// FAdd appends Dst = a +. src (float32).
func (b *Builder) FAdd(d, a, src Reg) *Builder {
	return b.push(Instruction{Op: OpFADD, Dst: d, SrcA: a, SrcB: src})
}

// FMul appends Dst = a *. src (float32).
func (b *Builder) FMul(d, a, src Reg) *Builder {
	return b.push(Instruction{Op: OpFMUL, Dst: d, SrcA: a, SrcB: src})
}

// FFma appends Dst = a*srcB + c (float32 fused).
func (b *Builder) FFma(d, a, srcB, c Reg) *Builder {
	return b.push(Instruction{Op: OpFFMA, Dst: d, SrcA: a, SrcB: srcB, SrcC: c})
}

// --- moves, predicates, specials ---

// Mov appends Dst = src.
func (b *Builder) Mov(d, src Reg) *Builder {
	return b.push(Instruction{Op: OpMOV, Dst: d, SrcA: src})
}

// MovI appends Dst = imm.
func (b *Builder) MovI(d Reg, imm int32) *Builder {
	return b.push(Instruction{Op: OpMOV, Dst: d, Imm: imm, UseImm: true})
}

// Selp appends Dst = p ? a : src.
func (b *Builder) Selp(d, a, src Reg, p PredReg) *Builder {
	return b.push(Instruction{Op: OpSELP, Dst: d, SrcA: a, SrcB: src, PDst: p})
}

// S2R appends Dst = special register.
func (b *Builder) S2R(d Reg, sr Special) *Builder {
	return b.push(Instruction{Op: OpS2R, Dst: d, Special: sr})
}

// Param appends Dst = kernel parameter word idx.
func (b *Builder) Param(d Reg, idx int) *Builder {
	return b.push(Instruction{Op: OpS2R, Dst: d, Special: SrParam, Imm: int32(idx)})
}

// ISetp appends PDst = a <cmp> src.
func (b *Builder) ISetp(p PredReg, cmp CmpOp, a, src Reg) *Builder {
	return b.push(Instruction{Op: OpISETP, PDst: p, Cmp: cmp, SrcA: a, SrcB: src})
}

// ISetpI appends PDst = a <cmp> imm.
func (b *Builder) ISetpI(p PredReg, cmp CmpOp, a Reg, imm int32) *Builder {
	return b.push(Instruction{Op: OpISETP, PDst: p, Cmp: cmp, SrcA: a, Imm: imm, UseImm: true})
}

// --- control flow ---

// Bra appends a branch to label.
func (b *Builder) Bra(label string) *Builder {
	return b.push(Instruction{Op: OpBRA, label: label})
}

// Exit appends thread termination.
func (b *Builder) Exit() *Builder { return b.push(Instruction{Op: OpEXIT}) }

// Bar appends a block-wide barrier.
func (b *Builder) Bar() *Builder { return b.push(Instruction{Op: OpBAR}) }

// Nop appends a no-op.
func (b *Builder) Nop() *Builder { return b.push(Instruction{Op: OpNOP}) }

// --- memory ---

// Ldg appends Dst = global[a + off].
func (b *Builder) Ldg(d, a Reg, off int32) *Builder {
	return b.push(Instruction{Op: OpLDG, Dst: d, SrcA: a, Imm: off})
}

// Stg appends global[a + off] = v.
func (b *Builder) Stg(a Reg, off int32, v Reg) *Builder {
	return b.push(Instruction{Op: OpSTG, SrcA: a, Imm: off, SrcB: v})
}

// Ldl appends Dst = local[a + off].
func (b *Builder) Ldl(d, a Reg, off int32) *Builder {
	return b.push(Instruction{Op: OpLDL, Dst: d, SrcA: a, Imm: off})
}

// Stl appends local[a + off] = v.
func (b *Builder) Stl(a Reg, off int32, v Reg) *Builder {
	return b.push(Instruction{Op: OpSTL, SrcA: a, Imm: off, SrcB: v})
}

// Lds appends Dst = shared[a + off].
func (b *Builder) Lds(d, a Reg, off int32) *Builder {
	return b.push(Instruction{Op: OpLDS, Dst: d, SrcA: a, Imm: off})
}

// Sts appends shared[a + off] = v.
func (b *Builder) Sts(a Reg, off int32, v Reg) *Builder {
	return b.push(Instruction{Op: OpSTS, SrcA: a, Imm: off, SrcB: v})
}

// Atom appends Dst = atomicAdd(global[a + off], v) returning the old
// value.
func (b *Builder) Atom(d, a Reg, off int32, v Reg) *Builder {
	return b.push(Instruction{Op: OpATOM, Dst: d, SrcA: a, Imm: off, SrcB: v})
}

// Build resolves labels, verifies the program ends every path in EXIT,
// and computes reconvergence points and the per-PC hazard table. It
// panics on assembly errors.
func (b *Builder) Build() *Program {
	insts := make([]Instruction, len(b.insts))
	copy(insts, b.insts)
	for pc := range insts {
		if insts[pc].Op == OpBRA {
			t, ok := b.labels[insts[pc].label]
			if !ok {
				panic(fmt.Sprintf("isa: undefined label %q in %s", insts[pc].label, b.name))
			}
			insts[pc].TargetPC = t
		}
	}
	if len(insts) == 0 {
		panic("isa: empty program " + b.name)
	}
	p := &Program{Name: b.name, Insts: insts}
	if err := validateTermination(p); err != nil {
		panic(err)
	}
	p.Reconv = Analyze(p)
	p.Hazards = make([]Hazard, len(insts))
	for pc := range insts {
		p.Hazards[pc] = insts[pc].hazard()
	}
	return p
}

// validateTermination rejects programs where control flow can run past
// the last instruction: the final instruction must be an unguarded EXIT
// or an unguarded branch, since a PC beyond the program is a simulator
// fault at run time.
func validateTermination(p *Program) error {
	last := &p.Insts[len(p.Insts)-1]
	switch {
	case last.Op == OpEXIT && last.Pred == PT && !last.PredNeg:
		return nil
	case last.Op == OpBRA && last.Pred == PT && !last.PredNeg:
		return nil
	}
	return fmt.Errorf("isa: program %s can fall off its end (last instruction %s)",
		p.Name, last.String())
}
