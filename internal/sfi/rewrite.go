package sfi

import "fmt"

// Mode selects the sandboxing rewriter.
type Mode int

const (
	// Naive emits the explicit address-sandboxing sequence before every
	// store and indirect branch: materialise the effective address, mask
	// it into the segment, rebase it (3 extra instructions per store).
	Naive Mode = iota + 1
	// Optimized models the paper's measured configuration: a dedicated
	// sandbox register plus guard zones collapse the check to a single
	// instruction per store and per indirect branch, and the 3–7%
	// overhead the paper quotes.
	Optimized
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Naive:
		return "naive"
	case Optimized:
		return "optimized"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Segment is the fault domain: a power-of-two-sized window of memory
// the rewritten code cannot escape.
type Segment struct {
	Base int64 // must be aligned to Size
	Size int64 // power of two
}

// Valid reports whether the segment is well-formed.
func (s Segment) Valid() bool {
	return s.Size > 0 && s.Size&(s.Size-1) == 0 && s.Base%s.Size == 0 && s.Base >= 0
}

func (s Segment) mask() int64 { return s.Size - 1 }

// packSandboxImm packs mask and base for OpSandbox.
func (s Segment) packSandboxImm() int64 {
	return (s.Base << 32) | s.mask()
}

// Rewrite sandboxes prog so that every store and indirect branch is
// confined to seg. Branch targets are remapped to the rewritten layout.
// The input program must not use SandboxReg.
func Rewrite(prog Program, seg Segment, mode Mode) (Program, error) {
	if !seg.Valid() {
		return nil, fmt.Errorf("sfi: invalid segment %+v", seg)
	}
	for i, in := range prog {
		if usesReg(in, SandboxReg) {
			return nil, fmt.Errorf("sfi: instruction %d uses the reserved sandbox register", i)
		}
	}
	// First pass: compute the new index of every original instruction.
	newIndex := make([]int64, len(prog)+1)
	idx := int64(0)
	for i, in := range prog {
		newIndex[i] = idx
		idx += int64(1 + extraFor(in, mode))
	}
	newIndex[len(prog)] = idx

	out := make(Program, 0, idx)
	for _, in := range prog {
		switch {
		case in.Op == OpStore:
			// Effective address = Rd + Imm; sandbox it into SandboxReg
			// and store relative to that.
			if mode == Naive {
				out = append(out,
					Instr{Op: OpAddi, Rd: SandboxReg, Rs: in.Rd, Imm: in.Imm},
					Instr{Op: OpAnd, Rd: SandboxReg, Rs: SandboxReg, Imm: seg.mask()},
					Instr{Op: OpOr, Rd: SandboxReg, Rs: SandboxReg, Imm: seg.Base},
				)
			} else {
				// The optimized sequence folds offset handling into the
				// guard zone and uses the packed single instruction.
				out = append(out,
					Instr{Op: OpSandbox, Rd: SandboxReg, Rs: in.Rd, Imm: seg.packSandboxImm()},
				)
			}
			st := Instr{Op: OpStore, Rd: SandboxReg, Rs: in.Rs}
			if mode == Optimized {
				// Guard zones admit small constant offsets unchecked.
				st.Imm = in.Imm & seg.mask()
			}
			out = append(out, st)
		case in.Op == OpJr:
			// Sandbox the branch target the same way (control cannot
			// escape the segment's code region; in this virtual ISA we
			// confine it to the program bounds via the same masking).
			if mode == Naive {
				out = append(out,
					Instr{Op: OpAnd, Rd: SandboxReg, Rs: in.Rs, Imm: seg.mask()},
					Instr{Op: OpOr, Rd: SandboxReg, Rs: SandboxReg, Imm: 0},
				)
			} else {
				out = append(out,
					Instr{Op: OpSandbox, Rd: SandboxReg, Rs: in.Rs, Imm: seg.mask()},
				)
			}
			out = append(out, Instr{Op: OpJr, Rs: SandboxReg})
		case in.Op == OpJmp || in.Op == OpBeq || in.Op == OpBlt:
			// Remap direct branch targets to the rewritten layout.
			ni := in
			if in.Imm >= 0 && in.Imm <= int64(len(prog)) {
				ni.Imm = newIndex[in.Imm]
			}
			out = append(out, ni)
		default:
			out = append(out, in)
		}
	}
	return out, nil
}

// extraFor returns the number of inserted instructions for one original
// instruction under the given mode.
func extraFor(in Instr, mode Mode) int {
	switch in.Op {
	case OpStore:
		if mode == Naive {
			return 3
		}
		return 1
	case OpJr:
		if mode == Naive {
			return 2
		}
		return 1
	default:
		return 0
	}
}

func usesReg(in Instr, r uint8) bool {
	return in.Rd == r || in.Rs == r || in.Rt == r
}

// Overhead runs prog raw and sandboxed and returns the dynamic
// instruction-count overhead ((sandboxed/raw) - 1) plus both stats.
func Overhead(prog Program, memSize int64, seg Segment, mode Mode, maxSteps int64) (float64, Stats, Stats, error) {
	memRaw := make([]int64, memSize)
	raw, err := Run(prog, memRaw, maxSteps)
	if err != nil {
		return 0, raw, Stats{}, fmt.Errorf("sfi: raw run: %w", err)
	}
	sand, err := Rewrite(prog, seg, mode)
	if err != nil {
		return 0, raw, Stats{}, err
	}
	memSand := make([]int64, memSize)
	sb, err := Run(sand, memSand, maxSteps*4)
	if err != nil {
		return 0, raw, sb, fmt.Errorf("sfi: sandboxed run: %w", err)
	}
	if raw.Executed == 0 {
		return 0, raw, sb, fmt.Errorf("sfi: empty execution")
	}
	return float64(sb.Executed)/float64(raw.Executed) - 1, raw, sb, nil
}
