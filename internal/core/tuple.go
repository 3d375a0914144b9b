// Package core implements TRIDENT (paper §IV): the three-level error
// propagation model composed of fs (static-instruction level), fc
// (control-flow level) and fm (memory level), plus the two simpler
// variants the paper evaluates (fs alone, fs+fc). Given a profile of one
// fault-free execution, the model predicts the SDC probability of every
// instruction and of the whole program without fault injection.
// DESIGN.md §3 specifies each sub-model and the refinements beyond the
// paper.
package core

import (
	"trident/internal/interp"
	"trident/internal/ir"
)

// empiricalFlipProb measures, over the profiled operand samples of `in`,
// the probability that flipping one uniformly random bit of operand opIdx
// changes the instruction's result — the scalar (band-blind) version of
// the empirical tuples, kept as a reference implementation of the paper's
// §IV-C tuple derivation (e.g. "cmp sgt $1, 0" on positive values yields
// 1/32). Unprofiled instructions conservatively propagate.
func (m *Model) empiricalFlipProb(in *ir.Instr, opIdx int) float64 {
	if m.cfg.DisableValueProfile {
		return 1
	}
	samples := m.prof.Samples[in]
	if len(samples) == 0 {
		return 1
	}
	t := in.Operands[0].ValueType()
	w := in.Operands[opIdx].ValueType().Bits()
	if w == 0 {
		return 1
	}
	changed, total := 0, 0
	for _, s := range samples {
		base := execOp(in, t, s.LHS, s.RHS)
		for b := 0; b < w; b++ {
			lhs, rhs := s.LHS, s.RHS
			if opIdx == 0 {
				lhs ^= 1 << uint(b)
			} else {
				rhs ^= 1 << uint(b)
			}
			if execOp(in, t, lhs, rhs) != base {
				changed++
			}
			total++
		}
	}
	if total == 0 {
		return 1
	}
	return float64(changed) / float64(total)
}

// minMaxIdiom recognizes select(icmp(a, b), x, y) where {x, y} == {a, b}:
// the compare-select min/max pattern. armMap[k] is the compare operand
// index mirrored by select arm k+1. The pair is modeled jointly: a
// corruption that loses the comparison is fully masked (e.g. an upward
// bit flip entering a min).
func minMaxIdiom(sel *ir.Instr) (cmp *ir.Instr, armMap [2]int, ok bool) {
	if sel.Op != ir.OpSelect {
		return nil, armMap, false
	}
	cmp, isInstr := sel.Operands[0].(*ir.Instr)
	if !isInstr || !cmp.Op.IsCmp() {
		return nil, armMap, false
	}
	a, b := cmp.Operands[0], cmp.Operands[1]
	x, y := sel.Operands[1], sel.Operands[2]
	switch {
	case x == a && y == b:
		return cmp, [2]int{0, 1}, true
	case x == b && y == a:
		return cmp, [2]int{1, 0}, true
	default:
		return nil, armMap, false
	}
}

// execOp re-executes a two-operand instruction or intrinsic on raw bit
// patterns, treating a trapping division as a distinguishable outcome.
func execOp(in *ir.Instr, t ir.Type, lhs, rhs uint64) uint64 {
	switch {
	case in.Op.IsCmp():
		return interp.EvalCmp(in.Pred, t, lhs, rhs)
	case in.Op == ir.OpIntrinsic:
		args := []float64{ir.FloatFromBits(t, lhs)}
		if len(in.Operands) > 1 {
			args = append(args, ir.FloatFromBits(in.Operands[1].ValueType(), rhs))
		}
		return ir.FloatToBits(in.Type, interp.EvalIntrinsic(in.Intr, args))
	default:
		bits, ok := interp.EvalBinary(in.Op, t, lhs, rhs)
		if !ok {
			return ^uint64(0) // trap marker distinct from common results
		}
		return ir.TruncateToWidth(bits, in.Type.Bits())
	}
}

// fpOutputMask is the paper's closed-form masking multiplier for a
// corrupted float printed with reduced precision (§IV-E "Floating
// Point"): only mantissa corruption can hide in the digits dropped by the
// output format; for Float with %g precision 2 the paper derives 48.66%.
//
// The banded walker supersedes this formula (a uniformly random flip of an
// f32 starts ~50% in the high band, and only high-band corruption passes a
// reduced-precision print — the same quantity, derived structurally), but
// the closed form is kept as the reference the model is validated against.
func fpOutputMask(t ir.Type, format ir.OutputFormat) float64 {
	if format != ir.FormatG2 || !t.IsFloat() {
		return 1
	}
	var mantissa, fullDigits float64
	w := float64(t.Bits())
	if t == ir.F32 {
		mantissa, fullDigits = 23, 7
	} else {
		mantissa, fullDigits = 52, 15
	}
	const keptDigits = 2
	return ((w - mantissa) + mantissa*(keptDigits/fullDigits)) / w
}

// sampleRNG provides deterministic pseudo-random sampling for the
// overall-SDC estimator.
type sampleRNG struct{ s uint64 }

func newSampleRNG(seed uint64) *sampleRNG {
	if seed == 0 {
		seed = 0xA3EC647659359ACD
	}
	return &sampleRNG{s: seed}
}

func (r *sampleRNG) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

func (r *sampleRNG) intn(n uint64) uint64 { return r.next() % n }
