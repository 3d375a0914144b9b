package core

import (
	"slices"

	"trident/internal/ir"
)

// edge is one interprocedural def-use edge: the result of `from` feeds
// operand opIdx of `to`. Call-argument edges are folded through formal
// parameters (the argument's def connects directly to the parameter's
// users), and return edges connect a ret operand's def to every call site
// of the function with opIdx -1 (identity propagation).
type edge struct {
	from  *ir.Instr
	to    *ir.Instr
	opIdx int
	// phiIncoming is, for edges into a phi, the index of the phi arm this
	// edge feeds; -1 otherwise. The consumption weight of a phi arm is the
	// profiled traversal frequency of its CFG edge.
	phiIncoming int
}

// identityEdge marks an edge whose transition is always band-preserving
// full propagation.
const identityEdge = -1

// buildEdges constructs the module-wide def-use edge list, folding
// parameters and returns so the walker is context-insensitive but
// interprocedural.
func buildEdges(m *ir.Module) []edge {
	var out []edge
	add := func(from, to *ir.Instr, opIdx, phiIncoming int) {
		out = append(out, edge{from: from, to: to, opIdx: opIdx, phiIncoming: phiIncoming})
	}

	// callSites maps a function to the call instructions targeting it.
	callSites := make(map[*ir.Func][]*ir.Instr)
	m.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpCall {
			callSites[in.Callee] = append(callSites[in.Callee], in)
		}
	})

	// paramUsers maps each formal parameter to its (instr, opIdx) users.
	type use struct {
		in    *ir.Instr
		opIdx int
	}
	paramUsers := make(map[*ir.Param][]use)
	m.Instrs(func(in *ir.Instr) {
		for k, op := range in.Operands {
			if p, ok := op.(*ir.Param); ok {
				paramUsers[p] = append(paramUsers[p], use{in, k})
			}
		}
	})

	m.Instrs(func(in *ir.Instr) {
		for k, op := range in.Operands {
			def, ok := op.(*ir.Instr)
			if !ok {
				continue
			}
			switch in.Op {
			case ir.OpCall:
				// A corrupted argument flows to the callee parameter's
				// users rather than to the call's own result.
				for _, u := range paramUsers[in.Callee.Params[k]] {
					phiArm := -1
					if u.in.Op == ir.OpPhi {
						phiArm = u.opIdx
					}
					add(def, u.in, u.opIdx, phiArm)
				}
			case ir.OpRet:
				// A corrupted return value flows to every call site's
				// result.
				for _, site := range callSites[in.Block.Fn] {
					add(def, site, identityEdge, -1)
				}
			case ir.OpPhi:
				add(def, in, k, k)
			default:
				add(def, in, k, -1)
			}
		}
	})
	return out
}

// ends aggregates where the corruption from one start instruction can go
// (the terminals of the paper's static data-dependent instruction
// sequences).
type ends struct {
	// output is the probability of reaching program output visibly:
	// reduced-precision prints only pass high-band corruption.
	output float64
	// stores lists the store instructions whose stored value may be
	// corrupted, with the banded probability, in module instruction order.
	stores []storeEnd
	// branches lists the conditional branches whose direction may be
	// flipped, with the flip probability, in module instruction order.
	branches []branchEnd
	// crash is the estimated probability of a trap along the way.
	crash float64
}

// storeEnd is one store terminal of a walk.
type storeEnd struct {
	in *ir.Instr
	p  bandPair
}

// branchEnd is one conditional-branch terminal of a walk.
type branchEnd struct {
	in *ir.Instr
	p  float64
}

// walkMode selects the initial band distribution of a walk: walkUniform
// starts from a uniformly random flipped bit of the start instruction's
// result (Algorithm 1's entry); a non-negative mode pins the corruption to
// that band (used by fm, which must know the band of a stored corruption).
type walkMode int

// walkUniform is the uniform-random-bit walk mode.
const walkUniform walkMode = -1

// walkBand returns the walk mode pinned to one band.
func walkBand(band int) walkMode { return walkMode(band) }

// walkKey caches walks per (start, mode).
type walkKey struct {
	in   *ir.Instr
	mode walkMode
}

// consumptionWeight is the expected number of times `to` consumes one
// corrupted result of `from`, per execution of `from`:
//
//   - for phi arms, the profiled traversal frequency of the incoming CFG
//     edge relative to the def's executions — this makes loop-carried
//     corruption persist with the back-edge probability, so accumulators
//     converge to full propagation via the geometric series;
//   - for everything else, the execution-frequency ratio
//     ExecCount(to)/ExecCount(from). SSA dominance makes non-phi users
//     forward-reachable from their defs, so the ratio is the profiled
//     generalization of the paper's path-probability weighting (the
//     NULL-node masking of §IV-E): a consumer guarded by a 60%-taken
//     branch yields 0.6.
func (m *Model) consumptionWeight(ed edge) float64 {
	fromCount := m.prof.ExecCount[ed.from]
	if fromCount == 0 {
		return 0
	}
	if ed.phiIncoming >= 0 && ed.to.Op == ir.OpPhi {
		from := ed.to.PhiBlocks[ed.phiIncoming]
		return m.edgeTraversals(from, ed.to.Block) / float64(fromCount)
	}
	return float64(m.prof.ExecCount[ed.to]) / float64(fromCount)
}

// edgeTraversals returns the profiled number of times control flowed along
// the CFG edge from→to.
func (m *Model) edgeTraversals(from, to *ir.Block) float64 {
	term := from.Terminator()
	if term == nil {
		return 0
	}
	switch term.Op {
	case ir.OpBr:
		if term.Targets[0] == to {
			return float64(m.prof.ExecCount[term])
		}
	case ir.OpCondBr:
		bt := m.prof.BranchTaken[term]
		total := 0.0
		for i, tgt := range term.Targets {
			if tgt == to {
				total += float64(bt[i])
			}
		}
		return total
	}
	return 0
}

// edgeTransition derives the banded transition and crash share of an
// edge; the dense graph caches it per edge (transitionOf).
func (m *Model) edgeTransition(ed edge) (transition, float64) {
	if ed.opIdx == identityEdge {
		return diagonal(1), 0
	}
	return m.transitionFor(ed.to, ed.opIdx)
}

// walkFrom runs the fs sub-model from `start`, whose result register is
// assumed corrupted per `mode`, and returns the terminal probabilities.
func (m *Model) walkFrom(start *ir.Instr, mode walkMode) *ends {
	key := walkKey{start, mode}
	if cached, ok := m.walkCache[key]; ok {
		return cached
	}
	e := &ends{}
	m.walkCache[key] = e

	g := m.graph()
	s, ok := g.index[start]
	if !ok || g.execs[s] == 0 {
		return e // never activated
	}

	var seed bandPair
	if mode == walkUniform {
		seed = bandSplit(start.Type)
	} else {
		seed[int(mode)] = 1
	}

	// Phase 1: unguarded fixpoint. Phase 2 (when the corruption can flip
	// a branch that guards a loop back edge) re-runs the fixpoint with
	// that back edge's persistence scaled down: a corrupted induction
	// value is bound-checked before it is reused, so bit flips that would
	// have left the loop's index range mostly exit the loop instead of
	// surviving into the next iteration's address computation.
	st := m.fixpoint(s, seed, nil)
	guardFlip := m.guardFlips(st)
	if len(guardFlip) > 0 {
		st = m.fixpoint(s, seed, guardFlip)
	}

	// Extraction: classify every out-edge of a reached node, visiting
	// nodes in module instruction order so every sum below accumulates in
	// a fixed order. The terminal contribution is the expected corrupted
	// consumptions, capped at 1 to become a probability. Store and branch
	// terminals accumulate per node in st.term (a branch uses band 0).
	addCrash := func(p float64) {
		e.crash += p
		if e.crash > 1 {
			e.crash = 1
		}
	}
	capped := func(v float64) float64 {
		if v > 1 {
			return 1
		}
		return v
	}

	slices.Sort(st.nodes)
	var terms []int32
	for _, node := range st.nodes {
		r := st.reach[node]
		if r.total() <= 0 {
			continue
		}
		for ei := g.first[node]; ei < g.first[node+1]; ei++ {
			de := &g.edges[ei]
			to := de.to
			w := de.weight * m.guardScaleAt(ei, guardFlip)
			if w == 0 {
				continue
			}
			w1 := w
			if w1 > 1 {
				w1 = 1
			}
			tr := m.transitionOf(de)
			crashProb := de.crash
			switch {
			case to.Op == ir.OpStore && de.opIdx == 0, to.Op == ir.OpCondBr:
				if !st.termSeen[de.toIdx] {
					st.termSeen[de.toIdx] = true
					terms = append(terms, de.toIdx)
				}
				acc := &st.term[de.toIdx]
				if to.Op == ir.OpCondBr {
					flip := 0.0
					for from := 0; from < nClasses; from++ {
						flip += r[from] * w * tr.propTotal(from)
					}
					acc[0] = capped(acc[0] + flip)
					break
				}
				for from := 0; from < nClasses; from++ {
					for band := 0; band < nClasses; band++ {
						acc[band] = capped(acc[band] + r[from]*w*tr[from][band])
					}
				}
			case to.Op == ir.OpStore && de.opIdx == 1:
				addCrash(capped(st.once[node].total()) * w1 * crashProb)
			case to.Op == ir.OpLoad:
				// The load's surviving share continued through the
				// fixpoint; its crash share is accounted here with
				// at-least-once semantics (correlated retries).
				addCrash(capped(st.once[node].total()) * w1 * crashProb)
			case to.Op == ir.OpPrint && m.isOutput(to):
				contribution := 0.0
				g2 := to.Format == ir.FormatG2 && to.Operands[0].ValueType().IsFloat()
				for from := 0; from < nClasses; from++ {
					for band := 0; band < nClasses; band++ {
						if g2 && band != bandTop && band != classReplaced {
							continue // below the printed precision
						}
						contribution += r[from] * w * tr[from][band]
					}
				}
				e.output = capped(e.output + contribution)
			}
		}
	}
	slices.Sort(terms)
	for _, t := range terms {
		in := g.instrs[t]
		if in.Op == ir.OpCondBr {
			e.branches = append(e.branches, branchEnd{in, st.term[t][0]})
		} else {
			e.stores = append(e.stores, storeEnd{in, st.term[t]})
		}
		st.term[t], st.termSeen[t] = bandPair{}, false
	}
	return e
}

// fixpoint computes the banded reach quantities from node start, both
// least fixed points over the def-use graph:
//
// reach — expected corrupted executions per band (total bounded by
// ExecCount): value corruption compounds through loop-carried phis, so an
// accumulator whose exit value always prints converges to full
// propagation.
//
// once — probability that at least one execution is corrupted, per band
// (edge weights capped at 1, bands capped at 1): used for crash
// probabilities, because a single flipped bit retries the *same* wrong
// address every iteration — the trials are perfectly correlated, and the
// first access decides.
//
// guardFlip, when non-empty, lists loop-guarding conditional branches with
// the probability the corruption flips them; phi arms crossing a back edge
// guarded by such a branch have their consumption scaled by the
// complement (the corruption survives into the next iteration only when
// the guard still passes).
//
// The result lives in the model's reused fixState (reach and once per
// node, the touched nodes in st.nodes) and is valid only until the next
// fixpoint call. The worklist is a LIFO without deduplication: the order
// of pushes and pops fixes the order of every float accumulation. A popped
// node that is not dirty (its reach and once are unchanged since it was
// last expanded) is skipped: expanding it again would recompute exactly
// the contributions it last pushed, which cannot exceed the per-edge
// values already recorded, so the skip removes no-op visits only.
func (m *Model) fixpoint(start int32, seed bandPair, guardFlip []guardFlip) *fixState {
	const eps = 1e-9
	g, st := m.graph(), m.fix
	st.reset()
	if len(guardFlip) > 0 {
		st.gen++
	}
	st.touchNode(start)
	st.reach[start], st.once[start], st.inSum[start], st.onceSum[start] = seed, seed, seed, seed
	st.dirty[start] = true

	st.worklist = append(st.worklist, start)
	for len(st.worklist) > 0 {
		node := st.worklist[len(st.worklist)-1]
		st.worklist = st.worklist[:len(st.worklist)-1]
		if !st.dirty[node] {
			continue
		}
		st.dirty[node] = false
		r := st.reach[node]
		o := st.once[node]
		for ei := g.first[node]; ei < g.first[node+1]; ei++ {
			de := &g.edges[ei]
			if de.terminal || de.repeat {
				continue // extraction classifies sinks; repeats add nothing
			}
			w := de.weight * m.guardScaleAt(ei, guardFlip)
			if w <= 0 {
				continue
			}
			w1 := w
			if w1 > 1 {
				w1 = 1
			}
			tr := m.transitionOf(de)

			var newContrib, newOnce bandPair
			for from := 0; from < nClasses; from++ {
				// (r·w)·tr is the left-to-right product r·w·tr.
				rw, ow := r[from]*w, o[from]*w1
				for band := 0; band < nClasses; band++ {
					newContrib[band] += rw * tr[from][band]
					newOnce[band] += ow * tr[from][band]
				}
			}

			to := de.toIdx
			changed := false

			if old := &st.contrib[ei]; grew(newContrib, *old, eps) {
				st.touchEdge(ei)
				st.touchNode(to)
				sum := &st.inSum[to]
				for band := 0; band < nClasses; band++ {
					if newContrib[band] > old[band] {
						sum[band] += newContrib[band] - old[band]
						old[band] = newContrib[band]
					}
				}
				target := *sum
				if bound, t := g.execs[to], target.total(); t > bound {
					f := bound / t
					for band := range target {
						target[band] *= f
					}
				}
				if grew(target, st.reach[to], eps) {
					st.reach[to] = target
					changed = true
				}
			}

			if oldOnce := &st.onceContrib[ei]; grew(newOnce, *oldOnce, eps) {
				st.touchEdge(ei)
				st.touchNode(to)
				sum := &st.onceSum[to]
				for band := 0; band < nClasses; band++ {
					if newOnce[band] > oldOnce[band] {
						sum[band] += newOnce[band] - oldOnce[band]
						oldOnce[band] = newOnce[band]
					}
				}
				target := *sum
				// "At least once" is a probability of a single event: cap
				// the total, preserving the band mix.
				if t := target.total(); t > 1 {
					for band := range target {
						target[band] /= t
					}
				}
				if grew(target, st.once[to], eps) {
					st.once[to] = target
					changed = true
				}
			}

			if changed {
				st.dirty[to] = true
				st.worklist = append(st.worklist, to)
			}
		}
	}
	return st
}

// guardScaleAt returns guardScale of edge ei under guardFlip, computing it
// once per edge per phase-2 fixpoint (1 when guardFlip is empty).
func (m *Model) guardScaleAt(ei int32, guardFlip []guardFlip) float64 {
	if len(guardFlip) == 0 {
		return 1
	}
	st := m.fix
	if st.scaleGen[ei] != st.gen {
		st.scale[ei] = m.guardScale(m.g.edges[ei].edge, guardFlip)
		st.scaleGen[ei] = st.gen
	}
	return st.scale[ei]
}

// guardScale returns the survival factor of an edge under the phase-2
// guard refinement: corruption that flips a bound check is consumed by the
// divergence (handled through fc), not by the uses behind the check. Two
// cases compose:
//
//   - a phi arm crossing a back edge whose latch ends in a flip-influenced
//     conditional branch survives into the next iteration only when the
//     branch still passes;
//   - a use strictly dominated by a flip-influenced branch that executes
//     between the def and the use (header-checked loops: the def is the
//     header phi or earlier, the check ends the header, the use sits in
//     the body) sees the corruption only when the check still passes.
//
// The product runs over guardFlip in its (module instruction) order.
func (m *Model) guardScale(ed edge, guardFlip []guardFlip) float64 {
	s := 1.0
	if g := m.backEdgeGuard(ed); g != nil {
		for _, gf := range guardFlip {
			if gf.br == g {
				s *= 1 - gf.p
				break
			}
		}
	}
	fromBlk, toBlk := ed.from.Block, ed.to.Block
	if fromBlk.Fn != toBlk.Fn {
		return s
	}
	cfg := m.cfgOf(toBlk.Fn)
	for _, gf := range guardFlip {
		g, flip := gf.br, gf.p
		gBlk := g.Block
		if gBlk.Fn != toBlk.Fn || gBlk == toBlk {
			continue
		}
		if !cfg.Dominates(gBlk, toBlk) {
			continue
		}
		if fromBlk != gBlk && !cfg.Dominates(fromBlk, gBlk) {
			continue
		}
		s *= 1 - flip
	}
	return s
}

// backEdgeGuard returns, for a phi-arm edge whose incoming CFG edge is a
// loop back edge terminated by a conditional branch, that branch; nil
// otherwise.
func (m *Model) backEdgeGuard(ed edge) *ir.Instr {
	if ed.phiIncoming < 0 || ed.to.Op != ir.OpPhi {
		return nil
	}
	from := ed.to.PhiBlocks[ed.phiIncoming]
	cfg := m.cfgOf(ed.to.Block.Fn)
	if !cfg.IsBackEdge(from, ed.to.Block) {
		return nil
	}
	term := from.Terminator()
	if term == nil || term.Op != ir.OpCondBr {
		return nil
	}
	return term
}

// guardFlip is one loop-guarding conditional branch with the probability
// the corruption flips it.
type guardFlip struct {
	br *ir.Instr
	p  float64
}

// guardFlips estimates, from the phase-1 at-least-once quantities, the
// probability that the corruption flips each back-edge-guarding branch
// (at-least-once semantics: the same flipped bit either trips the bound
// check on its first evaluation or never). Only guards actually influenced
// by the corruption are returned, in module instruction order.
func (m *Model) guardFlips(st *fixState) []guardFlip {
	g := m.graph()
	var flips []guardFlip
	for _, node := range st.nodes {
		o := st.once[node]
		if o.total() <= 0 {
			continue
		}
		for ei := g.first[node]; ei < g.first[node+1]; ei++ {
			de := &g.edges[ei]
			if de.to.Op != ir.OpCondBr {
				continue
			}
			blk := de.to.Block
			cfg := m.cfgOf(blk.Fn)
			// Only loop-terminating branches act as guards: both
			// latch-style (a target is the back edge) and header-style
			// (one target exits the loop) checks qualify.
			if lt, _ := cfg.IsLoopTerminating(blk); !lt {
				continue
			}
			w := de.weight
			if w > 1 {
				w = 1
			}
			tr := m.transitionOf(de)
			p := 0.0
			for from := 0; from < nClasses; from++ {
				p += o[from] * w * tr.propTotal(from)
			}
			if p > 1 {
				p = 1
			}
			if p <= 1e-9 {
				continue
			}
			k := slices.IndexFunc(flips, func(f guardFlip) bool { return f.br == de.to })
			if k < 0 {
				flips = append(flips, guardFlip{br: de.to})
				k = len(flips) - 1
			}
			flips[k].p = max(flips[k].p, p)
		}
	}
	slices.SortFunc(flips, func(a, b guardFlip) int { return int(g.index[a.br] - g.index[b.br]) })
	return flips
}

// isTerminal reports whether corruption stops flowing through registers at
// this instruction: it either has no result or is handled by another
// sub-model.
func isTerminal(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpStore, ir.OpCondBr, ir.OpPrint, ir.OpCheck, ir.OpBr, ir.OpRet:
		return true
	default:
		return false
	}
}

// grew reports whether any band of a exceeds the same band of b by eps.
func grew(a, b bandPair, eps float64) bool {
	for i := range a {
		if a[i] > b[i]+eps {
			return true
		}
	}
	return false
}
