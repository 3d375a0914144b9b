package core

import (
	"trident/internal/ir"
)

// fm is the memory sub-model (paper §IV-E): the probability that a
// corrupted value written by a given static store eventually reaches the
// program's output, conditioned on the magnitude band of the stored
// corruption (low-band corruption can hide below reduced-precision
// output; high-band corruption cannot).
//
// The profiler already collapsed dynamic store→load dependencies into
// static edges (the paper's symmetric-loop pruning); here those edges are
// followed, recursively invoking fs from each reading load and fc at each
// branch the corruption flips. Store→load→store chains form cycles, so
// the equation system
//
//	out_b(S) = min(1, Σ_L w(S,L) · [ fs_b(L).output
//	                               + Σ_{S',b'} fs_b(L).stores[S'][b']·out_b'(S')
//	                               + branch terms ])
//
// is solved as a least fixed point by monotone iteration from zero; this
// subsumes the paper's memoization and terminates because the map is
// monotone and bounded by 1.
func (m *Model) memOut(store *ir.Instr, band int) float64 {
	m.solveMemory()
	return m.fmOut[fmKey{store, band}]
}

// fmKey indexes the fm unknowns: one per (store, corruption band).
type fmKey struct {
	store *ir.Instr
	band  int
}

// fmTerm is one linear term of a store's fm equation.
type fmTerm struct {
	coeff float64
	key   fmKey
}

// fmEquation is out(key) = min(1, constant + Σ coeff·out(term.key)).
type fmEquation struct {
	key      fmKey
	constant float64
	terms    []fmTerm
}

// regTerms returns the constant (direct output share) and the fm-linear
// store terms of corruption starting at def's result. Control-divergence
// corruption is whole-value, so the walk starts in the replaced class.
// Branch recursion is excluded: register effects of flipped branches are
// one level deep, which keeps Algorithm 1 finite and avoids double
// counting.
func (m *Model) regTerms(def *ir.Instr) (float64, []fmTerm) {
	e := m.walkFrom(def, walkBand(classReplaced))
	terms := make([]fmTerm, 0, len(e.stores))
	for _, se := range e.stores {
		for band := 0; band < nClasses; band++ {
			if se.p[band] > 0 {
				terms = append(terms, fmTerm{coeff: se.p[band], key: fmKey{se.in, band}})
			}
		}
	}
	return e.output, terms
}

// regSDC is the SDC probability of a corrupted register live-out (a
// RegCorruption def), resolving store terms through fm when enabled.
func (m *Model) regSDC(def *ir.Instr) float64 {
	c, terms := m.regTerms(def)
	if m.cfg.EnableFM {
		m.solveMemory()
		for _, t := range terms {
			c += t.coeff * m.fmOut[t.key]
		}
	} else {
		for _, t := range terms {
			c += t.coeff
		}
	}
	if c > 1 {
		c = 1
	}
	return c
}

// solveMemory builds and solves the fm equation system once per model.
func (m *Model) solveMemory() {
	if m.fmOut != nil {
		return
	}
	m.fmOut = make(map[fmKey]float64)

	// Equations are ordered by (store in module instruction order, band):
	// the sweep order of the fixed point.
	var eqs []*fmEquation
	for _, store := range sortedKeys(m, m.prof.MemGraph) {
		edges := m.prof.MemGraph[store]
		for band := 0; band < nClasses; band++ {
			eq := &fmEquation{key: fmKey{store, band}}
			for _, e := range edges {
				w := m.prof.StoreReadProb(e)
				if w == 0 {
					continue
				}
				// Pruning ablation: replicate the edge once per dynamic
				// dependency with proportionally split weight. The fixed
				// point is unchanged; the work is what the unpruned
				// dynamic dependence graph would cost.
				replicas := 1
				if m.cfg.ExpandMemEdges && e.DynDeps > 1 {
					replicas = int(e.DynDeps)
				}
				wr := w / float64(replicas)
				for r := 0; r < replicas; r++ {
					m.addEdgeTerms(eq, e.Load, band, wr)
				}
			}
			eqs = append(eqs, eq)
		}
	}
	m.runFixedPoint(eqs)
}

// addEdgeTerms appends one dependence edge's contribution to a store's
// equation: the fs walk from the reading load (seeded with the stored
// corruption's band), with fc effects expanded.
func (m *Model) addEdgeTerms(eq *fmEquation, load *ir.Instr, band int, w float64) {
	loadEnds := m.walkFrom(load, walkBand(band))
	eq.constant += w * loadEnds.output
	for _, se := range loadEnds.stores {
		for b := 0; b < nClasses; b++ {
			if se.p[b] > 0 {
				eq.terms = append(eq.terms, fmTerm{coeff: w * se.p[b], key: fmKey{se.in, b}})
			}
		}
	}
	if !m.cfg.EnableFC {
		return
	}
	for _, be := range loadEnds.branches {
		p := be.p
		eff := m.fcEffectsOf(be.in)
		for _, sc := range eff.stores {
			// Divergence-corrupted stores are high band.
			eq.terms = append(eq.terms,
				fmTerm{coeff: w * p * sc.Prob, key: fmKey{sc.Store, classReplaced}})
		}
		for _, rc := range eff.regs {
			c, terms := m.regTerms(rc.Def)
			eq.constant += w * p * rc.Prob * c
			for _, t := range terms {
				eq.terms = append(eq.terms,
					fmTerm{coeff: w * p * rc.Prob * t.coeff, key: t.key})
			}
		}
	}
}

// runFixedPoint iterates the equation system to its least fixed point by
// monotone Gauss-Seidel sweeps from zero: each sweep visits the equations
// in order and updates m.fmOut in place, so later equations of a sweep
// already read the earlier ones' new values.
func (m *Model) runFixedPoint(eqs []*fmEquation) {
	maxIters := m.cfg.FMMaxIters
	if maxIters <= 0 {
		maxIters = 200
	}
	const eps = 1e-10
	iters := 0
	for ; iters < maxIters; iters++ {
		maxDelta := 0.0
		for _, eq := range eqs {
			key := eq.key
			v := eq.constant
			for _, t := range eq.terms {
				v += t.coeff * m.fmOut[t.key]
			}
			if v > 1 {
				v = 1
			}
			if d := v - m.fmOut[key]; d > maxDelta {
				maxDelta = d
			}
			m.fmOut[key] = v
		}
		if maxDelta < eps {
			break
		}
	}
	m.fmIterations = iters + 1
}
