package core

import (
	"trident/internal/ir"
)

// graph is the module-wide def-use graph over dense indices, built once per
// Model on first use. Node i is the i-th instruction in module instruction
// order (ir.Module.Instrs): the fixed order every model-side float sum over
// a set of instructions follows. The out-edges of node i are
// edges[first[i]:first[i+1]], in buildEdges order.
type graph struct {
	instrs []*ir.Instr
	// index maps instructions to nodes; used only at the boundary (walk
	// entry, ordering of caller-supplied sets), never inside the fixpoint.
	index map[*ir.Instr]int32
	first []int32
	edges []denseEdge
	// execs is each node's ExecCount, the bound on its expected corrupted
	// executions.
	execs []float64
}

// denseEdge is one def-use edge with everything the fixpoint reads per
// visit precomputed.
type denseEdge struct {
	edge
	toIdx int32
	// terminal reports isTerminal(to): the fixpoint does not follow the
	// edge, extraction classifies it.
	terminal bool
	// repeat marks an edge identical to an earlier out-edge of the same
	// node (one def passed to the same parameter from two call sites of a
	// function). Both share one contribution, so the repeat's fixpoint
	// visit can never raise it and is skipped; extraction still counts it.
	repeat bool
	// weight is consumptionWeight(edge), the guard-independent factor.
	weight float64
	// tr and crash are edgeTransition(edge), filled on first use (hasTr).
	hasTr bool
	tr    transition
	crash float64
}

// graph returns the model's dense def-use graph, building it on first use.
func (m *Model) graph() *graph {
	if m.g != nil {
		return m.g
	}
	g := &graph{index: make(map[*ir.Instr]int32)}
	m.prof.Module.Instrs(func(in *ir.Instr) {
		g.index[in] = int32(len(g.instrs))
		g.instrs = append(g.instrs, in)
		g.execs = append(g.execs, float64(m.prof.ExecCount[in]))
	})

	// Group the edge list by source node, keeping each node's edges in
	// creation order (a counting sort).
	all := buildEdges(m.prof.Module)
	n := len(g.instrs)
	g.first = make([]int32, n+1)
	for _, ed := range all {
		g.first[g.index[ed.from]+1]++
	}
	for i := 0; i < n; i++ {
		g.first[i+1] += g.first[i]
	}
	g.edges = make([]denseEdge, len(all))
	next := append([]int32(nil), g.first[:n]...)
	for _, ed := range all {
		from := g.index[ed.from]
		g.edges[next[from]] = denseEdge{
			edge:     ed,
			toIdx:    g.index[ed.to],
			terminal: isTerminal(ed.to),
			weight:   m.consumptionWeight(ed),
		}
		next[from]++
	}
	for i := 0; i < n; i++ {
		out := g.edges[g.first[i]:g.first[i+1]]
		for j := range out {
			for k := 0; k < j; k++ {
				if out[k].edge == out[j].edge {
					out[j].repeat = true
					break
				}
			}
		}
	}

	m.g = g
	m.fix = newFixState(n, len(g.edges))
	return g
}

// transitionOf returns the edge's banded transition, deriving it (and the
// crash share) on first use.
func (m *Model) transitionOf(de *denseEdge) *transition {
	if !de.hasTr {
		de.tr, de.crash = m.edgeTransition(de.edge)
		de.hasTr = true
	}
	return &de.tr
}

// fixState holds the fixpoint's per-node and per-edge buffers, reused
// across walks. Their contents are valid only until the next fixpoint
// call: each call first zeroes exactly the entries the previous one
// touched.
type fixState struct {
	// Per node.
	reach, once, inSum, onceSum []bandPair
	// Per edge: the contribution last pushed along the edge.
	contrib, onceContrib []bandPair
	// nodes and edges list the touched entries; nodeSeen and edgeSeen
	// mark them.
	nodes, edges       []int32
	nodeSeen, edgeSeen []bool
	worklist           []int32
	// dirty marks nodes whose reach or once changed since they were last
	// expanded.
	dirty []bool

	// term and termSeen are walk extraction's per-node accumulators of
	// store and branch terminals, all zero between walks.
	term     []bandPair
	termSeen []bool

	// scale caches guardScale per edge within one phase-2 fixpoint; an
	// entry is current when its scaleGen equals gen.
	scale    []float64
	scaleGen []uint32
	gen      uint32
}

func newFixState(nodes, edges int) *fixState {
	return &fixState{
		reach:       make([]bandPair, nodes),
		once:        make([]bandPair, nodes),
		inSum:       make([]bandPair, nodes),
		onceSum:     make([]bandPair, nodes),
		nodeSeen:    make([]bool, nodes),
		dirty:       make([]bool, nodes),
		term:        make([]bandPair, nodes),
		termSeen:    make([]bool, nodes),
		contrib:     make([]bandPair, edges),
		onceContrib: make([]bandPair, edges),
		edgeSeen:    make([]bool, edges),
		scale:       make([]float64, edges),
		scaleGen:    make([]uint32, edges),
	}
}

// reset zeroes the entries the previous fixpoint touched.
func (st *fixState) reset() {
	for _, n := range st.nodes {
		st.reach[n], st.once[n], st.inSum[n], st.onceSum[n] = bandPair{}, bandPair{}, bandPair{}, bandPair{}
		st.nodeSeen[n], st.dirty[n] = false, false
	}
	for _, e := range st.edges {
		st.contrib[e], st.onceContrib[e] = bandPair{}, bandPair{}
		st.edgeSeen[e] = false
	}
	st.nodes, st.edges, st.worklist = st.nodes[:0], st.edges[:0], st.worklist[:0]
}

func (st *fixState) touchNode(n int32) {
	if !st.nodeSeen[n] {
		st.nodeSeen[n] = true
		st.nodes = append(st.nodes, n)
	}
}

func (st *fixState) touchEdge(e int32) {
	if !st.edgeSeen[e] {
		st.edgeSeen[e] = true
		st.edges = append(st.edges, e)
	}
}
