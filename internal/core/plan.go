package core

import (
	"math/rand"
	"sort"

	"gqs/internal/graph"
	"gqs/internal/value"
)

// GTEntry is one selected property of the expected result set: the
// property key ⟨e, p⟩, its value in the generated graph (the ground
// truth), and the output alias the synthesized query binds it to.
type GTEntry struct {
	Key   graph.PropertyKey
	Value value.Value
	Alias string
}

// GroundTruth is the expected result set of §3.1 step ②.
type GroundTruth struct {
	Entries []GTEntry
}

// elemRef identifies a graph element.
type elemRef struct {
	id    graph.ID
	isRel bool
}

// Plan is the full operation plan for one query: the ground truth, the
// operations with their constraint DAG, and the variable naming. A
// Synthesizer rebuilds its plan in place for every query, so the
// operations and element table live in slices reused across queries.
type Plan struct {
	GT  *GroundTruth
	Ops []*Operation
	// elems lists the plan's elements in introduction order with their
	// pattern variable and paired E+/E- operations; it is the element ->
	// variable map, searched linearly (a plan holds a handful of
	// elements).
	elems []planElem
	// aliasSeq continues the aN counter for synthesis-time aliases;
	// NodeSeq and RelSeq continue the nN/rN counters for helper pattern
	// variables introduced during encoding.
	aliasSeq int
	NodeSeq  int
	RelSeq   int

	// opBuf backs Ops. It is sized for the plan's largest possible
	// operation count before any operation is created, because
	// operations point into it (constraint edges, Ops) and must not move.
	opBuf []Operation
	sched schedScratch
}

// planElem is one element of the plan and its E+/E- operations.
type planElem struct {
	ref      elemRef
	v        string
	add, rem *Operation
}

// elemVar returns the pattern variable planned for the element.
func (p *Plan) elemVar(ref elemRef) (string, bool) {
	for i := range p.elems {
		if p.elems[i].ref == ref {
			return p.elems[i].v, true
		}
	}
	return "", false
}

// nextAlias returns a fresh aN alias name.
func (p *Plan) nextAlias() string {
	a := seqName('a', p.aliasSeq)
	p.aliasSeq++
	return a
}

// PlanConfig bounds the plan size.
type PlanConfig struct {
	MaxResultSet int // maximum ground-truth entries (paper: 6)
}

// DefaultPlanConfig mirrors the paper's setup (§5.1).
func DefaultPlanConfig() PlanConfig {
	return PlanConfig{MaxResultSet: 6}
}

// The bounds on a plan's supplementary operations (§5.1).
const (
	maxExtraElems = 7 // supplementary elements
	maxAliases    = 2 // supplementary aliases
	maxLists      = 2 // supplementary list expansions
)

// gtEnumLimit bounds the full property enumeration below: above it
// (bulk-generated graphs) SelectGroundTruth switches to element
// sampling instead of collecting and sorting every property key of the
// graph, which would be O(graph) per synthesized query. Campaign-sized
// graphs stay far under the limit, so the default path's draw schedule
// — and the seed campaign's bug-report digest — is byte-identical.
const gtEnumLimit = 4096

// SelectGroundTruth randomly selects properties from graph elements,
// forming the expected result set (§3.1 step ②).
//
// The selection is a uniform draw over every property key ⟨e, p⟩ of the
// graph in (element, name) order: n = 1 + Intn(maxEntries) keys, taken
// as the first n entries of a Perm over all keys. The keys are never
// materialized: NodeIDs and RelIDs are ascending and share one ID space,
// so merging them gives the element order, and only the n drawn
// positions are resolved to an element and the name at that rank.
func SelectGroundTruth(r *rand.Rand, g *graph.Graph, maxEntries int) *GroundTruth {
	if maxEntries < 1 {
		maxEntries = 1
	}
	if g.NumNodes()+g.NumRels() > gtEnumLimit {
		return selectGroundTruthSampled(r, g, maxEntries)
	}
	nodeIDs, relIDs := g.NodeIDs(), g.RelIDs()
	var countBuf [2 * gtStackElems]int32
	counts := countBuf[:0]
	if len(nodeIDs)+len(relIDs) > len(countBuf) {
		counts = make([]int32, 0, len(nodeIDs)+len(relIDs))
	}
	total := 0
	for m := newElemMerge(nodeIDs, relIDs); m.next(); {
		c := len(m.props(g))
		counts = append(counts, int32(c))
		total += c
	}
	n := 1 + r.Intn(maxEntries)
	if n > total {
		n = total
	}
	var selBuf [gtStackElems]int
	sel := selBuf[:0]
	if n > len(selBuf) {
		sel = make([]int, 0, n)
	}
	sel = permPrefix(r, total, sel[:n])
	gt := &GroundTruth{Entries: make([]GTEntry, n)}
	for i, pos := range sel {
		// Find the element holding key position pos, then the name of
		// rank pos-offset among its property names.
		m := newElemMerge(nodeIDs, relIDs)
		for k := 0; m.next(); k++ {
			if c := int(counts[k]); pos >= c {
				pos -= c
				continue
			}
			props := m.props(g)
			name := nthName(props, pos)
			gt.Entries[i] = GTEntry{
				Key:   graph.PropertyKey{Element: m.id, IsRel: m.isRel, Name: name},
				Value: props[name],
			}
			break
		}
	}
	return gt
}

// gtStackElems sizes SelectGroundTruth's stack buffers: campaign graphs
// (at most 13 nodes and 60 relationships by default) fit without a heap
// allocation.
const gtStackElems = 64

// elemMerge walks a graph's elements in ascending ID order by merging the
// ascending node and relationship ID lists.
type elemMerge struct {
	nodes, rels []graph.ID
	id          graph.ID
	isRel       bool
}

func newElemMerge(nodes, rels []graph.ID) elemMerge {
	return elemMerge{nodes: nodes, rels: rels}
}

func (m *elemMerge) next() bool {
	switch {
	case len(m.nodes) > 0 && (len(m.rels) == 0 || m.nodes[0] < m.rels[0]):
		m.id, m.isRel, m.nodes = m.nodes[0], false, m.nodes[1:]
	case len(m.rels) > 0:
		m.id, m.isRel, m.rels = m.rels[0], true, m.rels[1:]
	default:
		return false
	}
	return true
}

// props returns the current element's property map.
func (m *elemMerge) props(g *graph.Graph) map[string]value.Value {
	if m.isRel {
		return g.Rel(m.id).Props
	}
	return g.Node(m.id).Props
}

// nthName returns the property name of rank k in ascending order.
func nthName(props map[string]value.Value, k int) string {
	var buf [8]string
	names := buf[:0]
	for name := range props {
		names = append(names, name)
	}
	sortStrings(names)
	return names[k]
}

// permPrefix fills out with the first len(out) entries of r.Perm(n),
// making exactly the draws r.Perm(n) makes. Perm's swap loop only ever
// writes a prefix position from another prefix position or from the
// loop index, so the prefix evolves independently of the rest of the
// permutation, which is never stored.
func permPrefix(r *rand.Rand, n int, out []int) []int {
	k := len(out)
	for i := 0; i < n; i++ {
		j := r.Intn(i + 1)
		if i < k {
			out[i] = out[j]
			out[j] = i
		} else if j < k {
			out[j] = i
		}
	}
	return out
}

// selectGroundTruthSampled is the large-graph path: draw elements
// uniformly and one property per drawn element, rejecting duplicate
// keys, in O(maxEntries) instead of O(graph). Deterministic for a
// given rand source like the enumerating path, so checkpoint replay
// reproduces the same draws.
func selectGroundTruthSampled(r *rand.Rand, g *graph.Graph, maxEntries int) *GroundTruth {
	nodeIDs, relIDs := g.NodeIDs(), g.RelIDs()
	n := 1 + r.Intn(maxEntries)
	gt := &GroundTruth{}
	seen := make(map[graph.PropertyKey]bool, n)
	var names []string
	for len(gt.Entries) < n {
		var k graph.PropertyKey
		var props map[string]value.Value
		if i := r.Intn(len(nodeIDs) + len(relIDs)); i < len(nodeIDs) {
			id := nodeIDs[i]
			k = graph.PropertyKey{Element: id}
			props = g.Node(id).Props
		} else {
			id := relIDs[i-len(nodeIDs)]
			k = graph.PropertyKey{Element: id, IsRel: true}
			props = g.Rel(id).Props
		}
		names = names[:0]
		for name := range props {
			names = append(names, name)
		}
		if len(names) == 0 {
			continue // prop-less element (bulk rels); redraw
		}
		sort.Strings(names) // map order is random; the draw must not be
		k.Name = names[r.Intn(len(names))]
		if seen[k] {
			continue // duplicate ⟨e,p⟩: with >gtEnumLimit elements and
			// n ≤ maxEntries this retry terminates almost immediately
		}
		seen[k] = true
		v, _ := g.Lookup(k)
		gt.Entries = append(gt.Entries, GTEntry{Key: k, Value: v})
	}
	return gt
}

// BuildPlan turns a ground truth into the operation DAG of §3.2–3.3:
// essential operations for each expected property (E+ ≺ (E,p)+ ⪯ E-) and
// random supplementary operations, each with its paired removal.
func BuildPlan(r *rand.Rand, g *graph.Graph, gt *GroundTruth) *Plan {
	p := &Plan{}
	p.build(r, g.NodeIDs(), g.RelIDs(), gt)
	return p
}

// build is BuildPlan into p, reusing p's storage, over the graph's
// ascending node and relationship ID lists.
func (p *Plan) build(r *rand.Rand, nodeIDs, relIDs []graph.ID, gt *GroundTruth) {
	// Every loop below adds at most this many operations: three per
	// entry, two per extra element, and four (the item and an anchor
	// element) per alias or list.
	bound := 3*len(gt.Entries) + 2*maxExtraElems + 4*maxAliases + 4*maxLists
	if cap(p.opBuf) < bound {
		p.opBuf = make([]Operation, 0, bound)
	}
	p.GT, p.opBuf, p.Ops, p.elems = gt, p.opBuf[:0], p.Ops[:0], p.elems[:0]
	p.aliasSeq, p.NodeSeq, p.RelSeq = 0, 0, 0

	// Essential operations (category i).
	for i := range gt.Entries {
		e := &gt.Entries[i]
		pe := p.addElem(elemRef{id: e.Key.Element, isRel: e.Key.IsRel})
		pe.add.Essential, pe.rem.Essential = true, true
		e.Alias = p.nextAlias()
		access := p.newOp(Operation{
			Kind: OpAccessProp, Var: e.Alias,
			Element: e.Key.Element, IsRel: e.Key.IsRel, Prop: e.Key.Name,
			Essential: true,
		})
		p.Ops = append(p.Ops, access)
		pe.add.Before(access)
		access.WeakBefore(pe.rem)
	}

	// Supplementary operations (category ii). Every loop bound is redrawn
	// on each iteration; the draw schedule depends on it.

	// Extra elements.
	for i := 0; i < r.Intn(maxExtraElems+1); i++ {
		ref, ok := randomRef(r, nodeIDs, relIDs)
		if !ok {
			break
		}
		if p.findElem(ref) >= 0 {
			continue
		}
		pe := p.addElem(ref)
		pe.add.Before(pe.rem)
	}

	// Supplementary aliases. Most are anchored on an element that must be
	// in scope when the alias is created (N+ ≺ a+ ⪯ N-, a+ ≺ a-); some
	// are pure expressions with no anchor.
	for i := 0; i < r.Intn(maxAliases+1); i++ {
		alias := p.nextAlias()
		aAdd := p.newOp(Operation{Kind: OpAddAlias, Var: alias, Element: -1})
		aRem := p.newOp(Operation{Kind: OpRemoveAlias, Var: alias})
		if r.Intn(100) < 70 {
			if ref, ok := randomRef(r, nodeIDs, relIDs); ok {
				pe := p.addElem(ref)
				aAdd.Element, aAdd.IsRel = ref.id, ref.isRel
				pe.add.Before(aAdd)
				aAdd.WeakBefore(pe.rem)
			}
		}
		p.Ops = append(p.Ops, aAdd, aRem)
		aAdd.Before(aRem)
	}

	// Supplementary list expansions (L+ ≺ L-). Anchored lists reference
	// their element; unanchored ones are constant lists, which lets the
	// scheduler place the UNWIND before the first MATCH — the Figure 17
	// query shape.
	for i := 0; i < r.Intn(maxLists+1); i++ {
		alias := p.nextAlias()
		lAdd := p.newOp(Operation{Kind: OpExpandList, Var: alias, Element: -1})
		lRem := p.newOp(Operation{Kind: OpTruncList, Var: alias})
		if r.Intn(100) < 40 {
			if ref, ok := randomRef(r, nodeIDs, relIDs); ok {
				pe := p.addElem(ref)
				lAdd.Element, lAdd.IsRel = ref.id, ref.isRel
				pe.add.Before(lAdd)
				lAdd.WeakBefore(pe.rem)
			}
		}
		p.Ops = append(p.Ops, lAdd, lRem)
		lAdd.listSize = 1 + r.Intn(3)
		lAdd.Before(lRem)
	}
	for i, o := range p.Ops {
		o.idx = i
	}
}

// newOp places an operation in the plan's operation buffer. The caller
// appends it to Ops, which fixes its position in the DAG scan.
func (p *Plan) newOp(o Operation) *Operation {
	p.opBuf = append(p.opBuf, o)
	return &p.opBuf[len(p.opBuf)-1]
}

// findElem returns the element's index in the plan, or -1.
func (p *Plan) findElem(ref elemRef) int {
	for i := range p.elems {
		if p.elems[i].ref == ref {
			return i
		}
	}
	return -1
}

// addElem returns the element's plan entry, introducing it — with its
// pattern variable and its E+/E- pair, appended to Ops — on first use.
func (p *Plan) addElem(ref elemRef) planElem {
	if i := p.findElem(ref); i >= 0 {
		return p.elems[i]
	}
	var v string
	if ref.isRel {
		v = seqName('r', p.RelSeq)
		p.RelSeq++
	} else {
		v = seqName('n', p.NodeSeq)
		p.NodeSeq++
	}
	add := p.newOp(Operation{Kind: OpAddElem, Var: v, Element: ref.id, IsRel: ref.isRel})
	rem := p.newOp(Operation{Kind: OpRemoveElem, Var: v, Element: ref.id, IsRel: ref.isRel})
	p.Ops = append(p.Ops, add, rem)
	pe := planElem{ref: ref, v: v, add: add, rem: rem}
	p.elems = append(p.elems, pe)
	return pe
}

// randomRef draws a supplementary element: a relationship one time in
// three (when the graph has any), a node otherwise.
func randomRef(r *rand.Rand, nodeIDs, relIDs []graph.ID) (elemRef, bool) {
	if len(relIDs) > 0 && r.Intn(3) == 0 {
		return elemRef{id: relIDs[r.Intn(len(relIDs))], isRel: true}, true
	}
	if len(nodeIDs) == 0 {
		return elemRef{}, false
	}
	return elemRef{id: nodeIDs[r.Intn(len(nodeIDs))]}, true
}

// ExpectedColumns returns the output aliases in entry order.
func (gt *GroundTruth) ExpectedColumns() []string {
	cols := make([]string, len(gt.Entries))
	for i, e := range gt.Entries {
		cols[i] = e.Alias
	}
	return cols
}
