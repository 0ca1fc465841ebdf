package core

import (
	"gqs/internal/cypher/ast"
	"gqs/internal/graph"
)

// pin records one uniquifying decision (§3.4, Figure 6): the pattern
// variable must bind exactly the intended element; competitors are the
// graph elements that would otherwise also match at the decision point.
// Pins are rendered as WHERE predicates — initially `var.id = <id>`, then
// complexified by Algorithm 2 while preserving distinguishability.
type pin struct {
	varName     string
	slot        int32
	elem        elemRef
	competitors []elemRef
}

// noID marks an unbound variable slot: element IDs are never negative.
const noID graph.ID = -1

// uniquify walks the encoded chains from bound anchors outward, adding
// pins wherever several graph candidates could match a pattern segment,
// then verifies global uniqueness with a full backtracking count and
// falls back to pinning every element if the stepwise pass was not
// sufficient. The returned pins guarantee that the clause's patterns
// match exactly the intended binding. It works on the clause's variable
// slots (s.cvars): fixed[slot] is the element a slot is known to bind,
// or noID. The pins and their competitor lists are scratch, valid until
// the next clause.
func (s *Synthesizer) uniquify(chains []*encChain) []pin {
	s.resetFixed()
	s.pins, s.compBuf = s.pins[:0], s.compBuf[:0]
	for _, ec := range chains {
		// Anchor: the first position whose variable is already fixed.
		anchor := -1
		for i, slot := range ec.nodeSlots {
			if s.fixed[slot] != noID {
				anchor = i
				break
			}
		}
		if anchor < 0 {
			// No anchored element: pin the first node (§3.4: "one
			// pattern element is randomly picked, and a predicate is
			// constructed to ensure that it only matches the desired
			// graph element").
			anchor = 0
			s.pinVar(ec.nodeSlots[0], elemRef{id: ec.nodeIDs[0]}, s.nodeCompetitors(ec.part.Nodes[0], ec.nodeIDs[0]))
		}
		s.fixed[ec.nodeSlots[anchor]] = ec.nodeIDs[anchor]
		// March right, then left.
		for i := anchor; i < len(ec.relIDs); i++ {
			s.uniquifySegment(ec, i, true)
		}
		for i := anchor - 1; i >= 0; i-- {
			s.uniquifySegment(ec, i, false)
		}
	}

	// Global verification: the stepwise pass is a heuristic; if any
	// ambiguity survives, pin everything.
	if s.countMatches(chains, s.pins, 2) != 1 {
		s.pins, s.compBuf = s.pins[:0], s.compBuf[:0]
		s.resetFixed()
		for _, ec := range chains {
			for i, np := range ec.part.Nodes {
				s.pinVar(ec.nodeSlots[i], elemRef{id: ec.nodeIDs[i]}, s.nodeCompetitors(np, ec.nodeIDs[i]))
			}
			for i, rp := range ec.part.Rels {
				s.pinVar(ec.relSlots[i], elemRef{id: ec.relIDs[i], isRel: true}, s.relCompetitors(rp, ec.relIDs[i]))
			}
		}
	}
	return s.pins
}

// resetFixed fixes exactly the slots of the variables in scope before the
// clause.
func (s *Synthesizer) resetFixed() {
	s.fixed = s.fixed[:0]
	for _, cv := range s.cvars {
		id := noID
		if cv.inScope {
			id = cv.ref.id
		}
		s.fixed = append(s.fixed, id)
	}
}

// pinVar pins the slot to the element unless it is already fixed. comps
// is a window of s.compBuf.
func (s *Synthesizer) pinVar(slot int32, ref elemRef, comps []elemRef) {
	if s.fixed[slot] != noID {
		return
	}
	s.pins = append(s.pins, pin{varName: s.cvars[slot].name, slot: slot, elem: ref, competitors: comps})
	s.fixed[slot] = ref.id
}

// uniquifySegment handles one pattern segment: expanding from the bound
// node at position i (forward) or i+1 (backward) across relationship i.
func (s *Synthesizer) uniquifySegment(ec *encChain, i int, forward bool) {
	fromPos, toPos := i, i+1
	if !forward {
		fromPos, toPos = i+1, i
	}
	start := len(s.compBuf)
	n := s.segmentCandidates(ec, i, fromPos, toPos, forward)
	if n > 1 {
		// The candidates went to compBuf; drop the intended one to leave
		// the competitors.
		comps := s.compBuf[start:start]
		for _, c := range s.compBuf[start:] {
			if c.id != ec.relIDs[i] {
				comps = append(comps, c)
			}
		}
		s.compBuf = s.compBuf[:start+len(comps)]
		s.pinVar(ec.relSlots[i], elemRef{id: ec.relIDs[i], isRel: true}, comps[:len(comps):len(comps)])
	} else {
		s.compBuf = s.compBuf[:start]
	}
	s.fixed[ec.relSlots[i]] = ec.relIDs[i]
	s.fixed[ec.nodeSlots[toPos]] = ec.nodeIDs[toPos]
}

// segmentCandidates appends to s.compBuf the relationships that could
// match relationship i of the chain, expanding from the node at fromPos
// given the bindings fixed so far, and returns how many it appended.
func (s *Synthesizer) segmentCandidates(ec *encChain, i, fromPos, toPos int, forward bool) int {
	rp, toPattern := ec.part.Rels[i], ec.part.Nodes[toPos]
	wantRel, wantTo := s.fixed[ec.relSlots[i]], s.fixed[ec.nodeSlots[toPos]]
	from := ec.nodeIDs[fromPos]
	dir := rp.Direction
	if !forward {
		switch dir {
		case ast.DirRight:
			dir = ast.DirLeft
		case ast.DirLeft:
			dir = ast.DirRight
		}
	}
	start := len(s.compBuf)
	try := func(rid graph.ID, rel *graph.Rel, far graph.ID) {
		if len(rp.Types) > 0 && !containsStr(rp.Types, rel.Type) {
			return
		}
		if wantRel != noID && wantRel != rid {
			return
		}
		if len(toPattern.Labels) > 0 && !hasLabels(s.g.Node(far), toPattern.Labels) {
			return
		}
		if wantTo != noID && wantTo != far {
			return
		}
		s.compBuf = append(s.compBuf, elemRef{id: rid, isRel: true})
	}
	g := s.g
	switch dir {
	case ast.DirRight:
		for _, rid := range g.Out(from) {
			rel := g.Rel(rid)
			try(rid, rel, rel.End)
		}
	case ast.DirLeft:
		for _, rid := range g.In(from) {
			rel := g.Rel(rid)
			try(rid, rel, rel.Start)
		}
	default:
		for _, rid := range g.Out(from) {
			rel := g.Rel(rid)
			try(rid, rel, rel.End)
		}
		for _, rid := range g.In(from) {
			if rel := g.Rel(rid); rel.Start != rel.End {
				try(rid, rel, rel.Start)
			}
		}
	}
	return len(s.compBuf) - start
}

// hasLabels reports whether the node carries every label.
func hasLabels(n *graph.Node, labels []string) bool {
	for _, l := range labels {
		if !n.HasLabel(l) {
			return false
		}
	}
	return true
}

// nodeCompetitors returns the other nodes satisfying the encoded label
// constraints of the pattern node, as a window of s.compBuf.
func (s *Synthesizer) nodeCompetitors(np *ast.NodePattern, intended graph.ID) []elemRef {
	start := len(s.compBuf)
	for _, id := range s.nodeIDs {
		if id != intended && (len(np.Labels) == 0 || hasLabels(s.g.Node(id), np.Labels)) {
			s.compBuf = append(s.compBuf, elemRef{id: id})
		}
	}
	return s.compBuf[start:len(s.compBuf):len(s.compBuf)]
}

// relCompetitors returns the other relationships satisfying the encoded
// type constraints, as a window of s.compBuf.
func (s *Synthesizer) relCompetitors(rp *ast.RelPattern, intended graph.ID) []elemRef {
	start := len(s.compBuf)
	for _, id := range s.relIDs {
		if id == intended {
			continue
		}
		if len(rp.Types) > 0 && !containsStr(rp.Types, s.g.Rel(id).Type) {
			continue
		}
		s.compBuf = append(s.compBuf, elemRef{id: id, isRel: true})
	}
	return s.compBuf[start:len(s.compBuf):len(s.compBuf)]
}

func containsStr(xs []string, x string) bool {
	for _, s := range xs {
		if s == x {
			return true
		}
	}
	return false
}

// matcher counts the matches of a clause's encoded chains by
// backtracking over variable slots (see countMatches). It shares nothing
// with the engine's matchers, which the oracle tests.
type matcher struct {
	g      *graph.Graph
	nodes  []graph.ID
	chains []*encChain
	// env[slot] is the element the slot binds on the current branch and
	// pinned[slot] the element a pin requires, noID for none; used holds
	// the relationships the branch has bound, which the clause may not
	// repeat.
	env, pinned []graph.ID
	used        []graph.ID
	count       int
	limit       int
}

// countMatches counts (up to limit) the matches of the encoded chains
// under reference semantics: in-scope variables are fixed, pinned
// variables must bind their pinned element, and relationships are unique
// within the clause. It is the ground truth for the uniqueness invariant
// the oracle depends on.
func (s *Synthesizer) countMatches(chains []*encChain, pins []pin, limit int) int {
	m := &s.match
	*m = matcher{
		g: s.g, nodes: s.nodeIDs, chains: chains, limit: limit,
		env: m.env[:0], pinned: m.pinned[:0], used: m.used[:0],
	}
	for _, cv := range s.cvars {
		id := noID
		if cv.inScope {
			id = cv.ref.id
		}
		m.env = append(m.env, id)
		m.pinned = append(m.pinned, noID)
	}
	for _, p := range pins {
		m.pinned[p.slot] = p.elem.id
	}
	m.matchChain(0)
	return m.count
}

// Each matcher method returns true to stop the search early.

func (m *matcher) matchChain(ci int) bool {
	if ci == len(m.chains) {
		m.count++
		return m.count >= m.limit
	}
	slot := m.chains[ci].nodeSlots[0]
	if id := m.env[slot]; id != noID {
		return m.matchNodeAt(ci, 0, id)
	}
	if id := m.pinned[slot]; id != noID {
		return m.matchNodeAt(ci, 0, id)
	}
	for _, id := range m.nodes {
		if m.matchNodeAt(ci, 0, id) {
			return true
		}
	}
	return false
}

func (m *matcher) matchNodeAt(ci, pos int, id graph.ID) bool {
	ec := m.chains[ci]
	if n := m.g.Node(id); n == nil || !hasLabels(n, ec.part.Nodes[pos].Labels) {
		return false
	}
	slot := ec.nodeSlots[pos]
	if want := m.pinned[slot]; want != noID && want != id {
		return false
	}
	if old := m.env[slot]; old != noID {
		if old != id {
			return false
		}
		return m.nodeBound(ci, pos)
	}
	m.env[slot] = id
	stop := m.nodeBound(ci, pos)
	m.env[slot] = noID
	return stop
}

// nodeBound continues the search once position pos of chain ci is bound.
func (m *matcher) nodeBound(ci, pos int) bool {
	if pos == len(m.chains[ci].nodeSlots)-1 {
		return m.matchChain(ci + 1)
	}
	return m.matchRel(ci, pos)
}

func (m *matcher) matchRel(ci, pos int) bool {
	ec := m.chains[ci]
	rp := ec.part.Rels[pos]
	from := m.env[ec.nodeSlots[pos]]
	g := m.g
	switch rp.Direction {
	case ast.DirRight:
		for _, rid := range g.Out(from) {
			if rel := g.Rel(rid); m.tryRel(ci, pos, rp, rid, rel, rel.End) {
				return true
			}
		}
	case ast.DirLeft:
		for _, rid := range g.In(from) {
			if rel := g.Rel(rid); m.tryRel(ci, pos, rp, rid, rel, rel.Start) {
				return true
			}
		}
	default:
		for _, rid := range g.Out(from) {
			if rel := g.Rel(rid); m.tryRel(ci, pos, rp, rid, rel, rel.End) {
				return true
			}
		}
		for _, rid := range g.In(from) {
			if rel := g.Rel(rid); rel.Start != rel.End {
				if m.tryRel(ci, pos, rp, rid, rel, rel.Start) {
					return true
				}
			}
		}
	}
	return false
}

func (m *matcher) tryRel(ci, pos int, rp *ast.RelPattern, rid graph.ID, rel *graph.Rel, far graph.ID) bool {
	if len(rp.Types) > 0 && !containsStr(rp.Types, rel.Type) {
		return false
	}
	slot := m.chains[ci].relSlots[pos]
	if bound := m.env[slot]; bound != noID {
		if bound != rid {
			return false
		}
		if want := m.pinned[slot]; want != noID && want != rid {
			return false
		}
		return m.matchNodeAt(ci, pos+1, far)
	}
	if contains(m.used, rid) {
		return false
	}
	if want := m.pinned[slot]; want != noID && want != rid {
		return false
	}
	m.used = append(m.used, rid)
	m.env[slot] = rid
	stop := m.matchNodeAt(ci, pos+1, far)
	m.env[slot] = noID
	m.used = m.used[:len(m.used)-1]
	return stop
}
