package core

import (
	"math/rand"

	"gqs/internal/cypher/ast"
	"gqs/internal/graph"
)

// Path is a concrete walk through the generated graph: the skeleton of a
// search pattern (§3.4's "base pattern"). Steps[i] connects Nodes[i] to
// Nodes[i+1]; Forward records whether the relationship is traversed from
// its start to its end.
type Path struct {
	Nodes []graph.ID
	Steps []PathStep
}

// PathStep is one relationship traversal of a Path.
type PathStep struct {
	Rel     graph.ID
	Forward bool
}

// chainScratch is the working memory of chain collection and mutation.
// Paths come from an arena of Path structs whose Nodes and Steps arrays
// are reused: a query's paths are only referenced by that query's
// history and clauses, so reset recycles them all. When the arena is
// full it moves to a fresh, larger block and leaves the old one to the
// paths still pointing into it.
type chainScratch struct {
	paths []Path
	// used is the clause's set of traversed relationships, mused the
	// mutation's; both are small, so they are searched linearly.
	used, mused []graph.ID
	order       []elemRef
	base, mut   []*Path
	shared      []sharing
	// BFS state: mark[node] is 1 + the node's index in crumbs, 0 when
	// unvisited; every BFS clears the marks it set before returning.
	mark   []int32
	crumbs []crumb
	queue  []graph.ID
}

type crumb struct {
	node, prevNode graph.ID
	step           PathStep
}

// sharing is a node shared by the base chain and a previous pattern.
type sharing struct {
	node    graph.ID
	basePos int
	prevPos int
}

// reset recycles every path of the previous query.
func (cs *chainScratch) reset() { cs.paths = cs.paths[:0] }

// newPath returns an empty path from the arena.
func (cs *chainScratch) newPath() *Path {
	if len(cs.paths) == cap(cs.paths) {
		cs.paths = make([]Path, 0, max(2*cap(cs.paths), 16))
	}
	cs.paths = cs.paths[:len(cs.paths)+1]
	p := &cs.paths[len(cs.paths)-1]
	p.Nodes, p.Steps = p.Nodes[:0], p.Steps[:0]
	return p
}

// clone returns a deep copy.
func (cs *chainScratch) clone(p *Path) *Path {
	out := cs.newPath()
	out.Nodes = append(out.Nodes, p.Nodes...)
	out.Steps = append(out.Steps, p.Steps...)
	return out
}

// reverse returns the path walked end-to-start.
func (cs *chainScratch) reverse(p *Path) *Path {
	out := cs.newPath()
	for i := len(p.Nodes) - 1; i >= 0; i-- {
		out.Nodes = append(out.Nodes, p.Nodes[i])
	}
	for i := len(p.Steps) - 1; i >= 0; i-- {
		out.Steps = append(out.Steps, PathStep{Rel: p.Steps[i].Rel, Forward: !p.Steps[i].Forward})
	}
	return out
}

// indexOfNode returns the position of the node in the path, or -1.
func (p *Path) indexOfNode(id graph.ID) int {
	for i, n := range p.Nodes {
		if n == id {
			return i
		}
	}
	return -1
}

// hasRel reports whether the path traverses the relationship.
func (p *Path) hasRel(id graph.ID) bool {
	for _, s := range p.Steps {
		if s.Rel == id {
			return true
		}
	}
	return false
}

// appendStep extends the path by one traversal.
func (p *Path) appendStep(s PathStep, to graph.ID) {
	p.Steps = append(p.Steps, s)
	p.Nodes = append(p.Nodes, to)
}

// visit marks the node visited with its BFS crumb.
func (cs *chainScratch) visit(c crumb) {
	if int(c.node) >= len(cs.mark) {
		cs.mark = append(cs.mark, make([]int32, int(c.node)+1-len(cs.mark))...)
		cs.mark = cs.mark[:cap(cs.mark)]
	}
	cs.crumbs = append(cs.crumbs, c)
	cs.mark[c.node] = int32(len(cs.crumbs))
}

// visited returns the node's crumb, if the BFS reached it.
func (cs *chainScratch) visited(id graph.ID) (crumb, bool) {
	if int(id) < len(cs.mark) {
		if k := cs.mark[id]; k > 0 {
			return cs.crumbs[k-1], true
		}
	}
	return crumb{}, false
}

// bfsPath finds a shortest undirected walk from start to the target
// node, avoiding the given relationships. It returns nil when the target
// is unreachable.
func (cs *chainScratch) bfsPath(g *graph.Graph, start, target graph.ID, avoid []graph.ID) *Path {
	cs.crumbs, cs.queue = cs.crumbs[:0], append(cs.queue[:0], start)
	cs.visit(crumb{node: start, prevNode: -1})
	defer func() {
		for _, c := range cs.crumbs {
			cs.mark[c.node] = 0
		}
	}()
	found := start == target
	for head := 0; head < len(cs.queue) && !found; head++ {
		cur := cs.queue[head]
		for _, rids := range [2][]graph.ID{g.Out(cur), g.In(cur)} {
			for _, rid := range rids {
				if contains(avoid, rid) {
					continue
				}
				r := g.Rel(rid)
				next := r.End
				fwd := true
				if next == cur && r.Start != r.End {
					next = r.Start
					fwd = false
				} else if r.Start != cur {
					next = r.Start
					fwd = false
				}
				if _, seen := cs.visited(next); seen {
					continue
				}
				cs.visit(crumb{node: next, prevNode: cur, step: PathStep{Rel: rid, Forward: fwd}})
				if next == target {
					found = true
					break
				}
				cs.queue = append(cs.queue, next)
			}
			if found {
				break
			}
		}
	}
	if !found {
		return nil
	}
	// Rebuild the walk back from the target.
	n := 1
	for c, _ := cs.visited(target); c.prevNode != -1; c, _ = cs.visited(c.prevNode) {
		n++
	}
	out := cs.newPath()
	out.Nodes = append(out.Nodes, make([]graph.ID, n)...)
	out.Steps = append(out.Steps, make([]PathStep, n-1)...)
	c, _ := cs.visited(target)
	for i := n - 1; ; i-- {
		out.Nodes[i] = c.node
		if c.prevNode == -1 {
			break
		}
		out.Steps[i-1] = c.step
		c, _ = cs.visited(c.prevNode)
	}
	return out
}

func contains(ids []graph.ID, id graph.ID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// removeAll deletes every occurrence of id from the set.
func removeAll(ids []graph.ID, id graph.ID) []graph.ID {
	out := ids[:0]
	for _, x := range ids {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}

// collectChains builds base patterns: one or more concrete paths that
// together contain every required element (§3.4, "GQS begins by
// collecting paths through the graph that contain the elements to be
// introduced"). Relationships are not repeated within the clause.
func (cs *chainScratch) collectChains(r *rand.Rand, g *graph.Graph, required []elemRef) []*Path {
	cs.used = cs.used[:0]
	chains := cs.base[:0]

	// Deterministic element order (element IDs are unique), then
	// shuffled.
	order := append(cs.order[:0], required...)
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && order[j].id < order[j-1].id; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	cs.order = order
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	for _, e := range order {
		if covered(chains, e) {
			continue
		}
		if len(chains) > 0 && r.Intn(3) == 0 {
			// Occasionally extend the most recent chain toward the
			// element; separate chains otherwise, which yields the
			// multi-pattern MATCH clauses of Figure 1.
			if cs.extendTo(g, chains[len(chains)-1], e) {
				continue
			}
		}
		chains = append(chains, cs.startChain(r, g, e))
	}
	if len(chains) == 0 {
		// A MATCH step with no required elements still needs a pattern;
		// anchor on a random node.
		ids := g.NodeIDs()
		if len(ids) == 0 {
			return nil
		}
		p := cs.newPath()
		p.Nodes = append(p.Nodes, ids[r.Intn(len(ids))])
		chains = append(chains, p)
	}
	// Random extension of chain ends keeps patterns from degenerating to
	// single nodes.
	for _, c := range chains {
		for len(c.Steps) < 1+r.Intn(4) {
			if !cs.extendRandom(r, g, c) {
				break
			}
		}
	}
	cs.base = chains
	return chains
}

// covered reports whether a chain contains the element.
func covered(chains []*Path, e elemRef) bool {
	for _, c := range chains {
		if e.isRel && c.hasRel(e.id) {
			return true
		}
		if !e.isRel && c.indexOfNode(e.id) >= 0 {
			return true
		}
	}
	return false
}

// startChain begins a chain at the element: a lone node, or a
// relationship traversed in a random direction.
func (cs *chainScratch) startChain(r *rand.Rand, g *graph.Graph, e elemRef) *Path {
	p := cs.newPath()
	if !e.isRel {
		p.Nodes = append(p.Nodes, e.id)
		return p
	}
	rel := g.Rel(e.id)
	cs.used = append(cs.used, e.id)
	p.Nodes = append(p.Nodes, rel.Start)
	p.appendStep(PathStep{Rel: e.id, Forward: true}, rel.End)
	if r.Intn(2) == 0 {
		return cs.reverse(p)
	}
	return p
}

// extendTo extends the chain from its tail to the element along a
// shortest walk over unused relationships.
func (cs *chainScratch) extendTo(g *graph.Graph, c *Path, e elemRef) bool {
	target := e.id
	via := graph.ID(-1)
	if e.isRel {
		// Reach either endpoint, then traverse the relationship.
		rel := g.Rel(e.id)
		target, via = rel.Start, rel.End
	}
	end := c.Nodes[len(c.Nodes)-1]
	sub := cs.bfsPath(g, end, target, cs.used)
	if sub == nil && e.isRel {
		target, via = via, target
		sub = cs.bfsPath(g, end, target, cs.used)
	}
	if sub == nil || len(sub.Nodes)+len(c.Nodes) > 8 {
		return false
	}
	for _, s := range sub.Steps {
		cs.used = append(cs.used, s.Rel)
	}
	for i, s := range sub.Steps {
		c.appendStep(s, sub.Nodes[i+1])
	}
	if e.isRel {
		if contains(cs.used, e.id) {
			// The BFS walk itself traversed the required relationship
			// on the way to its endpoint; the chain already covers it.
			return c.hasRel(e.id)
		}
		rel := g.Rel(e.id)
		cs.used = append(cs.used, e.id)
		if rel.Start == target {
			c.appendStep(PathStep{Rel: e.id, Forward: true}, rel.End)
		} else {
			c.appendStep(PathStep{Rel: e.id, Forward: false}, rel.Start)
		}
	}
	return true
}

// extendRandom grows the chain by one unused relationship from its tail,
// drawn from the tail's incident relationships (outgoing, then
// incoming).
func (cs *chainScratch) extendRandom(r *rand.Rand, g *graph.Graph, c *Path) bool {
	tail := c.Nodes[len(c.Nodes)-1]
	out, in := g.Out(tail), g.In(tail)
	n := len(out) + len(in)
	if n == 0 {
		return false
	}
	for try := 0; try < 4; try++ {
		var rid graph.ID
		if k := r.Intn(n); k < len(out) {
			rid = out[k]
		} else {
			rid = in[k-len(out)]
		}
		if contains(cs.used, rid) {
			continue
		}
		rel := g.Rel(rid)
		cs.used = append(cs.used, rid)
		if rel.Start == tail {
			c.appendStep(PathStep{Rel: rid, Forward: true}, rel.End)
		} else {
			c.appendStep(PathStep{Rel: rid, Forward: false}, rel.Start)
		}
		return true
	}
	return false
}

// clonePaths deep-copies a chain set.
func (cs *chainScratch) clonePaths(ps []*Path) []*Path {
	out := cs.mut[:0]
	for _, p := range ps {
		out = append(out, cs.clone(p))
	}
	cs.mut = out
	return out
}

// coversAll reports whether the chains contain every required element.
func coversAll(chains []*Path, required []elemRef) bool {
	for _, e := range required {
		if !covered(chains, e) {
			return false
		}
	}
	return true
}

// mutateChains applies the three pattern-mutation strategies of §3.4
// (concatenation, branching, cross) by combining base chains with the
// patterns used in previous clauses, then returns the mutated chain set.
// Mutations that would repeat a relationship within the clause are
// skipped, preserving well-formedness. chains is modified in place.
func (cs *chainScratch) mutateChains(r *rand.Rand, chains []*Path, history []*Path) []*Path {
	if len(history) == 0 || len(chains) == 0 {
		return chains
	}
	used := cs.mused[:0]
	for _, c := range chains {
		for _, st := range c.Steps {
			used = append(used, st.Rel)
		}
	}
	defer func() { cs.mused = used }()
	prev := history[r.Intn(len(history))]
	base := chains[r.Intn(len(chains))]
	// Find a node shared between the base chain and the previous pattern.
	shared := cs.shared[:0]
	for i, n := range base.Nodes {
		if j := prev.indexOfNode(n); j >= 0 {
			shared = append(shared, sharing{node: n, basePos: i, prevPos: j})
		}
	}
	cs.shared = shared
	if len(shared) == 0 {
		return chains
	}
	s := shared[r.Intn(len(shared))]
	baseEnd := s.basePos == 0 || s.basePos == len(base.Nodes)-1
	prevEnd := s.prevPos == 0 || s.prevPos == len(prev.Nodes)-1
	addIfFresh := func(p *Path) bool {
		if p == nil || len(p.Steps) == 0 {
			return false
		}
		// Check step by step: a recombined walk may repeat a
		// relationship internally (base and previous pattern can share
		// relationships).
		for k, st := range p.Steps {
			if contains(used, st.Rel) || p.hasRelBefore(k, st.Rel) {
				return false
			}
		}
		for _, st := range p.Steps {
			used = append(used, st.Rel)
		}
		chains = append(chains, p)
		return true
	}
	switch {
	case baseEnd && prevEnd:
		// ① Concatenation: extend the base chain with the previous
		// pattern's walk, joined at the shared node.
		seg := cs.clone(prev)
		if s.prevPos != 0 {
			seg = cs.reverse(seg)
		}
		fresh := true
		for _, st := range seg.Steps {
			if contains(used, st.Rel) {
				fresh = false
			}
		}
		if fresh {
			oriented := base
			if s.basePos == 0 {
				oriented = cs.reverse(base)
			}
			for i, st := range seg.Steps {
				oriented.appendStep(st, seg.Nodes[i+1])
				used = append(used, st.Rel)
			}
			chains[indexOfPath(chains, base)] = oriented
		}
	case prevEnd != baseEnd:
		// ② Branching: a sub-walk of the previous pattern starting at
		// the shared node becomes a second chain, sharing the node's
		// variable and so forming a branch.
		addIfFresh(cs.subWalkFrom(prev, s.prevPos, 2))
	default:
		// ③ Cross: split both walks at the shared node and recombine the
		// halves into new chains.
		b1, b2 := cs.splitAt(base, s.basePos)
		p1, p2 := cs.splitAt(prev, s.prevPos)
		chains = removePath(chains, base)
		for _, st := range base.Steps {
			used = removeAll(used, st.Rel)
		}
		// Recombine: base-left + prev-right, prev-left + base-right.
		c1 := cs.joinAt(b1, p2)
		c2 := cs.joinAt(p1, b2)
		if !addIfFresh(c1) {
			addIfFresh(b1)
			addIfFresh(p2)
		}
		if !addIfFresh(c2) {
			addIfFresh(b2)
		}
	}
	return chains
}

// hasRelBefore reports whether one of the path's first k steps traverses
// the relationship.
func (p *Path) hasRelBefore(k int, id graph.ID) bool {
	for _, s := range p.Steps[:k] {
		if s.Rel == id {
			return true
		}
	}
	return false
}

func indexOfPath(ps []*Path, p *Path) int {
	for i, x := range ps {
		if x == p {
			return i
		}
	}
	return 0
}

// removePath deletes p from ps in place, keeping the order.
func removePath(ps []*Path, p *Path) []*Path {
	for i, x := range ps {
		if x == p {
			copy(ps[i:], ps[i+1:])
			ps[len(ps)-1] = nil
			return ps[:len(ps)-1]
		}
	}
	return ps
}

// subWalkFrom extracts up to maxSteps traversals starting at position pos,
// walking toward the nearer end.
func (cs *chainScratch) subWalkFrom(p *Path, pos, maxSteps int) *Path {
	out := cs.newPath()
	out.Nodes = append(out.Nodes, p.Nodes[pos])
	roomLeft, roomRight := pos, len(p.Steps)-pos
	if roomRight >= roomLeft {
		for i := pos; i < len(p.Steps) && len(out.Steps) < maxSteps; i++ {
			out.appendStep(p.Steps[i], p.Nodes[i+1])
		}
	} else {
		// Walk left, reversing each traversal.
		for i := pos - 1; i >= 0 && len(out.Steps) < maxSteps; i-- {
			st := p.Steps[i]
			out.appendStep(PathStep{Rel: st.Rel, Forward: !st.Forward}, p.Nodes[i])
		}
	}
	return out
}

// splitAt cuts the path at node position pos, returning the left part
// (ending at the node) and the right part (starting at the node).
func (cs *chainScratch) splitAt(p *Path, pos int) (*Path, *Path) {
	left := cs.newPath()
	left.Nodes = append(left.Nodes, p.Nodes[:pos+1]...)
	left.Steps = append(left.Steps, p.Steps[:pos]...)
	right := cs.newPath()
	right.Nodes = append(right.Nodes, p.Nodes[pos:]...)
	right.Steps = append(right.Steps, p.Steps[pos:]...)
	return left, right
}

// joinAt concatenates a (ending at node X) with b (starting at X).
func (cs *chainScratch) joinAt(a, b *Path) *Path {
	if len(a.Nodes) == 0 || len(b.Nodes) == 0 {
		return nil
	}
	if a.Nodes[len(a.Nodes)-1] != b.Nodes[0] {
		return nil
	}
	out := cs.clone(a)
	for i, st := range b.Steps {
		out.appendStep(st, b.Nodes[i+1])
	}
	if len(out.Steps) == 0 {
		return nil
	}
	return out
}

// encChain is a chain encoded as an AST pattern together with its
// intended concrete binding: the graph element at each position and the
// clause variable slot (an index into Synthesizer.cvars) naming it.
type encChain struct {
	part      *ast.PatternPart
	nodeIDs   []graph.ID
	relIDs    []graph.ID
	nodeSlots []int32
	relSlots  []int32
}

// clauseVar is one variable slot of the clause being encoded: an element
// variable in scope before the clause, or one the clause's patterns
// introduce. used marks the slots the patterns reference, which the
// clause binds.
type clauseVar struct {
	name    string
	ref     elemRef
	inScope bool
	used    bool
}

// slotOf returns the clause slot naming the element, creating it — with
// the plan's variable for the element, or a fresh one — when the element
// has none yet. Reusing in-scope variables for already-bound elements
// creates the cross-clause references of §3.3.
func (s *Synthesizer) slotOf(ref elemRef) int32 {
	for i := range s.cvars {
		if s.cvars[i].ref == ref {
			s.cvars[i].used = true
			return int32(i)
		}
	}
	v, ok := s.plan.elemVar(ref)
	if !ok {
		if ref.isRel {
			v = s.freshVar("r")
		} else {
			v = s.freshVar("n")
		}
	}
	s.cvars = append(s.cvars, clauseVar{name: v, ref: ref, used: true})
	return int32(len(s.cvars) - 1)
}

// encodeChains renders concrete paths as AST search patterns, assigning
// each position a clause variable slot (see slotOf), optionally
// attaching labels and types, and randomly erasing relationship
// directions (§3.4's additional mutations). The slots are left in
// s.cvars.
func (s *Synthesizer) encodeChains(chains []*Path) []*encChain {
	s.cvars = s.cvars[:0]
	for _, sv := range s.scope {
		s.cvars = append(s.cvars, clauseVar{name: sv.name, ref: sv.ref, inScope: true})
	}
	a := &s.nodes
	s.nodeSlotBuf, s.relSlotBuf, s.relIDBuf = s.nodeSlotBuf[:0], s.relSlotBuf[:0], s.relIDBuf[:0]
	if cap(s.encBuf) < len(chains) {
		s.encBuf = make([]encChain, len(chains))
	}
	s.encBuf = s.encBuf[:len(chains)]
	s.enc = s.enc[:0]
	for ci, c := range chains {
		part := take(a, &a.parts)
		part.Nodes = ast.Window(&a.nodePtrs, len(c.Nodes), a.grow)
		part.Rels = ast.Window(&a.relPtrs, len(c.Steps), a.grow)
		ns, rs := len(s.nodeSlotBuf), len(s.relSlotBuf)
		for i, nid := range c.Nodes {
			slot := s.slotOf(elemRef{id: nid})
			s.nodeSlotBuf = append(s.nodeSlotBuf, slot)
			np := take(a, &a.nodePats)
			np.Variable = s.cvars[slot].name
			n := s.g.Node(nid)
			if len(n.Labels) > 0 && s.r.Intn(2) == 0 {
				// Attach a random non-empty subset of the labels: the
				// first k of a permutation.
				k := 1 + s.r.Intn(len(n.Labels))
				np.Labels = ast.Window(&a.strs, k, a.grow)
				var pb [8]int
				perm := pb[:0]
				if k > len(pb) {
					perm = make([]int, 0, k)
				}
				for j, l := range permPrefix(s.r, len(n.Labels), perm[:k]) {
					np.Labels[j] = n.Labels[l]
				}
			}
			part.Nodes[i] = np
			if i < len(c.Steps) {
				st := c.Steps[i]
				rel := s.g.Rel(st.Rel)
				slot := s.slotOf(elemRef{id: st.Rel, isRel: true})
				s.relSlotBuf = append(s.relSlotBuf, slot)
				s.relIDBuf = append(s.relIDBuf, st.Rel)
				rp := take(a, &a.relPats)
				rp.Variable = s.cvars[slot].name
				if s.r.Intn(2) == 0 {
					rp.Types = ast.Window(&a.strs, 1, a.grow)
					rp.Types[0] = rel.Type
				}
				switch {
				case s.r.Intn(4) == 0:
					rp.Direction = ast.DirBoth // erase the direction
				case st.Forward:
					rp.Direction = ast.DirRight
				default:
					rp.Direction = ast.DirLeft
				}
				part.Rels[i] = rp
			}
		}
		ec := &s.encBuf[ci]
		*ec = encChain{
			part:      part,
			nodeIDs:   c.Nodes,
			relIDs:    s.relIDBuf[rs:len(s.relIDBuf):len(s.relIDBuf)],
			nodeSlots: s.nodeSlotBuf[ns:len(s.nodeSlotBuf):len(s.nodeSlotBuf)],
			relSlots:  s.relSlotBuf[rs:len(s.relSlotBuf):len(s.relSlotBuf)],
		}
		s.enc = append(s.enc, ec)
	}
	return s.enc
}
