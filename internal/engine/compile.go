package engine

import (
	"errors"
	"math"
	"slices"
	"sync"

	"gqs/internal/cypher/ast"
	"gqs/internal/eval"
	"gqs/internal/functions"
)

// This file lowers a parsed query to the physical plan of plan.go. The
// lowering is conservative: any construct whose behaviour the compiled
// executor cannot reproduce byte-for-byte — writes, `*` projections, a
// misplaced RETURN, unknown procedures — leaves the query unplanned, and
// ExecutePrepared falls back to the tree-walking interpreter,
// which is trivially behaviour-identical (it IS the behaviour). The
// synthesized read-only corpus compiles in full; the fallback exists for
// hand-written queries and the write tests.
//
// Every prepared query is compiled exactly once and most are executed
// once per target, so compilation is on the per-query path. A plan's
// structures are carved from per-query slabs, one per kind, sized
// exactly by a pass over the AST (planSlab); everything that serves only
// the lowering itself — scopes, WHERE conjuncts and the positions of
// their variables, the expression compiler — lives in a builder reused
// from query to query. WHERE conjuncts are scheduled from the scope
// positions of the variables the expression compiler resolves, recorded
// once for both chain orientations.
var errUnsupportedPlan = errors.New("plan: unsupported construct")

// scope lists the variables in scope at a clause boundary, each name
// once. A scope is never modified after it is built: a stage derives its
// output scope into a fresh slice.
type scope []eval.Var

// index returns the position of name in the scope, or -1.
func (s scope) index(name string) int {
	for i := range s {
		if s[i].Named(name) {
			return i
		}
	}
	return -1
}

// builder is the scratch of lowering one query. Nothing a plan keeps
// points into it, so builders are pooled and reused from query to query.
type builder struct {
	cmp  eval.Compiler
	slab planSlab

	// vars backs the scopes the stages derive.
	vars []eval.Var
	// A MATCH clause's WHERE conjuncts; for each, the scope position of
	// its last-bound variable, and the end of its variables' positions
	// in refs.
	conj   []ast.Expr
	last   []int
	refEnd []int
	refs   []int
	// pos holds the scope position of each element variable of a MATCH
	// clause's patterns, in chain order (-1 for an anonymous one); rank
	// is the reversed chain's binding order of a part's variables.
	pos     []int
	rank    []int
	splices []eval.Splice
}

var builders = sync.Pool{New: func() any { return new(builder) }}

// scope returns an empty scope with room for n variables.
func (b *builder) scope(n int) scope {
	if cap(b.vars)-len(b.vars) < n {
		b.vars = make([]eval.Var, 0, max(2*cap(b.vars), n, 64))
	}
	l := len(b.vars)
	b.vars = b.vars[:l+n]
	return scope(b.vars[l : l : l+n])
}

// with returns s with name bound to slot, replacing any binding the name
// already has.
func (b *builder) with(s scope, name string, slot int) scope {
	out := append(b.scope(len(s)+1), s...)
	if i := out.index(name); i >= 0 {
		out[i].Slot = slot
		return out
	}
	return append(out, eval.Var{Name: name, Slot: slot})
}

func (b *builder) next() int {
	s := b.cmp.NextSlot
	b.cmp.NextSlot++
	return s
}

// compile lowers e with the variables of sc in scope.
func (b *builder) compile(sc scope, e ast.Expr) eval.Operand {
	b.cmp.Vars = sc
	return b.cmp.Compile(e)
}

// compilePred lowers the predicate e with the variables of sc in scope.
func (b *builder) compilePred(sc scope, e ast.Expr) eval.CompiledPred {
	b.cmp.Vars = sc
	return b.cmp.CompilePred(e)
}

// planSlab holds the plan structures of one query, each kind in one
// allocation, which the lowering carves up in order.
type planSlab struct {
	stages  []planStage
	matches []cMatch
	projs   []cProjection
	unwinds []cUnwind
	parts   []cPart
	nodes   []cNode
	rels    []cRel
	props   []cProp
	preds   []eval.CompiledPred
	ints    []int
	items   []cProjItem
	sorts   []cSort
}

// carve cuts the next n elements off a slab.
func carve[T any](s *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	out := (*s)[:n:n]
	*s = (*s)[n:]
	return out
}

// size allocates the slabs for q: exactly what lowering every part
// carves.
func (s *planSlab) size(q *ast.Query) {
	var n struct {
		stages, matches, projs, unwinds, parts, nodes, rels int
		props, conj, items, sorts                           int
	}
	projection := func(p *ast.Projection) {
		n.projs++
		n.items += len(p.Items)
		n.sorts += len(p.OrderBy)
	}
	for _, sq := range q.Parts {
		n.stages += len(sq.Clauses)
		for _, c := range sq.Clauses {
			switch c := c.(type) {
			case *ast.MatchClause:
				n.matches++
				n.parts += len(c.Patterns)
				n.conj += conjuncts(c.Where)
				for _, p := range c.Patterns {
					n.nodes += len(p.Nodes)
					n.rels += len(p.Rels)
					for _, np := range p.Nodes {
						if np.Props != nil {
							n.props += len(np.Props.Vals)
						}
					}
					for _, rp := range p.Rels {
						if rp.Props != nil {
							n.props += len(rp.Props.Vals)
						}
					}
				}
			case *ast.WithClause:
				projection(&c.Projection)
			case *ast.ReturnClause:
				projection(&c.Projection)
			case *ast.UnwindClause:
				n.unwinds++
			}
		}
	}
	*s = planSlab{
		stages:  make([]planStage, n.stages),
		matches: make([]cMatch, n.matches),
		projs:   make([]cProjection, n.projs),
		unwinds: make([]cUnwind, n.unwinds),
		parts:   make([]cPart, n.parts),
		nodes:   make([]cNode, n.nodes),
		rels:    make([]cRel, n.rels),
		props:   make([]cProp, n.props),
		// Each conjunct in clause order, then each in the list of the
		// one place the schedule runs it.
		preds: make([]eval.CompiledPred, 2*n.conj),
		ints:  make([]int, n.conj),
		items: make([]cProjItem, n.items),
		sorts: make([]cSort, n.sorts),
	}
}

// conjuncts counts the top-level AND operands of a WHERE predicate.
func conjuncts(e ast.Expr) int {
	if e == nil {
		return 0
	}
	if b, ok := e.(*ast.Binary); ok && b.Op == ast.OpAnd {
		return conjuncts(b.L) + conjuncts(b.R)
	}
	return 1
}

// compileQueryPlan lowers a query into qp, or leaves qp the zero plan
// when any part uses a construct the plan executor does not cover.
func compileQueryPlan(qp *queryPlan, q *ast.Query) {
	for _, part := range q.Parts {
		if !plannable(part) {
			return
		}
	}
	b := builders.Get().(*builder)
	defer b.release()
	b.slab.size(q)
	var parts []partPlan
	if len(q.Parts) <= len(qp.part1) {
		parts = qp.part1[:len(q.Parts)]
	} else {
		parts = make([]partPlan, len(q.Parts))
	}
	for i, part := range q.Parts {
		if err := b.part(&parts[i], part); err != nil {
			return
		}
	}
	qp.parts, qp.all = parts, q.All
}

// release resets the builder and returns it to the pool. It drops every
// reference into the plan and the query's AST (the synthesizer's nodes
// come from shared chunks, so one stale pointer would keep many queries'
// trees alive); the scopes keep only variable names.
func (b *builder) release() {
	b.slab = planSlab{}
	b.cmp.Reset()
	clear(b.conj[:cap(b.conj)])
	clear(b.splices[:cap(b.splices)])
	b.vars = b.vars[:0]
	builders.Put(b)
}

// plannable reports whether every clause of the part is of a kind the
// plan executor runs, with RETURN last. It turns a write query away
// before any of its stages compiles.
func plannable(sq *ast.SingleQuery) bool {
	for i, c := range sq.Clauses {
		switch c.(type) {
		case *ast.MatchClause, *ast.UnwindClause, *ast.WithClause, *ast.CallClause:
		case *ast.ReturnClause:
			if i != len(sq.Clauses)-1 {
				return false // interpreter raises the error
			}
		default:
			// Write clauses (and anything new) stay on the interpreter.
			return false
		}
	}
	return true
}

func (b *builder) part(pp *partPlan, sq *ast.SingleQuery) error {
	b.cmp.NextSlot = 0
	var sc scope
	pp.stages = carve(&b.slab.stages, len(sq.Clauses))
	for i, c := range sq.Clauses {
		last := i == len(sq.Clauses)-1
		var st planStage
		var err error
		switch c := c.(type) {
		case *ast.MatchClause:
			st, sc = b.matchStage(c, sc)
		case *ast.UnwindClause:
			st, sc = b.unwindStage(c, sc)
		case *ast.WithClause:
			st, sc, err = b.projectionStage(&c.Projection, c.Where, sc, true, false)
		case *ast.ReturnClause:
			st, _, err = b.projectionStage(&c.Projection, nil, sc, false, true)
		case *ast.CallClause:
			st, sc, err = b.callStage(c, sc, last)
		default:
			return errUnsupportedPlan // plannable admits no other clause
		}
		if err != nil {
			return err
		}
		pp.stages[i] = st
	}
	pp.width = b.cmp.NextSlot
	// Projections need the final width for their interpreter cold path
	// and the SKIP/LIMIT scratch frame; it is only known now.
	for _, st := range pp.stages {
		if p, ok := st.(*cProjection); ok {
			p.width = pp.width
		}
	}
	return nil
}

// --- MATCH ---------------------------------------------------------

// A MATCH clause's output scope is its input scope followed by the
// pattern variables it binds, in order of first occurrence. Each pattern
// part therefore binds a contiguous run of that scope, and a chain
// binds its part's run in order: at every point of the forward build,
// the variables bound so far are a prefix of the scope. Boundness is
// static — every row at a clause boundary carries the same variable set —
// so the schedule below, computed from scope positions alone, equals the
// interpreter's per-row readiness checks: a WHERE conjunct runs at the
// first point where the prefix covers the last of its variables.

// never is the last-variable position of a conjunct that names a
// variable the clause never binds: past every scope position.
const never = math.MaxInt32

func (b *builder) matchStage(c *ast.MatchClause, sc scope) (*cMatch, scope) {
	// The new variables take consecutive fresh slots: exactly the slots
	// OPTIONAL MATCH null-fills when nothing matched.
	n := len(sc)
	for _, p := range c.Patterns {
		n += len(p.Nodes) + len(p.Rels)
	}
	out := append(b.scope(n), sc...)
	st := &carve(&b.slab.matches, 1)[0]
	st.optional, st.optLo = c.Optional, b.cmp.NextSlot
	b.pos = b.pos[:0]
	for _, p := range c.Patterns {
		for ni, np := range p.Nodes {
			out = b.bindNew(out, np.Variable)
			if ni < len(p.Rels) {
				out = b.bindNew(out, p.Rels[ni].Variable)
			}
		}
	}
	pos := b.pos
	st.optHi = b.cmp.NextSlot

	// Conjunct predicates are compiled against the full post-clause
	// scope: a conjunct referencing a variable that never binds becomes a
	// closure raising the unknown-variable error when evaluated, exactly
	// as the interpreter's conservative final pass surfaces it. Compiling
	// a conjunct records the scope positions of its variables, from which
	// both chain orientations schedule it.
	b.conj, b.last, b.refs, b.refEnd = b.conj[:0], b.last[:0], b.refs[:0], b.refEnd[:0]
	if c.Where != nil {
		b.conj = splitWhereExprs(b.conj, c.Where)
	}
	st.preds = carve(&b.slab.preds, len(b.conj))
	sched := carve(&b.slab.preds, len(b.conj))[:0]
	st.revLast = carve(&b.slab.ints, len(b.conj))
	for i, cj := range b.conj {
		b.cmp.Refs = b.cmp.Refs[:0]
		st.preds[i] = b.compilePred(out, cj)
		last := -1
		for _, r := range b.cmp.Refs {
			if r < 0 {
				last = never
			} else {
				last = max(last, r)
			}
		}
		b.refs = append(b.refs, b.cmp.Refs...)
		b.refEnd = append(b.refEnd, len(b.refs))
		b.last = append(b.last, last)
		st.revLast[i] = last
	}
	st.entry = schedule(&sched, st.preds, b.last, -1, len(sc))
	st.final = schedule(&sched, st.preds, b.last, never, never+1)

	// Lower each pattern part in its forward orientation. The reverse —
	// used only when the executing store makes the last endpoint strictly
	// cheaper — is built on demand (cPart.reverse) from the forward chain.
	st.parts = carve(&b.slab.parts, len(c.Patterns))
	lo := len(sc) // out[:lo] is bound when a part starts
	for pi, p := range c.Patterns {
		cp := &st.parts[pi]
		cp.m, cp.lo, cp.slotLo = st, lo, st.optLo+lo-len(sc)
		hi, dependent := b.chain(&cp.fwd, p, out, lo, pos, st.preds, &sched)
		pos = pos[len(p.Nodes)+len(p.Rels):]
		if cp.reversible() {
			b.reverseLast(cp, st.revLast, hi)
			if dependent {
				cp.rprops = b.reverseProps(p, out, lo)
			}
		}
		lo = hi
	}
	return st, out
}

// schedule appends to sched, in conjunct order, the conjuncts whose
// last-variable position lies in [from, to), and returns them. sched
// has room for every conjunct of the clause, each scheduled once.
func schedule(sched *[]eval.CompiledPred, preds []eval.CompiledPred, last []int, from, to int) []eval.CompiledPred {
	start := len(*sched)
	for i, l := range last {
		if from <= l && l < to {
			*sched = append(*sched, preds[i])
		}
	}
	if len(*sched) == start {
		return nil
	}
	return (*sched)[start:len(*sched):len(*sched)]
}

// bindNew appends a binding on a fresh slot for a pattern variable that
// is not in scope yet, and records the variable's position.
func (b *builder) bindNew(out scope, name string) scope {
	i := -1
	if name != "" {
		if i = out.index(name); i < 0 {
			i, out = len(out), append(out, eval.Var{Name: name, Slot: b.next()})
		}
	}
	b.pos = append(b.pos, i)
	return out
}

// chain lowers pattern part p in its forward orientation, entered with
// out[:lo] bound, and returns the length of the prefix bound after it;
// out lists the part's own variables in p's order of first occurrence,
// and pos the position in out of each element's variable, in order.
// Inline property maps are compiled against the scope bound BEFORE their
// element (the interpreter checks properties before binding, so a self-
// or forward-reference is an unknown-variable error there too). Each
// conjunct whose last variable this part binds is attached to the
// element binding it, in conjunct order. chain also reports whether a
// property map names a variable of the part, or one not in scope yet:
// such maps must be compiled anew for the reversed chain.
func (b *builder) chain(ch *cChain, p *ast.PatternPart, out scope, lo int, pos []int, preds []eval.CompiledPred, sched *[]eval.CompiledPred) (int, bool) {
	k := lo // out[:k] is bound
	// bind marks the next element's variable bound and reports its slot
	// and whether it was bound already.
	bind := func() (slot int32, wasBound bool) {
		i := pos[0]
		pos = pos[1:]
		if i < 0 {
			return -1, false
		}
		if i < k {
			return int32(out[i].Slot), true
		}
		k++ // i == k: the next variable of the part, in order
		return int32(out[i].Slot), false
	}
	dependent := false
	props := func(m *ast.MapLit) cProps {
		b.cmp.Refs = b.cmp.Refs[:0]
		ps := b.props(out[:k], m, &b.slab.props)
		for _, r := range b.cmp.Refs {
			dependent = dependent || r < 0 || r >= lo
		}
		return ps
	}
	ch.nodes, ch.rels = carve(&b.slab.nodes, len(p.Nodes)), carve(&b.slab.rels, len(p.Rels))
	for i, np := range p.Nodes {
		cn := &ch.nodes[i]
		cn.labels = np.Labels
		cn.props = props(np.Props)
		from := k
		cn.slot, cn.bound = bind()
		cn.conj = schedule(sched, preds, b.last, from, k)
		if i < len(p.Rels) {
			rp := p.Rels[i]
			cr := &ch.rels[i]
			cr.types = rp.Types
			cr.dir = rp.Direction
			cr.props = props(rp.Props)
			from := k
			cr.slot, cr.bound = bind()
			cr.conj = schedule(sched, preds, b.last, from, k)
		}
	}
	return k, dependent
}

// props compiles an inline property map with the variables of sc in
// scope, into the next elements of slab.
func (b *builder) props(sc scope, m *ast.MapLit, slab *[]cProp) cProps {
	if m == nil {
		return nil
	}
	out := cProps(carve(slab, len(m.Vals)))
	for i, v := range m.Vals {
		out[i] = cProp{key: m.Keys[i], val: b.compile(sc, v)}
	}
	return out
}

// reverseLast sets, for each conjunct the part schedules, the scope
// position of its last variable in the reversed chain's binding order:
// the part's variables, positions [p.lo, hi), bind in the order of their
// first occurrence from the far end. A variable at position i holds
// slot p.slotLo+i-p.lo.
func (b *builder) reverseLast(p *cPart, revLast []int, hi int) {
	lo := p.lo
	b.rank = slices.Grow(b.rank[:0], hi-lo)[:hi-lo]
	for i := range b.rank {
		b.rank[i] = -1
	}
	r := 0
	see := func(slot int32) {
		if i := int(slot) - p.slotLo; slot >= 0 && i >= 0 && b.rank[i] < 0 {
			b.rank[i] = r
			r++
		}
	}
	ns, rs := p.fwd.nodes, p.fwd.rels
	for i := len(ns) - 1; i >= 0; i-- {
		see(ns[i].slot)
		if i > 0 {
			see(rs[i-1].slot)
		}
	}
	start := 0
	for i, l := range b.last {
		end := b.refEnd[i]
		if lo <= l && l < hi {
			rl := -1
			for _, pos := range b.refs[start:end] {
				if pos >= lo {
					pos = lo + b.rank[pos-lo]
				}
				rl = max(rl, pos)
			}
			revLast[i] = rl
		}
		start = end
	}
}

// reverseProps compiles the part's property maps for its reversed chain,
// each against the variables bound before its element in that order.
// They are indexed like the forward chain's elements, nodes first.
func (b *builder) reverseProps(p *ast.PatternPart, out scope, lo int) []cProps {
	rout := make(scope, lo, len(out))
	copy(rout, out[:lo])
	bind := func(name string) {
		if name == "" || rout.index(name) >= 0 {
			return
		}
		if i := out.index(name); i >= lo {
			rout = append(rout, out[i])
		}
	}
	compile := func(m *ast.MapLit) cProps {
		var slab []cProp
		if m != nil {
			slab = make([]cProp, len(m.Vals))
		}
		return b.props(rout, m, &slab)
	}
	ps := make([]cProps, len(p.Nodes)+len(p.Rels))
	for i := len(p.Nodes) - 1; i >= 0; i-- {
		ps[i] = compile(p.Nodes[i].Props)
		bind(p.Nodes[i].Variable)
		if i > 0 {
			rp := p.Rels[i-1]
			ps[len(p.Nodes)+i-1] = compile(rp.Props)
			bind(rp.Variable)
		}
	}
	return ps
}

// buildReverse lowers part p in reverse orientation from its forward
// chain: the elements mirrored, relationship directions flipped, and
// each variable's boundness and each conjunct's attachment recomputed
// for the reversed binding order (revLast). Labels, types, slots and —
// unless the part's maps name its own variables (rprops) — the compiled
// property maps are the forward chain's.
func (st *cMatch) buildReverse(p *cPart) *cChain {
	fwd := &p.fwd
	m := len(fwd.rels)
	rev := &cChain{nodes: make([]cNode, m+1), rels: make([]cRel, m)}
	n := 0
	for i := range fwd.nodes {
		n += len(fwd.nodes[i].conj)
	}
	for i := range fwd.rels {
		n += len(fwd.rels[i].conj)
	}
	var sched []eval.CompiledPred
	if n > 0 {
		sched = make([]eval.CompiledPred, 0, n)
	}
	k := p.lo // positions [0, k) are bound
	// bind reports whether the variable in slot is bound before its
	// element: it was bound before the part, or an earlier element of
	// the reversed chain (the first nodes and rels) binds it.
	bind := func(slot int32, nodes, rels int) bool {
		if slot < 0 {
			return false
		}
		if int(slot) < p.slotLo {
			return true
		}
		for _, x := range rev.nodes[:nodes] {
			if x.slot == slot {
				return true
			}
		}
		for _, x := range rev.rels[:rels] {
			if x.slot == slot {
				return true
			}
		}
		k++
		return false
	}
	for i := 0; i <= m; i++ {
		fn, rn := &fwd.nodes[m-i], &rev.nodes[i]
		rn.labels, rn.slot = fn.labels, fn.slot
		rn.props = p.props(m-i, fn.props)
		from := k
		rn.bound = bind(rn.slot, i, i)
		rn.conj = schedule(&sched, st.preds, st.revLast, from, k)
		if i < m {
			fr, rr := &fwd.rels[m-1-i], &rev.rels[i]
			rr.types, rr.slot, rr.dir = fr.types, fr.slot, flip(fr.dir)
			rr.props = p.props(m+1+m-1-i, fr.props)
			from := k
			rr.bound = bind(rr.slot, i+1, i)
			rr.conj = schedule(&sched, st.preds, st.revLast, from, k)
		}
	}
	return rev
}

// props returns the compiled property map of forward element i (nodes
// first) for the reversed chain.
func (p *cPart) props(i int, fwd cProps) cProps {
	if p.rprops != nil {
		return p.rprops[i]
	}
	return fwd
}

// flip reverses a relationship pattern's direction.
func flip(d ast.Direction) ast.Direction {
	switch d {
	case ast.DirLeft:
		return ast.DirRight
	case ast.DirRight:
		return ast.DirLeft
	}
	return d
}

// --- UNWIND --------------------------------------------------------

func (b *builder) unwindStage(c *ast.UnwindClause, sc scope) (*cUnwind, scope) {
	st := &carve(&b.slab.unwinds, 1)[0]
	st.list = b.compile(sc, c.Expr)
	st.slot = b.next()
	// The alias shadows any previous binding, as the row write did.
	return st, b.with(sc, c.Alias, st.slot)
}

// --- CALL ----------------------------------------------------------

func (b *builder) callStage(c *ast.CallClause, sc scope, last bool) (*cCall, scope, error) {
	var col string
	switch c.Procedure {
	case "db.labels":
		col = "label"
	case "db.relationshipTypes":
		col = "relationshipType"
	case "db.propertyKeys":
		col = "propertyKey"
	default:
		return nil, nil, errUnsupportedPlan // interpreter raises the error
	}
	if len(c.Yield) > 1 {
		return nil, nil, errUnsupportedPlan
	}
	if len(c.Yield) == 1 {
		col = c.Yield[0]
	}
	slot := b.next()
	return &cCall{proc: c.Procedure, col: col, slot: slot, last: last}, b.with(sc, col, slot), nil
}

// --- WITH / RETURN -------------------------------------------------

func (b *builder) projectionStage(p *ast.Projection, where ast.Expr, sc scope, requireAlias, isReturn bool) (*cProjection, scope, error) {
	if p.Star || len(p.Items) == 0 {
		// `*` depends on the runtime row contents; an empty projection is
		// an error — both stay on the interpreter.
		return nil, nil, errUnsupportedPlan
	}
	st := &carve(&b.slab.projs, 1)[0]
	st.distinct, st.isReturn = p.Distinct, isReturn
	st.proj, st.requireAlias = p, requireAlias
	st.items = carve(&b.slab.items, len(p.Items))
	// out is the projected scope: the next stage's after a WITH, and
	// part of ORDER BY's.
	out := b.scope(len(p.Items))
	for _, it := range p.Items {
		name := it.Alias
		if name == "" {
			if v, ok := it.Expr.(*ast.Variable); ok {
				name = v.Name
			} else if requireAlias {
				return nil, nil, errUnsupportedPlan // "must be aliased" error
			} else {
				name = ast.ExprString(it.Expr)
			}
		}
		if out.index(name) >= 0 {
			return nil, nil, errUnsupportedPlan // duplicate-column error
		}
		agg := eval.HasAggregate(it.Expr)
		st.hasAgg = st.hasAgg || agg
		slot := b.next()
		st.items[len(out)] = cProjItem{name: name, slot: int32(slot), agg: agg}
		out = append(out, eval.Var{Name: name, Slot: slot})
	}

	if st.hasAgg {
		b.aggregation(st, p, sc)
	} else {
		for i, it := range p.Items {
			st.items[i].fn = b.compile(sc, it.Expr)
		}
	}

	// ORDER BY scope mirrors project's orderEnv: projected columns only
	// after aggregation or DISTINCT, otherwise input merged with the
	// projected columns (which shadow on collision).
	if len(p.OrderBy) > 0 {
		sortScope := out
		if !st.hasAgg && !p.Distinct {
			sortScope = b.scope(len(sc) + len(out))
			for _, v := range sc {
				if out.index(v.Name) < 0 {
					sortScope = append(sortScope, v)
				}
			}
			sortScope = append(sortScope, out...)
		}
		st.sorts = carve(&b.slab.sorts, len(p.OrderBy))
		for i, s := range p.OrderBy {
			st.sorts[i] = cSort{key: b.compile(sortScope, s.Expr), desc: s.Desc}
		}
	}

	// SKIP/LIMIT evaluate in an empty environment (evalIn(row{}, x)).
	if p.Skip != nil {
		st.skip = b.compile(nil, p.Skip)
	}
	if p.Limit != nil {
		st.limit = b.compile(nil, p.Limit)
	}

	// A WITH's WHERE sees only the projected row.
	if where != nil {
		st.where = b.compilePred(out, where)
	}
	return st, out, nil
}

// aggregation collects the aggregate calls of every item in item order
// (as Engine.aggregate walks them), assigns each a result slot, and
// compiles the item expressions with those slots spliced in place of the
// calls.
func (b *builder) aggregation(st *cProjection, p *ast.Projection, sc scope) {
	for _, it := range p.Items {
		ast.WalkExprs(it.Expr, func(x ast.Expr) bool {
			f, ok := x.(*ast.FuncCall)
			if !ok {
				return true
			}
			if f.Star {
				st.calls = append(st.calls, cAggCall{
					call:     f,
					star:     true,
					distinct: f.Distinct,
					argCount: len(f.Args),
					slot:     b.next(),
				})
				return false
			}
			spec := functions.LookupAgg(f.Name)
			if spec == nil {
				return true
			}
			c := cAggCall{
				call:     f,
				spec:     spec,
				distinct: f.Distinct,
				argCount: len(f.Args),
				slot:     b.next(),
			}
			if len(f.Args) >= 1 {
				c.arg = b.compile(sc, f.Args[0])
			}
			if spec.HasParam && len(f.Args) == 2 {
				c.param = b.compile(sc, f.Args[1])
			}
			st.calls = append(st.calls, c)
			return false // aggregates do not nest
		})
	}
	// Item expressions: grouping items evaluate per input row; aggregated
	// items evaluate at finalization with each call reading its slot. An
	// item that is one aggregate call is just that read; any other is
	// compiled with every call spliced in (a call node that occurs twice
	// reads the slot of its last occurrence).
	defer func() { b.cmp.Splices = nil }()
	for i, it := range p.Items {
		if !st.items[i].agg {
			st.groupItems = append(st.groupItems, i)
		}
		if slot, ok := st.callSlot(it.Expr); ok {
			st.items[i].fn = eval.SlotOperand(slot)
			continue
		}
		if b.cmp.Splices == nil {
			b.splices = b.splices[:0]
			for _, c := range st.calls {
				b.splices = append(b.splices, eval.Splice{Expr: c.call, Slot: c.slot})
			}
			b.cmp.Splices = b.splices
		}
		st.items[i].fn = b.compile(sc, it.Expr)
	}
}

// callSlot returns the result slot of the aggregate call e, if e is one.
func (st *cProjection) callSlot(e ast.Expr) (int, bool) {
	for k := len(st.calls) - 1; k >= 0; k-- {
		if ast.Expr(st.calls[k].call) == e {
			return st.calls[k].slot, true
		}
	}
	return 0, false
}
