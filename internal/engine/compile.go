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
// once per target, so compilation is on the per-query path. The
// lowering carves a plan's structures as it goes from chunks, one per
// kind (planSlab), which never move: a Scratch's, rewound before each
// query, or the pooled builder's, which heap plans share; everything
// that serves only the lowering itself — scopes, WHERE conjuncts and the
// positions of their variables, the expression compiler — lives in a
// builder reused from query to query. WHERE conjuncts are scheduled from
// the scope positions of the variables the expression compiler resolves,
// recorded once for both chain orientations.
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

// builder is the scratch of lowering one query, pooled and reused from
// query to query. What it shares with plans is only heap, the chunks
// heap plans are carved from: it starts a fresh set every heapPlans
// plans, because plans that share a chunk keep each other alive.
type builder struct {
	cmp eval.Compiler
	// mem is the plan memory of the query being lowered, and grow the
	// growth of its chunks: a Scratch's, which double, or heap, whose
	// chunks grow to a bound.
	mem  *planSlab
	grow func(prev, n int) int
	heap planSlab
	// plans counts the heap plans carved from heap.
	plans int

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
	// aggs and zero collect a projection's aggregate calls and the
	// operands of its zero-row group.
	aggs []cAggCall
	zero []eval.Operand
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

// planSlab holds plan structures, each kind in one chunk, which the
// lowering carves windows from (ast.Window): its part plans (a UNION's),
// stages, clauses, pattern elements, predicates and projection parts,
// and the expression compiler's records and operand lists.
type planSlab struct {
	plans    []partPlan
	stages   []planStage
	matches  []cMatch
	projs    []cProjection
	unwinds  []cUnwind
	calls    []cCall
	parts    []cPart
	nodes    []cNode
	rels     []cRel
	props    []cProp
	preds    []eval.Operand // WHERE conjuncts and zero-row group operands
	sched    []*eval.Operand
	ints     []int
	items    []cProjItem
	aggs     []cAggCall
	sorts    []cSort
	records  []eval.Record
	operands []eval.Operand
}

// heapPlans is the most heap plans that share one set of chunks. A live
// plan keeps alive every plan it shares a chunk with, and through theirs
// any other, so the set bounds what one plan keeps; within it the plans
// stay packed, with one chunk's tail of waste per kind.
const heapPlans = 64

// rewind readies the chunks for the next query: it clears what the last
// one carved from them, so that nothing of it stays reachable and every
// window is zero, and starts them over.
func (m *planSlab) rewind() {
	ast.Rewind(&m.plans)
	ast.Rewind(&m.stages)
	ast.Rewind(&m.matches)
	ast.Rewind(&m.projs)
	ast.Rewind(&m.unwinds)
	ast.Rewind(&m.calls)
	ast.Rewind(&m.parts)
	ast.Rewind(&m.nodes)
	ast.Rewind(&m.rels)
	ast.Rewind(&m.props)
	ast.Rewind(&m.preds)
	ast.Rewind(&m.sched)
	ast.Rewind(&m.ints)
	ast.Rewind(&m.items)
	ast.Rewind(&m.aggs)
	ast.Rewind(&m.sorts)
	ast.Rewind(&m.records)
	ast.Rewind(&m.operands)
}

// aggregateCall reports whether e is an aggregate call: a star call,
// which both engines run as count(*), or a call of an aggregate function.
func aggregateCall(e ast.Expr) (*ast.FuncCall, bool) {
	f, ok := e.(*ast.FuncCall)
	return f, ok && (f.Star || functions.LookupAgg(f.Name) != nil)
}

// compileQueryPlan lowers a query into qp, or leaves qp the zero plan
// when any part uses a construct the plan executor does not cover. The
// plan is carved from the builder's heap chunks, or, with mem, from
// mem's, rewound first (see Scratch).
func compileQueryPlan(qp *queryPlan, q *ast.Query, mem *planSlab) {
	if mem != nil {
		mem.rewind()
	}
	for _, part := range q.Parts {
		if !plannable(part) {
			return
		}
	}
	b := builders.Get().(*builder)
	defer b.release()
	b.mem, b.grow = mem, ast.DoubleChunkCap
	if mem == nil {
		if b.plans == heapPlans {
			b.heap, b.plans = planSlab{}, 0
		}
		b.plans++
		b.mem, b.grow = &b.heap, ast.NextChunkCap
	}
	b.cmp.Records, b.cmp.Operands, b.cmp.Grow = &b.mem.records, &b.mem.operands, b.grow
	parts := qp.part1[:]
	if len(q.Parts) > len(parts) {
		parts = ast.Window(&b.mem.plans, len(q.Parts), b.grow)
	}
	parts = parts[:len(q.Parts)]
	for i, part := range q.Parts {
		if err := b.part(&parts[i], part); err != nil {
			return
		}
	}
	qp.parts, qp.all = parts, q.All
}

// release resets the builder and returns it to the pool. Apart from its
// heap chunks, it drops every reference into the plan and the query's
// AST (the synthesizer's nodes come from shared chunks, so one stale
// pointer would keep many queries' trees alive); the scopes keep only
// variable names.
func (b *builder) release() {
	b.mem, b.grow = nil, nil
	b.cmp.Reset()
	clear(b.conj[:cap(b.conj)])
	clear(b.splices[:cap(b.splices)])
	clear(b.aggs[:cap(b.aggs)])
	clear(b.zero[:cap(b.zero)])
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
	pp.stages = ast.Window(&b.mem.stages, len(sq.Clauses), b.grow)
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
	// Projections need the final width for the SKIP/LIMIT scratch frame
	// and the frame of the zero-row group; it is only known now.
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
	st := &ast.Window(&b.mem.matches, 1, b.grow)[0]
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
	// record raising the unknown-variable error when evaluated, exactly
	// as the interpreter's conservative final pass surfaces it. Compiling
	// a conjunct records the scope positions of its variables, from which
	// both chain orientations schedule it.
	b.conj, b.last, b.refs, b.refEnd = b.conj[:0], b.last[:0], b.refs[:0], b.refEnd[:0]
	if c.Where != nil {
		b.conj = splitWhereExprs(b.conj, c.Where)
	}
	st.preds = ast.Window(&b.mem.preds, len(b.conj), b.grow)
	sched := ast.Window(&b.mem.sched, len(b.conj), b.grow)[:0]
	st.revLast = ast.Window(&b.mem.ints, len(b.conj), b.grow)
	for i, cj := range b.conj {
		b.cmp.Refs = b.cmp.Refs[:0]
		st.preds[i] = b.compile(out, cj)
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
	// cheaper — is built on demand (cPart.reverse) from the forward chain,
	// in elements and schedule room reserved here.
	st.parts = ast.Window(&b.mem.parts, len(c.Patterns), b.grow)
	lo := len(sc) // out[:lo] is bound when a part starts
	for pi, p := range c.Patterns {
		cp := &st.parts[pi]
		cp.m, cp.lo, cp.slotLo = st, lo, st.optLo+lo-len(sc)
		// The scope positions of the part's first and last nodes, or -1.
		k := len(p.Nodes) + len(p.Rels)
		first, last := pos[0], pos[k-1]
		hi, dependent := b.chain(&cp.fwd, p, out, lo, pos, st.preds, &sched)
		pos = pos[k:]
		if mayReverse(p, first >= 0 && first < lo, last >= 0 && last < lo) {
			cp.rev.nodes, cp.rev.rels = ast.Window(&b.mem.nodes, len(p.Nodes), b.grow), ast.Window(&b.mem.rels, len(p.Rels), b.grow)
			cp.revConj = ast.Window(&b.mem.sched, cp.fwd.conjuncts(), b.grow)[:0]
			b.reverseLast(cp, st.revLast, hi)
			if dependent {
				cp.rprops = b.reverseProps(p, out, lo)
			}
		}
		lo = hi
	}
	return st, out
}

// mayReverse reports whether part p may run reversed, given whether its
// first and last nodes' variables are bound before the part. The
// executor reverses a part when its last node costs strictly less to
// start from than its first (cPart.cost): a bound node costs nothing,
// and an unbound node without labels costs every node, no less than
// any start. So the part needs two ends, a first node not bound, and a
// last node bound or labeled.
func mayReverse(p *ast.PatternPart, firstBound, lastBound bool) bool {
	return len(p.Nodes) >= 2 && !firstBound && (lastBound || len(p.Nodes[len(p.Nodes)-1].Labels) > 0)
}

// schedule appends to sched, in conjunct order, the conjuncts whose
// last-variable position lies in [from, to), and returns them. sched
// has room for every conjunct of the clause, each scheduled once.
func schedule(sched *[]*eval.Operand, preds []eval.Operand, last []int, from, to int) []*eval.Operand {
	start := len(*sched)
	for i, l := range last {
		if from <= l && l < to {
			*sched = append(*sched, &preds[i])
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
func (b *builder) chain(ch *cChain, p *ast.PatternPart, out scope, lo int, pos []int, preds []eval.Operand, sched *[]*eval.Operand) (int, bool) {
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
		ps := b.props(out[:k], m)
		for _, r := range b.cmp.Refs {
			dependent = dependent || r < 0 || r >= lo
		}
		return ps
	}
	ch.nodes, ch.rels = ast.Window(&b.mem.nodes, len(p.Nodes), b.grow), ast.Window(&b.mem.rels, len(p.Rels), b.grow)
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
// scope.
func (b *builder) props(sc scope, m *ast.MapLit) cProps {
	if m == nil {
		return nil
	}
	out := cProps(ast.Window(&b.mem.props, len(m.Vals), b.grow))
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
	ps := make([]cProps, len(p.Nodes)+len(p.Rels))
	for i := len(p.Nodes) - 1; i >= 0; i-- {
		ps[i] = b.props(rout, p.Nodes[i].Props)
		bind(p.Nodes[i].Variable)
		if i > 0 {
			rp := p.Rels[i-1]
			ps[len(p.Nodes)+i-1] = b.props(rout, rp.Props)
			bind(rp.Variable)
		}
	}
	return ps
}

// buildReverse lowers part p in reverse orientation from its forward
// chain, into the elements and schedule room reserved for it: the
// elements mirrored, relationship directions flipped, and each
// variable's boundness and each conjunct's attachment recomputed for the
// reversed binding order (revLast). Labels, types, slots and — unless
// the part's maps name its own variables (rprops) — the compiled
// property maps are the forward chain's.
func (st *cMatch) buildReverse(p *cPart) {
	fwd, rev := &p.fwd, &p.rev
	m := len(fwd.rels)
	sched := p.revConj
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
}

// conjuncts counts the conjuncts the chain schedules.
func (ch *cChain) conjuncts() int {
	n := 0
	for i := range ch.nodes {
		n += len(ch.nodes[i].conj)
	}
	for i := range ch.rels {
		n += len(ch.rels[i].conj)
	}
	return n
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
	st := &ast.Window(&b.mem.unwinds, 1, b.grow)[0]
	b.cmp.Vars = sc
	st.list = b.cmp.CompileTransient(c.Expr)
	st.slot = b.next()
	// The alias shadows any previous binding, as the row write did.
	return st, b.with(sc, c.Alias, st.slot)
}

// --- CALL ----------------------------------------------------------

// callColumn returns the column a CALL binds, or false for a procedure
// or a YIELD the plan executor does not run (the interpreter raises the
// error).
func callColumn(c *ast.CallClause) (string, bool) {
	var col string
	switch c.Procedure {
	case "db.labels":
		col = "label"
	case "db.relationshipTypes":
		col = "relationshipType"
	case "db.propertyKeys":
		col = "propertyKey"
	default:
		return "", false
	}
	switch len(c.Yield) {
	case 0:
		return col, true
	case 1:
		return c.Yield[0], true
	}
	return "", false
}

func (b *builder) callStage(c *ast.CallClause, sc scope, last bool) (*cCall, scope, error) {
	col, ok := callColumn(c)
	if !ok {
		return nil, nil, errUnsupportedPlan
	}
	slot := b.next()
	st := &ast.Window(&b.mem.calls, 1, b.grow)[0]
	*st = cCall{proc: c.Procedure, slot: slot, last: last}
	if last {
		st.cols = []string{col}
	}
	return st, b.with(sc, col, slot), nil
}

// --- WITH / RETURN -------------------------------------------------

func (b *builder) projectionStage(p *ast.Projection, where ast.Expr, sc scope, requireAlias, isReturn bool) (*cProjection, scope, error) {
	if p.Star || len(p.Items) == 0 {
		// `*` depends on the runtime row contents; an empty projection is
		// an error — both stay on the interpreter.
		return nil, nil, errUnsupportedPlan
	}
	st := &ast.Window(&b.mem.projs, 1, b.grow)[0]
	st.distinct, st.isReturn = p.Distinct, isReturn
	st.items = ast.Window(&b.mem.items, len(p.Items), b.grow)
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

	if isReturn {
		// The result's columns, on the heap: a Result outlives the plan
		// memory a Scratch reuses.
		st.cols = make([]string, len(st.items))
		for i := range st.items {
			st.cols[i] = st.items[i].name
		}
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
		st.sorts = ast.Window(&b.mem.sorts, len(p.OrderBy), b.grow)
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
		st.where = b.compile(out, where)
	}
	return st, out, nil
}

// aggregation collects the aggregate calls of every item in item order
// (as Engine.aggregate walks them), assigns each a result slot, and
// compiles the item expressions with those slots spliced in place of the
// calls. An item that is one call takes the call's result in its own
// slot and compiles nothing.
//
// Over no rows, an aggregation without grouping items yields one group
// whose parameters and items the interpreter evaluates in an empty
// scope. Such a projection compiles them once more, against no
// variables, into st.zero: each parameter in call order, then each item
// that is not one call in item order.
func (b *builder) aggregation(st *cProjection, p *ast.Projection, sc scope) {
	b.aggs = b.aggs[:0]
	groups := 0
	for i, it := range p.Items {
		if !st.items[i].agg {
			groups++
		}
		ast.WalkExprs(it.Expr, func(x ast.Expr) bool {
			f, ok := aggregateCall(x)
			if !ok {
				return true
			}
			c := cAggCall{call: f, star: f.Star, slot: int(st.items[i].slot)}
			if x != it.Expr {
				c.slot = b.next()
			}
			if !f.Star {
				c.spec = functions.LookupAgg(f.Name)
				if len(f.Args) >= 1 {
					c.arg = b.compile(sc, f.Args[0])
				}
				if c.spec.HasParam && len(f.Args) == 2 {
					c.param = b.compile(sc, f.Args[1])
				}
			}
			b.aggs = append(b.aggs, c)
			return false // aggregates do not nest
		})
	}
	st.calls = ast.Window(&b.mem.aggs, len(b.aggs), b.grow)
	copy(st.calls, b.aggs)
	st.groupItems = ast.Window(&b.mem.ints, groups, b.grow)[:0]
	b.zero = b.zero[:0]
	for i := range st.calls {
		if c := &st.calls[i]; groups == 0 && !c.param.IsZero() {
			b.zero = append(b.zero, b.compile(nil, c.call.Args[1]))
		}
	}
	// Item expressions: grouping items evaluate per input row; aggregated
	// items evaluate at finalization with each call reading its slot,
	// compiled with every call spliced in (a call node that occurs twice
	// reads the slot of its last occurrence).
	b.splices = b.splices[:0]
	for _, c := range st.calls {
		b.splices = append(b.splices, eval.Splice{Expr: c.call, Slot: c.slot})
	}
	b.cmp.Splices = b.splices
	for i, it := range p.Items {
		if !st.items[i].agg {
			st.groupItems = append(st.groupItems, i)
		}
		if _, one := aggregateCall(it.Expr); one {
			continue
		}
		st.items[i].fn = b.compile(sc, it.Expr)
		if groups == 0 {
			b.zero = append(b.zero, b.compile(nil, it.Expr))
		}
	}
	b.cmp.Splices = nil
	st.zero = ast.Window(&b.mem.preds, len(b.zero), b.grow)
	copy(st.zero, b.zero)
}
