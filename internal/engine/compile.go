package engine

import (
	"errors"
	"math"
	"slices"

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
// once per target, so compilation is on the per-query path: it works on
// small slices with linear scans instead of maps, and schedules each
// WHERE conjunct from the position of its last-bound variable, found
// once.
var errUnsupportedPlan = errors.New("plan: unsupported construct")

// scope lists the variables in scope at a clause boundary, each name
// once. A scope is never modified after it is built: a stage derives its
// output scope into a fresh slice, so the plan may keep referring to it.
type scope []eval.Var

// index returns the position of name in the scope, or -1.
func (s scope) index(name string) int {
	for i := range s {
		if s[i].Name == name {
			return i
		}
	}
	return -1
}

// with returns s with name bound to slot, replacing any binding the name
// already has.
func (s scope) with(name string, slot int) scope {
	out := make(scope, len(s), len(s)+1)
	copy(out, s)
	if i := out.index(name); i >= 0 {
		out[i].Slot = slot
		return out
	}
	return append(out, eval.Var{Name: name, Slot: slot})
}

// partCompiler lowers one query part. It owns the one expression
// compiler every stage reuses, whose NextSlot counts the part's frame
// slots.
type partCompiler struct {
	cmp eval.Compiler

	// Scratch reused by every stage of the part: a MATCH clause's WHERE
	// conjuncts and the scope position of each one's last variable.
	conj []ast.Expr
	last []int
}

func newPartCompiler(firstSlot int) *partCompiler {
	pc := &partCompiler{}
	pc.cmp.NextSlot = firstSlot
	return pc
}

func (pc *partCompiler) next() int {
	s := pc.cmp.NextSlot
	pc.cmp.NextSlot++
	return s
}

// compile lowers e with the variables of sc in scope.
func (pc *partCompiler) compile(sc scope, e ast.Expr) eval.Compiled {
	pc.cmp.Vars = sc
	return pc.cmp.Compile(e)
}

// compilePred lowers the predicate e with the variables of sc in scope.
func (pc *partCompiler) compilePred(sc scope, e ast.Expr) eval.CompiledPred {
	pc.cmp.Vars = sc
	return pc.cmp.CompilePred(e)
}

// compileQueryPlan lowers a query into qp, or leaves qp the zero plan
// when any part uses a construct the plan executor does not cover.
func compileQueryPlan(qp *queryPlan, q *ast.Query) {
	for _, part := range q.Parts {
		if !plannable(part) {
			return
		}
	}
	var parts []partPlan
	if len(q.Parts) <= len(qp.part1) {
		parts = qp.part1[:len(q.Parts)]
	} else {
		parts = make([]partPlan, len(q.Parts))
	}
	for i, part := range q.Parts {
		if err := compileSinglePlan(&parts[i], part); err != nil {
			return
		}
	}
	qp.parts, qp.all = parts, q.All
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

func compileSinglePlan(pp *partPlan, sq *ast.SingleQuery) error {
	pc := newPartCompiler(0)
	var sc scope
	pp.stages = make([]planStage, len(sq.Clauses))
	for i, c := range sq.Clauses {
		last := i == len(sq.Clauses)-1
		var st planStage
		var err error
		switch c := c.(type) {
		case *ast.MatchClause:
			st, sc = pc.matchStage(c, sc)
		case *ast.UnwindClause:
			st, sc = pc.unwindStage(c, sc)
		case *ast.WithClause:
			st, sc, err = pc.projectionStage(&c.Projection, c.Where, sc, true, false)
		case *ast.ReturnClause:
			st, _, err = pc.projectionStage(&c.Projection, nil, sc, false, true)
		case *ast.CallClause:
			st, sc, err = pc.callStage(c, sc, last)
		default:
			return errUnsupportedPlan // plannable admits no other clause
		}
		if err != nil {
			return err
		}
		pp.stages[i] = st
	}
	pp.width = pc.cmp.NextSlot
	// Projections need the final width for their interpreter cold path
	// and the SKIP/LIMIT scratch frame; it is only known now.
	for _, st := range pp.stages {
		if p, ok := st.(*cProjection); ok {
			p.width = pc.cmp.NextSlot
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
// variable the clause never binds.
const never = math.MaxInt

// lastVar returns the scope position of the last-bound free variable
// of e: -1 if it has none, never if one is not in scope.
func lastVar(e ast.Expr, sc scope) int {
	last := -1
	ast.EachFreeVar(e, func(name string) {
		if i := sc.index(name); i < 0 {
			last = never
		} else {
			last = max(last, i)
		}
	})
	return last
}

func (pc *partCompiler) matchStage(c *ast.MatchClause, sc scope) (*cMatch, scope) {
	// The new variables take consecutive fresh slots: exactly the slots
	// OPTIONAL MATCH null-fills when nothing matched.
	n := len(sc)
	for _, p := range c.Patterns {
		n += len(p.Nodes) + len(p.Rels)
	}
	out := make(scope, len(sc), n)
	copy(out, sc)
	st := &cMatch{optional: c.Optional, clause: c, nsc: len(sc), optLo: pc.cmp.NextSlot}
	for _, p := range c.Patterns {
		for ni, np := range p.Nodes {
			out = pc.bindNew(out, np.Variable)
			if ni < len(p.Rels) {
				out = pc.bindNew(out, p.Rels[ni].Variable)
			}
		}
	}
	st.out, st.optHi = out, pc.cmp.NextSlot

	// Conjunct predicates are compiled against the full post-clause
	// scope: a conjunct referencing a variable that never binds becomes a
	// closure raising the unknown-variable error when evaluated, exactly
	// as the interpreter's conservative final pass surfaces it.
	pc.conj = pc.conj[:0]
	if c.Where != nil {
		pc.conj = splitWhereExprs(pc.conj, c.Where)
		st.preds = make([]eval.CompiledPred, len(pc.conj))
	}
	pc.last = pc.last[:0]
	for i, cj := range pc.conj {
		p := pc.compilePred(out, cj)
		st.preds[i] = p
		pc.last = append(pc.last, lastVar(cj, out))
		switch {
		case pc.last[i] < len(sc):
			st.entry = append(st.entry, p)
		case pc.last[i] == never:
			st.final = append(st.final, p)
		}
	}

	// Lower each pattern part in its forward orientation. The reverse —
	// used only when the executing store makes the last endpoint strictly
	// cheaper — is built on demand (cPart.reverse), reusing the temp
	// slots the forward build allocates here.
	if len(c.Patterns) <= len(st.part1) {
		st.parts = st.part1[:len(c.Patterns)]
	} else {
		st.parts = make([]cPart, len(c.Patterns))
	}
	lo := len(sc) // out[:lo] is bound when a part starts
	for pi, p := range c.Patterns {
		cp := &st.parts[pi]
		cp.m, cp.index = st, pi
		cp.costFirst = costSpec(p.Nodes[0], out, lo)
		cp.costLast = costSpec(p.Nodes[len(p.Nodes)-1], out, lo)
		cp.tempLo = pc.cmp.NextSlot
		lo = pc.chain(&cp.fwd, p, out, lo, pc.last, st.preds)
	}
	return st, out
}

// bindNew appends a binding on a fresh slot for a pattern variable that
// is not in scope yet.
func (pc *partCompiler) bindNew(out scope, name string) scope {
	if name == "" || out.index(name) >= 0 {
		return out
	}
	return append(out, eval.Var{Name: name, Slot: pc.next()})
}

// costSpec captures matcher.nodeCost's inputs for one chain endpoint of
// a part entered with out[:lo] bound: entry boundness (static) and the
// candidate labels. The cardinalities themselves are read from the
// executing store (cCost.eval).
func costSpec(n *ast.NodePattern, out scope, lo int) cCost {
	if n.Variable != "" && out.index(n.Variable) < lo {
		return cCost{bound: true}
	}
	return cCost{labels: n.Labels}
}

// chain lowers one pattern part, oriented as p, entered with out[:lo]
// bound, and returns the length of the prefix bound after it; out lists
// the part's own variables in p's order of first occurrence. Inline
// property maps are compiled against the scope bound BEFORE their
// element (the interpreter checks properties before binding, so a self-
// or forward-reference is an unknown-variable error there too). Each
// conjunct whose last variable (last[i]) this part binds is attached to
// the element binding it, in conjunct order.
func (pc *partCompiler) chain(ch *cChain, p *ast.PatternPart, out scope, lo int, last []int, preds []eval.CompiledPred) int {
	k := lo // out[:k] is bound
	// bind marks the element's variable bound and reports its slot and
	// whether it was bound already.
	bind := func(name string) (slot int, wasBound bool) {
		if name == "" {
			return -1, false
		}
		i := out.index(name)
		if i < k {
			return out[i].Slot, true
		}
		k++ // i == k: the next variable of the part, in order
		return out[i].Slot, false
	}
	// Every element's conjuncts share one array, in element order and
	// within an element in conjunct order.
	var conjBuf []eval.CompiledPred
	hi := lo + len(p.Nodes) + len(p.Rels)
	n := 0
	for _, l := range last {
		if lo <= l && l < hi {
			n++
		}
	}
	if n > 0 {
		conjBuf = make([]eval.CompiledPred, 0, n)
	}
	conjUpTo := func(from int) []eval.CompiledPred {
		start := len(conjBuf)
		for i, l := range last {
			if from <= l && l < k {
				conjBuf = append(conjBuf, preds[i])
			}
		}
		if len(conjBuf) == start {
			return nil
		}
		return conjBuf[start:len(conjBuf):len(conjBuf)]
	}

	ch.nodes, ch.rels = make([]cNode, len(p.Nodes)), make([]cRel, len(p.Rels))
	for i, np := range p.Nodes {
		cn := &ch.nodes[i]
		cn.labels = np.Labels
		cn.props = pc.props(out[:k], np.Props)
		if i == 0 {
			// Index probes for the entry scan, in the interpreter's
			// label-major, key-minor order, sharing the compiled values.
			if len(np.Labels) > 0 && len(cn.props.keys) > 0 {
				cn.probes = make([]cProbe, 0, len(np.Labels)*len(cn.props.keys))
			}
			for _, l := range np.Labels {
				for k, key := range cn.props.keys {
					cn.probes = append(cn.probes, cProbe{label: l, key: key, val: cn.props.vals[k]})
				}
			}
		}
		from := k
		cn.slot, cn.bound = bind(np.Variable)
		cn.conj = conjUpTo(from)
		if i < len(p.Rels) {
			rp := p.Rels[i]
			cr := &ch.rels[i]
			cr.types = rp.Types
			cr.dir = rp.Direction
			cr.props = pc.props(out[:k], rp.Props)
			from := k
			cr.slot, cr.bound = bind(rp.Variable)
			cr.conj = conjUpTo(from)
		}
	}
	return k
}

// props compiles an inline property map with the variables of sc in
// scope.
func (pc *partCompiler) props(sc scope, m *ast.MapLit) cProps {
	var out cProps
	if m == nil {
		return out
	}
	out.keys = m.Keys
	out.vals = make([]eval.Compiled, len(m.Vals))
	for i, v := range m.Vals {
		out.vals[i] = pc.compile(sc, v)
	}
	return out
}

// buildReverse lowers part p in reverse orientation. The reversed chain
// meets the part's variables in another order, so it compiles against a
// scope with the part's run reordered to match; slots stay with their
// names. It replays the forward build's temp slots: both orientations
// compile the same property expressions and therefore allocate the same
// number of temps.
func (st *cMatch) buildReverse(p *cPart) *cChain {
	lo := st.nsc
	for _, q := range st.clause.Patterns[:p.index] {
		for _, np := range q.Nodes {
			if np.Variable != "" {
				lo = max(lo, st.out.index(np.Variable)+1)
			}
		}
		for _, rp := range q.Rels {
			if rp.Variable != "" {
				lo = max(lo, st.out.index(rp.Variable)+1)
			}
		}
	}
	part := reverseChain(st.clause.Patterns[p.index])
	rout := make(scope, lo, len(st.out))
	copy(rout, st.out[:lo])
	pc := newPartCompiler(p.tempLo)
	for ni, np := range part.Nodes {
		rout = reorderVar(rout, st.out, lo, np.Variable)
		if ni < len(part.Rels) {
			rout = reorderVar(rout, st.out, lo, part.Rels[ni].Variable)
		}
	}
	for _, v := range st.out[lo:] {
		if rout.index(v.Name) < 0 {
			rout = append(rout, v)
		}
	}
	last := make([]int, 0, len(st.preds))
	if st.clause.Where != nil {
		for _, cj := range splitWhereExprs(nil, st.clause.Where) {
			last = append(last, lastVar(cj, rout))
		}
	}
	rev := &cChain{}
	pc.chain(rev, part, rout, lo, last, st.preds)
	return rev
}

// reorderVar appends the binding of name from out to rout if it is one
// of the variables from position lo on and not there yet.
func reorderVar(rout, out scope, lo int, name string) scope {
	if name == "" || rout.index(name) >= 0 {
		return rout
	}
	if i := out.index(name); i >= lo {
		return append(rout, out[i])
	}
	return rout
}

// --- UNWIND --------------------------------------------------------

func (pc *partCompiler) unwindStage(c *ast.UnwindClause, sc scope) (*cUnwind, scope) {
	fn := pc.compile(sc, c.Expr)
	slot := pc.next()
	// The alias shadows any previous binding, as the row write did.
	return &cUnwind{list: fn, slot: slot}, sc.with(c.Alias, slot)
}

// --- CALL ----------------------------------------------------------

func (pc *partCompiler) callStage(c *ast.CallClause, sc scope, last bool) (*cCall, scope, error) {
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
	slot := pc.next()
	return &cCall{proc: c.Procedure, col: col, slot: slot, last: last}, sc.with(col, slot), nil
}

// --- WITH / RETURN -------------------------------------------------

func (pc *partCompiler) projectionStage(p *ast.Projection, where ast.Expr, sc scope, requireAlias, isReturn bool) (*cProjection, scope, error) {
	if p.Star || len(p.Items) == 0 {
		// `*` depends on the runtime row contents; an empty projection is
		// an error — both stay on the interpreter.
		return nil, nil, errUnsupportedPlan
	}
	st := &cProjection{
		distinct:     p.Distinct,
		isReturn:     isReturn,
		proj:         p,
		requireAlias: requireAlias,
	}
	if len(p.Items) <= len(st.item1) {
		st.items, st.cols = st.item1[:len(p.Items)], st.col1[:len(p.Items)]
	} else {
		st.items, st.cols = make([]cProjItem, len(p.Items)), make([]string, len(p.Items))
	}
	// out is the projected scope: the next stage's after a WITH, and
	// part of ORDER BY's.
	var out scope
	if !isReturn || len(p.OrderBy) > 0 {
		out = make(scope, len(p.Items))
	}
	for i, it := range p.Items {
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
		if slices.Contains(st.cols[:i], name) {
			return nil, nil, errUnsupportedPlan // duplicate-column error
		}
		agg := eval.HasAggregate(it.Expr)
		st.hasAgg = st.hasAgg || agg
		slot := pc.next()
		st.items[i] = cProjItem{name: name, slot: slot, agg: agg}
		st.cols[i] = name
		if out != nil {
			out[i] = eval.Var{Name: name, Slot: slot}
		}
	}

	if st.hasAgg {
		pc.aggregation(st, p, sc)
	} else {
		for i, it := range p.Items {
			st.items[i].fn = pc.compile(sc, it.Expr)
		}
	}

	// ORDER BY scope mirrors project's orderEnv: projected columns only
	// after aggregation or DISTINCT, otherwise input merged with the
	// projected columns (which shadow on collision).
	if len(p.OrderBy) > 0 {
		sortScope := out
		if !st.hasAgg && !p.Distinct {
			sortScope = make(scope, 0, len(sc)+len(out))
			for _, b := range sc {
				if out.index(b.Name) < 0 {
					sortScope = append(sortScope, b)
				}
			}
			sortScope = append(sortScope, out...)
		}
		st.sorts = make([]cSort, len(p.OrderBy))
		for i, s := range p.OrderBy {
			st.sorts[i] = cSort{key: pc.compile(sortScope, s.Expr), desc: s.Desc}
		}
	}

	// SKIP/LIMIT evaluate in an empty environment (evalIn(row{}, x)).
	if p.Skip != nil {
		st.skip = pc.compile(nil, p.Skip)
	}
	if p.Limit != nil {
		st.limit = pc.compile(nil, p.Limit)
	}

	// A WITH's WHERE sees only the projected row.
	if where != nil {
		st.where = pc.compilePred(out, where)
	}
	return st, out, nil
}

// aggregation collects the aggregate calls of every item in item order
// (as Engine.aggregate walks them), assigns each a result slot, and
// compiles the item expressions with those slots spliced in place of the
// calls via the Special hook.
func (pc *partCompiler) aggregation(st *cProjection, p *ast.Projection, sc scope) {
	st.calls = st.call1[:0]
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
					slot:     pc.next(),
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
				slot:     pc.next(),
			}
			if len(f.Args) >= 1 {
				c.arg = pc.compile(sc, f.Args[0])
			}
			if spec.HasParam && len(f.Args) == 2 {
				c.param = pc.compile(sc, f.Args[1])
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
	defer func() { pc.cmp.Splices = nil }()
	for i, it := range p.Items {
		if !st.items[i].agg {
			st.groupItems = append(st.groupItems, i)
		}
		if slot, ok := st.callSlot(it.Expr); ok {
			st.items[i].fn = eval.Slot(slot)
			continue
		}
		if pc.cmp.Splices == nil {
			pc.cmp.Splices = make([]eval.Splice, len(st.calls))
			for k, c := range st.calls {
				pc.cmp.Splices[k] = eval.Splice{Expr: c.call, Slot: c.slot}
			}
		}
		st.items[i].fn = pc.compile(sc, it.Expr)
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
