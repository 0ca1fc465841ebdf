package engine

import (
	"gqs/internal/cypher/ast"
	"gqs/internal/eval"
	"gqs/internal/graph"
	"gqs/internal/value"
)

// conjunct is one top-level AND operand of a WHERE predicate, with the
// variables it references. The planner pushes each conjunct down to the
// earliest point of the match where all its variables are bound.
type conjunct struct {
	expr ast.Expr
	vars []string
}

func splitWhere(e ast.Expr) []conjunct {
	if e == nil {
		return nil
	}
	return appendConjuncts(nil, e)
}

// appendConjuncts accumulates the conjuncts into one growing slice
// rather than allocating an intermediate slice per AND node.
func appendConjuncts(dst []conjunct, e ast.Expr) []conjunct {
	if b, ok := e.(*ast.Binary); ok && b.Op == ast.OpAnd {
		return appendConjuncts(appendConjuncts(dst, b.L), b.R)
	}
	return append(dst, conjunct{expr: e, vars: ast.Variables(e)})
}

// splitWhereExprs is the plan compiler's form of splitWhere: the same
// top-level AND split, without the per-conjunct variable lists — the
// compiler schedules each conjunct by its last-bound variable instead.
func splitWhereExprs(dst []ast.Expr, e ast.Expr) []ast.Expr {
	if b, ok := e.(*ast.Binary); ok && b.Op == ast.OpAnd {
		return splitWhereExprs(splitWhereExprs(dst, b.L), b.R)
	}
	return append(dst, e)
}

// execMatch runs a MATCH or OPTIONAL MATCH clause over the input rows.
func (e *Engine) execMatch(c *ast.MatchClause, in []row) ([]row, error) {
	var conj []conjunct
	if e.opts.DisablePlanner {
		if c.Where != nil {
			conj = []conjunct{{expr: c.Where, vars: ast.Variables(c.Where)}}
		}
	} else {
		conj = splitWhere(c.Where)
	}
	pvars := patternVars(c.Patterns)
	steps := 0
	// One matcher serves every input row: its backtracking state (the
	// applied flags and the relationship-uniqueness set) is fully unwound
	// by the undo functions whenever run returns, so only env changes per
	// row. envExtra sizes each env clone for the bindings the patterns
	// will add (plus the synthetic anonymous-node key), so the bind hot
	// path never rehashes the map.
	envExtra := len(pvars) + 1
	m := &matcher{
		engine:   e,
		patterns: c.Patterns,
		conj:     conj,
		applied:  make([]bool, len(conj)),
		uniq:     e.opts.Dialect.RelUniqueness,
		used:     map[graph.ID]bool{},
		steps:    &steps,
		maxSteps: e.opts.Limits.MaxMatchSteps,
	}
	// One scratch env serves every input row: emitted rows are cloned by
	// visibleRow and the undo logs fully restore the env between rows, so
	// a clear-and-refill replaces the per-row map allocation.
	env := make(row, envCapOf(in, envExtra))
	var out []row
	for _, r := range in {
		clear(env)
		for k, v := range r {
			env[k] = v
		}
		m.env = env
		matched := false
		err := m.run(func(env row) error {
			matched = true
			out = append(out, visibleRow(env))
			if len(out) > e.opts.Limits.MaxRows {
				return &ErrResourceLimit{What: "match results"}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if c.Optional && !matched {
			nr := cloneRowCap(r, envExtra)
			for _, v := range pvars {
				if _, bound := r[v]; !bound {
					nr[v] = value.Null
				}
			}
			out = append(out, nr)
		}
	}
	return out, nil
}

// envCapOf sizes the scratch env for the widest expected row plus the
// pattern bindings.
func envCapOf(in []row, extra int) int {
	if len(in) == 0 {
		return extra
	}
	return len(in[0]) + extra
}

// patternVars returns the named variables introduced by the patterns, in
// first-occurrence order.
func patternVars(ps []*ast.PatternPart) []string {
	n := 0
	for _, p := range ps {
		n += len(p.Nodes) + len(p.Rels)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	add := func(v string) {
		if v != "" && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, p := range ps {
		for i, n := range p.Nodes {
			add(n.Variable)
			if i < len(p.Rels) {
				add(p.Rels[i].Variable)
			}
		}
	}
	return out
}

// matcher performs the backtracking subgraph search for one input row
// across all pattern parts of one MATCH clause.
type matcher struct {
	engine   *Engine
	patterns []*ast.PatternPart
	conj     []conjunct
	applied  []bool
	uniq     bool
	used     map[graph.ID]bool
	env      row
	steps    *int
	maxSteps int
	emit     func(row) error
	// conjStack and bindStack are the backtracking undo logs: appending
	// on the way down and truncating to a saved mark on the way up keeps
	// the per-bind hot path free of closure and slice allocations. Both
	// are empty between rows (every path fully unwinds them).
	conjStack []int
	bindStack []bindSave
}

// bindSave is one bindStack entry: the previous value of an env key.
type bindSave struct {
	name string
	old  value.Value
	had  bool
}

// errStop distinguishes deliberate early termination (unused for now) from
// hard failures; kept for clarity of control flow.

func (m *matcher) run(emit func(row) error) error {
	m.emit = emit
	// Entry-level conjuncts: variables already bound by the input row.
	mark, ok, err := m.applyReadyConjuncts()
	defer m.undoConjuncts(mark)
	if err != nil || !ok {
		return err
	}
	return m.matchPart(0)
}

func (m *matcher) step() error {
	*m.steps++
	if *m.steps > m.maxSteps {
		return &ErrResourceLimit{What: "match steps"}
	}
	return m.engine.checkCancel()
}

// applyReadyConjuncts evaluates every not-yet-applied conjunct whose
// variables are all bound, recording the applied indices on the shared
// undo log. It returns the log mark to hand back to undoConjuncts and
// whether every evaluated conjunct held.
func (m *matcher) applyReadyConjuncts() (int, bool, error) {
	mark := len(m.conjStack)
	for i, c := range m.conj {
		if m.applied[i] {
			continue
		}
		ready := true
		for _, v := range c.vars {
			if _, ok := m.env[v]; !ok {
				ready = false
				break
			}
		}
		if !ready {
			continue
		}
		m.applied[i] = true
		m.conjStack = append(m.conjStack, i)
		t, err := eval.EvalPredicate(m.engine.evalCtx(m.env), c.expr)
		if err != nil {
			return mark, false, err
		}
		if t != value.TriTrue {
			return mark, false, nil
		}
	}
	return mark, true, nil
}

// undoConjuncts clears the applied flags recorded since mark.
func (m *matcher) undoConjuncts(mark int) {
	for _, i := range m.conjStack[mark:] {
		m.applied[i] = false
	}
	m.conjStack = m.conjStack[:mark]
}

func (m *matcher) matchPart(idx int) error {
	if idx == len(m.patterns) {
		// All parts bound: evaluate any conjunct not yet applied (one
		// whose free-variable analysis was conservative). A reference to
		// a variable that is genuinely not in scope surfaces here as the
		// unknown-variable error a real GDB raises at compile time.
		for i, c := range m.conj {
			if !m.applied[i] {
				tr, err := eval.EvalPredicate(m.engine.evalCtx(m.env), c.expr)
				if err != nil {
					return err
				}
				if tr != value.TriTrue {
					return nil
				}
			}
		}
		return m.emit(m.env)
	}
	part := m.orient(m.patterns[idx])
	return m.matchNode(part, 0, func() error { return m.matchPart(idx + 1) })
}

// orient lets the planner choose the traversal direction of a chain: if
// the rightmost pattern node is already bound (or has a cheaper access
// path) and the leftmost is not, the chain is reversed so that matching
// starts from the cheap side. This mirrors the traversal-start selection
// the paper's pattern mutation is designed to exercise (§3.4).
func (m *matcher) orient(p *ast.PatternPart) *ast.PatternPart {
	if m.engine.opts.DisablePlanner || len(p.Nodes) < 2 {
		return p
	}
	first, last := p.Nodes[0], p.Nodes[len(p.Nodes)-1]
	cf, cl := m.nodeCost(first), m.nodeCost(last)
	if cl < cf {
		m.engine.planTrace = append(m.engine.planTrace, accessPath{kind: "ReverseTraversal"})
		return reverseChain(p)
	}
	return p
}

// nodeCost estimates the candidate-set size for binding a pattern node.
func (m *matcher) nodeCost(n *ast.NodePattern) int {
	if n.Variable != "" {
		if _, ok := m.env[n.Variable]; ok {
			return 0
		}
	}
	st := m.engine.store
	best := st.Graph().NumNodes()
	for _, l := range n.Labels {
		if c := st.LabelCount(l); c < best {
			best = c
		}
	}
	return best
}

func reverseChain(p *ast.PatternPart) *ast.PatternPart {
	n := len(p.Nodes)
	out := &ast.PatternPart{Variable: p.Variable, Nodes: make([]*ast.NodePattern, n), Rels: make([]*ast.RelPattern, len(p.Rels))}
	for i, node := range p.Nodes {
		out.Nodes[n-1-i] = node
	}
	for i, r := range p.Rels {
		flipped := *r
		switch r.Direction {
		case ast.DirLeft:
			flipped.Direction = ast.DirRight
		case ast.DirRight:
			flipped.Direction = ast.DirLeft
		}
		out.Rels[len(p.Rels)-1-i] = &flipped
	}
	return out
}

// matchNode binds pattern node i of the chain, then continues with the
// following relationship (or the continuation when the chain ends).
func (m *matcher) matchNode(p *ast.PatternPart, i int, cont func() error) error {
	np := p.Nodes[i]
	bindAndGo := func(id graph.ID) error {
		if err := m.step(); err != nil {
			return err
		}
		ok, err := m.checkNode(np, id)
		if err != nil || !ok {
			return err
		}
		bmark := m.bindPush(nodeKey(np), value.Node(id))
		defer m.undoBinds(bmark)
		cmark, okc, err := m.applyReadyConjuncts()
		defer m.undoConjuncts(cmark)
		if err != nil || !okc {
			return err
		}
		if i == len(p.Nodes)-1 {
			return cont()
		}
		return m.matchRel(p, i, cont)
	}
	// Already bound?
	if np.Variable != "" {
		if v, ok := m.env[np.Variable]; ok {
			if v.Kind() != value.KindNode {
				return nil // bound to a non-node: no match
			}
			return bindAndGo(v.EntityID())
		}
	}
	for _, id := range m.nodeCandidates(np) {
		if err := bindAndGo(id); err != nil {
			return err
		}
	}
	return nil
}

// nodeCandidates returns the access path for an unbound pattern node:
// an index scan when a label+property equality is available, a label scan
// when a label is present, or a full scan.
func (m *matcher) nodeCandidates(np *ast.NodePattern) []graph.ID {
	st := m.engine.store
	if !m.engine.opts.DisablePlanner {
		// Index scan: label + property map entry evaluable right now.
		if np.Props != nil {
			for _, l := range np.Labels {
				for i, key := range np.Props.Keys {
					if !st.HasIndex(l, key) {
						continue
					}
					v, err := m.engine.evalIn(m.env, np.Props.Vals[i])
					if err != nil || v.IsNull() {
						continue
					}
					ids, ok := st.NodesByIndex(l, key, v)
					if ok {
						m.engine.planTrace = append(m.engine.planTrace, accessPath{"NodeIndexScan", l, key})
						return ids
					}
				}
			}
		}
		// Label scan: the most selective label.
		if len(np.Labels) > 0 {
			best := st.NodesByLabel(np.Labels[0])
			for _, l := range np.Labels[1:] {
				if ids := st.NodesByLabel(l); len(ids) < len(best) {
					best = ids
				}
			}
			m.engine.planTrace = append(m.engine.planTrace, accessPath{kind: "NodeByLabelScan"})
			return m.maybeReverse(best)
		}
	}
	m.engine.planTrace = append(m.engine.planTrace, accessPath{kind: "AllNodesScan"})
	return m.maybeReverse(st.Graph().NodeIDs())
}

func (m *matcher) maybeReverse(ids []graph.ID) []graph.ID {
	if !m.engine.opts.ReverseScan {
		return ids
	}
	out := make([]graph.ID, len(ids))
	for i, id := range ids {
		out[len(ids)-1-i] = id
	}
	return out
}

// checkNode verifies labels and the inline property map.
func (m *matcher) checkNode(np *ast.NodePattern, id graph.ID) (bool, error) {
	n := m.engine.store.Graph().Node(id)
	if n == nil {
		return false, nil
	}
	for _, l := range np.Labels {
		if !n.HasLabel(l) {
			return false, nil
		}
	}
	return m.checkProps(np.Props, n.Props)
}

func (m *matcher) checkProps(pm *ast.MapLit, props map[string]value.Value) (bool, error) {
	if pm == nil {
		return true, nil
	}
	for i, key := range pm.Keys {
		want, err := m.engine.evalIn(m.env, pm.Vals[i])
		if err != nil {
			return false, err
		}
		got, ok := props[key]
		if !ok || value.Equal(got, want) != value.TriTrue {
			return false, nil
		}
	}
	return true, nil
}

// matchRel expands relationship i of the chain from the already-bound
// node i, binding the relationship and recursing into node i+1.
func (m *matcher) matchRel(p *ast.PatternPart, i int, cont func() error) error {
	rp := p.Rels[i]
	// The source node was bound (under a synthetic key when anonymous)
	// by matchNode or matchNodeAt just before this call.
	from := m.env[nodeKey(p.Nodes[i])].EntityID()

	tryRel := func(relID graph.ID, other graph.ID) error {
		if err := m.step(); err != nil {
			return err
		}
		r := m.engine.store.Graph().Rel(relID)
		if !typeMatches(rp.Types, r.Type) {
			return nil
		}
		ok, err := m.checkProps(rp.Props, r.Props)
		if err != nil || !ok {
			return err
		}
		boundBefore := false
		if rp.Variable != "" {
			if v, bound := m.env[rp.Variable]; bound {
				if v.Kind() != value.KindRel || v.EntityID() != relID {
					return nil
				}
				boundBefore = true
			}
		}
		if !boundBefore {
			if m.uniq && m.used[relID] {
				return nil
			}
			m.used[relID] = true
			defer delete(m.used, relID)
		}
		bmark := m.bindPush(rp.Variable, value.Rel(relID))
		defer m.undoBinds(bmark)
		cmark, okc, err := m.applyReadyConjuncts()
		defer m.undoConjuncts(cmark)
		if err != nil || !okc {
			return err
		}
		// Continue with the target node constrained to `other`.
		return m.matchNodeAt(p, i+1, other, cont)
	}

	g := m.engine.store.Graph()
	switch rp.Direction {
	case ast.DirRight:
		for _, rid := range g.Out(from) {
			if err := tryRel(rid, g.Rel(rid).End); err != nil {
				return err
			}
		}
	case ast.DirLeft:
		for _, rid := range g.In(from) {
			if err := tryRel(rid, g.Rel(rid).Start); err != nil {
				return err
			}
		}
	default: // undirected
		for _, rid := range g.Out(from) {
			if err := tryRel(rid, g.Rel(rid).End); err != nil {
				return err
			}
		}
		for _, rid := range g.In(from) {
			r := g.Rel(rid)
			if r.Start == r.End {
				continue // self-loop already visited via Out
			}
			if err := tryRel(rid, r.Start); err != nil {
				return err
			}
		}
	}
	return nil
}

// matchNodeAt binds pattern node i of the chain to a specific node ID
// (the far endpoint of the relationship just traversed).
func (m *matcher) matchNodeAt(p *ast.PatternPart, i int, id graph.ID, cont func() error) error {
	np := p.Nodes[i]
	if np.Variable != "" {
		if v, bound := m.env[np.Variable]; bound {
			if v.Kind() != value.KindNode || v.EntityID() != id {
				return nil
			}
		}
	}
	ok, err := m.checkNode(np, id)
	if err != nil || !ok {
		return err
	}
	bmark := m.bindPush(nodeKey(np), value.Node(id))
	defer m.undoBinds(bmark)
	cmark, okc, err := m.applyReadyConjuncts()
	defer m.undoConjuncts(cmark)
	if err != nil || !okc {
		return err
	}
	if i == len(p.Nodes)-1 {
		return cont()
	}
	return m.matchRel(p, i, cont)
}

// bindPush sets a variable, logging the previous binding for undoBinds,
// and returns the log mark. Anonymous elements (name "") are not bound.
func (m *matcher) bindPush(name string, v value.Value) int {
	mark := len(m.bindStack)
	if name == "" {
		return mark
	}
	old, had := m.env[name]
	m.bindStack = append(m.bindStack, bindSave{name: name, old: old, had: had})
	m.env[name] = v
	return mark
}

// undoBinds restores the env bindings logged since mark, newest first.
func (m *matcher) undoBinds(mark int) {
	for i := len(m.bindStack) - 1; i >= mark; i-- {
		b := m.bindStack[i]
		if b.had {
			m.env[b.name] = b.old
		} else {
			delete(m.env, b.name)
		}
	}
	m.bindStack = m.bindStack[:mark]
}

// anonNodeKey is the synthetic env binding for anonymous chain nodes so
// that relationship expansion can find its source endpoint. It contains a
// NUL byte, which no parsed variable can contain, and is rebound at each
// chain position (reads happen before deeper rebinding, undo restores it).
const anonNodeKey = "\x00anon"

func nodeKey(np *ast.NodePattern) string {
	if np.Variable != "" {
		return np.Variable
	}
	return anonNodeKey
}

// visibleRow clones env without synthetic bindings.
func visibleRow(env row) row {
	out := make(row, len(env))
	for k, v := range env {
		if len(k) > 0 && k[0] == '\x00' {
			continue
		}
		out[k] = v
	}
	return out
}

func typeMatches(types []string, t string) bool {
	if len(types) == 0 {
		return true
	}
	for _, x := range types {
		if x == t {
			return true
		}
	}
	return false
}
