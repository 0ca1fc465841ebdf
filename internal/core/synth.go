package core

import (
	"fmt"
	"math/rand"

	"gqs/internal/cypher/ast"
	"gqs/internal/engine"
	"gqs/internal/eval"
	"gqs/internal/graph"
	"gqs/internal/value"
)

// Config tunes the synthesizer. The defaults reproduce the paper's
// experimental setup (§5.1): up to 9 synthesis steps and an expected
// result set of at most 6 properties.
type Config struct {
	MaxSteps int
	Plan     PlanConfig

	// Target-dialect awareness (§4, "Handling GDB-specific Cypher
	// Variations"): without relationship uniqueness GQS appends pairwise
	// `<>` predicates; with db.labels() it may prepend a CALL prologue.
	RelUniqueness    bool
	ProvidesDBLabels bool

	// Ablations (§4 of DESIGN.md).
	DisableMutation     bool // no pattern mutation against history
	DisableComplexExprs bool // plain `var.id = c` pins, no nesting
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		MaxSteps:         9,
		Plan:             DefaultPlanConfig(),
		RelUniqueness:    true,
		ProvidesDBLabels: true,
	}
}

// The synthesis bounds and percentages of the paper's setup (§5.1), the
// same for every query.
const (
	exprDepth        = 4  // nesting depth bound for §3.5 expressions
	optionalMatchPct = 25 // % of MATCH steps synthesized as OPTIONAL MATCH
	unionPct         = 10 // % of queries extended with a UNION branch
	callPct          = 10 // % of queries prefixed with a CALL prologue
	truePredPct      = 60 // % chance of each extra dependency predicate
)

// Synthesized is one synthesized test case: the query, its text, and the
// expected result established before synthesis (the ground truth plus the
// multiplicity the clause pipeline implies). Only Query lives in the
// synthesizer's arena: from the runner's synthesizer it is valid until
// the next query starts, while the rest is the heap's.
type Synthesized struct {
	Query    *ast.Query
	Text     string
	Expected *engine.Result
	Steps    int
	GT       *GroundTruth
}

// Synthesizer builds queries over a generated graph. A campaign runner
// keeps one for its whole life and rebinds it to each iteration's graph,
// schema and dialect config.
//
// Its working state lives in slices reused from query to query and from
// graph to graph: the plan and schedule, the tracker's row table, the
// clause's variable slots, the pins, the evaluation scratch of Algorithm
// 2 and the buffer each query's text is printed into. None of it carries
// information from one query to the next — each query resets what it
// uses — so a Synthesizer emits exactly what a fresh one over the same
// graph would for the same draws, however many graphs it was bound to
// before.
//
// A synthesizer from NewSynthesizer takes its trees from heap arenas:
// each stays valid for ever. The runner's synthesizer rewinds its arena
// for every query instead (see astArena), so a query's tree is valid
// only until the next query starts: the lifetime of the plan the runner
// compiles from it into its engine.Scratch, which reads the tree when it
// runs.
type Synthesizer struct {
	r      *rand.Rand
	g      *graph.Graph
	schema *graph.Schema
	cfg    Config

	plan    Plan
	tracker Tracker
	history []*Path
	// scope lists the element variables in scope, in binding order.
	scope []scopeVar
	// nodeIDs and relIDs are the graph's ascending ID lists, fetched once
	// per query.
	nodeIDs, relIDs []graph.ID

	// union is the synthesizer of UNION branches, created on first use
	// and rebound with this one.
	union *Synthesizer

	// Clause scratch: the encoded chains, the clause's variable slots
	// (see encodeChains), the uniquifying pins with their competitor
	// lists, and the slot matcher.
	encBuf      []encChain
	enc         []*encChain
	nodeSlotBuf []int32
	relSlotBuf  []int32
	relIDBuf    []graph.ID
	cvars       []clauseVar
	fixed       []graph.ID
	pins        []pin
	compBuf     []elemRef
	match       matcher
	preds       []ast.Expr
	relVars     []string
	required    []elemRef
	chains      chainScratch

	// Evaluation scratch of Algorithm 2 (complexifyAccess): the hole
	// literal a template layer is built around, the context and the
	// otherwise empty environment its layers evaluate in (list
	// comprehensions bind their variable there), and the per-competitor
	// value buffers. The hole is allocated on its own: rejected layers
	// in the AST arena point at it, and must not keep the whole
	// Synthesizer alive.
	hole                        *ast.Literal
	constCtx                    eval.Ctx
	constEnv                    map[string]value.Value
	compVals, compCur, compNext []value.Value

	// Projection scratch.
	outVars []string
	titems  []ProjItem

	// nodes allocates the AST nodes of the queries, and queries counts
	// the queries synthesized into it. rewinds marks the runner's
	// synthesizer, whose arena is rewound for every query rather than
	// renewed; its UNION-branch synthesizer inherits it.
	nodes   astArena
	queries int
	rewinds bool
	// text is the buffer each query is printed into, so that the text
	// costs one allocation, of exactly its length.
	text []byte
}

// scopeVar is an element variable in scope and the element it binds.
type scopeVar struct {
	name string
	ref  elemRef
}

// withDefaults resolves the zero values a caller may leave unset: the
// zero Config (a RunnerConfig's Synth left out) is DefaultConfig, and a
// zero MaxSteps is the paper's step bound. Every other field — the
// dialect flags above all — is kept as given.
func (c Config) withDefaults() Config {
	if c == (Config{}) {
		return DefaultConfig()
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = DefaultConfig().MaxSteps
	}
	return c
}

// NewSynthesizer creates a synthesizer over the generated graph. The
// queries it returns stay valid for ever.
func NewSynthesizer(r *rand.Rand, g *graph.Graph, schema *graph.Schema, cfg Config) *Synthesizer {
	return newSynthesizer(r, g, schema, cfg, false)
}

// newSynthesizer is NewSynthesizer, or with rewinds the runner's
// synthesizer, whose queries are valid only until it starts the next.
func newSynthesizer(r *rand.Rand, g *graph.Graph, schema *graph.Schema, cfg Config, rewinds bool) *Synthesizer {
	s := &Synthesizer{r: r, g: g, schema: schema, cfg: cfg.withDefaults(), rewinds: rewinds}
	s.newArena()
	return s
}

// rebind points the synthesizer, and its UNION-branch synthesizer, at
// another generated graph, its schema and a dialect config, keeping
// their scratch. A heap-mode synthesizer starts its next queries in
// fresh AST arenas; a rewound arena carries over, and the next query
// rewinds it as always. Afterwards it emits exactly what
// NewSynthesizer(r, g, schema, cfg) would for the same draws.
func (s *Synthesizer) rebind(g *graph.Graph, schema *graph.Schema, cfg Config) {
	s.g, s.schema, s.cfg = g, schema, cfg.withDefaults()
	if !s.rewinds {
		s.newArena()
	}
	if s.union != nil {
		s.union.rebind(g, schema, s.cfg)
	}
}

// leaveTrees leaves every tree synthesized so far to whoever holds it:
// this synthesizer and its UNION-branch synthesizer take their next
// queries from new arenas. The runner calls it where a call it abandoned
// may still be running a plan that reads the last query's tree.
func (s *Synthesizer) leaveTrees() {
	for x := s; x != nil; x = x.union {
		x.newArena()
	}
}

func (s *Synthesizer) pct(p int) bool { return s.r.Intn(100) < p }

func (s *Synthesizer) freshVar(prefix string) string {
	if prefix == "r" {
		v := seqName('r', s.plan.RelSeq)
		s.plan.RelSeq++
		return v
	}
	v := seqName('n', s.plan.NodeSeq)
	s.plan.NodeSeq++
	return v
}

// lookupScope returns the element an in-scope variable binds.
func (s *Synthesizer) lookupScope(name string) (elemRef, bool) {
	for _, sv := range s.scope {
		if sv.name == name {
			return sv.ref, true
		}
	}
	return elemRef{}, false
}

// bindScope brings an element variable into scope.
func (s *Synthesizer) bindScope(name string, ref elemRef) {
	for i := range s.scope {
		if s.scope[i].name == name {
			s.scope[i].ref = ref
			return
		}
	}
	s.scope = append(s.scope, scopeVar{name: name, ref: ref})
}

// arenaQueries is the most queries that share one heap-mode AST arena:
// the runner's default queries per graph (8 ground truths of 2 queries).
// Rebinding starts a fresh arena too, so each graph's queries fill
// arenas of their own. Consecutive queries share chunks, and a chunk
// keeps every tree with a node in it alive, so a fresh arena per graph
// and per arenaQueries queries bounds what one live query keeps alive,
// while the trees of an arena stay packed without per-query waste.
const arenaQueries = 16

// reset starts a query: it fetches the graph's ID lists, empties the
// tracker, the pattern history, the scope and the path arena, and
// rewinds the AST arenas, or in heap mode starts a fresh arena once
// arenaQueries queries have filled the current one.
func (s *Synthesizer) reset() {
	s.nodeIDs, s.relIDs = s.g.NodeIDs(), s.g.RelIDs()
	s.tracker.reset(s.g)
	clear(s.history)
	s.history = s.history[:0]
	s.scope = s.scope[:0]
	s.chains.reset()
	switch {
	case s.rewinds:
		s.rewind()
	case s.queries == arenaQueries:
		s.newArena()
	}
	s.queries++
}

// rewind rewinds the AST arenas of this synthesizer and its UNION-branch
// synthesizer, whose branch lives as long as the query it belongs to,
// and clears their scratch: nothing of the last query stays reachable,
// a chunk replaced while it was synthesized included.
func (s *Synthesizer) rewind() {
	for x := s; x != nil; x = x.union {
		x.nodes.rewind()
		x.clearScratch()
	}
}

// newArena drops the AST arena for a fresh one with the synthesizer's
// growth rule, and clears the scratch that points at the old one's
// nodes.
func (s *Synthesizer) newArena() {
	s.nodes = astArena{grow: ast.NextChunkCap}
	if s.rewinds {
		s.nodes.grow = ast.DoubleChunkCap
	}
	s.queries = 0
	s.clearScratch()
}

// clearScratch clears the scratch that points at AST nodes — the encoded
// chains and their pattern parts, the predicates, the projection items,
// the matcher's chains — and the competitor value buffers over their
// whole capacity, so that no stale pointer past a slice's length keeps
// alive an arena the caller has dropped, or a chunk a rewound arena has
// replaced with a larger one.
func (s *Synthesizer) clearScratch() {
	s.encBuf = clearAll(s.encBuf)
	s.enc = clearAll(s.enc)
	s.preds = clearAll(s.preds)
	s.titems = clearAll(s.titems)
	s.match.chains = nil
	s.compVals = clearAll(s.compVals)
	s.compCur = clearAll(s.compCur)
	s.compNext = clearAll(s.compNext)
}

// clearAll zeroes x up to its capacity and returns it emptied.
func clearAll[T any](x []T) []T {
	clear(x[:cap(x)])
	return x[:0]
}

// Synthesize builds a complete test query for the ground truth,
// implementing step ③ of the GQS workflow: a single query, sometimes
// extended with a UNION branch the UNION-branch synthesizer builds for
// the same ground truth.
func (s *Synthesizer) Synthesize(gt *GroundTruth) (*Synthesized, error) {
	part, steps, err := s.single(gt)
	if err != nil {
		return nil, err
	}
	expected := s.tracker.Result(gt.ExpectedColumns())

	q := take(&s.nodes, &s.nodes.queries)
	if s.pct(unionPct) {
		if s.union == nil {
			s.union = newSynthesizer(s.r, s.g, s.schema, s.cfg, s.rewinds)
		}
		if branch, _, err := s.union.single(gt); err == nil {
			rows := s.union.tracker.Result(expected.Columns).Rows
			all := s.r.Intn(2) == 0
			q.Parts = ast.Window(&s.nodes.singlePtrs, 2, s.nodes.grow)
			q.Parts[0], q.Parts[1] = part, branch
			q.All = ast.Window(&s.nodes.bools, 1, s.nodes.grow)
			q.All[0] = all
			expected.Rows = append(expected.Rows, rows...)
			if !all {
				expected = s.dedupeResult(expected)
			}
		}
	}
	if q.Parts == nil {
		q.Parts = ast.Window(&s.nodes.singlePtrs, 1, s.nodes.grow)
		q.Parts[0] = part
	}

	s.text = q.Append(s.text[:0])
	return &Synthesized{
		Query:    q,
		Text:     string(s.text),
		Expected: expected,
		Steps:    steps,
		GT:       gt,
	}, nil
}

// single synthesizes one single query for the ground truth, leaving its
// expected rows in the tracker, and returns it with its step count.
func (s *Synthesizer) single(gt *GroundTruth) (*ast.SingleQuery, int, error) {
	s.reset()
	s.plan.build(s.r, s.nodeIDs, s.relIDs, gt)
	steps := Schedule(s.r, &s.plan, s.cfg.MaxSteps)

	prologue := s.cfg.ProvidesDBLabels && s.pct(callPct)
	n := len(steps)
	if prologue {
		n += 2
	}
	clauses := ast.Window(&s.nodes.clauses, n, s.nodes.grow)[:0]
	if prologue {
		clauses = s.appendCallPrologue(clauses)
	}
	for i, step := range steps {
		last := i == len(steps)-1
		var c ast.Clause
		var err error
		switch step.Clause {
		case ClauseMatch:
			c, err = s.synthMatch(step)
		case ClauseUnwind:
			c, err = s.synthUnwind(step)
		case ClauseProjection:
			c, err = s.synthProjection(step, last)
		}
		if err != nil {
			return nil, 0, err
		}
		clauses = append(clauses, c)
	}
	part := take(&s.nodes, &s.nodes.singles)
	part.Clauses = clauses
	return part, len(steps), nil
}

// dedupeResult drops the rows of r equivalent to an earlier row, in
// place, as UNION does: r is the query's own expected result. It uses
// the tracker's row set, idle once the expected result is built.
func (s *Synthesizer) dedupeResult(r *engine.Result) *engine.Result {
	s.tracker.rows.Reset(len(r.Columns))
	kept := r.Rows[:0]
	for _, row := range r.Rows {
		if _, added := s.tracker.rows.Add(row); added {
			kept = append(kept, row)
		}
	}
	r.Rows = kept
	return r
}

// appendCallPrologue appends `CALL db.labels() YIELD label WITH DISTINCT
// true AS tN` — the §4 CALL integration. The DISTINCT projection
// collapses the label rows back to the single row the rest of the
// pipeline expects.
func (s *Synthesizer) appendCallPrologue(clauses []ast.Clause) []ast.Clause {
	tmp := s.plan.nextAlias()
	items := ast.Window(&s.nodes.itemPtrs, 1, s.nodes.grow)
	items[0] = take(&s.nodes, &s.nodes.items)
	*items[0] = ast.ProjectionItem{Expr: ast.Lit(value.True), Alias: tmp}
	w := take(&s.nodes, &s.nodes.withs)
	w.Projection = ast.Projection{Distinct: true, Items: items}
	c := take(&s.nodes, &s.nodes.procs)
	c.Procedure = "db.labels"
	c.Yield = ast.Window(&s.nodes.strs, 1, s.nodes.grow)
	c.Yield[0] = "label"
	return append(clauses, c, w)
}

// synthMatch concretizes a MATCH step: base patterns for the elements to
// introduce, mutation against the pattern history, AST encoding,
// uniquifying predicates, dialect workarounds, and extra dependency
// predicates.
func (s *Synthesizer) synthMatch(step *Step) (ast.Clause, error) {
	required := s.required[:0]
	for _, o := range step.Ops {
		if o.Kind == OpAddElem {
			required = append(required, elemRef{id: o.Element, isRel: o.IsRel})
		}
	}
	s.required = required
	chains := s.chains.collectChains(s.r, s.g, required)
	if len(chains) == 0 {
		return nil, fmt.Errorf("empty graph: cannot synthesize MATCH")
	}
	if !s.cfg.DisableMutation {
		// Mutate a copy: a cross mutation whose recombined halves clash
		// on shared relationships can drop a chain, so fall back to the
		// unmutated base patterns if any required element is lost.
		if mutated := s.chains.mutateChains(s.r, s.chains.clonePaths(chains), s.history); coversAll(mutated, required) {
			chains = mutated
		}
	}
	enc := s.encodeChains(chains)
	s.history = append(s.history, chains...)

	preds := s.preds[:0]
	for _, p := range s.uniquify(enc) {
		if s.cfg.DisableComplexExprs {
			access, id, _ := s.pinAccess(p)
			preds = append(preds, s.nodes.bin(ast.OpEq, access, s.nodes.lit(id)))
		} else {
			preds = append(preds, s.pinPredicate(p, exprDepth))
		}
	}
	if !s.cfg.RelUniqueness {
		preds = s.appendPairwiseDistinct(preds, enc)
	}

	// Bind the intended elements in the tracker before generating the
	// dependency predicates, so they can reference this clause's
	// variables too (e.g. Figure 1's second MATCH referencing n2 and n5).
	for _, cv := range s.cvars {
		if !cv.used {
			continue
		}
		v := value.Node(cv.ref.id)
		if cv.ref.isRel {
			v = value.Rel(cv.ref.id)
		}
		s.tracker.Bind(cv.name, v)
		s.bindScope(cv.name, cv.ref)
	}

	for s.pct(truePredPct) {
		preds = append(preds, s.truePredicate(exprDepth))
		if len(preds) > 8 {
			break
		}
	}
	s.preds = preds

	parts := ast.Window(&s.nodes.partPtrs, len(enc), s.nodes.grow)
	for i, ec := range enc {
		parts[i] = ec.part
	}
	m := take(&s.nodes, &s.nodes.matches)
	*m = ast.MatchClause{
		Optional: s.pct(optionalMatchPct),
		Patterns: parts,
		Where:    s.nodes.and(preds),
	}
	return m, nil
}

// appendPairwiseDistinct appends the `e1 <> e2` workaround for dialects
// without relationship uniqueness (FalkorDB, Kùzu), as described in §4.
func (s *Synthesizer) appendPairwiseDistinct(out []ast.Expr, enc []*encChain) []ast.Expr {
	relVars := s.relVars[:0]
	for _, ec := range enc {
		for _, rp := range ec.part.Rels {
			if rp.Variable != "" && !containsStr(relVars, rp.Variable) {
				relVars = append(relVars, rp.Variable)
			}
		}
	}
	s.relVars = relVars
	for i := 0; i < len(relVars); i++ {
		for j := i + 1; j < len(relVars); j++ {
			out = append(out, s.nodes.bin(ast.OpNeq, ast.Var(relVars[i]), ast.Var(relVars[j])))
		}
	}
	return out
}

// synthUnwind concretizes an UNWIND step: a literal list whose first item
// references the anchor element and whose remaining items are arbitrary
// evaluable expressions (§3.2's L+ operation).
func (s *Synthesizer) synthUnwind(step *Step) (ast.Clause, error) {
	var op *Operation
	n := 0
	for _, o := range step.Ops {
		if o.Kind == OpExpandList {
			op = o
			n++
		}
	}
	if n != 1 {
		return nil, fmt.Errorf("UNWIND step must hold exactly one L+ operation, got %d", n)
	}
	size := op.listSize
	if size < 1 {
		size = 1 + s.r.Intn(2)
	}
	items := s.nodes.args(size)
	for i := range items {
		items[i] = s.randomScalarExpr(exprDepth / 2)
	}
	// Anchor the first item on the operation's element when its variable
	// is in scope, building a cross-step dependency.
	ref := elemRef{id: op.Element, isRel: op.IsRel}
	if v, ok := s.plan.elemVar(ref); ok {
		if _, inScope := s.lookupScope(v); inScope {
			if name, ok2 := s.randomPropName(ref); ok2 {
				items[0] = s.nodes.prop(v, name)
			}
		}
	}
	list := s.nodes.list(items)
	if err := s.tracker.Unwind(op.Var, list); err != nil {
		return nil, err
	}
	u := take(&s.nodes, &s.nodes.unwinds)
	*u = ast.UnwindClause{Expr: list, Alias: op.Var}
	return u, nil
}

// projOp returns the step's operation producing the variable: its last
// (E,p)+ operation, else its last A+ operation, else nil.
func projOp(step *Step, v string) *Operation {
	var access, alias *Operation
	for _, o := range step.Ops {
		if o.Var != v {
			continue
		}
		switch o.Kind {
		case OpAccessProp:
			access = o
		case OpAddAlias:
			alias = o
		}
	}
	if access != nil {
		return access
	}
	return alias
}

// itemExpr builds the projection item for the variable: the property
// access of an (E,p)+ operation, the expression of an A+ operation, or
// the variable itself, carried over.
func (s *Synthesizer) itemExpr(o *Operation, v string) (ast.Expr, error) {
	if o == nil {
		return ast.Var(v), nil
	}
	if o.Kind == OpAccessProp {
		ev, ok := s.plan.elemVar(elemRef{id: o.Element, isRel: o.IsRel})
		if !ok {
			return nil, fmt.Errorf("property access on unintroduced element %d", o.Element)
		}
		return s.nodes.prop(ev, o.Prop), nil
	}
	if e := s.entityAliasExpr(o); e != nil {
		return e, nil
	}
	return s.randomScalarExpr(exprDepth / 2), nil
}

// synthProjection concretizes a WITH or (when last) the final RETURN.
func (s *Synthesizer) synthProjection(step *Step, last bool) (ast.Clause, error) {
	outVars := s.outVars[:0]
	if last {
		for _, e := range s.plan.GT.Entries {
			outVars = append(outVars, e.Alias)
		}
	} else {
		outVars = append(outVars, step.VarsAfter...)
	}
	// A projection must project something; keep a constant column. Its
	// stand-in A+ operation has element 0, so entityAliasExpr may still
	// anchor it on that element.
	var constOp *Operation
	if len(outVars) == 0 {
		outVars = append(outVars, s.plan.nextAlias())
		constOp = &Operation{Kind: OpAddAlias, Var: outVars[0]}
	}
	s.outVars = outVars

	items := ast.Window(&s.nodes.itemPtrs, len(outVars), s.nodes.grow)
	titems := s.titems[:0]
	for i, v := range outVars {
		o := constOp
		if o == nil {
			o = projOp(step, v)
		}
		e, err := s.itemExpr(o, v)
		if err != nil {
			return nil, err
		}
		alias := v
		if ve, isVar := e.(*ast.Variable); isVar && ve.Name == v {
			alias = "" // plain carry: no AS needed
		}
		items[i] = take(&s.nodes, &s.nodes.items)
		*items[i] = ast.ProjectionItem{Expr: e, Alias: alias}
		titems = append(titems, ProjItem{Name: v, Expr: e})
	}
	s.titems = titems

	distinct := step.Ops.Has(OpTruncList) && s.pct(70)
	if !distinct && s.pct(15) {
		distinct = true
	}
	if err := s.tracker.Project(titems, distinct); err != nil {
		return nil, err
	}

	proj := ast.Projection{Distinct: distinct, Items: items}

	// ORDER BY over the projected columns, occasionally (Figure 8 style).
	if s.pct(25) {
		n := 1 + s.r.Intn(2)
		var pb [2]int
		perm := permPrefix(s.r, len(outVars), pb[:min(n, len(outVars))])
		proj.OrderBy = ast.Window(&s.nodes.sortPtrs, len(perm), s.nodes.grow)
		for k, j := range perm {
			proj.OrderBy[k] = take(&s.nodes, &s.nodes.sorts)
			*proj.OrderBy[k] = ast.SortItem{Expr: ast.Var(outVars[j]), Desc: s.r.Intn(2) == 0}
		}
	}
	// LIMIT is only order-independent when a single distinct row remains.
	if s.tracker.RowCount() <= 1 && s.pct(15) {
		k := 1 + s.r.Intn(3)
		if err := s.tracker.Limit(k); err == nil {
			proj.Limit = ast.Lit(value.Int(int64(k)))
		}
	}

	// Drop element variables that fell out of scope.
	kept := s.scope[:0]
	for _, sv := range s.scope {
		if containsStr(outVars, sv.name) {
			kept = append(kept, sv)
		}
	}
	s.scope = kept

	if last {
		r := take(&s.nodes, &s.nodes.returns)
		r.Projection = proj
		return r, nil
	}
	w := take(&s.nodes, &s.nodes.withs)
	w.Projection = proj
	if s.pct(30) {
		pred := s.truePredicate(exprDepth / 2)
		w.Where = pred
		if err := s.tracker.Filter(pred); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// entityAliasExpr builds a graph-function alias over the operation's
// anchor element when it is in scope — Figure 1's `endNode(r1) AS a2`
// pattern. It returns nil when no anchor applies, letting the caller fall
// back to a random scalar expression.
func (s *Synthesizer) entityAliasExpr(o *Operation) ast.Expr {
	if o.Element < 0 || s.r.Intn(2) == 0 {
		return nil
	}
	v, ok := s.plan.elemVar(elemRef{id: o.Element, isRel: o.IsRel})
	if !ok {
		return nil
	}
	if _, inScope := s.lookupScope(v); !inScope {
		return nil
	}
	var name string
	if o.IsRel {
		switch s.r.Intn(4) {
		case 0:
			name = "endNode"
		case 1:
			name = "startNode"
		case 2:
			name = "type"
		default:
			name = "id"
		}
	} else {
		switch s.r.Intn(3) {
		case 0:
			name = "labels"
		case 1:
			name = "id"
		default:
			name = "keys"
		}
	}
	return s.nodes.call(name, ast.Var(v))
}
