package core

import (
	"fmt"
	"math/rand"
	"strings"

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
	MaxSteps  int
	Plan      PlanConfig
	ExprDepth int // nesting depth bound for §3.5 expressions

	// Target-dialect awareness (§4, "Handling GDB-specific Cypher
	// Variations"): without relationship uniqueness GQS appends pairwise
	// `<>` predicates; with db.labels() it may prepend a CALL prologue.
	RelUniqueness    bool
	ProvidesDBLabels bool

	OptionalMatchPct int // % of MATCH steps synthesized as OPTIONAL MATCH
	UnionPct         int // % of queries extended with a UNION branch
	CallPct          int // % of queries prefixed with a CALL prologue
	TruePredPct      int // % chance of each extra dependency predicate

	// Ablations (§4 of DESIGN.md).
	DisableMutation     bool // no pattern mutation against history
	DisableComplexExprs bool // plain `var.id = c` pins, no nesting
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		MaxSteps:         9,
		Plan:             DefaultPlanConfig(),
		ExprDepth:        4,
		RelUniqueness:    true,
		ProvidesDBLabels: true,
		OptionalMatchPct: 25,
		UnionPct:         10,
		CallPct:          10,
		TruePredPct:      60,
	}
}

// Synthesized is one synthesized test case: the query, its text, and the
// expected result established before synthesis (the ground truth plus the
// multiplicity the clause pipeline implies).
type Synthesized struct {
	Query    *ast.Query
	Text     string
	Expected *engine.Result
	Steps    int
	GT       *GroundTruth
}

// Synthesizer builds queries for one generated graph.
type Synthesizer struct {
	r      *rand.Rand
	g      *graph.Graph
	schema *graph.Schema
	cfg    Config

	plan      *Plan
	tracker   *Tracker
	history   []*Path
	elemScope map[string]graph.ID

	// constCtx and constEnv are the reusable scratch state of evalConst:
	// synthesis is single-threaded, and evaluation retains neither the
	// context nor the map in its result (results only alias the
	// substituted values, which the caller owns).
	constCtx eval.Ctx
	constEnv map[string]value.Value
	// tmplScratch is the reusable candidate buffer of complexifyAccess's
	// template filter; the selection only reads the current round's
	// contents, so the backing array carries over between rounds.
	tmplScratch []exprTemplate
	// compCur and compNext are complexifyAccess's per-competitor value
	// buffers, kept between calls.
	compCur, compNext []value.Value
}

// NewSynthesizer creates a synthesizer over the generated graph.
func NewSynthesizer(r *rand.Rand, g *graph.Graph, schema *graph.Schema, cfg Config) *Synthesizer {
	if cfg.MaxSteps == 0 {
		cfg = DefaultConfig()
	}
	return &Synthesizer{r: r, g: g, schema: schema, cfg: cfg}
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

// Synthesize builds a complete test query for the ground truth,
// implementing step ③ of the GQS workflow.
func (s *Synthesizer) Synthesize(gt *GroundTruth) (*Synthesized, error) {
	return s.synthesize(gt, true)
}

func (s *Synthesizer) synthesize(gt *GroundTruth, allowUnion bool) (*Synthesized, error) {
	s.plan = BuildPlan(s.r, s.g, gt, s.cfg.Plan)
	steps := Schedule(s.r, s.plan, s.cfg.MaxSteps)
	s.tracker = NewTracker(s.g)
	s.history = nil
	s.elemScope = map[string]graph.ID{}

	var clauses []ast.Clause
	if s.cfg.ProvidesDBLabels && s.pct(s.cfg.CallPct) {
		clauses = append(clauses, s.callPrologue()...)
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
			return nil, err
		}
		clauses = append(clauses, c)
	}

	q := &ast.Query{Parts: []*ast.SingleQuery{{Clauses: clauses}}}
	expected := s.tracker.Result(gt.ExpectedColumns())

	if allowUnion && s.pct(s.cfg.UnionPct) {
		second := NewSynthesizer(s.r, s.g, s.schema, s.cfg)
		s2, err := second.synthesize(gt, false)
		if err == nil {
			all := s.r.Intn(2) == 0
			q.Parts = append(q.Parts, s2.Query.Parts...)
			q.All = append(q.All, all)
			expected.Rows = append(expected.Rows, s2.Expected.Rows...)
			if !all {
				expected = dedupeResult(expected)
			}
		}
	}

	return &Synthesized{
		Query:    q,
		Text:     q.String(),
		Expected: expected,
		Steps:    len(steps),
		GT:       gt,
	}, nil
}

func dedupeResult(r *engine.Result) *engine.Result {
	seen := map[string]bool{}
	out := &engine.Result{Columns: r.Columns}
	for i, row := range r.Rows {
		_ = i
		var kb strings.Builder
		for _, v := range row {
			v.AppendKey(&kb)
			kb.WriteByte('|')
		}
		key := kb.String()
		if !seen[key] {
			seen[key] = true
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// callPrologue emits `CALL db.labels() YIELD label WITH DISTINCT true AS
// tN` — the §4 CALL integration. The DISTINCT projection collapses the
// label rows back to the single row the rest of the pipeline expects.
func (s *Synthesizer) callPrologue() []ast.Clause {
	tmp := s.plan.nextAlias()
	return []ast.Clause{
		&ast.CallClause{Procedure: "db.labels", Yield: []string{"label"}},
		&ast.WithClause{Projection: ast.Projection{
			Distinct: true,
			Items:    []*ast.ProjectionItem{{Expr: ast.Lit(value.True), Alias: tmp}},
		}},
	}
}

// synthMatch concretizes a MATCH step: base patterns for the elements to
// introduce, mutation against the pattern history, AST encoding,
// uniquifying predicates, dialect workarounds, and extra dependency
// predicates.
func (s *Synthesizer) synthMatch(step *Step) (ast.Clause, error) {
	var required []elemRef
	for _, o := range step.Ops.OfKind(OpAddElem) {
		required = append(required, elemRef{id: o.Element, isRel: o.IsRel})
	}
	chains := collectChains(s.r, s.g, required)
	if len(chains) == 0 {
		return nil, fmt.Errorf("empty graph: cannot synthesize MATCH")
	}
	if !s.cfg.DisableMutation {
		// Mutate a copy: a cross mutation whose recombined halves clash
		// on shared relationships can drop a chain, so fall back to the
		// unmutated base patterns if any required element is lost.
		if mutated := mutateChains(s.r, clonePaths(chains), s.history); coversAll(mutated, required) {
			chains = mutated
		}
	}
	enc, binding := s.encodeChains(chains, s.elemScope)
	s.history = append(s.history, chains...)

	pins := s.uniquify(enc, s.elemScope, binding)
	var preds []ast.Expr
	for _, p := range pins {
		if s.cfg.DisableComplexExprs {
			access, id, _ := s.pinAccess(p)
			preds = append(preds, ast.Bin(ast.OpEq, access, ast.Lit(id)))
		} else {
			preds = append(preds, s.pinPredicate(p, s.cfg.ExprDepth))
		}
	}
	if !s.cfg.RelUniqueness {
		preds = append(preds, pairwiseDistinct(enc)...)
	}

	// Bind the intended elements in the tracker before generating the
	// dependency predicates, so they can reference this clause's
	// variables too (e.g. Figure 1's second MATCH referencing n2 and n5).
	vals := make(map[string]value.Value, len(binding))
	for v, id := range binding {
		if s.g.Rel(id) != nil {
			vals[v] = value.Rel(id)
		} else {
			vals[v] = value.Node(id)
		}
		s.elemScope[v] = id
	}
	s.tracker.Bind(vals)

	for s.pct(s.cfg.TruePredPct) {
		preds = append(preds, s.truePredicate(s.cfg.ExprDepth))
		if len(preds) > 8 {
			break
		}
	}

	parts := make([]*ast.PatternPart, len(enc))
	for i, ec := range enc {
		parts[i] = ec.part
	}
	return &ast.MatchClause{
		Optional: s.pct(s.cfg.OptionalMatchPct),
		Patterns: parts,
		Where:    ast.And(preds...),
	}, nil
}

// pairwiseDistinct emits the `e1 <> e2` workaround for dialects without
// relationship uniqueness (FalkorDB, Kùzu), as described in §4.
func pairwiseDistinct(enc []*encChain) []ast.Expr {
	var relVars []string
	seen := map[string]bool{}
	for _, ec := range enc {
		for _, rp := range ec.part.Rels {
			if rp.Variable != "" && !seen[rp.Variable] {
				seen[rp.Variable] = true
				relVars = append(relVars, rp.Variable)
			}
		}
	}
	var out []ast.Expr
	for i := 0; i < len(relVars); i++ {
		for j := i + 1; j < len(relVars); j++ {
			out = append(out, ast.Bin(ast.OpNeq, ast.Var(relVars[i]), ast.Var(relVars[j])))
		}
	}
	return out
}

// synthUnwind concretizes an UNWIND step: a literal list whose first item
// references the anchor element and whose remaining items are arbitrary
// evaluable expressions (§3.2's L+ operation).
func (s *Synthesizer) synthUnwind(step *Step) (ast.Clause, error) {
	ops := step.Ops.OfKind(OpExpandList)
	if len(ops) != 1 {
		return nil, fmt.Errorf("UNWIND step must hold exactly one L+ operation, got %d", len(ops))
	}
	op := ops[0]
	size := s.plan.ListSizes[op.Var]
	if size < 1 {
		size = 1 + s.r.Intn(2)
	}
	items := make([]ast.Expr, size)
	for i := range items {
		items[i] = s.randomScalarExpr(s.cfg.ExprDepth / 2)
	}
	// Anchor the first item on the operation's element when its variable
	// is in scope, building a cross-step dependency.
	if v, ok := s.plan.ElemVar[elemRef{id: op.Element, isRel: op.IsRel}]; ok {
		if _, inScope := s.elemScope[v]; inScope {
			if name, ok2 := s.randomPropName(elemRef{id: op.Element, isRel: op.IsRel}); ok2 {
				items[0] = ast.Prop(v, name)
			}
		}
	}
	list := &ast.ListLit{Elems: items}
	if err := s.tracker.Unwind(op.Var, list); err != nil {
		return nil, err
	}
	return &ast.UnwindClause{Expr: list, Alias: op.Var}, nil
}

// synthProjection concretizes a WITH or (when last) the final RETURN.
func (s *Synthesizer) synthProjection(step *Step, last bool) (ast.Clause, error) {
	accessOps := map[string]*Operation{}
	aliasOps := map[string]*Operation{}
	for _, o := range step.Ops {
		switch o.Kind {
		case OpAccessProp:
			accessOps[o.Var] = o
		case OpAddAlias:
			aliasOps[o.Var] = o
		}
	}

	itemExpr := func(v string) (ast.Expr, error) {
		if o, ok := accessOps[v]; ok {
			ref := elemRef{id: o.Element, isRel: o.IsRel}
			ev, ok := s.plan.ElemVar[ref]
			if !ok {
				return nil, fmt.Errorf("property access on unintroduced element %d", o.Element)
			}
			return ast.Prop(ev, o.Prop), nil
		}
		if o, ok := aliasOps[v]; ok {
			if e := s.entityAliasExpr(o); e != nil {
				return e, nil
			}
			return s.randomScalarExpr(s.cfg.ExprDepth / 2), nil
		}
		return ast.Var(v), nil
	}

	var outVars []string
	if last {
		outVars = s.plan.GT.ExpectedColumns()
	} else {
		outVars = step.VarsAfter
	}
	if len(outVars) == 0 {
		// A projection must project something; keep a constant column.
		outVars = []string{s.plan.nextAlias()}
		aliasOps[outVars[0]] = &Operation{Kind: OpAddAlias, Var: outVars[0]}
	}

	items := make([]*ast.ProjectionItem, len(outVars))
	titems := make([]ProjItem, len(outVars))
	for i, v := range outVars {
		e, err := itemExpr(v)
		if err != nil {
			return nil, err
		}
		alias := v
		if ve, isVar := e.(*ast.Variable); isVar && ve.Name == v {
			alias = "" // plain carry: no AS needed
		}
		items[i] = &ast.ProjectionItem{Expr: e, Alias: alias}
		titems[i] = ProjItem{Name: v, Expr: e}
	}

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
		perm := s.r.Perm(len(outVars))
		for _, j := range perm[:min(n, len(outVars))] {
			proj.OrderBy = append(proj.OrderBy, &ast.SortItem{
				Expr: ast.Var(outVars[j]),
				Desc: s.r.Intn(2) == 0,
			})
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
	newScope := map[string]graph.ID{}
	for _, v := range outVars {
		if id, ok := s.elemScope[v]; ok {
			newScope[v] = id
		}
	}
	s.elemScope = newScope

	if last {
		return &ast.ReturnClause{Projection: proj}, nil
	}
	w := &ast.WithClause{Projection: proj}
	if s.pct(30) {
		pred := s.truePredicate(s.cfg.ExprDepth / 2)
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
	v, ok := s.plan.ElemVar[elemRef{id: o.Element, isRel: o.IsRel}]
	if !ok {
		return nil
	}
	if _, inScope := s.elemScope[v]; !inScope {
		return nil
	}
	if o.IsRel {
		switch s.r.Intn(4) {
		case 0:
			return &ast.FuncCall{Name: "endNode", Args: []ast.Expr{ast.Var(v)}}
		case 1:
			return &ast.FuncCall{Name: "startNode", Args: []ast.Expr{ast.Var(v)}}
		case 2:
			return &ast.FuncCall{Name: "type", Args: []ast.Expr{ast.Var(v)}}
		default:
			return &ast.FuncCall{Name: "id", Args: []ast.Expr{ast.Var(v)}}
		}
	}
	switch s.r.Intn(3) {
	case 0:
		return &ast.FuncCall{Name: "labels", Args: []ast.Expr{ast.Var(v)}}
	case 1:
		return &ast.FuncCall{Name: "id", Args: []ast.Expr{ast.Var(v)}}
	default:
		return &ast.FuncCall{Name: "keys", Args: []ast.Expr{ast.Var(v)}}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
