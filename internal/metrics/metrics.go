// Package metrics computes the query-complexity metrics of Table 5 of
// the GQS paper from Cypher ASTs: the number of search patterns, the
// maximum expression nesting depth, the number of clauses, and the number
// of cross-clause data references. The same feature vector drives the
// trigger predicates of the injected-fault catalog.
package metrics

import (
	"strings"
	"unicode/utf8"

	"gqs/internal/cypher/ast"
	"gqs/internal/cypher/parser"
	"gqs/internal/value"
)

// Features is the feature vector of one query.
type Features struct {
	// The four Table 5 metrics.
	Patterns     int // search patterns (pattern parts across MATCH/MERGE/CREATE)
	MaxExprDepth int // deepest expression nesting
	Clauses      int // clauses, without subclauses (see ClauseCount)
	CrossRefs    int // references to variables introduced in earlier clauses

	// Supporting detail: the count of each clause name, WHERE and ORDER
	// BY included (clauseNames order), and of each function, one entry
	// per name up to case.
	clauses [len(clauseNames)]int32
	funcs   []funcCount

	// Special triggers observed in the paper's bugs.
	HasReplaceEmptyString bool // replace(s, '', r) — the Figure 9 Memgraph hang
	UnwindBeforeMatch     bool // UNWIND preceding a MATCH — the Figure 17 shape
	HasOrderBy            bool
	HasDistinct           bool
	HasLimit              bool
	HasUnion              bool
}

// clauseNames are the names ClauseCount counts: ast.ClauseName's, and
// the subclauses.
var clauseNames = [...]string{
	"MATCH", "OPTIONAL MATCH", "UNWIND", "WITH", "RETURN", "CALL", "CREATE",
	"SET", "MERGE", "DELETE", "DETACH DELETE", "REMOVE", "?",
	"WHERE", "DISTINCT", "ORDER BY", "SKIP", "LIMIT", "UNION",
}

// clauseIndex returns the position of a clause name in clauseNames, or
// -1.
func clauseIndex(name string) int {
	for i, n := range clauseNames {
		if n == name {
			return i
		}
	}
	return -1
}

type funcCount struct {
	name string // as first spelled in the query
	n    int
}

// ClauseCount returns how often the clause or subclause occurs.
func (f *Features) ClauseCount(name string) int {
	if i := clauseIndex(name); i >= 0 {
		return int(f.clauses[i])
	}
	return 0
}

// EachClause calls visit for each clause name the query uses, with its
// count.
func (f *Features) EachClause(visit func(name string, n int)) {
	for i, n := range f.clauses {
		if n > 0 {
			visit(clauseNames[i], int(n))
		}
	}
}

// FuncCount returns how often the query calls the function, whose name
// is matched regardless of case.
func (f *Features) FuncCount(name string) int {
	for _, c := range f.funcs {
		if sameName(c.name, name) {
			return c.n
		}
	}
	return 0
}

// sameName reports whether two function names are equal once
// lower-cased, as the function registries compare them, without
// lower-casing ASCII names.
func sameName(a, b string) bool {
	if a == b {
		return true
	}
	if isASCII(a) && isASCII(b) {
		return len(a) == len(b) && strings.EqualFold(a, b)
	}
	return strings.ToLower(a) == strings.ToLower(b)
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// Analyze parses and measures a query; it returns nil for unparsable text.
func Analyze(text string) *Features {
	q, err := parser.Parse(text)
	if err != nil {
		return nil
	}
	return AnalyzeAST(q)
}

// AnalyzeAST measures a query tree.
//
// The tree may come from the parser or from the synthesizer, and both
// must measure as the parse of their printed text does: the parser
// folds a negated number into one literal, and reads a list or map
// value printed from a literal back as a list or map of literals, so
// those literals are measured in their parsed shape.
func AnalyzeAST(q *ast.Query) *Features {
	a := analyzer{f: &Features{}}
	a.query(q)
	if n := a.nfunc + len(a.moreFuncs); n > 0 {
		a.f.funcs = make([]funcCount, n)
		copy(a.f.funcs[copy(a.f.funcs, a.funcs[:a.nfunc]):], a.moreFuncs)
	}
	return a.f
}

// analyzer holds the state of one AnalyzeAST pass. Its tables keep their
// first entries in arrays and any further ones in a map or slice: a
// synthesized query introduces 20–30 variables and calls a dozen
// functions, so the overflow is rare.
type analyzer struct {
	f *Features
	// introduced holds the first variables with the index of the clause
	// that introduced each, found through the open-addressed hash table
	// slots (positions plus one), and more any further ones.
	introduced [32]introduction
	slots      [64]uint8
	nintro     int
	more       map[string]int
	clauseIdx  int
	// funcs counts the first function names, moreFuncs any further ones.
	funcs     [16]funcCount
	nfunc     int
	moreFuncs []funcCount
}

type introduction struct {
	name   string
	clause int
}

// counter returns the count of the named function, or nil. A query
// mostly repeats one spelling of a name, which the first pass finds.
func (a *analyzer) counter(name string) *funcCount {
	for pass := 0; pass < 2; pass++ {
		for _, cs := range [2][]funcCount{a.funcs[:a.nfunc], a.moreFuncs} {
			for i := range cs {
				if cs[i].name == name || pass == 1 && sameName(cs[i].name, name) {
					return &cs[i]
				}
			}
		}
	}
	return nil
}

// count adds one occurrence of a clause or subclause.
func (a *analyzer) count(name string, n int) {
	a.f.clauses[clauseIndex(name)] += int32(n)
}

// call counts one call of the named function.
func (a *analyzer) call(name string) {
	if c := a.counter(name); c != nil {
		c.n++
		return
	}
	if a.nfunc < len(a.funcs) {
		a.funcs[a.nfunc] = funcCount{name, 1}
		a.nfunc++
		return
	}
	a.moreFuncs = append(a.moreFuncs, funcCount{name, 1})
}

func (a *analyzer) query(q *ast.Query) {
	f := a.f
	if len(q.Parts) > 1 {
		f.HasUnion = true
		a.count("UNION", len(q.Parts)-1)
	}
	sawMatch, unwinds := false, 0
	for _, part := range q.Parts {
		for _, c := range part.Clauses {
			f.Clauses++
			a.count(ast.ClauseName(c), 1)
			switch c := c.(type) {
			case *ast.MatchClause:
				if !sawMatch && unwinds > 0 {
					f.UnwindBeforeMatch = true
				}
				sawMatch = true
				a.patterns(c.Patterns)
				if c.Where != nil {
					a.count("WHERE", 1)
					a.note(c.Where)
				}
			case *ast.UnwindClause:
				unwinds++
				a.note(c.Expr)
				a.intro(c.Alias)
			case *ast.WithClause:
				a.projection(&c.Projection)
				if c.Where != nil {
					a.count("WHERE", 1)
					a.note(c.Where)
				}
			case *ast.ReturnClause:
				a.projection(&c.Projection)
			case *ast.CallClause:
				for _, e := range c.Args {
					a.note(e)
				}
				for _, y := range c.Yield {
					a.intro(y)
				}
			case *ast.CreateClause:
				a.patterns(c.Patterns)
			case *ast.MergeClause:
				a.pattern(c.Pattern)
				f.Patterns++
			case *ast.SetClause:
				for _, it := range c.Items {
					a.note(it.Subject)
					a.note(it.Value)
				}
			case *ast.DeleteClause:
				for _, e := range c.Exprs {
					a.note(e)
				}
			case *ast.RemoveClause:
				for _, it := range c.Items {
					a.note(it.Subject)
				}
			}
			a.clauseIdx++
		}
	}
}

// introducedAt returns the clause that introduced the variable.
func (a *analyzer) introducedAt(name string) (int, bool) {
	for h := slotOf(name); a.slots[h] != 0; h = (h + 1) % len(a.slots) {
		if in := &a.introduced[a.slots[h]-1]; in.name == name {
			return in.clause, true
		}
	}
	at, ok := a.more[name]
	return at, ok
}

// slotOf is the home slot of a name in analyzer.slots: its FNV-1a hash.
func slotOf(name string) int {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return int(h % 64)
}

func (a *analyzer) intro(name string) {
	if name == "" {
		return
	}
	if _, ok := a.introducedAt(name); ok {
		return
	}
	if a.nintro < len(a.introduced) {
		a.introduced[a.nintro] = introduction{name, a.clauseIdx}
		a.nintro++
		h := slotOf(name)
		for a.slots[h] != 0 {
			h = (h + 1) % len(a.slots)
		}
		a.slots[h] = uint8(a.nintro)
		return
	}
	if a.more == nil {
		a.more = make(map[string]int)
	}
	a.more[name] = a.clauseIdx
}

// crossRef counts a reference to a variable an earlier clause introduced.
func (a *analyzer) crossRef(name string) {
	if at, ok := a.introducedAt(name); ok && at < a.clauseIdx {
		a.f.CrossRefs++
	}
}

func (a *analyzer) patterns(ps []*ast.PatternPart) {
	a.f.Patterns += len(ps)
	for _, p := range ps {
		a.pattern(p)
	}
}

func (a *analyzer) pattern(p *ast.PatternPart) {
	a.intro(p.Variable)
	for i, n := range p.Nodes {
		// A reference to a variable introduced earlier is a cross-clause
		// dependency even inside a pattern.
		a.crossRef(n.Variable)
		a.intro(n.Variable)
		if n.Props != nil {
			a.note(n.Props)
		}
		if i < len(p.Rels) {
			r := p.Rels[i]
			a.crossRef(r.Variable)
			a.intro(r.Variable)
			if r.Props != nil {
				a.note(r.Props)
			}
		}
	}
}

func (a *analyzer) projection(p *ast.Projection) {
	f := a.f
	for _, it := range p.Items {
		a.note(it.Expr)
		if it.Alias != "" {
			a.intro(it.Alias)
		} else if v, ok := it.Expr.(*ast.Variable); ok {
			a.intro(v.Name)
		}
	}
	if p.Distinct {
		f.HasDistinct = true
		a.count("DISTINCT", 1)
	}
	if len(p.OrderBy) > 0 {
		f.HasOrderBy = true
		a.count("ORDER BY", 1)
		for _, s := range p.OrderBy {
			a.note(s.Expr)
		}
	}
	if p.Skip != nil {
		a.count("SKIP", 1)
		a.note(p.Skip)
	}
	if p.Limit != nil {
		f.HasLimit = true
		a.count("LIMIT", 1)
		a.note(p.Limit)
	}
}

// note measures one top-level expression.
func (a *analyzer) note(e ast.Expr) {
	if e == nil {
		return
	}
	if d := a.expr(e); d > a.f.MaxExprDepth {
		a.f.MaxExprDepth = d
	}
}

// expr counts the function calls and cross-clause references of an
// expression and returns its nesting depth (a leaf has depth 1; a nil
// child, 0) in one walk.
func (a *analyzer) expr(e ast.Expr) int {
	d := 0
	child := func(c ast.Expr) {
		if c != nil {
			d = max(d, a.expr(c))
		}
	}
	switch e := e.(type) {
	case *ast.Literal:
		return literalDepth(e.Val)
	case *ast.Variable:
		a.crossRef(e.Name)
	case *ast.PropAccess:
		child(e.Subject)
	case *ast.Binary:
		child(e.L)
		child(e.R)
	case *ast.Unary:
		if _, ok := foldedNumber(e); ok {
			return 1
		}
		child(e.X)
	case *ast.FuncCall:
		a.call(e.Name)
		if len(e.Args) == 3 && sameName(e.Name, "replace") {
			if lit, ok := e.Args[1].(*ast.Literal); ok && lit.Val.Kind() == value.KindString && lit.Val.AsString() == "" {
				a.f.HasReplaceEmptyString = true
			}
		}
		for _, x := range e.Args {
			child(x)
		}
	case *ast.ListLit:
		for _, x := range e.Elems {
			child(x)
		}
	case *ast.MapLit:
		for _, x := range e.Vals {
			child(x)
		}
	case *ast.IndexExpr:
		child(e.Subject)
		child(e.Index)
	case *ast.SliceExpr:
		child(e.Subject)
		child(e.From)
		child(e.To)
	case *ast.CaseExpr:
		child(e.Test)
		for i := range e.Whens {
			child(e.Whens[i])
			child(e.Thens[i])
		}
		child(e.Else)
	case *ast.ListComprehension:
		child(e.List)
		child(e.Where)
		child(e.Map)
	case *ast.Quantifier:
		child(e.List)
		child(e.Pred)
	}
	return d + 1
}

// foldedNumber reports whether the parser reads the printed expression
// as a single numeric literal: a number under any run of negations,
// each of which the parser folds while the negation succeeds.
func foldedNumber(e ast.Expr) (value.Value, bool) {
	switch e := e.(type) {
	case *ast.Literal:
		return e.Val, e.Val.IsNumber()
	case *ast.Unary:
		if e.Op != ast.OpNeg {
			break
		}
		if v, ok := foldedNumber(e.X); ok {
			if n, err := value.Neg(v); err == nil {
				return n, true
			}
		}
	}
	return value.Null, false
}

// literalDepth is the depth of a literal's printed text as parsed: a
// list or map value prints as a list or map of literals.
func literalDepth(v value.Value) int {
	d := 0
	switch v.Kind() {
	case value.KindList:
		for _, el := range v.AsList() {
			d = max(d, literalDepth(el))
		}
	case value.KindMap:
		for _, el := range v.AsMap() {
			d = max(d, literalDepth(el))
		}
	}
	return d + 1
}

// CoarseSeed derives a stable value from the coarse feature vector
// (patterns, depth, clauses, cross-references). Unlike a hash of the
// text it survives semantics-preserving rewrites of the query, which
// makes it the right key for modelling root-cause-determined behaviour.
func (f *Features) CoarseSeed() uint64 {
	var h uint64 = 1469598103934665603
	mix := func(x int) {
		h = (h ^ uint64(x)) * 1099511628211
	}
	mix(f.Patterns)
	mix(f.MaxExprDepth)
	mix(f.Clauses)
	mix(f.CrossRefs)
	return h
}

// Aggregate sums feature vectors and reports the Table 5 row: averages of
// patterns, expression depth, clauses, and dependencies.
type Aggregate struct {
	N                                      int
	Patterns, Depth, Clauses, Dependencies float64
}

// Add accumulates one query's features.
func (a *Aggregate) Add(f *Features) {
	if f == nil {
		return
	}
	a.N++
	a.Patterns += float64(f.Patterns)
	a.Depth += float64(f.MaxExprDepth)
	a.Clauses += float64(f.Clauses)
	a.Dependencies += float64(f.CrossRefs)
}

// Averages returns the four Table 5 columns.
func (a *Aggregate) Averages() (patterns, depth, clauses, deps float64) {
	if a.N == 0 {
		return 0, 0, 0, 0
	}
	n := float64(a.N)
	return a.Patterns / n, a.Depth / n, a.Clauses / n, a.Dependencies / n
}
