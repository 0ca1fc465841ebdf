// Package metrics computes the query-complexity metrics of Table 5 of
// the GQS paper from Cypher ASTs: the number of search patterns, the
// maximum expression nesting depth, the number of clauses, and the number
// of cross-clause data references. The same feature vector drives the
// trigger predicates of the injected-fault catalog.
package metrics

import (
	"strings"

	"gqs/internal/cypher/ast"
	"gqs/internal/cypher/parser"
	"gqs/internal/value"
)

// Features is the feature vector of one query.
type Features struct {
	// The four Table 5 metrics.
	Patterns     int // search patterns (pattern parts across MATCH/MERGE/CREATE)
	MaxExprDepth int // deepest expression nesting
	Clauses      int // clauses including subclauses usage via ClauseCounts
	CrossRefs    int // references to variables introduced in earlier clauses

	// Supporting detail.
	ClauseCounts map[string]int // per clause name, WHERE and ORDER BY included
	Functions    map[string]int // function invocation counts
	Hash         uint64         // FNV-1a of the query text (deterministic gating)

	// Special triggers observed in the paper's bugs.
	HasReplaceEmptyString bool // replace(s, '', r) — the Figure 9 Memgraph hang
	UnwindBeforeMatch     bool // UNWIND preceding a MATCH — the Figure 17 shape
	HasOrderBy            bool
	HasDistinct           bool
	HasLimit              bool
	HasUnion              bool
}

// Analyze parses and measures a query; it returns nil for unparsable text.
func Analyze(text string) *Features {
	q, err := parser.Parse(text)
	if err != nil {
		return nil
	}
	f := AnalyzeAST(q)
	f.Hash = TextHash(text)
	return f
}

// TextHash is the FNV-1a hash of a query text, the Features.Hash of
// that text.
func TextHash(text string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(text); i++ {
		h ^= uint64(text[i])
		h *= prime64
	}
	return h
}

// AnalyzeAST measures a query tree. The Hash field is left zero;
// Analyze fills it from the text.
//
// The tree may come from the parser or from the synthesizer, and both
// must measure as the parse of their printed text does: the parser
// folds a negated number into one literal, and reads a list or map
// value printed from a literal back as a list or map of literals, so
// those literals are measured in their parsed shape.
func AnalyzeAST(q *ast.Query) *Features {
	a := analyzer{f: &Features{
		ClauseCounts: map[string]int{},
		Functions:    map[string]int{},
	}}
	a.query(q)
	return a.f
}

// analyzer holds the state of one AnalyzeAST pass.
type analyzer struct {
	f *Features
	// introduced holds the first variables with the index of the clause
	// that introduced each, and more any further ones: a short query
	// binds too few names for a map to pay for itself, a long one too
	// many for a scan.
	introduced [8]introduction
	nintro     int
	more       map[string]int
	clauseIdx  int
}

type introduction struct {
	name   string
	clause int
}

func (a *analyzer) query(q *ast.Query) {
	f := a.f
	if len(q.Parts) > 1 {
		f.HasUnion = true
		f.ClauseCounts["UNION"] = len(q.Parts) - 1
	}
	sawMatch, unwinds := false, 0
	for _, part := range q.Parts {
		for _, c := range part.Clauses {
			f.Clauses++
			f.ClauseCounts[ast.ClauseName(c)]++
			switch c := c.(type) {
			case *ast.MatchClause:
				if !sawMatch && unwinds > 0 {
					f.UnwindBeforeMatch = true
				}
				sawMatch = true
				a.patterns(c.Patterns)
				if c.Where != nil {
					f.ClauseCounts["WHERE"]++
					a.note(c.Where)
				}
			case *ast.UnwindClause:
				unwinds++
				a.note(c.Expr)
				a.intro(c.Alias)
			case *ast.WithClause:
				a.projection(&c.Projection)
				if c.Where != nil {
					f.ClauseCounts["WHERE"]++
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
	for _, in := range a.introduced[:a.nintro] {
		if in.name == name {
			return in.clause, true
		}
	}
	at, ok := a.more[name]
	return at, ok
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
		f.ClauseCounts["DISTINCT"]++
	}
	if len(p.OrderBy) > 0 {
		f.HasOrderBy = true
		f.ClauseCounts["ORDER BY"]++
		for _, s := range p.OrderBy {
			a.note(s.Expr)
		}
	}
	if p.Skip != nil {
		f.ClauseCounts["SKIP"]++
		a.note(p.Skip)
	}
	if p.Limit != nil {
		f.HasLimit = true
		f.ClauseCounts["LIMIT"]++
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
		name := strings.ToLower(e.Name)
		a.f.Functions[name]++
		if name == "replace" && len(e.Args) == 3 {
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
// (patterns, depth, clauses, cross-references). Unlike Hash it survives
// semantics-preserving rewrites of the query text, which makes it the
// right key for modelling root-cause-determined behaviour.
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
