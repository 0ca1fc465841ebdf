package core

import (
	"gqs/internal/cypher/ast"
	"gqs/internal/value"
)

// astArena hands out the AST nodes of synthesized queries from one chunk
// per node kind, as the parser does for the tree of one parse, so that
// the hundreds of small nodes and lists of a query cost a few
// allocations instead of one each: its clauses and the query itself as
// well as its expressions and patterns. Nodes of candidate expressions
// the synthesizer discards stay in their chunk with the rest. Every take
// goes through ast.Window with the arena's growth rule, grow, which
// follows one of two lifetimes:
//
//   - Heap (NewSynthesizer): a tree stays valid as long as anything
//     holds it. A chunk lives as long as any node in it, and the garbage
//     collector then scans all of it, so queries that share chunks keep
//     each other's trees alive; the Synthesizer starts a fresh arena for
//     every graph, and every arenaQueries queries on one graph, to bound
//     that, and drops the old arena's chunks, never reuses them. Chunks
//     grow to a bound (ast.NextChunkCap).
//   - Rewound (the runner's synthesizer): a tree is valid only until the
//     synthesizer starts its next query, which rewinds every chunk
//     (ast.Rewind): it clears what the last query took, so nothing of it
//     stays reachable and every node comes out zero, and starts the
//     chunk over. A chunk that runs out is replaced by one twice its size
//     (ast.DoubleChunkCap) and left to the nodes already taken from it,
//     so once one chunk per kind holds a whole query, a query's tree
//     costs no allocation.
type astArena struct {
	grow func(prev, n int) int

	bins     []ast.Binary
	lits     []ast.Literal
	props    []ast.PropAccess
	unaries  []ast.Unary
	calls    []ast.FuncCall
	lists    []ast.ListLit
	comps    []ast.ListComprehension
	indexes  []ast.IndexExpr
	nodePats []ast.NodePattern
	relPats  []ast.RelPattern
	parts    []ast.PatternPart
	items    []ast.ProjectionItem
	sorts    []ast.SortItem
	matches  []ast.MatchClause
	withs    []ast.WithClause
	returns  []ast.ReturnClause
	unwinds  []ast.UnwindClause
	procs    []ast.CallClause
	singles  []ast.SingleQuery
	queries  []ast.Query

	// Slabs the lists of the tree are windows of (see ast.Window).
	exprs      []ast.Expr
	strs       []string
	bools      []bool
	nodePtrs   []*ast.NodePattern
	relPtrs    []*ast.RelPattern
	partPtrs   []*ast.PatternPart
	itemPtrs   []*ast.ProjectionItem
	sortPtrs   []*ast.SortItem
	clauses    []ast.Clause
	singlePtrs []*ast.SingleQuery
}

// take returns a zeroed node from the chunk c of arena a.
func take[T any](a *astArena, c *[]T) *T { return &ast.Window(c, 1, a.grow)[0] }

// rewind readies a rewound arena's chunks for the next query.
func (a *astArena) rewind() {
	ast.Rewind(&a.bins)
	ast.Rewind(&a.lits)
	ast.Rewind(&a.props)
	ast.Rewind(&a.unaries)
	ast.Rewind(&a.calls)
	ast.Rewind(&a.lists)
	ast.Rewind(&a.comps)
	ast.Rewind(&a.indexes)
	ast.Rewind(&a.nodePats)
	ast.Rewind(&a.relPats)
	ast.Rewind(&a.parts)
	ast.Rewind(&a.items)
	ast.Rewind(&a.sorts)
	ast.Rewind(&a.matches)
	ast.Rewind(&a.withs)
	ast.Rewind(&a.returns)
	ast.Rewind(&a.unwinds)
	ast.Rewind(&a.procs)
	ast.Rewind(&a.singles)
	ast.Rewind(&a.queries)
	ast.Rewind(&a.exprs)
	ast.Rewind(&a.strs)
	ast.Rewind(&a.bools)
	ast.Rewind(&a.nodePtrs)
	ast.Rewind(&a.relPtrs)
	ast.Rewind(&a.partPtrs)
	ast.Rewind(&a.itemPtrs)
	ast.Rewind(&a.sortPtrs)
	ast.Rewind(&a.clauses)
	ast.Rewind(&a.singlePtrs)
}

func (a *astArena) bin(op ast.BinOp, l, r ast.Expr) *ast.Binary {
	b := take(a, &a.bins)
	*b = ast.Binary{Op: op, L: l, R: r}
	return b
}

// lit returns a literal node; null, bools and small integers use ast's
// shared interned nodes, as ast.Lit does.
func (a *astArena) lit(v value.Value) *ast.Literal {
	if l := ast.InternedLit(v); l != nil {
		return l
	}
	l := take(a, &a.lits)
	l.Val = v
	return l
}

// prop returns varName.name.
func (a *astArena) prop(varName, name string) *ast.PropAccess {
	p := take(a, &a.props)
	*p = ast.PropAccess{Subject: ast.Var(varName), Name: name}
	return p
}

func (a *astArena) unary(op ast.UnOp, x ast.Expr) *ast.Unary {
	u := take(a, &a.unaries)
	*u = ast.Unary{Op: op, X: x}
	return u
}

// args returns a window of n expressions.
func (a *astArena) args(n int) []ast.Expr { return ast.Window(&a.exprs, n, a.grow) }

// call returns the function call name(args...).
func (a *astArena) call(name string, args ...ast.Expr) *ast.FuncCall {
	w := a.args(len(args))
	copy(w, args)
	c := take(a, &a.calls)
	*c = ast.FuncCall{Name: name, Args: w}
	return c
}

// list returns a list literal over elems, a window from args.
func (a *astArena) list(elems []ast.Expr) *ast.ListLit {
	l := take(a, &a.lists)
	l.Elems = elems
	return l
}

// list1 returns the one-element list [el].
func (a *astArena) list1(el ast.Expr) *ast.ListLit {
	w := a.args(1)
	w[0] = el
	return a.list(w)
}

// identity returns the identity comprehension [v IN list | v].
func (a *astArena) identity(v *ast.Variable, list ast.Expr) *ast.ListComprehension {
	c := take(a, &a.comps)
	*c = ast.ListComprehension{Var: v.Name, List: list, Map: v}
	return c
}

// index returns subject[i].
func (a *astArena) index(subject, i ast.Expr) *ast.IndexExpr {
	x := take(a, &a.indexes)
	*x = ast.IndexExpr{Subject: subject, Index: i}
	return x
}

// and builds the conjunction of the non-nil predicates, left-deep as
// ast.And does: nil for none, the predicate itself for one.
func (a *astArena) and(preds []ast.Expr) ast.Expr {
	var out ast.Expr
	for _, p := range preds {
		if p == nil {
			continue
		}
		if out == nil {
			out = p
		} else {
			out = a.bin(ast.OpAnd, out, p)
		}
	}
	return out
}
