package core

import (
	"gqs/internal/cypher/ast"
	"gqs/internal/value"
)

// astArena hands out the AST nodes of synthesized queries from
// ast.Chunk arenas, as the parser does for the tree of one parse, so
// that the hundreds of small nodes and lists of a query cost a few
// allocations instead of one each: its clauses and the query itself as
// well as its expressions and patterns. A chunk lives as long as any
// node in it, and the garbage collector then scans all of it, so queries
// that share chunks keep each other's trees alive; the Synthesizer
// starts a fresh arena for every graph, and every arenaQueries queries
// on one graph, to bound that. It drops the old arena's chunks, never
// reuses them: a tree stays valid as long as anything holds it. Nodes
// of candidate expressions the synthesizer discards stay in their chunk
// until it dies.
type astArena struct {
	bins     ast.Chunk[ast.Binary]
	lits     ast.Chunk[ast.Literal]
	props    ast.Chunk[ast.PropAccess]
	unaries  ast.Chunk[ast.Unary]
	calls    ast.Chunk[ast.FuncCall]
	lists    ast.Chunk[ast.ListLit]
	nodePats ast.Chunk[ast.NodePattern]
	relPats  ast.Chunk[ast.RelPattern]
	parts    ast.Chunk[ast.PatternPart]
	items    ast.Chunk[ast.ProjectionItem]
	sorts    ast.Chunk[ast.SortItem]
	matches  ast.Chunk[ast.MatchClause]
	withs    ast.Chunk[ast.WithClause]
	returns  ast.Chunk[ast.ReturnClause]
	unwinds  ast.Chunk[ast.UnwindClause]
	singles  ast.Chunk[ast.SingleQuery]
	queries  ast.Chunk[ast.Query]

	// Slabs the lists of the tree are windows of (see ast.Window).
	exprs      []ast.Expr
	strs       []string
	nodePtrs   []*ast.NodePattern
	relPtrs    []*ast.RelPattern
	partPtrs   []*ast.PatternPart
	itemPtrs   []*ast.ProjectionItem
	sortPtrs   []*ast.SortItem
	clauses    []ast.Clause
	singlePtrs []*ast.SingleQuery
}

func (a *astArena) bin(op ast.BinOp, l, r ast.Expr) *ast.Binary {
	b := a.bins.Alloc()
	*b = ast.Binary{Op: op, L: l, R: r}
	return b
}

// lit returns a literal node; null, bools and small integers use ast's
// shared interned nodes, as ast.Lit does.
func (a *astArena) lit(v value.Value) *ast.Literal {
	if l := ast.InternedLit(v); l != nil {
		return l
	}
	l := a.lits.Alloc()
	l.Val = v
	return l
}

// prop returns varName.name.
func (a *astArena) prop(varName, name string) *ast.PropAccess {
	p := a.props.Alloc()
	*p = ast.PropAccess{Subject: ast.Var(varName), Name: name}
	return p
}

func (a *astArena) unary(op ast.UnOp, x ast.Expr) *ast.Unary {
	u := a.unaries.Alloc()
	*u = ast.Unary{Op: op, X: x}
	return u
}

// args returns a window of n expressions.
func (a *astArena) args(n int) []ast.Expr { return ast.Window(&a.exprs, n, ast.NextChunkCap) }

// call returns the function call name(args...).
func (a *astArena) call(name string, args ...ast.Expr) *ast.FuncCall {
	w := a.args(len(args))
	copy(w, args)
	c := a.calls.Alloc()
	*c = ast.FuncCall{Name: name, Args: w}
	return c
}

// list returns a list literal over elems, a window from args.
func (a *astArena) list(elems []ast.Expr) *ast.ListLit {
	l := a.lists.Alloc()
	l.Elems = elems
	return l
}

// list1 returns the one-element list [el].
func (a *astArena) list1(el ast.Expr) *ast.ListLit {
	w := a.args(1)
	w[0] = el
	return a.list(w)
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
