package ast

// WalkExprs calls f for every expression node reachable from e, in
// pre-order. If f returns false the node's children are skipped.
func WalkExprs(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch e := e.(type) {
	case *PropAccess:
		WalkExprs(e.Subject, f)
	case *Binary:
		WalkExprs(e.L, f)
		WalkExprs(e.R, f)
	case *Unary:
		WalkExprs(e.X, f)
	case *FuncCall:
		for _, a := range e.Args {
			WalkExprs(a, f)
		}
	case *ListLit:
		for _, el := range e.Elems {
			WalkExprs(el, f)
		}
	case *MapLit:
		for _, v := range e.Vals {
			WalkExprs(v, f)
		}
	case *IndexExpr:
		WalkExprs(e.Subject, f)
		WalkExprs(e.Index, f)
	case *SliceExpr:
		WalkExprs(e.Subject, f)
		WalkExprs(e.From, f)
		WalkExprs(e.To, f)
	case *CaseExpr:
		WalkExprs(e.Test, f)
		for i := range e.Whens {
			WalkExprs(e.Whens[i], f)
			WalkExprs(e.Thens[i], f)
		}
		WalkExprs(e.Else, f)
	case *ListComprehension:
		WalkExprs(e.List, f)
		WalkExprs(e.Where, f)
		WalkExprs(e.Map, f)
	case *Quantifier:
		WalkExprs(e.List, f)
		WalkExprs(e.Pred, f)
	}
}

// ClauseExprs calls f for every top-level expression appearing in the
// clause (WHERE predicates, projection items, pattern property maps, ...).
func ClauseExprs(c Clause, f func(Expr)) {
	visit := func(e Expr) {
		if e != nil {
			f(e)
		}
	}
	patterns := func(ps []*PatternPart) {
		for _, p := range ps {
			for _, n := range p.Nodes {
				if n.Props != nil {
					visit(n.Props)
				}
			}
			for _, r := range p.Rels {
				if r.Props != nil {
					visit(r.Props)
				}
			}
		}
	}
	projection := func(p *Projection) {
		for _, it := range p.Items {
			visit(it.Expr)
		}
		for _, s := range p.OrderBy {
			visit(s.Expr)
		}
		visit(p.Skip)
		visit(p.Limit)
	}
	switch c := c.(type) {
	case *MatchClause:
		patterns(c.Patterns)
		visit(c.Where)
	case *UnwindClause:
		visit(c.Expr)
	case *WithClause:
		projection(&c.Projection)
		visit(c.Where)
	case *ReturnClause:
		projection(&c.Projection)
	case *CallClause:
		for _, a := range c.Args {
			visit(a)
		}
	case *CreateClause:
		patterns(c.Patterns)
	case *SetClause:
		for _, it := range c.Items {
			visit(it.Subject)
			visit(it.Value)
		}
	case *MergeClause:
		patterns([]*PatternPart{c.Pattern})
		for _, it := range append(append([]*SetItem{}, c.OnCreate...), c.OnMatch...) {
			visit(it.Subject)
			visit(it.Value)
		}
	case *DeleteClause:
		for _, e := range c.Exprs {
			visit(e)
		}
	case *RemoveClause:
		for _, it := range c.Items {
			visit(it.Subject)
		}
	}
}

// Clauses returns all clauses of the query across UNION parts.
func (q *Query) AllClauses() []Clause {
	var out []Clause
	for _, p := range q.Parts {
		out = append(out, p.Clauses...)
	}
	return out
}

// Variables returns the names of the free variables referenced by the
// expression, in first-occurrence order. Variables bound by list
// comprehensions or quantifiers are not free within their scope.
// The variable counts involved are far too small for a map to pay for
// itself, so duplicates are dropped by a linear scan.
func Variables(e Expr) []string {
	var out []string
	EachFreeVar(e, func(name string) {
		for _, s := range out {
			if s == name {
				return
			}
		}
		out = append(out, name)
	})
	return out
}

// EachFreeVar calls visit for every occurrence of a free variable of the
// expression, in pre-order. Variables bound by list comprehensions or
// quantifiers are not free within their scope.
func EachFreeVar(e Expr, visit func(name string)) {
	eachFreeVar(e, visit, nil)
}

// eachFreeVar threads the binder stack as a parameter, so the common
// binder-free walk allocates nothing.
func eachFreeVar(e Expr, visit func(string), bound []string) {
	switch e := e.(type) {
	case nil:
	case *Variable:
		for _, b := range bound {
			if b == e.Name {
				return // bound locally, not free
			}
		}
		visit(e.Name)
	case *Literal, *Parameter:
	case *PropAccess:
		eachFreeVar(e.Subject, visit, bound)
	case *Binary:
		eachFreeVar(e.L, visit, bound)
		eachFreeVar(e.R, visit, bound)
	case *Unary:
		eachFreeVar(e.X, visit, bound)
	case *FuncCall:
		for _, a := range e.Args {
			eachFreeVar(a, visit, bound)
		}
	case *ListLit:
		for _, el := range e.Elems {
			eachFreeVar(el, visit, bound)
		}
	case *MapLit:
		for _, v := range e.Vals {
			eachFreeVar(v, visit, bound)
		}
	case *IndexExpr:
		eachFreeVar(e.Subject, visit, bound)
		eachFreeVar(e.Index, visit, bound)
	case *SliceExpr:
		eachFreeVar(e.Subject, visit, bound)
		eachFreeVar(e.From, visit, bound)
		eachFreeVar(e.To, visit, bound)
	case *CaseExpr:
		eachFreeVar(e.Test, visit, bound)
		for i := range e.Whens {
			eachFreeVar(e.Whens[i], visit, bound)
			eachFreeVar(e.Thens[i], visit, bound)
		}
		eachFreeVar(e.Else, visit, bound)
	case *ListComprehension:
		eachFreeVar(e.List, visit, bound) // the list is evaluated outside the binding
		inner := append(bound, e.Var)
		eachFreeVar(e.Where, visit, inner)
		eachFreeVar(e.Map, visit, inner)
	case *Quantifier:
		eachFreeVar(e.List, visit, bound)
		eachFreeVar(e.Pred, visit, append(bound, e.Var))
	}
}

// Depth returns the maximum nesting depth of the expression tree, where a
// leaf has depth 1. It is the Table 5 "Expression" metric for one
// expression.
func Depth(e Expr) int {
	if e == nil {
		return 0
	}
	max := 0
	children := func(ds ...int) {
		for _, d := range ds {
			if d > max {
				max = d
			}
		}
	}
	switch e := e.(type) {
	case *PropAccess:
		children(Depth(e.Subject))
	case *Binary:
		children(Depth(e.L), Depth(e.R))
	case *Unary:
		children(Depth(e.X))
	case *FuncCall:
		for _, a := range e.Args {
			children(Depth(a))
		}
	case *ListLit:
		for _, el := range e.Elems {
			children(Depth(el))
		}
	case *MapLit:
		for _, v := range e.Vals {
			children(Depth(v))
		}
	case *IndexExpr:
		children(Depth(e.Subject), Depth(e.Index))
	case *SliceExpr:
		children(Depth(e.Subject), Depth(e.From), Depth(e.To))
	case *CaseExpr:
		children(Depth(e.Test), Depth(e.Else))
		for i := range e.Whens {
			children(Depth(e.Whens[i]), Depth(e.Thens[i]))
		}
	case *ListComprehension:
		children(Depth(e.List), Depth(e.Where), Depth(e.Map))
	case *Quantifier:
		children(Depth(e.List), Depth(e.Pred))
	}
	return max + 1
}
