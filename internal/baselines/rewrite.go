package baselines

import (
	"hash/fnv"

	"gqs/internal/cypher/ast"
	"gqs/internal/cypher/parser"
	"gqs/internal/engine"
)

// This file implements the two oracles that §5.4.3 replays against the
// GQS bug-triggering queries: GDBMeter's ternary-logic partitioning and
// GRev's equivalent query rewriting. Both work on arbitrary query text,
// which is what makes the replay experiment possible.

// TLPCheck applies GDBMeter's oracle to a query: the WHERE predicate p of
// the final MATCH clause partitions the result into p, NOT p, and
// p IS NULL; their union must equal the unfiltered result. It returns
// whether the oracle was applicable, whether the relation was violated,
// the executed queries, and the first execution error.
func TLPCheck(target Target, query string) (applied, violated bool, queries []string, err error) {
	build := func(f func(*ast.MatchClause, ast.Expr)) (string, bool) {
		q, perr := parser.Parse(query)
		if perr != nil {
			return "", false
		}
		var m *ast.MatchClause
		for _, c := range q.Parts[0].Clauses {
			// TLP partitions plain MATCH only: an unmatched OPTIONAL
			// MATCH emits a null row under every partition, so the
			// union relation does not hold for it.
			if mc, ok := c.(*ast.MatchClause); ok && mc.Where != nil && !mc.Optional {
				m = mc
			}
		}
		if m == nil {
			return "", false
		}
		f(m, m.Where)
		return q.String(), true
	}

	all, ok := build(func(m *ast.MatchClause, p ast.Expr) { m.Where = nil })
	if !ok {
		return false, false, nil, nil
	}
	qp, _ := build(func(m *ast.MatchClause, p ast.Expr) {})
	qnot, _ := build(func(m *ast.MatchClause, p ast.Expr) {
		m.Where = &ast.Unary{Op: ast.OpNot, X: p}
	})
	qnull, _ := build(func(m *ast.MatchClause, p ast.Expr) {
		m.Where = &ast.Unary{Op: ast.OpIsNull, X: p}
	})
	queries = []string{all, qp, qnot, qnull}

	results := make([]*engine.Result, 4)
	for i, q := range queries {
		results[i], err = target.Execute(q)
		if err != nil {
			return true, false, queries, err
		}
	}
	union := &engine.Result{Columns: results[0].Columns}
	for _, r := range results[1:] {
		union.Rows = append(union.Rows, r.Rows...)
	}
	return true, !multisetEqual(results[0], union), queries, nil
}

// GRevCheck applies GRev's oracle: rewrite the query into a semantically
// equivalent one and compare result multisets. The rewrite is chosen
// deterministically from the query hash.
func GRevCheck(target Target, query string) (applied, violated bool, queries []string, err error) {
	q, perr := parser.Parse(query)
	if perr != nil {
		return false, false, nil, nil
	}
	h := fnv.New64a()
	h.Write([]byte(query))
	rewritten, changed := RewriteEquivalent(q, h.Sum64())
	if !changed {
		return false, false, nil, nil
	}
	text := rewritten.String()
	queries = []string{query, text}
	a, err := target.Execute(query)
	if err != nil {
		return true, false, queries, err
	}
	b, err := target.Execute(text)
	if err != nil {
		return true, false, queries, err
	}
	return true, !multisetEqual(a, b), queries, nil
}

// RewriteEquivalent applies one of GRev's semantics-preserving rewrite
// rules, selected by the seed. It reports whether anything changed.
func RewriteEquivalent(q *ast.Query, seed uint64) (*ast.Query, bool) {
	rules := []func(*ast.Query) bool{
		reversePatterns,
		swapConjuncts,
		reorderPatternParts,
		insertWithStar,
		addRedundantOrderBy,
	}
	// Try rules starting at the seed position until one applies.
	for i := 0; i < len(rules); i++ {
		rule := rules[(int(seed)%len(rules)+len(rules)+i)%len(rules)]
		if rule(q) {
			return q, true
		}
	}
	return q, false
}

// reversePatterns reverses every pattern chain: (a)-[r]->(b) becomes
// (b)<-[r]-(a). Equivalent, but it starts graph traversal from the other
// end (the §3.4 observation).
func reversePatterns(q *ast.Query) bool {
	changed := false
	for _, part := range q.Parts {
		for _, c := range part.Clauses {
			m, ok := c.(*ast.MatchClause)
			if !ok {
				continue
			}
			for pi, p := range m.Patterns {
				if len(p.Nodes) < 2 {
					continue
				}
				m.Patterns[pi] = reversePart(p)
				changed = true
			}
		}
	}
	return changed
}

func reversePart(p *ast.PatternPart) *ast.PatternPart {
	n := len(p.Nodes)
	out := &ast.PatternPart{Variable: p.Variable,
		Nodes: make([]*ast.NodePattern, n),
		Rels:  make([]*ast.RelPattern, len(p.Rels))}
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

// swapConjuncts swaps the operands of top-level ANDs in WHERE predicates.
func swapConjuncts(q *ast.Query) bool {
	changed := false
	swap := func(e ast.Expr) ast.Expr {
		if b, ok := e.(*ast.Binary); ok && b.Op == ast.OpAnd {
			changed = true
			return &ast.Binary{Op: ast.OpAnd, L: b.R, R: b.L}
		}
		return e
	}
	for _, part := range q.Parts {
		for _, c := range part.Clauses {
			switch c := c.(type) {
			case *ast.MatchClause:
				if c.Where != nil {
					c.Where = swap(c.Where)
				}
			case *ast.WithClause:
				if c.Where != nil {
					c.Where = swap(c.Where)
				}
			}
		}
	}
	return changed
}

// reorderPatternParts reverses the comma-separated pattern list of each
// multi-pattern MATCH.
func reorderPatternParts(q *ast.Query) bool {
	changed := false
	for _, part := range q.Parts {
		for _, c := range part.Clauses {
			if m, ok := c.(*ast.MatchClause); ok && len(m.Patterns) > 1 {
				for i, j := 0, len(m.Patterns)-1; i < j; i, j = i+1, j-1 {
					m.Patterns[i], m.Patterns[j] = m.Patterns[j], m.Patterns[i]
				}
				changed = true
			}
		}
	}
	return changed
}

// insertWithStar inserts a redundant `WITH *` before the final RETURN: a
// no-op pipeline stage, but one more clause for the engine to plan.
func insertWithStar(q *ast.Query) bool {
	part := q.Parts[0]
	n := len(part.Clauses)
	if n < 2 {
		return false
	}
	if _, ok := part.Clauses[n-1].(*ast.ReturnClause); !ok {
		return false
	}
	with := &ast.WithClause{Projection: ast.Projection{Star: true}}
	part.Clauses = append(part.Clauses[:n-1], with, part.Clauses[n-1])
	return true
}

// addRedundantOrderBy sorts the final RETURN by its first column;
// multiset equality is unaffected.
func addRedundantOrderBy(q *ast.Query) bool {
	part := q.Parts[0]
	ret, ok := part.Clauses[len(part.Clauses)-1].(*ast.ReturnClause)
	if !ok || len(ret.OrderBy) > 0 || len(ret.Items) == 0 {
		return false
	}
	it := ret.Items[0]
	var key ast.Expr
	if it.Alias != "" {
		key = ast.Var(it.Alias)
	} else if v, isVar := it.Expr.(*ast.Variable); isVar {
		key = ast.Var(v.Name)
	} else {
		return false
	}
	ret.OrderBy = append(ret.OrderBy, &ast.SortItem{Expr: key})
	return true
}
