package metrics

import (
	"reflect"
	"testing"

	"gqs/internal/cypher/ast"
	"gqs/internal/cypher/parser"
	"gqs/internal/value"
)

func TestAnalyzeFigure1(t *testing.T) {
	// The Figure 1 FalkorDB bug query.
	q := `MATCH (n2)<-[r1]->(n0), (n3)-[r2]->(n4)-[r3]->(n5) WHERE r1.id=13
	 UNWIND [n5.k2 <> r3.id, false] as a1
	 WITH DISTINCT n2, r3, n3, n4, n5, endNode(r1) as a2, n0
	 MATCH (n2)<-[r4:T10]->(n0), (n3)-[r5]->(n4)-[r6]->(n5)
	 WHERE (((r6.k85)+(n2.k11)) ENDS WITH 'q11cZH6h') AND
	   ((n2.k9) = -1982025281) AND (n5.k2<=-881779936)
	 RETURN n2.id as a3, r6.id as a4`
	f := Analyze(q)
	if f == nil {
		t.Fatal("Figure 1 query must parse")
	}
	if f.Patterns != 4 {
		t.Errorf("patterns = %d, want 4", f.Patterns)
	}
	if f.Clauses != 5 {
		t.Errorf("clauses = %d, want 5 (MATCH, UNWIND, WITH, MATCH, RETURN)", f.Clauses)
	}
	if f.ClauseCounts["MATCH"] != 2 || f.ClauseCounts["UNWIND"] != 1 || f.ClauseCounts["WHERE"] != 2 {
		t.Errorf("clause counts: %v", f.ClauseCounts)
	}
	if !f.HasDistinct {
		t.Error("DISTINCT not detected")
	}
	if f.Functions["endnode"] != 1 {
		t.Errorf("functions: %v", f.Functions)
	}
	// n5 is referenced in four different clauses (§1); plenty of
	// cross-clause references must be counted.
	if f.CrossRefs < 8 {
		t.Errorf("cross refs = %d, expected many", f.CrossRefs)
	}
	if f.MaxExprDepth < 3 {
		t.Errorf("depth = %d", f.MaxExprDepth)
	}
	if f.Hash == 0 {
		t.Error("hash must be set")
	}
}

func TestAnalyzeSpecialShapes(t *testing.T) {
	f := Analyze(`WITH replace('ts15G', '', 'U11sWFvRw') AS a0 RETURN a0`)
	if !f.HasReplaceEmptyString {
		t.Error("Figure 9 replace-empty shape not detected")
	}
	f = Analyze(`UNWIND [1,2,3] AS a0 MATCH (n) RETURN a0`)
	if !f.UnwindBeforeMatch {
		t.Error("Figure 17 UNWIND-before-MATCH shape not detected")
	}
	f = Analyze(`MATCH (n) UNWIND [1] AS a0 RETURN a0`)
	if f.UnwindBeforeMatch {
		t.Error("UNWIND after MATCH must not count")
	}
	f = Analyze(`MATCH (n) RETURN n.id ORDER BY n.id LIMIT 2 UNION MATCH (n) RETURN n.id`)
	if !f.HasOrderBy || !f.HasLimit || !f.HasUnion {
		t.Errorf("modifier flags wrong: %+v", f)
	}
}

func TestAnalyzeCrossRefs(t *testing.T) {
	// x introduced in clause 0, referenced twice in clause 1 and once in
	// clause 2.
	f := Analyze(`MATCH (x) MATCH (y) WHERE y.id = x.id AND x.k0 = 1 RETURN x.k1`)
	if f.CrossRefs != 3 {
		t.Errorf("cross refs = %d, want 3", f.CrossRefs)
	}
	// Same-clause references do not count.
	f = Analyze(`MATCH (x) WHERE x.id = 1 RETURN 1`)
	if f.CrossRefs != 0 {
		t.Errorf("same-clause refs counted: %d", f.CrossRefs)
	}
	// Pattern reuse of an earlier variable counts, as does the RETURN
	// of a variable introduced by an earlier clause.
	f = Analyze(`MATCH (x) MATCH (x)-[r]->(y) RETURN y`)
	if f.CrossRefs != 2 {
		t.Errorf("pattern cross refs = %d, want 2 (x in pattern, y in RETURN)", f.CrossRefs)
	}
}

func TestAnalyzeUnparsable(t *testing.T) {
	if Analyze(`NOT CYPHER AT ALL (`) != nil {
		t.Error("unparsable query must yield nil")
	}
}

func TestAggregate(t *testing.T) {
	var a Aggregate
	a.Add(Analyze(`MATCH (x), (y) RETURN x`))
	a.Add(Analyze(`MATCH (x) RETURN x`))
	a.Add(nil) // ignored
	p, _, c, _ := a.Averages()
	if a.N != 2 || p != 1.5 || c != 2 {
		t.Errorf("aggregate: n=%d patterns=%v clauses=%v", a.N, p, c)
	}
	var empty Aggregate
	if p, d, c, deps := empty.Averages(); p != 0 || d != 0 || c != 0 || deps != 0 {
		t.Error("empty aggregate must be zero")
	}
}

func TestDepthMetric(t *testing.T) {
	shallow := Analyze(`MATCH (n) WHERE n.id = 1 RETURN n.k0`)
	deep := Analyze(`MATCH (n) WHERE toString(abs((n.id + 1) * 2)) = '4' RETURN n.k0`)
	if deep.MaxExprDepth <= shallow.MaxExprDepth {
		t.Errorf("deep %d vs shallow %d", deep.MaxExprDepth, shallow.MaxExprDepth)
	}
}

// TestDepthMatchesAST: AnalyzeAST measures depth in the same walk that
// counts functions and references; on parsed trees its MaxExprDepth is
// the deepest ast.Depth of any expression the analysis visits.
func TestDepthMatchesAST(t *testing.T) {
	for _, src := range []string{
		`MATCH (n0 {k0: [1, [2, [3]]]})-[r]->(n1) WHERE n0.id = abs(-(1 + n1.id)) RETURN n0`,
		`UNWIND [x IN range(1, 3) WHERE x > 1 | x * 2] AS a0 RETURN a0 ORDER BY a0 SKIP 1 LIMIT 2`,
		`WITH {a: {b: {c: 1}}} AS m WHERE all(v IN [m.a] WHERE v IS NOT NULL) RETURN m.a.b.c AS c`,
		`MATCH (n) RETURN CASE n.k WHEN 1 THEN [n.id][0] ELSE n.id[0..1] END AS c`,
	} {
		q, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		want := 0
		for _, c := range q.AllClauses() {
			ast.ClauseExprs(c, func(e ast.Expr) { want = max(want, ast.Depth(e)) })
		}
		if got := AnalyzeAST(q).MaxExprDepth; got != want {
			t.Errorf("%s: MaxExprDepth = %d, want %d", src, got, want)
		}
	}
}

// TestLiteralsMeasuredAsParsed: a synthesized tree measures like the
// parse of its printed text, where a negated number is one folded
// literal and a list or map value printed from a literal is a list or
// map of literals.
func TestLiteralsMeasuredAsParsed(t *testing.T) {
	neg := func(e ast.Expr) ast.Expr { return &ast.Unary{Op: ast.OpNeg, X: e} }
	list := value.ListOf([]value.Value{value.Int(1), value.ListOf([]value.Value{value.Str("x")})})
	for _, e := range []ast.Expr{
		neg(neg(ast.Lit(value.Float(481310.452)))),
		neg(ast.Lit(value.Int(-7))),
		neg(ast.Var("a0")),
		ast.Lit(list),
		ast.Lit(value.Map(map[string]value.Value{"k": list})),
		ast.Bin(ast.OpEq, ast.Var("a0"), neg(ast.Lit(list))),
	} {
		q := &ast.Query{Parts: []*ast.SingleQuery{{Clauses: []ast.Clause{
			&ast.WithClause{Projection: ast.Projection{Items: []*ast.ProjectionItem{{Expr: ast.Lit(value.Int(1)), Alias: "a0"}}}},
			&ast.ReturnClause{Projection: ast.Projection{Items: []*ast.ProjectionItem{{Expr: e, Alias: "a1"}}}},
		}}}}
		text := q.String()
		got, want := AnalyzeAST(q), Analyze(text)
		if want == nil {
			t.Fatalf("%s does not parse", text)
		}
		got.Hash = want.Hash
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: tree features %+v, text features %+v", text, *got, *want)
		}
	}
}
