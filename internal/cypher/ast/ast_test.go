package ast

import (
	"strings"
	"testing"

	"gqs/internal/value"
)

func TestBinOpStrings(t *testing.T) {
	cases := map[BinOp]string{
		OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
		OpPow: "^", OpEq: "=", OpNeq: "<>", OpLt: "<", OpLe: "<=",
		OpGt: ">", OpGe: ">=", OpAnd: "AND", OpOr: "OR", OpXor: "XOR",
		OpStartsWith: "STARTS WITH", OpEndsWith: "ENDS WITH",
		OpContains: "CONTAINS", OpIn: "IN", OpRegex: "=~",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("op %d = %q, want %q", op, got, want)
		}
	}
}

func TestExprPrinting(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{Lit(value.Int(5)), "5"},
		{Lit(value.Null), "null"},
		{Var("n"), "n"},
		{Prop("n", "k0"), "n.k0"},
		{Bin(OpAdd, Lit(value.Int(1)), Lit(value.Int(2))), "(1 + 2)"},
		{Bin(OpPow, Var("x"), Lit(value.Int(2))), "(x^2)"},
		{&Unary{Op: OpNot, X: Var("b")}, "(NOT b)"},
		{&Unary{Op: OpNeg, X: Var("x")}, "(-x)"},
		{&Unary{Op: OpIsNull, X: Var("x")}, "(x IS NULL)"},
		{&Unary{Op: OpIsNotNull, X: Var("x")}, "(x IS NOT NULL)"},
		{&FuncCall{Name: "count", Star: true}, "count(*)"},
		{&FuncCall{Name: "collect", Distinct: true, Args: []Expr{Var("x")}}, "collect(DISTINCT x)"},
		{&ListLit{Elems: []Expr{Lit(value.Int(1)), Var("y")}}, "[1, y]"},
		{&MapLit{Keys: []string{"a"}, Vals: []Expr{Lit(value.Int(1))}}, "{a: 1}"},
		{&IndexExpr{Subject: Var("l"), Index: Lit(value.Int(0))}, "l[0]"},
		{&SliceExpr{Subject: Var("l"), From: Lit(value.Int(1))}, "l[1..]"},
		{&SliceExpr{Subject: Var("l"), To: Lit(value.Int(2))}, "l[..2]"},
		{&CaseExpr{Test: Var("x"), Whens: []Expr{Lit(value.Int(1))}, Thens: []Expr{Lit(value.Str("one"))}, Else: Lit(value.Str("other"))},
			"CASE x WHEN 1 THEN 'one' ELSE 'other' END"},
		{&Parameter{Name: "p"}, "$p"},
	}
	for _, c := range cases {
		if got := ExprString(c.e); got != c.want {
			t.Errorf("ExprString = %q, want %q", got, c.want)
		}
	}
}

func TestQueryPrinting(t *testing.T) {
	q := &Query{Parts: []*SingleQuery{
		{Clauses: []Clause{
			&MatchClause{
				Optional: true,
				Patterns: []*PatternPart{{
					Nodes: []*NodePattern{
						{Variable: "a", Labels: []string{"L0", "L1"}},
						{Variable: "b"},
					},
					Rels: []*RelPattern{{Variable: "r", Types: []string{"T0", "T1"}, Direction: DirRight}},
				}},
				Where: Bin(OpEq, Prop("a", "id"), Lit(value.Int(1))),
			},
			&UnwindClause{Expr: &ListLit{Elems: []Expr{Lit(value.Int(1))}}, Alias: "u"},
			&WithClause{Projection: Projection{
				Distinct: true,
				Items:    []*ProjectionItem{{Expr: Var("a")}, {Expr: Prop("a", "k0"), Alias: "x"}},
				OrderBy:  []*SortItem{{Expr: Var("x"), Desc: true}},
				Skip:     Lit(value.Int(1)),
				Limit:    Lit(value.Int(2)),
			}, Where: &Unary{Op: OpIsNotNull, X: Var("x")}},
			&ReturnClause{Projection: Projection{Star: true}},
		}},
		{Clauses: []Clause{
			&ReturnClause{Projection: Projection{Items: []*ProjectionItem{{Expr: Lit(value.Int(1)), Alias: "one"}}}},
		}},
	}, All: []bool{true}}
	got := q.String()
	for _, want := range []string{
		"OPTIONAL MATCH (a:L0:L1)-[r:T0|T1]->(b) WHERE (a.id = 1)",
		"UNWIND [1] AS u",
		"WITH DISTINCT a, a.k0 AS x ORDER BY x DESC SKIP 1 LIMIT 2 WHERE (x IS NOT NULL)",
		"RETURN *",
		"UNION ALL RETURN 1 AS one",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
	if parts := q.Parts[0].String() + " UNION ALL " + q.Parts[1].String(); parts != got {
		t.Errorf("the single queries print %s, the query %s", parts, got)
	}
	if appended := string(q.Append([]byte("> "))); appended != "> "+got {
		t.Errorf("Append after a prefix gives %s", appended)
	}
}

// printSink keeps the printed strings of TestPrintAllocs observable.
var printSink string

// TestPrintAllocs: each String of the printer costs one allocation, the
// string's own, up to its buffer's size; ExprString names every
// unaliased plan column, so an extra allocation there is paid on every
// compiled projection.
func TestPrintAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	where := Bin(OpEq, Prop("a", "id"), Lit(value.Str("abc")))
	part := &SingleQuery{Clauses: []Clause{
		&MatchClause{Patterns: []*PatternPart{{Nodes: []*NodePattern{{Variable: "a", Labels: []string{"L0"}}}}}, Where: where},
		&ReturnClause{Projection: Projection{Items: []*ProjectionItem{{Expr: Prop("a", "k0"), Alias: "x"}}}},
	}}
	q := &Query{Parts: []*SingleQuery{part}}
	for name, print := range map[string]func() string{
		"Query.String":       q.String,
		"SingleQuery.String": part.String,
		"ExprString":         func() string { return ExprString(where) },
	} {
		if got := testing.AllocsPerRun(10, func() { printSink = print() }); got != 1 {
			t.Errorf("%s: %.0f allocations, want 1", name, got)
		}
	}
}

func TestWriteClausePrinting(t *testing.T) {
	q := &SingleQuery{Clauses: []Clause{
		&CreateClause{Patterns: []*PatternPart{{
			Nodes: []*NodePattern{{Variable: "a", Labels: []string{"X"},
				Props: &MapLit{Keys: []string{"k"}, Vals: []Expr{Lit(value.Int(1))}}}},
		}}},
		&MergeClause{
			Pattern:  &PatternPart{Nodes: []*NodePattern{{Variable: "m", Labels: []string{"Y"}}}},
			OnCreate: []*SetItem{{Subject: Var("m"), Property: "c", Value: Lit(value.True)}},
			OnMatch:  []*SetItem{{Variable: "m", Labels: []string{"Z"}}},
		},
		&SetClause{Items: []*SetItem{{Subject: Var("a"), Property: "k", Value: Lit(value.Int(2))}}},
		&RemoveClause{Items: []*RemoveItem{
			{Subject: Var("a"), Property: "k"},
			{Variable: "a", Labels: []string{"X"}},
		}},
		&DeleteClause{Detach: true, Exprs: []Expr{Var("a")}},
		&CallClause{Procedure: "db.labels", Yield: []string{"label"}},
	}}
	got := q.String()
	for _, want := range []string{
		"CREATE (a:X {k: 1})",
		"MERGE (m:Y) ON CREATE SET m.c = true ON MATCH SET m:Z",
		"SET a.k = 2",
		"REMOVE a.k, a:X",
		"DETACH DELETE a",
		"CALL db.labels() YIELD label",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
}

func TestClauseNames(t *testing.T) {
	cases := map[string]Clause{
		"MATCH":          &MatchClause{},
		"OPTIONAL MATCH": &MatchClause{Optional: true},
		"UNWIND":         &UnwindClause{},
		"WITH":           &WithClause{},
		"RETURN":         &ReturnClause{},
		"CALL":           &CallClause{},
		"CREATE":         &CreateClause{},
		"SET":            &SetClause{},
		"MERGE":          &MergeClause{Pattern: &PatternPart{}},
		"DELETE":         &DeleteClause{},
		"DETACH DELETE":  &DeleteClause{Detach: true},
		"REMOVE":         &RemoveClause{},
	}
	for want, c := range cases {
		if got := ClauseName(c); got != want {
			t.Errorf("ClauseName = %q, want %q", got, want)
		}
	}
}

func TestAndHelper(t *testing.T) {
	if And() != nil {
		t.Error("And() must be nil")
	}
	p := Var("p")
	if And(p) != p {
		t.Error("And(p) must be p itself")
	}
	e := And(p, nil, Var("q"))
	b, ok := e.(*Binary)
	if !ok || b.Op != OpAnd {
		t.Fatalf("And(p, q) = %#v", e)
	}
}

func TestDepth(t *testing.T) {
	if Depth(nil) != 0 {
		t.Error("Depth(nil) must be 0")
	}
	if Depth(Var("x")) != 1 {
		t.Error("leaf depth must be 1")
	}
	e := Bin(OpAdd, Prop("n", "k"), Lit(value.Int(1))) // Binary(PropAccess(Var), Lit)
	if Depth(e) != 3 {
		t.Errorf("Depth = %d, want 3", Depth(e))
	}
	deep := &FuncCall{Name: "abs", Args: []Expr{e}}
	if Depth(deep) != 4 {
		t.Errorf("Depth = %d, want 4", Depth(deep))
	}
	c := &CaseExpr{Whens: []Expr{deep}, Thens: []Expr{Var("x")}}
	if Depth(c) != 5 {
		t.Errorf("case Depth = %d, want 5", Depth(c))
	}
}

func TestVariablesDedup(t *testing.T) {
	e := Bin(OpAdd, Var("x"), Bin(OpMul, Var("y"), Var("x")))
	vs := Variables(e)
	if len(vs) != 2 || vs[0] != "x" || vs[1] != "y" {
		t.Errorf("Variables = %v", vs)
	}
}

func TestWalkExprsPruning(t *testing.T) {
	e := Bin(OpAdd, Var("x"), Var("y"))
	count := 0
	WalkExprs(e, func(Expr) bool {
		count++
		return false // prune at the root
	})
	if count != 1 {
		t.Errorf("pruned walk visited %d nodes", count)
	}
	count = 0
	WalkExprs(e, func(Expr) bool { count++; return true })
	if count != 3 {
		t.Errorf("full walk visited %d nodes, want 3", count)
	}
}

func TestAllClauses(t *testing.T) {
	q := &Query{Parts: []*SingleQuery{
		{Clauses: []Clause{&MatchClause{}, &ReturnClause{}}},
		{Clauses: []Clause{&ReturnClause{}}},
	}, All: []bool{false}}
	if len(q.AllClauses()) != 3 {
		t.Errorf("AllClauses = %d", len(q.AllClauses()))
	}
}

func TestClauseExprsCoverage(t *testing.T) {
	count := func(c Clause) int {
		n := 0
		ClauseExprs(c, func(Expr) { n++ })
		return n
	}
	m := &MatchClause{
		Patterns: []*PatternPart{{
			Nodes: []*NodePattern{{Props: &MapLit{Keys: []string{"k"}, Vals: []Expr{Lit(value.Int(1))}}}, {}},
			Rels:  []*RelPattern{{Props: &MapLit{Keys: []string{"j"}, Vals: []Expr{Lit(value.Int(2))}}}},
		}},
		Where: Var("p"),
	}
	if count(m) != 3 {
		t.Errorf("match exprs = %d, want 3", count(m))
	}
	w := &WithClause{Projection: Projection{
		Items:   []*ProjectionItem{{Expr: Var("a")}},
		OrderBy: []*SortItem{{Expr: Var("b")}},
		Skip:    Lit(value.Int(0)),
		Limit:   Lit(value.Int(1)),
	}, Where: Var("c")}
	if count(w) != 5 {
		t.Errorf("with exprs = %d, want 5", count(w))
	}
	d := &DeleteClause{Exprs: []Expr{Var("a"), Var("b")}}
	if count(d) != 2 {
		t.Errorf("delete exprs = %d", count(d))
	}
}
