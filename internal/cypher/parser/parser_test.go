package parser

import (
	"errors"
	"strings"
	"testing"
	"unicode/utf8"

	"gqs/internal/cypher/ast"
	"gqs/internal/cypher/lexer"
	"gqs/internal/value"
)

// paperQueries are queries lifted from the figures of the GQS paper; the
// parser must accept all of them.
var paperQueries = []string{
	// Figure 1 (FalkorDB logic bug).
	`MATCH (n2)<-[r1]->(n0), (n3)-[r2]->(n4)-[r3]->(n5) WHERE r1.id=13
	 UNWIND [n5.k2 <> r3.id, false] as a1
	 WITH DISTINCT n2, r3, n3, n4, n5, endNode(r1) as a2, n0
	 MATCH (n2)<-[r4:T10]->(n0), (n3)-[r5]->(n4)-[r6]->(n5)
	 WHERE (((r6.k85)+(n2.k11)) ENDS WITH 'q11cZH6h') AND
	   ((n2.k9) = -1982025281) AND (n5.k2<=-881779936)
	 RETURN n2.id as a3, r6.id as a4`,
	// Figure 2 (movie examples).
	`MATCH (p:USER)-[r:LIKE]->(m:MOVIE) RETURN m.name, m.year`,
	`MATCH (p :USER)-[r :LIKE]->(m :MOVIE)
	 WHERE p.name = 'Alice' AND r.rating >= 8
	 UNWIND m.genre AS LikedGenre
	 WITH DISTINCT m.name AS MovieName, LikedGenre
	 RETURN MovieName, LikedGenre`,
	// Figure 7 (Neo4j logic bug), abridged as printed.
	`MATCH (n0 :L11)<-[r0 :T3]-(n1) WHERE (NOT (NOT true))
	 UNWIND [(r0.k186), 557243387] AS a0
	 MATCH (n2 :L11 :L5)-[r1 :T3]->(n3 :L11), (n7 :L11 :L5)-[r4 :T3]->(n8 :L11 :L5 :L4) WHERE n2.id = 1
	 RETURN (r4.k190) AS a3, (r4.k191) AS a4`,
	// Figure 8 (Memgraph logic bug), abridged.
	`MATCH (n0 :L0 :L6 :L11)<-[r0 :T2]-(n1), (n2 :L6)<-[r1 :T2]-(n3 :L0) WHERE n0.id = 2
	 UNWIND [-1465465557] AS a0
	 MATCH (n4 :L0)<-[r2 :T2]-(n5 :L0 :L6) WHERE n4.id = 0
	 UNWIND [(n0.k65)] AS a1
	 RETURN (r1.k86) AS a2, (n3.k4) AS a3, (r1.k87) AS a4
	 ORDER BY a4 DESC`,
	// Figure 9 (Memgraph memory leak).
	`WITH replace('ts15G', '', 'U11sWFvRw') AS a0 RETURN a0`,
	// Figure 16 (GDBMeter rewrites).
	`MATCH (n0)-[r0]->(n1) WITH r0, n0 WHERE ("1" <> n0.k99) RETURN r0.id AS a0`,
	`MATCH (n0)-[r0]->(n1) WITH r0, n0 WHERE NOT ("1" <> n0.k99) RETURN r0.id AS a0`,
	`MATCH (n0)-[r0]->(n1) WITH r0, n0 WHERE ("1" <> n0.k99) IS NULL RETURN r0.id AS a0`,
	// Figure 17 (FalkorDB UNWIND bug).
	`UNWIND [1,2,3] AS a0
	 MATCH (n2 :L12)-[r1]-(n3) WHERE (((r1.id) = 13) AND true)
	 RETURN a0`,
}

func TestParsePaperQueries(t *testing.T) {
	for i, q := range paperQueries {
		if _, err := Parse(q); err != nil {
			t.Errorf("paper query %d: %v\n%s", i, err, q)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for i, q := range paperQueries {
		q1, err := Parse(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		text := q1.String()
		q2, err := Parse(text)
		if err != nil {
			t.Fatalf("query %d reparse: %v\n%s", i, err, text)
		}
		if got := q2.String(); got != text {
			t.Errorf("query %d: print/parse/print not a fixpoint:\n%s\n%s", i, text, got)
		}
	}
}

func TestParseMatchStructure(t *testing.T) {
	q, err := Parse(`MATCH (a:L0:L1 {k0: 1})-[r:T0|T1 {k1: 'x'}]->(b) WHERE a.id = 1 RETURN a`)
	if err != nil {
		t.Fatal(err)
	}
	m := q.Parts[0].Clauses[0].(*ast.MatchClause)
	if m.Optional {
		t.Error("not optional")
	}
	p := m.Patterns[0]
	if len(p.Nodes) != 2 || len(p.Rels) != 1 {
		t.Fatalf("pattern shape: %d nodes %d rels", len(p.Nodes), len(p.Rels))
	}
	n := p.Nodes[0]
	if n.Variable != "a" || len(n.Labels) != 2 || n.Props == nil {
		t.Errorf("node pattern: %+v", n)
	}
	r := p.Rels[0]
	if r.Variable != "r" || len(r.Types) != 2 || r.Direction != ast.DirRight || r.Props == nil {
		t.Errorf("rel pattern: %+v", r)
	}
	if m.Where == nil {
		t.Error("WHERE missing")
	}
}

func TestParseDirections(t *testing.T) {
	q, err := Parse(`MATCH (a)<-[r1]-(b)-[r2]->(c)-[r3]-(d) RETURN a`)
	if err != nil {
		t.Fatal(err)
	}
	p := q.Parts[0].Clauses[0].(*ast.MatchClause).Patterns[0]
	want := []ast.Direction{ast.DirLeft, ast.DirRight, ast.DirBoth}
	for i, r := range p.Rels {
		if r.Direction != want[i] {
			t.Errorf("rel %d direction %v, want %v", i, r.Direction, want[i])
		}
	}
}

func TestParseOptionalMatch(t *testing.T) {
	q, err := Parse(`OPTIONAL MATCH (a) RETURN a`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Parts[0].Clauses[0].(*ast.MatchClause).Optional {
		t.Error("OPTIONAL not set")
	}
}

func TestParseProjection(t *testing.T) {
	q, err := Parse(`MATCH (a) RETURN DISTINCT a.k0 AS x, count(*) AS c ORDER BY x DESC, c SKIP 1 LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	r := q.Parts[0].Clauses[1].(*ast.ReturnClause)
	if !r.Distinct || len(r.Items) != 2 {
		t.Error("projection head broken")
	}
	if r.Items[0].Alias != "x" {
		t.Error("alias broken")
	}
	f := r.Items[1].Expr.(*ast.FuncCall)
	if f.Name != "count" || !f.Star {
		t.Error("count(*) broken")
	}
	if len(r.OrderBy) != 2 || !r.OrderBy[0].Desc || r.OrderBy[1].Desc {
		t.Error("ORDER BY broken")
	}
	if r.Skip == nil || r.Limit == nil {
		t.Error("SKIP/LIMIT broken")
	}
}

func TestParseWithWhere(t *testing.T) {
	q, err := Parse(`MATCH (a) WITH a.k0 AS x WHERE x > 1 RETURN x`)
	if err != nil {
		t.Fatal(err)
	}
	w := q.Parts[0].Clauses[1].(*ast.WithClause)
	if w.Where == nil {
		t.Error("WITH ... WHERE broken")
	}
}

func TestParseReturnStar(t *testing.T) {
	q, err := Parse(`MATCH (a) RETURN *`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Parts[0].Clauses[1].(*ast.ReturnClause).Star {
		t.Error("RETURN * broken")
	}
}

func TestParseUnion(t *testing.T) {
	q, err := Parse(`RETURN 1 AS x UNION ALL RETURN 2 AS x UNION RETURN 3 AS x`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Parts) != 3 || !q.All[0] || q.All[1] {
		t.Errorf("UNION structure broken: %d parts, %v", len(q.Parts), q.All)
	}
}

func TestParseCall(t *testing.T) {
	q, err := Parse(`CALL db.labels() YIELD label RETURN label`)
	if err != nil {
		t.Fatal(err)
	}
	c := q.Parts[0].Clauses[0].(*ast.CallClause)
	if c.Procedure != "db.labels" || len(c.Yield) != 1 || c.Yield[0] != "label" {
		t.Errorf("CALL broken: %+v", c)
	}
}

func TestParseWriteClauses(t *testing.T) {
	cases := []string{
		`CREATE (a:L0 {k0: 1})-[:T0]->(b)`,
		`MATCH (a) SET a.k0 = 1, a:L1:L2`,
		`MATCH (a) DELETE a`,
		`MATCH (a) DETACH DELETE a`,
		`MATCH (a) REMOVE a.k0, a:L1`,
		`MERGE (a:L0 {k0: 1}) ON CREATE SET a.k1 = 2 ON MATCH SET a.k2 = 3`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err != nil {
			t.Errorf("%s: %v", src, err)
		}
	}
	q, _ := Parse(`MATCH (a) DETACH DELETE a`)
	if !q.Parts[0].Clauses[1].(*ast.DeleteClause).Detach {
		t.Error("DETACH flag broken")
	}
}

func TestParseExpressions(t *testing.T) {
	cases := []string{
		`1 + 2 * 3 ^ 2 % 4 - 5 / 6`,
		`'a' + toString(1)`,
		`[1, 2, 3][0]`,
		`[1, 2, 3][0..2]`,
		`[1, 2, 3][..2]`,
		`[1, 2, 3][1..]`,
		`{a: 1, b: 'x'}`,
		`CASE WHEN x > 1 THEN 'big' ELSE 'small' END`,
		`CASE x WHEN 1 THEN 'one' WHEN 2 THEN 'two' END`,
		`x IS NULL AND y IS NOT NULL`,
		`x IN [1, 2] OR y STARTS WITH 'a' XOR z ENDS WITH 'b'`,
		`NOT NOT x CONTAINS 'c'`,
		`n.k0 =~ 'ab.*'`,
		`count(DISTINCT x)`,
		`coalesce(n.k0, -1)`,
		`size(split('a,b', ','))`,
		`$param + 1`,
	}
	for _, src := range cases {
		if _, err := ParseExpr(src); err != nil {
			t.Errorf("%s: %v", src, err)
		}
	}
}

func TestExprPrecedence(t *testing.T) {
	e, err := ParseExpr(`1 + 2 * 3`)
	if err != nil {
		t.Fatal(err)
	}
	b := e.(*ast.Binary)
	if b.Op != ast.OpAdd {
		t.Fatalf("top op %v", b.Op)
	}
	if b.R.(*ast.Binary).Op != ast.OpMul {
		t.Error("* must bind tighter than +")
	}
	e, _ = ParseExpr(`NOT a AND b`)
	if e.(*ast.Binary).Op != ast.OpAnd {
		t.Error("AND must bind looser than NOT")
	}
	e, _ = ParseExpr(`a OR b AND c`)
	if e.(*ast.Binary).Op != ast.OpOr {
		t.Error("OR must bind loosest")
	}
}

func TestNegativeLiteralFold(t *testing.T) {
	e, err := ParseExpr(`-5`)
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := e.(*ast.Literal)
	if !ok || lit.Val.AsInt() != -5 {
		t.Errorf("negative literal not folded: %#v", e)
	}
}

func TestParseLiterals(t *testing.T) {
	for src, want := range map[string]value.Value{
		`42`:     value.Int(42),
		`1.5`:    value.Float(1.5),
		`1e3`:    value.Float(1000),
		`'a\'b'`: value.Str("a'b"),
		`"dq"`:   value.Str("dq"),
		`true`:   value.True,
		`FALSE`:  value.False,
		`null`:   value.Null,
	} {
		e, err := ParseExpr(src)
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		lit, ok := e.(*ast.Literal)
		if !ok || !value.Equivalent(lit.Val, want) && !(lit.Val.IsNull() && want.IsNull()) {
			t.Errorf("%s => %v, want %v", src, e, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`MATCH`,
		`MATCH (a`,
		`MATCH (a) RETURN`,
		`RETURN 1 +`,
		`RETURN [1, 2`,
		`RETURN CASE END`,
		`MATCH (a)-[r]`,
		`UNWIND [1] RETURN 1`,
		`FOO (a)`,
		`RETURN 'unterminated`,
		`MATCH (a) RETURN a extra_token ,`,
		`SET a = 1`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestParseComments(t *testing.T) {
	q, err := Parse("MATCH (a) // line comment\n /* block\ncomment */ RETURN a")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Parts[0].Clauses) != 2 {
		t.Error("comments must be skipped")
	}
}

func TestKeywordsAsNames(t *testing.T) {
	// Property names and labels that collide with keywords must parse.
	if _, err := Parse("MATCH (a:Match) RETURN a.end, a.`quoted name`"); err != nil {
		t.Fatal(err)
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	if _, err := Parse(`match (a) where a.id = 1 return a order by a.id desc`); err != nil {
		t.Fatal(err)
	}
}

func TestPathVariable(t *testing.T) {
	q, err := Parse(`MATCH p = (a)-[r]->(b) RETURN p`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Parts[0].Clauses[0].(*ast.MatchClause).Patterns[0].Variable != "p" {
		t.Error("path variable broken")
	}
}

func TestASTHelpers(t *testing.T) {
	e, _ := ParseExpr(`left(m.name, n.id) + x`)
	vars := ast.Variables(e)
	if strings.Join(vars, ",") != "m,n,x" {
		t.Errorf("Variables = %v", vars)
	}
	if d := ast.Depth(e); d != 4 {
		// Binary(FuncCall(PropAccess(Var))) + Var: depth 4.
		t.Errorf("Depth = %d, want 4", d)
	}
	q, _ := Parse(`MATCH (a) WHERE a.id = 1 RETURN a.k0 AS x`)
	names := []string{}
	for _, c := range q.AllClauses() {
		names = append(names, ast.ClauseName(c))
	}
	if strings.Join(names, ",") != "MATCH,RETURN" {
		t.Errorf("ClauseName = %v", names)
	}
	count := 0
	ast.ClauseExprs(q.AllClauses()[0], func(ast.Expr) { count++ })
	if count != 1 {
		t.Errorf("ClauseExprs visited %d exprs, want 1 (WHERE)", count)
	}
}

// TestNonIdentifierRunesFailFast: a non-ASCII rune that cannot be part
// of an identifier (a currency sign, a curly quote, invalid UTF-8) is a
// positioned lexical error, returned promptly; the lexer once looped on
// it forever. Identifiers may still hold non-ASCII letters.
func TestNonIdentifierRunesFailFast(t *testing.T) {
	for _, src := range []string{"RETURN 1 €", "RETURN “x”", "RETURN \xff", "MATCH (n) RETURN n → 1"} {
		_, err := parseBounded(t, src)
		var lerr *lexer.Error
		if !errors.As(err, &lerr) || lerr.Pos != strings.IndexFunc(src, func(r rune) bool { return r >= utf8.RuneSelf }) {
			t.Errorf("%q: err = %v, want a lexical error at the first non-ASCII rune", src, err)
		}
	}
	if _, err := Parse("RETURN 1 AS café"); err != nil {
		t.Errorf("a non-ASCII letter must stay an identifier part: %v", err)
	}
}

// TestLexicalErrorWins: the first lexical error of the input is
// reported even where the parser fails earlier on the tokens before it.
func TestLexicalErrorWins(t *testing.T) {
	for _, src := range []string{"RETURN 1 1 'open", "MATCH (a RETURN €", "RETURN ) `open"} {
		_, err := Parse(src)
		var lerr *lexer.Error
		if !errors.As(err, &lerr) {
			t.Errorf("%q: err = %v, want the lexical error", src, err)
		}
	}
}

// TestPrintQuotesNames: a name that is not a bare identifier prints in
// backquotes, and so does a variable or function name spelling a
// keyword, which the parser would read as the keyword; keywords stay
// bare where the parser takes them as names.
func TestPrintQuotesNames(t *testing.T) {
	for src, want := range map[string]string{
		"MATCH (a:Match) RETURN a.end, a.`quoted name`":    "MATCH (a:Match) RETURN a.end, a.`quoted name`",
		"WITH `` AS x RETURN x":                            "WITH `` AS x RETURN x",
		"MATCH (`end`)-[`my rel`:`T 1`]->(b) RETURN `end`": "MATCH (`end`)-[`my rel`:`T 1`]->(b) RETURN `end`",
		"RETURN `match`(1), count(*)":                      "RETURN `match`(1), count(*)",
		"RETURN {`a key`: 1} AS `the map`":                 "RETURN {`a key`: 1} AS `the map`",
	} {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if got := q.String(); got != want {
			t.Errorf("%q printed %q, want %q", src, got, want)
		}
		if _, err := Parse(q.String()); err != nil {
			t.Errorf("%q: printed form does not parse: %v", src, err)
		}
	}
}
