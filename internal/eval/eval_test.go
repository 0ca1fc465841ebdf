package eval

import (
	"strings"
	"testing"

	"gqs/internal/cypher/parser"
	"gqs/internal/graph"
	"gqs/internal/value"
)

func testGraph(t *testing.T) (*graph.Graph, map[string]value.Value) {
	t.Helper()
	g := graph.New()
	a := g.NewNode("USER")
	a.Props["name"] = value.Str("Alice")
	a.Props["age"] = value.Int(30)
	b := g.NewNode("MOVIE")
	b.Props["name"] = value.Str("Heat")
	b.Props["genre"] = value.List(value.Str("Drama"), value.Str("Crime"))
	r, _ := g.NewRel(a.ID, b.ID, "LIKE")
	r.Props["rating"] = value.Int(10)
	env := map[string]value.Value{
		"p": value.Node(a.ID),
		"m": value.Node(b.ID),
		"r": value.Rel(r.ID),
		"x": value.Int(4),
	}
	return g, env
}

func evalStr(t *testing.T, src string) value.Value {
	t.Helper()
	g, env := testGraph(t)
	e, err := parser.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	v, err := Eval(&Ctx{Graph: g, Env: env}, e)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestEvalBasics(t *testing.T) {
	cases := map[string]value.Value{
		`1 + 2 * 3`:                   value.Int(7),
		`(1 + 2) * 3`:                 value.Int(9),
		`'a' + 'b'`:                   value.Str("ab"),
		`p.name`:                      value.Str("Alice"),
		`r.rating`:                    value.Int(10),
		`p.missing`:                   value.Null,
		`m.genre[0]`:                  value.Str("Drama"),
		`m.genre[0..1]`:               value.List(value.Str("Drama")),
		`x = 4`:                       value.True,
		`x < 3`:                       value.False,
		`p.name STARTS WITH 'Al'`:     value.True,
		`p.name ENDS WITH 'ce'`:       value.True,
		`p.name CONTAINS 'lic'`:       value.True,
		`x IN [1, 4, 9]`:              value.True,
		`NOT (x = 4)`:                 value.False,
		`x = 4 AND p.age = 30`:        value.True,
		`x = 4 OR 1 = 2`:              value.True,
		`x = 4 XOR x = 4`:             value.False,
		`p.missing IS NULL`:           value.True,
		`p.name IS NOT NULL`:          value.True,
		`-x`:                          value.Int(-4),
		`[x, 'a']`:                    value.List(value.Int(4), value.Str("a")),
		`{k: x}.k`:                    value.Int(4),
		`size(m.genre)`:               value.Int(2),
		`left(m.name, x)`:             value.Str("Heat"),
		`char_length(p.name) + 1`:     value.Int(6),
		`endNode(r) = m`:              value.True,
		`startNode(r).name`:           value.Str("Alice"),
		`labels(m)[0]`:                value.Str("MOVIE"),
		`type(r)`:                     value.Str("LIKE"),
		`id(p)`:                       value.Int(0),
		`coalesce(p.missing, 'dflt')`: value.Str("dflt"),
		`CASE WHEN x > 3 THEN 'big' ELSE 'small' END`: value.Str("big"),
		`CASE x WHEN 4 THEN 'four' ELSE 'other' END`:  value.Str("four"),
		`CASE x WHEN 5 THEN 'five' END`:               value.Null,
		`'Alice' =~ 'Al.*'`:                           value.True,
		`'Alice' =~ 'xx.*'`:                           value.False,
		`null + 1`:                                    value.Null,
		`null = null`:                                 value.Null,
	}
	for src, want := range cases {
		got := evalStr(t, src)
		if want.IsNull() {
			if !got.IsNull() {
				t.Errorf("%s = %v, want null", src, got)
			}
			continue
		}
		if !value.Equivalent(got, want) {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	g, env := testGraph(t)
	for _, src := range []string{
		`missing_var`,
		`1 + true`,
		`x.prop`,       // property access on integer
		`unknownFn(1)`, // unknown function
		`count(x)`,     // aggregate in scalar position
		`1 AND 2`,      // non-boolean predicate operand
		`'a' =~ '['`,   // invalid regex
		`$p`,           // unbound parameter
	} {
		e, err := parser.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Eval(&Ctx{Graph: g, Env: env}, e); err == nil {
			t.Errorf("expected error for %s", src)
		}
	}
}

func TestUnknownVariableError(t *testing.T) {
	e, _ := parser.ParseExpr(`zz`)
	_, err := Eval(&Ctx{Env: map[string]value.Value{}}, e)
	var uv *UnknownVariableError
	if err == nil || !strings.Contains(err.Error(), "zz") {
		t.Fatalf("err = %v", err)
	}
	if ok := errorsAs(err, &uv); !ok || uv.Name != "zz" {
		t.Errorf("expected UnknownVariableError, got %T", err)
	}
}

func errorsAs(err error, target **UnknownVariableError) bool {
	if e, ok := err.(*UnknownVariableError); ok {
		*target = e
		return true
	}
	return false
}

func TestParameters(t *testing.T) {
	e, _ := parser.ParseExpr(`$a + 1`)
	v, err := Eval(&Ctx{
		Env:    map[string]value.Value{},
		Params: map[string]value.Value{"a": value.Int(41)},
	}, e)
	if err != nil || v.AsInt() != 42 {
		t.Errorf("parameter eval = %v, %v", v, err)
	}
}

func TestNullPropagationThroughAccess(t *testing.T) {
	// OPTIONAL MATCH binds variables to null; property access on null
	// must yield null, not an error.
	e, _ := parser.ParseExpr(`n.k0`)
	v, err := Eval(&Ctx{Env: map[string]value.Value{"n": value.Null}}, e)
	if err != nil || !v.IsNull() {
		t.Errorf("null.k0 = %v, %v", v, err)
	}
}

func TestEvalPredicate(t *testing.T) {
	g, env := testGraph(t)
	ctx := &Ctx{Graph: g, Env: env}
	for src, want := range map[string]value.Tri{
		`x = 4`:         value.TriTrue,
		`x = 5`:         value.TriFalse,
		`p.missing = 1`: value.TriUnknown,
	} {
		e, _ := parser.ParseExpr(src)
		got, err := EvalPredicate(ctx, e)
		if err != nil || got != want {
			t.Errorf("predicate %s = %v (%v), want %v", src, got, err, want)
		}
	}
}

func TestHasAggregate(t *testing.T) {
	for src, want := range map[string]bool{
		`count(x)`:      true,
		`1 + sum(x)`:    true,
		`collect(x)[0]`: true,
		`count(*)`:      true,
		`size([1])`:     false,
		`abs(x) + 1`:    false,
	} {
		e, err := parser.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		if got := HasAggregate(e); got != want {
			t.Errorf("HasAggregate(%s) = %v, want %v", src, got, want)
		}
	}
}

func TestGraphCtxMissingEntities(t *testing.T) {
	c := GraphCtx{}
	if _, ok := c.NodeLabels(0); ok {
		t.Error("nil graph must report !ok")
	}
	if _, ok := c.RelType(0); ok {
		t.Error("nil graph must report !ok")
	}
	if _, _, ok := c.RelEndpoints(0); ok {
		t.Error("nil graph must report !ok")
	}
	if _, ok := c.EntityProps(0, false); ok {
		t.Error("nil graph must report !ok")
	}
	g := graph.New()
	c = GraphCtx{G: g}
	if _, ok := c.NodeLabels(99); ok {
		t.Error("missing node must report !ok")
	}
	if _, ok := c.EntityProps(99, true); ok {
		t.Error("missing rel must report !ok")
	}
}

// TestReleasePoisonsUnderRace: a race build's Release overwrites the
// value-stack slots it frees, so a view that outlives its consumer reads
// releasedSlot; a normal build only truncates.
func TestReleasePoisonsUnderRace(t *testing.T) {
	var ctx Ctx
	mark := ctx.StackMark()
	ctx.stack = append(ctx.stack, value.Int(1), value.Int(2))
	view := ctx.stack[mark:]
	ctx.Release(mark)
	want := []value.Value{value.Int(1), value.Int(2)}
	if poisonReleased {
		want = []value.Value{releasedSlot, releasedSlot}
	}
	if view[0] != want[0] || view[1] != want[1] {
		t.Errorf("released slots hold %v, want %v (poisonReleased %t)", view, want, poisonReleased)
	}
}
