package functions

import (
	"math"
	"strings"
	"testing"

	"gqs/internal/value"
)

// fakeGraph implements GraphContext for the graph-dependent functions.
type fakeGraph struct{}

func (fakeGraph) NodeLabels(id int64) ([]string, bool) {
	if id == 1 {
		return []string{"L0", "L1"}, true
	}
	return nil, false
}

func (fakeGraph) RelType(id int64) (string, bool) {
	if id == 2 {
		return "T0", true
	}
	return "", false
}

func (fakeGraph) RelEndpoints(id int64) (int64, int64, bool) {
	if id == 2 {
		return 1, 3, true
	}
	return 0, 0, false
}

func (fakeGraph) EntityProps(id int64, isRel bool) (map[string]value.Value, bool) {
	if id == 1 && !isRel {
		return map[string]value.Value{"b": value.Int(2), "a": value.Int(1)}, true
	}
	return nil, false
}

func call(t *testing.T, name string, args ...value.Value) value.Value {
	t.Helper()
	f := Lookup(name)
	if f == nil {
		t.Fatalf("function %s not registered", name)
	}
	v, err := Invoke(f, fakeGraph{}, args)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v
}

func callErr(t *testing.T, name string, args ...value.Value) error {
	t.Helper()
	f := Lookup(name)
	if f == nil {
		t.Fatalf("function %s not registered", name)
	}
	_, err := Invoke(f, fakeGraph{}, args)
	return err
}

func TestCensusIs61(t *testing.T) {
	if got := len(All()); got != 61 {
		t.Errorf("scalar function census = %d, want 61 (the paper's library size)", got)
	}
	if got := len(AllAggs()); got != 10 {
		t.Errorf("aggregate census = %d, want 10", got)
	}
}

func TestLookupCaseInsensitive(t *testing.T) {
	if Lookup("ToUpper") == nil || Lookup("TOUPPER") == nil {
		t.Error("lookup must be case-insensitive")
	}
	if Lookup("no_such_fn") != nil {
		t.Error("unknown function must return nil")
	}
}

func TestMathFunctions(t *testing.T) {
	if v := call(t, "abs", value.Int(-5)); v.AsInt() != 5 {
		t.Error("abs int")
	}
	if v := call(t, "abs", value.Float(-2.5)); v.AsFloat() != 2.5 {
		t.Error("abs float")
	}
	if v := call(t, "ceil", value.Float(1.2)); v.AsFloat() != 2 {
		t.Error("ceil")
	}
	if v := call(t, "floor", value.Float(1.8)); v.AsFloat() != 1 {
		t.Error("floor")
	}
	if v := call(t, "round", value.Float(1.5)); v.AsFloat() != 2 {
		t.Error("round half up")
	}
	if v := call(t, "round", value.Float(-1.5)); v.AsFloat() != -1 {
		t.Error("round(-1.5) must be -1 under half-up")
	}
	if v := call(t, "sign", value.Int(-3)); v.AsInt() != -1 {
		t.Error("sign")
	}
	if v := call(t, "sqrt", value.Float(9)); v.AsFloat() != 3 {
		t.Error("sqrt")
	}
	if v := call(t, "exp", value.Int(0)); v.AsFloat() != 1 {
		t.Error("exp")
	}
	if v := call(t, "log", value.Float(math.E)); math.Abs(v.AsFloat()-1) > 1e-12 {
		t.Error("log")
	}
	if v := call(t, "log10", value.Int(100)); v.AsFloat() != 2 {
		t.Error("log10")
	}
	if v := call(t, "log2", value.Int(8)); v.AsFloat() != 3 {
		t.Error("log2")
	}
	if v := call(t, "atan2", value.Int(1), value.Int(1)); math.Abs(v.AsFloat()-math.Pi/4) > 1e-12 {
		t.Error("atan2")
	}
	if v := call(t, "pi"); v.AsFloat() != math.Pi {
		t.Error("pi")
	}
	if v := call(t, "e"); v.AsFloat() != math.E {
		t.Error("e")
	}
	if v := call(t, "degrees", value.Float(math.Pi)); math.Abs(v.AsFloat()-180) > 1e-9 {
		t.Error("degrees")
	}
	if v := call(t, "radians", value.Int(180)); math.Abs(v.AsFloat()-math.Pi) > 1e-12 {
		t.Error("radians")
	}
	if v := call(t, "pow", value.Int(2), value.Int(3)); v.AsFloat() != 8 {
		t.Error("pow")
	}
	if v := call(t, "isNaN", value.Float(math.NaN())); !v.AsBool() {
		t.Error("isNaN")
	}
	if v := call(t, "cot", value.Float(math.Pi/4)); math.Abs(v.AsFloat()-1) > 1e-12 {
		t.Error("cot")
	}
	for _, fn := range []string{"sin", "cos", "tan", "asin", "acos", "atan"} {
		if v := call(t, fn, value.Int(0)); v.Kind() != value.KindFloat {
			t.Errorf("%s must return float", fn)
		}
	}
	if err := callErr(t, "sqrt", value.Str("x")); err == nil {
		t.Error("sqrt of string must be a type error")
	}
}

func TestConversions(t *testing.T) {
	if v := call(t, "toInteger", value.Str("42")); v.AsInt() != 42 {
		t.Error("toInteger string")
	}
	if v := call(t, "toInteger", value.Float(3.9)); v.AsInt() != 3 {
		t.Error("toInteger truncates")
	}
	if v := call(t, "toInteger", value.Str("nope")); !v.IsNull() {
		t.Error("toInteger invalid must be null")
	}
	if v := call(t, "toInteger", value.Bool(true)); v.AsInt() != 1 {
		t.Error("toInteger bool")
	}
	if v := call(t, "toFloat", value.Str("1.5")); v.AsFloat() != 1.5 {
		t.Error("toFloat")
	}
	if v := call(t, "toBoolean", value.Str("TRUE")); !v.AsBool() {
		t.Error("toBoolean")
	}
	if v := call(t, "toBoolean", value.Int(1)); !v.IsNull() {
		t.Error("toBoolean of int must be null")
	}
	if v := call(t, "toString", value.Int(7)); v.AsString() != "7" {
		t.Error("toString")
	}
	if v := call(t, "toString", value.Null); !v.IsNull() {
		t.Error("toString(null) must be null")
	}
}

func TestStringFunctions(t *testing.T) {
	if v := call(t, "toUpper", value.Str("ab")); v.AsString() != "AB" {
		t.Error("toUpper")
	}
	if v := call(t, "lCase", value.Str("AB")); v.AsString() != "ab" {
		t.Error("lCase")
	}
	if v := call(t, "uCase", value.Str("ab")); v.AsString() != "AB" {
		t.Error("uCase")
	}
	if v := call(t, "trim", value.Str("  x ")); v.AsString() != "x" {
		t.Error("trim")
	}
	if v := call(t, "lTrim", value.Str("  x ")); v.AsString() != "x " {
		t.Error("lTrim")
	}
	if v := call(t, "rTrim", value.Str(" x  ")); v.AsString() != " x" {
		t.Error("rTrim")
	}
	if v := call(t, "reverse", value.Str("abc")); v.AsString() != "cba" {
		t.Error("reverse string")
	}
	if v := call(t, "reverse", value.List(value.Int(1), value.Int(2))); v.AsList()[0].AsInt() != 2 {
		t.Error("reverse list")
	}
	if v := call(t, "replace", value.Str("aXbX"), value.Str("X"), value.Str("y")); v.AsString() != "ayby" {
		t.Error("replace")
	}
	// The Figure 9 corner case: the reference semantics returns the
	// subject unchanged for an empty search string.
	if v := call(t, "replace", value.Str("ts15G"), value.Str(""), value.Str("U11sWFvRw")); v.AsString() != "ts15G" {
		t.Error("replace with empty search must return subject")
	}
	if v := call(t, "split", value.Str("a,b"), value.Str(",")); len(v.AsList()) != 2 {
		t.Error("split")
	}
	if v := call(t, "substring", value.Str("abcdef"), value.Int(2)); v.AsString() != "cdef" {
		t.Error("substring 2-arg")
	}
	if v := call(t, "substring", value.Str("abcdef"), value.Int(1), value.Int(3)); v.AsString() != "bcd" {
		t.Error("substring 3-arg")
	}
	if v := call(t, "substring", value.Str("ab"), value.Int(9)); v.AsString() != "" {
		t.Error("substring beyond end")
	}
	if err := callErr(t, "substring", value.Str("ab"), value.Int(-1)); err == nil {
		t.Error("negative substring start must error")
	}
	if v := call(t, "left", value.Str("abcdef"), value.Int(2)); v.AsString() != "ab" {
		t.Error("left")
	}
	if v := call(t, "right", value.Str("abcdef"), value.Int(2)); v.AsString() != "ef" {
		t.Error("right")
	}
	if v := call(t, "left", value.Str("ab"), value.Int(9)); v.AsString() != "ab" {
		t.Error("left clamps")
	}
	if v := call(t, "char_length", value.Str("abc")); v.AsInt() != 3 {
		t.Error("char_length")
	}
	if v := call(t, "character_length", value.Str("abc")); v.AsInt() != 3 {
		t.Error("character_length")
	}
}

func TestListFunctions(t *testing.T) {
	l := value.List(value.Int(1), value.Int(2), value.Int(3))
	if v := call(t, "size", l); v.AsInt() != 3 {
		t.Error("size list")
	}
	if v := call(t, "size", value.Str("abcd")); v.AsInt() != 4 {
		t.Error("size string")
	}
	if v := call(t, "length", l); v.AsInt() != 3 {
		t.Error("length")
	}
	if v := call(t, "head", l); v.AsInt() != 1 {
		t.Error("head")
	}
	if v := call(t, "head", value.List()); !v.IsNull() {
		t.Error("head of empty must be null")
	}
	if v := call(t, "last", l); v.AsInt() != 3 {
		t.Error("last")
	}
	if v := call(t, "tail", l); len(v.AsList()) != 2 {
		t.Error("tail")
	}
	if v := call(t, "tail", value.List()); len(v.AsList()) != 0 {
		t.Error("tail of empty must be empty")
	}
	if v := call(t, "range", value.Int(1), value.Int(5), value.Int(2)); len(v.AsList()) != 3 {
		t.Error("range with step")
	}
	if v := call(t, "range", value.Int(3), value.Int(1)); len(v.AsList()) != 0 {
		t.Error("range wrong direction must be empty")
	}
	if v := call(t, "range", value.Int(3), value.Int(1), value.Int(-1)); len(v.AsList()) != 3 {
		t.Error("descending range")
	}
	if err := callErr(t, "range", value.Int(1), value.Int(2), value.Int(0)); err == nil {
		t.Error("zero step must error")
	}
	if v := call(t, "coalesce", value.Null, value.Null, value.Int(7)); v.AsInt() != 7 {
		t.Error("coalesce")
	}
	if v := call(t, "coalesce", value.Null); !v.IsNull() {
		t.Error("coalesce all null")
	}
	if v := call(t, "isEmpty", value.List()); !v.AsBool() {
		t.Error("isEmpty")
	}
	if v := call(t, "isEmpty", value.Str("x")); v.AsBool() {
		t.Error("isEmpty non-empty")
	}
}

func TestEntityFunctions(t *testing.T) {
	n := value.Node(1)
	r := value.Rel(2)
	if v := call(t, "id", n); v.AsInt() != 1 {
		t.Error("id")
	}
	if v := call(t, "labels", n); len(v.AsList()) != 2 {
		t.Error("labels")
	}
	if v := call(t, "type", r); v.AsString() != "T0" {
		t.Error("type")
	}
	if v := call(t, "startNode", r); v.EntityID() != 1 {
		t.Error("startNode")
	}
	if v := call(t, "endNode", r); v.EntityID() != 3 {
		t.Error("endNode")
	}
	if v := call(t, "keys", n); len(v.AsList()) != 2 || v.AsList()[0].AsString() != "a" {
		t.Error("keys must be sorted")
	}
	if v := call(t, "properties", n); v.AsMap()["a"].AsInt() != 1 {
		t.Error("properties")
	}
	if v := call(t, "exists", value.Null); v.AsBool() {
		t.Error("exists(null) must be false")
	}
	if v := call(t, "exists", value.Int(1)); !v.AsBool() {
		t.Error("exists(non-null) must be true")
	}
	if err := callErr(t, "type", n); err == nil {
		t.Error("type of node must error")
	}
	if err := callErr(t, "labels", value.Node(99)); err == nil {
		t.Error("labels of unknown node must error")
	}
}

func TestNullPropagation(t *testing.T) {
	for _, name := range []string{"abs", "toUpper", "size", "head", "id", "split"} {
		f := Lookup(name)
		args := make([]value.Value, f.MinArgs())
		for i := range args {
			args[i] = value.Null
		}
		v, err := Invoke(f, fakeGraph{}, args)
		if err != nil || !v.IsNull() {
			t.Errorf("%s(null...) = %v, %v; want null", name, v, err)
		}
	}
}

func TestArgCountValidation(t *testing.T) {
	if err := callErr(t, "abs"); err == nil {
		t.Error("missing args must error")
	}
	if err := callErr(t, "abs", value.Int(1), value.Int(2)); err == nil {
		t.Error("extra args must error")
	}
	// substring has an optional third parameter.
	f := Lookup("substring")
	if f.MinArgs() != 2 || f.MaxArgs() != 3 {
		t.Errorf("substring arity: min %d max %d", f.MinArgs(), f.MaxArgs())
	}
	if Lookup("coalesce").MaxArgs() != -1 {
		t.Error("coalesce must be variadic")
	}
}

func TestAggregates(t *testing.T) {
	feed := func(name string, param value.Value, vs ...value.Value) value.Value {
		t.Helper()
		spec := LookupAgg(name)
		if spec == nil {
			t.Fatalf("aggregate %s not registered", name)
		}
		a := spec.New(param)
		for _, v := range vs {
			if err := a.Add(v); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		return a.Result()
	}
	if v := feed("count", value.Null, value.Int(1), value.Null, value.Int(2)); v.AsInt() != 2 {
		t.Error("count skips nulls")
	}
	if v := feed("sum", value.Null, value.Int(1), value.Int(2)); v.Kind() != value.KindInt || v.AsInt() != 3 {
		t.Error("sum stays integer")
	}
	if v := feed("sum", value.Null, value.Int(1), value.Float(0.5)); v.Kind() != value.KindFloat || v.AsFloat() != 1.5 {
		t.Error("sum promotes to float")
	}
	if v := feed("sum", value.Null); v.AsInt() != 0 {
		t.Error("empty sum is 0")
	}
	if v := feed("avg", value.Null, value.Int(1), value.Int(3)); v.AsFloat() != 2 {
		t.Error("avg")
	}
	if v := feed("avg", value.Null); !v.IsNull() {
		t.Error("empty avg is null")
	}
	if v := feed("min", value.Null, value.Int(3), value.Int(1), value.Null); v.AsInt() != 1 {
		t.Error("min")
	}
	if v := feed("max", value.Null, value.Int(3), value.Int(1)); v.AsInt() != 3 {
		t.Error("max")
	}
	if v := feed("min", value.Null); !v.IsNull() {
		t.Error("empty min is null")
	}
	if v := feed("collect", value.Null, value.Int(1), value.Null, value.Int(2)); len(v.AsList()) != 2 {
		t.Error("collect skips nulls")
	}
	if v := feed("stDev", value.Null, value.Int(1), value.Int(3)); math.Abs(v.AsFloat()-math.Sqrt2) > 1e-12 {
		t.Errorf("stDev sample = %v", v)
	}
	if v := feed("stDevP", value.Null, value.Int(1), value.Int(3)); v.AsFloat() != 1 {
		t.Errorf("stDevP population = %v", v)
	}
	if v := feed("stDev", value.Null, value.Int(5)); v.AsFloat() != 0 {
		t.Error("stDev of one element is 0")
	}
	if v := feed("percentileCont", value.Float(0.5), value.Int(1), value.Int(2), value.Int(3)); v.AsFloat() != 2 {
		t.Error("percentileCont median")
	}
	if v := feed("percentileCont", value.Float(0.25), value.Int(0), value.Int(10)); v.AsFloat() != 2.5 {
		t.Error("percentileCont interpolation")
	}
	if v := feed("percentileDisc", value.Float(0.5), value.Int(1), value.Int(2), value.Int(3), value.Int(4)); v.AsFloat() != 2 {
		t.Error("percentileDisc")
	}
	if v := feed("percentileCont", value.Float(0.5)); !v.IsNull() {
		t.Error("empty percentile is null")
	}
	cs := CountStar()
	cs.Add(value.Null)
	cs.Add(value.Int(1))
	if cs.Result().AsInt() != 2 {
		t.Error("count(*) counts nulls")
	}
	if !IsAggregate("COUNT") || IsAggregate("abs") {
		t.Error("IsAggregate broken")
	}
}

func TestTypeClass(t *testing.T) {
	if !TNum.Accepts(TInt) || !TNum.Accepts(TFloat) || TNum.Accepts(TStr) {
		t.Error("TNum acceptance broken")
	}
	if !TEntity.Accepts(TNode) || !TEntity.Accepts(TRel) || TEntity.Accepts(TList) {
		t.Error("TEntity acceptance broken")
	}
	if !TAny.Accepts(TMap) {
		t.Error("TAny must accept everything")
	}
	if ClassOf(value.Int(1)) != TInt || ClassOf(value.Str("x")) != TStr || ClassOf(value.Node(1)) != TNode {
		t.Error("ClassOf broken")
	}
	if TInt.String() != "integer" || TEntity.String() != "entity" {
		t.Error("TypeClass.String broken")
	}
}

func TestNondeterministicFlag(t *testing.T) {
	if !Lookup("rand").Nondeterministic || !Lookup("timestamp").Nondeterministic {
		t.Error("rand/timestamp must be flagged nondeterministic")
	}
	if Lookup("abs").Nondeterministic {
		t.Error("abs must be deterministic")
	}
}

// TestRegistriesDisjoint: no name is both a scalar function and an
// aggregate, in any case, so a caller may ask either registry first.
func TestRegistriesDisjoint(t *testing.T) {
	for _, a := range AllAggs() {
		for _, name := range []string{a.Name, strings.ToLower(a.Name), strings.ToUpper(a.Name)} {
			if Lookup(name) != nil {
				t.Errorf("%s is both an aggregate and a scalar function", name)
			}
		}
	}
	for _, f := range All() {
		if IsAggregate(f.Name) {
			t.Errorf("%s is both a scalar function and an aggregate", f.Name)
		}
	}
}
