package value

import (
	"math"
	"testing"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindBool: "BOOLEAN", KindInt: "INTEGER",
		KindFloat: "FLOAT", KindString: "STRING", KindList: "LIST",
		KindMap: "MAP", KindNode: "NODE", KindRel: "RELATIONSHIP",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if !Null.IsNull() || Null.Kind() != KindNull {
		t.Error("Null must be null")
	}
	if v := Bool(true); v.Kind() != KindBool || !v.AsBool() {
		t.Error("Bool(true) broken")
	}
	if v := Int(42); v.Kind() != KindInt || v.AsInt() != 42 {
		t.Error("Int(42) broken")
	}
	if v := Float(1.5); v.Kind() != KindFloat || v.AsFloat() != 1.5 {
		t.Error("Float(1.5) broken")
	}
	if v := Int(3); v.AsFloat() != 3.0 {
		t.Error("Int AsFloat conversion broken")
	}
	if v := Str("x"); v.Kind() != KindString || v.AsString() != "x" {
		t.Error("Str broken")
	}
	if v := List(Int(1), Int(2)); v.Kind() != KindList || len(v.AsList()) != 2 {
		t.Error("List broken")
	}
	if v := Map(map[string]Value{"a": Int(1)}); v.Kind() != KindMap || len(v.AsMap()) != 1 {
		t.Error("Map broken")
	}
	if v := Node(7); v.Kind() != KindNode || v.EntityID() != 7 || !v.IsEntity() {
		t.Error("Node broken")
	}
	if v := Rel(9); v.Kind() != KindRel || v.EntityID() != 9 || !v.IsEntity() {
		t.Error("Rel broken")
	}
	var zero Value
	if !zero.IsNull() {
		t.Error("zero Value must be null")
	}
}

func TestTriLogicTables(t *testing.T) {
	T, F, U := TriTrue, TriFalse, TriUnknown
	and := [][3]Tri{
		{T, T, T}, {T, F, F}, {T, U, U},
		{F, T, F}, {F, F, F}, {F, U, F},
		{U, T, U}, {U, F, F}, {U, U, U},
	}
	for _, c := range and {
		if got := c[0].And(c[1]); got != c[2] {
			t.Errorf("%v AND %v = %v, want %v", c[0], c[1], got, c[2])
		}
	}
	or := [][3]Tri{
		{T, T, T}, {T, F, T}, {T, U, T},
		{F, T, T}, {F, F, F}, {F, U, U},
		{U, T, T}, {U, F, U}, {U, U, U},
	}
	for _, c := range or {
		if got := c[0].Or(c[1]); got != c[2] {
			t.Errorf("%v OR %v = %v, want %v", c[0], c[1], got, c[2])
		}
	}
	xor := [][3]Tri{
		{T, T, F}, {T, F, T}, {T, U, U},
		{F, F, F}, {F, U, U}, {U, U, U},
	}
	for _, c := range xor {
		if got := c[0].Xor(c[1]); got != c[2] {
			t.Errorf("%v XOR %v = %v, want %v", c[0], c[1], got, c[2])
		}
	}
	if T.Not() != F || F.Not() != T || U.Not() != U {
		t.Error("NOT table broken")
	}
}

func TestTruth(t *testing.T) {
	if tr, ok := True.Truth(); !ok || tr != TriTrue {
		t.Error("True.Truth broken")
	}
	if tr, ok := Null.Truth(); !ok || tr != TriUnknown {
		t.Error("Null.Truth broken")
	}
	if _, ok := Int(1).Truth(); ok {
		t.Error("Int truthiness must be a type error")
	}
}

func TestAdd(t *testing.T) {
	cases := []struct {
		a, b, want Value
	}{
		{Int(2), Int(3), Int(5)},
		{Int(2), Float(0.5), Float(2.5)},
		{Float(1.5), Float(1.5), Float(3)},
		{Str("a"), Str("b"), Str("ab")},
		{Str("a"), Int(1), Str("a1")},
		{Int(1), Str("a"), Str("1a")},
		{Str("v"), Float(1.5), Str("v1.5")},
		{List(Int(1)), List(Int(2)), List(Int(1), Int(2))},
		{List(Int(1)), Int(2), List(Int(1), Int(2))},
		{Int(0), List(Int(2)), List(Int(0), Int(2))},
		{Null, Int(1), Null},
		{Int(1), Null, Null},
	}
	for _, c := range cases {
		got, err := Add(c.a, c.b)
		if err != nil {
			t.Errorf("Add(%v,%v) error: %v", c.a, c.b, err)
			continue
		}
		if !Equivalent(got, c.want) {
			t.Errorf("Add(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if _, err := Add(Bool(true), Int(1)); err == nil {
		t.Error("Add(bool,int) must be a type error")
	}
}

func TestArithmetic(t *testing.T) {
	if v, _ := Sub(Int(5), Int(3)); v.AsInt() != 2 {
		t.Error("Sub int broken")
	}
	if v, _ := Mul(Int(4), Float(0.5)); v.AsFloat() != 2 {
		t.Error("Mul mixed broken")
	}
	if v, _ := Div(Int(7), Int(2)); v.AsInt() != 3 {
		t.Error("integer Div must truncate")
	}
	if _, err := Div(Int(1), Int(0)); err != ErrDivisionByZero {
		t.Error("int div by zero must error")
	}
	if v, _ := Div(Float(1), Float(0)); !math.IsInf(v.AsFloat(), 1) {
		t.Error("float div by zero must be +Inf")
	}
	if v, _ := Mod(Int(7), Int(3)); v.AsInt() != 1 {
		t.Error("Mod broken")
	}
	if v, _ := Pow(Int(2), Int(10)); v.Kind() != KindFloat || v.AsFloat() != 1024 {
		t.Error("Pow must yield float")
	}
	if v, _ := Neg(Int(3)); v.AsInt() != -3 {
		t.Error("Neg broken")
	}
	if v, _ := Neg(Null); !v.IsNull() {
		t.Error("Neg(null) must be null")
	}
	if v, _ := Sub(Null, Int(1)); !v.IsNull() {
		t.Error("Sub null propagation broken")
	}
}

func TestIndexAndSlice(t *testing.T) {
	l := List(Int(10), Int(20), Int(30))
	if v, _ := Index(l, Int(1)); v.AsInt() != 20 {
		t.Error("Index broken")
	}
	if v, _ := Index(l, Int(-1)); v.AsInt() != 30 {
		t.Error("negative Index broken")
	}
	if v, _ := Index(l, Int(9)); !v.IsNull() {
		t.Error("out of range Index must be null")
	}
	m := Map(map[string]Value{"k": Str("v")})
	if v, _ := Index(m, Str("k")); v.AsString() != "v" {
		t.Error("map Index broken")
	}
	if v, _ := Index(m, Str("zz")); !v.IsNull() {
		t.Error("missing map key must be null")
	}
	if v, _ := Slice(l, Int(1), Int(3)); len(v.AsList()) != 2 || v.AsList()[0].AsInt() != 20 {
		t.Error("Slice broken")
	}
	if v, _ := Slice(l, Null, Int(-1)); len(v.AsList()) != 2 {
		t.Error("open/negative Slice broken")
	}
	if v, _ := Slice(l, Int(2), Int(1)); len(v.AsList()) != 0 {
		t.Error("inverted Slice must be empty")
	}
	if v, _ := Index(Null, Int(0)); !v.IsNull() {
		t.Error("Index on null must be null")
	}
}

func TestStringPredicates(t *testing.T) {
	if StartsWith(Str("abcdef"), Str("abc")) != TriTrue {
		t.Error("StartsWith broken")
	}
	if EndsWith(Str("abcdef"), Str("def")) != TriTrue {
		t.Error("EndsWith broken")
	}
	if Contains(Str("abcdef"), Str("cde")) != TriTrue {
		t.Error("Contains broken")
	}
	if Contains(Str("abc"), Str("zz")) != TriFalse {
		t.Error("Contains negative broken")
	}
	if StartsWith(Null, Str("a")) != TriUnknown {
		t.Error("null StartsWith must be unknown")
	}
	if StartsWith(Int(1), Str("a")) != TriUnknown {
		t.Error("non-string StartsWith must be unknown")
	}
	if Contains(Str("abc"), Str("")) != TriTrue {
		t.Error("empty substring is contained")
	}
}

func TestIn(t *testing.T) {
	l := List(Int(1), Int(2), Int(3))
	if In(Int(2), l) != TriTrue {
		t.Error("In broken")
	}
	if In(Int(9), l) != TriFalse {
		t.Error("In negative broken")
	}
	if In(Null, l) != TriUnknown {
		t.Error("null IN non-empty must be unknown")
	}
	if In(Null, List()) != TriFalse {
		t.Error("null IN empty list must be false")
	}
	if In(Int(1), List(Null, Int(1))) != TriTrue {
		t.Error("match beats unknown")
	}
	if In(Int(9), List(Null, Int(1))) != TriUnknown {
		t.Error("unknown element poisons miss")
	}
	if In(Int(1), Null) != TriUnknown {
		t.Error("IN null must be unknown")
	}
}

func TestEqual(t *testing.T) {
	if Equal(Int(1), Float(1)) != TriTrue {
		t.Error("1 = 1.0 must be true")
	}
	if Equal(Int(1), Str("1")) != TriFalse {
		t.Error("1 = '1' must be false")
	}
	if Equal(Null, Null) != TriUnknown {
		t.Error("null = null must be unknown")
	}
	if Equal(List(Int(1), Null), List(Int(1), Int(2))) != TriUnknown {
		t.Error("list with null element must compare unknown")
	}
	if Equal(List(Int(1), Null), List(Int(2), Int(2))) != TriFalse {
		t.Error("definite mismatch dominates unknown")
	}
	if Equal(Node(3), Node(3)) != TriTrue || Equal(Node(3), Node(4)) != TriFalse {
		t.Error("node identity equality broken")
	}
	if Equal(Node(3), Rel(3)) != TriFalse {
		t.Error("node vs rel must be false")
	}
	m1 := Map(map[string]Value{"a": Int(1)})
	m2 := Map(map[string]Value{"a": Int(1)})
	m3 := Map(map[string]Value{"a": Int(2)})
	if Equal(m1, m2) != TriTrue || Equal(m1, m3) != TriFalse {
		t.Error("map equality broken")
	}
	if Equal(Float(math.NaN()), Float(math.NaN())) != TriFalse {
		t.Error("NaN = NaN must be false")
	}
	if NotEqual(Int(1), Int(2)) != TriTrue {
		t.Error("NotEqual broken")
	}
}

func TestCompare(t *testing.T) {
	if Less(Int(1), Int(2)) != TriTrue {
		t.Error("1 < 2 broken")
	}
	if Less(Str("a"), Str("b")) != TriTrue {
		t.Error("string compare broken")
	}
	if Less(Int(1), Str("a")) != TriUnknown {
		t.Error("cross-type compare must be unknown")
	}
	if Less(Null, Int(1)) != TriUnknown {
		t.Error("null compare must be unknown")
	}
	if LessEq(Int(2), Int(2)) != TriTrue || Greater(Int(3), Int(2)) != TriTrue || GreaterEq(Int(2), Int(3)) != TriFalse {
		t.Error("comparison operators broken")
	}
	if Less(Float(math.NaN()), Float(1)) != TriUnknown {
		t.Error("NaN compare must be unknown")
	}
	if Less(Bool(false), Bool(true)) != TriTrue {
		t.Error("bool compare broken")
	}
	if Less(List(Int(1)), List(Int(1), Int(2))) != TriTrue {
		t.Error("list prefix compare broken")
	}
}

func TestEquivalent(t *testing.T) {
	if !Equivalent(Null, Null) {
		t.Error("null ≡ null")
	}
	if !Equivalent(Float(math.NaN()), Float(math.NaN())) {
		t.Error("NaN ≡ NaN")
	}
	if !Equivalent(Int(1), Float(1)) {
		t.Error("1 ≡ 1.0")
	}
	if Equivalent(Int(1), Str("1")) {
		t.Error("1 !≡ '1'")
	}
	if !Equivalent(List(Null), List(Null)) {
		t.Error("[null] ≡ [null]")
	}
	big := int64(1) << 55
	if Equivalent(Int(big+1), Float(float64(big))) {
		t.Error("inexact large float must not be equivalent to nearby int")
	}
}

func TestOrderCompareTotalOrder(t *testing.T) {
	// null sorts last; numbers sort before strings? No: rank order is
	// map < node < rel < list < string < bool < number < null.
	seq := []Value{
		Map(map[string]Value{}), Node(1), Rel(1), List(), Str("a"),
		Bool(false), Int(0), Null,
	}
	for i := 0; i < len(seq)-1; i++ {
		if OrderCompare(seq[i], seq[i+1]) >= 0 {
			t.Errorf("rank order broken at %v vs %v", seq[i], seq[i+1])
		}
	}
	if OrderCompare(Float(math.NaN()), Float(math.Inf(1))) <= 0 {
		t.Error("NaN must sort after +Inf")
	}
	if OrderCompare(Int(1), Int(2)) >= 0 {
		t.Error("int order broken")
	}
	if OrderCompare(Null, Null) != 0 {
		t.Error("null ties with null")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "null"},
		{Bool(true), "true"},
		{Int(-3), "-3"},
		{Float(2.5), "2.5"},
		{Float(3), "3.0"},
		{Str("a'b"), `'a\'b'`},
		{List(Int(1), Str("x")), "[1, 'x']"},
		{Map(map[string]Value{"b": Int(2), "a": Int(1)}), "{a: 1, b: 2}"},
		{Node(5), "(#5)"},
		{Rel(6), "[#6]"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v.Kind(), got, c.want)
		}
	}
}

// TestValueStringAllocs pins what rendering costs per kind: toString
// renders every candidate value of the synthesizer's predicate layers.
// Null and booleans render without allocating, and any other value that
// fits the stack buffer in one allocation, its string.
func TestValueStringAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cases := []struct {
		v    Value
		want float64
	}{
		{Null, 0},
		{Bool(true), 0},
		{Bool(false), 0},
		{Int(300), 1},
		{Int(-1982025281), 1},
		{Float(481310.452), 1},
		{Float(3), 1},
		{Str("q11cZH6h"), 1},
		{Str("a'b"), 1},
		{List(Int(1), Str("x")), 1},
		{Map(map[string]Value{"k": Int(1)}), 2}, // the sorted key list, and the string
		{Node(5), 1},
		{Rel(6), 1},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(100, func() { _ = c.v.String() }); got != c.want {
			t.Errorf("String(%s) allocates %.0f times, want %.0f", c.v, got, c.want)
		}
	}
}

func TestKeyMatchesEquivalence(t *testing.T) {
	vals := []Value{
		Null, Bool(true), Bool(false), Int(1), Int(2), Float(1), Float(1.5),
		Float(math.NaN()), Str("1"), Str(""), List(), List(Int(1)),
		List(Null), Map(map[string]Value{}), Map(map[string]Value{"a": Int(1)}),
		Node(1), Rel(1), Node(2), Int(1 << 55), Float(float64(int64(1) << 55)),
	}
	for _, a := range vals {
		for _, b := range vals {
			eq := Equivalent(a, b)
			keq := a.Key() == b.Key()
			if eq != keq {
				t.Errorf("Key/Equivalent mismatch: %v vs %v (equiv=%v, keyEq=%v)", a, b, eq, keq)
			}
		}
	}
}
