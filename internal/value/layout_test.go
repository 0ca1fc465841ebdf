package value

import (
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// TestValueSize pins the three-word layout: kind, scalar, pointer.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 24", got)
	}
}

// TestRoundTrip checks that every constructor's payload reads back
// unchanged, including the edge cases the word encoding must preserve.
func TestRoundTrip(t *testing.T) {
	for _, b := range []bool{true, false} {
		if v := Bool(b); v.Kind() != KindBool || v.AsBool() != b {
			t.Errorf("Bool(%v) -> %v %v", b, v.Kind(), v.AsBool())
		}
	}
	for _, i := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64} {
		if v := Int(i); v.Kind() != KindInt || v.AsInt() != i {
			t.Errorf("Int(%d) -> %v %d", i, v.Kind(), v.AsInt())
		}
		if v := Node(i); v.Kind() != KindNode || v.EntityID() != i {
			t.Errorf("Node(%d) -> %v %d", i, v.Kind(), v.EntityID())
		}
		if v := Rel(i); v.Kind() != KindRel || v.EntityID() != i {
			t.Errorf("Rel(%d) -> %v %d", i, v.Kind(), v.EntityID())
		}
	}
	negZero := math.Copysign(0, -1)
	for _, f := range []float64{0, negZero, 1.5, -2.25, math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		v := Float(f)
		if v.Kind() != KindFloat || math.Float64bits(v.AsFloat()) != math.Float64bits(f) {
			t.Errorf("Float(%v) -> %v %v", f, v.Kind(), v.AsFloat())
		}
	}
	backing := "prefix-payload-suffix"
	for _, s := range []string{"", "a", "héllo ✓", backing, backing[7:14], backing[21:]} {
		v := Str(s)
		if v.Kind() != KindString || v.AsString() != s || len(v.AsString()) != len(s) {
			t.Errorf("Str(%q) -> %v %q", s, v.Kind(), v.AsString())
		}
	}

	if l := ListOf(nil).AsList(); l != nil {
		t.Errorf("ListOf(nil).AsList() = %#v, want nil", l)
	}
	if l := List().AsList(); l != nil {
		t.Errorf("List().AsList() = %#v, want nil", l)
	}
	if l := ListOf([]Value{}).AsList(); l == nil || len(l) != 0 {
		t.Errorf("ListOf([]Value{}).AsList() = %#v, want empty non-nil", l)
	}
	big := []Value{Int(1), Str("x"), Null, Float(2.5), List(Int(7))}
	for _, l := range [][]Value{big, big[1:3], big[4:], big[5:]} {
		got := ListOf(l).AsList()
		if len(got) != len(l) || cap(got) != len(l) {
			t.Errorf("ListOf(len %d) -> len %d cap %d", len(l), len(got), cap(got))
			continue
		}
		for i := range l {
			if OrderCompare(got[i], l[i]) != 0 || got[i].Kind() != l[i].Kind() {
				t.Errorf("ListOf element %d: %v, want %v", i, got[i], l[i])
			}
		}
	}

	if m := Map(nil).AsMap(); m != nil {
		t.Errorf("Map(nil).AsMap() = %#v, want nil", m)
	}
	if m := Map(nil); m.Kind() != KindMap || m.String() != "{}" {
		t.Errorf("Map(nil) -> %v %s", m.Kind(), m)
	}
	src := map[string]Value{"k": Int(1)}
	m := Map(src).AsMap()
	if len(m) != 1 || m["k"].AsInt() != 1 {
		t.Errorf("Map round trip = %v", m)
	}
	src["k2"] = Int(2) // a map payload is shared, not copied
	if len(m) != 2 {
		t.Errorf("Map payload was copied")
	}
}

// TestAccessorsOnOtherKinds pins the zero payloads the As* accessors
// return for a value of another kind, whose scalar and pointer words
// encode something else.
func TestAccessorsOnOtherKinds(t *testing.T) {
	vs := []Value{Null, True, Int(5), Float(2.5), Str("abc"), List(Int(1)),
		Map(map[string]Value{"a": Int(1)}), Node(3), Rel(4)}
	for _, v := range vs {
		k := v.Kind()
		if k != KindBool && v.AsBool() {
			t.Errorf("%v.AsBool() = true", v)
		}
		if k != KindInt && k != KindNode && k != KindRel && (v.AsInt() != 0 || v.EntityID() != 0) {
			t.Errorf("%v.AsInt() = %d, EntityID() = %d", v, v.AsInt(), v.EntityID())
		}
		if !v.IsNumber() && v.AsFloat() != 0 {
			t.Errorf("%v.AsFloat() = %v", v, v.AsFloat())
		}
		if k != KindString && v.AsString() != "" {
			t.Errorf("%v.AsString() = %q", v, v.AsString())
		}
		if k != KindList && v.AsList() != nil {
			t.Errorf("%v.AsList() = %v", v, v.AsList())
		}
		if k != KindMap && v.AsMap() != nil {
			t.Errorf("%v.AsMap() = %v", v, v.AsMap())
		}
	}
}

// TestAsListAppendCopies checks that appending to AsList never writes
// into the wrapped slice's spare capacity (faults.corrupt appends to it).
func TestAsListAppendCopies(t *testing.T) {
	backing := make([]Value, 3, 8)
	for i := range backing {
		backing[i] = Int(int64(i))
	}
	for _, src := range [][]Value{backing, backing[:1], backing[1:2]} {
		v := ListOf(src)
		grown := append(v.AsList(), Str("extra"))
		if len(grown) != len(src)+1 {
			t.Fatalf("append length %d", len(grown))
		}
		full := backing[:cap(backing)]
		for i := range full {
			if full[i].Kind() == KindString {
				t.Fatalf("append wrote into the source backing array at %d", i)
			}
		}
		if got := v.AsList(); len(got) != len(src) {
			t.Fatalf("source list length changed to %d", len(got))
		}
	}
}

// TestGCLiveness builds values whose only references to their payloads
// are the values themselves, forces collections that would reclaim
// anything the pointer word failed to keep alive, and reads them back.
func TestGCLiveness(t *testing.T) {
	const n = 200
	build := func(i int) Value {
		var sb strings.Builder
		sb.WriteString("str-")
		sb.WriteString(strconv.Itoa(i))
		buf := []byte(sb.String() + "-tail")
		s := string(buf)[:len(buf)-len("-tail")] // substring of a temporary
		inner := make([]Value, 3, 6)
		inner[0], inner[1], inner[2] = Int(int64(i)), Str(s), Float(float64(i)/2)
		m := make(map[string]Value, 2)
		m["s"] = Str(strings.Repeat("m", i%7+1))
		m["l"] = ListOf(inner[1:3])
		return List(Str(s), ListOf(inner), Map(m))
	}
	check := func(i int, v Value) {
		t.Helper()
		want := "str-" + strconv.Itoa(i)
		l := v.AsList()
		if len(l) != 3 || l[0].AsString() != want {
			t.Fatalf("value %d: string payload %v", i, v)
		}
		inner := l[1].AsList()
		if len(inner) != 3 || inner[0].AsInt() != int64(i) || inner[1].AsString() != want ||
			inner[2].AsFloat() != float64(i)/2 {
			t.Fatalf("value %d: list payload %v", i, l[1])
		}
		m := l[2].AsMap()
		if m["s"].AsString() != strings.Repeat("m", i%7+1) {
			t.Fatalf("value %d: map payload %v", i, l[2])
		}
		sub := m["l"].AsList()
		if len(sub) != 2 || sub[0].AsString() != want || sub[1].AsFloat() != float64(i)/2 {
			t.Fatalf("value %d: sub-list payload %v", i, m["l"])
		}
	}
	vs := make([]Value, n)
	for i := range vs {
		vs[i] = build(i)
	}
	for round := 0; round < 3; round++ {
		runtime.GC()
		// Churn the heap so reclaimed spans would be reused and overwritten.
		junk := make([][]byte, 0, 1000)
		for j := 0; j < 1000; j++ {
			junk = append(junk, []byte(strings.Repeat("x", 16+j%64)))
		}
		runtime.KeepAlive(junk)
		for i, v := range vs {
			check(i, v)
		}
	}
}
