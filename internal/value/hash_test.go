package value

import (
	"math"
	"math/rand"
	"testing"
)

// twin returns a value equivalent to v that is built differently where
// the equivalence relation allows it: integers become integral floats and
// back, −0.0 becomes 0, NaN another NaN, and maps are rebuilt with their
// entries inserted in a shuffled order.
func twin(r *rand.Rand, v Value) Value {
	switch v.Kind() {
	case KindInt:
		if r.Intn(2) == 0 {
			return Float(float64(v.AsInt()))
		}
	case KindFloat:
		f := v.AsFloat()
		switch {
		case math.IsNaN(f):
			return Float(math.Float64frombits(math.Float64bits(math.NaN()) ^ 1))
		case f == 0:
			return Float(math.Copysign(0, -math.Copysign(1, f)))
		case f == math.Trunc(f) && math.Abs(f) < 1<<53:
			return Int(int64(f))
		}
	case KindList:
		l := v.AsList()
		out := make([]Value, len(l))
		for i, e := range l {
			out[i] = twin(r, e)
		}
		return ListOf(out)
	case KindMap:
		m := v.AsMap()
		keys := sortedKeys(m)
		r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		out := make(map[string]Value, len(m))
		for _, k := range keys {
			out[k] = twin(r, m[k])
		}
		return Map(out)
	}
	return v
}

// withSpecialFloats replaces some numbers of v with NaN or −0.0, which
// randomValue never draws.
func withSpecialFloats(r *rand.Rand, v Value) Value {
	switch v.Kind() {
	case KindInt, KindFloat:
		switch r.Intn(4) {
		case 0:
			return Float(math.NaN())
		case 1:
			return Float(math.Copysign(0, -1))
		}
	case KindList:
		l := v.AsList()
		out := make([]Value, len(l))
		for i, e := range l {
			out[i] = withSpecialFloats(r, e)
		}
		return ListOf(out)
	case KindMap:
		out := make(map[string]Value, len(v.AsMap()))
		for k, e := range v.AsMap() {
			out[k] = withSpecialFloats(r, e)
		}
		return Map(out)
	}
	return v
}

func TestQuickHashConsistentWithEquivalence(t *testing.T) {
	qc(t, func(a, b Value) bool {
		return !Equivalent(a, b) || Hash(a) == Hash(b)
	})
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		a := withSpecialFloats(r, randomValue(r, 3))
		b := twin(r, a)
		if !Equivalent(a, b) {
			t.Fatalf("twin %v of %v is not equivalent", b, a)
		}
		if Hash(a) != Hash(b) {
			t.Fatalf("equivalent %v and %v hash to %x and %x", a, b, Hash(a), Hash(b))
		}
	}
}

// TestHashEquivalentNotIdentical lists values that are equivalent but
// built differently; each pair must hash alike, as a row set and
// Result.Equal rely on.
func TestHashEquivalentNotIdentical(t *testing.T) {
	negZero := math.Copysign(0, -1)
	otherNaN := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	m1 := map[string]Value{}
	m2 := map[string]Value{}
	for i := 0; i < 20; i++ {
		m1[string(rune('a'+i))] = Int(int64(i))
		m2[string(rune('a'+19-i))] = Float(float64(19 - i))
	}
	cases := []struct {
		name string
		a, b Value
	}{
		{"int and integral float", Int(1), Float(1)},
		{"negative int and float", Int(-7), Float(-7)},
		{"large int and float", Int(1 << 52), Float(1 << 52)},
		{"zero and negative zero", Float(0), Float(negZero)},
		{"int zero and negative zero", Int(0), Float(negZero)},
		{"two NaNs", Float(math.NaN()), Float(otherNaN)},
		{"nested lists", List(Int(1), List(Float(2), Float(math.NaN()))), List(Float(1), List(Int(2), Float(otherNaN)))},
		{"maps in another order", Map(m1), Map(m2)},
		{"map in a list", List(Map(map[string]Value{"k": Int(3)})), List(Map(map[string]Value{"k": Float(3)}))},
		{"long strings", Str("a string longer than eight bytes"), Str("a string longer than eight " + "bytes")},
	}
	for _, c := range cases {
		if !Equivalent(c.a, c.b) {
			t.Errorf("%s: %v and %v are not equivalent", c.name, c.a, c.b)
		}
		if Hash(c.a) != Hash(c.b) {
			t.Errorf("%s: %v and %v hash to %x and %x", c.name, c.a, c.b, Hash(c.a), Hash(c.b))
		}
		if HashRow([]Value{c.a, Null}) != HashRow([]Value{c.b, Null}) {
			t.Errorf("%s: rows hash differently", c.name)
		}
	}
	// Values Key tells apart should mostly hash apart; these would
	// collide under a careless hash.
	apart := [][2]Value{
		{Int(1), Node(1)}, {Node(1), Rel(1)}, {Int(0), Null}, {Bool(false), Int(0)},
		{Str("ab"), List(Str("a"), Str("b"))}, {List(Int(1), Int(2)), List(Int(2), Int(1))},
		{Float(1.5), Int(int64(math.Float64bits(1.5)))}, {Int(1 << 60), Float(1 << 60)},
	}
	for _, p := range apart {
		if Hash(p[0]) == Hash(p[1]) {
			t.Errorf("%v and %v hash alike", p[0], p[1])
		}
	}
}

func TestQuickKeyLenBoundsKey(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	extra := []Value{
		Int(math.MinInt64), Int(math.MaxInt64), Float(-1.2345678901234567e-308),
		Float(math.MaxFloat64), Float(math.Inf(-1)), Float(math.NaN()), Str("x'y"),
	}
	for i := 0; i < 2000+len(extra); i++ {
		var v Value
		if i < len(extra) {
			v = extra[i]
		} else {
			v = withSpecialFloats(r, randomValue(r, 3))
		}
		if n, k := v.KeyLen(), len(v.Key()); n < k {
			t.Fatalf("KeyLen(%v) = %d < len(Key()) = %d", v, n, k)
		}
	}
}

// TestRowSet checks the set's contract: the first occurrence of each
// class keeps its index, later equivalent rows find it, and a reset set
// forgets everything.
func TestRowSet(t *testing.T) {
	var s RowSet
	for round := 0; round < 2; round++ {
		s.Reset(2)
		rows := [][]Value{
			{Int(1), Str("a")},
			{Float(1), Str("a")}, // equivalent to row 0
			{Int(2), Null},
			{Int(1), Str("b")},
			{Int(2), Null}, // equivalent to row 2
		}
		want := []struct {
			i     int
			added bool
		}{{0, true}, {0, false}, {1, true}, {2, true}, {1, false}}
		for k, row := range rows {
			i, added := s.Add(row)
			if i != want[k].i || added != want[k].added {
				t.Fatalf("round %d: Add(%v) = %d, %v; want %d, %v", round, row, i, added, want[k].i, want[k].added)
			}
		}
		if !EquivalentRows(s.Row(0), rows[0]) || s.Row(0)[0].Kind() != KindInt || !EquivalentRows(s.Row(2), rows[3]) {
			t.Fatalf("round %d: the set keeps %v, %v, %v", round, s.Row(0), s.Row(1), s.Row(2))
		}
	}
	// Many rows, to grow the table past its first size.
	s.Reset(1)
	for i := 0; i < 1000; i++ {
		if j, added := s.Add([]Value{Int(int64(i % 300))}); added != (i < 300) || j != i%300 {
			t.Fatalf("Add(%d) = %d, %v", i%300, j, added)
		}
	}
	// Zero-width rows are all equivalent.
	s.Reset(0)
	if _, added := s.Add(nil); !added {
		t.Fatal("the first empty row must be added")
	}
	if i, added := s.Add([]Value{}); i != 0 || added {
		t.Fatal("a second empty row must find the first")
	}
}

func TestRowSetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var s RowSet
	row := make([]Value, 2)
	fill := func() {
		s.Reset(2)
		for i := 0; i < 200; i++ {
			row[0], row[1] = Int(int64(i%50)), Str("x")
			s.Add(row)
		}
	}
	fill()
	if got := testing.AllocsPerRun(20, fill); got != 0 {
		t.Errorf("a reused row set allocates %.0f times, want 0", got)
	}
}
