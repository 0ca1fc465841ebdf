package engine

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gqs/internal/graph"
	"gqs/internal/value"
)

// TestPlannerEquivalenceProperty is a self-differential check: for random
// read queries over random graphs, the engine must produce the same
// result multiset with the planner enabled, disabled, and under reversed
// scan order. This is the correctness guard for the optimization passes
// the ablation benchmarks measure.
func TestPlannerEquivalenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 120; trial++ {
		g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 8, MaxRels: 20})
		q := randomReadQuery(r, g)

		variants := []Options{
			{},
			{DisablePlanner: true},
			{ReverseScan: true},
		}
		var results []*Result
		var errs []error
		for _, opt := range variants {
			e := New(opt)
			e.LoadGraph(g, schema)
			res, err := e.Execute(q)
			results = append(results, res)
			errs = append(errs, err)
		}
		for i := 1; i < len(results); i++ {
			if (errs[i] == nil) != (errs[0] == nil) {
				t.Fatalf("trial %d: error divergence %v vs %v\n%s", trial, errs[0], errs[i], q)
			}
			if errs[0] != nil {
				continue
			}
			if !canonicalEqual(results[0], results[i]) {
				t.Fatalf("trial %d: planner variant %d diverged\nquery: %s\nbase:\n%s\nvariant:\n%s",
					trial, i, q, results[0], results[i])
			}
		}
	}
}

func canonicalEqual(a, b *Result) bool {
	ka, kb := a.Canonical(), b.Canonical()
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// randomReadQuery builds a small pattern query anchored enough to stay
// cheap: 1-2 patterns, optional WHERE, projection with optional
// aggregation and modifiers.
func randomReadQuery(r *rand.Rand, g *graph.Graph) string {
	ids := g.NodeIDs()
	q := "MATCH (a)-[r1]-(b)"
	if r.Intn(2) == 0 {
		q = "MATCH (a)-[r1]->(b)"
	}
	if r.Intn(2) == 0 {
		q += ", (c)"
	}
	switch r.Intn(4) {
	case 0:
		q += " WHERE a.id = " + value.Int(ids[r.Intn(len(ids))]).String()
	case 1:
		q += " WHERE a.k1 IS NULL"
	case 2:
		q += " WHERE r1.id <> 3 AND b.id >= 0"
	}
	switch r.Intn(4) {
	case 0:
		q += " RETURN a.id AS x, b.id AS y"
	case 1:
		q += " RETURN DISTINCT a.id AS x"
	case 2:
		// min/max are plan-order-invariant; collect() is not.
		q += " RETURN count(*) AS c, min(b.id) AS lo, max(b.id) AS hi"
	default:
		q += " WITH a, count(*) AS deg RETURN a.id AS x, deg ORDER BY deg DESC, x"
	}
	return q
}

// TestDeterminismProperty: executing the same query twice on the same
// engine yields identical results, including row order.
func TestDeterminismProperty(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 8, MaxRels: 25})
	e := NewReference()
	e.LoadGraph(g, schema)
	for trial := 0; trial < 60; trial++ {
		q := randomReadQuery(r, g)
		a, errA := e.Execute(q)
		b, errB := e.Execute(q)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("error nondeterminism on %s", q)
		}
		if errA != nil {
			continue
		}
		if a.String() != b.String() {
			t.Fatalf("row-order nondeterminism on %s", q)
		}
	}
}

// TestOrderByTotalOrderProperty: ORDER BY must totally order mixed-type
// values without panicking, and ascending+descending must be reverses of
// each other for distinct keys.
func TestOrderByTotalOrderProperty(t *testing.T) {
	e := NewReference()
	f := func(xs []int16) bool {
		list := "["
		for i, x := range xs {
			if i > 0 {
				list += ", "
			}
			list += value.Int(int64(x)).String()
		}
		list += "]"
		asc, err1 := e.Execute("UNWIND " + list + " AS x RETURN x ORDER BY x")
		desc, err2 := e.Execute("UNWIND " + list + " AS x RETURN x ORDER BY x DESC")
		if err1 != nil || err2 != nil {
			return false
		}
		n := asc.Len()
		for i := 0; i < n; i++ {
			if value.OrderCompare(asc.Rows[i][0], desc.Rows[n-1-i][0]) != 0 {
				return false
			}
		}
		// Ascending order must be monotone.
		for i := 1; i < n; i++ {
			if value.OrderCompare(asc.Rows[i-1][0], asc.Rows[i][0]) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSkipLimitProperty: for any non-negative skip/limit, the result is
// the expected slice of the ordered expansion.
func TestSkipLimitProperty(t *testing.T) {
	e := NewReference()
	f := func(n, skip, limit uint8) bool {
		total := int(n % 20)
		s, l := int(skip%25), int(limit%25)
		q := "UNWIND range(1, " + value.Int(int64(total)).String() + ") AS x RETURN x ORDER BY x SKIP " +
			value.Int(int64(s)).String() + " LIMIT " + value.Int(int64(l)).String()
		res, err := e.Execute(q)
		if err != nil {
			return false
		}
		want := total - s
		if want < 0 {
			want = 0
		}
		if want > l {
			want = l
		}
		if res.Len() != want {
			return false
		}
		for i := 0; i < res.Len(); i++ {
			if res.Rows[i][0].AsInt() != int64(s+i+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestDistinctIdempotentProperty: applying DISTINCT twice equals once.
func TestDistinctIdempotentProperty(t *testing.T) {
	e := NewReference()
	f := func(xs []int8) bool {
		list := "["
		for i, x := range xs {
			if i > 0 {
				list += ", "
			}
			list += value.Int(int64(x % 4)).String()
		}
		list += "]"
		once, err1 := e.Execute("UNWIND " + list + " AS x RETURN DISTINCT x")
		twice, err2 := e.Execute("UNWIND " + list + " AS x WITH DISTINCT x RETURN DISTINCT x")
		if err1 != nil || err2 != nil {
			return false
		}
		return once.Equal(twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestUnionAllCountProperty: |A UNION ALL B| = |A| + |B|.
func TestUnionAllCountProperty(t *testing.T) {
	e := NewReference()
	f := func(a, b uint8) bool {
		na, nb := int(a%15), int(b%15)
		q := "UNWIND range(1, " + value.Int(int64(na)).String() + ") AS x RETURN x UNION ALL " +
			"UNWIND range(1, " + value.Int(int64(nb)).String() + ") AS x RETURN x"
		res, err := e.Execute(q)
		if err != nil {
			return false
		}
		return res.Len() == na+nb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// randomResult draws a result of up to n rows and w columns over a
// small pool of cells, so rows repeat, and Int(1)/Float(1.0) and other
// equivalent-but-distinct cells mix.
func randomResult(r *rand.Rand, n, w int) *Result {
	pool := []value.Value{
		value.Int(1), value.Float(1), value.Int(2), value.Float(2.5), value.Null,
		value.Str("a"), value.List(value.Int(1)), value.List(value.Float(1)),
		value.Float(math.NaN()), value.Float(math.Copysign(0, -1)), value.Int(0),
	}
	res := &Result{Columns: make([]string, w)}
	for j := range res.Columns {
		res.Columns[j] = string(rune('a' + j))
	}
	for i := r.Intn(n + 1); i > 0; i-- {
		row := make([]value.Value, w)
		for j := range row {
			row[j] = pool[r.Intn(len(pool))]
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// mutateResult returns a variant of res: its rows permuted, and
// possibly one row duplicated, dropped, or one cell replaced by an
// equivalent or a different value.
func mutateResult(r *rand.Rand, res *Result) *Result {
	out := &Result{Columns: res.Columns, Rows: slices.Clone(res.Rows)}
	r.Shuffle(len(out.Rows), func(i, j int) { out.Rows[i], out.Rows[j] = out.Rows[j], out.Rows[i] })
	if len(out.Rows) == 0 {
		return out
	}
	k := r.Intn(len(out.Rows))
	switch r.Intn(5) {
	case 0:
		out.Rows = append(out.Rows, out.Rows[k])
	case 1:
		out.Rows = slices.Delete(out.Rows, k, k+1)
	case 2, 3:
		row := slices.Clone(out.Rows[k])
		j := r.Intn(len(row))
		switch row[j].Kind() {
		case value.KindInt:
			row[j] = value.Float(float64(row[j].AsInt()))
		case value.KindFloat:
			if f := row[j].AsFloat(); f == math.Trunc(f) {
				row[j] = value.Int(int64(f))
			} else {
				row[j] = value.Str("b")
			}
		default:
			row[j] = value.Int(2)
		}
		out.Rows[k] = row
	}
	return out
}

// TestQuickEqualMatchesCanonical checks that Result.Equal, which hashes
// rows, answers exactly as comparing Canonical forms does, on results
// with permuted and duplicated rows and with int and float cells of one
// value — both below and above the row count Equal compares on the
// stack.
func TestQuickEqualMatchesCanonical(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	equal := 0
	for trial := 0; trial < 4000; trial++ {
		n := 6
		if trial%4 == 0 {
			n = 40
		}
		a := randomResult(r, n, 1+r.Intn(3))
		b := mutateResult(r, a)
		if trial%7 == 0 {
			b = randomResult(r, n, len(a.Columns))
		}
		want := slices.Equal(a.Canonical(), b.Canonical())
		if got := a.Equal(b); got != want {
			t.Fatalf("trial %d: Equal = %v, Canonical comparison %v\na:\n%s\nb:\n%s", trial, got, want, a, b)
		}
		if got := b.Equal(a); got != want {
			t.Fatalf("trial %d: Equal is not symmetric\na:\n%s\nb:\n%s", trial, a, b)
		}
		if want {
			equal++
		}
	}
	if equal < 500 {
		t.Fatalf("only %d of 4000 pairs were equal: the property is nearly vacuous", equal)
	}
	other := &Result{Columns: []string{"x"}}
	if (&Result{Columns: []string{"a"}}).Equal(other) {
		t.Fatal("results with different columns must differ")
	}
}
