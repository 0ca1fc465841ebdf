package engine_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"gqs/internal/engine"
	"gqs/internal/graph"
	"gqs/internal/value"
)

// BenchmarkExecute measures the per-query execution cost the replay
// workload times: a reset to the corpus's sealed graph and one
// ExecutePrepared, over synthCorpus's queries, each prepared once. A
// diagnostic for `make bench-go`; the end-to-end evidence is the replay
// workload of `make bench`.
func BenchmarkExecute(b *testing.B) {
	pqs, snap, schema := preparedCorpus(b)
	e := engine.NewReference()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.LoadSnapshot(snap, schema)
		if _, err := e.ExecutePrepared(ctx, pqs[i%len(pqs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// preparedCorpus prepares synthCorpus's queries at seed 11.
func preparedCorpus(tb testing.TB) ([]*engine.PreparedQuery, *graph.Snapshot, *graph.Schema) {
	qs, texts, snap, schema := synthCorpus(tb, 11, 64)
	pqs := make([]*engine.PreparedQuery, len(qs))
	for i := range qs {
		pqs[i] = engine.PrepareAST(qs[i], texts[i])
	}
	return pqs, snap, schema
}

// execAllocsShapes are queries whose per-row work must not allocate:
// DISTINCT, a WHERE whose comparison and IN operands are list literals,
// and ORDER BY. Over n nodes each allocates as much as over 2.
var execAllocsShapes = []struct{ name, text string }{
	{"distinct", "MATCH (n) RETURN DISTINCT n.k AS k"},
	{"where-lists", "MATCH (n) WHERE [n.id, n.k] <> [0, 0] AND n.k IN [n.id, 0, 1] RETURN count(*) AS c"},
	{"order-by", "MATCH (n) RETURN n.id AS id ORDER BY n.k DESC, n.id"},
}

// execAllocsGraph is n nodes with an id and k = id % 2, sealed.
func execAllocsGraph(n int) *graph.Snapshot {
	g := graph.New()
	for i := 0; i < n; i++ {
		nd := g.NewNode("L")
		nd.Props["k"] = value.Int(nd.ID % 2)
	}
	return g.Seal()
}

// synthExecAllocs is the most executing one query of synthCorpus on its
// sealed graph may allocate, on average, reset included (87.7 before
// row sets and the value stack, 32 before per-plan result columns and
// reverse on the value stack; 24.6 measured since). What remains is the
// result, strings the queries build (concatenation, toString, reverse of
// a string), reverse's copy of a list a projection item keeps, and the
// lists of projection items.
const synthExecAllocs = 25

// zeroRowCountAllocs is the most a planned count over no rows may
// allocate per execution, reset included: the shape of every
// large-graph hop whose probe or expansion finds nothing (14 while the
// interpreter ran such a projection).
const zeroRowCountAllocs = 4

// TestExecuteAllocs keeps execution free of per-row allocations: the
// shapes allocate as much over 200 rows as over 2, and a count over no
// rows and the synthesized corpus stay within their bounds.
func TestExecuteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	ctx := context.Background()
	small, large := execAllocsGraph(2), execAllocsGraph(200)
	for _, s := range execAllocsShapes {
		pq, err := engine.Prepare(s.text)
		if err != nil || !pq.Planned() {
			t.Fatalf("%s: prepare: %v (planned %v)", s.name, err, err == nil && pq.Planned())
		}
		allocs := func(snap *graph.Snapshot) float64 {
			e := engine.NewReference()
			return testing.AllocsPerRun(50, func() {
				e.LoadSnapshot(snap, nil)
				if _, err := e.ExecutePrepared(ctx, pq); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a2, a200 := allocs(small), allocs(large); a200 > a2 {
			t.Errorf("%s: %.0f allocations over 200 rows, %.0f over 2", s.name, a200, a2)
		}
	}

	zero, err := engine.Prepare("MATCH (n:L {k: 7})-[:T]->(m) RETURN count(*)")
	if err != nil || !zero.Planned() {
		t.Fatalf("zero-row count: prepare: %v (planned %v)", err, err == nil && zero.Planned())
	}
	e := engine.NewReference()
	if got := testing.AllocsPerRun(50, func() {
		e.LoadSnapshot(small, nil)
		res, err := e.ExecutePrepared(ctx, zero)
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("zero-row count: %v, %v", res, err)
		}
	}); got > zeroRowCountAllocs {
		t.Errorf("zero-row count: execution allocates %.0f times, want at most %d", got, zeroRowCountAllocs)
	}

	pqs, snap, schema := preparedCorpus(t)
	got := testing.AllocsPerRun(20, func() {
		for _, pq := range pqs {
			e.LoadSnapshot(snap, schema)
			if _, err := e.ExecutePrepared(ctx, pq); err != nil {
				t.Fatal(err)
			}
		}
	}) / float64(len(pqs))
	if got > synthExecAllocs {
		t.Errorf("synthesized: execution allocates %.1f times per query, want at most %d", got, synthExecAllocs)
	}
}

// TestResultEqualAllocs pins Result.Equal's cost: nothing up to 16 rows a
// side, one allocation beyond.
func TestResultEqualAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, n := range []int{1, 16, 17, 200} {
		a := &engine.Result{Columns: []string{"a", "b"}}
		for i := 0; i < n; i++ {
			a.Rows = append(a.Rows, []value.Value{value.Int(int64(i % 7)), value.Str(fmt.Sprint(i % 3))})
		}
		b := &engine.Result{Columns: a.Columns, Rows: slices.Clone(a.Rows)}
		slices.Reverse(b.Rows)
		want := 0.0
		if n > 16 {
			want = 1
		}
		if got := testing.AllocsPerRun(50, func() {
			if !a.Equal(b) {
				t.Fatal("a result must equal its reversal")
			}
		}); got != want {
			t.Errorf("Equal over %d rows allocates %.0f times, want %.0f", n, got, want)
		}
	}
}
