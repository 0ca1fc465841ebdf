package engine_test

import (
	"math/rand"
	"runtime"
	"testing"

	"gqs/internal/core"
	"gqs/internal/cypher/ast"
	"gqs/internal/engine"
	"gqs/internal/graph"
	"gqs/internal/metrics"
)

// largeGraphShapes are the five operation shapes of the benchmark's
// large-graph workload (bench/gqsbench/largegraph.go): anchored 1–3-hop
// chains, a hub expansion, and a write. Each operation there is one
// engine.Prepare of freshly rendered text plus one execution, so Prepare
// is paid on every operation.
var largeGraphShapes = []struct{ name, text string }{
	{"hop1", "MATCH (n0:L3 {k0: 48213})-[:T1]->(n1) RETURN count(*)"},
	{"hop2", "MATCH (n0:L7 {k0: 9127})-[:T1]->(n1)-[:T1]->(n2) RETURN count(*)"},
	{"hop3", "MATCH (n0:L0 {k0: 77001})-[:T1]->(n1)-[:T1]->(n2)-[:T1]->(n3) RETURN count(*)"},
	{"hub", "MATCH (a:L1 {k0: 312})-[r:T10]-(b) RETURN count(r) AS c"},
	{"write", "MATCH (a:L4 {k0: 60512}), (b:L9 {k0: 1044}) CREATE (a)-[r:T1]->(b) RETURN count(r) AS c"},
}

// synthCorpus synthesizes n queries at a fixed seed, in the shape the
// campaign runner prepares them: the synthesizer's own tree plus its
// printed text. It also returns the graph they were synthesized on,
// sealed, with its schema.
func synthCorpus(tb testing.TB, seed int64, n int) (qs []*ast.Query, texts []string, snap *graph.Snapshot, schema *graph.Schema) {
	tb.Helper()
	r := rand.New(rand.NewSource(seed))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 12, MaxRels: 40})
	syn := core.NewSynthesizer(r, g, schema, core.DefaultConfig())
	for tries := 0; len(qs) < n && tries < 50*n; tries++ {
		gt := core.SelectGroundTruth(r, g, 6)
		if sq, err := syn.Synthesize(gt); err == nil {
			qs = append(qs, sq.Query)
			texts = append(texts, sq.Text)
		}
	}
	if len(qs) < n {
		tb.Fatalf("synthesized only %d of %d queries", len(qs), n)
	}
	return qs, texts, g.Seal(), schema
}

// BenchmarkPrepare measures the per-query preparation cost: Prepare
// (lex, parse, analyze, compile) on the five large-graph shapes, and
// PrepareAST (analyze, compile) on a fixed-seed synthesized corpus, into
// fresh heap plans and into one reused Scratch, as the runner does. A
// diagnostic for `make bench-go`; the end-to-end evidence is the
// large-graph and campaign workloads of `make bench`.
func BenchmarkPrepare(b *testing.B) {
	for _, s := range largeGraphShapes {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Prepare(s.text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	qs, texts, _, _ := synthCorpus(b, 11, 64)
	b.Run("synthesized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := i % len(qs)
			engine.PrepareAST(qs[k], texts[k])
		}
	})
	b.Run("scratch", func(b *testing.B) {
		var s engine.Scratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := i % len(qs)
			s.PrepareAST(qs[k], texts[k])
		}
	})
}

// prepareAllocs is the most engine.Prepare may allocate on each of the
// large-graph shapes: lexing, parsing, feature analysis and plan
// compilation together. A planned shape's result columns are built here,
// once per plan, and its plan is carved from chunks heap plans share,
// which cost a fraction of an allocation each (31, 31, 32, 31 for the
// planned shapes while each plan took one allocation per kind of plan
// structure).
var prepareAllocs = map[string]float64{
	"hop1":  22,
	"hop2":  22,
	"hop3":  23,
	"hub":   22,
	"write": 26,
}

// synthPrepareAllocs is the most PrepareAST may allocate per query, on
// average, over BenchmarkPrepare's synthesized corpus: feature analysis
// and plan compilation, the constants folding makes included (74 while
// expressions compiled to closures, 33.6 while the loops among them
// did, 32.5 while each plan took one allocation per kind of plan
// structure; 22.7 measured since).
const synthPrepareAllocs = 23

// scratchPrepareAllocs is the most Scratch.PrepareAST may allocate per
// query, on average, over the same corpus once the scratch has grown
// (18.9 while CASE, comprehensions, quantifiers and slices compiled to
// closures; 17.8 measured since): the Features, each RETURN's result
// columns and the constants folding makes. The plan, its records and
// its reversed chains cost nothing.
const scratchPrepareAllocs = 18

// scratchShapes are queries with records of every kind, chains the
// planner may reverse, WHERE conjuncts, aggregation, UNWIND and ORDER
// BY, but no constant to fold and no unaliased RETURN item: prepared
// into a grown Scratch, each allocates what its feature analysis does
// and its result columns, and nothing else.
var scratchShapes = []string{
	"MATCH (a)-[r]->(b:L11) WHERE a.id > 1 AND b.id > 1 AND r.id >= 0 AND a.id <> b.id RETURN a.id AS x, b.id AS y ORDER BY x, y",
	"MATCH (n) WHERE n.id IN [n.k, 2] AND size(reverse([n.id, n.k])) = 2 WITH n, n.k + 1 AS k WHERE k > 1 RETURN n.id AS id, count(*) AS c ORDER BY id",
	"MATCH (a:L0)-[r:T1]->(b)<-[s]-(c) WHERE NOT (a.k IS NULL) OR b.k - c.k < 3 XOR r.id = s.id UNWIND [a.id, c.id] AS u RETURN u AS u, collect(b.id)[0] AS f",
	"MATCH (n) WHERE any(x IN [n.id, n.k] WHERE x > 1) AND none(x IN [n.k] WHERE x = n.id) RETURN CASE n.k WHEN 0 THEN n.id ELSE n.k END AS c, CASE WHEN n.id > 1 THEN n.k END AS d ORDER BY c",
	"MATCH (n) UNWIND [x IN [n.id, n.k] WHERE x > 0 | x + 1] AS u RETURN [y IN [n.id, u] | y * 2] AS l, [n.id, n.k, u][n.k..u] AS s",
	"MATCH (n) RETURN count(*) + n.id AS c",
	"MATCH (n) RETURN percentileDisc(n.id, n.k) AS p",
}

// TestPrepareAllocs keeps the preparation path allocation-light: a
// query is prepared for every execution, so an allocation added here is
// paid on every operation of the large-graph workload, and on every
// synthesized query of a campaign.
func TestPrepareAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, s := range largeGraphShapes {
		got := testing.AllocsPerRun(200, func() {
			if _, err := engine.Prepare(s.text); err != nil {
				t.Fatal(err)
			}
		})
		if got > prepareAllocs[s.name] {
			t.Errorf("%s: Prepare allocates %.0f times, want at most %.0f", s.name, got, prepareAllocs[s.name])
		}
	}
	qs, texts, _, _ := synthCorpus(t, 11, 64)
	got := testing.AllocsPerRun(20, func() {
		for k := range qs {
			engine.PrepareAST(qs[k], texts[k])
		}
	}) / float64(len(qs))
	if got > synthPrepareAllocs {
		t.Errorf("synthesized: PrepareAST allocates %.1f times per query, want at most %d", got, synthPrepareAllocs)
	}

	var s engine.Scratch
	got = testing.AllocsPerRun(20, func() {
		for k := range qs {
			s.PrepareAST(qs[k], texts[k])
		}
	}) / float64(len(qs))
	if got > scratchPrepareAllocs {
		t.Errorf("synthesized: Scratch.PrepareAST allocates %.1f times per query, want at most %d", got, scratchPrepareAllocs)
	}
	for _, text := range scratchShapes {
		pq, err := engine.Prepare(text)
		if err != nil || !pq.Planned() {
			t.Fatalf("%q: prepare: %v (planned %v)", text, err, err == nil && pq.Planned())
		}
		features := testing.AllocsPerRun(20, func() { metrics.AnalyzeAST(pq.AST) })
		if got := testing.AllocsPerRun(20, func() { s.PrepareAST(pq.AST, text) }); got != features+1 {
			t.Errorf("%q: Scratch.PrepareAST allocates %.0f times, want %.0f for its Features and 1 for its columns", text, got, features+1)
		}
	}
}

// TestHeapPlanRetention prepares many heap plans and keeps only the
// first, which must not keep the others alive. Heap plans are carved
// from chunks they share, and a plan keeps alive every plan it shares a
// chunk with, and through theirs any other: the pooled builders bound
// that by starting a fresh set of chunks every few plans.
func TestHeapPlanRetention(t *testing.T) {
	qs, texts, _, _ := synthCorpus(t, 11, 64)
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second drops what the builder pool held
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	engine.PrepareAST(qs[0], texts[0])
	before := heap()
	first := engine.PrepareAST(qs[0], texts[0])
	for i := 1; i < 3000; i++ {
		engine.PrepareAST(qs[i%len(qs)], texts[i%len(qs)])
	}
	grown := heap() - before
	runtime.KeepAlive(first)
	t.Logf("one plan of 3,000 keeps %.2f MB", float64(grown)/(1<<20))
	if grown >= 1<<20 {
		t.Errorf("one plan of 3,000 keeps %.2f MB alive, want under 1 MB", float64(grown)/(1<<20))
	}
}
