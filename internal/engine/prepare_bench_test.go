package engine_test

import (
	"math/rand"
	"testing"

	"gqs/internal/core"
	"gqs/internal/cypher/ast"
	"gqs/internal/engine"
	"gqs/internal/graph"
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
// printed text.
func synthCorpus(tb testing.TB, seed int64, n int) (qs []*ast.Query, texts []string) {
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
	return qs, texts
}

// BenchmarkPrepare measures the per-query preparation cost: Prepare
// (lex, parse, analyze, compile) on the five large-graph shapes, and
// PrepareAST (analyze, compile) on a fixed-seed synthesized corpus. A
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
	qs, texts := synthCorpus(b, 11, 64)
	b.Run("synthesized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := i % len(qs)
			engine.PrepareAST(qs[k], texts[k])
		}
	})
}

// prepareAllocs is the most engine.Prepare may allocate on each of the
// large-graph shapes: lexing, parsing, feature analysis and plan
// compilation together.
var prepareAllocs = map[string]float64{
	"hop1":  30,
	"hop2":  30,
	"hop3":  31,
	"hub":   30,
	"write": 26,
}

// synthPrepareAllocs is the most PrepareAST may allocate per query, on
// average, over BenchmarkPrepare's synthesized corpus: feature analysis
// and plan compilation, the constants folding makes included.
const synthPrepareAllocs = 74

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
	qs, texts := synthCorpus(t, 11, 64)
	got := testing.AllocsPerRun(20, func() {
		for k := range qs {
			engine.PrepareAST(qs[k], texts[k])
		}
	}) / float64(len(qs))
	if got > synthPrepareAllocs {
		t.Errorf("synthesized: PrepareAST allocates %.1f times per query, want at most %d", got, synthPrepareAllocs)
	}
}
