package gqs

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation (regenerating the underlying measurement at bench
// scale) plus the ablation benchmarks of DESIGN.md §4. Run with
//
//	go test -bench=. -benchmem
//
// The full-size regenerations live behind `go run ./cmd/gqs-bench`.

import (
	"context"
	"io"
	"math/rand"
	"testing"

	"gqs/internal/baselines"
	"gqs/internal/core"
	"gqs/internal/cypher/parser"
	"gqs/internal/engine"
	"gqs/internal/experiments"
	"gqs/internal/gdb"
	"gqs/internal/graph"
	"gqs/internal/metrics"
)

// ---- substrate benchmarks ----

// BenchmarkEngineSimpleMatch measures the executor on the Figure 2 query.
func BenchmarkEngineSimpleMatch(b *testing.B) {
	db := NewDB()
	LoadExample(db)
	q := `MATCH (p:USER)-[r:LIKE]->(m:MOVIE) WHERE p.name = 'Alice' AND r.rating >= 8 RETURN m.name, m.year`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineComplexPipeline measures a multi-clause pipeline with
// UNWIND, aggregation, and ORDER BY.
func BenchmarkEngineComplexPipeline(b *testing.B) {
	db := NewDB()
	LoadExample(db)
	q := `MATCH (p:USER)-[l:LIKE]->(m:MOVIE)
		UNWIND m.genre AS g
		WITH p.name AS user, g, count(*) AS n
		RETURN user, collect(g) AS genres, sum(n) AS total ORDER BY user`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphGeneration measures step ① (initialization).
func BenchmarkGraphGeneration(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	cfg := graph.GenConfig{MaxNodes: 13, MaxRels: 500}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.Generate(r, cfg)
	}
}

// BenchmarkSynthesis measures steps ②–③ (ground truth + query synthesis)
// without execution.
func BenchmarkSynthesis(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 10, MaxRels: 40})
	syn := core.NewSynthesizer(r, g, schema, core.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gt := core.SelectGroundTruth(r, g, 6)
		if _, err := syn.Synthesize(gt); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- per-table benchmarks ----

// BenchmarkTable2Registry renders the tested-GDB summary.
func BenchmarkTable2Registry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table2(io.Discard)
	}
}

// BenchmarkTable3CampaignIteration measures one full GQS workflow
// iteration (graph, restart, 12 queries) against the FalkorDB simulacrum
// — the unit of the Table 3 campaign.
func BenchmarkTable3CampaignIteration(b *testing.B) {
	sim := gdb.NewFalkorDBSim()
	cfg := core.DefaultRunnerConfig()
	cfg.Graph = graph.GenConfig{MaxNodes: 10, MaxRels: 40}
	rn := core.NewRunner(sim, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rn.RunIteration(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Latency measures the latency analysis over a fixed
// campaign.
func BenchmarkTable4Latency(b *testing.B) {
	c := experiments.QuickCampaign(1, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table4(io.Discard, c)
	}
}

// BenchmarkTable5Complexity measures the query-complexity comparison at
// 50 queries per tester per iteration.
func BenchmarkTable5Complexity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table5(io.Discard, 50, int64(i)+1)
	}
}

// BenchmarkTable6Round measures one oracle round of each tester against
// the FalkorDB simulacrum.
func BenchmarkTable6Round(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 10, MaxRels: 30})
	for _, tester := range baselines.All() {
		tester := tester
		b.Run(tester.Name(), func(b *testing.B) {
			sim := gdb.NewFalkorDBSim()
			if err := sim.Reset(g, schema); err != nil {
				b.Fatal(err)
			}
			if gds, ok := tester.(*baselines.GDsmith); ok {
				peer := gdb.NewReference()
				peer.Reset(g, schema)
				gds.Peers = []baselines.Target{peer}
				defer func() { gds.Peers = nil }()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tester.Test(r, sim, g, schema)
			}
		})
	}
}

// BenchmarkOracleReplay measures the §5.4.3 replay (TLP + GRev) on one
// bug-triggering query.
func BenchmarkOracleReplay(b *testing.B) {
	c := experiments.QuickCampaign(2, 10)
	logic := c.LogicFindings()
	if len(logic) == 0 {
		b.Skip("no logic findings at this seed")
	}
	f := logic[0]
	sim, _ := gdb.ByName(f.GDB)
	sim.Reset(f.Graph, f.Schema)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baselines.TLPCheck(sim, f.Query)
		baselines.GRevCheck(sim, f.Query)
	}
}

// ---- per-figure benchmarks ----

// BenchmarkFig10ThroughputBySteps reproduces Figure 10's throughput
// analysis: synthesis+execution cost as the step budget grows (the paper
// reports 6.6x slower at 9 steps than at 3).
func BenchmarkFig10ThroughputBySteps(b *testing.B) {
	for _, steps := range []int{1, 3, 5, 7, 9} {
		steps := steps
		b.Run(benchName("steps", steps), func(b *testing.B) {
			r := rand.New(rand.NewSource(int64(steps)))
			g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 10, MaxRels: 40})
			ref := gdb.NewReference()
			ref.Reset(g, schema)
			cfg := core.DefaultConfig()
			cfg.MaxSteps = steps
			syn := core.NewSynthesizer(r, g, schema, cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gt := core.SelectGroundTruth(r, g, 4)
				sq, err := syn.Synthesize(gt)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ref.Execute(sq.Text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11to15FeatureAnalysis measures the feature extraction that
// Figures 11-15 bucket.
func BenchmarkFig11to15FeatureAnalysis(b *testing.B) {
	q, _, err := Synthesize(9, 10, 40)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if metrics.Analyze(q) == nil {
			b.Fatal("analysis failed")
		}
	}
}

// BenchmarkFig18TimelineRound measures one GQS timeline round (the
// Figure 18 cumulative-curve unit).
func BenchmarkFig18TimelineRound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunGQSTimeline("neo4j", 5, int64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- ablation benchmarks (DESIGN.md §4) ----

// BenchmarkAblationPatternMutation compares synthesis with and without
// the §3.4 pattern mutation.
func BenchmarkAblationPatternMutation(b *testing.B) {
	for _, mut := range []bool{true, false} {
		mut := mut
		name := "with-mutation"
		if !mut {
			name = "no-mutation"
		}
		b.Run(name, func(b *testing.B) {
			r := rand.New(rand.NewSource(3))
			g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 10, MaxRels: 40})
			cfg := core.DefaultConfig()
			cfg.DisableMutation = !mut
			syn := core.NewSynthesizer(r, g, schema, cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gt := core.SelectGroundTruth(r, g, 4)
				if _, err := syn.Synthesize(gt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationComplexExprs compares nested pin predicates (§3.5)
// against plain `var.id = c` pins.
func BenchmarkAblationComplexExprs(b *testing.B) {
	for _, complexExprs := range []bool{true, false} {
		complexExprs := complexExprs
		name := "nested-exprs"
		if !complexExprs {
			name = "plain-pins"
		}
		b.Run(name, func(b *testing.B) {
			r := rand.New(rand.NewSource(4))
			g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 10, MaxRels: 40})
			cfg := core.DefaultConfig()
			cfg.DisableComplexExprs = !complexExprs
			syn := core.NewSynthesizer(r, g, schema, cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gt := core.SelectGroundTruth(r, g, 4)
				if _, err := syn.Synthesize(gt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPlanner compares the engine with and without its
// optimization passes (index scans, traversal-start selection, predicate
// pushdown) on a pin-predicated pattern query.
func BenchmarkAblationPlanner(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 12, MaxRels: 120})
	rels := g.RelIDs()
	q := `MATCH (a)-[r1]->(b)-[r2]->(c) WHERE r1.id = ` +
		itoa(rels[0]) + ` AND r2.id = ` + itoa(rels[1]) + ` RETURN a.id, c.id`
	for _, planner := range []bool{true, false} {
		planner := planner
		name := "planner-on"
		if !planner {
			name = "planner-off"
		}
		b.Run(name, func(b *testing.B) {
			eng := engine.New(engine.Options{DisablePlanner: !planner})
			eng.LoadGraph(g, schema)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Execute(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGraphSize sweeps the graph size (Figure 10's
// efficiency discussion: larger graphs slow the campaign).
func BenchmarkAblationGraphSize(b *testing.B) {
	for _, rels := range []int{20, 60, 150} {
		rels := rels
		b.Run(benchName("rels", rels), func(b *testing.B) {
			r := rand.New(rand.NewSource(int64(rels)))
			g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 12, MaxRels: rels})
			ref := gdb.NewReference()
			ref.Reset(g, schema)
			syn := core.NewSynthesizer(r, g, schema, core.DefaultConfig())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gt := core.SelectGroundTruth(r, g, 4)
				sq, err := syn.Synthesize(gt)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ref.Execute(sq.Text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- prepared-execution benchmarks (DESIGN.md §8) ----

// benchCorpusQuery synthesizes one representative campaign query over a
// generated graph, retrying until synthesis succeeds.
func benchCorpusQuery(b *testing.B, seed int64) (*graph.Graph, *graph.Schema, string) {
	b.Helper()
	r := rand.New(rand.NewSource(seed))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 12, MaxRels: 40})
	syn := core.NewSynthesizer(r, g, schema, core.DefaultConfig())
	for tries := 0; tries < 200; tries++ {
		gt := core.SelectGroundTruth(r, g, 6)
		if sq, err := syn.Synthesize(gt); err == nil {
			return g, schema, sq.Text
		}
	}
	b.Fatal("synthesis never succeeded")
	return nil, nil, ""
}

// BenchmarkPrepare measures the one-time cost Prepare pays per
// synthesized query: parse plus feature analysis.
func BenchmarkPrepare(b *testing.B) {
	_, _, q := benchCorpusQuery(b, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Prepare(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOracleCheck compares one oracle check — a synthesized query
// validated on all five dialects — through the text path (every dialect
// re-parses and re-analyzes the query) and the prepared path (one parse,
// shared AST). The parses/check metric is the measured parser-invocation
// count per iteration: the text path pays 2 per dialect (feature
// analysis + engine parse) for 10 in total, the prepared path exactly 1.
func BenchmarkOracleCheck(b *testing.B) {
	g, schema, q := benchCorpusQuery(b, 9)
	conns := append(gdb.All(), gdb.NewReference())
	for _, c := range conns {
		if err := c.Reset(g, schema); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	b.Run("text", func(b *testing.B) {
		b.ReportAllocs()
		start := parser.Parses()
		for i := 0; i < b.N; i++ {
			for _, c := range conns {
				c.ExecuteCtx(ctx, q)
			}
		}
		b.ReportMetric(float64(parser.Parses()-start)/float64(b.N), "parses/check")
	})
	b.Run("prepared", func(b *testing.B) {
		b.ReportAllocs()
		start := parser.Parses()
		for i := 0; i < b.N; i++ {
			pq, err := Prepare(q)
			if err != nil {
				b.Fatal(err)
			}
			for _, c := range conns {
				c.ExecutePrepared(ctx, pq)
			}
		}
		b.ReportMetric(float64(parser.Parses()-start)/float64(b.N), "parses/check")
	})
}

// BenchmarkMatchExpansion measures the row pipeline on a two-hop
// unlabeled pattern — the binding-expansion path whose row clones and
// eval contexts dominate hot-path allocations.
func BenchmarkMatchExpansion(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 12, MaxRels: 120})
	eng := engine.New(engine.Options{})
	eng.LoadGraph(g, schema)
	pq, err := engine.Prepare(`MATCH (a)-[r1]->(b)-[r2]->(c) WHERE a.id <> c.id RETURN a.id, c.id`)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ExecutePrepared(ctx, pq); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, n int) string {
	return prefix + "-" + itoa(int64(n))
}

func itoa(i int64) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var buf []byte
	for i > 0 {
		buf = append([]byte{byte('0' + i%10)}, buf...)
		i /= 10
	}
	if neg {
		return "-" + string(buf)
	}
	return string(buf)
}
