package core

import (
	"math/rand"
	"runtime"
	"testing"

	"gqs/internal/graph"
)

// synthDialects are the dialect flag pairs of the four simulated GDBs.
var synthDialects = []struct {
	name                string
	relUnique, dbLabels bool
}{
	{"neo4j", true, true},
	{"memgraph", true, false},
	{"kuzu", false, false},
	{"falkordb", false, true},
}

// synthWorkload replays the runner's per-graph loop over a fixed set of
// sealed campaign-sized graphs: one Synthesizer in the runner's mode (its
// AST arena rewound for every query), rebound to each graph as the runner
// rebinds its own, then 8 ground truths of 2 queries each.
type synthWorkload struct {
	r       *rand.Rand
	cfg     Config
	graphs  []*graph.Graph
	schemas []*graph.Schema
	syn     *Synthesizer
	gt      *GroundTruth
	n       int
}

func newSynthWorkload(relUnique, dbLabels bool) *synthWorkload {
	w := &synthWorkload{r: rand.New(rand.NewSource(1)), cfg: DefaultConfig()}
	w.cfg.RelUniqueness, w.cfg.ProvidesDBLabels = relUnique, dbLabels
	gr := rand.New(rand.NewSource(2))
	for i := 0; i < 4; i++ {
		g, schema := graph.Generate(gr, graph.GenConfig{MaxNodes: 13, MaxRels: 60})
		g.Seal()
		w.graphs, w.schemas = append(w.graphs, g), append(w.schemas, schema)
	}
	return w
}

// reset rewinds the workload to its first query.
func (w *synthWorkload) reset() {
	w.r.Seed(1)
	w.n = 0
}

// next selects a ground truth when the runner would (every second
// query) and synthesizes one query, as campaign iterations do.
func (w *synthWorkload) next(tb testing.TB) *Synthesized {
	if w.n%16 == 0 {
		k := (w.n / 16) % len(w.graphs)
		if w.syn == nil {
			w.syn = newSynthesizer(w.r, w.graphs[k], w.schemas[k], w.cfg, true)
		} else {
			w.syn.rebind(w.graphs[k], w.schemas[k], w.cfg)
		}
	}
	if w.n%2 == 0 {
		w.gt = SelectGroundTruth(w.r, w.syn.g, w.cfg.Plan.MaxResultSet)
	}
	w.n++
	sq, err := w.syn.Synthesize(w.gt)
	if err != nil {
		tb.Fatal(err)
	}
	return sq
}

// synthSink keeps the benchmark's result observable.
var synthSink *Synthesized

// BenchmarkSynthesize measures ground-truth selection plus synthesis per
// query on campaign-sized graphs, per dialect. A diagnostic for
// `make bench-go`; the end-to-end evidence is the campaign workload of
// `make bench`.
func BenchmarkSynthesize(b *testing.B) {
	for _, d := range synthDialects {
		b.Run(d.name, func(b *testing.B) {
			w := newSynthWorkload(d.relUnique, d.dbLabels)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				synthSink = w.next(b)
			}
		})
	}
}

// synthAllocsPerQuery and synthBytesPerQuery are the most ground-truth
// selection plus synthesis may allocate per query in the runner's mode,
// averaged over 64 queries of each dialect.
const (
	synthAllocsPerQuery = 53
	synthBytesPerQuery  = 3300
)

// TestSynthesizeAllocs keeps synthesis allocation-light: it runs on
// every campaign query, so each allocation added here is paid on every
// operation of the campaign workloads, and so is the collection of every
// byte.
func TestSynthesizeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const queries, runs = 64, 5
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, d := range synthDialects {
		w := newSynthWorkload(d.relUnique, d.dbLabels)
		run := func() {
			w.reset()
			for i := 0; i < queries; i++ {
				w.next(t)
			}
		}
		run() // warm the arena up, as a campaign's first queries do
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&m1)
		allocs := float64(m1.Mallocs-m0.Mallocs) / (runs * queries)
		bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / (runs * queries)
		t.Logf("%s: %.1f allocs, %.0f bytes per query", d.name, allocs, bytes)
		if allocs > synthAllocsPerQuery {
			t.Errorf("%s: %.1f allocs per query, want at most %d", d.name, allocs, synthAllocsPerQuery)
		}
		if bytes > synthBytesPerQuery {
			t.Errorf("%s: %.0f bytes per query, want at most %d", d.name, bytes, synthBytesPerQuery)
		}
	}
}
