package engine_test

// The planned-vs-interpreted differential: every synthesized query of a
// fixed-seed corpus is executed twice per dialect — once on the compiled
// physical plan, once on the tree-walking interpreter — and the results
// must be byte-equal: same columns, same rows in the same order, same
// error string, same nondeterministic-function draws. This is the
// mechanized form of the §12 determinism argument (DESIGN.md): the plan
// compiler may choose any access path, but it must not be observable.
// `make plandiff` runs exactly this test under -race.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"gqs/internal/core"
	"gqs/internal/engine"
	"gqs/internal/graph"
)

// planDiffDialects mirrors the five oracle targets of the campaign plus
// a ReverseScan variant, so orientation and scan-order choices are
// differentially exercised on every engine configuration the harness
// actually runs.
func planDiffDialects() []engine.Options {
	return []engine.Options{
		{Dialect: engine.Reference},
		{Dialect: engine.Dialect{Name: "neo4j", RelUniqueness: true, ProvidesDBLabels: true}},
		{Dialect: engine.Dialect{Name: "memgraph", RelUniqueness: true}, ReverseScan: true},
		{Dialect: engine.Dialect{Name: "kuzu", EnforceSchema: true}},
		{Dialect: engine.Dialect{Name: "falkordb", ProvidesDBLabels: true}},
	}
}

// planDiffQueries is the hand-written tail of the corpus: constructs the
// synthesizer emits rarely (or never) but the plan compiler covers, plus
// the fallback and error paths that must fail identically.
var planDiffQueries = []string{
	"MATCH (n) RETURN n",
	"MATCH (a)-[r]->(b) RETURN a, r, b",
	"MATCH (a)-[r]-(b) WHERE a.name = b.name RETURN a.name",
	"OPTIONAL MATCH (a:Person)-[:KNOWS]->(b) RETURN a, b",
	"MATCH (a) OPTIONAL MATCH (a)-[:NOPE]->(b) RETURN a.name, b",
	"MATCH (n) WHERE n.age > 20 RETURN n.name ORDER BY n.name SKIP 1 LIMIT 2",
	"MATCH (n) RETURN DISTINCT labels(n)",
	"MATCH (n) WITH n.name AS name, count(*) AS c WHERE c > 0 RETURN name, c ORDER BY name",
	"MATCH (n) RETURN count(DISTINCT n.age), collect(n.name), min(n.age), max(n.age)",
	"MATCH (n) WHERE n.missing IS NULL RETURN count(*)",
	"UNWIND [1, 2, 3] AS x RETURN x * 2 AS y ORDER BY y DESC",
	"UNWIND [] AS x RETURN x",
	"UNWIND null AS x RETURN x",
	"WITH 1 AS one UNWIND [one, one + 1] AS v RETURN sum(v)",
	"CALL db.labels()",
	"CALL db.labels() YIELD label RETURN label ORDER BY label",
	"CALL db.relationshipTypes()",
	"MATCH (n) RETURN rand() < 2, n.name ORDER BY n.name",
	"RETURN timestamp() >= 0",
	"MATCH (a), (b) WHERE id(a) < id(b) RETURN count(*)",
	"MATCH (a)-[r1]->(b)-[r2]->(c) RETURN count(*)",
	"MATCH (a)-[r1]->(b), (b)-[r2]->(c) WHERE a.age = c.age RETURN count(*)",
	"MATCH (n) RETURN [x IN [1,2,3] WHERE x > n.age | x] AS xs, n.name ORDER BY n.name",
	"MATCH (n) RETURN CASE WHEN n.age > 30 THEN 'old' ELSE 'young' END AS bucket, count(*) ORDER BY bucket",
	// Error paths: identical message, identical timing.
	"MATCH (n) RETURN n.name LIMIT -1",
	"UNWIND 42 AS x RETURN x",
	"MATCH (n) RETURN count(n, n)",
	"MATCH (n) RETURN percentileCont(n.age)",
	// Interpreter-fallback constructs (plan compiler declines them).
	"MATCH (n) RETURN *",
	"CREATE (x:Tmp) RETURN x",
	"CALL db.propertyKeys() YIELD propertyKey RETURN propertyKey",
	// Constant folding beside aggregate splices: a constant operand
	// folds, an erroring one fails at run time, and a star call is an
	// aggregate (both engines run pi(*) as count(*)), never a constant.
	"MATCH (n) RETURN count(*) + (2 * 3) AS x",
	"MATCH (n) RETURN count(*) + 1 / 0 AS x",
	"MATCH (n) RETURN pi(*) + 1 AS x",
	// Predicates the expression compiler specializes: constant ones
	// (true, false, null, or a type error raised only when evaluated),
	// logical operators with a null or non-boolean side, a constant
	// operand whose fold errors, IN a constant list, and logical
	// operators in value position.
	"MATCH (n) WHERE 1 RETURN n.id",
	"MATCH (n) WHERE NOT 'a' RETURN n.id",
	"MATCH (n) WHERE 1 < 2 RETURN n.id ORDER BY n.id",
	"MATCH (n) WHERE 2 < 1 RETURN n.id",
	"MATCH (n) WHERE null RETURN n.id",
	"MATCH (n) WHERE n.id > 2 XOR null RETURN n.id",
	"MATCH (n) WHERE (n.id > 2 AND null) OR n.id = 1 RETURN n.id ORDER BY n.id",
	"MATCH (n) WHERE n.id > 2 OR null RETURN n.id ORDER BY n.id",
	"MATCH (n) WHERE n.id > 2 XOR 1 RETURN n.id",
	"MATCH (n) WHERE 'x' AND n.id > 2 RETURN n.id",
	"MATCH (n) WHERE n.id OR n.id > 2 RETURN n.id",
	"MATCH (n) WHERE n.id = 1 / 0 RETURN n.id",
	"MATCH (n) WHERE n.id IN [1, 3, null] RETURN n.id ORDER BY n.id",
	"MATCH (n) WHERE NOT (n.id IN [1, 3]) RETURN n.id ORDER BY n.id",
	"MATCH (n) RETURN n.id > 2 XOR n.id < 4 AS v, NOT n.id IS NULL AS w, n.id ORDER BY n.id",
	// Chains the planner reverses (the labeled end is cheaper): WHERE
	// conjuncts and property maps in the reversed binding order, a
	// repeated variable, a map naming a variable only the reversed order
	// binds before it, and one naming a variable that neither order
	// binds before it.
	"MATCH (a)-[r]->(b:L11) WHERE a.id > 1 AND b.id > 1 AND r.id >= 0 AND a.id <> b.id RETURN a.id, b.id ORDER BY a.id, b.id",
	"MATCH (a)-[r]->(b)<-[s]-(a:L11) WHERE r.id < s.id AND b.id >= 0 RETURN a.id, b.id, r.id, s.id ORDER BY r.id, s.id",
	"MATCH (a:L7), (b)-[r]->(c:L11) WHERE a.id < c.id AND r.id > a.id RETURN a.id, r.id ORDER BY a.id, r.id",
	"MATCH (a {id: b.id - 4})<-[r]-(b:L11) RETURN a.id, b.id ORDER BY a.id, b.id",
	"MATCH (a)-[r]->(b:L11 {id: a.id}) RETURN count(*)",
	"MATCH (x:L0) MATCH (a)-[r]->(b:L11 {id: x.id + 3}) RETURN a.id, b.id ORDER BY a.id",
}

// runPlanDiffCorpus executes every query on planned and interpreted
// engines built from the same options and seed, and fails the test on
// the first observable difference. Returns how many queries actually
// took the plan path, so callers can assert the differential is not
// vacuous.
func runPlanDiffCorpus(t *testing.T, opts engine.Options, g *graph.Graph, schema *graph.Schema, texts []string) int {
	t.Helper()
	planned := engine.New(opts)
	iopts := opts
	iopts.DisablePlan = true
	interp := engine.New(iopts)
	planned.LoadGraph(g, schema)
	interp.LoadGraph(g, schema)

	ctx := context.Background()
	coverage := 0
	for _, text := range texts {
		pq, err := engine.Prepare(text)
		if err != nil {
			t.Fatalf("prepare %q: %v", text, err)
		}
		if pq.Planned() {
			coverage++
		}
		pres, perr := planned.ExecutePrepared(ctx, pq)
		ires, ierr := interp.ExecutePrepared(ctx, pq)
		if (perr == nil) != (ierr == nil) || (perr != nil && perr.Error() != ierr.Error()) {
			t.Fatalf("%s: %q: planned err %v, interpreted err %v", opts.Dialect.Name, text, perr, ierr)
		}
		if perr != nil {
			continue
		}
		if !slices.Equal(pres.Columns, ires.Columns) {
			t.Fatalf("%s: %q: planned columns %v, interpreted columns %v",
				opts.Dialect.Name, text, pres.Columns, ires.Columns)
		}
		if !engine.IdenticalRows(pres.Rows, ires.Rows) {
			t.Fatalf("%s: %q:\nplanned rows:     %v\ninterpreted rows: %v",
				opts.Dialect.Name, text, pres.Rows, ires.Rows)
		}
	}
	return coverage
}

// TestPlanDiffSynthesized is the full-corpus differential the issue
// gates on: synthesized queries from several fixed seeds, all five
// dialect configurations, planned vs interpreted, exact equality.
func TestPlanDiffSynthesized(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 12, MaxRels: 40})
			syn := core.NewSynthesizer(r, g, schema, core.DefaultConfig())
			var texts []string
			for tries := 0; len(texts) < 40 && tries < 3000; tries++ {
				gt := core.SelectGroundTruth(r, g, 6)
				if sq, err := syn.Synthesize(gt); err == nil {
					texts = append(texts, sq.Text)
				}
			}
			if len(texts) < 10 {
				t.Fatalf("synthesized only %d queries", len(texts))
			}
			for _, opts := range planDiffDialects() {
				opts.Seed = seed
				cov := runPlanDiffCorpus(t, opts, g, schema, texts)
				if cov == 0 {
					t.Fatalf("%s: no synthesized query compiled to a plan", opts.Dialect.Name)
				}
				t.Logf("%s: %d/%d queries planned", opts.Dialect.Name, cov, len(texts))
			}
		})
	}
}

// TestPlanDiffHandwritten runs the curated construct list — including
// error paths and fallback constructs — through the same differential.
func TestPlanDiffHandwritten(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 10, MaxRels: 30})
	for _, opts := range planDiffDialects() {
		opts.Seed = 5
		runPlanDiffCorpus(t, opts, g, schema, planDiffQueries)
	}
}

// TestPlanDiffConcurrent prepares and runs the hand-written corpus from
// several goroutines at once, as the campaign's workers do: each
// prepares its own plans (the compiler's pooled builders) and also runs
// one shared set (whose reverse chains are built on first use, racing).
// Every planned result must equal the interpreter's.
func TestPlanDiffConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 10, MaxRels: 30})
	outcome := func(res *engine.Result, err error) string {
		if err != nil {
			return err.Error()
		}
		return fmt.Sprint(res.Columns, res.Rows)
	}
	ctx := context.Background()
	interp := engine.New(engine.Options{Dialect: engine.Reference, Seed: 5, DisablePlan: true})
	interp.LoadGraph(g, schema)
	var texts, want []string
	var shared []*engine.PreparedQuery
	for _, q := range planDiffQueries {
		pq, err := engine.Prepare(q)
		if err != nil {
			t.Fatalf("prepare %q: %v", q, err)
		}
		if pq.Planned() { // a write would change the graph under the others
			texts, shared = append(texts, q), append(shared, pq)
			want = append(want, outcome(interp.ExecutePrepared(ctx, pq)))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := engine.New(engine.Options{Dialect: engine.Reference, Seed: 5})
			e.LoadGraph(g, schema)
			for i, q := range texts {
				own, err := engine.Prepare(q)
				if err != nil {
					t.Errorf("prepare %q: %v", q, err)
					return
				}
				for _, pq := range []*engine.PreparedQuery{own, shared[i]} {
					if got := outcome(e.ExecutePrepared(ctx, pq)); got != want[i] {
						t.Errorf("%q: planned %s, interpreted %s", q, got, want[i])
					}
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzPlanVsInterp extends the differential to arbitrary input: any
// text that parses and compiles to a plan gives the same columns and
// identical rows, or the identical error, on the planned and the
// interpreted engine, under every dialect configuration, on the graph
// TestPlanDiffHandwritten uses. The limits are tight so that a fuzzed
// cartesian product fails fast — identically on both paths — instead
// of running for seconds. The seeds are planDiffQueries plus, under
// testdata/fuzz/FuzzPlanVsInterp, 30 planned queries synthesized on
// that graph.
func FuzzPlanVsInterp(f *testing.F) {
	for _, q := range planDiffQueries {
		f.Add(q)
	}
	r := rand.New(rand.NewSource(5))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 10, MaxRels: 30})
	f.Fuzz(func(t *testing.T, text string) {
		if pq, err := engine.Prepare(text); err != nil || !pq.Planned() {
			return
		}
		for _, opts := range planDiffDialects() {
			opts.Seed = 5
			opts.Limits = engine.Limits{MaxRows: 2_000, MaxMatchSteps: 20_000}
			runPlanDiffCorpus(t, opts, g, schema, []string{text})
		}
	})
}
