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
	"strings"
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
	// A chain whose last node a CALL's unyielded column binds: a bound
	// last node can start the reversed chain.
	"CALL db.labels() MATCH (a)-[r]->(label) RETURN count(*)",
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
	// Lists built on the value stack for a consumer that drops them
	// (comparisons, IN, size, reverse, indexing, comprehension and
	// quantifier inputs, UNWIND), beside the positions that keep heap
	// lists: a list nested in a stacked one and returned by indexing,
	// views returned by tail and slicing, projection items, and errors
	// raised while a stacked list is half built.
	"MATCH (n) RETURN [[n.k], 1][0] AS v, n.id ORDER BY n.id",
	"MATCH (n) WHERE [n.id, 1] <> [0, 0] AND n.id IN [n.id, 1] RETURN tail([n.id, 1]) AS t, [n.id, 1][0..1] AS s ORDER BY n.id",
	"MATCH (n) WHERE [x IN [n.id, 2] | [x]] <> [[0], [2]] RETURN [x IN [n.id, 2] | [x]] AS xs ORDER BY n.id",
	"MATCH (n) WHERE any(x IN [n.id] WHERE x > 0) RETURN n.id ORDER BY n.id",
	"MATCH (n) UNWIND [n.id, n.k] AS u RETURN n.id, u ORDER BY n.id, u",
	"MATCH (n) WHERE size([n.id, 1]) = 2 RETURN count(*)",
	"MATCH (n) WHERE [n.id, 1 / 0] = [1, 2] RETURN n.id",
	"MATCH (n) WHERE n.id < 3 OR [n.id, 1 / (n.id - 3)] = [1, 2] RETURN n.id ORDER BY n.id",
	"MATCH (n) WHERE reverse([x IN [n.id, 2] | x * 2]) = [4, 2] OR [x IN [n.id, 2] | x][1] = n.id RETURN n.id ORDER BY n.id",
	"MATCH (n) WHERE size([x IN [n.id, 2] WHERE x IN [n.id] | [x, n.id]]) = 1 AND [[x IN [n.id] | x], n.id] <> [[0], 0] RETURN n.id ORDER BY n.id",
	"MATCH (n) WHERE all(x IN [y IN [n.id, 1] | y + 1] WHERE x > 1) RETURN n.id, [x IN [n.id, 0] | x] AS xs ORDER BY n.id",
	"MATCH (n) WHERE [x IN [n.id, 0] | 1 / x] = [1] RETURN n.id",
	"MATCH (n) RETURN size([n.id, n.k]) AS s, reverse([n.id, 2]) AS r, [n.id, 2] = [1, 2] AS e ORDER BY n.id",
	// reverse of a list built on the value stack where its consumer
	// drops it (comparison and IN operands, size's argument, reverse's
	// own, an indexing subject), beside the heap copy a projection item
	// keeps, and the strings, nulls and errors reverse passes to the
	// function.
	"MATCH (n) WHERE reverse([n.id, 1]) = [1, n.id] RETURN n.id ORDER BY n.id",
	"MATCH (n) WHERE n.id IN reverse([n.k, 2, n.id]) AND size(reverse([n.id, n.k, 1])) = 3 RETURN n.id ORDER BY n.id",
	"MATCH (n) RETURN reverse(reverse([n.id, 2]))[0] AS v, n.id ORDER BY n.id",
	"MATCH (n) RETURN reverse([n.id, 1]) AS r, n.id ORDER BY n.id",
	"MATCH (n) WHERE reverse(toString(n.id)) <> 'x' AND reverse(n.missing) IS NULL RETURN n.id ORDER BY n.id",
	"MATCH (n) WHERE reverse(n.id) = [1] RETURN n.id",
	// Aggregation over no rows: one group without grouping items, its
	// parameters and items evaluated in an empty scope (an input
	// variable there is unknown: in an item, in a parameter, inside a
	// CASE), arity checked at the group, and no group with grouping
	// items; then DISTINCT, ORDER BY, SKIP, LIMIT and WITH's WHERE on
	// the one row.
	"MATCH (n:Absent) RETURN count(*)",
	"MATCH (n:Absent) RETURN count(*) + n.id AS c",
	"MATCH (n:Absent) RETURN percentileDisc(n.id, n.id) AS p",
	"MATCH (n:Absent) RETURN count(n, n)",
	"MATCH (n:Absent) RETURN CASE count(*) WHEN 0 THEN n.id ELSE 1 END AS s",
	"MATCH (n:Absent) RETURN [1, 2, 3][count(*)..2] AS sl",
	"MATCH (n:Absent) RETURN sum(n.id) AS s, avg(n.id) AS a, min(n.id) AS mn, max(n.id) AS mx, collect(DISTINCT n.id) AS d",
	"MATCH (n:Absent) WITH count(*) AS c WHERE c = 0 RETURN c, rand() < 2 AS r",
	"MATCH (n:Absent) RETURN DISTINCT count(*) AS c ORDER BY c SKIP 0 LIMIT 1",
	"MATCH (n:Absent) RETURN count(*) AS c LIMIT -1",
	"MATCH (n:Absent) RETURN n.name AS k, count(*) AS c",
	"OPTIONAL MATCH (n:Absent) RETURN count(n) AS c, count(*) AS s",
	"UNWIND [] AS x RETURN count(x) + x AS c",
	"MATCH (n:Absent) RETURN percentileDisc(1, rand()) AS p, rand() + count(*) < 2 AS r",
	// The same group compared by value: its parameters draw rand()
	// before its items, as the interpreter draws.
	"MATCH (n:Absent) RETURN percentileDisc(1, rand()) AS p, rand() + count(*) AS r",
	// No aggregate inside a comprehension or quantifier is substituted:
	// it fails as in scalar position.
	"MATCH (n) RETURN [x IN [1] | count(*)] AS c",
	"MATCH (n:Absent) RETURN any(x IN [count(*)] WHERE x = 0) AS c",
	// A slice, single, none and a CASE with a test, on every row.
	"MATCH (n) RETURN [n.id, 1, 2, 3][1..n.id] AS sl, single(x IN [n.id, 1] WHERE x = 1) AS one, none(x IN [n.id, 2] WHERE x > 3) AS no, CASE n.id WHEN 1 THEN 'a' WHEN 2 THEN n.k ELSE n.id END AS c ORDER BY n.id",
}

// runPlanDiffCorpus executes every query on three engines built from the
// same options and seed: one through ExecutePrepared on a fresh compile
// (the compiled plan, where the query has one), one through
// ExecutePrepared on the query compiled into a Scratch shared by the
// whole corpus, right after the query before it, as the campaign runner
// compiles, and one through ExecuteASTCtx (the interpreter). It fails the
// test on the first observable difference. Returns how many queries
// actually took the plan path, so callers can assert the differential is
// not vacuous.
func runPlanDiffCorpus(t *testing.T, opts engine.Options, g *graph.Graph, schema *graph.Schema, texts []string) int {
	t.Helper()
	planned := engine.New(opts)
	scratched := engine.New(opts)
	interp := engine.New(opts)
	planned.LoadGraph(g, schema)
	scratched.LoadGraph(g, schema)
	interp.LoadGraph(g, schema)

	ctx := context.Background()
	var scratch engine.Scratch
	coverage := 0
	for _, text := range texts {
		pq, err := engine.Prepare(text)
		if err != nil {
			t.Fatalf("prepare %q: %v", text, err)
		}
		if pq.Planned() {
			coverage++
		}
		ires, ierr := interp.ExecuteASTCtx(ctx, pq.AST)
		for _, run := range []struct {
			name string
			e    *engine.Engine
			pq   *engine.PreparedQuery
		}{
			{"planned", planned, pq},
			{"scratch-planned", scratched, scratch.PrepareAST(pq.AST, text)},
		} {
			pres, perr := run.e.ExecutePrepared(ctx, run.pq)
			if (perr == nil) != (ierr == nil) || (perr != nil && perr.Error() != ierr.Error()) {
				t.Fatalf("%s: %q: %s err %v, interpreted err %v", opts.Dialect.Name, text, run.name, perr, ierr)
			}
			if perr != nil {
				continue
			}
			if !slices.Equal(pres.Columns, ires.Columns) {
				t.Fatalf("%s: %q: %s columns %v, interpreted columns %v",
					opts.Dialect.Name, text, run.name, pres.Columns, ires.Columns)
			}
			if !engine.IdenticalRows(pres.Rows, ires.Rows) {
				t.Fatalf("%s: %q:\n%s rows: %v\ninterpreted rows: %v",
					opts.Dialect.Name, text, run.name, pres.Rows, ires.Rows)
			}
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

// TestPlanDiffComposed runs random clause compositions through the
// differential: MATCH parts (named, reused, anonymous and labeled
// nodes), WITH, UNWIND and CALL with and without YIELD, and a RETURN of
// aggregates alone, beside a grouping item, beside a variable or with a
// parameter. Each plans, and what the lowering carves for it depends on
// the names in scope (which decide the reversed chains reserved) and on
// the zero-row group's operands, so a plan sharing its Scratch with the
// composition before it must not see what that one left there. The
// limits are FuzzPlanVsInterp's, which stop a cartesian product early,
// identically on both paths.
func TestPlanDiffComposed(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	pick := func(xs ...string) string { return xs[r.Intn(len(xs))] }
	node := func() string {
		return "(" + pick("a", "b", "c", "label", "x", "r", "") + pick("", ":L0", ":L1") + pick("", "", " {id: 1}") + ")"
	}
	texts := make([]string, 20000)
	for i := range texts {
		var clauses []string
		for k := 0; k < 1+r.Intn(4); k++ {
			switch r.Intn(5) {
			case 0, 1:
				var parts []string
				for p := 0; p < 1+r.Intn(2); p++ {
					part := node()
					for h := 0; h < r.Intn(3); h++ {
						part += fmt.Sprintf(pick("-[%s]->", "<-[%s]-", "-[%s]-"), pick("", "r", "s", "a")) + node()
					}
					parts = append(parts, part)
				}
				clauses = append(clauses, pick("MATCH ", "OPTIONAL MATCH ")+strings.Join(parts, ", "))
			case 2:
				clauses = append(clauses, pick("WITH a, b", "WITH a AS label, b AS c", "WITH 1 AS x"))
			case 3:
				clauses = append(clauses, pick("UNWIND [1, 2] AS label", "UNWIND [a] AS c"))
			default:
				clauses = append(clauses, pick("CALL db.labels()", "CALL db.labels() YIELD label", "CALL db.propertyKeys() YIELD x"))
			}
		}
		texts[i] = strings.Join(clauses, " ") + " RETURN " + pick("count(*) AS n", "a AS x, count(*) AS n",
			"count(*) + a.id AS n", "percentileDisc(a.id, a.k) AS p, [x IN [a] | x][count(*)] AS n")
	}
	g, schema := graph.Generate(rand.New(rand.NewSource(5)), graph.GenConfig{MaxNodes: 10, MaxRels: 30})
	// Three of the five dialects keep `make plandiff`'s -race run short:
	// the reference one, neo4j's, which provides db.labels, and memgraph's,
	// which scans in reverse; both keep relationships unique.
	for _, opts := range planDiffDialects()[:3] {
		opts.Seed = 5
		opts.Limits = engine.Limits{MaxRows: 2_000, MaxMatchSteps: 20_000}
		if cov := runPlanDiffCorpus(t, opts, g, schema, texts); cov != len(texts) {
			t.Fatalf("%s: %d of %d compositions planned", opts.Dialect.Name, cov, len(texts))
		}
	}
}

// TestPlanDiffConcurrent prepares and runs the hand-written corpus from
// several goroutines at once, as the campaign's workers do: each
// prepares its own plans (the compiler's pooled builders) and also runs
// one shared set (whose reverse chains are built on first use, racing).
// Every planned result must equal the interpreter's. Each execution
// draws rand() from the engine's seed and execution count, so every
// engine is reseeded before each execution: both sides then draw the
// same stream, and an entry may compare rand()'s values.
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
	interp := engine.New(engine.Options{Dialect: engine.Reference, Seed: 5})
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
			interp.SetSeed(5)
			want = append(want, outcome(interp.ExecuteASTCtx(ctx, pq.AST)))
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
					e.SetSeed(5)
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
