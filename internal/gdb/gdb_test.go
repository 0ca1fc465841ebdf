package gdb

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"gqs/internal/core"
	"gqs/internal/graph"
)

func TestRegistry(t *testing.T) {
	reg := Registry()
	if len(reg) != 4 {
		t.Fatalf("registry size %d", len(reg))
	}
	if reg[0].Name != "neo4j" || !reg[2].RequiresSchema {
		t.Errorf("registry content wrong: %+v", reg)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"neo4j", "memgraph", "kuzu", "falkordb", "reference"} {
		c, err := ByName(name)
		if err != nil || c.Name() != name {
			t.Errorf("ByName(%s): %v, %v", name, c, err)
		}
	}
	if _, err := ByName("oracle"); err == nil {
		t.Error("unknown name must error")
	}
}

func TestDialectFlags(t *testing.T) {
	if !NewNeo4jSim().RelUniqueness() || !NewNeo4jSim().ProvidesDBLabels() {
		t.Error("neo4j dialect flags")
	}
	if !NewMemgraphSim().RelUniqueness() || NewMemgraphSim().ProvidesDBLabels() {
		t.Error("memgraph dialect flags")
	}
	if NewKuzuSim().RelUniqueness() || NewKuzuSim().ProvidesDBLabels() {
		t.Error("kuzu dialect flags")
	}
	if NewFalkorDBSim().RelUniqueness() || !NewFalkorDBSim().ProvidesDBLabels() {
		t.Error("falkordb dialect flags")
	}
}

func TestKuzuRequiresSchema(t *testing.T) {
	g := graph.New()
	g.NewNode("L0")
	if err := NewKuzuSim().Reset(g, nil); err == nil {
		t.Error("kuzu must require schema information (§4)")
	}
	r := rand.New(rand.NewSource(1))
	g2, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 4, MaxRels: 4})
	if err := NewKuzuSim().Reset(g2, schema); err != nil {
		t.Errorf("kuzu reset with schema: %v", err)
	}
}

func TestExecuteAndFaultAttribution(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 5, MaxRels: 10})
	mg := NewMemgraphSim()
	if err := mg.Reset(g, schema); err != nil {
		t.Fatal(err)
	}
	// A healthy query passes with no attribution.
	res, err := mg.Execute(`MATCH (n) RETURN count(*) AS c`)
	if err != nil || res.Len() != 1 {
		t.Fatalf("healthy query: %v %v", res, err)
	}
	if mg.TriggeredBug() != nil {
		t.Error("no bug must be attributed")
	}
	// The Figure 9 query triggers the hang fault.
	_, err = mg.Execute(`WITH replace('ts15G', '', 'U11sWFvRw') AS a0 RETURN a0`)
	if err == nil {
		t.Fatal("Figure 9 query must hang on memgraph-sim")
	}
	if b := mg.TriggeredBug(); b == nil || b.ID != "MG-O1" {
		t.Errorf("attributed bug = %v, want MG-O1", b)
	}
	// The reference connector runs the same query fine.
	ref := NewReference()
	ref.Reset(g, schema)
	res, err = ref.Execute(`WITH replace('ts15G', '', 'U11sWFvRw') AS a0 RETURN a0`)
	if err != nil || res.Rows[0][0].AsString() != "ts15G" {
		t.Errorf("reference replace semantics: %v %v", res, err)
	}
}

func TestFigure17OnFalkorSim(t *testing.T) {
	g := graph.New()
	a := g.NewNode("L12")
	b := g.NewNode("L0")
	rel, _ := g.NewRel(a.ID, b.ID, "T0")
	fk := NewFalkorDBSim()
	fk.Reset(g, nil)
	q := `UNWIND [1,2,3] AS a0 MATCH (n2 :L12)-[r1]-(n3) WHERE r1.id = ` +
		itoa(rel.ID) + ` RETURN a0`
	res, err := fk.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Errorf("FK-L2 must truncate to one row, got %d", res.Len())
	}
	if bug := fk.TriggeredBug(); bug == nil || bug.ID != "FK-L2" {
		t.Errorf("attribution = %v", bug)
	}
}

func itoa(i int64) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestClose(t *testing.T) {
	s := NewReference()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(`RETURN 1`); err == nil {
		t.Error("closed connector must reject Execute")
	}
	g := graph.New()
	if err := s.Reset(g, nil); err == nil {
		t.Error("closed connector must reject Reset")
	}
}

// TestRunnerNoFalsePositivesOnReference is the false-positive control:
// GQS against the pristine reference engine must report zero bugs.
func TestRunnerNoFalsePositivesOnReference(t *testing.T) {
	ref := NewReference()
	cfg := core.DefaultRunnerConfig()
	cfg.Seed = 99
	cfg.Graph = graph.GenConfig{MaxNodes: 10, MaxRels: 40}
	rn := core.NewRunner(ref, cfg)
	stats, err := rn.Run(5, func(tc *core.TestCase) {
		if tc.Verdict == core.VerdictLogicBug || tc.Verdict == core.VerdictErrorBug {
			t.Errorf("false positive on reference engine:\n%s\nexpected %v\nactual %v\nerr %v",
				tc.Query, tc.Expected, tc.Actual, tc.Err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Queries == 0 || stats.Passes == 0 {
		t.Errorf("campaign ran nothing: %+v", stats)
	}
	if stats.Skips > stats.Queries/4 {
		t.Errorf("too many skips: %+v", stats)
	}
}

// TestZeroMaxStepsKeepsDialect: a zero Synth.MaxSteps selects the
// paper's step bound and nothing else. The dialect flags the runner takes
// from the target must survive it: Kùzu has no db.labels(), so no query
// may open with the CALL prologue, and no error or discrepancy may be
// left without an injected fault to account for it.
func TestZeroMaxStepsKeepsDialect(t *testing.T) {
	sim := NewKuzuSim()
	cfg := core.DefaultRunnerConfig()
	cfg.Synth.MaxSteps = 0
	cfg.Graph = graph.GenConfig{MaxNodes: 13, MaxRels: 60}
	rn := core.NewRunner(sim, cfg)
	stats, err := rn.Run(20, func(tc *core.TestCase) {
		if strings.Contains(tc.Query, "db.labels") {
			t.Errorf("query calls db.labels() on kuzu:\n%s", tc.Query)
		}
		if (tc.Verdict == core.VerdictLogicBug || tc.Verdict == core.VerdictErrorBug) && sim.TriggeredBug() == nil {
			t.Errorf("unattributed %s:\n%s\nexpected %v\nactual %v\nerr %v",
				tc.Verdict, tc.Query, tc.Expected, tc.Actual, tc.Err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Queries == 0 || stats.Passes == 0 {
		t.Errorf("campaign ran nothing: %+v", stats)
	}
}

// TestNoFalsePositivesOnBulkGraph is the false-positive control on
// bulk-generated graphs (`gqs -gdb reference -graph-scale 300`), whose
// relationships carry no `id` property: pins must identify them by id(r).
func TestNoFalsePositivesOnBulkGraph(t *testing.T) {
	connect := NewFactory(FactoryConfig{GDB: "reference", Seed: 1})
	cfg := core.DefaultRunnerConfig()
	cfg.Graph = graph.GenConfig{MaxNodes: 13, MaxRels: 60, Scale: 300}
	var mu sync.Mutex
	ps := core.RunParallel(core.ParallelConfig{Workers: 1, Iterations: 4, Runner: cfg},
		func(shard int) (core.Target, error) { return connect(shard) },
		func(_ int, _ core.Target, tc *core.TestCase) {
			if tc.Verdict == core.VerdictLogicBug || tc.Verdict == core.VerdictErrorBug {
				mu.Lock()
				defer mu.Unlock()
				t.Errorf("false positive on a bulk graph:\n%s\nexpected %v\nactual %v\nerr %v",
					tc.Query, tc.Expected, tc.Actual, tc.Err)
			}
		})
	if ps.Queries == 0 || ps.Passes != ps.Queries {
		t.Errorf("want every query to pass: %+v", ps.Stats)
	}
}

// TestRunnerFindsInjectedBugs checks the end-to-end pipeline: GQS against
// the fault-injected simulated GDBs reports bugs, attributed to catalog
// entries.
func TestRunnerFindsInjectedBugs(t *testing.T) {
	foundAnywhere := map[string]bool{}
	for _, sim := range All() {
		cfg := core.DefaultRunnerConfig()
		cfg.Seed = 7
		cfg.Graph = graph.GenConfig{MaxNodes: 10, MaxRels: 40}
		rn := core.NewRunner(sim, cfg)
		bugs := map[string]bool{}
		_, err := rn.Run(20, func(tc *core.TestCase) {
			if tc.Verdict == core.VerdictLogicBug || tc.Verdict == core.VerdictErrorBug {
				if b := sim.TriggeredBug(); b != nil {
					bugs[b.ID] = true
					foundAnywhere[b.ID] = true
				} else if tc.Verdict == core.VerdictLogicBug {
					t.Errorf("%s: unattributed logic discrepancy:\n%s\nexpected %v\nactual %v",
						sim.Name(), tc.Query, tc.Expected, tc.Actual)
				}
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", sim.Name(), err)
		}
		if len(bugs) == 0 {
			t.Errorf("%s: campaign found no injected bugs", sim.Name())
		}
		t.Logf("%s: found %d distinct bugs: %v", sim.Name(), len(bugs), keys(bugs))
	}
	if len(foundAnywhere) < 6 {
		t.Errorf("only %d distinct bugs found across all GDBs", len(foundAnywhere))
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
