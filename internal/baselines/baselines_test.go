package baselines

import (
	"math/rand"
	"testing"

	"gqs/internal/cypher/parser"
	"gqs/internal/gdb"
	"gqs/internal/graph"
	"gqs/internal/metrics"
)

func setup(t *testing.T, seed int64) (*rand.Rand, *graph.Graph, *graph.Schema, *gdb.Sim) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 8, MaxRels: 25})
	ref := gdb.NewReference()
	if err := ref.Reset(g, schema); err != nil {
		t.Fatal(err)
	}
	return r, g, schema, ref
}

func TestGeneratorsProduceValidCypher(t *testing.T) {
	r, g, schema, ref := setup(t, 1)
	for _, tester := range All() {
		parseOK, execOK := 0, 0
		const n = 60
		for i := 0; i < n; i++ {
			q := tester.Generate(r, g, schema)
			if _, err := parser.Parse(q); err != nil {
				t.Errorf("%s: unparsable query: %v\n%s", tester.Name(), err, q)
				continue
			}
			parseOK++
			if _, err := ref.Execute(q); err == nil {
				execOK++
			}
		}
		if parseOK != n {
			t.Errorf("%s: only %d/%d queries parse", tester.Name(), parseOK, n)
		}
		// Generators may produce queries the reference rejects (e.g.
		// CALL on empty scope edge cases) but the bulk must execute.
		if execOK < n*8/10 {
			t.Errorf("%s: only %d/%d queries execute", tester.Name(), execOK, n)
		}
	}
}

func TestComplexityOrdering(t *testing.T) {
	// The Table 5 ordering: GDsmith and GRev generate far more complex
	// queries than GDBMeter and Gamera.
	r, g, schema, _ := setup(t, 2)
	avg := func(tester Tester) (patterns, clauses float64) {
		var agg metrics.Aggregate
		for i := 0; i < 150; i++ {
			agg.Add(metrics.Analyze(tester.Generate(r, g, schema)))
		}
		p, _, c, _ := agg.Averages()
		return p, c
	}
	gdP, gdC := avg(NewGDsmith())
	gmP, gmC := avg(NewGDBMeter())
	grP, grC := avg(NewGRev())
	if gdP <= gmP || gdC <= gmC {
		t.Errorf("GDsmith (%.2f pat, %.2f cl) must exceed GDBMeter (%.2f, %.2f)", gdP, gdC, gmP, gmC)
	}
	if grP <= gmP || grC <= gmC {
		t.Errorf("GRev (%.2f pat, %.2f cl) must exceed GDBMeter (%.2f, %.2f)", grP, grC, gmP, gmC)
	}
}

func TestNoViolationsOnReference(t *testing.T) {
	// Metamorphic oracles must not raise false alarms on the pristine
	// reference engine.
	r, g, schema, ref := setup(t, 3)
	for _, tester := range []Tester{NewGDBMeter(), NewGamera(), NewGQT(), NewGRev()} {
		for i := 0; i < 40; i++ {
			rep := tester.Test(r, ref, g, schema)
			if rep.Violated {
				t.Errorf("%s: false alarm on reference:\n%v", tester.Name(), rep.Queries)
			}
		}
	}
}

func TestTLPCheck(t *testing.T) {
	_, g, schema, ref := setup(t, 4)
	_ = schema
	// Applicable query.
	applied, violated, queries, err := TLPCheck(ref, `MATCH (n) WHERE n.k0 IS NOT NULL RETURN n.k0 AS c`)
	if err != nil {
		t.Fatal(err)
	}
	if !applied || violated || len(queries) != 4 {
		t.Errorf("TLP on reference: applied=%v violated=%v queries=%d", applied, violated, len(queries))
	}
	// Not applicable without a WHERE.
	applied, _, _, _ = TLPCheck(ref, `MATCH (n) RETURN n.k0 AS c`)
	if applied {
		t.Error("TLP must not apply without WHERE")
	}
	// Unparsable input.
	applied, _, _, _ = TLPCheck(ref, `garbage(`)
	if applied {
		t.Error("TLP must not apply to garbage")
	}
	_ = g
}

func TestGRevCheck(t *testing.T) {
	_, _, _, ref := setup(t, 5)
	applied, violated, queries, err := GRevCheck(ref, `MATCH (a)-[r]->(b) WHERE a.k0 IS NULL AND b.k0 IS NULL RETURN a.id AS x`)
	if err != nil {
		t.Fatal(err)
	}
	if !applied || violated || len(queries) != 2 {
		t.Errorf("GRev on reference: applied=%v violated=%v", applied, violated)
	}
	if queries[0] == queries[1] {
		t.Error("rewrite must change the query")
	}
}

func TestRewriteRulesPreserveSemantics(t *testing.T) {
	r, g, schema, ref := setup(t, 6)
	gen := NewGen(r, g, schema, grevKnobs())
	for i := 0; i < 50; i++ {
		q := gen.Query()
		for seed := uint64(0); seed < 5; seed++ {
			parsed, err := parser.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			rw, changed := RewriteEquivalent(parsed, seed)
			if !changed {
				continue
			}
			a, errA := ref.Execute(q)
			b, errB := ref.Execute(rw.String())
			if errA != nil || errB != nil {
				continue // resource limits etc. are not semantic differences
			}
			if !multisetEqual(a, b) {
				t.Fatalf("rewrite changed semantics (seed %d):\n%s\n%s", seed, q, rw.String())
			}
		}
	}
}

func TestGDsmithDifferentialFlagsInjectedBugs(t *testing.T) {
	r, g, schema, _ := setup(t, 7)
	neo := gdb.NewNeo4jSim()
	falkor := gdb.NewFalkorDBSim()
	ref := gdb.NewReference()
	for _, c := range []*gdb.Sim{neo, falkor, ref} {
		if err := c.Reset(g, schema); err != nil {
			t.Fatal(err)
		}
	}
	gds := NewGDsmith()
	gds.Peers = []Target{ref, neo}
	violations := 0
	for i := 0; i < 100; i++ {
		rep := gds.Test(r, falkor, g, schema)
		if rep.Violated {
			violations++
		}
	}
	if violations == 0 {
		t.Error("differential testing against a faulty GDB found nothing in 100 rounds")
	}
}

func TestMultisetHelpers(t *testing.T) {
	_, _, _, ref := setup(t, 8)
	a, _ := ref.Execute(`UNWIND [1,2] AS x RETURN x`)
	b, _ := ref.Execute(`UNWIND [2,1,3] AS x RETURN x`)
	if !multisetSubset(a, b) {
		t.Error("subset broken")
	}
	if multisetSubset(b, a) {
		t.Error("superset misreported")
	}
	if multisetEqual(a, b) {
		t.Error("equality misreported")
	}
	if !multisetEqual(a, a) {
		t.Error("self equality broken")
	}
}

func TestHelpersTextual(t *testing.T) {
	q := `MATCH (a:L3)-[r:T1]->(b) RETURN a`
	relaxed := eraseDirections(q)
	if relaxed == q || !contains(relaxed, "]-(b)") {
		t.Errorf("eraseDirections: %s", relaxed)
	}
	dropped := dropOneLabel(q)
	if contains(dropped, ":L3") {
		t.Errorf("dropOneLabel: %s", dropped)
	}
	if dropOneLabel(`MATCH (a) RETURN a`) != `MATCH (a) RETURN a` {
		t.Error("dropOneLabel must be a no-op without labels")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestByNameAndSupports(t *testing.T) {
	for _, name := range []string{"gdsmith", "gdbmeter", "gamera", "gqt", "grev"} {
		tr, err := ByName(name)
		if err != nil || tr.Name() != name {
			t.Errorf("ByName(%s): %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown tester must error")
	}
	if NewGDBMeter().Supports("memgraph") || NewGamera().Supports("memgraph") || NewGQT().Supports("memgraph") {
		t.Error("GDBMeter/Gamera/GQT must not support memgraph (Table 4)")
	}
	if !NewGDsmith().Supports("memgraph") || !NewGRev().Supports("memgraph") {
		t.Error("GDsmith/GRev support memgraph")
	}
}
