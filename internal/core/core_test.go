package core

import (
	"math/rand"
	"testing"

	"gqs/internal/cypher/ast"
	"gqs/internal/engine"
	"gqs/internal/graph"
)

func TestSelectGroundTruth(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g, _ := graph.Generate(r, graph.GenConfig{MaxNodes: 8, MaxRels: 20})
	for i := 0; i < 50; i++ {
		gt := SelectGroundTruth(r, g, 6)
		if len(gt.Entries) < 1 || len(gt.Entries) > 6 {
			t.Fatalf("ground truth size %d out of bounds", len(gt.Entries))
		}
		for _, e := range gt.Entries {
			v, ok := g.Lookup(e.Key)
			if !ok {
				t.Fatalf("selected property %v does not exist", e.Key)
			}
			if v.Key() != e.Value.Key() {
				t.Fatalf("ground-truth value mismatch for %v", e.Key)
			}
		}
	}
}

func TestBuildPlanConstraints(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	g, _ := graph.Generate(r, graph.GenConfig{MaxNodes: 8, MaxRels: 20})
	gt := SelectGroundTruth(r, g, 4)
	p := BuildPlan(r, g, gt)

	// Every ground-truth entry has an access op and its element has an
	// add and a remove.
	accessCount := 0
	adds := map[elemRef]bool{}
	removes := map[elemRef]bool{}
	for _, o := range p.Ops {
		switch o.Kind {
		case OpAccessProp:
			if o.Essential {
				accessCount++
			}
		case OpAddElem:
			adds[elemRef{id: o.Element, isRel: o.IsRel}] = true
		case OpRemoveElem:
			removes[elemRef{id: o.Element, isRel: o.IsRel}] = true
		}
	}
	if accessCount != len(gt.Entries) {
		t.Errorf("access ops %d != entries %d", accessCount, len(gt.Entries))
	}
	for ref := range adds {
		if !removes[ref] {
			t.Errorf("element %v has add without paired remove", ref)
		}
	}
	// GT aliases are distinct a0..aN-1.
	seen := map[string]bool{}
	for _, e := range gt.Entries {
		if e.Alias == "" || seen[e.Alias] {
			t.Errorf("bad alias %q", e.Alias)
		}
		seen[e.Alias] = true
	}
}

func TestScheduleRespectsConstraints(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g, _ := graph.Generate(r, graph.GenConfig{MaxNodes: 10, MaxRels: 30})
	for trial := 0; trial < 100; trial++ {
		gt := SelectGroundTruth(r, g, 5)
		p := BuildPlan(r, g, gt)
		steps := Schedule(r, p, 9)

		pos := map[*Operation]int{}
		for i, st := range steps {
			if len(st.Ops) > 0 && st.Clause == ClauseUnwind && len(st.Ops) != 1 {
				t.Fatalf("UNWIND step with %d ops", len(st.Ops))
			}
			for _, o := range st.Ops {
				if o.Clause() != st.Clause {
					t.Fatalf("op %v in %v step", o, st.Clause)
				}
				pos[o] = i
			}
		}
		if len(pos) != len(p.Ops) {
			t.Fatalf("scheduled %d of %d ops", len(pos), len(p.Ops))
		}
		for _, o := range p.Ops {
			for _, succ := range o.strong {
				if pos[succ] <= pos[o] {
					t.Fatalf("strong constraint violated: %v at %d, %v at %d", o, pos[o], succ, pos[succ])
				}
			}
			for _, succ := range o.weak {
				if pos[succ] < pos[o] {
					t.Fatalf("weak constraint violated: %v at %d, %v at %d", o, pos[o], succ, pos[succ])
				}
			}
		}
		// The final step must be a projection (it becomes RETURN).
		if steps[len(steps)-1].Clause != ClauseProjection {
			t.Fatal("last step must be a projection")
		}
	}
}

func TestScheduleVarsTracking(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	g, _ := graph.Generate(r, graph.GenConfig{MaxNodes: 8, MaxRels: 20})
	gt := SelectGroundTruth(r, g, 3)
	p := BuildPlan(r, g, gt)
	steps := Schedule(r, p, 9)
	// VarsBefore of step i+1 equals VarsAfter of step i.
	for i := 1; i < len(steps); i++ {
		a, b := steps[i-1].VarsAfter, steps[i].VarsBefore
		if len(a) != len(b) {
			t.Fatalf("step %d boundary mismatch: %v vs %v", i, a, b)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("step %d boundary mismatch: %v vs %v", i, a, b)
			}
		}
	}
	// GT aliases are referenceable at the end (they are never removed).
	last := steps[len(steps)-1]
	final := map[string]bool{}
	for _, v := range last.VarsAfter {
		final[v] = true
	}
	for _, e := range gt.Entries {
		if !final[e.Alias] {
			t.Errorf("GT alias %s missing from final scope %v", e.Alias, last.VarsAfter)
		}
	}
}

// TestSynthesizeSoundness is the core soundness property of GQS: a
// synthesized query executed on the pristine reference engine must
// produce exactly the expected result set. Any mismatch would be a false
// positive of the tester itself.
func TestSynthesizeSoundness(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, seed := range seeds {
		r := rand.New(rand.NewSource(seed))
		g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 10, MaxRels: 40})
		eng := engine.NewReference()
		eng.LoadGraph(g, schema)
		syn := NewSynthesizer(r, g, schema, DefaultConfig())
		for i := 0; i < 25; i++ {
			gt := SelectGroundTruth(r, g, 4)
			sq, err := syn.Synthesize(gt)
			if err != nil {
				t.Fatalf("seed %d iter %d: synthesize: %v", seed, i, err)
			}
			actual, err := eng.Execute(sq.Text)
			if err != nil {
				t.Fatalf("seed %d iter %d: execute: %v\n%s", seed, i, err, sq.Text)
			}
			if !sq.Expected.Equal(actual) {
				t.Fatalf("seed %d iter %d: oracle mismatch\nquery: %s\nexpected:\n%s\nactual:\n%s",
					seed, i, sq.Text, sq.Expected, actual)
			}
		}
	}
}

// TestSynthesizeAcrossDialects checks soundness against the
// homomorphism-dialect engine with the §4 workaround applied.
func TestSynthesizeAcrossDialects(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 8, MaxRels: 25})
	eng := engine.New(engine.Options{
		Dialect: engine.Dialect{Name: "falkordb-like", RelUniqueness: false, ProvidesDBLabels: true},
	})
	eng.LoadGraph(g, schema)
	cfg := DefaultConfig()
	cfg.RelUniqueness = false // target deviates; GQS adds <> predicates
	syn := NewSynthesizer(r, g, schema, cfg)
	for i := 0; i < 30; i++ {
		gt := SelectGroundTruth(r, g, 3)
		sq, err := syn.Synthesize(gt)
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		actual, err := eng.Execute(sq.Text)
		if err != nil {
			t.Fatalf("iter %d: execute: %v\n%s", i, err, sq.Text)
		}
		if !sq.Expected.Equal(actual) {
			t.Fatalf("iter %d: oracle mismatch\nquery: %s\nexpected:\n%s\nactual:\n%s",
				i, sq.Text, sq.Expected, actual)
		}
	}
}

func TestSynthesizedQueryShape(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 10, MaxRels: 40})
	syn := NewSynthesizer(r, g, schema, DefaultConfig())
	sawMultiStep := false
	for i := 0; i < 30; i++ {
		gt := SelectGroundTruth(r, g, 4)
		sq, err := syn.Synthesize(gt)
		if err != nil {
			t.Fatal(err)
		}
		if sq.Steps < 2 {
			t.Errorf("query synthesized with %d steps; minimum is 2", sq.Steps)
		}
		if sq.Steps >= 4 {
			sawMultiStep = true
		}
		if len(sq.Expected.Columns) != len(gt.Entries) {
			t.Errorf("expected columns %v != GT entries %d", sq.Expected.Columns, len(gt.Entries))
		}
		// The final clause of the first part must be RETURN.
		clauses := sq.Query.Parts[0].Clauses
		if _, ok := clauses[len(clauses)-1].(*ast.ReturnClause); !ok {
			t.Errorf("query must end with RETURN: %s", sq.Text)
		}
	}
	if !sawMultiStep {
		t.Error("no query used ≥4 synthesis steps; scheduling looks degenerate")
	}
}

func TestUniquifyGuarantee(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 6, MaxRels: 60})
		syn := NewSynthesizer(r, g, schema, DefaultConfig())
		gt := SelectGroundTruth(r, g, 3)
		syn.reset()
		syn.plan.build(r, g.NodeIDs(), g.RelIDs(), gt)
		var required []elemRef
		for _, o := range syn.plan.Ops {
			if o.Kind == OpAddElem {
				required = append(required, elemRef{id: o.Element, isRel: o.IsRel})
			}
		}
		chains := syn.chains.collectChains(r, g, required)
		enc := syn.encodeChains(chains)
		pins := syn.uniquify(enc)
		if n := syn.countMatches(enc, pins, 3); n != 1 {
			t.Fatalf("trial %d: pattern matches %d times after uniquification", trial, n)
		}
	}
}

func TestTracker(t *testing.T) {
	g := graph.New()
	tr := NewTracker(g)
	if tr.RowCount() != 1 || tr.TotalMult() != 1 {
		t.Fatal("tracker must start with one row")
	}
	tr.Bind("x", intV(1))
	if got := tr.Vars(); len(got) != 1 || got[0] != "x" {
		t.Fatalf("Vars = %v", got)
	}
	// Unwind a 3-element list.
	if err := tr.Unwind("u", listLit(1, 2, 2)); err != nil {
		t.Fatal(err)
	}
	if tr.RowCount() != 3 || tr.TotalMult() != 3 {
		t.Fatalf("after unwind: %d rows, %d mult", tr.RowCount(), tr.TotalMult())
	}
	if consts := tr.ConstantVarNames(); len(consts) != 1 || consts[0] != "x" {
		t.Errorf("ConstantVarNames = %v", consts)
	}
	// Project away u without DISTINCT: multiplicities sum.
	if err := tr.Project([]ProjItem{{Name: "x", Expr: varE("x")}}, false); err != nil {
		t.Fatal(err)
	}
	if tr.RowCount() != 1 || tr.TotalMult() != 3 {
		t.Fatalf("after project: %d rows, mult %d", tr.RowCount(), tr.TotalMult())
	}
	// DISTINCT collapses.
	if err := tr.Project([]ProjItem{{Name: "x", Expr: varE("x")}}, true); err != nil {
		t.Fatal(err)
	}
	if tr.TotalMult() != 1 {
		t.Fatalf("after distinct: mult %d", tr.TotalMult())
	}
	if err := tr.Limit(5); err != nil {
		t.Fatal(err)
	}
	res := tr.Result([]string{"x"})
	if res.Len() != 1 || res.Rows[0][0].AsInt() != 1 {
		t.Fatalf("result: %v", res)
	}
}

func TestGenValueExpr(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := graph.New()
	syn := NewSynthesizer(r, g, nil, DefaultConfig())
	targets := []valueT{
		intV(0), intV(-42), intV(1999999999),
		strV(""), strV("hello world"), strV("q11cZH6h"),
		boolV(true), boolV(false),
		floatV(2.5), floatV(-0.125),
		listV(intV(1), strV("a")),
	}
	for _, target := range targets {
		for i := 0; i < 40; i++ {
			e := syn.genValueExpr(target, 1+r.Intn(5))
			got, err := evalBare(g, e)
			if err != nil {
				t.Fatalf("genValueExpr(%v): eval error %v on %s", target, err, astString(e))
			}
			if !equivalent(got, target) {
				t.Fatalf("genValueExpr(%v) evaluated to %v via %s", target, got, astString(e))
			}
		}
	}
}
