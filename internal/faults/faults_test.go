package faults

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"gqs/internal/engine"
	"gqs/internal/metrics"
	"gqs/internal/value"
)

func TestCatalogMatchesTable3(t *testing.T) {
	want := map[string]struct {
		logic, other          int
		logicConf, logicFixed int
		otherConf, otherFixed int
	}{
		"neo4j":    {2, 3, 2, 2, 3, 3},
		"memgraph": {6, 1, 6, 1, 1, 0},
		"kuzu":     {5, 2, 5, 5, 2, 2},
		"falkordb": {13, 4, 4, 0, 2, 1},
	}
	total := 0
	for gdb, w := range want {
		set := Catalogs()[gdb]
		if set == nil {
			t.Fatalf("no catalog for %s", gdb)
		}
		var logic, other, lc, lf, oc, of int
		for _, b := range set.Bugs {
			if b.GDB != gdb {
				t.Errorf("%s: bug %s has GDB %s", gdb, b.ID, b.GDB)
			}
			if b.Kind.IsLogic() {
				logic++
				if b.Confirmed {
					lc++
				}
				if b.Fixed {
					lf++
				}
			} else {
				other++
				if b.Confirmed {
					oc++
				}
				if b.Fixed {
					of++
				}
			}
		}
		total += logic + other
		if logic != w.logic || other != w.other {
			t.Errorf("%s: %d logic + %d other, want %d + %d", gdb, logic, other, w.logic, w.other)
		}
		if lc != w.logicConf || lf != w.logicFixed {
			t.Errorf("%s logic confirmed/fixed = %d/%d, want %d/%d", gdb, lc, lf, w.logicConf, w.logicFixed)
		}
		if oc != w.otherConf || of != w.otherFixed {
			t.Errorf("%s other confirmed/fixed = %d/%d, want %d/%d", gdb, oc, of, w.otherConf, w.otherFixed)
		}
	}
	if total != 36 {
		t.Errorf("catalog size = %d, want 36", total)
	}
}

func TestBugIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, set := range Catalogs() {
		for _, b := range set.Bugs {
			if seen[b.ID] {
				t.Errorf("duplicate bug ID %s", b.ID)
			}
			seen[b.ID] = true
			if b.Description == "" {
				t.Errorf("%s has no description", b.ID)
			}
			if b.IntroducedYearsAgo <= 0 {
				t.Errorf("%s has no introduction age", b.ID)
			}
		}
	}
}

func TestTriggerMatching(t *testing.T) {
	f := metrics.Analyze(`WITH replace('a', '', 'b') AS x RETURN x`)
	mg := Memgraph()
	hang := mg.ByID("MG-O1")
	if !hang.Trigger.Matches(f) {
		t.Error("Figure 9 query must trigger MG-O1")
	}
	simple := metrics.Analyze(`MATCH (n) RETURN n.k0`)
	for _, set := range Catalogs() {
		for _, b := range set.Bugs {
			if b.Trigger.Matches(simple) {
				t.Errorf("trivial query triggers %s; triggers are too loose", b.ID)
			}
		}
	}
	if (Trigger{}).Matches(nil) {
		t.Error("nil features must never match")
	}
}

func TestFigure17Trigger(t *testing.T) {
	f := metrics.Analyze(`UNWIND [1,2,3] AS a0 MATCH (n2:L12)-[r1]-(n3) WHERE r1.id = 13 RETURN a0`)
	fk := FalkorDB()
	if !fk.ByID("FK-L2").Trigger.Matches(f) {
		t.Error("Figure 17 query must trigger FK-L2")
	}
}

func TestApplyManifestations(t *testing.T) {
	f := metrics.Analyze(`MATCH (n) RETURN n.k0`)
	res := &engine.Result{
		Columns: []string{"a"},
		Rows:    [][]value.Value{{value.Int(1)}, {value.Int(2)}},
	}
	check := func(m Manifestation) *engine.Result {
		b := &Bug{ID: "T", Kind: Logic, Manifest: m}
		out, err := b.ManifestCtx(context.Background(), false, res, f, nil)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		return out
	}
	if out := check(EmptyResult); out.Len() != 0 {
		t.Error("EmptyResult broken")
	}
	if out := check(DropRows); out.Len() != 1 {
		t.Error("DropRows broken")
	}
	if out := check(DuplicateRow); out.Len() != 3 {
		t.Error("DuplicateRow broken")
	}
	if out := check(WrongValue); res.Equal(out) {
		t.Error("WrongValue must change the result")
	}
	if out := check(NullValue); res.Equal(out) {
		t.Error("NullValue must change the result")
	}
	// The original result is never mutated.
	if res.Rows[0][0].AsInt() != 1 || res.Len() != 2 {
		t.Error("ManifestCtx mutated the input result")
	}
}

func TestApplyDeterministicUnderRewrite(t *testing.T) {
	// Two different texts with the same coarse features must corrupt
	// identically — the root-cause model that defeats metamorphic
	// oracles (§5.4.3).
	f1 := metrics.Analyze(`MATCH (a)-[r]->(b) WHERE a.id = 1 RETURN a.k0`)
	f2 := metrics.Analyze(`MATCH (b)<-[r]-(a) WHERE a.id = 1 RETURN a.k0`)
	res := &engine.Result{Columns: []string{"x", "y"},
		Rows: [][]value.Value{{value.Int(1), value.Str("s")}, {value.Int(2), value.Str("t")}}}
	b := &Bug{ID: "T2", Kind: Logic, Manifest: WrongValue}
	o1, _ := b.ManifestCtx(context.Background(), false, res, f1, nil)
	o2, _ := b.ManifestCtx(context.Background(), false, res, f2, nil)
	if !o1.Equal(o2) {
		t.Error("equivalent rewrites must manifest identically")
	}
}

// TestManifestReseedsRNG: a connector's generator, reseeded per
// manifestation, corrupts exactly as a fresh generator does, whatever it
// drew before.
func TestManifestReseedsRNG(t *testing.T) {
	res := &engine.Result{Columns: []string{"x", "y"},
		Rows: [][]value.Value{{value.Int(1), value.Str("s")}, {value.Int(2), value.Str("t")}, {value.Null, value.Bool(true)}}}
	shared := rand.New(rand.NewSource(99))
	for i, q := range []string{
		`MATCH (a)-[r]->(b) WHERE a.id = 1 RETURN a.k0`,
		`MATCH (n) RETURN n.k0`,
		`UNWIND [1, 2] AS x WITH x MATCH (n) RETURN n.id, x`,
	} {
		f := metrics.Analyze(q)
		for _, m := range []Manifestation{DuplicateRow, NullValue, WrongValue} {
			b := &Bug{ID: fmt.Sprintf("R%d", i), Kind: Logic, Manifest: m}
			want, _ := b.ManifestCtx(context.Background(), false, res, f, nil)
			got, _ := b.ManifestCtx(context.Background(), false, res, f, shared)
			if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
				t.Errorf("%s, %v: reused generator gave %v, fresh %v", q, m, got.Rows, want.Rows)
			}
		}
	}
}

func TestNonLogicApply(t *testing.T) {
	f := metrics.Analyze(`MATCH (n) RETURN n`)
	for _, k := range []Kind{Crash, Hang, Exception} {
		b := &Bug{ID: "E", Kind: k}
		_, err := b.ManifestCtx(context.Background(), false, nil, f, nil)
		be, ok := err.(*BugError)
		if !ok || be.BugID() != "E" || be.Kind != k {
			t.Errorf("kind %v: err = %v", k, err)
		}
	}
}

func TestSetApplyFirstTriggeredWins(t *testing.T) {
	f := metrics.Analyze(`WITH replace('a', '', 'b') AS x RETURN x`)
	set := Memgraph()
	res := &engine.Result{Columns: []string{"x"}, Rows: [][]value.Value{{value.Str("a")}}}
	bug := set.Select(f, nil)
	if bug == nil || bug.ID != "MG-O1" {
		t.Fatalf("expected MG-O1, got %v", bug)
	}
	if out, err := bug.ManifestCtx(context.Background(), false, res, f, nil); err == nil || out != nil {
		t.Error("hang must be an error")
	}
	// An untriggered query selects nothing, so it passes through.
	f2 := metrics.Analyze(`MATCH (n) RETURN n.k0`)
	if bug := set.Select(f2, nil); bug != nil {
		t.Errorf("untriggered query selected %v", bug)
	}
	// A nil set is a no-op.
	var nilSet *Set
	if b := nilSet.Select(f2, nil); b != nil {
		t.Error("nil set must be a no-op")
	}
}

func TestKindStrings(t *testing.T) {
	if Logic.String() != "logic" || Crash.String() != "crash" || Hang.String() != "hang" || Exception.String() != "exception" {
		t.Error("Kind.String broken")
	}
	if !Logic.IsLogic() || Crash.IsLogic() {
		t.Error("IsLogic broken")
	}
}
