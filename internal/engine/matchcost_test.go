package engine

import (
	"strings"
	"testing"

	"gqs/internal/cypher/ast"
	"gqs/internal/value"
)

// costEngine builds a store with skewed label cardinalities: three :A
// nodes, one :B node, and two unlabeled nodes (six total).
func costEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewReference()
	_, err := e.Execute(`CREATE (:A {n: 1}), (:A {n: 2}), (:A {n: 3}), (:B {n: 4}), ({n: 5}), ({n: 6})`)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNodeCost(t *testing.T) {
	e := costEngine(t)
	m := &matcher{engine: e, env: row{"bound": value.Int(1)}}

	cases := []struct {
		name string
		node *ast.NodePattern
		want int
	}{
		{"anonymous", &ast.NodePattern{}, 6},
		{"label A", &ast.NodePattern{Labels: []string{"A"}}, 3},
		{"label B", &ast.NodePattern{Labels: []string{"B"}}, 1},
		{"min of labels", &ast.NodePattern{Labels: []string{"A", "B"}}, 1},
		{"absent label", &ast.NodePattern{Labels: []string{"Nope"}}, 0},
		{"bound variable", &ast.NodePattern{Variable: "bound", Labels: []string{"A"}}, 0},
		{"unbound variable", &ast.NodePattern{Variable: "free"}, 6},
	}
	for _, tc := range cases {
		if got := m.nodeCost(tc.node); got != tc.want {
			t.Errorf("%s: nodeCost = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestNodeCostTracksWrites pins the delta-aware statistic: LabelCount
// must see nodes created after the base snapshot, not just the sealed
// index.
func TestNodeCostTracksWrites(t *testing.T) {
	e := costEngine(t)
	if _, err := e.Execute(`CREATE (:B {n: 7}), (:B {n: 8})`); err != nil {
		t.Fatal(err)
	}
	m := &matcher{engine: e, env: row{}}
	if got := m.nodeCost(&ast.NodePattern{Labels: []string{"B"}}); got != 3 {
		t.Errorf("nodeCost(:B) after CREATE = %d, want 3", got)
	}
}

// chain builds (first)-[:T]->(last) as a two-node pattern part.
func chain(first, last *ast.NodePattern) *ast.PatternPart {
	return &ast.PatternPart{
		Nodes: []*ast.NodePattern{first, last},
		Rels:  []*ast.RelPattern{{Direction: ast.DirRight}},
	}
}

func TestOrient(t *testing.T) {
	e := costEngine(t)
	m := &matcher{engine: e, env: row{"x": value.Int(1)}}
	anon := func() *ast.NodePattern { return &ast.NodePattern{} }
	labB := func() *ast.NodePattern { return &ast.NodePattern{Labels: []string{"B"}} }

	// Cheap side already first: unchanged, no trace.
	p := chain(labB(), anon())
	if got := m.orient(p); got != p {
		t.Errorf("cheap-first chain must not be reversed")
	}

	// Cheap side last: reversed, direction flipped, trace recorded.
	p = chain(anon(), labB())
	got := m.orient(p)
	if got == p {
		t.Fatalf("expensive-first chain must be reversed")
	}
	if got.Nodes[0] != p.Nodes[1] || got.Nodes[1] != p.Nodes[0] {
		t.Errorf("reversed chain must start from the cheap node")
	}
	if got.Rels[0].Direction != ast.DirLeft {
		t.Errorf("reversed rel direction = %v, want DirLeft", got.Rels[0].Direction)
	}
	if tr := e.PlanTrace(); len(tr) == 0 || tr[len(tr)-1] != "ReverseTraversal" {
		t.Errorf("orient must record ReverseTraversal, trace: %v", tr)
	}

	// Equal costs: stable (no reversal) — determinism depends on ties
	// never flipping.
	p = chain(anon(), anon())
	if got := m.orient(p); got != p {
		t.Errorf("equal-cost chain must keep its orientation")
	}

	// A bound variable is free to start from even when the other end has
	// a label.
	p = chain(&ast.NodePattern{Variable: "x"}, labB())
	if got := m.orient(p); got != p {
		t.Errorf("bound-first chain must not be reversed")
	}

	// Single-node parts and disabled planner pass through untouched.
	single := &ast.PatternPart{Nodes: []*ast.NodePattern{labB()}}
	if got := m.orient(single); got != single {
		t.Errorf("single-node part must pass through")
	}
	e.opts.DisablePlanner = true
	p = chain(anon(), labB())
	if got := m.orient(p); got != p {
		t.Errorf("orient must be a no-op with the planner disabled")
	}
}

// TestOrientEndToEnd pins the heuristic through the text path: a chain
// written expensive-side-first must report ReverseTraversal in the plan
// trace and still produce the same rows as the cheap-side-first form.
func TestOrientEndToEnd(t *testing.T) {
	e := NewReference()
	if _, err := e.Execute(`CREATE (a:A {n: 1})-[:T]->(b:B {n: 2}), (:A {n: 3}), (:A {n: 4})`); err != nil {
		t.Fatal(err)
	}
	fwd := mustRun(t, e, `MATCH (x)-[:T]->(y:B) RETURN x.n, y.n`)
	if !strings.Contains(strings.Join(e.PlanTrace(), ","), "ReverseTraversal") {
		t.Errorf("expected ReverseTraversal in trace, got %v", e.PlanTrace())
	}
	rev := mustRun(t, e, `MATCH (y:B)<-[:T]-(x) RETURN x.n, y.n`)
	if !fwd.Equal(rev) {
		t.Errorf("oriented chain changed results: %v vs %v", fwd.Rows, rev.Rows)
	}
}
