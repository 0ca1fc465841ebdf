package graph

import (
	"math/rand"
	"strings"
	"testing"

	"gqs/internal/value"
)

func TestNewNodeAndRel(t *testing.T) {
	g := New()
	a := g.NewNode("L0", "L1")
	b := g.NewNode("L2")
	if a.ID == b.ID {
		t.Fatal("node IDs must be unique")
	}
	if !a.HasLabel("L1") || a.HasLabel("L2") {
		t.Error("HasLabel broken")
	}
	if a.Props["id"].AsInt() != a.ID {
		t.Error("id property must equal element ID")
	}
	r, err := g.NewRel(a.ID, b.ID, "T0")
	if err != nil {
		t.Fatal(err)
	}
	if r.ID == a.ID || r.ID == b.ID {
		t.Error("rel ID must be unique across elements")
	}
	if g.NumNodes() != 2 || g.NumRels() != 1 {
		t.Error("counts broken")
	}
	if len(g.Out(a.ID)) != 1 || len(g.In(b.ID)) != 1 {
		t.Error("adjacency broken")
	}
	if len(g.Incident(a.ID)) != 1 || len(g.Incident(b.ID)) != 1 {
		t.Error("Incident broken")
	}
	if _, err := g.NewRel(999, b.ID, "T0"); err == nil {
		t.Error("rel from missing node must fail")
	}
}

func TestLookup(t *testing.T) {
	g := New()
	n := g.NewNode("L0")
	n.Props["name"] = value.Str("Alice")
	v, ok := g.Lookup(PropertyKey{Element: n.ID, Name: "name"})
	if !ok || v.AsString() != "Alice" {
		t.Error("Lookup node prop broken")
	}
	if _, ok := g.Lookup(PropertyKey{Element: n.ID, Name: "missing"}); ok {
		t.Error("missing property must report !ok")
	}
	if _, ok := g.Lookup(PropertyKey{Element: 999, Name: "x"}); ok {
		t.Error("missing element must report !ok")
	}
	r, _ := g.NewRel(n.ID, n.ID, "T0")
	r.Props["w"] = value.Int(5)
	v, ok = g.Lookup(PropertyKey{Element: r.ID, IsRel: true, Name: "w"})
	if !ok || v.AsInt() != 5 {
		t.Error("Lookup rel prop broken")
	}
}

func TestDelete(t *testing.T) {
	g := New()
	a := g.NewNode()
	b := g.NewNode()
	r, _ := g.NewRel(a.ID, b.ID, "T0")
	if err := g.DeleteNode(a.ID, false); err == nil {
		t.Error("DELETE of attached node must fail")
	}
	g.DeleteRel(r.ID)
	if g.NumRels() != 0 || len(g.Out(a.ID)) != 0 || len(g.In(b.ID)) != 0 {
		t.Error("DeleteRel broken")
	}
	if err := g.DeleteNode(a.ID, false); err != nil {
		t.Error("DELETE of detached node must succeed")
	}
	// DETACH DELETE removes attached rels.
	c := g.NewNode()
	g.NewRel(b.ID, c.ID, "T1")
	g.NewRel(c.ID, b.ID, "T1")
	if err := g.DeleteNode(c.ID, true); err != nil {
		t.Fatal(err)
	}
	if g.NumRels() != 0 {
		t.Error("DETACH DELETE must remove incident rels")
	}
}

func TestClone(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g, _ := Generate(r, GenConfig{MaxNodes: 8, MaxRels: 30})
	c := g.Clone()
	if c.NumNodes() != g.NumNodes() || c.NumRels() != g.NumRels() {
		t.Fatal("clone size mismatch")
	}
	// Mutating the clone must not affect the original.
	id := c.NodeIDs()[0]
	c.Node(id).Props["zz"] = value.Int(1)
	if _, ok := g.Node(id).Props["zz"]; ok {
		t.Error("clone shares property maps")
	}
	c.NewNode("X")
	if c.NumNodes() != g.NumNodes()+1 {
		t.Error("clone node insert broken")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g1, s1 := Generate(rand.New(rand.NewSource(42)), GenConfig{})
	g2, s2 := Generate(rand.New(rand.NewSource(42)), GenConfig{})
	if g1.NumNodes() != g2.NumNodes() || g1.NumRels() != g2.NumRels() {
		t.Error("generation must be deterministic per seed")
	}
	if g1.ToCypher() != g2.ToCypher() {
		t.Error("ToCypher must be deterministic per seed")
	}
	if len(s1.Labels) != len(s2.Labels) || len(s1.Indexes) != len(s2.Indexes) {
		t.Error("schema generation must be deterministic")
	}
}

func TestGenerateRespectsBounds(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		cfg := GenConfig{MaxNodes: 13, MaxRels: 500}
		g, s := Generate(r, cfg)
		if g.NumNodes() < 2 || g.NumNodes() > 13 {
			t.Fatalf("node count %d out of bounds", g.NumNodes())
		}
		if g.NumRels() < 1 || g.NumRels() > 500 {
			t.Fatalf("rel count %d out of bounds", g.NumRels())
		}
		for _, id := range g.RelIDs() {
			rel := g.Rel(id)
			if g.Node(rel.Start) == nil || g.Node(rel.End) == nil {
				t.Fatal("dangling relationship")
			}
		}
		// Every property must match its schema type.
		for _, id := range g.NodeIDs() {
			for name, v := range g.Node(id).Props {
				if name == "id" {
					continue
				}
				checkPropType(t, s, name, v)
			}
		}
	}
}

// TestGenerateMaxNodesOne: a node bound of 1 is below the documented
// minimum of 2 generated nodes; it generates 2 instead of panicking.
func TestGenerateMaxNodesOne(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		g, _ := Generate(r, GenConfig{MaxNodes: 1, MaxRels: 5})
		if g.NumNodes() != 2 || g.NumRels() < 1 || g.NumRels() > 5 {
			t.Fatalf("MaxNodes 1 generated %d nodes and %d relationships", g.NumNodes(), g.NumRels())
		}
	}
}

func checkPropType(t *testing.T, s *Schema, name string, v value.Value) {
	t.Helper()
	want, ok := s.Props[name]
	if !ok {
		t.Fatalf("property %s not in schema", name)
	}
	var got PropType
	switch v.Kind() {
	case value.KindInt:
		got = PropInt
	case value.KindFloat:
		got = PropFloat
	case value.KindString:
		got = PropString
	case value.KindBool:
		got = PropBool
	case value.KindList:
		got = PropStrList
	default:
		t.Fatalf("unexpected property kind %v", v.Kind())
	}
	if got != want {
		t.Fatalf("property %s: type %v, schema says %v", name, got, want)
	}
}

func TestSchemaPropNames(t *testing.T) {
	_, s := Generate(rand.New(rand.NewSource(3)), GenConfig{})
	names := s.PropNames()
	if len(names) != 100 || names[0] != "k0" || names[99] != "k99" {
		t.Errorf("PropNames = %v", names)
	}
}

func TestToCypher(t *testing.T) {
	g := New()
	a := g.NewNode("USER")
	a.Props["name"] = value.Str("Alice")
	b := g.NewNode("MOVIE")
	r, _ := g.NewRel(a.ID, b.ID, "LIKE")
	r.Props["rating"] = value.Int(10)
	s := g.ToCypher()
	for _, want := range []string{"CREATE", ":USER", "name: 'Alice'", "-[:LIKE", "rating: 10", "]->"} {
		if !strings.Contains(s, want) {
			t.Errorf("ToCypher missing %q in %q", want, s)
		}
	}
	if New().ToCypher() != "" {
		t.Error("empty graph must render empty")
	}
}

func TestPropTypeString(t *testing.T) {
	if PropInt.String() != "INTEGER" || PropStrList.String() != "LIST<STRING>" {
		t.Error("PropType.String broken")
	}
}
