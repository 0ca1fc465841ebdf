package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"gqs/internal/graph"
)

// dumpGraph renders a canonical textual form of the live graph state —
// every node, relationship, and adjacency list — so an overlay graph and
// a plain clone can be compared exactly.
func dumpGraph(g *graph.Graph) string {
	var sb strings.Builder
	for _, id := range g.NodeIDs() {
		n := g.Node(id)
		labels := append([]string(nil), n.Labels...)
		sort.Strings(labels)
		props := make([]string, 0, len(n.Props))
		for k, v := range n.Props {
			props = append(props, k+"="+v.Key())
		}
		sort.Strings(props)
		fmt.Fprintf(&sb, "N%d %v %v out=%v in=%v\n", id, labels, props, g.Out(id), g.In(id))
	}
	for _, id := range g.RelIDs() {
		r := g.Rel(id)
		props := make([]string, 0, len(r.Props))
		for k, v := range r.Props {
			props = append(props, k+"="+v.Key())
		}
		sort.Strings(props)
		fmt.Fprintf(&sb, "R%d %s %d->%d %v\n", id, r.Type, r.Start, r.End, props)
	}
	return sb.String()
}

// TestCOWStoreMatchesCloneStore runs the same write-clause-heavy query
// sequences through a snapshot-loaded (copy-on-write) engine and a
// graph-loaded (deep-clone) engine, comparing every result and the full
// graph state after every query and after every reset. This is the
// differential oracle for the COW Reset path itself: both engines must
// be observationally identical across mutation and restore.
func TestCOWStoreMatchesCloneStore(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 12, MaxRels: 30})
	base := g.Clone() // keep a pristine copy for the clone engine's resets
	snap := g.Seal()

	cow := NewReference()
	ref := NewReference()
	cow.LoadSnapshot(snap, schema)
	ref.LoadGraph(base, schema)

	l0, l1 := schema.Labels[0], schema.Labels[1%len(schema.Labels)]
	t0 := schema.RelTypes[0]
	sequences := [][]string{
		{
			"MATCH (n) SET n.cow_w = 1",
			fmt.Sprintf("MATCH (n:%s) REMOVE n.k0", l0),
			"MATCH (a)-[r]->(b) SET r.cow_w = 2",
			"MATCH (n) RETURN n.id, n.cow_w",
		},
		{
			fmt.Sprintf("CREATE (a:%s {cow_w: 3})-[:%s]->(b:%s)", l0, t0, l1),
			fmt.Sprintf("MATCH (n:%s) WHERE n.cow_w = 3 SET n.cow_w = 4", l0),
			"MATCH (a)-[r]->(b) WHERE r.cow_w = 2 DELETE r",
			"MATCH (n) RETURN count(n)",
		},
		{
			fmt.Sprintf("MATCH (n:%s) DETACH DELETE n", l1),
			fmt.Sprintf("MERGE (n:%s {cow_w: 9})", l0),
			fmt.Sprintf("UNWIND [1,2,3] AS x CREATE (m:%s {cow_w: x})", l1),
			"MATCH (n) RETURN n.id ORDER BY n.id",
		},
	}

	for round := 0; round < 3; round++ {
		for si, seq := range sequences {
			for qi, q := range seq {
				gotC, errC := cow.Execute(q)
				gotR, errR := ref.Execute(q)
				if (errC == nil) != (errR == nil) {
					t.Fatalf("round %d seq %d query %d %q: error mismatch cow=%v ref=%v",
						round, si, qi, q, errC, errR)
				}
				if errC == nil && !gotC.Equal(gotR) {
					t.Fatalf("round %d seq %d query %d %q: results differ\ncow: %v\nref: %v",
						round, si, qi, q, gotC.Canonical(), gotR.Canonical())
				}
				if d1, d2 := dumpGraph(cow.Store().Graph()), dumpGraph(ref.Store().Graph()); d1 != d2 {
					t.Fatalf("round %d seq %d query %d %q: graph state diverged\ncow:\n%s\nref:\n%s",
						round, si, qi, q, d1, d2)
				}
			}
			// Reset both: COW drops its overlay, the reference re-clones.
			cow.LoadSnapshot(snap, schema)
			ref.LoadGraph(base, schema)
			if d1, d2 := dumpGraph(cow.Store().Graph()), dumpGraph(ref.Store().Graph()); d1 != d2 {
				t.Fatalf("round %d seq %d: graph state diverged after reset\ncow:\n%s\nref:\n%s",
					round, si, d1, d2)
			}
		}
	}
}

// TestSnapshotSharedAcrossConcurrentEngines loads one snapshot into many
// engines on separate goroutines, each running mutation+reset cycles.
// Under -race this proves the sharing contract: a sealed snapshot is
// read-only, every write lands in the per-engine overlay, and the only
// synchronized state is the per-snapshot index cache.
func TestSnapshotSharedAcrossConcurrentEngines(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 10, MaxRels: 25})
	snap := g.Seal()
	before := dumpGraph(graph.FromSnapshot(snap))

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e := NewReference()
			for cycle := 0; cycle < 10; cycle++ {
				e.LoadSnapshot(snap, schema)
				if _, err := e.Execute(fmt.Sprintf("MATCH (n) SET n.worker = %d", w)); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if _, err := e.Execute("MATCH (n) WHERE n.id % 2 = 0 DETACH DELETE n"); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if after := dumpGraph(graph.FromSnapshot(snap)); after != before {
		t.Fatalf("snapshot mutated by concurrent overlay writers\nbefore:\n%s\nafter:\n%s",
			before, after)
	}
}

// TestResetSnapshotAcrossSnapshots resets one engine back and forth
// between two sealed graphs, writing after every reset, and compares it
// after each reset and each write with a fresh engine loaded from the
// same snapshot: rebasing the store's overlay onto another snapshot must
// keep nothing of the other snapshot, of the writes, or of the index
// deltas.
func TestResetSnapshotAcrossSnapshots(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	var snaps [2]*graph.Snapshot
	var schemas [2]*graph.Schema
	for i := range snaps {
		g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 10, MaxRels: 25})
		snaps[i], schemas[i] = g.Seal(), schema
	}
	l0 := schemas[0].Labels[0]
	writes := []string{
		"MATCH (n) SET n.rebase_w = 1",
		fmt.Sprintf("CREATE (:%s {rebase_w: 2})-[:REBASE]->(:Other)", l0),
		"MATCH (n) WHERE n.id % 3 = 0 DETACH DELETE n",
	}
	reads := []string{
		"MATCH (n) RETURN n.id, n.rebase_w ORDER BY n.id",
		fmt.Sprintf("MATCH (n:%s) RETURN count(*)", l0),
		"MATCH (a)-[r]->(b) RETURN count(r)",
	}
	same := func(what string, e, fresh *Engine) {
		t.Helper()
		if d1, d2 := dumpGraph(e.Store().Graph()), dumpGraph(fresh.Store().Graph()); d1 != d2 {
			t.Fatalf("%s: graph state diverged\nreset:\n%s\nfresh:\n%s", what, d1, d2)
		}
		for _, q := range reads {
			got, err1 := e.Execute(q)
			want, err2 := fresh.Execute(q)
			if err1 != nil || err2 != nil || !IdenticalRows(got.Rows, want.Rows) {
				t.Fatalf("%s: %q: reset engine %v (%v), fresh %v (%v)", what, q, got, err1, want, err2)
			}
		}
	}
	e := NewReference()
	for round := 0; round < 6; round++ {
		i := round % 2
		e.LoadSnapshot(snaps[i], schemas[i])
		fresh := NewReference()
		fresh.LoadSnapshot(snaps[i], schemas[i])
		same(fmt.Sprintf("round %d reset", round), e, fresh)
		for wi, w := range writes[:1+round%len(writes)] {
			if _, err := e.Execute(w); err != nil {
				t.Fatal(err)
			}
			if _, err := fresh.Execute(w); err != nil {
				t.Fatal(err)
			}
			same(fmt.Sprintf("round %d write %d", round, wi), e, fresh)
		}
	}
}
