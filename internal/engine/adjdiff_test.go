package engine

// The scan-vs-index differential: every query of the corpus runs twice
// per dialect on snapshot-loaded engines — once with index-backed
// expansion, once forced onto the adjacency-list scan — and the results
// must be byte-equal: same rows in the same order, same error string,
// same match-step accounting (pinned by the step-limit sweep). This is
// the adjacency-index analogue of the plandiff gate: the index may
// choose any access path, but it must not be observable.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gqs/internal/graph"
)

func adjDiffOptions() []Options {
	return []Options{
		{Dialect: Reference},
		{Dialect: Dialect{Name: "neo4j", RelUniqueness: true, ProvidesDBLabels: true}},
		{Dialect: Dialect{Name: "memgraph", RelUniqueness: true}, ReverseScan: true},
		{Dialect: Dialect{Name: "kuzu", EnforceSchema: true}},
		{Dialect: Dialect{Name: "falkordb", ProvidesDBLabels: true}},
	}
}

// adjDiffReads exercises every indexed-expansion shape: each direction,
// multi-type (including a repeated alternative), inline relationship
// properties, mid-chain label checks, bound-relationship reuse,
// self-loop binding, and the untyped scan fallback.
var adjDiffReads = []string{
	"MATCH (a)-[r:T0]->(b) RETURN a.id, r.id, b.id",
	"MATCH (a)<-[r:T1]-(b) RETURN a.id, r.id, b.id",
	"MATCH (a)-[r:T0]-(b) RETURN a.id, r.id, b.id",
	"MATCH (a)-[r:T2]-(a) RETURN r.id",
	"MATCH (a)-[r:T0|T1]->(b) RETURN r.id",
	"MATCH (a)-[r:T1|T1]-(b) RETURN r.id",
	"MATCH (a)-[r:T0|T2|T4]-(b) RETURN a.id, r.id",
	"MATCH (a:L0)-[:T0]->(b:L1) RETURN a.id, b.id",
	"MATCH (a:L0)-[:T0]->(b:L1)-[:T1]->(c) RETURN a.id, b.id, c.id",
	"MATCH (a)-[r1:T0]->(b)-[r2:T0]->(c) RETURN a.id, c.id",
	"MATCH (a)-[r1:T1]-(b)-[r2:T1]-(c) RETURN r1.id, r2.id",
	"MATCH (a)-[r:T1]->(b) WHERE a.id < b.id RETURN r.id",
	"MATCH (a)-[r:T0 {k0: a.k0}]->(b) RETURN r.id",
	"MATCH (a {k0: 1})-[r:T0]->(b) RETURN r.id",
	"MATCH (a)-[r]->(b) RETURN count(*)",
	"MATCH (a:L2)-[r:T3]-(b:L2) RETURN a.id, b.id ORDER BY a.id, b.id",
	"MATCH (a)-[:T0]->(b), (b)-[:T1]->(c) RETURN a.id, c.id",
	"OPTIONAL MATCH (a:L0)-[r:T9]->(b) RETURN a.id, r",
}

// adjDiffWrites turns both stores into diverged COW overlays —
// tombstoned rels, detach-deleted nodes, appended rels, mutated rel
// properties, label churn — before the read corpus runs again, so the
// differential covers the overlay-merge fallback paths.
var adjDiffWrites = []string{
	"MATCH ()-[r:T2]->() DELETE r",
	"MATCH (n:L3) DETACH DELETE n",
	"MATCH (a:L0) MATCH (b:L1) WHERE a.id < b.id CREATE (a)-[:T0]->(b)",
	"MATCH ()-[r:T1]->() SET r.k1 = 5",
	"MATCH (n:L1) SET n:L5",
	"MATCH (n:L2) REMOVE n:L2",
}

func adjDiffGraph(t *testing.T, seed int64) (*graph.Snapshot, *graph.Schema) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 24, MaxRels: 140})
	return g.Seal(), schema
}

// runAdjDiff executes one query on both engines and compares outcomes.
func runAdjDiff(t *testing.T, label, text string, indexed, scan *Engine) {
	t.Helper()
	run := func(e *Engine) (*Result, string) {
		pq, err := Prepare(text)
		if err != nil {
			return nil, err.Error()
		}
		res, err := e.ExecutePrepared(context.Background(), pq)
		if err != nil {
			return nil, err.Error()
		}
		return res, ""
	}
	ri, ei := run(indexed)
	rs, es := run(scan)
	if ei != es {
		t.Fatalf("%s: %q: error mismatch: indexed=%q scan=%q", label, text, ei, es)
	}
	if ei != "" {
		return
	}
	if !slices.Equal(ri.Columns, rs.Columns) || !IdenticalRows(ri.Rows, rs.Rows) {
		t.Fatalf("%s: %q: results diverge:\nindexed: %v %v\nscan:    %v %v",
			label, text, ri.Columns, ri.Rows, rs.Columns, rs.Rows)
	}
}

// TestAdjIndexScanDifferential is the main equivalence gate: randomized
// sealed graphs, five dialects, reads on the clean snapshot, then reads
// again after identical overlay mutations on both engines.
func TestAdjIndexScanDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		snap, schema := adjDiffGraph(t, seed)
		for _, opts := range adjDiffOptions() {
			scanOpts := opts
			scanOpts.DisableAdjIndex = true
			indexed, scan := New(opts), New(scanOpts)
			indexed.LoadSnapshot(snap, schema)
			scan.LoadSnapshot(snap, schema)
			label := fmt.Sprintf("seed %d/%s", seed, opts.Dialect.Name)
			for _, q := range adjDiffReads {
				runAdjDiff(t, label, q, indexed, scan)
			}
			for _, w := range adjDiffWrites {
				runAdjDiff(t, label+"/write", w, indexed, scan)
			}
			for _, q := range adjDiffReads {
				runAdjDiff(t, label+"/overlay", q, indexed, scan)
			}
			if indexed.adjExpansions == 0 {
				t.Fatalf("%s: indexed engine never used the adjacency index", label)
			}
			if scan.adjExpansions != 0 {
				t.Fatalf("%s: scan engine used the adjacency index %d times", label, scan.adjExpansions)
			}
		}
	}
}

// TestAdjIndexStepLimitEquivalence pins the skip-run step accounting:
// at every MaxMatchSteps value the indexed and scan paths must agree
// exactly on whether the budget trips, and on the partial error/result.
func TestAdjIndexStepLimitEquivalence(t *testing.T) {
	snap, schema := adjDiffGraph(t, 7)
	queries := []string{
		"MATCH (a)-[r:T0]-(b)-[s:T1]-(c) RETURN a.id, c.id",
		"MATCH (a)-[r:T0|T3]->(b) RETURN r.id",
		"MATCH (a)<-[r:T1]-(b) RETURN r.id",
	}
	for _, text := range queries {
		for ms := 1; ms <= 400; ms++ {
			opts := Options{Limits: Limits{MaxMatchSteps: ms}}
			scanOpts := opts
			scanOpts.DisableAdjIndex = true
			indexed, scan := New(opts), New(scanOpts)
			indexed.LoadSnapshot(snap, schema)
			scan.LoadSnapshot(snap, schema)
			runAdjDiff(t, fmt.Sprintf("maxSteps=%d", ms), text, indexed, scan)
		}
	}
}

// FuzzAdjIndex extends the scan-vs-index differential to generated
// inputs. Each input decodes to a sealed graph (seed, up to 24 nodes and
// 140 relationships, as adjDiffGraph), one of adjDiffOptions, a subset of
// adjDiffWrites applied to both engines (diverged copy-on-write
// overlays), a read — one of adjDiffReads or a typed 1–3-hop chain — and
// a MaxMatchSteps of 1–400, so step-limit trips are part of the
// contract. The indexed and the scan engine must then agree on every
// write and on the read, as in runAdjDiff. The seeds under
// testdata/fuzz/FuzzAdjIndex are TestAdjIndexScanDifferential's four
// graph seeds and some of TestAdjIndexStepLimitEquivalence's limits.
func FuzzAdjIndex(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, nodes, rels, dialect, writes, read uint8, chain uint64, steps uint16) {
		r := rand.New(rand.NewSource(seed))
		g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 2 + int(nodes%23), MaxRels: 1 + int(rels%140)})
		snap := g.Seal()
		all := adjDiffOptions()
		opts := all[int(dialect)%len(all)]
		opts.Limits.MaxMatchSteps = 1 + int(steps%400)
		scanOpts := opts
		scanOpts.DisableAdjIndex = true
		indexed, scan := New(opts), New(scanOpts)
		indexed.LoadSnapshot(snap, schema)
		scan.LoadSnapshot(snap, schema)
		label := fmt.Sprintf("seed %d/%s/maxSteps=%d", seed, opts.Dialect.Name, opts.Limits.MaxMatchSteps)
		for i, w := range adjDiffWrites {
			if writes&(1<<i) != 0 {
				runAdjDiff(t, label+"/write", w, indexed, scan)
			}
		}
		text := adjDiffReads[int(read/2)%len(adjDiffReads)]
		if read%2 == 0 {
			text = adjFuzzChain(chain, schema)
			if _, err := Prepare(text); err != nil {
				t.Fatalf("generated chain %q does not parse: %v", text, err)
			}
		}
		runAdjDiff(t, label, text, indexed, scan)
	})
}

// adjFuzzChain renders the typed chain of 1–3 hops that x encodes: per
// hop a direction and one or two relationship types, per node an
// optional label. It returns every element's id, so the differential
// compares row order too.
func adjFuzzChain(x uint64, schema *graph.Schema) string {
	next := func(n int) int {
		v := int(x % uint64(n))
		x /= uint64(n)
		return v
	}
	var b strings.Builder
	node := func(i int) {
		fmt.Fprintf(&b, "(n%d", i)
		if l := next(2 * len(schema.Labels)); l < len(schema.Labels) {
			b.WriteString(":" + schema.Labels[l])
		}
		b.WriteString(")")
	}
	hops := 1 + next(3)
	b.WriteString("MATCH ")
	node(0)
	ret := "n0.id"
	for i := 0; i < hops; i++ {
		dir := next(3)
		if dir == 1 {
			b.WriteString("<")
		}
		fmt.Fprintf(&b, "-[r%d:%s", i, schema.RelTypes[next(len(schema.RelTypes))])
		if t := next(2 * len(schema.RelTypes)); t < len(schema.RelTypes) {
			b.WriteString("|" + schema.RelTypes[t])
		}
		b.WriteString("]-")
		if dir == 0 {
			b.WriteString(">")
		}
		node(i + 1)
		ret += fmt.Sprintf(", r%d.id, n%d.id", i, i+1)
	}
	return b.String() + " RETURN " + ret
}

// TestStoreNodeHasLabel pins the delta resolution the mid-chain label
// fast path relies on: base labels, overlay additions and removals, and
// deletion leaving the node unindexed.
func TestStoreNodeHasLabel(t *testing.T) {
	g := graph.New()
	a := g.NewNode("A").ID
	b := g.NewNode("B").ID
	snap := g.Seal()
	schema := &graph.Schema{Labels: []string{"A", "B", "C"}}
	e := New(Options{})
	e.LoadSnapshot(snap, schema)
	st := e.Store()

	if !st.NodeHasLabel("A", a) || st.NodeHasLabel("B", a) || !st.NodeHasLabel("B", b) {
		t.Fatal("base labels misresolved")
	}
	if err := st.AddLabels(a, []string{"C"}); err != nil {
		t.Fatal(err)
	}
	if !st.NodeHasLabel("C", a) || st.NodeHasLabel("C", b) {
		t.Fatal("overlay label addition misresolved")
	}
	if err := st.RemoveLabels(a, []string{"A"}); err != nil {
		t.Fatal(err)
	}
	if st.NodeHasLabel("A", a) {
		t.Fatal("overlay label removal misresolved")
	}
	if err := st.DeleteNode(b, true); err != nil {
		t.Fatal(err)
	}
	if st.NodeHasLabel("B", b) {
		t.Fatal("deleted node still label-indexed")
	}
}
