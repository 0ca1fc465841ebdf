package engine

import (
	"context"
	"testing"

	"gqs/internal/value"
)

// TestPlanCoverage pins which constructs compile to a physical plan and
// which deliberately fall back to the interpreter. The fallback set is a
// behavioral contract: an unsupported construct must take the
// interpreter path so its semantics (including its errors) are trivially
// identical.
func TestPlanCoverage(t *testing.T) {
	planned := []string{
		"MATCH (n) RETURN n",
		"MATCH (a:A)-[r:T]->(b) WHERE a.n > 1 RETURN a, b ORDER BY b.n LIMIT 3",
		"OPTIONAL MATCH (a)-[:T]->(b) RETURN a, b",
		"UNWIND [1,2] AS x RETURN x",
		"MATCH (n) WITH n.n AS k, count(*) AS c RETURN k, c",
		"MATCH (n) RETURN DISTINCT n.n SKIP 1",
		"CALL db.labels()",
		"CALL db.labels() YIELD label RETURN label",
		"CALL db.propertyKeys()",
		"MATCH (n) RETURN count(n, n)",     // wrong arity errors at runtime, still planned
		"MATCH (n) RETURN n.name LIMIT -1", // negative LIMIT errors at runtime, still planned
	}
	fallback := []string{
		"MATCH (n) RETURN *",                  // star projection
		"CREATE (x:Tmp) RETURN x",             // writes
		"MATCH (n) SET n.k = 1",               // writes
		"CALL db.indexes()",                   // procedure outside the compiled set
		"MATCH (n) WITH n.n RETURN 1 AS one",  // unaliased WITH expression
		"MATCH (n) RETURN n.n AS a, n.m AS a", // duplicate columns
	}
	for _, q := range planned {
		pq, err := Prepare(q)
		if err != nil {
			t.Fatalf("prepare %q: %v", q, err)
		}
		if !pq.Planned() {
			t.Errorf("%q: expected a compiled plan", q)
		}
	}
	for _, q := range fallback {
		pq, err := Prepare(q)
		if err != nil {
			t.Fatalf("prepare %q: %v", q, err)
		}
		if pq.Planned() {
			t.Errorf("%q: expected interpreter fallback", q)
		}
	}
}

// TestPlanSharedAcrossEngines executes one PreparedQuery concurrently on
// several engine instances — the campaign's sharing pattern — under the
// race detector's eye.
func TestPlanSharedAcrossEngines(t *testing.T) {
	pq, err := Prepare(`MATCH (a:A) WHERE a.n >= 1 RETURN a.n AS n ORDER BY n`)
	if err != nil {
		t.Fatal(err)
	}
	if !pq.Planned() {
		t.Fatal("expected a compiled plan")
	}
	const engines = 4
	done := make(chan error, engines)
	for i := 0; i < engines; i++ {
		go func() {
			e := NewReference()
			if _, err := e.Execute(`CREATE (:A {n: 1}), (:A {n: 2})`); err != nil {
				done <- err
				return
			}
			for rep := 0; rep < 50; rep++ {
				res, err := e.ExecutePrepared(context.Background(), pq)
				if err != nil {
					done <- err
					return
				}
				if res.Len() != 2 {
					t.Errorf("got %d rows", res.Len())
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < engines; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestFrameArena(t *testing.T) {
	var a frameArena

	// Consecutive allocations must not alias.
	f1 := a.alloc(3)
	f2 := a.alloc(3)
	f1[0], f2[0] = value.Int(1), value.Int(2)
	if f1[0].AsInt() != 1 || f2[0].AsInt() != 2 {
		t.Fatalf("frames alias: %v %v", f1, f2)
	}
	if len(f1) != 3 || len(f2) != 3 {
		t.Fatalf("frame widths: %d %d", len(f1), len(f2))
	}

	// A frame wider than the chunk size gets its own backing.
	wide := a.alloc(5000)
	if len(wide) != 5000 {
		t.Fatalf("wide frame len %d", len(wide))
	}

	// After reset, memory is reused from the front.
	a.reset()
	f3 := a.alloc(3)
	f3[0] = value.Int(3)
	if f1[0].AsInt() != 3 {
		t.Errorf("reset must rewind the arena onto the same backing array")
	}

	// Reset caps retained chunks so a huge query doesn't pin its peak
	// footprint forever.
	for i := 0; i < arenaMaxRetain*3*4096/8; i++ {
		a.alloc(8)
	}
	if len(a.chunks) <= arenaMaxRetain {
		t.Fatalf("test did not grow the arena: %d chunks", len(a.chunks))
	}
	a.reset()
	if len(a.chunks) > arenaMaxRetain {
		t.Errorf("reset retained %d chunks, cap %d", len(a.chunks), arenaMaxRetain)
	}
}
