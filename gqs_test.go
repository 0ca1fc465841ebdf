package gqs

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"
)

func TestDBQuickstart(t *testing.T) {
	db := NewDB()
	LoadExample(db)
	r := db.MustExecute(`MATCH (p:USER)-[l:LIKE]->(m:MOVIE)
		WHERE p.name = 'Alice' AND l.rating >= 8
		RETURN m.name AS name, m.year AS year`)
	if r.Len() != 1 || r.Rows[0][0].AsString() != "Heat" {
		t.Fatalf("quickstart query: %v", r)
	}
	if _, err := db.Execute(`THIS IS NOT CYPHER`); err == nil {
		t.Error("bad query must error")
	}
}

func TestMustExecutePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustExecute must panic on error")
		}
	}()
	NewDB().MustExecute(`(`)
}

func TestOpenSim(t *testing.T) {
	for _, name := range []string{"neo4j", "memgraph", "kuzu", "falkordb", "reference"} {
		if _, err := OpenSim(name); err != nil {
			t.Errorf("OpenSim(%s): %v", name, err)
		}
	}
	if _, err := OpenSim("sqlite"); err == nil {
		t.Error("unknown sim must error")
	}
}

func TestTesterEndToEnd(t *testing.T) {
	sim, err := OpenSim("falkordb")
	if err != nil {
		t.Fatal(err)
	}
	tester := NewTester(sim,
		WithSeed(3),
		WithGraphSize(10, 30),
		WithMaxSteps(7),
		WithQueriesPerGraph(5),
	)
	bugs := 0
	stats, err := tester.Run(10, func(tc *TestCase) {
		if tc.Verdict == VerdictLogicBug || tc.Verdict == VerdictErrorBug {
			bugs++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Queries == 0 {
		t.Fatal("no queries ran")
	}
	if bugs == 0 {
		t.Error("the falkordb sim should yield bugs")
	}
}

// TestShardedTesterEndToEnd: the public sharded API fans iterations
// across a worker pool, and the merged stats match a one-worker run of
// the same seed (wall-clock fields aside).
func TestShardedTesterEndToEnd(t *testing.T) {
	factory := func(shard int) (Target, error) { return OpenSim("falkordb") }
	run := func(workers int) Stats {
		t.Helper()
		tester := NewShardedTester(factory,
			WithSeed(3),
			WithGraphSize(10, 30),
			WithMaxSteps(7),
			WithQueriesPerGraph(5),
			WithWorkers(workers),
		)
		cases := 0
		stats, err := tester.Run(8, func(tc *TestCase) { cases++ })
		if err != nil {
			t.Fatal(err)
		}
		if cases != stats.Queries {
			t.Fatalf("report saw %d cases, stats count %d", cases, stats.Queries)
		}
		stats.Elapsed = 0
		stats.Robust.Downtime = 0
		return stats
	}
	one, four := run(1), run(4)
	if one != four {
		t.Fatalf("sharded stats differ across worker counts:\n  workers=1: %+v\n  workers=4: %+v", one, four)
	}
	if one.Queries == 0 {
		t.Fatal("no queries ran")
	}
}

// TestTesterResilienceOptions: the public API drives the hardened runner
// against live faults — the campaign survives real hangs and reports what
// the resilience layer absorbed.
func TestTesterResilienceOptions(t *testing.T) {
	sim, err := OpenSim("falkordb")
	if err != nil {
		t.Fatal(err)
	}
	sim.SetLiveFaults(true)
	tester := NewTester(sim,
		WithSeed(3),
		WithGraphSize(10, 30),
		WithTimeout(25*time.Millisecond),
		WithRetries(1),
	)
	stats, err := tester.Run(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Queries == 0 {
		t.Fatal("no queries ran")
	}
	if stats.Robust.Timeouts == 0 && stats.Robust.PanicsRecovered == 0 {
		t.Errorf("live falkordb faults should exercise the resilience layer: %+v", stats.Robust)
	}
}

// TestTesterReusesCallerTarget: NewTester drives the caller's own
// target for every iteration. The executor must never close it — a
// closed simulator refuses all work, so a second Run would fail every
// iteration — and each Run is a self-contained campaign derived from
// WithSeed. Every executed case carries the prepared path's features.
func TestTesterReusesCallerTarget(t *testing.T) {
	sim, err := OpenSim("falkordb")
	if err != nil {
		t.Fatal(err)
	}
	tester := NewTester(sim, WithSeed(3), WithGraphSize(10, 30), WithQueriesPerGraph(4))
	var runs [2]Stats
	for i := range runs {
		stats, err := tester.Run(4, func(tc *TestCase) {
			if tc.Verdict != VerdictSkip && tc.Features == nil {
				t.Errorf("run %d: case %d executed without the prepared path's features", i, tc.Seq)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Queries == 0 || stats.Robust.FailedIterations != 0 {
			t.Fatalf("run %d: the caller's target did not survive the campaign: %+v", i, stats)
		}
		stats.Elapsed, stats.Robust.Downtime = 0, 0
		runs[i] = stats
	}
	if runs[0] != runs[1] {
		t.Errorf("Run is not a self-contained campaign:\n  first:  %+v\n  second: %+v", runs[0], runs[1])
	}
}

// textOnly hides every optional extension of a target (prepared
// execution, snapshot resets, closing), so NewTester's adapter must fall
// back to plain ExecuteCtx and Reset.
type textOnly struct{ Target }

// TestTesterTextOnlyTarget: a target implementing only Target runs
// through Run and RunContext; on the fault-free reference it yields no
// bug verdicts.
func TestTesterTextOnlyTarget(t *testing.T) {
	sim, err := OpenSim("reference")
	if err != nil {
		t.Fatal(err)
	}
	tester := NewTester(textOnly{sim}, WithSeed(5), WithGraphSize(8, 20), WithQueriesPerGraph(4))
	bugs := 0
	report := func(tc *TestCase) {
		if tc.Verdict == VerdictLogicBug || tc.Verdict == VerdictErrorBug {
			bugs++
			t.Errorf("false alarm on the reference: %v %q: %v", tc.Verdict, tc.Query, tc.Err)
		}
	}
	for _, run := range []struct {
		name string
		run  func() (Stats, error)
	}{
		{"Run", func() (Stats, error) { return tester.Run(4, report) }},
		{"RunContext", func() (Stats, error) { return tester.RunContext(context.Background(), 4, report) }},
	} {
		stats, err := run.run()
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if stats.Passes == 0 || stats.Robust.FailedIterations != 0 {
			t.Fatalf("%s: text-only target did not run: %+v", run.name, stats)
		}
		if stats.LogicBugs+stats.ErrorBugs != 0 || bugs != 0 {
			t.Fatalf("%s: %d logic-bug and %d error reports on the reference", run.name, stats.LogicBugs, stats.ErrorBugs)
		}
	}
}

func TestSynthesize(t *testing.T) {
	q, expected, err := Synthesize(42, 10, 30)
	if err != nil {
		t.Fatal(err)
	}
	if q == "" || expected == nil || len(expected.Columns) == 0 {
		t.Fatalf("Synthesize returned %q / %v", q, expected)
	}
	// Determinism.
	q2, _, _ := Synthesize(42, 10, 30)
	if q != q2 {
		t.Error("Synthesize must be deterministic per seed")
	}
}

// ckStatsScrub zeroes the wall-clock and checkpoint-accounting fields so
// durable and plain campaign stats can be compared for equality.
func ckStatsScrub(s Stats) Stats {
	s.Elapsed = 0
	s.Robust.Downtime = 0
	s.Robust.RestoredIterations = 0
	s.Robust.CheckpointsWritten = 0
	s.Robust.CheckpointBytes = 0
	s.Robust.LastCheckpointAge = 0
	return s
}

// TestTesterRunContextCheckpointResume: the public checkpoint API — a
// campaign canceled mid-run resumes from its journal and converges on
// the stats an uninterrupted run produces, on both tester shapes.
func TestTesterRunContextCheckpointResume(t *testing.T) {
	const iters = 6
	shapes := []struct {
		name string
		make func(opts ...TesterOption) *Tester
	}{
		{"single-target", func(opts ...TesterOption) *Tester {
			sim, err := OpenSim("falkordb")
			if err != nil {
				t.Fatal(err)
			}
			return NewTester(sim, opts...)
		}},
		{"sharded", func(opts ...TesterOption) *Tester {
			factory := func(shard int) (Target, error) { return OpenSim("falkordb") }
			return NewShardedTester(factory, append(opts, WithWorkers(2))...)
		}},
	}
	for _, shape := range shapes {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			base := []TesterOption{WithSeed(3), WithGraphSize(10, 30), WithMaxSteps(7), WithQueriesPerGraph(5)}
			want, err := shape.make(base...).RunContext(context.Background(), iters, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Cancel half-way through the case stream: late enough that some
			// work units have completed (and flushed, with Every=1), early
			// enough that queued units are still pending.
			cancelAt := want.Queries / 2
			want = ckStatsScrub(want)

			path := filepath.Join(t.TempDir(), "tester.journal")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cases := 0
			durable := append(append([]TesterOption{}, base...), WithCheckpoint(path, 1))
			partial, err := shape.make(durable...).RunContext(ctx, iters, func(*TestCase) {
				if cases++; cases == cancelAt {
					cancel()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if partial.Queries >= want.Queries {
				t.Fatalf("cancellation did not interrupt: partial ran %d of %d queries", partial.Queries, want.Queries)
			}

			resumed, err := shape.make(append(durable, WithResume())...).RunContext(context.Background(), iters, nil)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Robust.RestoredIterations == 0 {
				t.Error("resume restored nothing")
			}
			if got := ckStatsScrub(resumed); got != want {
				t.Errorf("resumed stats diverge:\n  resumed: %+v\n  want:    %+v", got, want)
			}
		})
	}
}

// TestTesterResumeRefusesChangedSeed: WithResume under a changed
// configuration is refused with ErrFingerprintMismatch.
func TestTesterResumeRefusesChangedSeed(t *testing.T) {
	sim, err := OpenSim("reference")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tester.journal")
	if _, err := NewTester(sim, WithSeed(3), WithCheckpoint(path, 1)).RunContext(context.Background(), 2, nil); err != nil {
		t.Fatal(err)
	}
	_, err = NewTester(sim, WithSeed(4), WithCheckpoint(path, 1), WithResume()).RunContext(context.Background(), 2, nil)
	if !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("resume with a changed seed: err = %v, want ErrFingerprintMismatch", err)
	}
}
