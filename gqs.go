// Package gqs is the public API of this repository: a Go reproduction of
// "Testing Graph Databases with Synthesized Queries" (SIGMOD 2025).
//
// The package offers three entry points:
//
//   - An embeddable in-memory Cypher graph database: NewDB. It supports
//     the openCypher 9 data-retrieval clauses (MATCH, OPTIONAL MATCH,
//     UNWIND, WITH, RETURN, UNION, CALL and the WHERE/ORDER BY/SKIP/LIMIT
//     subclauses) plus the update clauses (CREATE, SET, MERGE, DELETE,
//     DETACH DELETE, REMOVE), 61 functions, and aggregation.
//
//   - The GQS tester: NewTester runs ground-truth-based logic-bug testing
//     against any Target — one of the bundled simulated GDBs (OpenSim) or
//     a user-provided connector.
//
//   - The experiment harness (internal/experiments, driven by the
//     cmd/gqs-bench command), which regenerates the paper's tables and
//     figures against the simulated GDBs.
//
// See README.md for a walkthrough and DESIGN.md for the architecture.
package gqs

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"gqs/internal/core"
	"gqs/internal/engine"
	"gqs/internal/gdb"
	"gqs/internal/graph"
	"gqs/internal/value"
)

// DB is an embeddable in-memory Cypher graph database.
type DB struct {
	eng *engine.Engine
}

// NewDB opens an empty in-memory database with reference Cypher
// semantics.
func NewDB() *DB {
	return &DB{eng: engine.NewReference()}
}

// Execute runs one Cypher query and returns its result.
func (db *DB) Execute(query string) (*Result, error) {
	return db.eng.Execute(query)
}

// MustExecute runs a query and panics on error; intended for examples and
// fixtures.
func (db *DB) MustExecute(query string) *Result {
	r, err := db.eng.Execute(query)
	if err != nil {
		panic(fmt.Sprintf("gqs: %v", err))
	}
	return r
}

// Result is a query result: named columns and rows of Cypher values.
type Result = engine.Result

// PreparedQuery is a query parsed and analyzed exactly once, executable
// any number of times — concurrently, on any number of databases or
// targets — without re-parsing. Its AST and feature analysis are
// immutable after Prepare; all per-execution state lives in the executor.
type PreparedQuery = engine.PreparedQuery

// Prepare parses and analyzes a query once for repeated execution; see
// DB.ExecutePrepared and PreparedTarget.
func Prepare(text string) (*PreparedQuery, error) { return engine.Prepare(text) }

// ExecutePrepared runs a prepared query, sharing its AST with any other
// in-flight executions of the same PreparedQuery on other databases.
// Queries covered by the plan compiler execute their compiled physical
// plan (slot frames, pushed-down predicates — see SetPlanExecution);
// everything else runs on the AST interpreter with identical behaviour.
func (db *DB) ExecutePrepared(pq *PreparedQuery) (*Result, error) {
	return db.eng.ExecutePrepared(context.Background(), pq)
}

// SetPlanExecution toggles compiled-plan execution of prepared queries
// (on by default). Plans and the interpreter are behaviour-identical by
// contract; turning plans off exists for differential debugging, like
// the gqs command's -no-plan flag.
func (db *DB) SetPlanExecution(enabled bool) {
	db.eng.SetPlanExecution(enabled)
}

// PreparedTarget is the optional prepared-execution extension of Target:
// connectors that implement it are handed each synthesized query parsed
// and analyzed once (one parse per oracle check instead of one per call),
// with transient-error retries reusing the same PreparedQuery. The
// bundled simulated GDBs implement it; text-only targets get the query
// text through ExecuteCtx.
type PreparedTarget interface {
	Target
	ExecutePrepared(ctx context.Context, pq *PreparedQuery) (*Result, error)
}

// SnapshotTarget is the optional copy-on-write restart extension of
// Target: connectors that implement it share one immutable sealed
// snapshot of each generated graph across every restart of an
// iteration, so restoring state between oracle checks is O(1) for
// read-only workloads and O(entries written) otherwise. Behaviour must
// be indistinguishable from Reset with the same graph; the bundled
// simulated GDBs implement it, and targets without it get a Reset with
// a fresh graph over the snapshot.
type SnapshotTarget interface {
	Target
	ResetSnapshot(snap *Snapshot, schema *graph.Schema) error
}

// Snapshot is an immutable, shareable view of one graph state; see
// SnapshotTarget and DESIGN.md §9.
type Snapshot = graph.Snapshot

// Value is a Cypher runtime value.
type Value = value.Value

// Target is the connector interface the tester drives: any Cypher
// database exposing reset-and-execute semantics can be tested. Each
// query runs under a per-query deadline (WithTimeout). By default every
// call runs in a watchdog goroutine, and a call that ignores
// cancellation past the grace window is abandoned and the target
// restarted. A target implementing CancelAwareTarget is called on the
// tester's own goroutine instead, and every call is waited for.
type Target interface {
	Name() string
	Reset(g *graph.Graph, schema *graph.Schema) error
	Execute(query string) (*Result, error)
	// ExecuteCtx runs the query under a context the tester cancels at
	// the per-query deadline; implementations should return promptly
	// once it is canceled.
	ExecuteCtx(ctx context.Context, query string) (*Result, error)
	RelUniqueness() bool
	ProvidesDBLabels() bool
}

// CancelAwareTarget is the optional inline-execution extension of
// Target: a target whose CancelAware reports true promises that every
// call returns promptly once its context is canceled, and the tester
// then runs its queries without a goroutine per query. A late call
// still counts as a wedged timeout and restarts the target, but a call
// that never returns blocks the tester. The bundled simulated GDBs
// implement it.
type CancelAwareTarget interface {
	Target
	CancelAware() bool
}

// Stats summarizes a testing campaign.
type Stats = core.Stats

// RobustnessConfig bounds the tester's resilience layer: per-query
// timeouts, transient-error retries, restart backoff, and the per-target
// circuit breaker. The zero value selects defaults.
type RobustnessConfig = core.RobustnessConfig

// RobustnessStats counts what the resilience layer absorbed during a
// campaign (Stats.Robust).
type RobustnessStats = core.RobustnessStats

// TestCase is one synthesized query with its verdict.
type TestCase = core.TestCase

// Verdict values re-exported for switch statements on TestCase.Verdict.
const (
	VerdictPass     = core.VerdictPass
	VerdictLogicBug = core.VerdictLogicBug
	VerdictErrorBug = core.VerdictErrorBug
	VerdictSkip     = core.VerdictSkip
)

// OpenSim opens one of the bundled simulated GDBs: "neo4j", "memgraph",
// "kuzu", "falkordb" (each the reference engine plus that system's
// dialect quirks and injected-fault catalog), or "reference" (no faults).
func OpenSim(name string) (*gdb.Sim, error) { return gdb.ByName(name) }

// Tester runs the GQS workflow — generate graph, select ground truth,
// synthesize query, validate — against a target.
type Tester struct {
	factory core.TargetFactory
	cfg     testerConfig
}

// testerConfig is the option-accumulation state behind TesterOption:
// the runner configuration plus tester-level knobs that have no home in
// core.RunnerConfig (the worker-pool size and the checkpoint journal).
type testerConfig struct {
	runner   core.RunnerConfig
	workers  int
	batch    int
	ckPath   string
	ckEvery  int
	ckResume bool
}

// resolvedBatch is the effective work-unit size (see WithBatch); 0
// keeps units at one iteration each.
func (c testerConfig) resolvedBatch() int {
	if c.batch > 0 {
		return c.batch
	}
	return 1
}

// TesterOption customizes a Tester.
type TesterOption func(*testerConfig)

// WithSeed fixes the random seed (campaigns are fully deterministic per
// seed).
func WithSeed(seed int64) TesterOption {
	return func(c *testerConfig) { c.runner.Seed = seed }
}

// WithGraphSize bounds the generated graphs.
func WithGraphSize(maxNodes, maxRels int) TesterOption {
	return func(c *testerConfig) {
		c.runner.Graph.MaxNodes = maxNodes
		c.runner.Graph.MaxRels = maxRels
	}
}

// WithMaxSteps bounds the synthesis steps per query (the paper uses up
// to 9).
func WithMaxSteps(steps int) TesterOption {
	return func(c *testerConfig) { c.runner.Synth.MaxSteps = steps }
}

// WithQueriesPerGraph sets how many ground truths are drawn per graph.
func WithQueriesPerGraph(n int) TesterOption {
	return func(c *testerConfig) { c.runner.QueriesPerGraph = n }
}

// WithTimeout sets the per-query wall-clock deadline. A query exceeding
// it is canceled: an error-bug when a fault hung the target, a skip
// otherwise. Negative disables the deadline.
func WithTimeout(d time.Duration) TesterOption {
	return func(c *testerConfig) { c.runner.Robust.Timeout = d }
}

// WithRetries sets how many times a transient connector error (an error
// exposing `Transient() bool`) is retried before the query is skipped.
// Negative disables retries.
func WithRetries(n int) TesterOption {
	return func(c *testerConfig) { c.runner.Robust.Retries = n }
}

// WithRobustness replaces the whole resilience configuration: timeouts,
// retry and restart backoff, and the circuit-breaker threshold.
func WithRobustness(rc RobustnessConfig) TesterOption {
	return func(c *testerConfig) { c.runner.Robust = rc }
}

// WithWorkers sets the worker-pool size of a sharded tester
// (NewShardedTester); 0 selects GOMAXPROCS. The merged Stats are
// identical for every worker count at the same seed — only wall-clock
// time changes. Ignored by NewTester, which always runs one worker:
// its single shared target cannot be driven concurrently.
func WithWorkers(n int) TesterOption {
	return func(c *testerConfig) { c.workers = n }
}

// WithBatch sets the work-unit size: each unit a worker drains is n
// contiguous logical iterations, amortizing per-unit scheduling and
// checkpoint costs (a journal records completed units, so it is also the
// checkpoint granularity). The merged Stats are identical for every
// batch size at the same seed — batching changes scheduling, not
// results. <= 0 (the default) keeps one iteration per unit.
func WithBatch(n int) TesterOption {
	return func(c *testerConfig) { c.batch = n }
}

// WithCheckpoint journals completed work units (see WithBatch) to a
// crash-safe append-only file, flushing a snapshot every `every`
// completed units (<= 0 means every unit). A RunContext canceled
// mid-campaign leaves the journal resumable; see WithResume.
func WithCheckpoint(path string, every int) TesterOption {
	return func(c *testerConfig) { c.ckPath, c.ckEvery = path, every }
}

// WithResume makes Run and RunContext resume the campaign recorded in
// the WithCheckpoint journal: completed units are restored from the journal
// (their stats fold into the returned Stats, but their test cases are
// not re-reported) and only the remaining iterations run — each derives
// its RNG stream from (WithSeed, iteration) alone, so the combined
// outcome is identical to an uninterrupted run. Resume is refused with
// ErrFingerprintMismatch if the tester configuration, iteration count,
// worker count or batch size changed since the journal was written.
func WithResume() TesterOption {
	return func(c *testerConfig) { c.ckResume = true }
}

// ErrFingerprintMismatch is returned by Run and RunContext when
// WithResume finds a journal written under a different configuration.
var ErrFingerprintMismatch = core.ErrFingerprintMismatch

// TargetFactory builds one independent target per shard for a sharded
// tester. Every call must return an independent instance, because shards
// execute concurrently and targets are not goroutine-safe.
type TargetFactory func(shard int) (Target, error)

// NewTester creates a tester for the target. It runs on the same
// executor as NewShardedTester, at one worker, reusing the caller's
// target for every iteration and never closing it.
func NewTester(target Target, opts ...TesterOption) *Tester {
	shared := sharedTarget{textTarget{target}}
	t := newTester(func(int) (core.Target, error) { return shared, nil }, opts)
	t.cfg.workers = 1
	return t
}

// NewShardedTester creates a tester that fans its iterations across a
// worker pool (WithWorkers, default GOMAXPROCS). Each of Run's n
// iterations becomes a logical shard with a seed derived from
// (WithSeed, shard index) and a fresh target from the factory, so the
// merged stats do not depend on the worker count.
func NewShardedTester(factory TargetFactory, opts ...TesterOption) *Tester {
	return newTester(func(shard int) (core.Target, error) {
		t, err := factory(shard)
		if err != nil {
			return nil, err
		}
		return textTarget{t}, nil
	}, opts)
}

func newTester(factory core.TargetFactory, opts []TesterOption) *Tester {
	cfg := testerConfig{runner: core.DefaultRunnerConfig()}
	for _, o := range opts {
		o(&cfg)
	}
	return &Tester{factory: factory, cfg: cfg}
}

// textTarget adapts a Target to the executor's runner, which only
// resets onto sealed snapshots and runs prepared queries. It forwards
// both to the target's own SnapshotTarget and PreparedTarget extensions
// when it has them, and otherwise Resets onto a fresh graph over the
// snapshot and runs the query text through ExecuteCtx. It reports the
// target's own CancelAware answer (false when it has none) and forwards
// Close, so the executor still closes the targets a factory builds.
type textTarget struct{ Target }

func (t textTarget) ExecutePrepared(ctx context.Context, pq *PreparedQuery) (*Result, error) {
	if p, ok := t.Target.(PreparedTarget); ok {
		return p.ExecutePrepared(ctx, pq)
	}
	return t.ExecuteCtx(ctx, pq.Text)
}

func (t textTarget) ResetSnapshot(snap *Snapshot, schema *graph.Schema) error {
	if s, ok := t.Target.(SnapshotTarget); ok {
		return s.ResetSnapshot(snap, schema)
	}
	return t.Reset(graph.FromSnapshot(snap), schema)
}

func (t textTarget) CancelAware() bool {
	ca, ok := t.Target.(CancelAwareTarget)
	return ok && ca.CancelAware()
}

func (t textTarget) Close() error {
	if c, ok := t.Target.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// sharedTarget is NewTester's adapter. Its no-op SeedShard makes the
// executor reuse the caller's one target for every shard (each shard's
// RNG streams live in the runner, which is reseeded per shard), and its
// no-op Close keeps the executor from closing a target the caller owns.
type sharedTarget struct{ textTarget }

func (sharedTarget) SeedShard(int) {}

func (sharedTarget) Close() error { return nil }

// Run performs n full workflow iterations (one generated graph each),
// invoking report for every synthesized test case; it is RunContext
// under a context that is never canceled. Each call is a self-contained
// campaign derived from WithSeed: calling Run twice repeats the same n
// iterations rather than continuing from the first call. report is
// serialized (never called concurrently), but on a sharded tester cases
// from different shards may interleave; use TestCase fields, not call
// order, to correlate.
func (t *Tester) Run(n int, report func(*TestCase)) (Stats, error) {
	return t.RunContext(context.Background(), n, report)
}

// RunContext is Run under a cancelable context. Cancellation stops
// between work units, flushes a final checkpoint (see WithCheckpoint),
// and returns the partial Stats with a nil error; resuming later
// completes the campaign as if it had never been interrupted.
func (t *Tester) RunContext(ctx context.Context, n int, report func(*TestCase)) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var ck *core.Checkpointer
	if t.cfg.ckPath != "" {
		fp := core.CampaignFingerprint("user-target", "", t.cfg.workers, t.cfg.resolvedBatch(), n, t.cfg.runner)
		var err error
		ck, err = core.OpenCheckpoint(core.CheckpointConfig{
			Path: t.cfg.ckPath, Every: t.cfg.ckEvery, Resume: t.cfg.ckResume,
		}, fp)
		if err != nil {
			return Stats{}, err
		}
		defer ck.Close()
	}
	pcfg := core.ParallelConfig{
		Workers: t.cfg.workers, Iterations: n,
		Batch: t.cfg.resolvedBatch(), Runner: t.cfg.runner,
	}
	var observe func(int, core.Target, *core.TestCase)
	if report != nil {
		var mu sync.Mutex
		observe = func(_ int, _ core.Target, tc *core.TestCase) {
			mu.Lock()
			defer mu.Unlock()
			report(tc)
		}
	}
	stats := core.RunCheckpointedParallel(ctx, pcfg, "target", t.factory, observe, ck, core.DurableHooks{}).Stats
	if ck != nil {
		if err := ck.Flush(); err != nil {
			return stats, fmt.Errorf("gqs: checkpoint journal: %w", err)
		}
		ck.ApplyTo(&stats.Robust)
	}
	return stats, nil
}

// Synthesize builds a single ground-truth/query pair over a given graph,
// exposing the synthesizer directly for tooling.
func Synthesize(seed int64, maxNodes, maxRels int) (query string, expected *Result, err error) {
	r := rand.New(rand.NewSource(seed))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: maxNodes, MaxRels: maxRels})
	syn := core.NewSynthesizer(r, g, schema, core.DefaultConfig())
	gt := core.SelectGroundTruth(r, g, 6)
	sq, err := syn.Synthesize(gt)
	if err != nil {
		return "", nil, err
	}
	return sq.Text, sq.Expected, nil
}

// LoadExample loads the Figure 2 movie graph into a database; used by the
// quickstart example and tests.
func LoadExample(db *DB) {
	db.MustExecute(`CREATE
		(alice:USER {name: 'Alice'}),
		(bob:USER {name: 'Bob'}),
		(heat:MOVIE {name: 'Heat', year: 1995, genre: ['Drama', 'Crime']}),
		(up:MOVIE {name: 'Up', year: 2009, genre: ['Animation']}),
		(alice)-[:LIKE {rating: 10}]->(heat),
		(alice)-[:LIKE {rating: 7}]->(up),
		(bob)-[:LIKE {rating: 9}]->(up)`)
}
