package core

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"gqs/internal/engine"
	"gqs/internal/graph"
	"gqs/internal/metrics"
)

// Target is the GDB-connector interface the runner drives (every
// gdb.Connector implements it). The runner seals each generated graph
// into one immutable graph.Snapshot, and every restart of the iteration
// — the initial load, crash recovery, flaky-reset retries — resets the
// target onto it: state restoration between oracle checks is O(1) for
// read-only workloads. It prepares each synthesized query exactly once
// (one feature analysis, one plan compilation) and hands every
// execution, transient-error retries included, the same immutable
// PreparedQuery. Text-only targets are adapted once, at the public gqs
// API.
type Target interface {
	Name() string
	RelUniqueness() bool
	ProvidesDBLabels() bool
	// ResetSnapshot clears the instance and loads the snapshot; each
	// instance overlays its own writes and drops them on the next reset.
	ResetSnapshot(snap *graph.Snapshot, schema *graph.Schema) error
	// ExecutePrepared runs the query under a context that the runner
	// cancels at the per-query deadline. Implementations should abort
	// promptly once the context is canceled (returning
	// engine.ErrCanceled or the in-flight fault's error) and must treat
	// the PreparedQuery as read-only. Each call runs in a watchdog
	// goroutine; one that ignores cancellation past the grace window is
	// abandoned and the target is restarted. A target that declares
	// prompt cancellation (CancelAwareTarget) is instead called on the
	// runner's goroutine, and the runner waits for every call to return.
	ExecutePrepared(ctx context.Context, pq *engine.PreparedQuery) (*engine.Result, error)
}

// CancelAwareTarget is the optional inline-execution extension of
// Target (the gdb connectors implement it). A target whose CancelAware
// reports true promises that every ExecuteCtx and ExecutePrepared call
// returns promptly once its context is canceled. The runner then makes
// each call on its own goroutine under the per-query deadline, instead
// of handing it to a fresh watchdog goroutine. The outcomes are the
// watchdog's: a call that returns more than Grace past its deadline
// has its result discarded and counts as a wedged timeout, and the
// target is restarted. But the runner learns this only when the call
// returns: a cancel-aware call that never returns blocks its worker
// for good, where the watchdog would have abandoned it. Targets
// without the interface, or reporting false, keep the watchdog.
// Reporting through a method lets wrappers forward their inner
// target's answer.
type CancelAwareTarget interface {
	Target
	CancelAware() bool
}

// Verdict classifies one executed test case.
type Verdict int

// Verdicts. VerdictSkip marks cases that are not evidence either way
// (resource-limit aborts, synthesis failures).
const (
	VerdictPass Verdict = iota
	VerdictLogicBug
	VerdictErrorBug // crash / hang / unexpected exception
	VerdictSkip
)

func (v Verdict) String() string {
	switch v {
	case VerdictPass:
		return "pass"
	case VerdictLogicBug:
		return "logic-bug"
	case VerdictErrorBug:
		return "error-bug"
	default:
		return "skip"
	}
}

// TestCase is one synthesized query and its outcome on the target.
type TestCase struct {
	Seq      int
	Query    string
	Steps    int
	Expected *engine.Result
	Actual   *engine.Result
	Err      error
	Verdict  Verdict
	Elapsed  time.Duration
	// Features is the query's feature vector, computed once when the
	// query was prepared (nil only for synthesis failures) — the vector
	// the target's fault triggers evaluated.
	Features *metrics.Features
	// Graph and Schema are the generated database the query ran against;
	// the oracle-replay experiments (§5.4.3) re-execute the query on the
	// same graph through other testers' oracles.
	Graph  *graph.Graph
	Schema *graph.Schema
}

// RunnerConfig configures the testing loop.
type RunnerConfig struct {
	Seed            int64
	Graph           graph.GenConfig
	Synth           Config
	QueriesPerGraph int // ground truths drawn per generated graph
	QueriesPerGT    int // queries synthesized per ground truth
	// Robust bounds the resilience layer: per-query timeouts, transient
	// retries, restart backoff, and the circuit breaker. The zero value
	// selects defaults; see RobustnessConfig.
	Robust RobustnessConfig
}

// DefaultRunnerConfig mirrors §5.1.
func DefaultRunnerConfig() RunnerConfig {
	return RunnerConfig{
		Seed:            1,
		Graph:           graph.DefaultGenConfig(),
		Synth:           DefaultConfig(),
		QueriesPerGraph: 8,
		QueriesPerGT:    2,
	}
}

// Stats aggregates a campaign.
type Stats struct {
	Graphs    int
	Queries   int
	Passes    int
	LogicBugs int
	ErrorBugs int
	Skips     int
	Elapsed   time.Duration
	// Robust counts what the resilience layer absorbed: timeouts,
	// retries, restarts, breaker trips, recovered panics, downtime.
	Robust RobustnessStats
}

// Runner drives the GQS workflow (Figure 3) against one target:
// ① generate a graph, ② select ground truths, ③ synthesize queries,
// ④ validate results, restarting the instance per graph — and keeps the
// campaign alive through hangs, crashes, panics, and flaky connections
// (see robust.go).
type Runner struct {
	cfg    RunnerConfig
	target Target
	// ctx cancels the campaign: iteration loops stop between queries,
	// backoff pauses wake immediately, and in-flight queries inherit it
	// under the per-query deadline. Always non-nil (Background default).
	ctx context.Context
	// cancelAware runs the target's calls inline under their deadline
	// instead of in a watchdog goroutine (see CancelAwareTarget).
	cancelAware bool
	r           *rand.Rand
	seq         int
	stats       Stats

	// Resilience state. jr is a dedicated jitter RNG so backoff draws
	// never perturb the graph/synthesis stream — same seed, same
	// verdict sequence, with or without failures.
	rb           RobustnessConfig
	jr           *rand.Rand
	consecFails  int  // consecutive failed restart sequences (breaker input)
	breakerOpen  bool // circuit breaker state
	abandonGraph bool // set when a mid-graph restart sequence fails
	needRecover  bool // a crash/hang verdict is awaiting a restart
	// curSnap and curSchema are the iteration's sealed graph, the state
	// every restart resets the target to.
	curSnap   *graph.Snapshot
	curSchema *graph.Schema
	// share, when set, dedups the per-iteration seal across executor
	// passes (see SnapshotShare); shareShard is the logical shard slot
	// the next iteration resolves against.
	share      *SnapshotShare
	shareShard int
}

// NewRunner creates a runner for the target.
func NewRunner(target Target, cfg RunnerConfig) *Runner {
	if cfg.QueriesPerGraph <= 0 {
		cfg.QueriesPerGraph = 8
	}
	if cfg.QueriesPerGT <= 0 {
		cfg.QueriesPerGT = 1
	}
	rn := &Runner{
		cfg:    cfg,
		target: target,
		ctx:    context.Background(),
		r:      rand.New(rand.NewSource(cfg.Seed)),
		rb:     cfg.Robust.withDefaults(),
		jr:     rand.New(rand.NewSource(cfg.Seed ^ 0x6a77_3b2c_9d1e_5f48)),
	}
	if ca, ok := target.(CancelAwareTarget); ok {
		rn.cancelAware = ca.CancelAware()
	}
	return rn
}

// NewRunnerCtx creates a runner whose campaign can be canceled: once ctx
// is done, Run stops between iterations, the iteration loops stop
// between queries, backoff waits return immediately, and in-flight
// queries are canceled under their per-query deadline. Cancellation
// never corrupts determinism — a canceled iteration is simply not
// reported as complete by the checkpoint layer.
func NewRunnerCtx(ctx context.Context, target Target, cfg RunnerConfig) *Runner {
	rn := NewRunner(target, cfg)
	if ctx != nil {
		rn.ctx = ctx
	}
	return rn
}

// Reseed rewinds the runner to the state NewRunner would build for the
// given seed, reusing its allocations (RNG sources, config, the
// target's extension bindings). The sharded executor calls it between
// logical shards so one worker-lifetime Runner replaces a fresh
// construction per shard; after Reseed(s) the runner behaves
// byte-identically to NewRunnerCtx(ctx, target, cfg-with-Seed-s).
func (rn *Runner) Reseed(seed int64) {
	rn.cfg.Seed = seed
	rn.r.Seed(seed)
	rn.jr.Seed(seed ^ 0x6a77_3b2c_9d1e_5f48)
	rn.seq = 0
	rn.stats = Stats{}
	rn.consecFails = 0
	rn.breakerOpen = false
	rn.abandonGraph = false
	rn.needRecover = false
	rn.curSnap, rn.curSchema = nil, nil
}

// SetShare installs the campaign-wide snapshot share and the logical
// shard slot the next iteration publishes to / resolves from. A nil
// share restores the private per-iteration seal.
func (rn *Runner) SetShare(share *SnapshotShare, shard int) {
	rn.share = share
	rn.shareShard = shard
}

// Breaker reports the circuit-breaker state: whether it is open and the
// current streak of consecutive failed restart sequences.
func (rn *Runner) Breaker() (open bool, consecutiveFailures int) {
	return rn.breakerOpen, rn.consecFails
}

// Stats returns the campaign statistics so far.
func (rn *Runner) Stats() Stats { return rn.stats }

// RunIteration performs one full workflow iteration: a fresh graph, a
// restarted instance, and a batch of synthesized queries. The report
// callback observes every test case.
//
// A target that cannot be brought up — even through the restart sequence
// — no longer aborts the campaign: the iteration is recorded as failed
// (Stats.Robust.FailedIterations) and the caller moves on to the next
// graph, with the circuit breaker bounding how much effort each dead
// iteration costs.
func (rn *Runner) RunIteration(report func(*TestCase)) {
	start := time.Now()
	defer func() { rn.stats.Elapsed += time.Since(start) }()

	g, schema := graph.Generate(rn.r, rn.cfg.Graph)
	// One immutable snapshot per iteration: every restart below — and,
	// campaign-wide, every other target validating the same graph —
	// shares it instead of copying the graph. Sealing leaves g fully
	// readable for ground-truth selection and synthesis. With a share
	// installed, the seal itself (and the snapshot's cached index build)
	// is dedup'd across the campaign's per-target legs: the generation
	// draws above still advance this runner's RNG stream, but the
	// resulting content-identical graph is swapped for the canonical
	// shared instance.
	g, schema, rn.curSnap = rn.share.resolve(rn.shareShard, g, schema)
	rn.curSchema = schema
	rn.abandonGraph = false
	if !rn.ensureUp() {
		rn.stats.Robust.FailedIterations++
		return
	}
	rn.stats.Graphs++

	// Default the config before applying the target's dialect flags, so
	// that no default can overwrite them.
	synthCfg := rn.cfg.Synth.withDefaults()
	synthCfg.RelUniqueness = rn.target.RelUniqueness()
	synthCfg.ProvidesDBLabels = rn.target.ProvidesDBLabels()
	syn := NewSynthesizer(rn.r, g, schema, synthCfg)

	for q := 0; q < rn.cfg.QueriesPerGraph && !rn.abandonGraph && rn.ctx.Err() == nil; q++ {
		gt := SelectGroundTruth(rn.r, g, rn.cfg.Plan().MaxResultSet)
		for k := 0; k < rn.cfg.QueriesPerGT && !rn.abandonGraph && rn.ctx.Err() == nil; k++ {
			tc := rn.runOne(syn, gt)
			tc.Graph, tc.Schema = g, schema
			if report != nil {
				report(tc)
			}
			// Recover only after the report callback ran: a restart
			// Resets the connector, which would wipe the fault
			// attribution (TriggeredBug) the observer reads.
			if rn.needRecover {
				rn.needRecover = false
				rn.recoverTarget()
			}
		}
	}
	if rn.abandonGraph {
		// The target could not be restarted mid-graph; degrade
		// gracefully and let the next iteration probe again.
		rn.stats.Robust.AbandonedGraphs++
	}
}

// Plan returns the effective plan configuration.
func (c RunnerConfig) Plan() PlanConfig {
	p := c.Synth.Plan
	if p.MaxResultSet == 0 {
		p = DefaultPlanConfig()
	}
	return p
}

func (rn *Runner) runOne(syn *Synthesizer, gt *GroundTruth) *TestCase {
	rn.seq++
	tc := &TestCase{Seq: rn.seq}
	start := time.Now()
	defer func() {
		tc.Elapsed = time.Since(start)
		rn.stats.Queries++
		switch tc.Verdict {
		case VerdictPass:
			rn.stats.Passes++
		case VerdictLogicBug:
			rn.stats.LogicBugs++
		case VerdictErrorBug:
			rn.stats.ErrorBugs++
		default:
			rn.stats.Skips++
		}
	}()

	sq, err := syn.Synthesize(gt)
	if err != nil {
		tc.Err = err
		tc.Verdict = VerdictSkip
		return tc
	}
	tc.Query = sq.Text
	tc.Steps = sq.Steps
	tc.Expected = sq.Expected

	// Prepare once: one feature analysis and one plan compilation, shared
	// by every attempt below and every downstream consumer (fault
	// triggers on the target, feature aggregation in the observers). The
	// synthesizer built the AST and printed sq.Text from it, so the
	// prepared query takes that AST over directly — no parse at all.
	pq := engine.PrepareAST(sq.Query, sq.Text)
	tc.Features = pq.Features

	// Execute through the watchdog, retrying transient connector errors
	// with jittered backoff. A flaky connection must never inflate bug
	// counts: retries are not verdicts, and exhausting them is a skip.
	var out execOutcome
	for attempt := 0; ; attempt++ {
		out = rn.executeGuarded(pq)
		if !isTransient(out.err) {
			break
		}
		rn.stats.Robust.TransientErrors++
		if attempt >= rn.rb.Retries {
			rn.stats.Robust.TransientGiveUps++
			tc.Err = out.err
			tc.Verdict = VerdictSkip
			return tc
		}
		rn.stats.Robust.Retries++
		rn.pause(rn.jitter(rn.rb.RetryBackoff << attempt))
	}

	switch {
	case out.panicked:
		// A crashed server manifests as a panic in the connector;
		// isolate it, report the crash, and restart the instance.
		rn.stats.Robust.PanicsRecovered++
		tc.Err = out.err
		tc.Verdict = VerdictErrorBug
		rn.needRecover = true
	case out.timedOut:
		rn.stats.Robust.Timeouts++
		tc.Err = out.err
		if hasBugID(out.err) {
			// A triggered fault hung the query: the paper's hang class
			// of error-bugs (§5.4.4).
			tc.Verdict = VerdictErrorBug
			rn.needRecover = true
		} else {
			// Benign timeout: not evidence either way, like the
			// paper's per-query timeouts. A wedged connector (ignored
			// cancellation) still forces a restart.
			tc.Verdict = VerdictSkip
			if out.wedged {
				rn.needRecover = true
			}
		}
	case out.err != nil:
		tc.Err = out.err
		tc.Verdict = classifyError(out.err)
		if k := faultKind(out.err); k == "crash" || k == "hang" {
			// Simulated crash/hang errors still model a dead or stuck
			// instance: run the same restart sequence the live modes do.
			rn.needRecover = true
		}
	default:
		tc.Actual = out.res
		if sq.Expected.Equal(out.res) {
			tc.Verdict = VerdictPass
		} else {
			tc.Verdict = VerdictLogicBug
		}
	}
	return tc
}

// classifyError separates true error-bugs (crashes, hangs, unexpected
// exceptions) from outcomes that are not evidence of a bug: resource
// limit aborts and cancellations are skipped as the paper's timeouts
// are, and transient connector errors (flaky connections, post-retry)
// must never count as bugs.
func classifyError(err error) Verdict {
	var lim *engine.ErrResourceLimit
	if errors.As(err, &lim) {
		return VerdictSkip
	}
	if errors.Is(err, engine.ErrCanceled) {
		return VerdictSkip
	}
	if isTransient(err) {
		return VerdictSkip
	}
	return VerdictErrorBug
}

// Run executes n workflow iterations. Failed iterations (target down
// past the restart sequence) are recorded in Stats.Robust and do not
// abort the campaign.
func (rn *Runner) Run(n int, report func(*TestCase)) Stats {
	for i := 0; i < n; i++ {
		if rn.ctx.Err() != nil {
			break
		}
		rn.RunIteration(report)
	}
	return rn.stats
}
