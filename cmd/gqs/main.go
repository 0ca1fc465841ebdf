// Command gqs is the GQS testing tool: it fuzzes a (simulated) graph
// database with ground-truth-synthesized Cypher queries and reports every
// discrepancy, reproducing the workflow of Figure 3 of the paper.
//
// Usage:
//
//	gqs -gdb falkordb -iterations 50 -seed 7
//	gqs -gdb all -iterations 30 -v
//	gqs -gdb memgraph -live -flaky 0.1 -timeout 5s -retries 3
//	gqs -gdb all -checkpoint run.journal -checkpoint-every 5   # durable
//	gqs -gdb all -checkpoint run.journal -resume               # after a kill
//
// The command runs the experiments package's campaign and prints it as
// it merges: each GDB's detections in canonical shard order, then the
// GDB's summary. With -checkpoint the campaign journals completed work
// units to a crash-safe file; SIGINT/SIGTERM drain in-flight work, write
// a final checkpoint, and exit 0, and -resume restores everything
// already completed and runs only the rest — printing the lines an
// uninterrupted run would have printed (under -v, restored units print
// only their non-verbose lines).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"gqs/internal/core"
	"gqs/internal/experiments"
	"gqs/internal/gdb"
	"gqs/internal/metrics"
)

// options is the parsed command line: the campaign, and how this
// command prints and journals it.
type options struct {
	cfg        experiments.CampaignConfig
	verbose    bool
	reportDir  string
	checkpoint string
	ckEvery    int
	resume     bool
}

// parseArgs maps the command line onto options; the flag package reports
// parse errors on stderr. -gdb all leaves cfg.GDBs nil, the campaign's
// four simulated GDBs.
func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("gqs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{cfg: experiments.CampaignConfig{Synth: core.DefaultConfig(), QueriesPerGraph: 8}}
	cfg := &o.cfg
	gdbName := fs.String("gdb", "all", "GDB under test: neo4j, memgraph, kuzu, falkordb, reference, or all")
	fs.Int64Var(&cfg.Seed, "seed", 1, "random seed (campaigns are deterministic per seed)")
	fs.IntVar(&cfg.Iterations, "iterations", 30, "workflow iterations (one generated graph each)")
	fs.IntVar(&cfg.Graph.MaxNodes, "max-nodes", 13, "maximum nodes per generated graph")
	fs.IntVar(&cfg.Graph.MaxRels, "max-rels", 60, "maximum relationships per generated graph")
	fs.IntVar(&cfg.Synth.MaxSteps, "max-steps", 9, "maximum synthesis steps per query")
	fs.IntVar(&cfg.Synth.Plan.MaxResultSet, "max-result-set", 6, "maximum expected-result-set size")
	fs.IntVar(&cfg.Graph.Scale, "graph-scale", 0, "bulk-generate power-law graphs of exactly this many nodes (0 = the paper's small-graph generator); large graphs pair well with low -iterations")
	fs.BoolVar(&o.verbose, "v", false, "print every failing query")
	fs.StringVar(&o.reportDir, "reports", "", "directory to write reproducible bug reports into (one .md per distinct bug)")
	fs.DurationVar(&cfg.Robust.Timeout, "timeout", 20*time.Second, "per-query wall-clock deadline (negative, e.g. -1s, disables it; 0 is refused)")
	fs.IntVar(&cfg.Robust.Retries, "retries", 2, "retries for transient connector errors (-1 disables them; 0 is refused)")
	fs.Float64Var(&cfg.FlakyRate, "flaky", 0, "inject transient connector errors at this rate (0..1) to exercise the retry machinery")
	fs.BoolVar(&cfg.Live, "live", false, "manifest injected faults live: hangs block until the deadline, crashes panic in the connector")
	fs.IntVar(&cfg.Workers, "workers", runtime.GOMAXPROCS(0), "worker-pool size; the reported bug set is identical for every value at the same seed (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.Batch, "batch", 0, "iterations per work unit (0 = automatic, ~4 units per worker); the reported bug set is identical for every value")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "journal completed work units to this file for crash-safe resume")
	fs.IntVar(&o.ckEvery, "checkpoint-every", 10, "append a checkpoint record every N completed work units")
	fs.BoolVar(&o.resume, "resume", false, "resume the campaign recorded in -checkpoint (refused if the configuration changed)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if *gdbName != "all" {
		cfg.GDBs = []string{*gdbName}
	}
	cfg.Reports = o.reportDir != ""
	return o, nil
}

// validate rejects option values no campaign can run with, or that
// would silently test nothing or mean something other than they say;
// run reports them like a flag parse error (message on stderr, exit
// code 2) before it opens any journal.
func validate(o options) error {
	cfg := o.cfg
	for _, f := range []struct {
		name string
		v    int
		min  int
	}{
		{"iterations", cfg.Iterations, 0}, {"workers", cfg.Workers, 0}, {"batch", cfg.Batch, 0},
		{"graph-scale", cfg.Graph.Scale, 0}, {"checkpoint-every", o.ckEvery, 0},
		{"max-nodes", cfg.Graph.MaxNodes, 1}, {"max-rels", cfg.Graph.MaxRels, 1},
		{"max-steps", cfg.Synth.MaxSteps, 1}, {"max-result-set", cfg.Synth.Plan.MaxResultSet, 1},
	} {
		switch {
		case f.v >= f.min:
		case f.min == 0:
			return fmt.Errorf("invalid value %d for flag -%s: must not be negative", f.v, f.name)
		default:
			return fmt.Errorf("invalid value %d for flag -%s: must be at least %d", f.v, f.name, f.min)
		}
	}
	if cfg.FlakyRate < 0 || cfg.FlakyRate > 1 {
		return fmt.Errorf("invalid value %v for flag -flaky: must be between 0 and 1", cfg.FlakyRate)
	}
	// The runner reads a zero as "use the default", which is not what
	// the command line says.
	if cfg.Robust.Timeout == 0 {
		return fmt.Errorf("invalid value 0 for flag -timeout: would mean the 20s default; use -timeout -1s to disable the deadline")
	}
	if cfg.Robust.Retries == 0 {
		return fmt.Errorf("invalid value 0 for flag -retries: would mean the default of 2; use -retries -1 to disable retries")
	}
	for _, name := range cfg.GDBs {
		if _, err := gdb.ByName(name); err != nil {
			return fmt.Errorf("invalid value %q for flag -gdb: must be neo4j, memgraph, kuzu, falkordb, reference or all", name)
		}
	}
	if o.resume && o.checkpoint == "" {
		return errors.New("invalid flag -resume: requires -checkpoint")
	}
	return nil
}

func main() {
	// SIGINT/SIGTERM cancel the campaign context: the executor drains
	// in-flight work and stops between units, and run flushes the final
	// checkpoint. stop restores the default handlers once run is past
	// that graceful window.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the command: it parses args, runs the campaign under ctx and
// prints it, and returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err == nil {
		if err = validate(o); err != nil {
			fmt.Fprintf(stderr, "gqs: %v\n", err)
		}
	}
	if err != nil {
		return 2
	}
	if o.cfg.Workers == 0 {
		o.cfg.Workers = runtime.GOMAXPROCS(0) // the flag's default, spelled out
	}
	if o.reportDir != "" {
		if err := os.MkdirAll(o.reportDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "gqs: %v\n", err)
			return 1
		}
	}

	var ck *core.Checkpointer
	if o.checkpoint != "" {
		// The journal is bound to experiments.CampaignFingerprint: the
		// output options (-v, -reports) are not part of it.
		ck, err = core.OpenCheckpoint(core.CheckpointConfig{
			Path: o.checkpoint, Every: o.ckEvery, Resume: o.resume,
		}, experiments.CampaignFingerprint(o.cfg))
		if err != nil {
			fmt.Fprintf(stderr, "gqs: %v\n", err)
			return 1
		}
		if n := ck.Stats().ResumedUnits; n > 0 {
			fmt.Fprintf(stdout, "resuming from %s: %d completed units restored\n", o.checkpoint, n)
		}
	}

	p := &printer{w: stdout, stderr: stderr, o: o, ck: ck}
	c := experiments.RunCampaign(ctx, o.cfg, ck, &experiments.Monitor{
		AllCases: o.verbose, LegStart: p.legStart, Detection: p.detection, LegDone: p.legDone,
	})
	exit := 0
	if c.UndecodedUnits > 0 {
		fmt.Fprintf(stderr, "gqs: %d restored work units have journal payloads that do not decode; their detections are missing from this report\n", c.UndecodedUnits)
		exit = 1
	}
	if ck != nil {
		if err := ck.Flush(); err != nil {
			fmt.Fprintf(stderr, "gqs: checkpoint journal degraded (campaign results unaffected): %v\n", err)
			exit = 1
		}
		cs := ck.Stats()
		fmt.Fprintf(stdout, "checkpoint: %d records journaled (%d bytes) to %s\n", cs.Written, cs.Bytes, o.checkpoint)
		ck.Close()
	}
	if ctx.Err() != nil {
		if ck == nil {
			fmt.Fprintln(stderr, "gqs: interrupted")
			return 130
		}
		fmt.Fprintf(stdout, "interrupted: progress checkpointed; rerun with -resume -checkpoint %s to continue\n", o.checkpoint)
	}
	return exit
}

// printer renders the campaign as the experiments merge hands it over:
// each GDB's header, its detections in canonical shard order — the
// first detection of each bug, every unattributed one, and under -v
// every failing case of the units that ran — and its summary.
type printer struct {
	w, stderr io.Writer
	o         options
	ck        *core.Checkpointer
	distinct  int // bugs first detected in the current leg
	ckBefore  int // checkpoint records written before the current leg
}

func (p *printer) legStart(name string) {
	cfg := p.o.cfg
	fmt.Fprintf(p.w, "=== testing %s (seed %d, %d iterations, %d workers, batch %d) ===\n",
		name, cfg.Seed, cfg.Iterations, cfg.Workers, cfg.ResolvedBatch())
	p.distinct, p.ckBefore = 0, p.ck.Stats().Written
}

func (p *printer) detection(d experiments.Detection) {
	verbose := p.o.verbose && !d.Restored
	tag := "UNATTRIBUTED"
	if d.Bug != nil {
		tag = d.Bug.ID
		switch {
		case d.Fresh:
			p.distinct++
			p.writeReport(d)
		case !verbose:
			return
		}
	}
	tc := d.Case
	fmt.Fprintf(p.w, "[%s] %s (shard %d, query #%d, %d steps)\n", tc.Verdict, tag, d.Shard, tc.Seq, tc.Steps)
	if d.Bug != nil {
		fmt.Fprintf(p.w, "  %s\n", d.Bug.Description)
	}
	if !verbose {
		return
	}
	fmt.Fprintf(p.w, "  query: %s\n", tc.Query)
	if tc.Verdict == core.VerdictLogicBug {
		fmt.Fprintf(p.w, "  expected: %v\n  actual:   %v\n", tc.Expected.Canonical(), tc.Actual.Canonical())
	} else {
		fmt.Fprintf(p.w, "  error: %v\n", tc.Err)
	}
}

// writeReport writes a bug's report file on its first detection.
func (p *printer) writeReport(d experiments.Detection) {
	if d.Report == "" {
		return
	}
	path := filepath.Join(p.o.reportDir, d.GDB+"-"+d.Bug.ID+".md")
	if err := os.WriteFile(path, []byte(d.Report), 0o644); err != nil {
		fmt.Fprintf(p.stderr, "gqs: write report: %v\n", err)
	}
}

// legDone prints a GDB's closing lines from its executor stats.
func (p *printer) legDone(name string, ps *core.ParallelStats) {
	s := ps.Stats
	fmt.Fprintf(p.w, "%s: %d queries, %d passed, %d logic-bug reports, %d error reports, %d skipped; %d distinct bugs; %.1fs\n",
		name, s.Queries, s.Passes, s.LogicBugs, s.ErrorBugs, s.Skips, p.distinct, s.Elapsed.Seconds())
	// Restored iterations get their own line; blank them before the
	// zero-comparison so a clean resumed run doesn't print an all-zero
	// resilience line.
	rb := s.Robust
	restored := rb.RestoredIterations
	rb.RestoredIterations = 0
	if rb != (core.RobustnessStats{}) {
		fmt.Fprintf(p.w, "%s: resilience: %d timeouts, %d retries (%d transient, %d give-ups), %d panics recovered, %d restarts (%d failed), %d breaker trips, %d abandoned graphs, %v downtime\n",
			name, rb.Timeouts, rb.Retries, rb.TransientErrors, rb.TransientGiveUps,
			rb.PanicsRecovered, rb.Restarts, rb.RestartFailures, rb.BreakerTrips,
			rb.AbandonedGraphs, rb.Downtime.Round(time.Millisecond))
	}
	if restored > 0 {
		fmt.Fprintf(p.w, "%s: checkpoint: %d iterations restored on resume\n", name, restored)
	}
	// Only iterations that ran count toward live throughput; restored
	// units were another run's work.
	tp := metrics.Throughput{
		Iterations: int64(ps.Ran), Queries: int64(ps.RanQueries), Bugs: int64(p.distinct),
		Checkpoints: int64(p.ck.Stats().Written - p.ckBefore), Elapsed: ps.Wall,
	}
	fmt.Fprintf(p.w, "%s: throughput: %s; %d workers, %.2fx parallelism\n", name, tp, ps.Workers, ps.Parallelism())
}
