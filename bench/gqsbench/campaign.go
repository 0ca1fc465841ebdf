package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gqs/internal/core"
	"gqs/internal/experiments"
	"gqs/internal/gdb"
)

// campaignSizes sizes the two campaign workloads.
type campaignSizes struct {
	chunk    int // iterations per GDB of one timed campaign
	warm     int // iterations per GDB of one set-up campaign
	every    int // checkpoint flush interval in work units (durable)
	fnvIters int // iterations of the seed-1 FNV check; 0 skips it
	refIters int // iterations of the reference false-alarm check
}

func campaignSizesFor(tiny bool) campaignSizes {
	if tiny {
		return campaignSizes{chunk: 3, warm: 1, every: 2, refIters: 3}
	}
	return campaignSizes{chunk: 100, warm: 4, every: 10, fnvIters: 20, refIters: 200}
}

// Pinned outcome of DefaultCampaignConfig at seed 1, 20 iterations: the
// bug-report digest the campaign has reproduced since the durable
// journal landed.
const (
	pinnedFNV      = "0bae9bd11b8716ef"
	pinnedFindings = 35
)

// chunkResult is one timed campaign of the window.
type chunkResult struct {
	cfg     experiments.CampaignConfig
	run     *campaignRun
	journal core.CheckpointStats
	path    string
}

// runCampaignWorkload runs `campaign` (one worker, plain) or
// `campaign-durable-2w` (two workers, checkpoint journal). The window is
// a sequence of campaigns of sz.chunk iterations per GDB, each at a seed
// derived from --seed and its position, run until the window is spent.
func runCampaignWorkload(o Options, durable bool) (*Result, error) {
	sz := campaignSizesFor(o.Tiny)
	workers := 1
	if durable {
		workers = 2
	}
	mkcfg := func(seed int64, iters int) experiments.CampaignConfig {
		cfg := experiments.DefaultCampaignConfig()
		cfg.Seed, cfg.Iterations, cfg.Workers = seed, iters, workers
		return cfg
	}
	journals := 0
	openCk := func(cfg experiments.CampaignConfig) (*core.Checkpointer, string, error) {
		if !durable {
			return nil, "", nil
		}
		journals++
		path := filepath.Join(o.WorkDir, fmt.Sprintf("campaign-%d.journal", journals))
		ck, err := core.OpenCheckpoint(core.CheckpointConfig{Path: path, Every: sz.every}, experiments.CampaignFingerprint(cfg))
		return ck, path, err
	}
	// runChunk runs one campaign, journaled when durable; the journal file
	// is removed unless keep is set.
	runChunk := func(cfg experiments.CampaignConfig, tr *Tracer, parent int, keep bool) (chunkResult, error) {
		ck, path, err := openCk(cfg)
		if err != nil {
			return chunkResult{}, err
		}
		run := driveCampaign(cfg, ck, tr, parent)
		js := ck.Stats()
		if err := ck.Close(); err != nil {
			return chunkResult{}, fmt.Errorf("close journal: %w", err)
		}
		if path != "" && !keep {
			if err := os.Remove(path); err != nil {
				return chunkResult{}, err
			}
		}
		return chunkResult{cfg: cfg, run: run, journal: js, path: path}, nil
	}

	res := newResult()
	warmRep := 0
	_, setup, err := timeSetup(setupReps, func() (struct{}, error) {
		warmRep++
		// The set-up campaigns do not depend on --seed, so set-up time
		// measures the same work in every run.
		c, err := runChunk(mkcfg(core.ShardSeed(0, -warmRep), sz.warm), nil, -1, false)
		if err == nil && c.run.failed > 0 {
			err = fmt.Errorf("set-up campaign: %d failed iterations", c.run.failed)
		}
		return struct{}{}, err
	})
	if err != nil {
		return nil, err
	}
	res.Set("setup_s", setup)

	var tr *Tracer
	if o.Trace {
		tr = NewTracer()
	}
	var chunks []chunkResult
	rt0 := readRuntime()
	start := time.Now()
	for c := 0; c == 0 || time.Since(start) < o.Window; c++ {
		t0 := time.Now()
		root := -1
		if tr != nil {
			root = tr.Add("bench.chunk", t0, t0, -1, c)
		}
		// The first campaign's journal stays for the resume check.
		ch, err := runChunk(mkcfg(core.ShardSeed(o.Seed, c), sz.chunk), tr, root, c == 0)
		if err != nil {
			return nil, err
		}
		tr.SetEnd(root, time.Now())
		chunks = append(chunks, ch)
	}
	wall := time.Since(start)
	rt := rt0.to(readRuntime())

	// An op is one test case; an iteration that never came up counts as
	// one failed op.
	var lat []time.Duration
	iterations := 0
	for _, ch := range chunks {
		iterations += ch.run.ran
		res.Failed += ch.run.failed
		lat = append(lat, ch.run.lat...)
	}
	res.Attempted = len(lat) + res.Failed
	res.Check("no_failed_iterations", res.Failed == 0,
		fmt.Sprintf("%d of %d GDB-iterations failed", res.Failed, iterations))
	res.Note("window: %d campaigns of %d iterations x 4 GDBs, %d workers, %.2fs, %.1f GDB-iterations/s",
		len(chunks), sz.chunk, workers, wall.Seconds(), float64(iterations)/wall.Seconds())

	if !o.Trace {
		setOpMetrics(res, wall, lat, rt)
	} else if err := traceCampaignMetrics(res, chunks, tr, wall, runChunk, o.SpansPath); err != nil {
		return nil, err
	}

	if err := campaignChecks(res, chunks[0], durable, sz, o.Seed, mkcfg, openCk); err != nil {
		return nil, err
	}
	return res, nil
}

// setOpMetrics sets the end-to-end metrics every workload shares from
// the latencies of the ops a window of the given length completed.
func setOpMetrics(res *Result, wall time.Duration, lat []time.Duration, rt runtimeDelta) {
	us := micros(lat)
	p50, _ := Percentile(us, 50, 0)
	p99, ok := Percentile(us, 99, 10)
	if !ok {
		res.Note("op_us_p99: fewer than 10 of %d samples lie beyond it", len(us))
	}
	res.Set("ops_per_s", float64(len(lat))/wall.Seconds())
	res.Set("op_us_p50", p50)
	res.Set("op_us_p99", p99)
	res.Set("allocs_per_op", rt.allocs/float64(len(lat)))
	res.Set("max_rss_mb", maxRSSMB())
}

// traceCampaignMetrics reruns the traced window's campaigns untraced —
// for the tracing overhead, the runtime counters, and the check that
// tracing changed no outcome — and re-derives their test cases to time
// synthesis and compilation. It sets every per-layer metric a campaign
// exercises and writes the spans.
func traceCampaignMetrics(res *Result, chunks []chunkResult, tr *Tracer, tracedWall time.Duration,
	runChunk func(experiments.CampaignConfig, *Tracer, int, bool) (chunkResult, error), spansPath string) error {
	var plainWall time.Duration
	var journal core.CheckpointStats
	var ops, queries, skips int
	var busy, parallelWall, verdict time.Duration
	var execErrs int64
	sameCounts, sameReports := true, true
	rt0 := readRuntime()
	for _, ch := range chunks {
		t0 := time.Now()
		plain, err := runChunk(ch.cfg, nil, -1, false)
		if err != nil {
			return err
		}
		plainWall += time.Since(t0)
		journal.Written += plain.journal.Written
		journal.Bytes += plain.journal.Bytes
		journal.WriteTime += plain.journal.WriteTime
		for name, s := range ch.run.perGDB {
			p := plain.run.perGDB[name]
			if s.Graphs != p.Graphs || s.Queries != p.Queries || s.Passes != p.Passes ||
				s.LogicBugs != p.LogicBugs || s.ErrorBugs != p.ErrorBugs || s.Skips != p.Skips {
				sameCounts = false
			}
		}
		if ch.run.camp.CanonicalBugReport() != plain.run.camp.CanonicalBugReport() {
			sameReports = false
		}
		ops += len(ch.run.lat)
		queries += ch.run.camp.Queries
		skips += ch.run.camp.Skips
		verdict += ch.run.verdict
		execErrs += ch.run.execErrs
		parallelWall += ch.run.parallelWall
		busy += ch.run.busy
	}
	rt := rt0.to(readRuntime())
	res.Check("traced_counts_match_untraced", sameCounts, "per-GDB queries, graphs and verdict tallies")
	res.Check("traced_report_matches_untraced", sameReports, "canonical bug reports, bug IDs included")

	var rs resynthStats
	for c, ch := range chunks {
		t0 := time.Now()
		root := tr.Add("bench.resynth", t0, t0, -1, c)
		resynthesize(ch.cfg, ch.run.cases, tr, root, &rs)
		tr.SetEnd(root, time.Now())
	}
	res.Check("resynthesis_matches_campaign", rs.mismatches == 0,
		strings.TrimSpace(fmt.Sprintf("%d of %d test cases differ %s", rs.mismatches, rs.attempts, rs.firstMismatch)))

	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	synth, prep := tr.Total("core.synth"), tr.Total("engine.prepare")
	res.Set("graph.generate_us_per_iteration", ratio(us(tr.Total("graph.generate")), float64(rs.gdbIterations)))
	res.Set("graph.seal_us_per_iteration", ratio(us(tr.Total("graph.seal")), float64(rs.gdbIterations)))
	res.Set("core.ground_truth.us_per_query", ratio(us(tr.Total("core.ground_truth")), float64(rs.attempts)))
	res.Set("core.synth.us_per_query", ratio(us(synth), float64(rs.attempts)))
	p99, _ := Percentile(micros(tr.Durations("core.synth")), 99, 10)
	res.Set("core.synth.us_p99", p99)
	res.Set("core.synth.share", ratio(float64(synth), float64(busy)))
	res.Set("core.synth.steps_per_query", ratio(float64(rs.steps), float64(rs.attempts-rs.failures)))
	res.Set("core.synth.failures_per_attempt", ratio(float64(rs.failures), float64(rs.attempts)))
	res.Set("engine.prepare.us_per_query", ratio(us(prep), float64(rs.prepared)))
	res.Set("engine.prepare.share", ratio(float64(prep), float64(busy)))
	res.Set("engine.prepare.planned_ratio", ratio(float64(rs.planned), float64(rs.prepared)))
	setExecMetrics(res, tr, float64(busy), float64(ops), execErrs)
	resets := tr.Durations("gdb.reset")
	res.Set("gdb.reset.us_per_call", ratio(us(tr.Total("gdb.reset")), float64(len(resets))))
	res.Set("gdb.reset.calls_per_op", ratio(float64(len(resets)), float64(ops)))
	var querySelf time.Duration
	for _, d := range tr.SelfTimes("core.query") {
		querySelf += d
	}
	res.Set("core.runner.self_us_per_query", ratio(us(querySelf-synth-prep-verdict), float64(ops)))
	res.Set("core.verdict.us_per_query", ratio(us(verdict), float64(ops)))
	res.Set("core.runner.skip_ratio", ratio(float64(skips), float64(queries)))
	parallelism := ratio(float64(busy), float64(parallelWall))
	res.Set("core.shard.parallelism", parallelism)
	res.Set("core.shard.idle_ratio", 1-parallelism/float64(chunks[0].cfg.Workers))
	mb := float64(journal.Bytes) / (1 << 20)
	res.Set("journal.write_s", journal.WriteTime.Seconds())
	res.Set("journal.share", ratio(journal.WriteTime.Seconds(), plainWall.Seconds()))
	res.Set("journal.checkpoints", float64(journal.Written))
	res.Set("journal.mb_per_checkpoint", ratio(mb, float64(journal.Written)))
	res.Set("journal.mb", mb)
	res.Set("runtime.gc_cpu_share", rt.gcCPUShare)
	res.Set("runtime.alloc_mb_per_op", rt.allocBytes/(1<<20)/float64(ops))
	res.Set("bench.trace_overhead", tracedWall.Seconds()/plainWall.Seconds()-1)
	return tr.WriteFile(spansPath)
}

// setExecMetrics sets the engine.exec metrics from the execute spans;
// busy is the time the shares are taken of, queries the number of
// queries the spans served.
func setExecMetrics(res *Result, tr *Tracer, busy, queries float64, execErrs int64) {
	execs := micros(tr.Durations("engine.exec"))
	p50, _ := Percentile(execs, 50, 0)
	p99, _ := Percentile(execs, 99, 10)
	res.Set("engine.exec.us_p50", p50)
	res.Set("engine.exec.us_p99", p99)
	if busy > 0 {
		res.Set("engine.exec.share", float64(tr.Total("engine.exec"))/busy)
	}
	if queries > 0 {
		res.Set("engine.exec.calls_per_query", float64(len(execs))/queries)
	}
	if len(execs) > 0 {
		res.Set("engine.exec.error_ratio", float64(execErrs)/float64(len(execs)))
	}
}

// campaignChecks runs the correctness checks of the campaign workloads
// after the window: the harness against experiments.RunGQSCampaign, the
// pinned seed-1 digest, zero false alarms on the reference GDB, and, for
// the durable workload, worker invariance and resume from the window's
// first journal.
func campaignChecks(res *Result, first chunkResult, durable bool, sz campaignSizes, seed int64,
	mkcfg func(int64, int) experiments.CampaignConfig,
	openCk func(experiments.CampaignConfig) (*core.Checkpointer, string, error)) error {
	plainCfg := first.cfg
	plainCfg.Workers = 1
	plain := experiments.RunGQSCampaign(plainCfg).CanonicalBugReport()
	res.Check("harness_matches_RunGQSCampaign", first.run.camp.CanonicalBugReport() == plain,
		fmt.Sprintf("%d workers vs RunGQSCampaign at 1 worker, %d findings", first.cfg.Workers, len(first.run.camp.Findings)))

	if durable {
		ck, _, err := openCk(first.cfg)
		if err != nil {
			return err
		}
		durableRun := experiments.RunGQSCampaignDurable(context.Background(), first.cfg, ck)
		if err := ck.Close(); err != nil {
			return fmt.Errorf("close journal: %w", err)
		}
		res.Check("durable_matches_plain", durableRun.CanonicalBugReport() == plain,
			"RunGQSCampaignDurable at 2 workers vs RunGQSCampaign at 1 worker")

		ck, err = core.OpenCheckpoint(core.CheckpointConfig{Path: first.path, Every: sz.every, Resume: true},
			experiments.CampaignFingerprint(first.cfg))
		if err != nil {
			return err
		}
		resumed := experiments.RunGQSCampaignDurable(context.Background(), first.cfg, ck)
		restored := ck.Stats().ResumedUnits
		if err := ck.Close(); err != nil {
			return fmt.Errorf("close journal: %w", err)
		}
		res.Check("resume_matches_plain",
			resumed.CanonicalBugReport() == plain && resumed.Throughput.Iterations == 0 && restored > 0,
			fmt.Sprintf("window journal resumed through RunGQSCampaignDurable: %d units restored, %d iterations rerun",
				restored, resumed.Throughput.Iterations))
		return nil
	}

	if sz.fnvIters > 0 {
		cfg := experiments.DefaultCampaignConfig()
		cfg.Seed, cfg.Iterations, cfg.Workers = 1, sz.fnvIters, 1
		c := experiments.RunGQSCampaign(cfg)
		h := fnv.New64a()
		h.Write([]byte(c.CanonicalBugReport()))
		digest := fmt.Sprintf("%016x", h.Sum64())
		res.Check("pinned_fnv", digest == pinnedFNV && len(c.Findings) == pinnedFindings,
			fmt.Sprintf("seed 1, %d iterations: FNV %s with %d findings (want %s with %d)",
				sz.fnvIters, digest, len(c.Findings), pinnedFNV, pinnedFindings))
	}

	cfg := mkcfg(seed, sz.refIters)
	connect := gdb.NewFactory(gdb.FactoryConfig{GDB: "reference", Seed: cfg.Seed})
	ps := core.RunParallel(core.ParallelConfig{
		Workers: cfg.Workers, Iterations: cfg.Iterations, Batch: cfg.ResolvedBatch(), Runner: runnerConfig(cfg),
	}, func(shard int) (core.Target, error) { return connect(shard) }, nil)
	res.Check("reference_no_false_alarms", ps.LogicBugs+ps.ErrorBugs == 0 && ps.Queries > 0,
		fmt.Sprintf("%d iterations, %d queries: %d logic-bug and %d error-bug verdicts",
			cfg.Iterations, ps.Queries, ps.LogicBugs, ps.ErrorBugs))
	return nil
}
