package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"gqs/internal/engine"
	"gqs/internal/gdb"
	"gqs/internal/graph"
)

// largeGraphSizes sizes the large-graph workload.
type largeGraphSizes struct {
	nodes, rels int
	hubs        int // how many top-degree nodes the hub expansions draw from
	resetEvery  int // ops between snapshot resets, which drop the writes
	diffOps     int // ops replayed on the scan engine for the index ≡ scan check
}

func largeGraphSizesFor(tiny bool) largeGraphSizes {
	if tiny {
		return largeGraphSizes{nodes: 2_000, rels: 8_000, hubs: 8, resetEvery: 64, diffOps: 200}
	}
	return largeGraphSizes{nodes: 100_000, rels: 400_000, hubs: 64, resetEvery: 64, diffOps: 5_000}
}

// Operation kinds of the large-graph mix.
const (
	opHop1 = iota
	opHop2
	opHop3
	opHub
	opWrite
	numOpKinds
)

var opKindNames = [numOpKinds]string{"hop1", "hop2", "hop3", "hub", "write"}

// largeGraph is the workload's input: the bulk-loaded graph, its
// indexes, and what the operation generator draws from.
type largeGraph struct {
	snap   *graph.Snapshot
	schema *graph.Schema
	hubs   []graph.ID
	rare   string
	// phase times of this build, for the per-layer metrics.
	gen, seal, propIndex, adjIndex time.Duration
}

// buildLargeGraph bulk-generates the power-law graph, seals it, and
// builds its property and adjacency indexes.
func buildLargeGraph(seed int64, sz largeGraphSizes) (*largeGraph, error) {
	lg := &largeGraph{}
	t0 := time.Now()
	g, schema := graph.Generate(rand.New(rand.NewSource(seed)), graph.GenConfig{Scale: sz.nodes, MaxRels: sz.rels})
	t1 := time.Now()
	snap := g.Seal()
	t2 := time.Now()
	snap.Index(schema)
	t3 := time.Now()
	snap.AdjIndex()
	t4 := time.Now()
	lg.gen, lg.seal, lg.propIndex, lg.adjIndex = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	lg.snap, lg.schema = snap, schema

	type hub struct {
		id  graph.ID
		deg int
	}
	var hubs []hub
	for _, id := range snap.NodeIDs() {
		if d := len(g.Out(id)) + len(g.In(id)); d > 0 {
			hubs = append(hubs, hub{id, d})
		}
	}
	sort.Slice(hubs, func(i, j int) bool {
		if hubs[i].deg != hubs[j].deg {
			return hubs[i].deg > hubs[j].deg
		}
		return hubs[i].id < hubs[j].id
	})
	if len(hubs) > sz.hubs {
		hubs = hubs[:sz.hubs]
	}
	for _, h := range hubs {
		lg.hubs = append(lg.hubs, h.id)
	}
	if len(lg.hubs) == 0 || len(schema.RelTypes) < 2 {
		return nil, fmt.Errorf("large graph at seed %d has no hubs", seed)
	}
	lg.rare = schema.RelTypes[len(schema.RelTypes)-1]
	return lg, nil
}

// anchor renders a node pattern that the k0 property index resolves.
func (lg *largeGraph) anchor(v string, id graph.ID) string {
	return fmt.Sprintf("(%s:%s {k0: %d})", v, lg.snap.Node(id).Labels[0], id)
}

// nextOp draws one operation: 70% anchored 1–3-hop T1 chains (T1 is
// the second-commonest type under the generator's skew), 20% undirected
// expansions of the rarest type from a top hub, 10% writes creating a
// relationship between two anchored nodes.
func (lg *largeGraph) nextOp(r *rand.Rand) (int, string) {
	n := lg.snap.NumNodes()
	switch x := r.Intn(100); {
	case x < 70:
		hops := 1 + r.Intn(3)
		var sb strings.Builder
		sb.WriteString("MATCH " + lg.anchor("n0", graph.ID(r.Intn(n))))
		for h := 1; h <= hops; h++ {
			fmt.Fprintf(&sb, "-[:T1]->(n%d)", h)
		}
		sb.WriteString(" RETURN count(*)")
		return opHop1 + hops - 1, sb.String()
	case x < 90:
		h := lg.hubs[r.Intn(len(lg.hubs))]
		return opHub, fmt.Sprintf("MATCH %s-[r:%s]-(b) RETURN count(r) AS c", lg.anchor("a", h), lg.rare)
	default:
		a, b := graph.ID(r.Intn(n)), graph.ID(r.Intn(n))
		return opWrite, fmt.Sprintf("MATCH %s, %s CREATE (a)-[r:T1]->(b) RETURN count(r) AS c",
			lg.anchor("a", a), lg.anchor("b", b))
	}
}

// lgRun is the outcome of one sequence of operations.
type lgRun struct {
	ops     int
	errs    int
	wall    time.Duration
	lat     []time.Duration
	byKind  [numOpKinds][]time.Duration // execute time per kind
	outcome []uint64                    // outcome digests, when recorded
	planned int
}

// runOps runs operations drawn from seed on sim until the deadline
// passes (or, with limit > 0, exactly limit operations), resetting to
// the snapshot before the first operation and every resetEvery after.
// An operation is one Prepare plus one ExecutePrepared.
func (lg *largeGraph) runOps(sim *gdb.Sim, seed int64, resetEvery int, deadline time.Duration, limit int, record bool, tr *Tracer) (lgRun, error) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(seed))
	var run lgRun
	start := time.Now()
	for {
		if limit > 0 && run.ops >= limit || limit <= 0 && run.ops > 0 && time.Since(start) >= deadline {
			break
		}
		kind, text := lg.nextOp(r)
		t0 := time.Now()
		var tReset time.Time
		if run.ops%resetEvery == 0 {
			if err := sim.ResetSnapshot(lg.snap, lg.schema); err != nil {
				return run, err
			}
			tReset = time.Now()
		}
		t1 := time.Now()
		pq, err := engine.Prepare(text)
		if err != nil {
			return run, fmt.Errorf("prepare %q: %w", text, err)
		}
		t2 := time.Now()
		res, err := sim.ExecutePrepared(ctx, pq)
		t3 := time.Now()
		if err != nil {
			run.errs++
		}
		if pq.Planned() {
			run.planned++
		}
		if tr != nil {
			opID := tr.Add("lg.op", t0, t3, -1, run.ops)
			if !tReset.IsZero() {
				tr.Add("gdb.reset", t0, tReset, opID, run.ops)
			}
			tr.Add("engine.prepare", t1, t2, opID, run.ops)
			tr.Add("engine.exec", t2, t3, opID, run.ops)
		}
		run.lat = append(run.lat, t3.Sub(t0))
		run.byKind[kind] = append(run.byKind[kind], t3.Sub(t2))
		if record {
			run.outcome = append(run.outcome, outcomeKey(res, err))
		}
		run.ops++
	}
	run.wall = time.Since(start)
	return run, nil
}

// runLargeGraph is the `large-graph` workload: one client issuing
// Prepare + ExecutePrepared operations against the reference engine over
// a graph far larger than any campaign graph.
func runLargeGraph(o Options) (*Result, error) {
	sz := largeGraphSizesFor(o.Tiny)
	res := newResult()
	var gens, seals, props, adjs []float64
	lg, setup, err := timeSetup(setupReps, func() (*largeGraph, error) {
		lg, err := buildLargeGraph(o.Seed, sz)
		if err == nil {
			gens = append(gens, lg.gen.Seconds())
			seals = append(seals, lg.seal.Seconds())
			props = append(props, lg.propIndex.Seconds())
			adjs = append(adjs, lg.adjIndex.Seconds())
		}
		return lg, err
	})
	if err != nil {
		return nil, err
	}
	res.Set("setup_s", setup)
	sim := gdb.NewReference()
	opSeed := o.Seed + 1

	var tr *Tracer
	if o.Trace {
		tr = NewTracer()
	}
	rt0 := readRuntime()
	run, err := lg.runOps(sim, opSeed, sz.resetEvery, o.Window, 0, false, tr)
	rt := rt0.to(readRuntime())
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = run.ops, run.errs
	res.Note("window: %d ops on %d nodes / %d rels, %.2fs", run.ops, lg.snap.NumNodes(), lg.snap.NumRels(), run.wall.Seconds())

	// Index ≡ scan: the first operations again, on this engine and on one
	// with the adjacency index switched off; every outcome must agree.
	n := min(sz.diffOps, run.ops)
	idx, err := lg.runOps(sim, opSeed, sz.resetEvery, 0, n, true, nil)
	if err != nil {
		return nil, err
	}
	scanSim := gdb.NewReference()
	scanSim.Engine().SetAdjIndex(false)
	scan, err := lg.runOps(scanSim, opSeed, sz.resetEvery, 0, n, true, nil)
	if err != nil {
		return nil, err
	}
	differ := 0
	for i := range idx.outcome {
		if idx.outcome[i] != scan.outcome[i] {
			differ++
		}
	}
	res.Check("index_equals_scan", differ == 0 && len(idx.outcome) == n,
		fmt.Sprintf("%d of %d operations differ between the adjacency index and the scan", differ, n))
	res.Check("no_failed_ops", run.errs == 0, fmt.Sprintf("%d of %d operations returned an error", run.errs, run.ops))

	if !o.Trace {
		setOpMetrics(res, run.wall, run.lat, rt)
		return res, nil
	}
	rt0 = readRuntime()
	plain, err := lg.runOps(sim, opSeed, sz.resetEvery, 0, run.ops, false, nil)
	rt = rt0.to(readRuntime())
	if err != nil {
		return nil, err
	}
	res.Set("graph.bulk_generate_s", Median(gens))
	res.Set("graph.seal_s", Median(seals))
	res.Set("graph.prop_index_s", Median(props))
	res.Set("graph.adj_index_s", Median(adjs))
	ops := float64(run.ops)
	res.Set("engine.prepare.us_per_query", float64(tr.Total("engine.prepare").Nanoseconds())/1e3/ops)
	res.Set("engine.prepare.share", float64(tr.Total("engine.prepare"))/float64(run.wall))
	res.Set("engine.prepare.planned_ratio", float64(run.planned)/ops)
	setExecMetrics(res, tr, float64(run.wall), ops, int64(run.errs))
	for k, name := range opKindNames {
		d := micros(run.byKind[k])
		p50, _ := Percentile(d, 50, 0)
		p99, _ := Percentile(d, 99, 10)
		res.Set("engine.exec."+name+"_us_p50", p50)
		res.Set("engine.exec."+name+"_us_p99", p99)
	}
	resets := tr.Durations("gdb.reset")
	if len(resets) > 0 {
		res.Set("gdb.reset.us_per_call", float64(tr.Total("gdb.reset").Nanoseconds())/1e3/float64(len(resets)))
	}
	res.Set("gdb.reset.calls_per_op", float64(len(resets))/ops)
	res.Set("runtime.gc_cpu_share", rt.gcCPUShare)
	res.Set("runtime.alloc_mb_per_op", rt.allocBytes/(1<<20)/float64(plain.ops))
	res.Set("bench.trace_overhead", run.wall.Seconds()/plain.wall.Seconds()-1)
	return res, tr.WriteFile(o.SpansPath)
}
