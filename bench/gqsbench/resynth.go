package main

import (
	"fmt"
	"math/rand"
	"time"

	"gqs/internal/core"
	"gqs/internal/engine"
	"gqs/internal/experiments"
	"gqs/internal/gdb"
	"gqs/internal/graph"
)

// resynthStats counts the second pass of traced campaigns.
type resynthStats struct {
	gdbIterations int
	attempts      int
	failures      int
	steps         int
	prepared      int
	planned       int
	mismatches    int
	firstMismatch string
}

// resynthesize re-derives every test case of a traced campaign from
// core.ShardSeed alone and times the layers the campaign's query spans
// cannot split: graph generation and sealing, ground-truth selection,
// synthesis and plan compilation. Each synthesized text must equal the
// test case the campaign ran at the same (GDB, shard, sequence)
// position; the draw order is the runner's, so any difference means the
// spans below timed different work than the campaign did. The counts
// accumulate into st.
func resynthesize(cfg experiments.CampaignConfig, cases map[caseKey]string, tr *Tracer, parent int, st *resynthStats) {
	rcfg := runnerConfig(cfg)
	maxResult := rcfg.Plan().MaxResultSet
	seen := 0
	for gi, sim := range gdb.All() {
		synthCfg := rcfg.Synth
		synthCfg.RelUniqueness = sim.RelUniqueness()
		synthCfg.ProvidesDBLabels = sim.ProvidesDBLabels()
		for shard := 0; shard < cfg.Iterations; shard++ {
			r := rand.New(rand.NewSource(core.ShardSeed(cfg.Seed, shard)))
			t0 := time.Now()
			g, schema := graph.Generate(r, rcfg.Graph)
			tr.Add("graph.generate", t0, time.Now(), parent, shard)
			if gi == 0 {
				// The campaign's snapshot share seals each shard's graph
				// once for all four GDB legs.
				t0 = time.Now()
				g.Seal()
				tr.Add("graph.seal", t0, time.Now(), parent, shard)
			}
			st.gdbIterations++
			syn := core.NewSynthesizer(r, g, schema, synthCfg)
			seq := 0
			for q := 0; q < rcfg.QueriesPerGraph; q++ {
				t0 = time.Now()
				gt := core.SelectGroundTruth(r, g, maxResult)
				tr.Add("core.ground_truth", t0, time.Now(), parent, shard)
				for k := 0; k < rcfg.QueriesPerGT; k++ {
					seq++
					st.attempts++
					t0 = time.Now()
					sq, err := syn.Synthesize(gt)
					tr.Add("core.synth", t0, time.Now(), parent, shard)
					text := ""
					if err != nil {
						st.failures++
					} else {
						text = sq.Text
						st.steps += sq.Steps
						t0 = time.Now()
						pq := engine.PrepareAST(sq.Query, sq.Text)
						tr.Add("engine.prepare", t0, time.Now(), parent, shard)
						st.prepared++
						if pq.Planned() {
							st.planned++
						}
					}
					key := caseKey{sim.Name(), shard, seq}
					ran, ok := cases[key]
					if ok {
						seen++
					}
					if !ok || ran != text {
						st.mismatches++
						if st.firstMismatch == "" {
							st.firstMismatch = fmt.Sprintf("%s shard %d query %d: ran %q, resynthesized %q",
								key.gdb, key.shard, key.seq, ran, text)
						}
					}
				}
			}
		}
	}
	if extra := len(cases) - seen; extra > 0 {
		st.mismatches += extra
		if st.firstMismatch == "" {
			st.firstMismatch = fmt.Sprintf("%d test cases ran that the second pass did not derive", extra)
		}
	}
}
