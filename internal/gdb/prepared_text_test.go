package gdb

import (
	"reflect"
	"testing"

	"gqs/internal/core"
	"gqs/internal/cypher/parser"
	"gqs/internal/graph"
	"gqs/internal/metrics"
)

// TestPreparedFeaturesMatchText pins the prepared path to the text path
// on campaign queries. The runner prepares the synthesizer's own tree
// (engine.PrepareAST), while a text-path GDB, a replay and a report
// reader all see the printed text. So every synthesized text must parse,
// and the features measured on the tree must equal metrics.Analyze of
// the text: otherwise a fault can fire in a campaign and not when its
// reported query is replayed, and a text-path GDB turns the query into a
// syntax error, which the runner reports as an error-bug. Besides the
// first shards of every GDB's seed-1 campaign, the list holds the shards
// whose queries once diverged: negated numbers the parser folds into one
// literal, list values printed from a literal, and a node nested in a
// list, which has no literal form.
func TestPreparedFeaturesMatchText(t *testing.T) {
	cfg := core.RunnerConfig{
		Seed:            1,
		Graph:           graph.GenConfig{MaxNodes: 13, MaxRels: 60},
		Synth:           core.DefaultConfig(),
		QueriesPerGraph: 6,
		QueriesPerGT:    2,
	}
	diverged := map[string][]int{
		"neo4j":    {116, 529},
		"memgraph": {78, 761},
		"kuzu":     nil,
		"falkordb": {590},
	}
	for name, extra := range diverged {
		connect := NewFactory(FactoryConfig{GDB: name, Seed: cfg.Seed})
		for _, shard := range append([]int{0, 1, 2, 3, 4, 5, 6, 7}, extra...) {
			target, err := connect(shard)
			if err != nil {
				t.Fatal(err)
			}
			rcfg := cfg
			rcfg.Seed = core.ShardSeed(cfg.Seed, shard)
			rn := core.NewRunner(target, rcfg)
			rn.RunIteration(func(tc *core.TestCase) {
				if tc.Query == "" {
					return // synthesis failed: nothing was prepared
				}
				if _, err := parser.Parse(tc.Query); err != nil {
					t.Errorf("%s shard %d: synthesized text does not parse: %v\n%s", name, shard, err, tc.Query)
					return
				}
				if want := metrics.Analyze(tc.Query); !reflect.DeepEqual(tc.Features, want) {
					t.Errorf("%s shard %d: prepared features %+v, text features %+v\n%s", name, shard, *tc.Features, *want, tc.Query)
				}
			})
		}
	}
}
