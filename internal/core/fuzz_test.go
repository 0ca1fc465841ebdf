package core

import (
	"context"
	"math/rand"
	"testing"

	"gqs/internal/engine"
	"gqs/internal/graph"
)

// FuzzGroundTruth checks GQS's zero-false-alarm guarantee on generated
// inputs: for any seed, graph size (up to 16 nodes and 100
// relationships), dialect and ablation, the fault-free
// engine of the matching dialect returns exactly the expected result of
// every synthesized query, both on the prepared path campaigns run
// (ExecutePrepared of PrepareAST) and on the text path (Execute), with
// no error and no panic.
//
// flags selects the configuration bit by bit: 1 drops relationship
// uniqueness, 2 drops db.labels(), 4 disables pattern mutation, 8
// disables complex expressions, and 16 seals the graph before synthesis
// as the runner does. The seed corpus is testdata/fuzz/FuzzGroundTruth.
func FuzzGroundTruth(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, maxNodes, maxRels, flags uint8) {
		r := rand.New(rand.NewSource(seed))
		g, schema := graph.Generate(r, graph.GenConfig{
			MaxNodes: 1 + int(maxNodes%16),
			MaxRels:  1 + int(maxRels%100),
		})
		if flags&16 != 0 {
			g.Seal()
		}
		cfg := DefaultConfig()
		cfg.RelUniqueness = flags&1 == 0
		cfg.ProvidesDBLabels = flags&2 == 0
		cfg.DisableMutation = flags&4 != 0
		cfg.DisableComplexExprs = flags&8 != 0
		eng := engine.New(engine.Options{Dialect: engine.Dialect{
			Name: "fuzz", RelUniqueness: cfg.RelUniqueness, ProvidesDBLabels: cfg.ProvidesDBLabels,
		}})
		eng.LoadGraph(g, schema)
		syn := NewSynthesizer(r, g, schema, cfg)
		for q := 0; q < 4; q++ {
			sq, err := syn.Synthesize(SelectGroundTruth(r, g, cfg.Plan.MaxResultSet))
			if err != nil {
				t.Fatalf("query %d: synthesize: %v", q, err)
			}
			prepared, err := eng.ExecutePrepared(context.Background(), engine.PrepareAST(sq.Query, sq.Text))
			if err != nil || !sq.Expected.Equal(prepared) {
				t.Fatalf("query %d, prepared: err %v\n%s\nexpected:\n%s\nactual:\n%v", q, err, sq.Text, sq.Expected, prepared)
			}
			text, err := eng.Execute(sq.Text)
			if err != nil || !sq.Expected.Equal(text) {
				t.Fatalf("query %d, text: err %v\n%s\nexpected:\n%s\nactual:\n%v", q, err, sq.Text, sq.Expected, text)
			}
		}
	})
}
