package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"gqs/internal/graph"
)

// goldenConfigs are the synthesizer configurations TestSynthesisGolden
// pins: the four dialect flag pairs and the two ablations.
func goldenConfigs() map[string]Config {
	out := map[string]Config{}
	for _, ru := range []bool{true, false} {
		for _, dbl := range []bool{true, false} {
			cfg := DefaultConfig()
			cfg.RelUniqueness, cfg.ProvidesDBLabels = ru, dbl
			out[fmt.Sprintf("relUnique=%v,dbLabels=%v", ru, dbl)] = cfg
		}
	}
	cfg := DefaultConfig()
	cfg.DisableComplexExprs = true
	out["noComplexExprs"] = cfg
	cfg = DefaultConfig()
	cfg.DisableMutation = true
	out["noMutation"] = cfg
	return out
}

// synthesisDigest runs the runner's draw order — per iteration a
// generated and sealed campaign-sized graph (the default campaign's
// 13 nodes / 60 relationships), then 8 ground truths of 2 queries each —
// for two iterations, and returns the FNV-64a digest of every query's
// text, expected columns and rows in order, and step count.
func synthesisDigest(seed int64, cfg Config) uint64 {
	h := fnv.New64a()
	var kb strings.Builder
	r := rand.New(rand.NewSource(seed))
	for it := 0; it < 2; it++ {
		g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 13, MaxRels: 60})
		g.Seal()
		syn := NewSynthesizer(r, g, schema, cfg)
		for q := 0; q < 8; q++ {
			gt := SelectGroundTruth(r, g, cfg.Plan.MaxResultSet)
			for k := 0; k < 2; k++ {
				sq, err := syn.Synthesize(gt)
				if err != nil {
					fmt.Fprintf(h, "error %v\n", err)
					continue
				}
				kb.Reset()
				fmt.Fprintf(&kb, "%s\n%d\n%s\n", sq.Text, sq.Steps, strings.Join(sq.Expected.Columns, "|"))
				for _, row := range sq.Expected.Rows {
					for _, v := range row {
						v.AppendKey(&kb)
						kb.WriteByte('|')
					}
					kb.WriteByte('\n')
				}
				h.Write([]byte(kb.String()))
			}
		}
	}
	return h.Sum64()
}

// TestSynthesisGolden pins what the synthesizer emits, byte for byte:
// the query texts, expected results and step counts of a fixed-seed
// corpus under every dialect and ablation. The campaign's bug-report
// digest only covers the queries that found a bug; this covers them all,
// so any change to a draw, a name or a printed expression shows here.
func TestSynthesisGolden(t *testing.T) {
	const want = uint64(0x17d916da27a46a84)
	h := fnv.New64a()
	for _, seed := range []int64{1, 7, 23} {
		for _, name := range []string{
			"relUnique=true,dbLabels=true", "relUnique=true,dbLabels=false",
			"relUnique=false,dbLabels=true", "relUnique=false,dbLabels=false",
			"noComplexExprs", "noMutation",
		} {
			d := synthesisDigest(seed, goldenConfigs()[name])
			t.Logf("seed %d %s: %016x", seed, name, d)
			fmt.Fprintf(h, "%d %s %016x\n", seed, name, d)
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("synthesis digest %016x, want %016x", got, want)
	}
}
