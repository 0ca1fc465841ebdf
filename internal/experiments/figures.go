package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"gqs/internal/core"
	"gqs/internal/gdb"
	"gqs/internal/graph"
)

// histogram renders counts as an ASCII bar chart.
func histogram(w io.Writer, title string, labels []string, counts []int) {
	fmt.Fprintln(w, title)
	max := 1
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	for i, l := range labels {
		bar := ""
		n := counts[i] * 40 / max
		for j := 0; j < n; j++ {
			bar += "#"
		}
		fmt.Fprintf(w, "%-12s %3d %s\n", l, counts[i], bar)
	}
}

// Fig10 reproduces Figure 10: the distribution of detected bugs by the
// number of synthesis steps of the triggering query, plus the
// queries-per-second throughput for each step budget.
func Fig10(w io.Writer, c *Campaign) (bySteps map[int]int) {
	bySteps = map[int]int{}
	for _, f := range c.Findings {
		bySteps[f.Steps]++
	}
	var labels []string
	var counts []int
	maxStep := 0
	for s := range bySteps {
		if s > maxStep {
			maxStep = s
		}
	}
	atLeast3 := 0
	for s := 1; s <= maxStep; s++ {
		labels = append(labels, fmt.Sprintf("%d steps", s))
		counts = append(counts, bySteps[s])
		if s >= 3 {
			atLeast3 += bySteps[s]
		}
	}
	histogram(w, "Figure 10: bugs by synthesis steps of the triggering query", labels, counts)
	if len(c.Findings) > 0 {
		fmt.Fprintf(w, "bugs from ≥3-step queries: %d/%d (%.0f%%; paper: 80%%)\n",
			atLeast3, len(c.Findings), 100*float64(atLeast3)/float64(len(c.Findings)))
	}

	// Throughput sweep: queries per second as the step budget grows.
	fmt.Fprintln(w, "throughput by step budget (queries/second):")
	for _, steps := range []int{3, 5, 7, 9} {
		qps := ThroughputForSteps(steps, 40)
		fmt.Fprintf(w, "  %d steps: %.0f q/s\n", steps, qps)
	}
	return bySteps
}

// ThroughputForSteps measures synthesis+execution throughput at a given
// step budget on the reference engine.
func ThroughputForSteps(maxSteps, queries int) float64 {
	r := rand.New(rand.NewSource(int64(maxSteps)))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 10, MaxRels: 40})
	ref := gdb.NewReference()
	if err := ref.Reset(g, schema); err != nil {
		// The reference connector has no schema requirement; a failed
		// Reset means the harness itself is broken, not the measurement.
		panic(fmt.Errorf("reset %s: %w", ref.Name(), err))
	}
	cfg := core.DefaultConfig()
	cfg.MaxSteps = maxSteps
	syn := core.NewSynthesizer(r, g, schema, cfg)
	start := time.Now()
	done := 0
	for done < queries {
		gt := core.SelectGroundTruth(r, g, 4)
		sq, err := syn.Synthesize(gt)
		if err != nil {
			continue
		}
		ref.Execute(sq.Text)
		done++
	}
	return float64(done) / time.Since(start).Seconds()
}

// Fig11 reproduces Figure 11: aggregated clause counts across the
// bug-triggering queries.
func Fig11(w io.Writer, c *Campaign) map[string]int {
	agg := map[string]int{}
	for _, f := range c.Findings {
		if f.Features == nil {
			continue
		}
		f.Features.EachClause(func(name string, n int) { agg[name] += n })
	}
	names := sortedKeysByCount(agg)
	var labels []string
	var counts []int
	for _, n := range names {
		labels = append(labels, n)
		counts = append(counts, agg[n])
	}
	histogram(w, "Figure 11: aggregated clause occurrences in bug-triggering queries", labels, counts)
	return agg
}

// Fig12 reproduces Figure 12: the number of bugs whose triggering query
// involves each clause type.
func Fig12(w io.Writer, c *Campaign) map[string]int {
	agg := map[string]int{}
	for _, f := range c.Findings {
		if f.Features == nil {
			continue
		}
		f.Features.EachClause(func(name string, _ int) { agg[name]++ })
	}
	names := sortedKeysByCount(agg)
	var labels []string
	var counts []int
	for _, n := range names {
		labels = append(labels, n)
		counts = append(counts, agg[n])
	}
	histogram(w, "Figure 12: bugs related to each clause type", labels, counts)
	orderByOrWith := 0
	for _, f := range c.Findings {
		if f.Features != nil && (f.Features.ClauseCount("ORDER BY") > 0 || f.Features.ClauseCount("WITH") > 0) {
			orderByOrWith++
		}
	}
	fmt.Fprintf(w, "bugs with ORDER BY or WITH: %d/%d (paper: 24/36)\n", orderByOrWith, len(c.Findings))
	return agg
}

// bucketCounts buckets finding feature values.
func bucketCounts(c *Campaign, val func(*Finding) int, bounds []int) []int {
	counts := make([]int, len(bounds)+1)
	for _, f := range c.Findings {
		v := val(f)
		placed := false
		for i, b := range bounds {
			if v <= b {
				counts[i]++
				placed = true
				break
			}
		}
		if !placed {
			counts[len(bounds)]++
		}
	}
	return counts
}

func bucketLabels(bounds []int) []string {
	var out []string
	prev := 0
	for _, b := range bounds {
		out = append(out, fmt.Sprintf("%d-%d", prev, b))
		prev = b + 1
	}
	out = append(out, fmt.Sprintf(">%d", bounds[len(bounds)-1]))
	return out
}

// Fig13 reproduces Figure 13: bug distribution by cross-clause
// dependency count.
func Fig13(w io.Writer, c *Campaign) []int {
	bounds := []int{10, 20, 30, 40}
	counts := bucketCounts(c, func(f *Finding) int { return f.Features.CrossRefs }, bounds)
	histogram(w, "Figure 13: bugs by number of cross-clause dependencies", bucketLabels(bounds), counts)
	over20 := 0
	for _, f := range c.Findings {
		if f.Features.CrossRefs > 20 {
			over20++
		}
	}
	if len(c.Findings) > 0 {
		fmt.Fprintf(w, "bugs with >20 dependencies: %d/%d (%.0f%%; paper: >61%%)\n",
			over20, len(c.Findings), 100*float64(over20)/float64(len(c.Findings)))
	}
	return counts
}

// Fig14 reproduces Figure 14: bug distribution by pattern count.
func Fig14(w io.Writer, c *Campaign) []int {
	bounds := []int{1, 3, 5, 7}
	counts := bucketCounts(c, func(f *Finding) int { return f.Features.Patterns }, bounds)
	histogram(w, "Figure 14: bugs by number of search patterns", bucketLabels(bounds), counts)
	over3 := 0
	for _, f := range c.Findings {
		if f.Features.Patterns > 3 {
			over3++
		}
	}
	if len(c.Findings) > 0 {
		fmt.Fprintf(w, "bugs with >3 patterns: %d/%d (%.0f%%; paper: two-thirds)\n",
			over3, len(c.Findings), 100*float64(over3)/float64(len(c.Findings)))
	}
	return counts
}

// Fig15 reproduces Figure 15: bug distribution by maximum expression
// nesting depth.
func Fig15(w io.Writer, c *Campaign) []int {
	bounds := []int{3, 5, 8, 11}
	counts := bucketCounts(c, func(f *Finding) int { return f.Features.MaxExprDepth }, bounds)
	histogram(w, "Figure 15: bugs by expression nesting depth", bucketLabels(bounds), counts)
	over5 := 0
	for _, f := range c.Findings {
		if f.Features.MaxExprDepth > 5 {
			over5++
		}
	}
	if len(c.Findings) > 0 {
		fmt.Fprintf(w, "bugs with >5 nesting levels: %d/%d (%.0f%%; paper: 83%%)\n",
			over5, len(c.Findings), 100*float64(over5)/float64(len(c.Findings)))
	}
	return counts
}

// Fig18 reproduces Figure 18: cumulative distinct bugs over the campaign
// timeline for Neo4j and FalkorDB, per tester.
func Fig18(w io.Writer, campaigns map[string]map[string]*TesterCampaign, rounds int) {
	fmt.Fprintln(w, "Figure 18: cumulative bugs over the campaign (rounds on the x axis)")
	for _, gdbName := range []string{"neo4j", "falkordb"} {
		fmt.Fprintf(w, "-- %s --\n", gdbName)
		for _, tester := range []string{"gdsmith", "gdbmeter", "gamera", "gqt", "grev", "gqs"} {
			tc := campaigns[tester][gdbName]
			if tc == nil {
				continue
			}
			// Render the cumulative count at 10 checkpoints.
			line := fmt.Sprintf("%-9s", tester)
			for i := 1; i <= 10; i++ {
				cut := rounds * i / 10
				n := 0
				for _, ev := range tc.Events {
					if ev.Round <= cut {
						n++
					}
				}
				line += fmt.Sprintf(" %2d", n)
			}
			fmt.Fprintln(w, line)
		}
	}
}

func sortedKeysByCount(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if m[keys[i]] != m[keys[j]] {
			return m[keys[i]] > m[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}
