package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"gqs/internal/baselines"
	"gqs/internal/core"
	"gqs/internal/faults"
	"gqs/internal/gdb"
	"gqs/internal/graph"
	"gqs/internal/metrics"
)

// writeTable renders rows with aligned columns.
func writeTable(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

// Table2 renders the tested-GDB summary.
func Table2(w io.Writer) {
	fmt.Fprintln(w, "Table 2: Summary of the tested GDBs (simulated substrates)")
	var rows [][]string
	for _, info := range gdb.Registry() {
		rows = append(rows, []string{
			info.Name, info.GitHubStars, fmt.Sprint(info.InitialRelease),
			info.TestedVersion, info.LoC,
		})
	}
	writeTable(w, []string{"GDB", "GitHub stars", "Initial release", "Tested version", "LoC"}, rows)
}

// Table3 runs the GQS campaign and renders the per-GDB bug counts
// (detected from the campaign; confirmed/fixed from the catalog
// metadata, as those reflect developer responses).
func Table3(w io.Writer, cfg CampaignConfig) *Campaign {
	c := RunGQSCampaign(cfg)
	fmt.Fprintln(w, "Table 3: Summary of the bugs detected by GQS")
	byGDB := c.ByGDB()
	var rows [][]string
	totL, totLC, totLF, totO, totOC, totOF := 0, 0, 0, 0, 0, 0
	for _, info := range gdb.Registry() {
		var l, lc, lf, o, oc, of int
		for _, f := range byGDB[info.Name] {
			if f.Bug.Kind.IsLogic() {
				l++
				if f.Bug.Confirmed {
					lc++
				}
				if f.Bug.Fixed {
					lf++
				}
			} else {
				o++
				if f.Bug.Confirmed {
					oc++
				}
				if f.Bug.Fixed {
					of++
				}
			}
		}
		totL, totLC, totLF, totO, totOC, totOF = totL+l, totLC+lc, totLF+lf, totO+o, totOC+oc, totOF+of
		rows = append(rows, []string{info.Name,
			fmt.Sprint(l), fmt.Sprint(lc), fmt.Sprint(lf),
			fmt.Sprint(o), fmt.Sprint(oc), fmt.Sprint(of)})
	}
	rows = append(rows, []string{"total",
		fmt.Sprint(totL), fmt.Sprint(totLC), fmt.Sprint(totLF),
		fmt.Sprint(totO), fmt.Sprint(totOC), fmt.Sprint(totOF)})
	writeTable(w, []string{"GDB", "logic detected", "confirmed", "fixed", "other detected", "confirmed", "fixed"}, rows)
	fmt.Fprintf(w, "(campaign: %d queries, %d skipped)\n", c.Queries, c.Skips)
	return c
}

// toolCampaignAge records, per tool and GDB, how many years ago that
// tool's published campaign tested the system (the versions it covered).
var toolCampaignAge = map[string]map[string]float64{
	"gdsmith":  {"neo4j": 2.3, "memgraph": 2.3, "falkordb": 2.3},
	"gdbmeter": {"neo4j": 2.4, "falkordb": 2.4},
	"gamera":   {"neo4j": 1.1, "falkordb": 1.1},
	"gqt":      {"neo4j": 1.6, "falkordb": 1.3},
	"grev":     {"neo4j": 1.0, "memgraph": 1.0, "falkordb": 1.0},
}

// Table4 reproduces the latency analysis: for each prior tester, how
// many of the campaign's bugs were already present in versions predating
// the ones it tested (Kùzu is excluded as in the paper).
func Table4(w io.Writer, c *Campaign) {
	fmt.Fprintln(w, "Table 4: Bugs missed by existing testers and their latencies")
	gdbs := []string{"neo4j", "memgraph", "falkordb"}
	var rows [][]string
	missedUnion := map[string]map[string]*faults.Bug{}
	for _, tool := range []string{"gdsmith", "gdbmeter", "gamera", "gqt", "grev"} {
		row := []string{tool}
		total := 0
		for _, g := range gdbs {
			age, supported := toolCampaignAge[tool][g]
			if !supported {
				row = append(row, "-")
				continue
			}
			n := 0
			for _, f := range c.ByGDB()[g] {
				if f.Bug.IntroducedYearsAgo > age {
					n++
					if missedUnion[g] == nil {
						missedUnion[g] = map[string]*faults.Bug{}
					}
					missedUnion[g][f.Bug.ID] = f.Bug
				}
			}
			row = append(row, fmt.Sprint(n))
			total += n
		}
		row = append(row, fmt.Sprint(total))
		rows = append(rows, row)
	}
	avgRow := []string{"avg latency (yrs)"}
	maxRow := []string{"max latency (yrs)"}
	for _, g := range gdbs {
		var sum, max float64
		var n int
		for _, b := range missedUnion[g] {
			sum += b.IntroducedYearsAgo
			if b.IntroducedYearsAgo > max {
				max = b.IntroducedYearsAgo
			}
			n++
		}
		if n == 0 {
			avgRow = append(avgRow, "-")
			maxRow = append(maxRow, "-")
			continue
		}
		avgRow = append(avgRow, fmt.Sprintf("%.1f", sum/float64(n)))
		maxRow = append(maxRow, fmt.Sprintf("%.1f", max))
	}
	rows = append(rows, append(avgRow, "-"), append(maxRow, "-"))
	writeTable(w, []string{"Tester", "Neo4j", "Memgraph", "FalkorDB*", "Total"}, rows)
	fmt.Fprintln(w, "* tested as RedisGraph by the prior tools")
}

// OracleReplay reproduces §5.4.3: feed the GQS bug-triggering logic-bug
// queries to GDBMeter's and GRev's oracles and count how many injected
// bugs each oracle can still expose.
func OracleReplay(w io.Writer, c *Campaign) (gdbmeterCaught, grevCaught, total int) {
	fmt.Fprintln(w, "Oracle replay (§5.4.3): bugs exposed when prior oracles run the GQS bug-triggering queries")
	for _, f := range c.LogicFindings() {
		total++
		sim, err := gdb.ByName(f.GDB)
		if err != nil {
			continue
		}
		if rerr := sim.Reset(f.Graph, f.Schema); rerr != nil {
			fmt.Fprintf(w, "skipping replay of %s: reset %s: %v\n", f.Bug.ID, sim.Name(), rerr)
			continue
		}
		if applied, violated, _, err := baselines.TLPCheck(sim, f.Query); err == nil && applied && violated {
			gdbmeterCaught++
		}
		sim2, _ := gdb.ByName(f.GDB)
		if rerr := sim2.Reset(f.Graph, f.Schema); rerr != nil {
			fmt.Fprintf(w, "skipping GRev replay of %s: reset %s: %v\n", f.Bug.ID, sim2.Name(), rerr)
			continue
		}
		if applied, violated, _, err := baselines.GRevCheck(sim2, f.Query); err == nil && applied && violated {
			grevCaught++
		}
	}
	fmt.Fprintf(w, "GDBMeter (TLP) exposed %d / %d logic bugs\n", gdbmeterCaught, total)
	fmt.Fprintf(w, "GRev (equivalent rewriting) exposed %d / %d logic bugs\n", grevCaught, total)
	fmt.Fprintln(w, "(paper: 11/26 and 3/26)")
	return
}

// Table5Row is one tester's complexity profile.
type Table5Row struct {
	Tester   string
	Patterns float64
	Depth    float64
	Clauses  float64
	Deps     float64
}

// Table5 measures query complexity for every generator (Table 5): n
// queries per tester, parsed and measured with the AST metrics.
func Table5(w io.Writer, n int, seed int64) []Table5Row {
	paper := map[string][4]float64{
		"gdsmith":  {4.96, 3.68, 6.39, 21.75},
		"gdbmeter": {0.86, 2.24, 1.94, 1.97},
		"gamera":   {0.83, 1.39, 1.92, 1.89},
		"gqt":      {1.03, 2.87, 3.39, 3.43},
		"grev":     {6.69, 5.26, 6.49, 28.41},
		"gqs":      {8.14, 7.82, 6.50, 56.02},
	}
	r := rand.New(rand.NewSource(seed))
	var out []Table5Row

	measure := func(name string, gen func(g *graph.Graph, schema *graph.Schema) string) {
		var agg metrics.Aggregate
		for agg.N < n {
			g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 10, MaxRels: 40})
			for i := 0; i < 20 && agg.N < n; i++ {
				q := gen(g, schema)
				if q == "" {
					continue
				}
				agg.Add(metrics.Analyze(q))
			}
		}
		p, d, cl, deps := agg.Averages()
		out = append(out, Table5Row{Tester: name, Patterns: p, Depth: d, Clauses: cl, Deps: deps})
	}

	for _, t := range baselines.All() {
		tester := t
		measure(tester.Name(), func(g *graph.Graph, schema *graph.Schema) string {
			return tester.Generate(r, g, schema)
		})
	}
	var syn *core.Synthesizer
	var lastG *graph.Graph
	measure("gqs", func(g *graph.Graph, schema *graph.Schema) string {
		if g != lastG {
			syn = core.NewSynthesizer(r, g, schema, core.DefaultConfig())
			lastG = g
		}
		gt := core.SelectGroundTruth(r, g, 6)
		sq, err := syn.Synthesize(gt)
		if err != nil {
			return ""
		}
		return sq.Text
	})

	fmt.Fprintf(w, "Table 5: Comparison on test query complexity (%d queries per tester)\n", n)
	var rows [][]string
	for _, row := range out {
		p := paper[row.Tester]
		rows = append(rows, []string{
			row.Tester, fmtF(row.Patterns), fmtF(row.Depth), fmtF(row.Clauses), fmtF(row.Deps),
			fmt.Sprintf("(paper: %.2f/%.2f/%.2f/%.2f)", p[0], p[1], p[2], p[3]),
		})
	}
	writeTable(w, []string{"Tester", "Pattern", "Expression", "Clause", "Dependency", "Reference"}, rows)
	return out
}

// Table6 runs the scaled-down 24-hour campaign: every tester with its own
// generator and oracle, for a fixed number of rounds per GDB.
func Table6(w io.Writer, rounds int, seed int64) map[string]map[string]*TesterCampaign {
	gdbs := []string{"neo4j", "memgraph", "falkordb"}
	out := map[string]map[string]*TesterCampaign{}
	run := func(name string, f func(g string) (*TesterCampaign, error)) {
		out[name] = map[string]*TesterCampaign{}
		for _, g := range gdbs {
			tc, err := f(g)
			if err != nil {
				fmt.Fprintf(w, "%s on %s: error %v\n", name, g, err)
				continue
			}
			out[name][g] = tc
		}
	}
	for _, t := range baselines.All() {
		tester := t
		run(tester.Name(), func(g string) (*TesterCampaign, error) {
			return RunBaselineCampaign(tester, g, rounds, seed)
		})
	}
	run("gqs", func(g string) (*TesterCampaign, error) {
		return RunGQSTimeline(g, rounds, seed)
	})

	fmt.Fprintf(w, "Table 6: Bugs detected over a budgeted campaign (%d rounds per GDB; X (Y) = total (logic))\n", rounds)
	var rows [][]string
	order := []string{"gdsmith", "gdbmeter", "gamera", "gqt", "grev", "gqs"}
	for _, name := range order {
		row := []string{name}
		total, logic := 0, 0
		for _, g := range gdbs {
			tc := out[name][g]
			if tc == nil || tc.Rounds == 0 || (name != "gdsmith" && name != "grev" && name != "gqs" && g == "memgraph") {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%d (%d)", len(tc.Found), tc.LogicCount()))
			total += len(tc.Found)
			logic += tc.LogicCount()
		}
		row = append(row, fmt.Sprintf("%d (%d)", total, logic))
		rows = append(rows, row)
	}
	writeTable(w, []string{"Tester", "Neo4j", "Memgraph", "FalkorDB", "Total"}, rows)
	return out
}

// FalseAlarms reproduces the §5.4.3 false-positive analysis: GDsmith
// differentially comparing the Neo4j and Memgraph simulacra (both healthy
// graphs, real dialect differences) over a budget of rounds.
func FalseAlarms(w io.Writer, rounds int, seed int64) (reports, falsePositives int) {
	tester := baselines.NewGDsmith()
	tc, err := RunBaselineCampaign(tester, "neo4j", rounds, seed)
	if err != nil {
		fmt.Fprintf(w, "error: %v\n", err)
		return 0, 0
	}
	reports = len(tc.Found) + tc.FalsePositives
	falsePositives = tc.FalsePositives
	fmt.Fprintf(w, "GDsmith false alarms: %d reports over %d rounds, %d false positives (%.0f%%)\n",
		reports, rounds, falsePositives, 100*float64(falsePositives)/float64(max(reports, 1)))
	fmt.Fprintln(w, "(paper: 1192 reports, 1160 false positives, ~98%)")
	return
}

// Bench helpers used by the root benchmark suite.

// QuickCampaign runs a small fixed campaign (for benchmarks).
func QuickCampaign(seed int64, iterations int) *Campaign {
	cfg := DefaultCampaignConfig()
	cfg.Seed = seed
	cfg.Iterations = iterations
	return RunGQSCampaign(cfg)
}

// SortedBugIDs lists the distinct bug IDs of a campaign.
func (c *Campaign) SortedBugIDs() []string {
	var ids []string
	for _, f := range c.Findings {
		ids = append(ids, f.Bug.ID)
	}
	sort.Strings(ids)
	return ids
}
