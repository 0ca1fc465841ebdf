// Command gqs-bench regenerates the tables and figures of the paper's
// evaluation section against the simulated GDBs.
//
// Usage:
//
//	gqs-bench -exp all
//	gqs-bench -exp table5 -n 10000
//	gqs-bench -exp table6 -rounds 500
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"gqs/internal/experiments"
)

// experimentNames lists every -exp value besides "all".
var experimentNames = []string{
	"table2", "table3", "table4", "table5", "table6",
	"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig18",
	"replay", "falsealarms", "ablation",
}

// validate rejects an unknown experiment and negative counts, which
// would otherwise print nothing or all-zero tables and exit 0; main
// reports them like a flag parse error (message on stderr, exit code 2).
func validate(exp string, iterations, n, rounds int) error {
	if exp != "all" && !slices.Contains(experimentNames, exp) {
		return fmt.Errorf("unknown experiment %q (want %s, or all)", exp, strings.Join(experimentNames, ", "))
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"iterations", iterations}, {"n", n}, {"rounds", rounds}} {
		if f.v < 0 {
			return fmt.Errorf("invalid value %d for flag -%s: must not be negative", f.v, f.name)
		}
	}
	return nil
}

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: "+strings.Join(experimentNames, ", ")+", or all")
		seed       = flag.Int64("seed", 1, "random seed")
		iterations = flag.Int("iterations", 60, "GQS campaign iterations per GDB (table3/table4/replay/fig10-15)")
		n          = flag.Int("n", 2000, "queries per tester for table5 (paper: 10000)")
		rounds     = flag.Int("rounds", 400, "oracle rounds per tester per GDB for table6/fig18")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (after the selected experiments) to this file")
	)
	flag.Parse()
	if err := validate(*exp, *iterations, *n, *rounds); err != nil {
		fmt.Fprintf(os.Stderr, "gqs-bench: %v\n", err)
		os.Exit(2)
	}
	w := os.Stdout

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gqs-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "gqs-bench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gqs-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "gqs-bench: %v\n", err)
			}
		}()
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }

	if want("table2") {
		experiments.Table2(w)
		fmt.Fprintln(w)
	}

	var campaign *experiments.Campaign
	needCampaign := want("table3") || want("table4") || want("replay") ||
		want("fig10") || want("fig11") || want("fig12") || want("fig13") ||
		want("fig14") || want("fig15")
	if needCampaign {
		cfg := experiments.DefaultCampaignConfig()
		cfg.Seed = *seed
		cfg.Iterations = *iterations
		if want("table3") {
			campaign = experiments.Table3(w, cfg)
			fmt.Fprintln(w)
		} else {
			campaign = experiments.RunGQSCampaign(cfg)
		}
	}
	if want("table4") {
		experiments.Table4(w, campaign)
		fmt.Fprintln(w)
	}
	if want("replay") || want("table4") {
		experiments.OracleReplay(w, campaign)
		fmt.Fprintln(w)
	}
	if want("table5") {
		experiments.Table5(w, *n, *seed)
		fmt.Fprintln(w)
	}
	var t6 map[string]map[string]*experiments.TesterCampaign
	if want("table6") || want("fig18") {
		t6 = experiments.Table6(w, *rounds, *seed)
		fmt.Fprintln(w)
	}
	if want("fig10") {
		experiments.Fig10(w, campaign)
		fmt.Fprintln(w)
	}
	if want("fig11") {
		experiments.Fig11(w, campaign)
		fmt.Fprintln(w)
	}
	if want("fig12") {
		experiments.Fig12(w, campaign)
		fmt.Fprintln(w)
	}
	if want("fig13") {
		experiments.Fig13(w, campaign)
		fmt.Fprintln(w)
	}
	if want("fig14") {
		experiments.Fig14(w, campaign)
		fmt.Fprintln(w)
	}
	if want("fig15") {
		experiments.Fig15(w, campaign)
		fmt.Fprintln(w)
	}
	if want("fig18") {
		experiments.Fig18(w, t6, *rounds)
		fmt.Fprintln(w)
	}
	if want("ablation") {
		experiments.Ablation(w, 10, *seed)
		fmt.Fprintln(w)
	}
	if want("falsealarms") {
		experiments.FalseAlarms(w, *rounds, *seed)
		fmt.Fprintln(w)
	}
}
