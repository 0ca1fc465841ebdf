package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload at tiny sizes, untraced and
// traced, and checks that it passes its own correctness checks, reports
// every end-to-end metric as a positive number, and writes its spans.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			dir := t.TempDir()
			o := Options{
				Seed: 3, Window: 50 * time.Millisecond, Trace: trace, Tiny: true,
				WorkDir: dir, SpansPath: filepath.Join(dir, "spans.json"),
			}
			res, err := workloads[name](o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			for _, c := range res.checks {
				if !c.ok {
					t.Errorf("%s trace=%v: check %s failed: %s", name, trace, c.name, c.detail)
				}
			}
			if !res.Correct() || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d",
					name, trace, res.Correct(), res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
				if _, err := os.Stat(o.SpansPath); err != nil {
					t.Errorf("%s: no spans file: %v", name, err)
				}
			} else {
				for _, d := range endToEnd {
					if res.values[d.name] <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, d.name, res.values[d.name])
					}
				}
			}
			line, err := res.JSON(defs)
			if err != nil {
				t.Fatal(err)
			}
			var out map[string]json.RawMessage
			if err := json.Unmarshal(line, &out); err != nil || len(out) != 4 {
				t.Fatalf("%s: result line %s", name, line)
			}
		}
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json at the
// repository root in step with the metrics the command prints.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s %s, the command %s %s",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown to the command", w.Name)
		}
	}
}
