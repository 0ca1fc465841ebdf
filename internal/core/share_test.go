package core

import (
	"fmt"
	"strings"
	"testing"

	"gqs/internal/graph"
)

// legTrace runs one leg over shards 0..n-1 of seed on a fresh runner with
// the share installed (nil for none), as the executor runs a worker's
// shards, and returns per shard the trace of its test cases followed by
// the runner's next five draws, and the graph the iteration used.
func legTrace(seed int64, n int, share *SnapshotShare) ([]string, []*graph.Graph) {
	cfg := shardTestConfig().Runner
	cfg.Graph = graph.GenConfig{MaxNodes: 13, MaxRels: 60}
	rn := NewRunner(nil, cfg)
	traces, graphs := make([]string, n), make([]*graph.Graph, n)
	for shard := 0; shard < n; shard++ {
		rn.startShard(newRefTarget(nil), ShardSeed(seed, shard), share, shard)
		var sb strings.Builder
		rn.RunIteration(func(tc *TestCase) {
			fmt.Fprintf(&sb, "%d %v %v %d\n%s\n", tc.Seq, tc.Verdict, tc.Err, tc.Steps, tc.Query)
			if tc.Expected != nil {
				fmt.Fprintf(&sb, "%q\n", tc.Expected.Canonical())
			}
			graphs[shard] = tc.Graph
		})
		fmt.Fprintf(&sb, "next draws %d %d %d %d %d", rn.r.Int63(), rn.r.Int63(), rn.r.Int63(), rn.r.Int63(), rn.r.Int63())
		traces[shard] = sb.String()
	}
	return traces, graphs
}

// TestShareAdoptionKeepsDrawStream: a leg that adopts the graphs another
// leg published skips their generation, and must still run exactly the
// test cases of a runner without a share, with its RNG stream left at the
// same draw after every iteration. The legs run over a share that
// expects two uses per shard: the first leg generates and publishes, the
// second adopts and releases the slots, and the third finds them
// released and generates (and publishes) again.
func TestShareAdoptionKeepsDrawStream(t *testing.T) {
	const seed, shards = 5, 6
	want, _ := legTrace(seed, shards, nil)
	share := NewSnapshotShare(shards, 2)
	legs := []string{"publishing", "adopting", "after release"}
	var published []*graph.Graph
	for leg, name := range legs {
		got, graphs := legTrace(seed, shards, share)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s leg, shard %d: differs from a runner without a share:\n got  %s\n want %s", name, i, got[i], want[i])
			}
			switch {
			case graphs[i] == nil:
				t.Fatalf("%s leg, shard %d: ran no test case", name, i)
			case leg == 0:
				published = append(published, graphs[i])
			case leg == 1 && graphs[i] != published[i]:
				t.Errorf("adopting leg, shard %d: generated its graph instead of adopting the published one", i)
			case leg == 2 && graphs[i] == published[i]:
				t.Errorf("leg after release, shard %d: adopted a released slot", i)
			}
		}
	}
}
