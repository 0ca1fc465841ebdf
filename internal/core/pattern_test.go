package core

import (
	"math/rand"
	"testing"

	"gqs/internal/graph"
)

// lineGraph builds a simple path graph n0 -> n1 -> ... -> n(k-1).
func lineGraph(k int) *graph.Graph {
	g := graph.New()
	var prev *graph.Node
	for i := 0; i < k; i++ {
		n := g.NewNode("L")
		if prev != nil {
			g.NewRel(prev.ID, n.ID, "T")
		}
		prev = n
	}
	return g
}

func TestBFSPathFindsShortestWalk(t *testing.T) {
	g := lineGraph(5)
	ids := g.NodeIDs()
	var cs chainScratch
	p := cs.bfsPath(g, ids[0], ids[4], nil)
	if p == nil {
		t.Fatal("no path found on a line graph")
	}
	if len(p.Nodes) != 5 || len(p.Steps) != 4 {
		t.Fatalf("path shape: %d nodes, %d steps", len(p.Nodes), len(p.Steps))
	}
	for _, s := range p.Steps {
		if !s.Forward {
			t.Error("line graph walk must be all-forward")
		}
	}
	// Reverse direction works via incoming relationships.
	p = cs.bfsPath(g, ids[4], ids[0], nil)
	if p == nil || len(p.Steps) != 4 || p.Steps[0].Forward {
		t.Fatalf("reverse path broken: %+v", p)
	}
	// Avoided relationships make the target unreachable.
	if cs.bfsPath(g, ids[0], ids[4], g.RelIDs()) != nil {
		t.Error("avoid set must block the path")
	}
	// Start == target.
	p = cs.bfsPath(g, ids[2], ids[2], nil)
	if p == nil || len(p.Steps) != 0 {
		t.Error("trivial path broken")
	}
}

func TestCollectChainsCoversRequired(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for trial := 0; trial < 50; trial++ {
		g, _ := graph.Generate(r, graph.GenConfig{MaxNodes: 8, MaxRels: 25})
		var required []elemRef
		nodes, rels := g.NodeIDs(), g.RelIDs()
		for i := 0; i < 2 && i < len(nodes); i++ {
			required = append(required, elemRef{id: nodes[r.Intn(len(nodes))]})
		}
		for i := 0; i < 2 && i < len(rels); i++ {
			required = append(required, elemRef{id: rels[r.Intn(len(rels))], isRel: true})
		}
		var cs chainScratch
		chains := cs.collectChains(r, g, required)
		for _, e := range required {
			found := false
			for _, c := range chains {
				if (e.isRel && c.hasRel(e.id)) || (!e.isRel && c.indexOfNode(e.id) >= 0) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("trial %d: required element %+v not covered", trial, e)
			}
		}
		// Relationships are never repeated within one clause's chains.
		seen := map[graph.ID]bool{}
		for _, c := range chains {
			for _, s := range c.Steps {
				if seen[s.Rel] {
					t.Fatalf("trial %d: relationship %d repeated across chains", trial, s.Rel)
				}
				seen[s.Rel] = true
			}
		}
		// Chains must be actual walks: each step's relationship connects
		// the adjacent nodes.
		for _, c := range chains {
			for i, s := range c.Steps {
				rel := g.Rel(s.Rel)
				from, to := c.Nodes[i], c.Nodes[i+1]
				okFwd := s.Forward && rel.Start == from && rel.End == to
				okBwd := !s.Forward && rel.End == from && rel.Start == to
				if !okFwd && !okBwd {
					t.Fatalf("trial %d: step %d does not connect its nodes", trial, i)
				}
			}
		}
	}
}

func TestMutateChainsKeepsWalksValid(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	for trial := 0; trial < 80; trial++ {
		g, _ := graph.Generate(r, graph.GenConfig{MaxNodes: 10, MaxRels: 30})
		nodes := g.NodeIDs()
		var hs, cs chainScratch
		req1 := []elemRef{{id: nodes[r.Intn(len(nodes))]}}
		history := hs.collectChains(r, g, req1)
		req2 := []elemRef{{id: nodes[r.Intn(len(nodes))]}}
		base := cs.collectChains(r, g, req2)
		mutated := cs.mutateChains(r, base, history)
		if len(mutated) == 0 {
			t.Fatalf("trial %d: mutation dropped all chains", trial)
		}
		seen := map[graph.ID]bool{}
		for _, c := range mutated {
			for i, s := range c.Steps {
				rel := g.Rel(s.Rel)
				from, to := c.Nodes[i], c.Nodes[i+1]
				okFwd := s.Forward && rel.Start == from && rel.End == to
				okBwd := !s.Forward && rel.End == from && rel.Start == to
				if !okFwd && !okBwd {
					t.Fatalf("trial %d: mutated chain is not a graph walk", trial)
				}
				if seen[s.Rel] {
					t.Fatalf("trial %d: mutated chains repeat relationship %d", trial, s.Rel)
				}
				seen[s.Rel] = true
			}
		}
		// Required coverage survives mutation.
		covered := false
		for _, c := range mutated {
			if c.indexOfNode(req2[0].id) >= 0 {
				covered = true
			}
		}
		if !covered {
			t.Fatalf("trial %d: mutation lost the required element", trial)
		}
	}
}

func TestPathHelpers(t *testing.T) {
	g := lineGraph(4)
	ids := g.NodeIDs()
	var cs chainScratch
	p := cs.bfsPath(g, ids[0], ids[3], nil)
	rev := cs.reverse(p)
	if rev.Nodes[0] != p.Nodes[len(p.Nodes)-1] {
		t.Error("reverse must flip endpoints")
	}
	if rev.Steps[0].Forward == p.Steps[len(p.Steps)-1].Forward {
		t.Error("reverse must flip traversal direction")
	}
	c := cs.clone(p)
	c.Nodes[0] = 999
	if p.Nodes[0] == 999 {
		t.Error("clone must not share node storage")
	}
	left, right := cs.splitAt(p, 2)
	if left.Nodes[len(left.Nodes)-1] != p.Nodes[2] || right.Nodes[0] != p.Nodes[2] {
		t.Error("splitAt endpoints broken")
	}
	if joined := cs.joinAt(left, right); joined == nil || len(joined.Steps) != len(p.Steps) {
		t.Error("joinAt must reassemble the original length")
	}
	if cs.joinAt(right, left) != nil && right.Nodes[len(right.Nodes)-1] != left.Nodes[0] {
		t.Error("joinAt must reject non-matching endpoints")
	}
	if p.indexOfNode(999) != -1 {
		t.Error("indexOfNode missing must be -1")
	}
}

func TestEncodeChainsBindings(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 8, MaxRels: 20})
	syn := NewSynthesizer(r, g, schema, DefaultConfig())
	gt := SelectGroundTruth(r, g, 2)
	syn.reset()
	syn.plan.build(r, g.NodeIDs(), g.RelIDs(), gt)
	var required []elemRef
	for _, o := range syn.plan.Ops {
		if o.Kind == OpAddElem {
			required = append(required, elemRef{id: o.Element, isRel: o.IsRel})
		}
	}
	chains := syn.chains.collectChains(r, g, required)
	enc := syn.encodeChains(chains)
	binding := map[string]graph.ID{}
	for _, cv := range syn.cvars {
		if cv.used {
			binding[cv.name] = cv.ref.id
		}
	}
	// Every named pattern element has a binding consistent with the
	// chain's concrete IDs.
	for _, ec := range enc {
		for i, np := range ec.part.Nodes {
			if np.Variable == "" {
				t.Fatal("encoding must name every node")
			}
			if binding[np.Variable] != ec.nodeIDs[i] {
				t.Fatalf("node var %s bound to %d, chain says %d", np.Variable, binding[np.Variable], ec.nodeIDs[i])
			}
			// Encoded labels must hold on the intended node.
			for _, l := range np.Labels {
				if !g.Node(ec.nodeIDs[i]).HasLabel(l) {
					t.Fatalf("encoded label %s not on node %d", l, ec.nodeIDs[i])
				}
			}
		}
		for i, rp := range ec.part.Rels {
			if binding[rp.Variable] != ec.relIDs[i] {
				t.Fatalf("rel var %s binding mismatch", rp.Variable)
			}
			if len(rp.Types) > 0 && rp.Types[0] != g.Rel(ec.relIDs[i]).Type {
				t.Fatalf("encoded type %s wrong for rel %d", rp.Types[0], ec.relIDs[i])
			}
		}
	}
	// Planned variables are used for planned elements.
	for _, pe := range syn.plan.elems {
		if id, ok := binding[pe.v]; ok && id != pe.ref.id {
			t.Fatalf("planned var %s bound to %d, plan says %d", pe.v, id, pe.ref.id)
		}
	}
}
