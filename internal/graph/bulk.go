package graph

import (
	"math/rand"

	"gqs/internal/value"
)

// Bulk graph generation: the large-graph leg of the campaign harness.
// Where the paper's generator builds ~13-node graphs one element at a
// time (NewNode/NewRel maintaining adjacency incrementally, the store
// indexing per element), generateBulk writes a Scale-node graph
// straight into presized tables and carves all adjacency lists from two
// shared backing arrays in one counting pass. No per-element index
// churn happens at all: label/property indexes and the adjacency index
// are each built exactly once when the graph is sealed and first read.
//
// Relationship endpoints are drawn by preferential attachment — every
// accepted endpoint re-enters the draw pool — so degree follows a
// power law: a few hub nodes collect thousands of relationships while
// the median node keeps a handful. That skew is what gives the
// adjacency index something to beat the scan on (a typed expansion
// from a hub touches the matching bucket, not the hub's whole list),
// and mirrors the degree structure of the production graphs the
// related work benchmarks against. Relationship types are Zipf-skewed
// for the same reason: rare types make typed expansion maximally
// selective.

// bulkRelFactor is the default relationships-per-node ratio when
// MaxRels does not cover Scale.
const bulkRelFactor = 3

// bulkTypeSkew is the Zipf exponent of the relationship-type
// distribution (s > 1 required by rand.NewZipf).
const bulkTypeSkew = 1.5

// generateBulk builds the Scale-node power-law graph. Deterministic for
// a given rand source, like Generate.
func generateBulk(r *rand.Rand, cfg GenConfig) (*Graph, *Schema) {
	cfg = cfg.withDefaults()
	nNodes := cfg.Scale
	if nNodes < 2 {
		nNodes = 2
	}
	nRels := cfg.MaxRels
	if nRels < nNodes {
		nRels = bulkRelFactor * nNodes
	}

	s := newSchema()
	// One declared index per label over k0. Every node carries k0 = id,
	// so any node is reachable through a selective probe — the bench's
	// anchored per-hop queries rely on this.
	for _, l := range s.Labels {
		s.Indexes = append(s.Indexes, IndexSpec{Label: l, Property: "k0"})
	}

	g := &Graph{
		nodes: make(map[ID]*Node, nNodes),
		rels:  make(map[ID]*Rel, nRels),
		out:   make(map[ID][]ID, nNodes),
		in:    make(map[ID][]ID, nNodes),
	}
	// Nodes 0..nNodes-1: one label, props id + k0 (both the element ID,
	// k0 being the indexed probe key). Node structs and their one-label
	// slices come from two batch allocations — at bulk scale, per-element
	// allocation is the dominant generation cost. The structs are safe to
	// share a backing array: overlay mutation copies elements before
	// writing (MutableNode), never in place.
	nodeArr := make([]Node, nNodes)
	labelArr := make([]string, nNodes)
	for i := 0; i < nNodes; i++ {
		id := ID(i)
		labelArr[i] = s.Labels[r.Intn(len(s.Labels))]
		n := &nodeArr[i]
		n.ID = id
		n.Labels = labelArr[i : i+1 : i+1]
		n.Props = make(map[string]value.Value, 2)
		n.Props["id"] = value.Int(int64(id))
		n.Props["k0"] = value.Int(int64(id))
		g.nodes[id] = n
	}

	// Endpoint draws: Barabási–Albert-style arrival. Relationships are
	// distributed evenly over nodes in ID order; each attaches its
	// arriving node to an endpoint drawn from the pool of all previous
	// endpoints (seeded with node 0), and both endpoints re-enter the
	// pool, so early nodes accumulate degree ~ √(N/i) — genuine
	// power-law hubs. Orientation is randomized per relationship so
	// hubs grow both in- and out-degree. Colliding endpoints become
	// self-loops or are redirected, as in the small generator.
	pool := make([]ID, 1, 1+2*nRels)
	zipf := rand.NewZipf(r, bulkTypeSkew, 1, uint64(len(s.RelTypes)-1))
	starts := make([]ID, nRels)
	ends := make([]ID, nRels)
	typs := make([]string, nRels)
	outDeg := make([]int32, nNodes)
	inDeg := make([]int32, nNodes)
	for i := 0; i < nRels; i++ {
		a := ID(1 + i*(nNodes-1)/nRels)
		b := pool[r.Intn(len(pool))]
		if a == b && r.Intn(100) >= cfg.SelfLoopPercent {
			b = ID((int(b) + 1) % nNodes)
		}
		if r.Intn(2) == 1 {
			a, b = b, a
		}
		pool = append(pool, a, b)
		starts[i], ends[i] = a, b
		typs[i] = s.RelTypes[zipf.Uint64()]
		outDeg[a]++
		inDeg[b]++
	}

	// Adjacency fill: prefix-sum offsets carve every node's out/in list
	// from one backing array per direction. Filling in relationship-ID
	// order keeps each list ascending in rel ID, exactly the invariant
	// incremental NewRel maintains. The three-index slice expressions
	// clamp capacity so a later overlay append can never clobber a
	// neighbour's list.
	outOff := make([]int32, nNodes+1)
	inOff := make([]int32, nNodes+1)
	for i := 0; i < nNodes; i++ {
		outOff[i+1] = outOff[i] + outDeg[i]
		inOff[i+1] = inOff[i] + inDeg[i]
	}
	outBack := make([]ID, nRels)
	inBack := make([]ID, nRels)
	outPos := make([]int32, nNodes)
	inPos := make([]int32, nNodes)
	copy(outPos, outOff[:nNodes])
	copy(inPos, inOff[:nNodes])
	relArr := make([]Rel, nRels)
	for i := 0; i < nRels; i++ {
		rid := ID(nNodes + i)
		a, b := starts[i], ends[i]
		rel := &relArr[i]
		rel.ID, rel.Type, rel.Start, rel.End = rid, typs[i], a, b
		// No relationship properties: at bulk scale the per-rel map is
		// the single most expensive allocation, and property ground
		// truth on large graphs comes from nodes (the sampled selector
		// skips prop-less elements). Writes still work — the COW copy
		// materializes an empty map.
		g.rels[rid] = rel
		outBack[outPos[a]] = rid
		outPos[a]++
		inBack[inPos[b]] = rid
		inPos[b]++
	}
	for i := 0; i < nNodes; i++ {
		if outDeg[i] > 0 {
			g.out[ID(i)] = outBack[outOff[i]:outOff[i+1]:outOff[i+1]]
		}
		if inDeg[i] > 0 {
			g.in[ID(i)] = inBack[inOff[i]:inOff[i+1]:inOff[i+1]]
		}
	}
	g.nextID = ID(nNodes + nRels)
	g.numNodes = nNodes
	g.numRels = nRels
	return g, s
}
