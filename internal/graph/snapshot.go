package graph

import (
	"slices"
	"sync"
)

// Snapshot is an immutable, shareable view of one graph state: the node,
// relationship, and adjacency tables frozen by Seal, plus the precomputed
// ascending ID lists every full scan reads for free. Nothing in a
// snapshot is mutated after Seal returns, so any number of overlay graphs
// (FromSnapshot) — and the stores and engines above them — can read one
// snapshot concurrently. This is the paper-harness analogue of restoring
// the database between oracle checks without reloading it: all five
// simulated GDBs of one campaign iteration share a single snapshot and
// each pays only for the entries it writes.
type Snapshot struct {
	nodes map[ID]*Node
	rels  map[ID]*Rel
	out   map[ID][]ID
	in    map[ID][]ID
	// nextID is the ID counter at seal time; overlay graphs start their
	// counter here so newly created element IDs never collide with base
	// IDs (the counter is monotonic and IDs are never reused).
	nextID ID
	// nodeIDs/relIDs are the ascending ID lists, computed once at Seal so
	// every AllNodesScan on every sharing store is allocation-free.
	nodeIDs []ID
	relIDs  []ID

	// idx caches one label/property index per schema, built on first
	// request and shared by every store loaded from this snapshot.
	mu  sync.Mutex
	idx map[*Schema]*Index

	// adj caches the adjacency index (schema-independent), built on
	// first request — see AdjIndex in adjindex.go.
	adjOnce sync.Once
	adj     *AdjIndex
}

// NumNodes returns the number of nodes in the snapshot.
func (s *Snapshot) NumNodes() int { return len(s.nodes) }

// NumRels returns the number of relationships in the snapshot.
func (s *Snapshot) NumRels() int { return len(s.rels) }

// NodeIDs returns all node IDs ascending. The slice is shared and
// read-only.
func (s *Snapshot) NodeIDs() []ID { return s.nodeIDs }

// RelIDs returns all relationship IDs ascending. The slice is shared and
// read-only.
func (s *Snapshot) RelIDs() []ID { return s.relIDs }

// Node returns the snapshot's node with the given ID, or nil. The node is
// shared and must not be mutated; writers go through an overlay graph's
// MutableNode.
func (s *Snapshot) Node(id ID) *Node { return s.nodes[id] }

// Rel returns the snapshot's relationship with the given ID, or nil
// (shared, read-only).
func (s *Snapshot) Rel(id ID) *Rel { return s.rels[id] }

// Index returns the label/property index of this snapshot under the
// given schema, building it on the first request and caching it per
// schema pointer, so all stores sharing the snapshot share one index
// build. Safe for concurrent use.
func (s *Snapshot) Index(schema *Schema) *Index {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ix, ok := s.idx[schema]; ok {
		return ix
	}
	ix := BuildIndex(s.nodeIDs, func(id ID) *Node { return s.nodes[id] }, schema)
	if s.idx == nil {
		s.idx = make(map[*Schema]*Index, 1)
	}
	s.idx[schema] = ix
	return ix
}

// Seal freezes the graph's current contents into a Snapshot and converts
// the graph itself into an overlay over it, so g stays fully readable
// (and writable) afterwards. The data maps are adopted, not copied; Seal
// is O(n) only in sorting the ID lists. Sealing an overlay graph whose
// overlay is empty returns the existing base unchanged; a diverged
// overlay is materialized first. After Seal the snapshot is immutable —
// the usual ownership contract (mutate only through the owning store)
// is what keeps later writers honest.
func (g *Graph) Seal() *Snapshot {
	if g.base != nil {
		if len(g.nodes) == 0 && len(g.rels) == 0 && len(g.out) == 0 && len(g.in) == 0 {
			return g.base
		}
		*g = *g.Clone()
	}
	s := &Snapshot{
		nodes:   g.nodes,
		rels:    g.rels,
		out:     g.out,
		in:      g.in,
		nextID:  g.nextID,
		nodeIDs: sortedKeys(g.nodes),
		relIDs:  sortedKeys(g.rels),
	}
	g.base = s
	g.nodes = make(map[ID]*Node)
	g.rels = make(map[ID]*Rel)
	g.out = make(map[ID][]ID)
	g.in = make(map[ID][]ID)
	return s
}

// FromSnapshot returns a new overlay graph over the snapshot: an O(1)
// logical copy. Writes copy individual entries into the overlay (see
// MutableNode/MutableRel); ResetToBase drops them again.
func FromSnapshot(s *Snapshot) *Graph {
	return &Graph{
		base:     s,
		nodes:    make(map[ID]*Node),
		rels:     make(map[ID]*Rel),
		out:      make(map[ID][]ID),
		in:       make(map[ID][]ID),
		nextID:   s.nextID,
		numNodes: len(s.nodes),
		numRels:  len(s.rels),
	}
}

// ResetToBase discards every overlay entry, restoring the graph to the
// exact state of its base snapshot: O(size of the overlay), zero
// allocations, no per-element copying. Returns false (and does nothing)
// when the graph has no base.
func (g *Graph) ResetToBase() bool {
	if g.base == nil {
		return false
	}
	clear(g.nodes)
	clear(g.rels)
	clear(g.out)
	clear(g.in)
	g.nextID = g.base.nextID
	g.numNodes = len(g.base.nodes)
	g.numRels = len(g.base.rels)
	g.cow = COWStats{}
	return true
}

// Rebase discards every overlay entry and makes the graph an empty
// overlay over s, as FromSnapshot(s) would return, reusing its overlay
// maps. Returns false (and does nothing) when the graph has no base: a
// plain graph's maps hold its data, not an overlay.
func (g *Graph) Rebase(s *Snapshot) bool {
	if g.base == nil {
		return false
	}
	g.base = s
	return g.ResetToBase()
}

// Base returns the snapshot this graph overlays, or nil for a plain
// graph.
func (g *Graph) Base() *Snapshot { return g.base }

func sortedKeys[E any](m map[ID]*E) []ID {
	ids := make([]ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}
