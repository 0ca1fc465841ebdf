package core

import (
	"sync/atomic"

	"gqs/internal/graph"
)

// SnapshotShare dedups the per-iteration sealed graph snapshot across
// every executor pass that runs the same logical shards. A sharded
// campaign validates each generated graph against several GDB targets
// in sequential per-target legs, and shard i's graph is identical in
// every leg by construction: the generation draws come first in the
// shard's RNG stream, whose seed depends only on (campaign seed, i).
// Without sharing, each leg re-seals the graph it just generated and
// the engine rebuilds the snapshot's per-schema index cache from
// scratch — len(targets) seals and index builds per shard where one of
// each suffices.
//
// The share holds one slot per logical shard. The first resolver to
// reach shard i seals its freshly generated graph and publishes the
// (graph, schema, snapshot) triple; later resolvers discard their own
// generation result — content-identical by the determinism contract —
// and adopt the published triple. Adopting the *same schema pointer*
// matters: graph.Snapshot caches index builds per (snapshot, schema)
// identity, so sharing the triple makes every later leg's index lookup
// a cache hit.
//
// Slots are published with a CAS and released after ExpectedUses
// resolves, bounding the share's live-graph footprint to the shards
// still in flight once the last leg passes them. Concurrent resolvers
// of the same shard are safe (the CAS loser adopts the winner's triple,
// or re-seals if the slot was already released — identical content
// either way), though the campaign executor never produces that case:
// legs run sequentially and shards within a leg are disjoint.
type SnapshotShare struct {
	uses  int32
	slots []atomic.Pointer[sharedIteration]
}

type sharedIteration struct {
	g      *graph.Graph
	schema *graph.Schema
	snap   *graph.Snapshot
	uses   atomic.Int32
}

// NewSnapshotShare creates a share for a campaign of `iterations`
// logical shards whose every shard will be resolved `expectedUses`
// times (once per target leg). expectedUses ≤ 0 disables slot release
// (slots stay live for the share's lifetime).
func NewSnapshotShare(iterations, expectedUses int) *SnapshotShare {
	if iterations <= 0 {
		iterations = 0
	}
	return &SnapshotShare{
		uses:  int32(expectedUses),
		slots: make([]atomic.Pointer[sharedIteration], iterations),
	}
}

// resolve returns the canonical (graph, schema, snapshot) triple for
// shard, publishing the caller's freshly generated g/schema (sealed) if
// the slot is empty; a nil share, or a shard outside it, just seals g.
// The caller must have generated g/schema from the shard's own RNG
// stream — the triple is only shareable because that makes it
// content-identical across callers.
func (s *SnapshotShare) resolve(shard int, g *graph.Graph, schema *graph.Schema) (*graph.Graph, *graph.Schema, *graph.Snapshot) {
	if s == nil || shard < 0 || shard >= len(s.slots) {
		return g, schema, g.Seal()
	}
	slot := &s.slots[shard]
	cur := slot.Load()
	if cur == nil {
		fresh := &sharedIteration{g: g, schema: schema, snap: g.Seal()}
		if slot.CompareAndSwap(nil, fresh) {
			cur = fresh
		} else if cur = slot.Load(); cur == nil {
			// Lost the CAS and the winner's slot was already released:
			// fall back to the private seal.
			return fresh.g, fresh.schema, fresh.snap
		}
	}
	if s.uses > 0 && cur.uses.Add(1) >= s.uses {
		slot.Store(nil) // last expected use: free the shard's graph early
	}
	return cur.g, cur.schema, cur.snap
}
