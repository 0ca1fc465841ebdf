package core

import (
	"sync/atomic"

	"gqs/internal/graph"
)

// SnapshotShare dedups the per-iteration graph, and its sealed
// snapshot, across every executor pass that runs the same logical
// shards. A sharded campaign validates each generated graph against
// several GDB targets in sequential per-target legs, and shard i's graph
// is identical in every leg by construction: the generation draws come
// first in the shard's RNG stream, whose seed depends only on (campaign
// seed, i). Without sharing, each leg would regenerate and re-seal that
// graph and the engine rebuild the snapshot's per-schema index cache
// from scratch — len(targets) generations, seals and index builds per
// shard where one of each suffices.
//
// The share holds one slot per logical shard. The first resolver to
// reach shard i generates its graph, seals it and publishes the (graph,
// schema, snapshot) triple together with the number of source draws the
// generation took. A later resolver does not generate at all: it adopts
// the published triple and advances its RNG source by that count, which
// leaves its stream exactly where its own generation would have left it.
// Adopting the *same schema pointer* matters: graph.Snapshot caches
// index builds per (snapshot, schema) identity, so sharing the triple
// makes every later leg's index lookup a cache hit.
//
// Slots are published with a CAS and released after ExpectedUses
// resolves, bounding the share's live-graph footprint to the shards
// still in flight once the last leg passes them; a resolver that finds a
// slot already released generates and publishes it again. Concurrent
// resolvers of the same shard are safe (the CAS loser adopts the
// winner's triple, or seals its own if the slot was already released —
// identical content either way), though the campaign executor never
// produces that case: legs run sequentially and shards within a leg are
// disjoint.
type SnapshotShare struct {
	uses  int32
	slots []atomic.Pointer[sharedIteration]
}

type sharedIteration struct {
	g      *graph.Graph
	schema *graph.Schema
	snap   *graph.Snapshot
	// draws is the number of source draws generating g took.
	draws int
	uses  atomic.Int32
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

// slot returns shard's slot, nil for a nil share or a shard outside it.
func (s *SnapshotShare) slot(shard int) *atomic.Pointer[sharedIteration] {
	if s == nil || shard < 0 || shard >= len(s.slots) {
		return nil
	}
	return &s.slots[shard]
}

// adopt returns the triple published for shard and the number of source
// draws generating it took, and counts the use; ok is false when there
// is none to adopt (a nil share, a shard outside it, a slot not yet
// published or already released), and the caller must generate.
func (s *SnapshotShare) adopt(shard int) (it *sharedIteration, ok bool) {
	slot := s.slot(shard)
	if slot == nil {
		return nil, false
	}
	if it = slot.Load(); it == nil {
		return nil, false
	}
	s.use(slot, it)
	return it, true
}

// publish seals the caller's freshly generated g and publishes it for
// shard with the draws its generation took, unless a concurrent resolver
// published first, whose triple it adopts instead; a nil share, or a
// shard outside it, just seals g. The caller must have generated g from
// the shard's own RNG stream: the triple is shareable only because that
// makes it content-identical across callers.
func (s *SnapshotShare) publish(shard int, g *graph.Graph, schema *graph.Schema, draws int) *sharedIteration {
	fresh := &sharedIteration{g: g, schema: schema, snap: g.Seal(), draws: draws}
	slot := s.slot(shard)
	if slot == nil {
		return fresh
	}
	cur := fresh
	if !slot.CompareAndSwap(nil, fresh) {
		if cur = slot.Load(); cur == nil {
			// Lost the CAS and the winner's slot was already released:
			// keep the private seal.
			return fresh
		}
	}
	s.use(slot, cur)
	return cur
}

// use counts one resolve of the slot's triple, freeing the slot at the
// last expected use.
func (s *SnapshotShare) use(slot *atomic.Pointer[sharedIteration], it *sharedIteration) {
	if s.uses > 0 && it.uses.Add(1) >= s.uses {
		slot.Store(nil) // last expected use: free the shard's graph early
	}
}
