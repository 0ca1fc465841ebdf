package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"gqs/internal/core"
	"gqs/internal/engine"
	"gqs/internal/gdb"
	"gqs/internal/graph"
)

// tracedTarget wraps a connector built by gdb.NewFactory and records a
// span around every ResetSnapshot and ExecutePrepared. Everything else —
// TriggeredBug, the dialect getters, Close — is the embedded connector's
// own method, and SeedShard is forwarded explicitly, so the executor's
// connector reuse and fault attribution are the same as without the
// wrapper.
type tracedTarget struct {
	gdb.Connector
	tr       *Tracer
	execErrs *atomic.Int64

	mu      sync.Mutex
	shard   int
	pending []pendingSpan
}

// pendingSpan is a recorded span still waiting for the query span (or
// the leg span) that caused it.
type pendingSpan struct {
	id    int
	start time.Time
}

func newTracedTarget(c gdb.Connector, shard int, tr *Tracer, execErrs *atomic.Int64) *tracedTarget {
	return &tracedTarget{Connector: c, tr: tr, shard: shard, execErrs: execErrs}
}

// SeedShard forwards the executor's per-shard reseed and remembers the
// shard for the spans that follow.
func (t *tracedTarget) SeedShard(shard int) {
	t.mu.Lock()
	t.shard = shard
	t.mu.Unlock()
	t.Connector.(core.ShardSeeder).SeedShard(shard)
}

func (t *tracedTarget) ResetSnapshot(snap *graph.Snapshot, schema *graph.Schema) error {
	start := time.Now()
	err := t.Connector.ResetSnapshot(snap, schema)
	t.record("gdb.reset", start)
	return err
}

func (t *tracedTarget) ExecutePrepared(ctx context.Context, pq *engine.PreparedQuery) (*engine.Result, error) {
	start := time.Now()
	res, err := t.Connector.ExecutePrepared(ctx, pq)
	t.record("engine.exec", start)
	if err != nil {
		t.execErrs.Add(1)
	}
	return res, err
}

func (t *tracedTarget) record(name string, start time.Time) {
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.tr.Add(name, start, end, -1, t.shard)
	t.pending = append(t.pending, pendingSpan{id: id, start: start})
}

// take splits the pending spans into those that started at or after
// from (children of the query that just ended) and the rest (the
// iteration's initial reset, a child of the leg).
func (t *tracedTarget) take(from time.Time) (inside, before []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range t.pending {
		if p.start.Before(from) {
			before = append(before, p.id)
		} else {
			inside = append(inside, p.id)
		}
	}
	t.pending = t.pending[:0]
	return inside, before
}
