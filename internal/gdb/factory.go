package gdb

import (
	"gqs/internal/functions"
)

// FactoryConfig configures NewFactory.
type FactoryConfig struct {
	// GDB is the simulated system to build ("neo4j", "memgraph", "kuzu",
	// "falkordb", "reference").
	GDB string
	// Live makes injected faults manifest for real in every instance
	// (hangs block, crashes panic); see Sim.SetLiveFaults.
	Live bool
	// FlakyRate wraps every instance in a transient-fault injector
	// dropping this fraction of calls (0 disables).
	FlakyRate float64
	// Seed is the campaign seed; each shard's flaky injector derives its
	// own stream from (Seed, shard), so the injected-failure sequence of
	// shard i is the same no matter how many workers run the campaign.
	Seed int64
}

// reusable is the connector NewFactory returns: the simulacrum
// (optionally flaky-wrapped) plus the campaign seed, so every per-shard
// deterministic stream can be re-derived in place. It implements
// SeedShard, the optional interface the parallel executor uses to reuse
// one connector across the successive shards a worker drains, instead of
// constructing a fresh engine + fault catalog per shard.
type reusable struct {
	Connector
	sim   *Sim
	flaky *Flaky // nil when FlakyRate is 0
	seed  int64  // campaign seed
}

// SeedShard re-derives the per-shard deterministic state: the engine's
// rand()/timestamp() stream (including its execution counter) and, when
// present, the flaky injector's failure stream. After SeedShard(i) the
// connector behaves byte-identically to a freshly built factory(i)
// instance — the graph itself is installed by the runner's per-iteration
// Reset, so no stale store state can leak between shards.
func (c *reusable) SeedShard(shard int) {
	c.sim.eng.SetSeed(functions.DeriveSeed(c.seed, int64(shard)))
	if c.flaky != nil {
		c.flaky.reseed(functions.DeriveSeed(c.seed+0x5eed, int64(shard)))
	}
}

// NewFactory returns a connector factory for parallel campaign shards.
// Every call builds an independent simulacrum — its own engine, store,
// and fault catalog — so no mutable state is ever shared across the
// goroutines of a worker pool; the optional Flaky wrapper is seeded per
// shard for worker-count-independent determinism. The returned
// connectors also implement SeedShard (see reusable), letting a worker
// amortize one construction over all the shards it runs.
func NewFactory(cfg FactoryConfig) func(shard int) (Connector, error) {
	return func(shard int) (Connector, error) {
		sim, err := ByName(cfg.GDB)
		if err != nil {
			return nil, err
		}
		sim.SetLiveFaults(cfg.Live)
		c := &reusable{Connector: sim, sim: sim, seed: cfg.Seed}
		if cfg.FlakyRate > 0 {
			c.flaky = NewFlaky(sim, FlakyConfig{
				ErrorRate:      cfg.FlakyRate,
				ResetErrorRate: cfg.FlakyRate / 2,
			})
			c.Connector = c.flaky
		}
		// Per-shard engine seed keeps rand()/timestamp() streams
		// independent across shards and reproducible per campaign seed.
		c.SeedShard(shard)
		return c, nil
	}
}
