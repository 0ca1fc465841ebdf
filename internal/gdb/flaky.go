package gdb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"gqs/internal/engine"
	"gqs/internal/faults"
	"gqs/internal/graph"
)

// TransientError is a connection-level failure — the connection dropped,
// the server was momentarily busy — that says nothing about the query or
// the database's correctness. Retrying the same call may well succeed,
// and a tester must never count one as a bug.
type TransientError struct {
	Reason string
}

func (e *TransientError) Error() string {
	return fmt.Sprintf("transient connector error: %s", e.Reason)
}

// Transient marks the error as retryable; the runner classifies errors
// through this method rather than the concrete type, so user-provided
// connectors can participate by implementing it on their own errors.
func (e *TransientError) Transient() bool { return true }

// IsTransient reports whether err is (or wraps) a transient connector
// error, identified structurally by a `Transient() bool` method.
func IsTransient(err error) bool {
	var tr interface{ Transient() bool }
	return errors.As(err, &tr) && tr.Transient()
}

// transientReasons rotate deterministically through the failure modes a
// flaky network connection produces.
var transientReasons = []string{
	"connection reset by peer",
	"server busy",
	"i/o timeout while reading response header",
}

// FlakyConfig configures the deterministic transient-fault injector.
type FlakyConfig struct {
	// Seed drives the injector's own RNG; the same seed and call
	// sequence reproduce the same injected failures.
	Seed int64
	// ErrorRate is the probability an Execute call fails with a
	// TransientError before reaching the wrapped connector.
	ErrorRate float64
	// ResetErrorRate is the probability a Reset call fails transiently;
	// it exercises the runner's restart-with-backoff path. Zero disables.
	ResetErrorRate float64
}

// Flaky wraps a Connector with deterministic, seeded transient-fault
// injection: some calls fail with a TransientError before reaching the
// wrapped connector. It models the flaky network between a long-running
// fuzzing campaign and its database server, so the harness's
// retry/backoff machinery can be tested without one.
type Flaky struct {
	inner Connector
	cfg   FlakyConfig
	r     *rand.Rand
	// dropped marks that the most recent Execute never reached the inner
	// connector, so its TriggeredBug would be stale.
	dropped bool
}

// NewFlaky wraps a connector in a transient-fault injector.
func NewFlaky(inner Connector, cfg FlakyConfig) *Flaky {
	return &Flaky{inner: inner, cfg: cfg, r: rand.New(rand.NewSource(cfg.Seed))}
}

// Name implements Connector.
func (f *Flaky) Name() string { return f.inner.Name() }

// RelUniqueness implements Connector.
func (f *Flaky) RelUniqueness() bool { return f.inner.RelUniqueness() }

// ProvidesDBLabels implements Connector.
func (f *Flaky) ProvidesDBLabels() bool { return f.inner.ProvidesDBLabels() }

// CancelAware implements Connector: the injector never waits, so the
// wrapper cancels as promptly as its inner connector.
func (f *Flaky) CancelAware() bool { return f.inner.CancelAware() }

// Close implements Connector.
func (f *Flaky) Close() error { return f.inner.Close() }

// TriggeredBug implements Connector; nil when the most recent Execute
// was dropped by the injector (the wrapped connector never saw it).
func (f *Flaky) TriggeredBug() *faults.Bug {
	if f.dropped {
		return nil
	}
	return f.inner.TriggeredBug()
}

// nextReason draws the deterministic failure mode for one injected error.
func (f *Flaky) nextReason() string {
	return transientReasons[f.r.Intn(len(transientReasons))]
}

// Reset implements Connector, failing transiently at ResetErrorRate.
func (f *Flaky) Reset(g *graph.Graph, schema *graph.Schema) error {
	if f.cfg.ResetErrorRate > 0 && f.r.Float64() < f.cfg.ResetErrorRate {
		return &TransientError{Reason: f.nextReason()}
	}
	return f.inner.Reset(g, schema)
}

// ResetSnapshot implements Connector with the same injection policy as
// Reset — one RNG draw per call — so a campaign sees the identical
// injected-failure sequence whichever reset path the runner takes.
func (f *Flaky) ResetSnapshot(snap *graph.Snapshot, schema *graph.Schema) error {
	if f.cfg.ResetErrorRate > 0 && f.r.Float64() < f.cfg.ResetErrorRate {
		return &TransientError{Reason: f.nextReason()}
	}
	return f.inner.ResetSnapshot(snap, schema)
}

// reseed restarts the injector's deterministic failure stream from a new
// seed, so a reused wrapper behaves byte-identically to a freshly
// constructed one — the per-shard connector-reuse contract.
func (f *Flaky) reseed(seed int64) {
	f.cfg.Seed = seed
	f.r = rand.New(rand.NewSource(seed))
	f.dropped = false
}

// inject decides whether this call fails before reaching the inner
// connector (the connection dropped in flight), keeping the inner
// engine's state independent of the injection.
func (f *Flaky) inject() error {
	if f.cfg.ErrorRate > 0 && f.r.Float64() < f.cfg.ErrorRate {
		f.dropped = true
		return &TransientError{Reason: f.nextReason()}
	}
	f.dropped = false
	return nil
}

// Execute implements Connector.
func (f *Flaky) Execute(query string) (*engine.Result, error) {
	return f.ExecuteCtx(context.Background(), query)
}

// ExecuteCtx implements Connector: the injected failure happens before
// the inner connector sees the query.
func (f *Flaky) ExecuteCtx(ctx context.Context, query string) (*engine.Result, error) {
	if err := f.inject(); err != nil {
		return nil, err
	}
	return f.inner.ExecuteCtx(ctx, query)
}

// ExecutePrepared implements Connector with the same injection policy as
// ExecuteCtx: one RNG draw per call, so a campaign sees the identical
// injected-failure sequence whichever execution path the runner takes.
func (f *Flaky) ExecutePrepared(ctx context.Context, pq *engine.PreparedQuery) (*engine.Result, error) {
	if err := f.inject(); err != nil {
		return nil, err
	}
	return f.inner.ExecutePrepared(ctx, pq)
}
