// Package gdb provides the "GDB under test" abstraction of §4
// ("Integrating Different GDBs") and the four simulated systems this
// reproduction tests. Each simulated GDB is the reference engine
// configured with that system's documented dialect quirks plus its
// injected-fault catalog; a pristine reference connector (no faults) is
// the control.
package gdb

import (
	"context"
	"fmt"
	"math/rand"

	"gqs/internal/engine"
	"gqs/internal/faults"
	"gqs/internal/graph"
)

// Connector is the driver interface a GDB under test exposes, mirroring
// the paper's per-GDB integration layer.
type Connector interface {
	Name() string
	// Reset clears the instance and loads the graph — the paper's tool
	// restarts the database for each new graph (§5.4.4).
	Reset(g *graph.Graph, schema *graph.Schema) error
	// ResetSnapshot is Reset over a shared immutable graph.Snapshot: the
	// copy-on-write restart path. All connectors of one oracle check
	// share the snapshot (and its one-time index build); each instance
	// overlays its own writes and drops them on the next reset, so
	// restoring state between checks is O(1) for read-only workloads.
	// Behaviour is otherwise identical to Reset with the sealed graph.
	ResetSnapshot(snap *graph.Snapshot, schema *graph.Schema) error
	Execute(query string) (*engine.Result, error)
	// ExecuteCtx runs the query under a context so the harness can
	// cancel it at the per-query deadline; implementations must return
	// (engine.ErrCanceled or the in-flight fault's error) promptly after
	// cancellation.
	ExecuteCtx(ctx context.Context, query string) (*engine.Result, error)
	// ExecutePrepared runs an already parsed-and-analyzed query — the
	// prepared execution path that removes the per-target parse tax. The
	// PreparedQuery is shared: implementations must treat its AST and
	// Features as read-only, and may run it concurrently with other
	// connectors executing the same value. It is valid for this call and
	// the caller's retries of it: the campaign runner reuses its memory
	// for the next query, so an implementation must not keep it.
	// Behaviour is otherwise identical to ExecuteCtx(ctx, pq.Text).
	ExecutePrepared(ctx context.Context, pq *engine.PreparedQuery) (*engine.Result, error)
	// RelUniqueness reports whether the dialect enforces relationship
	// uniqueness (§4: FalkorDB and Kùzu deviate).
	RelUniqueness() bool
	// ProvidesDBLabels reports whether CALL db.labels() exists.
	ProvidesDBLabels() bool
	// CancelAware reports whether ExecuteCtx and ExecutePrepared keep
	// the promise above. The runner then waits for each call on its own
	// goroutine, under the deadline, and never abandons it; a connector
	// reporting false has each call run in a watchdog goroutine that is
	// abandoned if the call outlives its deadline by the grace window
	// (see core.CancelAwareTarget).
	CancelAware() bool
	// TriggeredBug returns the injected fault exercised by the most
	// recent Execute, if any. Experiments use it for ground-truth
	// attribution and deduplication; testers must not.
	TriggeredBug() *faults.Bug
	Close() error
}

// Info describes one tested GDB, reproducing Table 2.
type Info struct {
	Name           string
	GitHubStars    string
	InitialRelease int
	TestedVersion  string
	LoC            string
	RequiresSchema bool // Kùzu needs schema information before loading (§4)
}

// Registry returns the Table 2 rows.
func Registry() []Info {
	return []Info{
		{Name: "neo4j", GitHubStars: "13.2K", InitialRelease: 2007, TestedVersion: "5.18, 5.20, 5.21.2 (simulated)", LoC: "1.4M"},
		{Name: "memgraph", GitHubStars: "2.4K", InitialRelease: 2017, TestedVersion: "2.13, 2.14.1, 2.15, 2.17 (simulated)", LoC: "0.2M"},
		{Name: "kuzu", GitHubStars: "1.3K", InitialRelease: 2022, TestedVersion: "0.4.2, 0.7.1 (simulated)", LoC: "11.9M", RequiresSchema: true},
		{Name: "falkordb", GitHubStars: "651", InitialRelease: 2023, TestedVersion: "4.2.0 (simulated)", LoC: "2.8M"},
	}
}

// Sim is a simulated GDB: the reference engine plus dialect quirks and an
// injected-fault catalog.
type Sim struct {
	name           string
	eng            *engine.Engine
	bugs           *faults.Set
	requiresSchema bool
	lastBug        *faults.Bug
	closed         bool
	live           bool
	// rng is reseeded for every logic bug that manifests.
	rng *rand.Rand
}

// options for constructing simulated GDBs.
type simConfig struct {
	dialect        engine.Dialect
	bugs           *faults.Set
	requiresSchema bool
	reverseScan    bool
}

func newSim(name string, cfg simConfig) *Sim {
	return &Sim{
		name: name,
		eng: engine.New(engine.Options{
			Dialect:     cfg.dialect,
			ReverseScan: cfg.reverseScan,
		}),
		bugs:           cfg.bugs,
		requiresSchema: cfg.requiresSchema,
	}
}

// NewNeo4jSim builds the Neo4j simulacrum: reference dialect (relationship
// uniqueness, db.labels), on-disk-style planner, Neo4j fault catalog.
func NewNeo4jSim() *Sim {
	return newSim("neo4j", simConfig{
		dialect: engine.Dialect{Name: "neo4j", RelUniqueness: true, ProvidesDBLabels: true},
		bugs:    faults.Neo4j(),
	})
}

// NewMemgraphSim builds the Memgraph simulacrum: reference uniqueness,
// no db.labels procedure, and a different scan order — its "in-memory"
// planner produces rows in a different order than the Neo4j simulacrum,
// one of the false-positive sources for differential testers (§5.4.3).
func NewMemgraphSim() *Sim {
	return newSim("memgraph", simConfig{
		dialect:     engine.Dialect{Name: "memgraph", RelUniqueness: true, ProvidesDBLabels: false},
		bugs:        faults.Memgraph(),
		reverseScan: true,
	})
}

// NewKuzuSim builds the Kùzu simulacrum: no relationship uniqueness, no
// db.labels, and schema-first loading (§4: Kùzu requires the schema
// before initializing a random graph).
func NewKuzuSim() *Sim {
	return newSim("kuzu", simConfig{
		dialect:        engine.Dialect{Name: "kuzu", RelUniqueness: false, ProvidesDBLabels: false, EnforceSchema: true},
		bugs:           faults.Kuzu(),
		requiresSchema: true,
	})
}

// NewFalkorDBSim builds the FalkorDB simulacrum: no relationship
// uniqueness, db.labels available.
func NewFalkorDBSim() *Sim {
	return newSim("falkordb", simConfig{
		dialect: engine.Dialect{Name: "falkordb", RelUniqueness: false, ProvidesDBLabels: true},
		bugs:    faults.FalkorDB(),
	})
}

// NewReference builds the pristine fault-free reference connector.
func NewReference() *Sim {
	return newSim("reference", simConfig{dialect: engine.Reference})
}

// All returns connectors for the four simulated GDBs, in Table 2 order.
func All() []*Sim {
	return []*Sim{NewNeo4jSim(), NewMemgraphSim(), NewKuzuSim(), NewFalkorDBSim()}
}

// ByName builds a simulated GDB by name.
func ByName(name string) (*Sim, error) {
	switch name {
	case "neo4j":
		return NewNeo4jSim(), nil
	case "memgraph":
		return NewMemgraphSim(), nil
	case "kuzu":
		return NewKuzuSim(), nil
	case "falkordb":
		return NewFalkorDBSim(), nil
	case "reference":
		return NewReference(), nil
	default:
		return nil, fmt.Errorf("unknown GDB %q", name)
	}
}

// Name implements Connector.
func (s *Sim) Name() string { return s.name }

// RelUniqueness implements Connector.
func (s *Sim) RelUniqueness() bool { return s.eng.Dialect().RelUniqueness }

// ProvidesDBLabels implements Connector.
func (s *Sim) ProvidesDBLabels() bool { return s.eng.Dialect().ProvidesDBLabels }

// CancelAware implements Connector: the engine polls its context while
// it matches and pipelines rows, and live faults wait on it, so every
// call returns promptly once its context is canceled.
func (s *Sim) CancelAware() bool { return true }

// Reset implements Connector: it restarts the simulated instance with a
// fresh copy of the graph.
func (s *Sim) Reset(g *graph.Graph, schema *graph.Schema) error {
	if s.closed {
		return fmt.Errorf("%s: connector is closed", s.name)
	}
	if s.requiresSchema && schema == nil {
		return fmt.Errorf("%s: requires schema information before initializing a graph", s.name)
	}
	s.eng.LoadGraph(g, schema)
	s.lastBug = nil
	return nil
}

// ResetSnapshot implements Connector: the simulated instance restarts
// onto a copy-on-write overlay of the shared snapshot instead of a deep
// copy of the graph.
func (s *Sim) ResetSnapshot(snap *graph.Snapshot, schema *graph.Schema) error {
	if s.closed {
		return fmt.Errorf("%s: connector is closed", s.name)
	}
	if s.requiresSchema && schema == nil {
		return fmt.Errorf("%s: requires schema information before initializing a graph", s.name)
	}
	s.eng.LoadSnapshot(snap, schema)
	s.lastBug = nil
	return nil
}

// SetLiveFaults toggles live fault manifestation: Hang bugs really block
// until the context is canceled, Crash bugs panic inside the connector,
// and per-bug latency is injected — so the harness's watchdog, panic
// isolation, and restart paths are exercised for real. Off (the default)
// keeps the instant simulated manifestation for high-volume experiments.
func (s *Sim) SetLiveFaults(live bool) *Sim {
	s.live = live
	return s
}

// Execute implements Connector: parse, measure, run, then pass the result
// through the fault catalog.
func (s *Sim) Execute(query string) (*engine.Result, error) {
	return s.ExecuteCtx(context.Background(), query)
}

// ExecuteCtx implements Connector as a compatibility wrapper over the
// prepared path: it prepares (one parse + one analysis) and delegates to
// ExecutePrepared, so text callers and prepared callers take the same
// fault-catalog path and see identical behaviour.
func (s *Sim) ExecuteCtx(ctx context.Context, query string) (*engine.Result, error) {
	pq, err := engine.Prepare(query)
	if err != nil {
		// Unparseable text fails exactly as the engine's own parse would
		// (same parser, same error). Features are nil for such queries, so
		// no catalog fault can trigger — mirror that here.
		if s.closed {
			return nil, fmt.Errorf("%s: connector is closed", s.name)
		}
		s.lastBug = nil
		return nil, err
	}
	return s.ExecutePrepared(ctx, pq)
}

// ExecutePrepared implements Connector. The triggered bug is selected on
// the precomputed feature vector and recorded before it manifests, so
// attribution survives a live crash panicking out of this call or a live
// hang being canceled by the watchdog.
func (s *Sim) ExecutePrepared(ctx context.Context, pq *engine.PreparedQuery) (*engine.Result, error) {
	if s.closed {
		return nil, fmt.Errorf("%s: connector is closed", s.name)
	}
	s.lastBug = nil
	f := pq.Features
	res, err := s.eng.ExecutePrepared(ctx, pq)
	bug := s.bugs.Select(f, err)
	s.lastBug = bug
	if bug == nil {
		return res, err
	}
	if bug.Kind == faults.Logic {
		if s.rng == nil {
			s.rng = rand.New(rand.NewSource(0))
		}
		out, merr := bug.ManifestCtx(ctx, s.live, res, f, s.rng)
		if merr != nil { // canceled mid-latency: not a manifested result
			return nil, merr
		}
		return out, nil
	}
	_, err = bug.ManifestCtx(ctx, s.live, nil, f, nil)
	return nil, err
}

// TriggeredBug implements Connector.
func (s *Sim) TriggeredBug() *faults.Bug { return s.lastBug }

// Close implements Connector.
func (s *Sim) Close() error {
	s.closed = true
	return nil
}

// Engine exposes the underlying engine for white-box tests.
func (s *Sim) Engine() *engine.Engine { return s.eng }
