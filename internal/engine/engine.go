package engine

import (
	"context"
	"errors"
	"fmt"

	"gqs/internal/cypher/ast"
	"gqs/internal/cypher/parser"
	"gqs/internal/eval"
	"gqs/internal/functions"
	"gqs/internal/graph"
	"gqs/internal/value"
)

// Dialect captures the documented behavioural differences between the
// Cypher implementations the paper tests (§4, "Handling GDB-specific
// Cypher Variations").
type Dialect struct {
	Name string
	// RelUniqueness enforces the Cypher reference rule that distinct
	// relationship pattern elements of one MATCH clause bind distinct
	// relationships. FalkorDB and Kùzu deviate and allow repeats.
	RelUniqueness bool
	// ProvidesDBLabels enables the CALL db.labels()/db.relationshipTypes()
	// /db.propertyKeys() procedures (Neo4j and FalkorDB provide them;
	// Kùzu and Memgraph do not).
	ProvidesDBLabels bool
	// EnforceSchema rejects writes whose property types deviate from the
	// declared schema, as the schema-first Kùzu does (§4).
	EnforceSchema bool
}

// Reference is the openCypher-reference dialect used by the pristine
// engine that GQS validates against.
var Reference = Dialect{Name: "reference", RelUniqueness: true, ProvidesDBLabels: true}

// Limits bound the resources one query may consume; exceeding them fails
// the query rather than hanging the process.
type Limits struct {
	MaxRows       int // intermediate table size
	MaxMatchSteps int // backtracking steps across one MATCH clause
}

// DefaultLimits are generous enough for the paper's graph sizes while
// keeping worst-case unanchored cartesian patterns bounded (a stand-in
// for the per-query timeouts real campaigns use).
func DefaultLimits() Limits {
	return Limits{MaxRows: 100_000, MaxMatchSteps: 4_000_000}
}

// ErrResourceLimit is returned when a query exceeds the engine limits.
type ErrResourceLimit struct{ What string }

func (e *ErrResourceLimit) Error() string {
	return fmt.Sprintf("query exceeded resource limit: %s", e.What)
}

// ErrCanceled is returned by ExecuteCtx when the context is canceled or
// its deadline expires mid-query. It is distinct from ErrResourceLimit:
// a cancellation says nothing about the query itself, only that the
// caller's wall-clock budget ran out.
var ErrCanceled = errors.New("query canceled")

// Options configure an engine instance.
type Options struct {
	Dialect Dialect
	Limits  Limits
	// DisablePlanner turns off the optimization passes (index-scan
	// selection, traversal-start selection, predicate pushdown); used by
	// the ablation benchmarks.
	DisablePlanner bool
	// ReverseScan makes node scans run in descending ID order: a cheap
	// stand-in for "a different query plan", so two engines produce
	// rows in different orders (one of the differential-tester
	// false-positive sources of §5.4.3).
	ReverseScan bool
	// DisablePlan turns off compiled-plan execution of prepared queries,
	// forcing the tree-walking interpreter: the `-no-plan` differential-
	// debugging escape hatch. Distinct from DisablePlanner, which keeps
	// plan execution but is an optimization-pass ablation (and also
	// forces the interpreter, since compiled plans bake the passes in).
	DisablePlan bool
	// DisableAdjIndex turns off index-backed relationship expansion (and
	// the index-backed mid-chain label check) on snapshot-loaded graphs,
	// forcing the adjacency-list scan path everywhere: the second leg of
	// the scan-vs-index differential and the scan side of the
	// benchmark's large-graph index ≡ scan check. Indexed expansion is
	// behaviour-preserving by construction — same rows, same order, same
	// step accounting.
	DisableAdjIndex bool
	// Seed drives the execution-scoped state behind the nondeterministic
	// functions (rand(), timestamp()): every execution derives its own
	// RNG and logical clock from it, so instances never share mutable
	// function state and runs are reproducible per seed. 0 ⇒ 1.
	Seed int64
}

// Engine is one database instance: a store plus a dialect.
type Engine struct {
	store  *Store
	opts   Options
	params map[string]value.Value
	// planTrace records, for tests, which access paths the interpreter
	// chose during the most recent query; a plan execution clears it and
	// records nothing. PlanTrace renders it.
	planTrace []accessPath
	// ctx is the context of the in-flight ExecuteCtx call; cancelTick
	// rate-limits how often the hot loops poll it.
	ctx        context.Context
	cancelTick uint
	// exec is the in-flight execution's rand()/timestamp() state; execSeq
	// counts executions so each derives an independent stream.
	exec    *functions.ExecState
	execSeq int64
	// ectx is the scratch eval.Ctx reused across every row of an
	// execution; evalCtx refreshes its fields instead of allocating a new
	// context per evaluated expression. Evaluation never retains the
	// pointer past the call, and one engine never evaluates two
	// expressions at once, so a single scratch slot suffices.
	ectx eval.Ctx
	// pstate is the compiled-plan executor's reusable scratch (frame
	// arena, match frame, uniqueness stack); see plan.go.
	pstate planState
	// adjExpansions counts relationship expansions served by the
	// adjacency index (for tests asserting the index path actually ran).
	adjExpansions int
}

// New creates an engine with the given options. Each unset limit field
// defaults independently, so a caller overriding only MaxMatchSteps
// keeps the default MaxRows (and vice versa).
func New(opts Options) *Engine {
	if opts.Dialect.Name == "" {
		opts.Dialect = Reference
	}
	def := DefaultLimits()
	if opts.Limits.MaxRows == 0 {
		opts.Limits.MaxRows = def.MaxRows
	}
	if opts.Limits.MaxMatchSteps == 0 {
		opts.Limits.MaxMatchSteps = def.MaxMatchSteps
	}
	return &Engine{store: NewStore(), opts: opts}
}

// NewReference creates a reference-dialect engine.
func NewReference() *Engine { return New(Options{}) }

// LoadGraph replaces the database contents with a copy of g.
func (e *Engine) LoadGraph(g *graph.Graph, schema *graph.Schema) {
	e.store.Reset(g, schema)
	e.store.enforceSchema = e.opts.Dialect.EnforceSchema
}

// LoadSnapshot replaces the database contents with a copy-on-write
// overlay over a shared immutable snapshot — O(1) when the store already
// holds an unmodified view of the same snapshot, O(overlay) otherwise
// (see Store.ResetSnapshot).
func (e *Engine) LoadSnapshot(snap *graph.Snapshot, schema *graph.Schema) {
	e.store.ResetSnapshot(snap, schema)
	e.store.enforceSchema = e.opts.Dialect.EnforceSchema
}

// Store exposes the engine's store.
func (e *Engine) Store() *Store { return e.store }

// Dialect returns the engine's dialect.
func (e *Engine) Dialect() Dialect { return e.opts.Dialect }

// SetSeed replaces the seed behind the nondeterministic functions (see
// Options.Seed), for engines constructed before their seed is known —
// e.g. per-shard instances built by a connector factory. The execution
// counter restarts too, so a reused engine re-seeded for a new shard
// derives exactly the rand()/timestamp() streams a freshly constructed
// engine with that seed would.
func (e *Engine) SetSeed(seed int64) {
	e.opts.Seed = seed
	e.execSeq = 0
}

// accessPath is one access path the interpreter chose: its kind, and an
// index scan's label and property key.
type accessPath struct {
	kind, label, key string
}

// PlanTrace returns the access paths the interpreter chose for the most
// recent query (index, label or full scans and reversed traversals). It
// is empty after a compiled plan ran.
func (e *Engine) PlanTrace() []string {
	out := make([]string, len(e.planTrace))
	for i, p := range e.planTrace {
		out[i] = p.kind
		if p.label != "" || p.key != "" {
			out[i] += ":" + p.label + "." + p.key
		}
	}
	return out
}

// Execute parses and runs a query.
func (e *Engine) Execute(query string) (*Result, error) {
	return e.ExecuteParams(query, nil)
}

// ExecuteCtx parses and runs a query under a context. The match-expansion
// loop and the row pipeline poll the context and abort with ErrCanceled
// once it is canceled, so a watchdog can bound a query by wall-clock time
// without killing the engine.
func (e *Engine) ExecuteCtx(ctx context.Context, query string) (*Result, error) {
	return e.ExecuteParamsCtx(ctx, query, nil)
}

// ExecuteParams parses and runs a query with bound parameters ($name).
func (e *Engine) ExecuteParams(query string, params map[string]value.Value) (*Result, error) {
	return e.ExecuteParamsCtx(context.Background(), query, params)
}

// ExecuteParamsCtx parses and runs a parameterized query under a context.
func (e *Engine) ExecuteParamsCtx(ctx context.Context, query string, params map[string]value.Value) (*Result, error) {
	q, err := parser.Parse(query)
	if err != nil {
		return nil, err
	}
	return e.executeWithState(ctx, q, params)
}

// executeWithState installs the per-execution state (parameters, context,
// the execution-scoped rand()/timestamp() stream) and runs the query. The
// AST is treated as read-only: it may be a PreparedQuery's tree shared
// with concurrent executions on other engines.
func (e *Engine) executeWithState(ctx context.Context, q *ast.Query, params map[string]value.Value) (*Result, error) {
	e.beginExec(ctx, params)
	defer e.endExec()
	return e.ExecuteAST(q)
}

// beginExec installs the per-execution state. Both execution paths —
// interpreter and compiled plan — go through it, so the execution
// counter and the derived rand()/timestamp() stream advance identically
// regardless of which path runs.
func (e *Engine) beginExec(ctx context.Context, params map[string]value.Value) {
	seed := e.opts.Seed
	if seed == 0 {
		seed = 1
	}
	e.execSeq++
	e.params = params
	e.ctx = ctx
	e.exec = functions.NewExecState(functions.DeriveSeed(seed, e.execSeq))
}

// endExec drops the per-execution state so nothing outlives the call.
func (e *Engine) endExec() { e.params = nil; e.ctx = nil; e.exec = nil }

// SetPlanExecution toggles compiled-plan execution of prepared queries
// (see Options.DisablePlan). Plan execution is behaviour-preserving, so
// this only matters for differential debugging and benchmarks.
func (e *Engine) SetPlanExecution(enabled bool) { e.opts.DisablePlan = !enabled }

// SetAdjIndex toggles index-backed match expansion on snapshot-loaded
// graphs (see Options.DisableAdjIndex). Like plan execution it is
// behaviour-preserving, so flipping it mid-life is always safe.
func (e *Engine) SetAdjIndex(enabled bool) { e.opts.DisableAdjIndex = !enabled }

// checkCancel polls the in-flight context every cancelCheckWindow calls.
// It is cheap enough to sit inside the match-expansion and row loops.
func (e *Engine) checkCancel() error {
	if e.ctx == nil {
		return nil
	}
	e.cancelTick++
	if e.cancelTick&(cancelCheckWindow-1) != 0 {
		return nil
	}
	if e.ctx.Err() != nil {
		return ErrCanceled
	}
	return nil
}

// checkCancelNow polls the in-flight context unconditionally; used at
// clause boundaries where the check is rare relative to the work done.
func (e *Engine) checkCancelNow() error {
	if e.ctx != nil && e.ctx.Err() != nil {
		return ErrCanceled
	}
	return nil
}

// cancelCheckWindow is how many hot-loop iterations pass between context
// polls; must be a power of two.
const cancelCheckWindow = 256

// ExecuteAST runs a parsed query.
func (e *Engine) ExecuteAST(q *ast.Query) (*Result, error) {
	e.planTrace = e.planTrace[:0]
	var out *Result
	for i, part := range q.Parts {
		r, err := e.executeSingle(part)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			out = r
			continue
		}
		if err := sameColumns(out, r); err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, r.Rows...)
		if !q.All[i-1] {
			out = distinctResult(out)
		}
	}
	return out, nil
}

func sameColumns(a, b *Result) error {
	if len(a.Columns) != len(b.Columns) {
		return fmt.Errorf("UNION requires the same column names")
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			return fmt.Errorf("UNION requires the same column names: %s vs %s", a.Columns[i], b.Columns[i])
		}
	}
	return nil
}

func distinctResult(r *Result) *Result {
	seen := map[string]bool{}
	out := &Result{Columns: r.Columns}
	for i, rw := range r.Rows {
		k := r.rowKey(i)
		if !seen[k] {
			seen[k] = true
			out.Rows = append(out.Rows, rw)
		}
	}
	return out
}

func (e *Engine) executeSingle(s *ast.SingleQuery) (*Result, error) {
	rows := []row{{}}
	var result *Result
	for i, c := range s.Clauses {
		if err := e.checkCancelNow(); err != nil {
			return nil, err
		}
		last := i == len(s.Clauses)-1
		var err error
		switch c := c.(type) {
		case *ast.MatchClause:
			rows, err = e.execMatch(c, rows)
		case *ast.UnwindClause:
			rows, err = e.execUnwind(c, rows)
		case *ast.WithClause:
			rows, err = e.execWith(c, rows)
		case *ast.ReturnClause:
			if !last {
				return nil, fmt.Errorf("RETURN must be the final clause")
			}
			result, err = e.execReturn(c, rows)
		case *ast.CallClause:
			rows, result, err = e.execCall(c, rows, last)
		case *ast.CreateClause:
			rows, err = e.execCreate(c, rows)
		case *ast.SetClause:
			err = e.execSet(c.Items, rows)
		case *ast.MergeClause:
			rows, err = e.execMerge(c, rows)
		case *ast.DeleteClause:
			err = e.execDelete(c, rows)
		case *ast.RemoveClause:
			err = e.execRemove(c, rows)
		default:
			err = fmt.Errorf("unsupported clause %T", c)
		}
		if err != nil {
			return nil, err
		}
		if len(rows) > e.opts.Limits.MaxRows {
			return nil, &ErrResourceLimit{What: "intermediate rows"}
		}
	}
	if result == nil {
		// Write-only query: empty result.
		result = &Result{}
	}
	return result, nil
}

func (e *Engine) evalCtx(r row) *eval.Ctx {
	// Field-wise refresh: assigning a struct literal would discard the
	// context's internal scratch buffers along with the row state.
	e.ectx.Graph = e.store.Graph()
	e.ectx.Env = r
	e.ectx.Params = e.params
	e.ectx.Exec = e.exec
	return &e.ectx
}

// evalIn evaluates an expression in a row's environment.
func (e *Engine) evalIn(r row, x ast.Expr) (value.Value, error) {
	return eval.Eval(e.evalCtx(r), x)
}
