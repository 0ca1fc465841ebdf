package engine

import (
	"context"

	"gqs/internal/cypher/ast"
	"gqs/internal/cypher/parser"
	"gqs/internal/metrics"
)

// PreparedQuery is a query parsed, analyzed and compiled exactly once,
// ready to be executed any number of times — sequentially or
// concurrently — by any number of targets. It is the unit of the
// prepared-execution path that removes the per-target parse tax: the
// runner prepares each synthesized query once, and every connector
// executing it reuses the same AST, feature vector and compiled plan
// instead of re-lexing, re-parsing, and re-analyzing the text. A query
// without a plan (writes), and every query on an engine with
// DisablePlanner, runs on the interpreter, which analyzes each clause
// live, as the text path does.
//
// Invariants:
//
//   - AST is immutable after Prepare returns. Engine execution never
//     writes to it (planner rewrites such as traversal reversal and
//     aggregate substitution copy the nodes they change), so one
//     PreparedQuery may be in flight on several connectors at once.
//   - Features is the analysis of exactly this AST — what
//     metrics.Analyze(Text) returns, so fault triggers keyed on the
//     feature vector see identical features on every target.
//   - All per-execution state (variable environments, the rand()/
//     timestamp() stream of functions.ExecState, cancellation) lives in
//     the executing engine, never in the PreparedQuery.
//   - A query from Prepare or PrepareAST stays valid for ever; one from
//     Scratch.PrepareAST only until the scratch prepares the next.
type PreparedQuery struct {
	// Text is the original query text; compatibility paths and reports
	// that need a string form use it without re-rendering the AST.
	Text string
	// AST is the parsed query. Treat as read-only.
	AST *ast.Query
	// Features is the precomputed complexity/feature analysis driving
	// fault triggers and the Table 5 metrics. Treat as read-only.
	Features *metrics.Features
	// plan is the compiled physical plan (slot frames, pushed-down
	// conjuncts, expression records; see plan.go), or the zero plan
	// when the query uses a construct the plan executor does not cover
	// and execution stays on the interpreter. Immutable and shared
	// exactly like the AST: everything dialect- or store-dependent is
	// resolved by the executing engine at run time.
	plan queryPlan
}

// Planned reports whether the query compiled to a physical plan (false
// means every execution uses the interpreter fallback).
func (pq *PreparedQuery) Planned() bool { return pq.plan.parts != nil }

// Prepare parses and analyzes a query once. This is the single parse of
// the prepared execution path: the returned value carries everything a
// connector needs, so no downstream layer touches the parser again.
func Prepare(text string) (*PreparedQuery, error) {
	q, err := parser.Parse(text)
	if err != nil {
		return nil, err
	}
	return PrepareAST(q, text), nil
}

// PrepareAST prepares an already-parsed (or synthesizer-built) query,
// skipping the parse entirely: the synthesizer prints text from the AST
// it constructs, so re-parsing that text would only rebuild the same
// tree. text must be the rendering of q: targets that take only text
// execute it in q's place. The AST is treated as immutable from here on,
// exactly as if the parser had returned it.
func PrepareAST(q *ast.Query, text string) *PreparedQuery {
	pq := &PreparedQuery{Text: text, AST: q, Features: metrics.AnalyzeAST(q)}
	compileQueryPlan(&pq.plan, q, nil)
	return pq
}

// Scratch is memory that queries are prepared into one after another,
// each reusing what the last one used: a campaign runner drops each
// query after its last attempt. The plan is carved from one chunk per
// kind of plan structure, rewound before each query; a chunk that runs
// out is replaced by one twice its size, so once one chunk of each kind
// holds a whole query, a query's plan costs no allocation. The zero
// value is ready to use; a Scratch prepares one query at a time.
//
// A PreparedQuery from Scratch.PrepareAST is valid only until the next
// PrepareAST on the same Scratch, which rewrites its plan's memory. That
// call first clears what the last query carved from the chunks, so the
// scratch keeps no AST alive past it, and zeroes the last query's plan:
// a caller that kept the query after all runs it on the interpreter
// instead of reading rewritten memory. Its Features and the results of
// its executions are on the heap and stay valid. A caller that cannot
// be sure no execution of the query is still running — one abandoned
// past its deadline — must drop the Scratch and start a new one.
type Scratch struct {
	mem planSlab
	// pqs alternate: one holds the query being prepared, the other the
	// query before it, with its plan zeroed.
	pqs [2]PreparedQuery
	cur int
}

// PrepareAST is the package's PrepareAST into the scratch's memory.
func (s *Scratch) PrepareAST(q *ast.Query, text string) *PreparedQuery {
	s.pqs[s.cur].plan = queryPlan{}
	s.cur ^= 1
	pq := &s.pqs[s.cur]
	*pq = PreparedQuery{Text: text, AST: q, Features: metrics.AnalyzeAST(q)}
	compileQueryPlan(&pq.plan, q, &s.mem)
	return pq
}

// ExecutePrepared runs a prepared query, sharing its AST with any other
// concurrent executions. Equivalent to ExecuteCtx(ctx, pq.Text) minus the
// parse. Queries that compiled to a physical plan execute it directly
// (identical behaviour, no per-row map allocation or AST walking) unless
// the engine runs with DisablePlanner. Everything else runs on the
// interpreter, ExecuteASTCtx, which the plan ≡ interpreter differentials
// call directly.
func (e *Engine) ExecutePrepared(ctx context.Context, pq *PreparedQuery) (*Result, error) {
	if pq.Planned() && !e.opts.DisablePlanner {
		e.beginExec(ctx, nil)
		defer e.endExec()
		return e.runPlan(&pq.plan)
	}
	return e.ExecuteASTCtx(ctx, pq.AST)
}

// ExecuteASTCtx runs an already-parsed query under a context. The AST is
// never mutated — it may be shared with concurrent executions on other
// engine instances — while all per-execution state (parameters, the
// rand()/timestamp() stream, cancellation) is engine-local as usual.
func (e *Engine) ExecuteASTCtx(ctx context.Context, q *ast.Query) (*Result, error) {
	return e.executeWithState(ctx, q, nil)
}
