package baselines

import (
	"fmt"
	"math/rand"
	"strings"

	"gqs/internal/engine"
	"gqs/internal/graph"
)

// Target is the slice of a GDB connector the baseline testers drive:
// they load a graph and run query text (every gdb.Connector implements
// it).
type Target interface {
	Name() string
	Reset(g *graph.Graph, schema *graph.Schema) error
	Execute(query string) (*engine.Result, error)
}

// Tester is one baseline logic-bug detector: a query generator plus a
// test oracle.
type Tester interface {
	Name() string
	// Generate produces one test query for the graph (used both by the
	// tester's own campaign and by the Table 5 complexity comparison).
	Generate(r *rand.Rand, g *graph.Graph, schema *graph.Schema) string
	// Test runs one round against the target, returning the executed
	// queries and whether the oracle flagged a violation.
	Test(r *rand.Rand, target Target, g *graph.Graph, schema *graph.Schema) *Report
	// Supports reports whether the tester supported the GDB in the
	// paper's evaluation (GDBMeter, Gamera, and GQT lack Memgraph).
	Supports(gdb string) bool
}

// Report is the outcome of one oracle application.
type Report struct {
	Tester   string
	Queries  []string
	Violated bool
	// Err records crashes/hangs/exceptions surfaced while testing; for
	// every tester those also count as (potential) bug findings.
	Err error
}

// ByName returns a tester.
func ByName(name string) (Tester, error) {
	for _, t := range All() {
		if t.Name() == name {
			return t, nil
		}
	}
	return nil, fmt.Errorf("unknown tester %q", name)
}

// All returns the five baseline testers in Table 4 order.
func All() []Tester {
	return []Tester{NewGDsmith(), NewGDBMeter(), NewGamera(), NewGQT(), NewGRev()}
}

// ---- GDsmith (differential testing) ----

// GDsmith generates moderately complex queries and compares the rendered
// results of several GDBs against each other; any discrepancy is reported
// as a bug. Its comparison is order- and error-message-sensitive, the
// false-positive sources §5.4.3 measures.
type GDsmith struct {
	// Peers are the other databases each query is differentially
	// executed against. They are constructed lazily per Test call when
	// nil (the campaign runner injects specific peers).
	Peers []Target
}

// NewGDsmith returns the differential tester.
func NewGDsmith() *GDsmith { return &GDsmith{} }

// Name implements Tester.
func (t *GDsmith) Name() string { return "gdsmith" }

// Supports implements Tester: GDsmith tested all three systems.
func (t *GDsmith) Supports(string) bool { return true }

func gdsmithKnobs() Knobs {
	return Knobs{
		MatchClauses: [2]int{2, 3},
		Patterns:     [2]int{2, 3},
		ChainLen:     [2]int{1, 2},
		PredDepth:    [2]int{0, 2},
		WithChain:    [2]int{1, 2},
		UnwindPct:    30,
		OrderByPct:   20,
		DistinctPct:  20,
		CallPct:      10,
		AnchorPct:    70,
	}
}

// Generate implements Tester.
func (t *GDsmith) Generate(r *rand.Rand, g *graph.Graph, schema *graph.Schema) string {
	return NewGen(r, g, schema, gdsmithKnobs()).Query()
}

// Test implements Tester: run the query on the target and on every peer,
// then compare rendered output (order-sensitive, the way GDsmith diffs
// formatted result sets).
func (t *GDsmith) Test(r *rand.Rand, target Target, g *graph.Graph, schema *graph.Schema) *Report {
	q := t.Generate(r, g, schema)
	rep := &Report{Tester: t.Name(), Queries: []string{q}}
	base, baseErr := target.Execute(q)
	rep.Err = baseErr
	for _, peer := range t.Peers {
		res, err := peer.Execute(q)
		if (err == nil) != (baseErr == nil) {
			rep.Violated = true // one side errored: counted as discrepancy
			continue
		}
		if err != nil {
			if err.Error() != baseErr.Error() {
				rep.Violated = true // differing error text
			}
			continue
		}
		if renderOrdered(base) != renderOrdered(res) {
			rep.Violated = true
		}
	}
	return rep
}

// renderOrdered renders a result the way a driver prints it: columns then
// rows in engine order. Row-order differences therefore show up as
// discrepancies — a real GDsmith false-positive source.
func renderOrdered(r *engine.Result) string {
	if r == nil {
		return "<nil>"
	}
	var sb strings.Builder
	sb.WriteString(strings.Join(r.Columns, ","))
	for _, row := range r.Rows {
		sb.WriteByte('\n')
		for j, v := range row {
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(v.String())
		}
	}
	return sb.String()
}

// ---- GDBMeter (ternary-logic partitioning) ----

// GDBMeter generates simple MATCH-WHERE-RETURN queries and checks the TLP
// relation: R(p) ⊎ R(NOT p) ⊎ R(p IS NULL) must equal R(true).
type GDBMeter struct{}

// NewGDBMeter returns the TLP tester.
func NewGDBMeter() *GDBMeter { return &GDBMeter{} }

// Name implements Tester.
func (t *GDBMeter) Name() string { return "gdbmeter" }

// Supports implements Tester: no Memgraph support in the paper.
func (t *GDBMeter) Supports(gdb string) bool { return gdb != "memgraph" }

// Generate implements Tester: one small MATCH with a predicate.
func (t *GDBMeter) Generate(r *rand.Rand, g *graph.Graph, schema *graph.Schema) string {
	gen := NewGen(r, g, schema, Knobs{
		MatchClauses: [2]int{1, 1},
		Patterns:     [2]int{1, 1},
		ChainLen:     [2]int{0, 2},
		PredDepth:    [2]int{0, 1},
		AnchorPct:    50,
		MaxPreds:     2,
	})
	return gen.Query()
}

// Test implements Tester: apply the TLP oracle to a generated query.
func (t *GDBMeter) Test(r *rand.Rand, target Target, g *graph.Graph, schema *graph.Schema) *Report {
	q := t.Generate(r, g, schema)
	applied, violated, queries, err := TLPCheck(target, q)
	rep := &Report{Tester: t.Name(), Queries: queries, Err: err}
	rep.Violated = applied && violated
	return rep
}

// ---- Gamera (graph-aware metamorphic relations) ----

// Gamera generates tiny pattern queries and checks a direction-erasure
// relation: erasing relationship directions can only grow the match set.
type Gamera struct{}

// NewGamera returns the tester.
func NewGamera() *Gamera { return &Gamera{} }

// Name implements Tester.
func (t *Gamera) Name() string { return "gamera" }

// Supports implements Tester.
func (t *Gamera) Supports(gdb string) bool { return gdb != "memgraph" }

// Generate implements Tester.
func (t *Gamera) Generate(r *rand.Rand, g *graph.Graph, schema *graph.Schema) string {
	gen := NewGen(r, g, schema, Knobs{
		MatchClauses: [2]int{1, 1},
		Patterns:     [2]int{1, 1},
		ChainLen:     [2]int{1, 2},
		PredDepth:    [2]int{0, 0},
		AnchorPct:    40,
		MaxPreds:     1,
	})
	return gen.Query()
}

// Test implements Tester: result of the directed pattern must be a
// subset of the direction-erased pattern's result.
func (t *Gamera) Test(r *rand.Rand, target Target, g *graph.Graph, schema *graph.Schema) *Report {
	q := t.Generate(r, g, schema)
	relaxed := eraseDirections(q)
	rep := &Report{Tester: t.Name(), Queries: []string{q, relaxed}}
	a, errA := target.Execute(q)
	b, errB := target.Execute(relaxed)
	if errA != nil || errB != nil {
		rep.Err = firstErr(errA, errB)
		return rep
	}
	rep.Violated = !multisetSubset(a, b)
	return rep
}

// ---- GQT (injective/surjective query transformation) ----

// GQT transforms queries so the result set must grow (surjective: drop a
// label constraint) and checks containment.
type GQT struct{}

// NewGQT returns the tester.
func NewGQT() *GQT { return &GQT{} }

// Name implements Tester.
func (t *GQT) Name() string { return "gqt" }

// Supports implements Tester.
func (t *GQT) Supports(gdb string) bool { return gdb != "memgraph" }

// Generate implements Tester: moderate queries, sometimes starting with
// UNWIND (which is how it can reach Figure 17-class bugs).
func (t *GQT) Generate(r *rand.Rand, g *graph.Graph, schema *graph.Schema) string {
	gen := NewGen(r, g, schema, Knobs{
		MatchClauses: [2]int{1, 2},
		Patterns:     [2]int{1, 1},
		ChainLen:     [2]int{0, 2},
		PredDepth:    [2]int{0, 1},
		WithChain:    [2]int{0, 1},
		UnwindPct:    35,
		UnwindFirst:  true,
		AnchorPct:    50,
	})
	return gen.Query()
}

// Test implements Tester: surjective transformation (drop one label).
func (t *GQT) Test(r *rand.Rand, target Target, g *graph.Graph, schema *graph.Schema) *Report {
	q := t.Generate(r, g, schema)
	relaxed := dropOneLabel(q)
	rep := &Report{Tester: t.Name(), Queries: []string{q, relaxed}}
	a, errA := target.Execute(q)
	b, errB := target.Execute(relaxed)
	if errA != nil || errB != nil {
		rep.Err = firstErr(errA, errB)
		return rep
	}
	rep.Violated = !multisetSubset(a, b)
	return rep
}

// ---- GRev (equivalent query rewriting) ----

// GRev generates complex queries and rewrites them into semantically
// equivalent forms, checking result equality.
type GRev struct{}

// NewGRev returns the tester.
func NewGRev() *GRev { return &GRev{} }

// Name implements Tester.
func (t *GRev) Name() string { return "grev" }

// Supports implements Tester: GRev tested all three systems.
func (t *GRev) Supports(string) bool { return true }

func grevKnobs() Knobs {
	return Knobs{
		MatchClauses: [2]int{2, 3},
		Patterns:     [2]int{2, 3},
		ChainLen:     [2]int{1, 2},
		PredDepth:    [2]int{1, 3},
		WithChain:    [2]int{1, 2},
		UnwindPct:    25,
		OrderByPct:   15,
		DistinctPct:  15,
		AnchorPct:    70,
	}
}

// Generate implements Tester.
func (t *GRev) Generate(r *rand.Rand, g *graph.Graph, schema *graph.Schema) string {
	return NewGen(r, g, schema, grevKnobs()).Query()
}

// Test implements Tester: rewrite and compare multisets.
func (t *GRev) Test(r *rand.Rand, target Target, g *graph.Graph, schema *graph.Schema) *Report {
	q := t.Generate(r, g, schema)
	applied, violated, queries, err := GRevCheck(target, q)
	rep := &Report{Tester: t.Name(), Queries: queries, Err: err}
	rep.Violated = applied && violated
	return rep
}

// ---- shared helpers ----

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// multisetSubset reports whether every row of a occurs in b at least as
// often (ignoring column-name differences; only arities must agree).
func multisetSubset(a, b *engine.Result) bool {
	if a == nil || b == nil {
		return a == nil
	}
	if len(a.Columns) != len(b.Columns) {
		return false
	}
	counts := map[string]int{}
	for _, k := range b.Canonical() {
		counts[k]++
	}
	for _, k := range a.Canonical() {
		counts[k]--
		if counts[k] < 0 {
			return false
		}
	}
	return true
}

// multisetEqual reports whether the two results are equal as multisets.
func multisetEqual(a, b *engine.Result) bool {
	return multisetSubset(a, b) && multisetSubset(b, a)
}

// eraseDirections removes relationship direction arrows from query text.
func eraseDirections(q string) string {
	q = strings.ReplaceAll(q, "]->", "]-")
	q = strings.ReplaceAll(q, "<-[", "-[")
	return q
}

// dropOneLabel removes the first node label constraint, a surjective
// transformation.
func dropOneLabel(q string) string {
	for i := 0; i+1 < len(q); i++ {
		if q[i] != ':' || q[i+1] != 'L' {
			continue
		}
		// only node labels (inside parentheses): look back for '(' before ')'
		j := i + 1
		for j < len(q) && (q[j] == 'L' || (q[j] >= '0' && q[j] <= '9')) {
			j++
		}
		return q[:i] + q[j:]
	}
	return q
}
