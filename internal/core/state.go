package core

import (
	"fmt"

	"gqs/internal/cypher/ast"
	"gqs/internal/engine"
	"gqs/internal/eval"
	"gqs/internal/graph"
	"gqs/internal/value"
)

func graphPropertyKey(e elemRef, name string) graph.PropertyKey {
	return graph.PropertyKey{Element: e.id, IsRel: e.isRel, Name: name}
}

// Tracker maintains the expected intermediate state of the query being
// synthesized: the symbolic rows flowing through the clause pipeline.
// Because every pattern is uniquified to exactly one match (§3.4), the
// only sources of row multiplicity and divergence are UNWIND expansions;
// the tracker models those exactly, which is what lets GQS compute the
// expected result set analytically rather than by executing the query.
//
// Every row binds the same variables, so the rows are one row-major
// table: names holds the columns and vals len(mult) rows of len(names)
// values each. A Synthesizer resets its tracker per query and reuses the
// table's arrays.
type Tracker struct {
	g     *graph.Graph
	names []string
	vals  []value.Value
	mult  []int
	// spare and spareMult are the second table: Unwind and Project build
	// the new rows in them, then swap them with vals and mult.
	spare     []value.Value
	spareMult []int
	// env is the evaluation environment of row envRow (-1 when no row is
	// loaded): eval.Eval reads variables by name. Bind keeps a loaded row
	// current, so a single-row state loads once.
	env    map[string]value.Value
	envRow int
	// order is the column indices sorted by name, valid while sorted is
	// set; varNames and constNames are the sorted views Vars and
	// ConstantVarNames return. projNames is Project's scratch.
	order      []int
	sorted     bool
	varNames   []string
	constNames []string
	projNames  []string
	// rows is Project's set of the projected rows, which merges
	// equivalent ones.
	rows value.RowSet
	// ectx is the scratch eval.Ctx reused across every expression the
	// tracker evaluates (the same pattern as Engine.evalCtx — evaluation
	// never retains the pointer, and a tracker is single-threaded).
	ectx eval.Ctx
}

// NewTracker starts with the single empty row every Cypher query begins
// with.
func NewTracker(g *graph.Graph) *Tracker {
	t := &Tracker{}
	t.reset(g)
	return t
}

// reset returns the tracker to NewTracker's state, keeping its arrays.
func (t *Tracker) reset(g *graph.Graph) {
	t.g = g
	t.names, t.vals, t.mult = t.names[:0], t.vals[:0], append(t.mult[:0], 1)
	if t.env == nil {
		t.env = make(map[string]value.Value, 16)
	}
	clear(t.env)
	t.envRow = -1
	t.sorted = false
}

// width is the number of columns.
func (t *Tracker) width() int { return len(t.names) }

// row returns row i's values.
func (t *Tracker) row(i int) []value.Value {
	w := t.width()
	return t.vals[i*w : (i+1)*w : (i+1)*w]
}

// col returns the column of the variable, or -1.
func (t *Tracker) col(name string) int {
	for i, n := range t.names {
		if n == name {
			return i
		}
	}
	return -1
}

// sortNames refreshes the name-sorted column order.
func (t *Tracker) sortNames() {
	if t.sorted {
		return
	}
	t.order = t.order[:0]
	for i := range t.names {
		t.order = append(t.order, i)
	}
	for i := 1; i < len(t.order); i++ {
		for j := i; j > 0 && t.names[t.order[j]] < t.names[t.order[j-1]]; j-- {
			t.order[j], t.order[j-1] = t.order[j-1], t.order[j]
		}
	}
	t.varNames = t.varNames[:0]
	for _, c := range t.order {
		t.varNames = append(t.varNames, t.names[c])
	}
	t.sorted = true
}

// Vars returns the variables bound in the current rows, sorted. The
// slice is the tracker's and valid until its next change.
func (t *Tracker) Vars() []string {
	if len(t.mult) == 0 {
		return nil
	}
	t.sortNames()
	return t.varNames
}

// RowCount returns the number of distinct symbolic rows.
func (t *Tracker) RowCount() int { return len(t.mult) }

// TotalMult returns the total expected row count (sum of multiplicities).
func (t *Tracker) TotalMult() int {
	n := 0
	for _, m := range t.mult {
		n += m
	}
	return n
}

// ConstantVarNames returns, sorted, the variables whose value is
// identical across all rows; predicates built over these hold
// uniformly. The slice is the tracker's and valid until its next change.
func (t *Tracker) ConstantVarNames() []string {
	if len(t.mult) <= 1 {
		return t.Vars()
	}
	t.sortNames()
	t.constNames = t.constNames[:0]
	first := t.row(0)
	for _, c := range t.order {
		constant := true
		for i := 1; i < len(t.mult); i++ {
			if !value.Equivalent(t.row(i)[c], first[c]) {
				constant = false
				break
			}
		}
		if constant {
			t.constNames = append(t.constNames, t.names[c])
		}
	}
	return t.constNames
}

// ctx returns the evaluation context of row i.
func (t *Tracker) ctx(i int) *eval.Ctx {
	if t.envRow != i {
		for c, v := range t.row(i) {
			t.env[t.names[c]] = v
		}
		t.envRow = i
	}
	// Field-wise refresh: a struct literal would discard the context's
	// internal scratch buffers.
	t.ectx.Graph = t.g
	t.ectx.Env = t.env
	return &t.ectx
}

// setColumns replaces the column set, dropping the loaded environment.
func (t *Tracker) setColumns(names []string) {
	t.names = append(t.names[:0], names...)
	clear(t.env)
	t.envRow = -1
	t.sorted = false
}

// Bind adds the same variable binding to every row (a uniquified MATCH).
func (t *Tracker) Bind(name string, v value.Value) {
	if c := t.col(name); c >= 0 {
		for i := range t.mult {
			t.row(i)[c] = v
		}
	} else {
		// Widen the table in place, moving rows back to front so no row
		// is overwritten before it has moved.
		w, n := t.width(), len(t.mult)
		t.vals = append(t.vals, make([]value.Value, n)...)
		for i := n - 1; i >= 0; i-- {
			copy(t.vals[i*(w+1):i*(w+1)+w], t.vals[i*w:i*w+w])
			t.vals[i*(w+1)+w] = v
		}
		t.names = append(t.names, name)
		t.sorted = false
	}
	if t.envRow >= 0 {
		t.env[name] = v
	}
}

// Check verifies the expression evaluates without error in every row.
func (t *Tracker) Check(e ast.Expr) error {
	for i := range t.mult {
		if _, err := eval.Eval(t.ctx(i), e); err != nil {
			return err
		}
	}
	return nil
}

// HoldsEverywhere reports whether the predicate is TriTrue in every row.
func (t *Tracker) HoldsEverywhere(e ast.Expr) (bool, error) {
	for i := range t.mult {
		tr, err := eval.EvalPredicate(t.ctx(i), e)
		if err != nil {
			return false, err
		}
		if tr != value.TriTrue {
			return false, nil
		}
	}
	return true, nil
}

// EvalConstant evaluates the expression in the first row; callers use it
// only for expressions over constant variables.
func (t *Tracker) EvalConstant(e ast.Expr) (value.Value, error) {
	if len(t.mult) == 0 {
		return value.Null, fmt.Errorf("no rows")
	}
	return eval.Eval(t.ctx(0), e)
}

// Unwind models UNWIND expr AS alias: each row branches into one row per
// list element.
func (t *Tracker) Unwind(alias string, listExpr ast.Expr) error {
	c := t.col(alias)
	w := t.width()
	if c < 0 {
		c = w
		w++
	}
	out, mult := t.spare[:0], t.spareMult[:0]
	for i, m := range t.mult {
		v, err := eval.Eval(t.ctx(i), listExpr)
		if err != nil {
			return err
		}
		switch v.Kind() {
		case value.KindNull:
			// no rows
		case value.KindList:
			for _, el := range v.AsList() {
				out = append(out, t.row(i)...)
				if c == t.width() {
					out = append(out, el)
				} else {
					out[len(out)-w+c] = el
				}
				mult = append(mult, m)
			}
		default:
			return fmt.Errorf("UNWIND of non-list %s", v.Kind())
		}
	}
	if c == t.width() {
		t.names = append(t.names, alias)
		t.sorted = false
	}
	t.spare, t.vals = t.vals, out
	t.spareMult, t.mult = t.mult, mult
	t.envRow = -1
	return nil
}

// ProjItem is one projection item the tracker applies.
type ProjItem struct {
	Name string
	Expr ast.Expr
}

// Project models WITH/RETURN: evaluate the items per row, then merge
// equivalent rows (multiplicity 1 each under DISTINCT, summed
// otherwise), keeping each first occurrence. A single row has nothing
// to merge with and skips the row set.
func (t *Tracker) Project(items []ProjItem, distinct bool) error {
	out, mult := t.spare[:0], t.spareMult[:0]
	t.rows.Reset(len(items))
	for i, m := range t.mult {
		start := len(out)
		for _, it := range items {
			v, err := eval.Eval(t.ctx(i), it.Expr)
			if err != nil {
				return err
			}
			out = append(out, v)
		}
		if distinct {
			m = 1
		}
		if len(t.mult) > 1 {
			if k, added := t.rows.Add(out[start:]); !added {
				if !distinct {
					mult[k] += m
				}
				out = out[:start]
				continue
			}
		}
		mult = append(mult, m)
	}
	t.projNames = t.projNames[:0]
	for _, it := range items {
		t.projNames = append(t.projNames, it.Name)
	}
	t.spare, t.vals = t.vals, out
	t.spareMult, t.mult = t.mult, mult
	t.setColumns(t.projNames)
	return nil
}

// Filter models a WHERE subclause over the current rows.
func (t *Tracker) Filter(pred ast.Expr) error {
	w := t.width()
	kept := 0
	for i := range t.mult {
		tr, err := eval.EvalPredicate(t.ctx(i), pred)
		if err != nil {
			return err
		}
		if tr == value.TriTrue {
			copy(t.vals[kept*w:(kept+1)*w], t.row(i))
			t.mult[kept] = t.mult[i]
			kept++
		}
	}
	t.vals, t.mult = t.vals[:kept*w], t.mult[:kept]
	t.envRow = -1
	return nil
}

// Limit models LIMIT k. It is only well-defined when at most one distinct
// row exists (otherwise which rows survive depends on engine ordering);
// the synthesizer only emits LIMIT in that situation.
func (t *Tracker) Limit(k int) error {
	if len(t.mult) > 1 {
		return fmt.Errorf("LIMIT over %d distinct rows is order-dependent", len(t.mult))
	}
	if len(t.mult) == 1 && t.mult[0] > k {
		t.mult[0] = k
	}
	return nil
}

// Result materializes the expected result over the given output columns,
// which it keeps as the result's Columns. Rows of one symbolic row share
// their value slice.
func (t *Tracker) Result(cols []string) *engine.Result {
	res := &engine.Result{Columns: cols}
	total := t.TotalMult()
	if total == 0 {
		return res
	}
	res.Rows = make([][]value.Value, 0, total)
	all := make([]value.Value, len(t.mult)*len(cols))
	for i, m := range t.mult {
		vals := all[i*len(cols) : (i+1)*len(cols) : (i+1)*len(cols)]
		for j, c := range cols {
			if k := t.col(c); k >= 0 {
				vals[j] = t.row(i)[k]
			}
		}
		for k := 0; k < m; k++ {
			res.Rows = append(res.Rows, vals)
		}
	}
	return res
}
