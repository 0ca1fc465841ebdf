package engine

import (
	"fmt"
	"sort"

	"gqs/internal/cypher/ast"
	"gqs/internal/eval"
	"gqs/internal/functions"
	"gqs/internal/value"
)

// execUnwind expands a list expression into one row per element, as the
// UNWIND clause does. A null list produces no rows; a non-list is a type
// error, matching the Cypher reference.
func (e *Engine) execUnwind(c *ast.UnwindClause, in []row) ([]row, error) {
	var out []row
	for _, r := range in {
		if err := e.checkCancel(); err != nil {
			return nil, err
		}
		v, err := e.evalIn(r, c.Expr)
		if err != nil {
			return nil, err
		}
		switch v.Kind() {
		case value.KindNull:
			// no rows
		case value.KindList:
			for _, el := range v.AsList() {
				nr := cloneRow(r)
				nr[c.Alias] = el
				out = append(out, nr)
			}
		default:
			return nil, fmt.Errorf("type error: UNWIND expects a list, got %s", v.Kind())
		}
	}
	return out, nil
}

// projectionItem is a resolved WITH/RETURN item: its output column name
// and its expression.
type projectionItem struct {
	name string
	expr ast.Expr
	agg  bool // contains an aggregation operator
}

// resolveItems expands * and assigns output column names.
func resolveItems(p *ast.Projection, in []row, requireAlias bool) ([]projectionItem, error) {
	var items []projectionItem
	if p.Star {
		vars := map[string]bool{}
		for _, r := range in {
			for k := range r {
				vars[k] = true
			}
		}
		names := make([]string, 0, len(vars))
		for k := range vars {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, n := range names {
			items = append(items, projectionItem{name: n, expr: ast.Var(n)})
		}
	}
	seen := map[string]bool{}
	for _, it := range items {
		seen[it.name] = true
	}
	for _, it := range p.Items {
		name := it.Alias
		if name == "" {
			if v, ok := it.Expr.(*ast.Variable); ok {
				name = v.Name
			} else if requireAlias {
				return nil, fmt.Errorf("expression in WITH must be aliased (use AS)")
			} else {
				name = ast.ExprString(it.Expr)
			}
		}
		if seen[name] {
			return nil, fmt.Errorf("column %s defined more than once", name)
		}
		seen[name] = true
		items = append(items, projectionItem{name: name, expr: it.Expr, agg: eval.HasAggregate(it.Expr)})
	}
	if len(items) == 0 && !p.Star {
		return nil, fmt.Errorf("projection requires at least one column")
	}
	// A `WITH *` over an empty pipeline legitimately projects no columns;
	// later clauses see zero rows and never evaluate their expressions.
	return items, nil
}

// project evaluates a full WITH/RETURN projection over the input rows:
// grouping and aggregation, DISTINCT, ORDER BY, SKIP, and LIMIT. It
// returns the projected rows in order together with the column names.
func (e *Engine) project(p *ast.Projection, in []row, requireAlias bool) ([]row, []string, error) {
	items, err := resolveItems(p, in, requireAlias)
	if err != nil {
		return nil, nil, err
	}
	cols := make([]string, len(items))
	hasAgg := false
	for i, it := range items {
		cols[i] = it.name
		hasAgg = hasAgg || it.agg
	}

	var projected []row
	// orderEnv maps each projected row to the environment ORDER BY sees:
	// the projected values, plus (for non-aggregating, non-distinct
	// projections) the pre-projection variables.
	var orderEnv []row
	if hasAgg {
		projected, err = e.aggregate(items, in)
		if err != nil {
			return nil, nil, err
		}
		orderEnv = projected
	} else {
		for _, r := range in {
			if err := e.checkCancel(); err != nil {
				return nil, nil, err
			}
			nr := make(row, len(items))
			for _, it := range items {
				v, err := e.evalIn(r, it.expr)
				if err != nil {
					return nil, nil, err
				}
				nr[it.name] = v
			}
			projected = append(projected, nr)
			merged := cloneRow(r)
			for k, v := range nr {
				merged[k] = v
			}
			orderEnv = append(orderEnv, merged)
		}
	}

	if p.Distinct {
		projected, orderEnv = e.distinctRows(items, projected)
	}
	if len(p.OrderBy) > 0 {
		if err := e.orderBy(p.OrderBy, projected, orderEnv); err != nil {
			return nil, nil, err
		}
	}
	projected, err = e.skipLimit(p, projected)
	if err != nil {
		return nil, nil, err
	}
	return projected, cols, nil
}

func (e *Engine) distinctRows(items []projectionItem, rows []row) ([]row, []row) {
	set := &e.rows
	set.Reset(len(items))
	key := make([]value.Value, len(items))
	var out []row
	for _, r := range rows {
		for i, it := range items {
			key[i] = r[it.name]
		}
		if _, added := set.Add(key); added {
			out = append(out, r)
		}
	}
	// After DISTINCT the pre-projection environment is ambiguous, so
	// ORDER BY sees only the projected columns.
	return out, out
}

func (e *Engine) orderBy(sorts []*ast.SortItem, rows []row, envs []row) error {
	type keyed struct {
		r    row
		keys []value.Value
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		env := r
		if envs != nil {
			env = envs[i]
		}
		keys := make([]value.Value, len(sorts))
		for j, s := range sorts {
			v, err := e.evalIn(env, s.Expr)
			if err != nil {
				return err
			}
			keys[j] = v
		}
		ks[i] = keyed{r: r, keys: keys}
	}
	sort.SliceStable(ks, func(a, b int) bool {
		for j, s := range sorts {
			c := value.OrderCompare(ks[a].keys[j], ks[b].keys[j])
			if c != 0 {
				if s.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	for i := range ks {
		rows[i] = ks[i].r
	}
	return nil
}

func (e *Engine) skipLimit(p *ast.Projection, rows []row) ([]row, error) {
	if p.Skip != nil {
		n, err := e.nonNegInt(p.Skip, "SKIP")
		if err != nil {
			return nil, err
		}
		if n >= int64(len(rows)) {
			rows = nil
		} else {
			rows = rows[n:]
		}
	}
	if p.Limit != nil {
		n, err := e.nonNegInt(p.Limit, "LIMIT")
		if err != nil {
			return nil, err
		}
		if n < int64(len(rows)) {
			rows = rows[:n]
		}
	}
	return rows, nil
}

func (e *Engine) nonNegInt(x ast.Expr, what string) (int64, error) {
	v, err := e.evalIn(row{}, x)
	if err != nil {
		return 0, err
	}
	if v.Kind() != value.KindInt || v.AsInt() < 0 {
		return 0, fmt.Errorf("%s requires a non-negative integer, got %v", what, v)
	}
	return v.AsInt(), nil
}

// aggCall is one aggregation operator occurrence within a projection.
type aggCall struct {
	call *ast.FuncCall
	spec *functions.AggSpec
	star bool
}

// aggregate implements grouped aggregation: non-aggregate items are the
// grouping keys; aggregate subexpressions accumulate per group and are
// substituted back into the item expressions for the final evaluation.
func (e *Engine) aggregate(items []projectionItem, in []row) ([]row, error) {
	// Collect the aggregate calls per item.
	var calls []aggCall
	for _, it := range items {
		ast.WalkExprs(it.expr, func(x ast.Expr) bool {
			f, ok := x.(*ast.FuncCall)
			if !ok {
				return true
			}
			if f.Star {
				calls = append(calls, aggCall{call: f, star: true})
				return false
			}
			if spec := functions.LookupAgg(f.Name); spec != nil {
				calls = append(calls, aggCall{call: f, spec: spec})
				return false // aggregates do not nest
			}
			return true
		})
	}

	// Groups are numbered in first-occurrence order by the engine's row
	// set, which holds their keys (the grouping items' values, in item
	// order); DISTINCT aggregates dedupe (group, call, value) triples.
	type group struct {
		firstRow row
		accs     []functions.Aggregator
	}
	set, seen := &e.rows, &e.aggRows
	var groups []group
	var keyIdx []int // item index of each grouping key
	for i, it := range items {
		if !it.agg {
			keyIdx = append(keyIdx, i)
		}
	}
	set.Reset(len(keyIdx))
	seen.Reset(3)
	key := make([]value.Value, len(keyIdx))

	newGroup := func(r row) error {
		g := group{firstRow: r, accs: make([]functions.Aggregator, len(calls))}
		for i, c := range calls {
			if c.star {
				g.accs[i] = functions.CountStar()
				continue
			}
			var param value.Value
			if c.spec.HasParam {
				if len(c.call.Args) != 2 {
					return fmt.Errorf("%s requires two arguments", c.spec.Name)
				}
				p, err := e.evalIn(r, c.call.Args[1])
				if err != nil {
					return err
				}
				param = p
			} else if len(c.call.Args) != 1 {
				return fmt.Errorf("%s requires one argument", c.spec.Name)
			}
			g.accs[i] = c.spec.New(param)
		}
		groups = append(groups, g)
		return nil
	}

	for _, r := range in {
		if err := e.checkCancel(); err != nil {
			return nil, err
		}
		for k, i := range keyIdx {
			v, err := e.evalIn(r, items[i].expr)
			if err != nil {
				return nil, err
			}
			key[k] = v
		}
		gi, added := set.Add(key)
		if added {
			if err := newGroup(r); err != nil {
				return nil, err
			}
		}
		g := &groups[gi]
		for i, c := range calls {
			var v value.Value
			if c.star {
				v = value.True // counted regardless
			} else {
				var err error
				v, err = e.evalIn(r, c.call.Args[0])
				if err != nil {
					return nil, err
				}
			}
			if c.call.Distinct && !c.star {
				if _, first := seen.Add([]value.Value{value.Int(int64(gi)), value.Int(int64(i)), v}); !first {
					continue
				}
			}
			if err := g.accs[i].Add(v); err != nil {
				return nil, err
			}
		}
	}

	// Aggregation over zero rows with no grouping keys still yields one
	// row (count(*) over an empty match is 0).
	if len(in) == 0 && allAggregated(items) {
		if err := newGroup(row{}); err != nil {
			return nil, err
		}
	}

	var out []row
	for gi := range groups {
		g := &groups[gi]
		aggVals := map[*ast.FuncCall]value.Value{}
		for i, c := range calls {
			aggVals[c.call] = g.accs[i].Result()
		}
		keys := set.Row(gi)
		nr := make(row, len(items))
		for k, i := range keyIdx {
			nr[items[i].name] = keys[k]
		}
		for _, it := range items {
			if !it.agg {
				continue
			}
			final := substituteAggs(it.expr, aggVals)
			v, err := e.evalIn(g.firstRow, final)
			if err != nil {
				return nil, err
			}
			nr[it.name] = v
		}
		out = append(out, nr)
	}
	return out, nil
}

func allAggregated(items []projectionItem) bool {
	for _, it := range items {
		if !it.agg {
			return false
		}
	}
	return true
}

// substituteAggs replaces aggregate call nodes with literals of their
// computed per-group values, leaving the rest of the tree intact.
func substituteAggs(e ast.Expr, vals map[*ast.FuncCall]value.Value) ast.Expr {
	switch x := e.(type) {
	case *ast.FuncCall:
		if v, ok := vals[x]; ok {
			return ast.Lit(v)
		}
		args := make([]ast.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = substituteAggs(a, vals)
		}
		return &ast.FuncCall{Name: x.Name, Distinct: x.Distinct, Star: x.Star, Args: args}
	case *ast.Binary:
		return &ast.Binary{Op: x.Op, L: substituteAggs(x.L, vals), R: substituteAggs(x.R, vals)}
	case *ast.Unary:
		return &ast.Unary{Op: x.Op, X: substituteAggs(x.X, vals)}
	case *ast.PropAccess:
		return &ast.PropAccess{Subject: substituteAggs(x.Subject, vals), Name: x.Name}
	case *ast.ListLit:
		elems := make([]ast.Expr, len(x.Elems))
		for i, el := range x.Elems {
			elems[i] = substituteAggs(el, vals)
		}
		return &ast.ListLit{Elems: elems}
	case *ast.MapLit:
		vs := make([]ast.Expr, len(x.Vals))
		for i, v := range x.Vals {
			vs[i] = substituteAggs(v, vals)
		}
		return &ast.MapLit{Keys: x.Keys, Vals: vs}
	case *ast.IndexExpr:
		return &ast.IndexExpr{Subject: substituteAggs(x.Subject, vals), Index: substituteAggs(x.Index, vals)}
	case *ast.SliceExpr:
		out := &ast.SliceExpr{Subject: substituteAggs(x.Subject, vals)}
		if x.From != nil {
			out.From = substituteAggs(x.From, vals)
		}
		if x.To != nil {
			out.To = substituteAggs(x.To, vals)
		}
		return out
	case *ast.CaseExpr:
		out := &ast.CaseExpr{}
		if x.Test != nil {
			out.Test = substituteAggs(x.Test, vals)
		}
		for i := range x.Whens {
			out.Whens = append(out.Whens, substituteAggs(x.Whens[i], vals))
			out.Thens = append(out.Thens, substituteAggs(x.Thens[i], vals))
		}
		if x.Else != nil {
			out.Else = substituteAggs(x.Else, vals)
		}
		return out
	default:
		return e
	}
}

// execWith runs a WITH clause: projection, then the optional WHERE filter.
func (e *Engine) execWith(c *ast.WithClause, in []row) ([]row, error) {
	rows, _, err := e.project(&c.Projection, in, true)
	if err != nil {
		return nil, err
	}
	if c.Where == nil {
		return rows, nil
	}
	var out []row
	for _, r := range rows {
		t, err := eval.EvalPredicate(e.evalCtx(r), c.Where)
		if err != nil {
			return nil, err
		}
		if t == value.TriTrue {
			out = append(out, r)
		}
	}
	return out, nil
}

// execReturn runs the final RETURN clause, producing the query result.
func (e *Engine) execReturn(c *ast.ReturnClause, in []row) (*Result, error) {
	rows, cols, err := e.project(&c.Projection, in, false)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: cols}
	for _, r := range rows {
		vals := make([]value.Value, len(cols))
		for i, col := range cols {
			vals[i] = r[col]
		}
		res.Rows = append(res.Rows, vals)
	}
	return res, nil
}

// execCall implements the CALL clause for the built-in database
// procedures (db.labels, db.relationshipTypes, db.propertyKeys). As in
// the paper, not every dialect provides them.
func (e *Engine) execCall(c *ast.CallClause, in []row, last bool) ([]row, *Result, error) {
	var col string
	var vals []value.Value
	switch c.Procedure {
	case "db.labels":
		if !e.opts.Dialect.ProvidesDBLabels {
			return nil, nil, fmt.Errorf("%s: there is no procedure db.labels", e.opts.Dialect.Name)
		}
		col = "label"
		for _, l := range e.store.Labels() {
			vals = append(vals, value.Str(l))
		}
	case "db.relationshipTypes":
		if !e.opts.Dialect.ProvidesDBLabels {
			return nil, nil, fmt.Errorf("%s: there is no procedure db.relationshipTypes", e.opts.Dialect.Name)
		}
		col = "relationshipType"
		for _, t := range e.store.RelTypes() {
			vals = append(vals, value.Str(t))
		}
	case "db.propertyKeys":
		if !e.opts.Dialect.ProvidesDBLabels {
			return nil, nil, fmt.Errorf("%s: there is no procedure db.propertyKeys", e.opts.Dialect.Name)
		}
		col = "propertyKey"
		for _, k := range e.store.PropertyKeys() {
			vals = append(vals, value.Str(k))
		}
	default:
		return nil, nil, fmt.Errorf("unknown procedure %s", c.Procedure)
	}
	if len(c.Yield) > 1 {
		return nil, nil, fmt.Errorf("procedure %s yields one column", c.Procedure)
	}
	if len(c.Yield) == 1 {
		col = c.Yield[0]
	}
	var out []row
	for _, r := range in {
		for _, v := range vals {
			nr := cloneRow(r)
			nr[col] = v
			out = append(out, nr)
		}
	}
	if last {
		// Standalone CALL as the final clause returns the column directly.
		res := &Result{Columns: []string{col}}
		for _, r := range out {
			res.Rows = append(res.Rows, []value.Value{r[col]})
		}
		return out, res, nil
	}
	return out, nil, nil
}
