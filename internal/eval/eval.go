// Package eval implements Cypher expression evaluation against a labeled
// property graph and a variable environment. It is shared by the query
// engine's executor and by GQS's synthesizer, which evaluates candidate
// expressions while building queries (§3.4–3.5 of the paper).
package eval

import (
	"fmt"
	"regexp"

	"gqs/internal/cypher/ast"
	"gqs/internal/functions"
	"gqs/internal/graph"
	"gqs/internal/value"
)

// Ctx carries everything an expression evaluation needs: the graph (for
// property access and graph functions), the variable environment, query
// parameters, and the execution-scoped state behind the nondeterministic
// functions (rand(), timestamp()).
type Ctx struct {
	Graph  *graph.Graph
	Env    map[string]value.Value
	Params map[string]value.Value
	// Frame is the slot-addressed environment used by compiled
	// expressions (see Compile): operands produced by a Compiler read
	// variables as Frame[slot] instead of Env[name]. Tree-walking Eval
	// never touches it, so the two evaluation modes coexist on one Ctx.
	Frame []value.Value
	// Exec is the per-execution rand()/timestamp() state. Nil selects the
	// process-global fallback (race-free, not seed-reproducible).
	Exec *functions.ExecState
	// argScratch is the reusable argument stack of evalFuncCall. Nested
	// calls share it with strict stack discipline; it relies on no
	// function implementation retaining the args slice beyond the call
	// (they read values out of it, and values own their own storage).
	argScratch []value.Value
	// gctx is the cached functions.GraphContext adapter: passing &gctx
	// avoids re-boxing a GraphCtx into an interface on every call.
	gctx GraphCtx
	// stack holds the elements of the lists compiled expressions build
	// for a consumer that drops them before it returns (see
	// Compiler.CompileTransient). Such a list is a view of the stack; its
	// consumer truncates the stack back to the height it found, so the
	// next list reuses the storage.
	stack []value.Value
}

// stackMaxRetain bounds the values ResetStack keeps of the value stack's
// storage.
const stackMaxRetain = 4096

// StackMark returns the height of the value stack, for Release.
func (c *Ctx) StackMark() int { return len(c.stack) }

// Release truncates the value stack to a height StackMark returned,
// dropping the lists built on it since. Race builds also poison the
// freed slots (poisonReleased).
func (c *Ctx) Release(mark int) {
	if poisonReleased {
		for i := mark; i < len(c.stack); i++ {
			c.stack[i] = releasedSlot
		}
	}
	c.stack = c.stack[:mark]
}

// releasedSlot is what a race build writes into a released slot: a
// string no query builds, so a result read through an escaped view
// differs from the interpreter's.
var releasedSlot = value.Str("\x00released value-stack slot")

// ResetStack empties the value stack, dropping the references its
// storage holds and keeping at most stackMaxRetain values of it. An
// execution calls it first: a panic mid-expression skips the releases.
func (c *Ctx) ResetStack() {
	if cap(c.stack) > stackMaxRetain {
		c.stack = nil
	}
	clear(c.stack[:cap(c.stack)])
	c.stack = c.stack[:0]
}

// GraphCtx adapts a graph.Graph (plus optional execution state) to the
// functions.GraphContext interface.
type GraphCtx struct {
	G    *graph.Graph
	Exec *functions.ExecState
}

// ExecState implements functions.ExecStater.
func (c GraphCtx) ExecState() *functions.ExecState { return c.Exec }

// NodeLabels implements functions.GraphContext.
func (c GraphCtx) NodeLabels(id int64) ([]string, bool) {
	if c.G == nil {
		return nil, false
	}
	n := c.G.Node(id)
	if n == nil {
		return nil, false
	}
	return n.Labels, true
}

// RelType implements functions.GraphContext.
func (c GraphCtx) RelType(id int64) (string, bool) {
	if c.G == nil {
		return "", false
	}
	r := c.G.Rel(id)
	if r == nil {
		return "", false
	}
	return r.Type, true
}

// RelEndpoints implements functions.GraphContext.
func (c GraphCtx) RelEndpoints(id int64) (int64, int64, bool) {
	if c.G == nil {
		return 0, 0, false
	}
	r := c.G.Rel(id)
	if r == nil {
		return 0, 0, false
	}
	return r.Start, r.End, true
}

// EntityProps implements functions.GraphContext.
func (c GraphCtx) EntityProps(id int64, isRel bool) (map[string]value.Value, bool) {
	if c.G == nil {
		return nil, false
	}
	if isRel {
		r := c.G.Rel(id)
		if r == nil {
			return nil, false
		}
		return r.Props, true
	}
	n := c.G.Node(id)
	if n == nil {
		return nil, false
	}
	return n.Props, true
}

// UnknownVariableError reports a reference to a variable that is not in
// scope; in a real GDB this is a compile-time error.
type UnknownVariableError struct{ Name string }

func (e *UnknownVariableError) Error() string {
	return fmt.Sprintf("variable %s is not in scope", e.Name)
}

// ErrAggregateInScalar is returned when an aggregation operator appears
// where a scalar expression is required.
var ErrAggregateInScalar = fmt.Errorf("aggregation is not allowed in this context")

// Eval evaluates the expression in the context.
func Eval(ctx *Ctx, e ast.Expr) (value.Value, error) {
	switch e := e.(type) {
	case *ast.Literal:
		return e.Val, nil
	case *ast.Variable:
		v, ok := ctx.Env[e.Name]
		if !ok {
			return value.Null, &UnknownVariableError{Name: e.Name}
		}
		return v, nil
	case *ast.Parameter:
		v, ok := ctx.Params[e.Name]
		if !ok {
			return value.Null, fmt.Errorf("parameter $%s is not bound", e.Name)
		}
		return v, nil
	case *ast.PropAccess:
		return evalPropAccess(ctx, e)
	case *ast.Binary:
		return evalBinary(ctx, e)
	case *ast.Unary:
		return evalUnary(ctx, e)
	case *ast.FuncCall:
		return evalFuncCall(ctx, e)
	case *ast.ListLit:
		out := make([]value.Value, len(e.Elems))
		for i, el := range e.Elems {
			v, err := Eval(ctx, el)
			if err != nil {
				return value.Null, err
			}
			out[i] = v
		}
		return value.ListOf(out), nil
	case *ast.MapLit:
		out := make(map[string]value.Value, len(e.Keys))
		for i, k := range e.Keys {
			v, err := Eval(ctx, e.Vals[i])
			if err != nil {
				return value.Null, err
			}
			out[k] = v
		}
		return value.Map(out), nil
	case *ast.IndexExpr:
		s, err := Eval(ctx, e.Subject)
		if err != nil {
			return value.Null, err
		}
		i, err := Eval(ctx, e.Index)
		if err != nil {
			return value.Null, err
		}
		return value.Index(s, i)
	case *ast.SliceExpr:
		s, err := Eval(ctx, e.Subject)
		if err != nil {
			return value.Null, err
		}
		from, to := value.Null, value.Null
		if e.From != nil {
			if from, err = Eval(ctx, e.From); err != nil {
				return value.Null, err
			}
		}
		if e.To != nil {
			if to, err = Eval(ctx, e.To); err != nil {
				return value.Null, err
			}
		}
		return value.Slice(s, from, to)
	case *ast.CaseExpr:
		return evalCase(ctx, e)
	case *ast.ListComprehension:
		return evalComprehension(ctx, e)
	case *ast.Quantifier:
		return evalQuantifier(ctx, e)
	default:
		return value.Null, fmt.Errorf("cannot evaluate %T", e)
	}
}

// restoreLocal undoes a comprehension/quantifier variable binding. The
// save happens once before the element loop (the bound name is constant
// across elements), so the per-element hot path allocates no closures.
func restoreLocal(ctx *Ctx, name string, old value.Value, had bool) {
	if had {
		ctx.Env[name] = old
	} else {
		delete(ctx.Env, name)
	}
}

func evalComprehension(ctx *Ctx, e *ast.ListComprehension) (value.Value, error) {
	list, err := Eval(ctx, e.List)
	if err != nil {
		return value.Null, err
	}
	if list.IsNull() {
		return value.Null, nil
	}
	if list.Kind() != value.KindList {
		return value.Null, fmt.Errorf("type error: list comprehension over %s", list.Kind())
	}
	els := list.AsList()
	out := make([]value.Value, 0, len(els))
	old, had := ctx.Env[e.Var]
	defer restoreLocal(ctx, e.Var, old, had)
	for _, el := range els {
		ctx.Env[e.Var] = el
		keep := value.TriTrue
		if e.Where != nil {
			keep, err = EvalPredicate(ctx, e.Where)
			if err != nil {
				return value.Null, err
			}
		}
		if keep == value.TriTrue {
			mapped := el
			if e.Map != nil {
				mapped, err = Eval(ctx, e.Map)
				if err != nil {
					return value.Null, err
				}
			}
			out = append(out, mapped)
		}
	}
	return value.ListOf(out), nil
}

func evalQuantifier(ctx *Ctx, e *ast.Quantifier) (value.Value, error) {
	list, err := Eval(ctx, e.List)
	if err != nil {
		return value.Null, err
	}
	if list.IsNull() {
		return value.Null, nil
	}
	if list.Kind() != value.KindList {
		return value.Null, fmt.Errorf("type error: %s() over %s", e.Kind, list.Kind())
	}
	trues, falses, unknowns := 0, 0, 0
	old, had := ctx.Env[e.Var]
	defer restoreLocal(ctx, e.Var, old, had)
	for _, el := range list.AsList() {
		ctx.Env[e.Var] = el
		t, err := EvalPredicate(ctx, e.Pred)
		if err != nil {
			return value.Null, err
		}
		switch t {
		case value.TriTrue:
			trues++
		case value.TriFalse:
			falses++
		default:
			unknowns++
		}
	}
	return quantified(e.Kind, trues, falses, unknowns), nil
}

// quantified is a quantifier's three-valued result from the counts of
// its predicate's outcomes over the list, as in openCypher.
func quantified(kind ast.QuantKind, trues, falses, unknowns int) value.Value {
	switch kind {
	case ast.QuantAll:
		switch {
		case falses > 0:
			return value.False
		case unknowns > 0:
			return value.Null
		default:
			return value.True
		}
	case ast.QuantAny:
		switch {
		case trues > 0:
			return value.True
		case unknowns > 0:
			return value.Null
		default:
			return value.False
		}
	case ast.QuantNone:
		switch {
		case trues > 0:
			return value.False
		case unknowns > 0:
			return value.Null
		default:
			return value.True
		}
	default: // single
		switch {
		case trues > 1:
			return value.False
		case unknowns > 0:
			return value.Null
		case trues == 1:
			return value.True
		default:
			return value.False
		}
	}
}

func evalPropAccess(ctx *Ctx, e *ast.PropAccess) (value.Value, error) {
	s, err := Eval(ctx, e.Subject)
	if err != nil {
		return value.Null, err
	}
	return property(ctx, s, e.Name)
}

// property reads property name of s: a map entry, or a node's or
// relationship's property in the context's graph.
func property(ctx *Ctx, s value.Value, name string) (value.Value, error) {
	switch s.Kind() {
	case value.KindNull:
		return value.Null, nil
	case value.KindMap:
		if v, ok := s.AsMap()[name]; ok {
			return v, nil
		}
		return value.Null, nil
	case value.KindNode, value.KindRel:
		props, ok := GraphCtx{G: ctx.Graph}.EntityProps(s.EntityID(), s.Kind() == value.KindRel)
		if !ok {
			return value.Null, fmt.Errorf("unknown entity %d", s.EntityID())
		}
		if v, ok := props[name]; ok {
			return v, nil
		}
		return value.Null, nil
	default:
		return value.Null, fmt.Errorf("type error: cannot access property %s of %s", name, s.Kind())
	}
}

func evalBinary(ctx *Ctx, e *ast.Binary) (value.Value, error) {
	// Logical operators first: they interpret operands as predicates.
	switch e.Op {
	case ast.OpAnd, ast.OpOr, ast.OpXor:
		lt, err := EvalPredicate(ctx, e.L)
		if err != nil {
			return value.Null, err
		}
		rt, err := EvalPredicate(ctx, e.R)
		if err != nil {
			return value.Null, err
		}
		switch e.Op {
		case ast.OpAnd:
			return lt.And(rt).Value(), nil
		case ast.OpOr:
			return lt.Or(rt).Value(), nil
		default:
			return lt.Xor(rt).Value(), nil
		}
	}
	l, err := Eval(ctx, e.L)
	if err != nil {
		return value.Null, err
	}
	r, err := Eval(ctx, e.R)
	if err != nil {
		return value.Null, err
	}
	switch e.Op {
	case ast.OpAdd:
		return value.Add(l, r)
	case ast.OpSub:
		return value.Sub(l, r)
	case ast.OpMul:
		return value.Mul(l, r)
	case ast.OpDiv:
		return value.Div(l, r)
	case ast.OpMod:
		return value.Mod(l, r)
	case ast.OpPow:
		return value.Pow(l, r)
	case ast.OpEq:
		return value.Equal(l, r).Value(), nil
	case ast.OpNeq:
		return value.NotEqual(l, r).Value(), nil
	case ast.OpLt:
		return value.Less(l, r).Value(), nil
	case ast.OpLe:
		return value.LessEq(l, r).Value(), nil
	case ast.OpGt:
		return value.Greater(l, r).Value(), nil
	case ast.OpGe:
		return value.GreaterEq(l, r).Value(), nil
	case ast.OpStartsWith:
		return value.StartsWith(l, r).Value(), nil
	case ast.OpEndsWith:
		return value.EndsWith(l, r).Value(), nil
	case ast.OpContains:
		return value.Contains(l, r).Value(), nil
	case ast.OpIn:
		return value.In(l, r).Value(), nil
	case ast.OpRegex:
		return evalRegex(l, r)
	default:
		return value.Null, fmt.Errorf("unknown binary operator %v", e.Op)
	}
}

func evalRegex(l, r value.Value) (value.Value, error) {
	if l.IsNull() || r.IsNull() {
		return value.Null, nil
	}
	if l.Kind() != value.KindString || r.Kind() != value.KindString {
		return value.Null, nil
	}
	re, err := regexp.Compile("^(?:" + r.AsString() + ")$")
	if err != nil {
		return value.Null, fmt.Errorf("invalid regular expression %q: %v", r.AsString(), err)
	}
	return value.Bool(re.MatchString(l.AsString())), nil
}

func evalUnary(ctx *Ctx, e *ast.Unary) (value.Value, error) {
	switch e.Op {
	case ast.OpNot:
		t, err := EvalPredicate(ctx, e.X)
		if err != nil {
			return value.Null, err
		}
		return t.Not().Value(), nil
	case ast.OpNeg:
		x, err := Eval(ctx, e.X)
		if err != nil {
			return value.Null, err
		}
		return value.Neg(x)
	case ast.OpIsNull, ast.OpIsNotNull:
		x, err := Eval(ctx, e.X)
		if err != nil {
			return value.Null, err
		}
		isNull := x.IsNull()
		if e.Op == ast.OpIsNotNull {
			return value.Bool(!isNull), nil
		}
		return value.Bool(isNull), nil
	default:
		return value.Null, fmt.Errorf("unknown unary operator %v", e.Op)
	}
}

// scalarFunc resolves a function called in scalar position: an
// aggregate there is an error, as is an unknown name. No name is in both
// registries, so the scalar registry, which holds nearly every call, is
// asked first.
func scalarFunc(name string) (*functions.Func, error) {
	if f := functions.Lookup(name); f != nil {
		return f, nil
	}
	if functions.IsAggregate(name) {
		return nil, ErrAggregateInScalar
	}
	return nil, fmt.Errorf("unknown function %s", name)
}

func evalFuncCall(ctx *Ctx, e *ast.FuncCall) (value.Value, error) {
	f, err := scalarFunc(e.Name)
	if err != nil {
		return value.Null, err
	}
	base := len(ctx.argScratch)
	for _, a := range e.Args {
		v, err := Eval(ctx, a)
		if err != nil {
			ctx.argScratch = ctx.argScratch[:base]
			return value.Null, err
		}
		ctx.argScratch = append(ctx.argScratch, v)
	}
	ctx.gctx.G, ctx.gctx.Exec = ctx.Graph, ctx.Exec
	res, err := functions.Invoke(f, &ctx.gctx, ctx.argScratch[base:])
	ctx.argScratch = ctx.argScratch[:base]
	return res, err
}

func evalCase(ctx *Ctx, e *ast.CaseExpr) (value.Value, error) {
	if e.Test != nil {
		t, err := Eval(ctx, e.Test)
		if err != nil {
			return value.Null, err
		}
		for i, w := range e.Whens {
			wv, err := Eval(ctx, w)
			if err != nil {
				return value.Null, err
			}
			if value.Equal(t, wv) == value.TriTrue {
				return Eval(ctx, e.Thens[i])
			}
		}
	} else {
		for i, w := range e.Whens {
			t, err := EvalPredicate(ctx, w)
			if err != nil {
				return value.Null, err
			}
			if t == value.TriTrue {
				return Eval(ctx, e.Thens[i])
			}
		}
	}
	if e.Else != nil {
		return Eval(ctx, e.Else)
	}
	return value.Null, nil
}

// EvalPredicate evaluates an expression as a three-valued predicate, as
// WHERE subclauses do. Non-boolean results are a type error.
func EvalPredicate(ctx *Ctx, e ast.Expr) (value.Tri, error) {
	v, err := Eval(ctx, e)
	if err != nil {
		return value.TriUnknown, err
	}
	t, ok := v.Truth()
	if !ok {
		return value.TriUnknown, notBoolean(v.Kind())
	}
	return t, nil
}

// notBoolean is the type error of a predicate whose value is not a truth
// value.
func notBoolean(k value.Kind) error {
	return fmt.Errorf("type error: expected a boolean predicate, got %s", k)
}

// HasAggregate reports whether the expression contains an aggregation
// operator at any depth.
func HasAggregate(e ast.Expr) bool {
	switch e.(type) {
	case *ast.Variable, *ast.Literal, *ast.Parameter:
		return false // most projection items
	}
	found := false
	ast.WalkExprs(e, func(x ast.Expr) bool {
		if f, ok := x.(*ast.FuncCall); ok && (f.Star || functions.IsAggregate(f.Name)) {
			found = true
			return false
		}
		return true
	})
	return found
}
