package eval

import (
	"fmt"

	"gqs/internal/cypher/ast"
	"gqs/internal/functions"
	"gqs/internal/value"
)

// Compiled is a compiled expression: a closure tree produced once at
// Prepare time and evaluated many times against slot-addressed frames
// (Ctx.Frame). Evaluation order, error identity, and error timing are
// byte-for-byte those of the tree-walking Eval — the compiler only
// removes per-evaluation dispatch, map lookups, and re-resolution of
// functions, operators, and variables. That equivalence is what lets the
// engine share one compiled plan across every oracle target without
// perturbing the canonical bug set (DESIGN.md §12).
type Compiled func(*Ctx) (value.Value, error)

// CompiledPred is a compiled predicate: Compiled plus the three-valued
// coercion EvalPredicate applies (non-boolean results are a type error).
type CompiledPred func(*Ctx) (value.Tri, error)

// Var is a variable in scope and the frame slot that holds it.
type Var struct {
	Name string
	Slot int
}

// Splice stands for a subexpression whose value the caller publishes in
// a frame slot: the engine splices per-group aggregate results into
// projection items this way.
type Splice struct {
	Expr ast.Expr
	Slot int
}

// Compiler lowers AST expressions to Compiled closures. One Compiler may
// compile any number of expressions, and its fields may change between
// them; it keeps only scratch state of its own. The caller owns slot
// assignment and sizes its frames to the final NextSlot.
//
// A variable neither bound locally nor in scope compiles to a closure
// that returns UnknownVariableError at evaluation time — not a compile
// error — because the interpreter, too, only raises the error if the
// expression is actually evaluated (a query producing zero rows never
// sees it).
type Compiler struct {
	// Vars are the variables in scope, each name once.
	Vars []Var
	// NextSlot is the next free frame slot. An expression-local binder
	// (list-comprehension or quantifier variable) takes a slot from it.
	NextSlot int
	// Splices are checked before any other handling: a spliced node
	// compiles to a read of its slot (the last splice of a node wins),
	// and its children are not compiled.
	Splices []Splice

	// locals is the stack of expression-local binders currently in
	// scope, innermost last; it shadows Vars.
	locals []localBinding
	// fctx is the scratch context constant folding evaluates in. Frames,
	// graph, parameters, and execution state are all nil: an expression
	// is only foldable when it touches none of them.
	fctx *Ctx
}

// slotReaders holds one shared closure per low-numbered frame slot: a
// slot read is position-only, so every reference to the same slot shares
// one immutable closure instead of allocating a capture per occurrence.
// The table is built once at init and only read afterwards, so sharing
// it across compilers and goroutines is race-free.
var slotReaders = func() [64]Compiled {
	var t [64]Compiled
	for i := range t {
		slot := i
		t[i] = func(ctx *Ctx) (value.Value, error) {
			return ctx.Frame[slot], nil
		}
	}
	return t
}()

// Slot returns the closure that reads one frame slot.
func Slot(slot int) Compiled {
	if slot < len(slotReaders) {
		return slotReaders[slot]
	}
	return func(ctx *Ctx) (value.Value, error) {
		return ctx.Frame[slot], nil
	}
}

type localBinding struct {
	name string
	slot int
}

// Compile lowers the expression to a closure. Every expression
// compiles: semantic errors, and node types the compiler does not know,
// become closures that fail at evaluation time (and only if evaluated),
// exactly as the interpreter fails.
func (c *Compiler) Compile(e ast.Expr) Compiled { return c.compile(e) }

// CompilePred lowers the expression to a predicate, mirroring
// EvalPredicate's coercion and its exact type-error message.
func (c *Compiler) CompilePred(e ast.Expr) CompiledPred { return predOf(c.compile(e)) }

func predOf(fn Compiled) CompiledPred {
	return func(ctx *Ctx) (value.Tri, error) {
		v, err := fn(ctx)
		if err != nil {
			return value.TriUnknown, err
		}
		t, ok := v.Truth()
		if !ok {
			return value.TriUnknown, fmt.Errorf("type error: expected a boolean predicate, got %s", v.Kind())
		}
		return t, nil
	}
}

func constFn(v value.Value) Compiled {
	return func(*Ctx) (value.Value, error) { return v, nil }
}

func errFn(err error) Compiled {
	return func(*Ctx) (value.Value, error) { return value.Null, err }
}

func (c *Compiler) temp() int {
	s := c.NextSlot
	c.NextSlot++
	return s
}

func (c *Compiler) resolveVar(name string) (int, bool) {
	for i := len(c.locals) - 1; i >= 0; i-- {
		if c.locals[i].name == name {
			return c.locals[i].slot, true
		}
	}
	for _, v := range c.Vars {
		if v.Name == name {
			return v.Slot, true
		}
	}
	return 0, false
}

func (c *Compiler) compile(e ast.Expr) Compiled {
	for i := len(c.Splices) - 1; i >= 0; i-- {
		if c.Splices[i].Expr == e {
			return Slot(c.Splices[i].Slot)
		}
	}
	// The one constant fold: a maximal constant subtree becomes its value
	// by one Eval of the AST, without a closure per node. No spliced node
	// hides in such a subtree, since constExpr rejects the aggregate and
	// star calls projections splice. Bare literals skip the Eval walk. A
	// subtree whose Eval errors is compiled like any other, so the error
	// surfaces at evaluation time (and only if evaluated), as the
	// interpreter's would.
	if _, lit := e.(*ast.Literal); !lit && constExpr(e) {
		if c.fctx == nil {
			c.fctx = &Ctx{}
		}
		if v, err := Eval(c.fctx, e); err == nil {
			return constFn(v)
		}
	}
	switch e := e.(type) {
	case *ast.Literal:
		return constFn(e.Val)
	case *ast.Variable:
		if slot, ok := c.resolveVar(e.Name); ok {
			return Slot(slot)
		}
		return errFn(&UnknownVariableError{Name: e.Name})
	case *ast.Parameter:
		name := e.Name
		return func(ctx *Ctx) (value.Value, error) {
			v, ok := ctx.Params[name]
			if !ok {
				return value.Null, fmt.Errorf("parameter $%s is not bound", name)
			}
			return v, nil
		}
	case *ast.PropAccess:
		return c.compilePropAccess(e)
	case *ast.Binary:
		return c.compileBinary(e)
	case *ast.Unary:
		return c.compileUnary(e)
	case *ast.FuncCall:
		return c.compileFuncCall(e)
	case *ast.ListLit:
		elems := make([]Compiled, len(e.Elems))
		for i, el := range e.Elems {
			elems[i] = c.compile(el)
		}
		return func(ctx *Ctx) (value.Value, error) {
			out := make([]value.Value, len(elems))
			for i, el := range elems {
				v, err := el(ctx)
				if err != nil {
					return value.Null, err
				}
				out[i] = v
			}
			return value.ListOf(out), nil
		}
	case *ast.MapLit:
		keys := e.Keys
		vals := make([]Compiled, len(e.Vals))
		for i, v := range e.Vals {
			vals[i] = c.compile(v)
		}
		return func(ctx *Ctx) (value.Value, error) {
			out := make(map[string]value.Value, len(keys))
			for i, k := range keys {
				v, err := vals[i](ctx)
				if err != nil {
					return value.Null, err
				}
				out[k] = v
			}
			return value.Map(out), nil
		}
	case *ast.IndexExpr:
		sub, idx := c.compile(e.Subject), c.compile(e.Index)
		return func(ctx *Ctx) (value.Value, error) {
			s, err := sub(ctx)
			if err != nil {
				return value.Null, err
			}
			i, err := idx(ctx)
			if err != nil {
				return value.Null, err
			}
			return value.Index(s, i)
		}
	case *ast.SliceExpr:
		sub := c.compile(e.Subject)
		var from, to Compiled
		if e.From != nil {
			from = c.compile(e.From)
		}
		if e.To != nil {
			to = c.compile(e.To)
		}
		return func(ctx *Ctx) (value.Value, error) {
			s, err := sub(ctx)
			if err != nil {
				return value.Null, err
			}
			fromV, toV := value.Null, value.Null
			if from != nil {
				if fromV, err = from(ctx); err != nil {
					return value.Null, err
				}
			}
			if to != nil {
				if toV, err = to(ctx); err != nil {
					return value.Null, err
				}
			}
			return value.Slice(s, fromV, toV)
		}
	case *ast.CaseExpr:
		return c.compileCase(e)
	case *ast.ListComprehension:
		return c.compileComprehension(e)
	case *ast.Quantifier:
		return c.compileQuantifier(e)
	default:
		// Mirror the interpreter: an unknown node type is a runtime
		// error, raised only if the expression is evaluated.
		return errFn(fmt.Errorf("cannot evaluate %T", e))
	}
}

func (c *Compiler) compilePropAccess(e *ast.PropAccess) Compiled {
	sub := c.compile(e.Subject)
	name := e.Name
	return func(ctx *Ctx) (value.Value, error) {
		s, err := sub(ctx)
		if err != nil {
			return value.Null, err
		}
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
}

func (c *Compiler) compileBinary(e *ast.Binary) Compiled {
	l, r := c.compile(e.L), c.compile(e.R)
	// Logical operators interpret their operands as predicates, exactly
	// as evalBinary does via EvalPredicate.
	switch e.Op {
	case ast.OpAnd, ast.OpOr, ast.OpXor:
		lp, rp := predOf(l), predOf(r)
		op := e.Op
		return func(ctx *Ctx) (value.Value, error) {
			lt, err := lp(ctx)
			if err != nil {
				return value.Null, err
			}
			rt, err := rp(ctx)
			if err != nil {
				return value.Null, err
			}
			switch op {
			case ast.OpAnd:
				return lt.And(rt).Value(), nil
			case ast.OpOr:
				return lt.Or(rt).Value(), nil
			default:
				return lt.Xor(rt).Value(), nil
			}
		}
	}
	var bin func(l, r value.Value) (value.Value, error)
	switch e.Op {
	case ast.OpAdd:
		bin = value.Add
	case ast.OpSub:
		bin = value.Sub
	case ast.OpMul:
		bin = value.Mul
	case ast.OpDiv:
		bin = value.Div
	case ast.OpMod:
		bin = value.Mod
	case ast.OpPow:
		bin = value.Pow
	case ast.OpEq:
		bin = func(l, r value.Value) (value.Value, error) { return value.Equal(l, r).Value(), nil }
	case ast.OpNeq:
		bin = func(l, r value.Value) (value.Value, error) { return value.NotEqual(l, r).Value(), nil }
	case ast.OpLt:
		bin = func(l, r value.Value) (value.Value, error) { return value.Less(l, r).Value(), nil }
	case ast.OpLe:
		bin = func(l, r value.Value) (value.Value, error) { return value.LessEq(l, r).Value(), nil }
	case ast.OpGt:
		bin = func(l, r value.Value) (value.Value, error) { return value.Greater(l, r).Value(), nil }
	case ast.OpGe:
		bin = func(l, r value.Value) (value.Value, error) { return value.GreaterEq(l, r).Value(), nil }
	case ast.OpStartsWith:
		bin = func(l, r value.Value) (value.Value, error) { return value.StartsWith(l, r).Value(), nil }
	case ast.OpEndsWith:
		bin = func(l, r value.Value) (value.Value, error) { return value.EndsWith(l, r).Value(), nil }
	case ast.OpContains:
		bin = func(l, r value.Value) (value.Value, error) { return value.Contains(l, r).Value(), nil }
	case ast.OpIn:
		bin = func(l, r value.Value) (value.Value, error) { return value.In(l, r).Value(), nil }
	case ast.OpRegex:
		bin = evalRegex
	default:
		op := e.Op
		bin = func(l, r value.Value) (value.Value, error) {
			return value.Null, fmt.Errorf("unknown binary operator %v", op)
		}
	}
	return func(ctx *Ctx) (value.Value, error) {
		lv, err := l(ctx)
		if err != nil {
			return value.Null, err
		}
		rv, err := r(ctx)
		if err != nil {
			return value.Null, err
		}
		return bin(lv, rv)
	}
}

func (c *Compiler) compileUnary(e *ast.Unary) Compiled {
	x := c.compile(e.X)
	switch e.Op {
	case ast.OpNot:
		xp := predOf(x)
		return func(ctx *Ctx) (value.Value, error) {
			t, err := xp(ctx)
			if err != nil {
				return value.Null, err
			}
			return t.Not().Value(), nil
		}
	case ast.OpNeg:
		return func(ctx *Ctx) (value.Value, error) {
			v, err := x(ctx)
			if err != nil {
				return value.Null, err
			}
			return value.Neg(v)
		}
	case ast.OpIsNull, ast.OpIsNotNull:
		not := e.Op == ast.OpIsNotNull
		return func(ctx *Ctx) (value.Value, error) {
			v, err := x(ctx)
			if err != nil {
				return value.Null, err
			}
			isNull := v.IsNull()
			if not {
				return value.Bool(!isNull), nil
			}
			return value.Bool(isNull), nil
		}
	default:
		op := e.Op
		return func(ctx *Ctx) (value.Value, error) {
			if _, err := x(ctx); err != nil {
				return value.Null, err
			}
			return value.Null, fmt.Errorf("unknown unary operator %v", op)
		}
	}
}

func (c *Compiler) compileFuncCall(e *ast.FuncCall) Compiled {
	// Aggregates in scalar position fail at evaluation time, mirroring
	// evalFuncCall's first check. (Projection items route their aggregate
	// calls through Splices before reaching here.)
	if functions.IsAggregate(e.Name) {
		return errFn(ErrAggregateInScalar)
	}
	f := functions.Lookup(e.Name)
	if f == nil {
		return errFn(fmt.Errorf("unknown function %s", e.Name))
	}
	args := make([]Compiled, len(e.Args))
	for i, a := range e.Args {
		args[i] = c.compile(a)
	}
	return func(ctx *Ctx) (value.Value, error) {
		base := len(ctx.argScratch)
		for _, a := range args {
			v, err := a(ctx)
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
}

func (c *Compiler) compileCase(e *ast.CaseExpr) Compiled {
	var test Compiled
	if e.Test != nil {
		test = c.compile(e.Test)
	}
	whens := make([]Compiled, len(e.Whens))
	whenPreds := make([]CompiledPred, len(e.Whens))
	thens := make([]Compiled, len(e.Thens))
	for i, w := range e.Whens {
		if e.Test != nil {
			whens[i] = c.compile(w)
		} else {
			whenPreds[i] = predOf(c.compile(w))
		}
		thens[i] = c.compile(e.Thens[i])
	}
	var els Compiled
	if e.Else != nil {
		els = c.compile(e.Else)
	}
	return func(ctx *Ctx) (value.Value, error) {
		if test != nil {
			t, err := test(ctx)
			if err != nil {
				return value.Null, err
			}
			for i, w := range whens {
				wv, err := w(ctx)
				if err != nil {
					return value.Null, err
				}
				if value.Equal(t, wv) == value.TriTrue {
					return thens[i](ctx)
				}
			}
		} else {
			for i, w := range whenPreds {
				t, err := w(ctx)
				if err != nil {
					return value.Null, err
				}
				if t == value.TriTrue {
					return thens[i](ctx)
				}
			}
		}
		if els != nil {
			return els(ctx)
		}
		return value.Null, nil
	}
}

func (c *Compiler) compileComprehension(e *ast.ListComprehension) Compiled {
	list := c.compile(e.List)
	slot := c.temp()
	c.locals = append(c.locals, localBinding{name: e.Var, slot: slot})
	var where CompiledPred
	if e.Where != nil {
		where = predOf(c.compile(e.Where))
	}
	var mapFn Compiled
	if e.Map != nil {
		mapFn = c.compile(e.Map)
	}
	c.locals = c.locals[:len(c.locals)-1]
	return func(ctx *Ctx) (value.Value, error) {
		lv, err := list(ctx)
		if err != nil {
			return value.Null, err
		}
		if lv.IsNull() {
			return value.Null, nil
		}
		if lv.Kind() != value.KindList {
			return value.Null, fmt.Errorf("type error: list comprehension over %s", lv.Kind())
		}
		els := lv.AsList()
		out := make([]value.Value, 0, len(els))
		old := ctx.Frame[slot]
		for _, el := range els {
			ctx.Frame[slot] = el
			keep := value.TriTrue
			if where != nil {
				keep, err = where(ctx)
				if err != nil {
					ctx.Frame[slot] = old
					return value.Null, err
				}
			}
			if keep == value.TriTrue {
				mapped := el
				if mapFn != nil {
					mapped, err = mapFn(ctx)
					if err != nil {
						ctx.Frame[slot] = old
						return value.Null, err
					}
				}
				out = append(out, mapped)
			}
		}
		ctx.Frame[slot] = old
		return value.ListOf(out), nil
	}
}

func (c *Compiler) compileQuantifier(e *ast.Quantifier) Compiled {
	list := c.compile(e.List)
	slot := c.temp()
	c.locals = append(c.locals, localBinding{name: e.Var, slot: slot})
	pred := predOf(c.compile(e.Pred))
	c.locals = c.locals[:len(c.locals)-1]
	kind := e.Kind
	return func(ctx *Ctx) (value.Value, error) {
		lv, err := list(ctx)
		if err != nil {
			return value.Null, err
		}
		if lv.IsNull() {
			return value.Null, nil
		}
		if lv.Kind() != value.KindList {
			return value.Null, fmt.Errorf("type error: %s() over %s", kind, lv.Kind())
		}
		trues, falses, unknowns := 0, 0, 0
		old := ctx.Frame[slot]
		for _, el := range lv.AsList() {
			ctx.Frame[slot] = el
			t, err := pred(ctx)
			if err != nil {
				ctx.Frame[slot] = old
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
		ctx.Frame[slot] = old
		switch kind {
		case ast.QuantAll:
			switch {
			case falses > 0:
				return value.False, nil
			case unknowns > 0:
				return value.Null, nil
			default:
				return value.True, nil
			}
		case ast.QuantAny:
			switch {
			case trues > 0:
				return value.True, nil
			case unknowns > 0:
				return value.Null, nil
			default:
				return value.False, nil
			}
		case ast.QuantNone:
			switch {
			case trues > 0:
				return value.False, nil
			case unknowns > 0:
				return value.Null, nil
			default:
				return value.True, nil
			}
		default: // single
			switch {
			case trues > 1:
				return value.False, nil
			case unknowns > 0:
				return value.Null, nil
			case trues == 1:
				return value.True, nil
			default:
				return value.False, nil
			}
		}
	}
}

// constExpr reports whether an expression is constant, the one rule of
// compile's fold: literals composed through operators, property access,
// indexing, slicing, collection literals and deterministic scalar
// function calls. Variables, parameters, CASE, comprehensions and
// quantifiers are not constant. Nor are aggregate calls and star calls
// (f(*), which both engines run as count(*)): HasAggregate counts both,
// and a projection splices them. Nondeterministic functions (rand,
// timestamp) draw from the per-execution state, so folding one would
// desynchronize the stream from the interpreter. The walk allocates
// nothing.
func constExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Literal:
		return true
	case *ast.PropAccess:
		return constExpr(e.Subject)
	case *ast.Binary:
		return constExpr(e.L) && constExpr(e.R)
	case *ast.Unary:
		switch e.Op {
		case ast.OpNot, ast.OpNeg, ast.OpIsNull, ast.OpIsNotNull:
			return constExpr(e.X)
		}
		return false
	case *ast.FuncCall:
		if e.Star || functions.IsAggregate(e.Name) {
			return false
		}
		f := functions.Lookup(e.Name)
		if f == nil || f.Nondeterministic {
			return false
		}
		for _, a := range e.Args {
			if !constExpr(a) {
				return false
			}
		}
		return true
	case *ast.ListLit:
		for _, el := range e.Elems {
			if !constExpr(el) {
				return false
			}
		}
		return true
	case *ast.MapLit:
		for _, v := range e.Vals {
			if !constExpr(v) {
				return false
			}
		}
		return true
	case *ast.IndexExpr:
		return constExpr(e.Subject) && constExpr(e.Index)
	case *ast.SliceExpr:
		if !constExpr(e.Subject) {
			return false
		}
		if e.From != nil && !constExpr(e.From) {
			return false
		}
		if e.To != nil && !constExpr(e.To) {
			return false
		}
		return true
	}
	return false
}
