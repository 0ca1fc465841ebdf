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

// CompiledPred is a compiled predicate: the three-valued result
// EvalPredicate gives for the same expression, its type error for a
// non-boolean value included.
type CompiledPred func(*Ctx) (value.Tri, error)

// Var is a variable in scope and the frame slot that holds it.
type Var struct {
	Name string
	Slot int
}

// Named reports whether the variable is called name. It compares the
// last bytes first: the names of one scope mostly share their length and
// first letter (n0, n1, r0, …), and scopes are searched linearly.
func (v Var) Named(name string) bool {
	n := v.Name
	return len(n) == len(name) && (n == "" || n[len(n)-1] == name[len(name)-1]) && n == name
}

// Splice stands for a subexpression whose value the caller publishes in
// a frame slot: the engine splices per-group aggregate results into
// projection items this way.
type Splice struct {
	Expr ast.Expr
	Slot int
}

// Operand is a compiled expression that an operator evaluates in place:
// a folded constant, a frame slot, a property of the value in a frame
// slot, or a closure for anything else. Leaves — most operands of a
// synthesized predicate — therefore cost their operator no closure call
// and the compiler no closure allocation.
type Operand struct {
	kind opKind
	slot int32       // the frame slot of an opSlot or opProp
	v    value.Value // the value of an opConst, the key of an opProp
	fn   Compiled    // the closure of an opFn
}

type opKind uint8

const (
	// opPending is what lower returns for a constant subtree it has not
	// folded: only the caller knows whether the subtree is maximal.
	opPending opKind = iota
	opConst
	opSlot
	opProp
	opFn
)

// Eval evaluates the operand. The receiver is a value so that a closure
// holding operands keeps them inside its own allocation.
func (o Operand) Eval(ctx *Ctx) (value.Value, error) {
	switch o.kind {
	case opConst:
		return o.v, nil
	case opSlot:
		return ctx.Frame[o.slot], nil
	case opProp:
		return property(ctx, ctx.Frame[o.slot], o.v.AsString())
	}
	return o.fn(ctx)
}

// SlotOperand returns the operand that reads one frame slot.
func SlotOperand(slot int) Operand { return Operand{kind: opSlot, slot: int32(slot)} }

// IsZero reports whether o is the zero Operand, which stands for no
// expression.
func (o Operand) IsZero() bool { return o.kind == opPending }

func fnOperand(fn Compiled) Operand { return Operand{kind: opFn, fn: fn} }

// Compiler lowers AST expressions to operands and predicates. One
// Compiler may compile any number of expressions, and its exported
// fields may change between them; it keeps only scratch state of its
// own. The caller owns slot assignment and sizes its frames to the
// final NextSlot.
//
// A variable neither bound locally nor in scope compiles to a closure
// that returns UnknownVariableError at evaluation time — not a compile
// error — because the interpreter, too, only raises the error if the
// expression is actually evaluated (a query producing zero rows never
// sees it).
//
// Constness is decided bottom-up, in the one walk that compiles: a
// constant subtree builds nothing, and its parent folds it only once the
// parent turns out not to be constant itself, so each maximal constant
// subtree is folded by one Eval (see folded).
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
	// Refs gains, for every free-variable reference in what is compiled
	// (arguments the compiler leaves uncompiled included), the index of
	// the variable in Vars, or -1 for a name out of scope. The caller
	// truncates it; the engine schedules WHERE conjuncts from it.
	Refs []int

	// locals is the stack of expression-local binders currently in
	// scope, innermost last; it shadows Vars.
	locals []localBinding
	// fctx is the context constant folding evaluates in. Frames, graph,
	// parameters, and execution state are all nil: an expression is only
	// constant when it touches none of them.
	fctx Ctx
	// ops holds the lowered children of the n-ary nodes being compiled,
	// until their parent knows whether it is constant.
	ops []Operand
}

// Reset readies the compiler for expressions of another query: no
// variables in scope, slot 0 next, no splices. Its scratch keeps nothing
// of the last query alive.
func (c *Compiler) Reset() {
	c.Vars, c.Splices, c.NextSlot = nil, nil, 0
	clear(c.locals[:cap(c.locals)])
	clear(c.ops[:cap(c.ops)])
	clear(c.fctx.argScratch[:cap(c.fctx.argScratch)])
}

// triPreds are the predicates a constant truth value folds to.
var triPreds = [...]CompiledPred{
	value.TriFalse:   func(*Ctx) (value.Tri, error) { return value.TriFalse, nil },
	value.TriTrue:    func(*Ctx) (value.Tri, error) { return value.TriTrue, nil },
	value.TriUnknown: func(*Ctx) (value.Tri, error) { return value.TriUnknown, nil },
}

type localBinding struct {
	name string
	slot int
}

// Compile lowers the expression to an operand, which costs no closure
// when the expression is a constant, a variable or a property of a
// variable. Every expression compiles: semantic errors, and node types
// the compiler does not know, become closures that fail at evaluation
// time (and only if evaluated), exactly as the interpreter fails.
func (c *Compiler) Compile(e ast.Expr) Operand { return c.operand(e) }

// CompilePred lowers the expression to a predicate, mirroring
// EvalPredicate's coercion and its exact type-error message.
func (c *Compiler) CompilePred(e ast.Expr) CompiledPred { return c.predicate(e) }

func errFn(err error) Compiled {
	return func(*Ctx) (value.Value, error) { return value.Null, err }
}

func (c *Compiler) temp() int {
	s := c.NextSlot
	c.NextSlot++
	return s
}

// resolveVar returns the slot of a variable and records the reference
// in Refs unless a local binder holds it.
func (c *Compiler) resolveVar(name string) (int, bool) {
	for i := len(c.locals) - 1; i >= 0; i-- {
		if c.locals[i].name == name {
			return c.locals[i].slot, true
		}
	}
	for i, v := range c.Vars {
		if v.Named(name) {
			c.Refs = append(c.Refs, i)
			return v.Slot, true
		}
	}
	c.Refs = append(c.Refs, -1)
	return 0, false
}

// refArgs records the free variables of arguments that are never
// compiled, as resolveVar would.
func (c *Compiler) refArgs(args []ast.Expr) {
	for _, a := range args {
		ast.EachFreeVar(a, func(name string) { c.resolveVar(name) })
	}
}

func (c *Compiler) operand(e ast.Expr) Operand { return c.fin(e, c.lower(e, true)) }

// fin folds an operand lower left pending: its subtree is constant and
// its parent is not, so the subtree is maximal.
func (c *Compiler) fin(e ast.Expr, o Operand) Operand {
	if o.kind == opPending {
		return c.folded(e)
	}
	return o
}

// folded is the one constant fold: a maximal constant subtree becomes
// its value by one Eval of the AST, without a closure per node. No
// spliced node hides in such a subtree, since aggregate and star calls
// are never constant. Bare literals skip the Eval walk. A subtree whose
// Eval errors is compiled node by node, so the error surfaces at
// evaluation time (and only if evaluated), as the interpreter's would.
func (c *Compiler) folded(e ast.Expr) Operand {
	if v, err := c.constValue(e); err == nil {
		return Operand{kind: opConst, v: v}
	}
	return c.lower(e, false)
}

func (c *Compiler) constValue(e ast.Expr) (value.Value, error) {
	if lit, ok := e.(*ast.Literal); ok {
		return lit.Val, nil
	}
	return Eval(&c.fctx, e)
}

// lower compiles e, or, when e is constant and fold is set, builds
// nothing and returns a pending operand. Constant expressions are
// literals composed through operators, property access, indexing,
// slicing, collection literals and deterministic scalar function calls.
// Variables, parameters, CASE, comprehensions and quantifiers are not
// constant.
// Nor are aggregate calls and star calls (f(*), which both engines run
// as count(*)): HasAggregate counts both, and a projection splices them.
// Nondeterministic functions (rand, timestamp) draw from the
// per-execution state, so folding one would desynchronize the stream
// from the interpreter.
func (c *Compiler) lower(e ast.Expr, fold bool) Operand {
	for i := len(c.Splices) - 1; i >= 0; i-- {
		if c.Splices[i].Expr == e {
			return SlotOperand(c.Splices[i].Slot)
		}
	}
	switch e := e.(type) {
	case *ast.Literal:
		if fold {
			return Operand{}
		}
		return Operand{kind: opConst, v: e.Val}
	case *ast.Variable:
		if slot, ok := c.resolveVar(e.Name); ok {
			return SlotOperand(slot)
		}
		return fnOperand(errFn(&UnknownVariableError{Name: e.Name}))
	case *ast.Parameter:
		name := e.Name
		return fnOperand(func(ctx *Ctx) (value.Value, error) {
			v, ok := ctx.Params[name]
			if !ok {
				return value.Null, fmt.Errorf("parameter $%s is not bound", name)
			}
			return v, nil
		})
	case *ast.PropAccess:
		s := c.lower(e.Subject, true)
		if fold && s.kind == opPending {
			return Operand{}
		}
		sub, name := c.fin(e.Subject, s), e.Name
		if sub.kind == opSlot {
			return Operand{kind: opProp, slot: sub.slot, v: value.Str(name)}
		}
		return fnOperand(func(ctx *Ctx) (value.Value, error) {
			v, err := sub.Eval(ctx)
			if err != nil {
				return value.Null, err
			}
			return property(ctx, v, name)
		})
	case *ast.Binary:
		return c.lowerBinary(e, fold)
	case *ast.Unary:
		return c.lowerUnary(e, fold)
	case *ast.FuncCall:
		return c.lowerCall(e, fold)
	case *ast.ListLit:
		base, konst := c.push(e.Elems)
		if fold && konst {
			c.ops = c.ops[:base]
			return Operand{}
		}
		elems := c.pop(base, e.Elems)
		return fnOperand(func(ctx *Ctx) (value.Value, error) {
			out := make([]value.Value, len(elems))
			for i, el := range elems {
				v, err := el.Eval(ctx)
				if err != nil {
					return value.Null, err
				}
				out[i] = v
			}
			return value.ListOf(out), nil
		})
	case *ast.MapLit:
		base, konst := c.push(e.Vals)
		if fold && konst {
			c.ops = c.ops[:base]
			return Operand{}
		}
		keys, vals := e.Keys, c.pop(base, e.Vals)
		return fnOperand(func(ctx *Ctx) (value.Value, error) {
			out := make(map[string]value.Value, len(keys))
			for i, k := range keys {
				v, err := vals[i].Eval(ctx)
				if err != nil {
					return value.Null, err
				}
				out[k] = v
			}
			return value.Map(out), nil
		})
	case *ast.IndexExpr:
		s, i := c.lower(e.Subject, true), c.lower(e.Index, true)
		if fold && s.kind == opPending && i.kind == opPending {
			return Operand{}
		}
		sub, idx := c.fin(e.Subject, s), c.fin(e.Index, i)
		return fnOperand(func(ctx *Ctx) (value.Value, error) {
			s, err := sub.Eval(ctx)
			if err != nil {
				return value.Null, err
			}
			i, err := idx.Eval(ctx)
			if err != nil {
				return value.Null, err
			}
			return value.Index(s, i)
		})
	case *ast.SliceExpr:
		return c.lowerSlice(e, fold)
	case *ast.CaseExpr:
		return fnOperand(c.compileCase(e))
	case *ast.ListComprehension:
		return fnOperand(c.compileComprehension(e))
	case *ast.Quantifier:
		return fnOperand(c.compileQuantifier(e))
	default:
		// Mirror the interpreter: an unknown node type is a runtime
		// error, raised only if the expression is evaluated.
		return fnOperand(errFn(fmt.Errorf("cannot evaluate %T", e)))
	}
}

// push lowers expressions onto the operand stack, reporting where they
// start and whether all of them are constant.
func (c *Compiler) push(es []ast.Expr) (base int, konst bool) {
	base, konst = len(c.ops), true
	for _, x := range es {
		o := c.lower(x, true)
		konst = konst && o.kind == opPending
		c.ops = append(c.ops, o)
	}
	return base, konst
}

// pop takes the operands of es off the stack from base, folding the
// pending ones. Folding may push and pop above them, never below.
func (c *Compiler) pop(base int, es []ast.Expr) []Operand {
	out := make([]Operand, len(es))
	for i, x := range es {
		out[i] = c.fin(x, c.ops[base+i])
	}
	c.ops = c.ops[:base]
	return out
}

// comparison returns the three-valued comparison of a comparison
// operator, or nil.
func comparison(op ast.BinOp) func(l, r value.Value) value.Tri {
	switch op {
	case ast.OpEq:
		return value.Equal
	case ast.OpNeq:
		return value.NotEqual
	case ast.OpLt:
		return value.Less
	case ast.OpLe:
		return value.LessEq
	case ast.OpGt:
		return value.Greater
	case ast.OpGe:
		return value.GreaterEq
	case ast.OpStartsWith:
		return value.StartsWith
	case ast.OpEndsWith:
		return value.EndsWith
	case ast.OpContains:
		return value.Contains
	case ast.OpIn:
		return value.In
	}
	return nil
}

// logical returns the three-valued combination of a logical operator,
// or nil.
func logical(op ast.BinOp) func(l, r value.Tri) value.Tri {
	switch op {
	case ast.OpAnd:
		return value.Tri.And
	case ast.OpOr:
		return value.Tri.Or
	case ast.OpXor:
		return value.Tri.Xor
	}
	return nil
}

// arithmetic returns the value function of any other binary operator.
func arithmetic(op ast.BinOp) func(l, r value.Value) (value.Value, error) {
	switch op {
	case ast.OpAdd:
		return value.Add
	case ast.OpSub:
		return value.Sub
	case ast.OpMul:
		return value.Mul
	case ast.OpDiv:
		return value.Div
	case ast.OpMod:
		return value.Mod
	case ast.OpPow:
		return value.Pow
	case ast.OpRegex:
		return evalRegex
	}
	return func(l, r value.Value) (value.Value, error) {
		return value.Null, fmt.Errorf("unknown binary operator %v", op)
	}
}

func (c *Compiler) lowerBinary(e *ast.Binary, fold bool) Operand {
	if logical(e.Op) != nil {
		p, konst := c.lowerPred(e, fold)
		if konst {
			return Operand{}
		}
		return fnOperand(predValue(p))
	}
	lo, ro := c.lower(e.L, true), c.lower(e.R, true)
	if fold && lo.kind == opPending && ro.kind == opPending {
		return Operand{}
	}
	l, r := c.fin(e.L, lo), c.fin(e.R, ro)
	if cmp := comparison(e.Op); cmp != nil {
		return fnOperand(func(ctx *Ctx) (value.Value, error) {
			lv, err := l.Eval(ctx)
			if err != nil {
				return value.Null, err
			}
			rv, err := r.Eval(ctx)
			if err != nil {
				return value.Null, err
			}
			return cmp(lv, rv).Value(), nil
		})
	}
	bin := arithmetic(e.Op)
	return fnOperand(func(ctx *Ctx) (value.Value, error) {
		lv, err := l.Eval(ctx)
		if err != nil {
			return value.Null, err
		}
		rv, err := r.Eval(ctx)
		if err != nil {
			return value.Null, err
		}
		return bin(lv, rv)
	})
}

func (c *Compiler) lowerUnary(e *ast.Unary, fold bool) Operand {
	switch e.Op {
	case ast.OpNot:
		p, konst := c.lowerPred(e, fold)
		if konst {
			return Operand{}
		}
		return fnOperand(predValue(p))
	case ast.OpNeg, ast.OpIsNull, ast.OpIsNotNull:
		o := c.lower(e.X, true)
		if fold && o.kind == opPending {
			return Operand{}
		}
		x := c.fin(e.X, o)
		if e.Op == ast.OpNeg {
			return fnOperand(func(ctx *Ctx) (value.Value, error) {
				v, err := x.Eval(ctx)
				if err != nil {
					return value.Null, err
				}
				return value.Neg(v)
			})
		}
		not := e.Op == ast.OpIsNotNull
		return fnOperand(func(ctx *Ctx) (value.Value, error) {
			v, err := x.Eval(ctx)
			if err != nil {
				return value.Null, err
			}
			return value.Bool(v.IsNull() != not), nil
		})
	}
	x, op := c.operand(e.X), e.Op
	return fnOperand(func(ctx *Ctx) (value.Value, error) {
		if _, err := x.Eval(ctx); err != nil {
			return value.Null, err
		}
		return value.Null, fmt.Errorf("unknown unary operator %v", op)
	})
}

// lowerCall resolves the function once. Aggregates in scalar position
// and unknown functions fail at evaluation time, mirroring evalFuncCall's
// first checks, with their arguments never evaluated. (Projection items
// route their aggregate calls through Splices before reaching here.)
func (c *Compiler) lowerCall(e *ast.FuncCall, fold bool) Operand {
	f, err := scalarFunc(e.Name)
	if err != nil {
		c.refArgs(e.Args)
		return fnOperand(errFn(err))
	}
	base, konst := c.push(e.Args)
	if fold && konst && !e.Star && !f.Nondeterministic {
		c.ops = c.ops[:base]
		return Operand{}
	}
	if len(e.Args) == 1 {
		arg := c.fin(e.Args[0], c.ops[base])
		c.ops = c.ops[:base]
		return fnOperand(func(ctx *Ctx) (value.Value, error) {
			v, err := arg.Eval(ctx)
			if err != nil {
				return value.Null, err
			}
			base := len(ctx.argScratch)
			ctx.argScratch = append(ctx.argScratch, v)
			return invoke(ctx, f, base)
		})
	}
	args := c.pop(base, e.Args)
	return fnOperand(func(ctx *Ctx) (value.Value, error) {
		base := len(ctx.argScratch)
		for _, a := range args {
			v, err := a.Eval(ctx)
			if err != nil {
				ctx.argScratch = ctx.argScratch[:base]
				return value.Null, err
			}
			ctx.argScratch = append(ctx.argScratch, v)
		}
		return invoke(ctx, f, base)
	})
}

// invoke calls f on the arguments from base of the argument stack and
// pops them.
func invoke(ctx *Ctx, f *functions.Func, base int) (value.Value, error) {
	ctx.gctx.G, ctx.gctx.Exec = ctx.Graph, ctx.Exec
	res, err := functions.Invoke(f, &ctx.gctx, ctx.argScratch[base:])
	ctx.argScratch = ctx.argScratch[:base]
	return res, err
}

func (c *Compiler) lowerSlice(e *ast.SliceExpr, fold bool) Operand {
	so := c.lower(e.Subject, true)
	konst := so.kind == opPending
	// An absent bound is null, as it is to value.Slice.
	bounds := [2]Operand{{kind: opConst}, {kind: opConst}}
	for i, x := range [2]ast.Expr{e.From, e.To} {
		if x != nil {
			bounds[i] = c.lower(x, true)
			konst = konst && bounds[i].kind == opPending
		}
	}
	if fold && konst {
		return Operand{}
	}
	sub, from, to := c.fin(e.Subject, so), c.fin(e.From, bounds[0]), c.fin(e.To, bounds[1])
	return fnOperand(func(ctx *Ctx) (value.Value, error) {
		s, err := sub.Eval(ctx)
		if err != nil {
			return value.Null, err
		}
		fromV, err := from.Eval(ctx)
		if err != nil {
			return value.Null, err
		}
		toV, err := to.Eval(ctx)
		if err != nil {
			return value.Null, err
		}
		return value.Slice(s, fromV, toV)
	})
}

// predicate lowers e in predicate position, folding it if constant.
func (c *Compiler) predicate(e ast.Expr) CompiledPred {
	if p, konst := c.lowerPred(e, true); !konst {
		return p
	}
	return c.foldedPred(e)
}

// foldedPred is folded in predicate position: a constant truth value
// becomes one of three shared closures, and any other constant a closure
// raising EvalPredicate's type error when evaluated.
func (c *Compiler) foldedPred(e ast.Expr) CompiledPred {
	v, err := c.constValue(e)
	if err != nil {
		p, _ := c.lowerPred(e, false)
		return p
	}
	t, ok := v.Truth()
	if !ok {
		kind := v.Kind()
		return func(*Ctx) (value.Tri, error) { return value.TriUnknown, notBoolean(kind) }
	}
	return triPreds[t]
}

// lowerPred is lower in predicate position. A comparison yields its
// three-valued result directly, and logical operators combine their
// operands' predicates, so neither converts through a Value. Any other
// expression is lowered as a value and coerced as EvalPredicate does.
// It reports a constant e, when fold is set, by returning no predicate.
func (c *Compiler) lowerPred(e ast.Expr, fold bool) (CompiledPred, bool) {
	switch e := e.(type) {
	case *ast.Binary:
		if combine := logical(e.Op); combine != nil {
			lp, lk := c.lowerPred(e.L, true)
			rp, rk := c.lowerPred(e.R, true)
			if fold && lk && rk {
				return nil, true
			}
			if lk {
				lp = c.foldedPred(e.L)
			}
			if rk {
				rp = c.foldedPred(e.R)
			}
			return func(ctx *Ctx) (value.Tri, error) {
				lt, err := lp(ctx)
				if err != nil {
					return value.TriUnknown, err
				}
				rt, err := rp(ctx)
				if err != nil {
					return value.TriUnknown, err
				}
				return combine(lt, rt), nil
			}, false
		}
		if cmp := comparison(e.Op); cmp != nil {
			lo, ro := c.lower(e.L, true), c.lower(e.R, true)
			if fold && lo.kind == opPending && ro.kind == opPending {
				return nil, true
			}
			l, r := c.fin(e.L, lo), c.fin(e.R, ro)
			return func(ctx *Ctx) (value.Tri, error) {
				lv, err := l.Eval(ctx)
				if err != nil {
					return value.TriUnknown, err
				}
				rv, err := r.Eval(ctx)
				if err != nil {
					return value.TriUnknown, err
				}
				return cmp(lv, rv), nil
			}, false
		}
	case *ast.Unary:
		switch e.Op {
		case ast.OpNot:
			xp, konst := c.lowerPred(e.X, true)
			if fold && konst {
				return nil, true
			}
			if konst {
				xp = c.foldedPred(e.X)
			}
			return func(ctx *Ctx) (value.Tri, error) {
				t, err := xp(ctx)
				if err != nil {
					return value.TriUnknown, err
				}
				return t.Not(), nil
			}, false
		case ast.OpIsNull, ast.OpIsNotNull:
			o := c.lower(e.X, true)
			if fold && o.kind == opPending {
				return nil, true
			}
			x, not := c.fin(e.X, o), e.Op == ast.OpIsNotNull
			return func(ctx *Ctx) (value.Tri, error) {
				v, err := x.Eval(ctx)
				if err != nil {
					return value.TriUnknown, err
				}
				return value.TriOf(v.IsNull() != not), nil
			}, false
		}
	}
	o := c.lower(e, fold)
	if o.kind == opPending {
		return nil, true
	}
	return func(ctx *Ctx) (value.Tri, error) {
		v, err := o.Eval(ctx)
		if err != nil {
			return value.TriUnknown, err
		}
		t, ok := v.Truth()
		if !ok {
			return value.TriUnknown, notBoolean(v.Kind())
		}
		return t, nil
	}, false
}

// predValue converts a predicate back to a value, as evalBinary and
// evalUnary return the logical operators' results.
func predValue(p CompiledPred) Compiled {
	return func(ctx *Ctx) (value.Value, error) {
		t, err := p(ctx)
		if err != nil {
			return value.Null, err
		}
		return t.Value(), nil
	}
}

func (c *Compiler) compileCase(e *ast.CaseExpr) Compiled {
	hasTest := e.Test != nil
	var test Operand
	if hasTest {
		test = c.operand(e.Test)
	}
	// A CASE with a test compares it with each WHEN value; one without
	// evaluates each WHEN as a predicate.
	var whens []Operand
	var whenPreds []CompiledPred
	if hasTest {
		whens = make([]Operand, len(e.Whens))
	} else {
		whenPreds = make([]CompiledPred, len(e.Whens))
	}
	thens := make([]Operand, len(e.Whens))
	for i, w := range e.Whens {
		if hasTest {
			whens[i] = c.operand(w)
		} else {
			whenPreds[i] = c.predicate(w)
		}
		thens[i] = c.operand(e.Thens[i])
	}
	els := Operand{kind: opConst} // null
	if e.Else != nil {
		els = c.operand(e.Else)
	}
	return func(ctx *Ctx) (value.Value, error) {
		if hasTest {
			t, err := test.Eval(ctx)
			if err != nil {
				return value.Null, err
			}
			for i, w := range whens {
				wv, err := w.Eval(ctx)
				if err != nil {
					return value.Null, err
				}
				if value.Equal(t, wv) == value.TriTrue {
					return thens[i].Eval(ctx)
				}
			}
		} else {
			for i, w := range whenPreds {
				t, err := w(ctx)
				if err != nil {
					return value.Null, err
				}
				if t == value.TriTrue {
					return thens[i].Eval(ctx)
				}
			}
		}
		return els.Eval(ctx)
	}
}

func (c *Compiler) compileComprehension(e *ast.ListComprehension) Compiled {
	list := c.operand(e.List)
	slot := c.temp()
	c.locals = append(c.locals, localBinding{name: e.Var, slot: slot})
	var where CompiledPred
	if e.Where != nil {
		where = c.predicate(e.Where)
	}
	// Without a map expression an element maps to itself: the binder's
	// slot.
	mapped := SlotOperand(slot)
	if e.Map != nil {
		mapped = c.operand(e.Map)
	}
	c.locals = c.locals[:len(c.locals)-1]
	return func(ctx *Ctx) (value.Value, error) {
		lv, err := list.Eval(ctx)
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
				m, err := mapped.Eval(ctx)
				if err != nil {
					ctx.Frame[slot] = old
					return value.Null, err
				}
				out = append(out, m)
			}
		}
		ctx.Frame[slot] = old
		return value.ListOf(out), nil
	}
}

func (c *Compiler) compileQuantifier(e *ast.Quantifier) Compiled {
	list := c.operand(e.List)
	slot := c.temp()
	c.locals = append(c.locals, localBinding{name: e.Var, slot: slot})
	pred := c.predicate(e.Pred)
	c.locals = c.locals[:len(c.locals)-1]
	kind := e.Kind
	return func(ctx *Ctx) (value.Value, error) {
		lv, err := list.Eval(ctx)
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
		return quantified(kind, trues, falses, unknowns), nil
	}
}
