package eval

import (
	"fmt"

	"gqs/internal/cypher/ast"
	"gqs/internal/functions"
	"gqs/internal/value"
)

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
// slot, or a Record for anything else. Leaves — most operands of a
// synthesized predicate — therefore cost no record. Eval gives the
// operand's value; Test gives its three-valued truth, as a predicate, so
// a predicate is an operand too.
type Operand struct {
	kind opKind
	slot int32       // the frame slot of an opSlot or opProp
	v    value.Value // the value of an opConst, the key of an opProp
	rec  *Record     // the record of an opRec
}

type opKind uint8

const (
	// opPending is what lower returns for a constant subtree it has not
	// folded: only the caller knows whether the subtree is maximal.
	opPending opKind = iota
	opConst
	opSlot
	opProp
	opRec
)

// Eval evaluates the operand.
func (o *Operand) Eval(ctx *Ctx) (value.Value, error) {
	switch o.kind {
	case opConst:
		return o.v, nil
	case opSlot:
		return ctx.Frame[o.slot], nil
	case opProp:
		return property(ctx, ctx.Frame[o.slot], o.v.AsString())
	}
	return o.rec.eval(ctx)
}

// Test evaluates the operand as a predicate: the three-valued result
// EvalPredicate gives for the same expression, its type error for a
// non-boolean value included. Comparisons, logical operators and IS
// [NOT] NULL yield their truth value directly; anything else is
// evaluated and coerced, a folded constant too, so a constant predicate
// that is not a truth value fails only if evaluated.
func (o *Operand) Test(ctx *Ctx) (value.Tri, error) {
	if o.kind == opRec {
		return o.rec.test(ctx)
	}
	v, err := o.Eval(ctx)
	if err != nil {
		return value.TriUnknown, err
	}
	return truth(v)
}

// truth coerces a predicate's value as EvalPredicate does.
func truth(v value.Value) (value.Tri, error) {
	t, ok := v.Truth()
	if !ok {
		return value.TriUnknown, notBoolean(v.Kind())
	}
	return t, nil
}

// IsZero reports whether o is the zero Operand, which stands for no
// expression.
func (o Operand) IsZero() bool { return o.kind == opPending }

// Record is one compiled composite expression node: an operator, a
// function call, a list or map literal, an indexing or a slice, a
// property of a computed value, a parameter, a CASE, a list
// comprehension, a quantifier, or an error raised when evaluated. Eval
// and Test switch on its kind, with evaluation order, error identity and
// error timing those of the tree-walking Eval (DESIGN.md §12). A record
// is written once, by the Compiler, and only read from then on, so one
// compiled plan may run on several engines at once.
type Record struct {
	kind recKind
	// op is the ast.BinOp of recCmp and recArith, the ast.UnOp of
	// recUnary, and the frame slot of a comprehension's or quantifier's
	// variable.
	op int32
	// l and r are the operands of a binary or unary node, the subject and
	// index of an indexing, and the argument of a one-argument call; r is
	// the name of a property, a parameter or an unknown variable, as a
	// constant (see named). A slice's l is its subject; a CASE's l is its
	// test (zero without one) and r its ELSE value; a comprehension's or
	// quantifier's l is its input, and r its mapped value or its
	// predicate.
	l, r Operand
	// args are the elements of a list, the values of a map, the arguments
	// of a call with several, a slice's two bounds, a CASE's WHEN operands
	// followed by its THEN operands, and a comprehension's WHERE, if it
	// has one.
	args []Operand
	// aux is the *functions.Func of a call, the error of recErr and the
	// *ast.MapLit of recMap (its keys).
	aux any
}

// named returns the operand that keeps a property's, parameter's or
// unknown variable's name in a record.
func named(name string) Operand { return Operand{kind: opConst, v: value.Str(name)} }

// name returns the name of a property, parameter or unknown variable
// record.
func (r *Record) name() string { return r.r.v.AsString() }

type recKind uint8

const (
	recCmp recKind = iota // comparison or IN; operands transient
	recAnd
	recOr
	recXor
	recNot
	recIsNull
	recIsNotNull
	recArith // arithmetic, regex, or an unknown binary operator
	recNeg
	recUnary // an unknown unary operator
	recProp
	recParam
	recErr
	recList
	recStackList // a list built on the value stack
	recMap
	recIndex        // subject transient
	recCall1        // one argument; releases what the argument stacked
	recStackReverse // reverse, of a list on the value stack
	recCall
	recSlice
	recCase
	recComp      // list comprehension; input transient
	recStackComp // a list comprehension built on the value stack
	// The quantifiers, in ast.QuantKind order; input transient.
	recAll
	recAny
	recNone
	recSingle
	recNoVar // a variable neither bound locally nor in scope; r is its name
)

// Compiler lowers AST expressions to operands. One Compiler may compile
// any number of expressions, and its exported fields may change between
// them; it keeps only scratch state of its own. The caller owns slot
// assignment and sizes its frames to the final NextSlot.
//
// A variable neither bound locally nor in scope compiles to a record
// that returns UnknownVariableError at evaluation time — not a compile
// error — because the interpreter, too, only raises the error if the
// expression is actually evaluated (a query producing zero rows never
// sees it). The record keeps the name, and the error is built only then.
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
	// and its children are not compiled. No node inside a comprehension
	// or quantifier is spliced.
	Splices []Splice
	// Refs gains, for every free-variable reference in what is compiled
	// (arguments the compiler leaves uncompiled included), the index of
	// the variable in Vars, or -1 for a name out of scope. The caller
	// truncates it; the engine schedules WHERE conjuncts from it.
	Refs []int
	// Records and Operands are the chunks the compiler carves records and
	// the operand lists of records from (ast.Window), and Grow is the
	// capacity of the chunk that follows a full one. A carved record never
	// moves. The caller sets all three before compiling.
	Records  *[]Record
	Operands *[]Operand
	Grow     func(prev, n int) int

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
// variables in scope, slot 0 next, no splices, no chunks to carve. Its
// scratch keeps nothing of the last query alive.
func (c *Compiler) Reset() {
	c.Vars, c.Splices, c.NextSlot = nil, nil, 0
	c.Records, c.Operands, c.Grow = nil, nil, nil
	clear(c.locals[:cap(c.locals)])
	clear(c.ops[:cap(c.ops)])
	clear(c.fctx.argScratch[:cap(c.fctx.argScratch)])
}

type localBinding struct {
	name string
	slot int
}

// Compile lowers the expression to an operand, which costs no record
// when the expression is a constant, a variable or a property of a
// variable. Every expression compiles: semantic errors, and node types
// the compiler does not know, become records that fail at evaluation
// time (and only if evaluated), exactly as the interpreter fails. A
// predicate compiles the same way and is evaluated with Test.
func (c *Compiler) Compile(e ast.Expr) Operand { return c.operand(e) }

// rec carves a record from Records and returns the operand holding it.
func (c *Compiler) rec(r Record) Operand {
	p := &ast.Window(c.Records, 1, c.Grow)[0]
	*p = r
	return Operand{kind: opRec, rec: p}
}

// operands carves n operands from Operands.
func (c *Compiler) operands(n int) []Operand { return ast.Window(c.Operands, n, c.Grow) }

func (c *Compiler) errOperand(err error) Operand { return c.rec(Record{kind: recErr, aux: err}) }

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
// its value by one Eval of the AST, without a record per node. No
// spliced node hides in such a subtree, since aggregate and star calls
// are never constant. Bare literals skip the Eval walk. A subtree whose
// Eval errors is compiled node by node, so the error surfaces at
// evaluation time (and only if evaluated), as the interpreter's would.
// In predicate position the constant is coerced when evaluated (Test).
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
			return Operand{kind: opSlot, slot: int32(c.Splices[i].Slot)}
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
			return Operand{kind: opSlot, slot: int32(slot)}
		}
		return c.rec(Record{kind: recNoVar, r: named(e.Name)})
	case *ast.Parameter:
		return c.rec(Record{kind: recParam, r: named(e.Name)})
	case *ast.PropAccess:
		s := c.lower(e.Subject, true)
		if fold && s.kind == opPending {
			return Operand{}
		}
		sub := c.fin(e.Subject, s)
		if sub.kind == opSlot {
			return Operand{kind: opProp, slot: sub.slot, v: value.Str(e.Name)}
		}
		return c.rec(Record{kind: recProp, l: sub, r: named(e.Name)})
	case *ast.Binary:
		return c.lowerBinary(e, fold)
	case *ast.Unary:
		return c.lowerUnary(e, fold)
	case *ast.FuncCall:
		return c.lowerCall(e, fold)
	case *ast.ListLit:
		return c.lowerList(e, fold, false)
	case *ast.MapLit:
		base, konst := c.push(e.Vals)
		if fold && konst {
			c.ops = c.ops[:base]
			return Operand{}
		}
		return c.rec(Record{kind: recMap, args: c.pop(base, e.Vals), aux: e})
	case *ast.IndexExpr:
		s, i := c.transient(e.Subject, true), c.lower(e.Index, true)
		if fold && s.kind == opPending && i.kind == opPending {
			return Operand{}
		}
		return c.rec(Record{kind: recIndex, l: c.fin(e.Subject, s), r: c.fin(e.Index, i)})
	case *ast.SliceExpr:
		return c.lowerSlice(e, fold)
	case *ast.CaseExpr:
		return c.lowerCase(e)
	case *ast.ListComprehension:
		return c.lowerLoop(recComp, e.List, e.Var, e.Where, e.Map)
	case *ast.Quantifier:
		return c.lowerLoop(recAll+recKind(e.Kind), e.List, e.Var, nil, e.Pred)
	default:
		// Mirror the interpreter: an unknown node type is a runtime
		// error, raised only if the expression is evaluated.
		return c.errOperand(fmt.Errorf("cannot evaluate %T", e))
	}
}

// CompileTransient is Compile for an operand whose list value the
// caller drops before it returns, as UNWIND does once it has copied the
// elements into rows: a list literal, comprehension or reverse there is
// built on the context's value stack. The caller takes Ctx.StackMark
// before each evaluation and Releases the mark when done, on error paths
// too.
func (c *Compiler) CompileTransient(e ast.Expr) Operand { return c.fin(e, c.transient(e, true)) }

// transient is lower for an operand its consumer drops before it
// returns: a comparison's or IN's operands, the argument of size or
// reverse, the subject of indexing, and the input of a comprehension or
// a quantifier. A list literal, comprehension or reverse of a list there
// is built on the value stack, and the consumer releases the stack to
// its height at entry when it returns. Only the operand itself is
// stacked: a list nested in it stays on the heap, so an element of a
// stacked list (which indexing returns) never points into the stack. (A
// spliced node is an aggregate call, never a list or reverse, so lower's
// splice check is not needed first.)
func (c *Compiler) transient(e ast.Expr, fold bool) Operand {
	switch e := e.(type) {
	case *ast.ListLit:
		return c.lowerList(e, fold, true)
	case *ast.ListComprehension:
		return c.lowerLoop(recStackComp, e.List, e.Var, e.Where, e.Map)
	case *ast.FuncCall:
		if f, err := scalarFunc(e.Name); err == nil && f.Name == "reverse" && len(e.Args) == 1 {
			a := c.transient(e.Args[0], true)
			if fold && a.kind == opPending {
				return Operand{}
			}
			return c.rec(Record{kind: recStackReverse, l: c.fin(e.Args[0], a), aux: f})
		}
	}
	return c.lower(e, fold)
}

// lowerList lowers a list literal, on the heap or, when stacked, on the
// value stack: its elements are pushed there and the list is a view of
// them.
func (c *Compiler) lowerList(e *ast.ListLit, fold, stacked bool) Operand {
	base, konst := c.push(e.Elems)
	if fold && konst {
		c.ops = c.ops[:base]
		return Operand{}
	}
	kind := recList
	if stacked {
		kind = recStackList
	}
	return c.rec(Record{kind: kind, args: c.pop(base, e.Elems)})
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
// pending ones, into operands carved from Operands. Folding may push and
// pop above them, never below.
func (c *Compiler) pop(base int, es []ast.Expr) []Operand {
	out := c.operands(len(es))
	for i, x := range es {
		out[i] = c.fin(x, c.ops[base+i])
	}
	c.ops = c.ops[:base]
	return out
}

// isComparison reports whether op is a comparison or IN, whose result is
// three-valued and whose operands are transient.
func isComparison(op ast.BinOp) bool {
	switch op {
	case ast.OpEq, ast.OpNeq, ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe,
		ast.OpStartsWith, ast.OpEndsWith, ast.OpContains, ast.OpIn:
		return true
	}
	return false
}

// compare is the three-valued comparison of a comparison operator.
func compare(op ast.BinOp, l, r value.Value) value.Tri {
	switch op {
	case ast.OpEq:
		return value.Equal(l, r)
	case ast.OpNeq:
		return value.NotEqual(l, r)
	case ast.OpLt:
		return value.Less(l, r)
	case ast.OpLe:
		return value.LessEq(l, r)
	case ast.OpGt:
		return value.Greater(l, r)
	case ast.OpGe:
		return value.GreaterEq(l, r)
	case ast.OpStartsWith:
		return value.StartsWith(l, r)
	case ast.OpEndsWith:
		return value.EndsWith(l, r)
	case ast.OpContains:
		return value.Contains(l, r)
	}
	return value.In(l, r)
}

// arithmetic applies any binary operator that is neither logical nor a
// comparison.
func arithmetic(op ast.BinOp, l, r value.Value) (value.Value, error) {
	switch op {
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
	case ast.OpRegex:
		return evalRegex(l, r)
	}
	return value.Null, fmt.Errorf("unknown binary operator %v", op)
}

func (c *Compiler) lowerBinary(e *ast.Binary, fold bool) Operand {
	var kind recKind
	var lo, ro Operand
	switch {
	case e.Op == ast.OpAnd:
		kind = recAnd
	case e.Op == ast.OpOr:
		kind = recOr
	case e.Op == ast.OpXor:
		kind = recXor
	case isComparison(e.Op):
		kind = recCmp
	default:
		kind = recArith
	}
	if kind == recCmp {
		lo, ro = c.transient(e.L, true), c.transient(e.R, true)
	} else {
		lo, ro = c.lower(e.L, true), c.lower(e.R, true)
	}
	if fold && lo.kind == opPending && ro.kind == opPending {
		return Operand{}
	}
	l := c.fin(e.L, lo)
	return c.rec(Record{kind: kind, op: int32(e.Op), l: l, r: c.fin(e.R, ro)})
}

func (c *Compiler) lowerUnary(e *ast.Unary, fold bool) Operand {
	var kind recKind
	switch e.Op {
	case ast.OpNot:
		kind = recNot
	case ast.OpNeg:
		kind = recNeg
	case ast.OpIsNull:
		kind = recIsNull
	case ast.OpIsNotNull:
		kind = recIsNotNull
	default:
		return c.rec(Record{kind: recUnary, op: int32(e.Op), l: c.operand(e.X)})
	}
	o := c.lower(e.X, true)
	if fold && o.kind == opPending {
		return Operand{}
	}
	return c.rec(Record{kind: kind, l: c.fin(e.X, o)})
}

// lowerCall resolves the function once. Aggregates in scalar position
// and unknown functions fail at evaluation time, mirroring evalFuncCall's
// first checks, with their arguments never evaluated. (Projection items
// route their aggregate calls through Splices before reaching here.)
func (c *Compiler) lowerCall(e *ast.FuncCall, fold bool) Operand {
	f, err := scalarFunc(e.Name)
	if err != nil {
		c.refArgs(e.Args)
		return c.errOperand(err)
	}
	if len(e.Args) == 1 && (f.Name == "size" || f.Name == "reverse") {
		// Their argument is transient: size reads a length and reverse
		// copies.
		a := c.transient(e.Args[0], true)
		if fold && a.kind == opPending {
			return Operand{}
		}
		return c.rec(Record{kind: recCall1, l: c.fin(e.Args[0], a), aux: f})
	}
	base, konst := c.push(e.Args)
	if fold && konst && !e.Star && !f.Nondeterministic {
		c.ops = c.ops[:base]
		return Operand{}
	}
	if len(e.Args) == 1 {
		arg := c.fin(e.Args[0], c.ops[base])
		c.ops = c.ops[:base]
		return c.rec(Record{kind: recCall1, l: arg, aux: f})
	}
	return c.rec(Record{kind: recCall, args: c.pop(base, e.Args), aux: f})
}

// invoke calls f on the arguments from base of the argument stack and
// pops them.
func invoke(ctx *Ctx, f *functions.Func, base int) (value.Value, error) {
	ctx.gctx.G, ctx.gctx.Exec = ctx.Graph, ctx.Exec
	res, err := functions.Invoke(f, &ctx.gctx, ctx.argScratch[base:])
	ctx.argScratch = ctx.argScratch[:base]
	return res, err
}

// eval evaluates the record as a value.
func (r *Record) eval(ctx *Ctx) (value.Value, error) {
	switch r.kind {
	case recCmp, recAnd, recOr, recXor, recNot, recIsNull, recIsNotNull:
		// The logical operators' results as evalBinary and evalUnary
		// return them.
		t, err := r.test(ctx)
		if err != nil {
			return value.Null, err
		}
		return t.Value(), nil
	case recArith:
		lv, err := r.l.Eval(ctx)
		if err != nil {
			return value.Null, err
		}
		rv, err := r.r.Eval(ctx)
		if err != nil {
			return value.Null, err
		}
		return arithmetic(ast.BinOp(r.op), lv, rv)
	case recNeg:
		v, err := r.l.Eval(ctx)
		if err != nil {
			return value.Null, err
		}
		return value.Neg(v)
	case recUnary:
		if _, err := r.l.Eval(ctx); err != nil {
			return value.Null, err
		}
		return value.Null, fmt.Errorf("unknown unary operator %v", ast.UnOp(r.op))
	case recProp:
		v, err := r.l.Eval(ctx)
		if err != nil {
			return value.Null, err
		}
		return property(ctx, v, r.name())
	case recParam:
		v, ok := ctx.Params[r.name()]
		if !ok {
			return value.Null, fmt.Errorf("parameter $%s is not bound", r.name())
		}
		return v, nil
	case recErr:
		return value.Null, r.aux.(error)
	case recList:
		out := make([]value.Value, len(r.args))
		for i := range r.args {
			v, err := r.args[i].Eval(ctx)
			if err != nil {
				return value.Null, err
			}
			out[i] = v
		}
		return value.ListOf(out), nil
	case recStackList:
		base := len(ctx.stack)
		for i := range r.args {
			v, err := r.args[i].Eval(ctx)
			if err != nil {
				return value.Null, err
			}
			ctx.stack = append(ctx.stack, v)
		}
		return value.ListOf(ctx.stack[base:]), nil
	case recMap:
		keys := r.aux.(*ast.MapLit).Keys
		out := make(map[string]value.Value, len(keys))
		for i, k := range keys {
			v, err := r.args[i].Eval(ctx)
			if err != nil {
				return value.Null, err
			}
			out[k] = v
		}
		return value.Map(out), nil
	case recIndex:
		mark := len(ctx.stack)
		s, err := r.l.Eval(ctx)
		if err != nil {
			ctx.Release(mark)
			return value.Null, err
		}
		i, err := r.r.Eval(ctx)
		if err != nil {
			ctx.Release(mark)
			return value.Null, err
		}
		v, err := value.Index(s, i)
		ctx.Release(mark)
		return v, err
	case recCall1, recStackReverse:
		mark := len(ctx.stack)
		v, err := r.l.Eval(ctx)
		if err != nil {
			ctx.Release(mark)
			return value.Null, err
		}
		if r.kind == recStackReverse && v.Kind() == value.KindList {
			return reverseStacked(ctx, mark, v.AsList()), nil
		}
		base := len(ctx.argScratch)
		ctx.argScratch = append(ctx.argScratch, v)
		res, err := invoke(ctx, r.aux.(*functions.Func), base)
		ctx.Release(mark)
		return res, err
	case recSlice:
		s, err := r.l.Eval(ctx)
		if err != nil {
			return value.Null, err
		}
		from, err := r.args[0].Eval(ctx)
		if err != nil {
			return value.Null, err
		}
		to, err := r.args[1].Eval(ctx)
		if err != nil {
			return value.Null, err
		}
		return value.Slice(s, from, to)
	case recCase:
		return r.evalCase(ctx)
	case recComp, recStackComp:
		return r.comprehend(ctx)
	case recAll, recAny, recNone, recSingle:
		return r.quantify(ctx)
	case recNoVar:
		return value.Null, &UnknownVariableError{Name: r.name()}
	default: // recCall
		base := len(ctx.argScratch)
		for i := range r.args {
			v, err := r.args[i].Eval(ctx)
			if err != nil {
				ctx.argScratch = ctx.argScratch[:base]
				return value.Null, err
			}
			ctx.argScratch = append(ctx.argScratch, v)
		}
		return invoke(ctx, r.aux.(*functions.Func), base)
	}
}

// evalCase evaluates a CASE: with a test, it compares the test with each
// WHEN value, and without, it tests each WHEN as a predicate.
func (r *Record) evalCase(ctx *Ctx) (value.Value, error) {
	n := len(r.args) / 2
	var t value.Value
	var err error
	if !r.l.IsZero() {
		if t, err = r.l.Eval(ctx); err != nil {
			return value.Null, err
		}
	}
	for i := range n {
		var hit value.Tri
		if r.l.IsZero() {
			hit, err = r.args[i].Test(ctx)
		} else {
			var w value.Value
			if w, err = r.args[i].Eval(ctx); err == nil {
				hit = value.Equal(t, w)
			}
		}
		if err != nil {
			return value.Null, err
		}
		if hit == value.TriTrue {
			return r.args[n+i].Eval(ctx)
		}
	}
	return r.r.Eval(ctx)
}

// comprehend evaluates a list comprehension over its transient input.
// Its output is built on the heap, or, for recStackComp, on the value
// stack: pushed above the input as it is mapped, then moved down over
// the released input. The variable's slot is restored on every return.
func (r *Record) comprehend(ctx *Ctx) (value.Value, error) {
	mark := len(ctx.stack)
	lv, err := r.l.Eval(ctx)
	if err != nil || lv.IsNull() {
		ctx.Release(mark)
		return value.Null, err
	}
	if lv.Kind() != value.KindList {
		ctx.Release(mark)
		return value.Null, fmt.Errorf("type error: list comprehension over %s", lv.Kind())
	}
	els := lv.AsList()
	stacked := r.kind == recStackComp
	var out []value.Value
	if !stacked {
		out = make([]value.Value, 0, len(els))
	}
	top := len(ctx.stack)
	old := ctx.Frame[r.op]
	for _, el := range els {
		ctx.Frame[r.op] = el
		keep := value.TriTrue
		if r.args != nil {
			if keep, err = r.args[0].Test(ctx); err != nil {
				break
			}
		}
		if keep != value.TriTrue {
			continue
		}
		var m value.Value
		if m, err = r.r.Eval(ctx); err != nil {
			break
		}
		if stacked {
			ctx.stack = append(ctx.stack, m)
		} else {
			out = append(out, m)
		}
	}
	ctx.Frame[r.op] = old
	end := mark
	if stacked && err == nil {
		end += copy(ctx.stack[mark:], ctx.stack[top:])
		out = ctx.stack[mark:end]
	}
	ctx.Release(end)
	if err != nil {
		return value.Null, err
	}
	return value.ListOf(out), nil
}

// quantify evaluates any, all, none or single over its transient input.
// The variable's slot is restored on every return.
func (r *Record) quantify(ctx *Ctx) (value.Value, error) {
	kind := ast.QuantKind(r.kind - recAll)
	mark := len(ctx.stack)
	lv, err := r.l.Eval(ctx)
	if err != nil || lv.IsNull() {
		ctx.Release(mark)
		return value.Null, err
	}
	if lv.Kind() != value.KindList {
		ctx.Release(mark)
		return value.Null, fmt.Errorf("type error: %s() over %s", kind, lv.Kind())
	}
	trues, falses, unknowns := 0, 0, 0
	old := ctx.Frame[r.op]
	for _, el := range lv.AsList() {
		ctx.Frame[r.op] = el
		var t value.Tri
		if t, err = r.r.Test(ctx); err != nil {
			break
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
	ctx.Frame[r.op] = old
	ctx.Release(mark)
	if err != nil {
		return value.Null, err
	}
	return quantified(kind, trues, falses, unknowns), nil
}

// reverseStacked is reverse of the list l for a transient consumer: the
// elements are pushed above l in reverse order and moved down to mark,
// over l if l is stacked there, and the list is a view of them. The
// values are those reverse's heap copy would hold.
func reverseStacked(ctx *Ctx, mark int, l []value.Value) value.Value {
	top := len(ctx.stack)
	for i := len(l) - 1; i >= 0; i-- {
		ctx.stack = append(ctx.stack, l[i])
	}
	end := mark + copy(ctx.stack[mark:], ctx.stack[top:])
	ctx.Release(end)
	return value.ListOf(ctx.stack[mark:end])
}

// test evaluates the record as a predicate (see Operand.Test).
func (r *Record) test(ctx *Ctx) (value.Tri, error) {
	switch r.kind {
	case recCmp:
		// The operands are transient: release the lists they built on
		// the value stack.
		mark := len(ctx.stack)
		lv, err := r.l.Eval(ctx)
		if err != nil {
			ctx.Release(mark)
			return value.TriUnknown, err
		}
		rv, err := r.r.Eval(ctx)
		if err != nil {
			ctx.Release(mark)
			return value.TriUnknown, err
		}
		t := compare(ast.BinOp(r.op), lv, rv)
		ctx.Release(mark)
		return t, nil
	case recAnd, recOr, recXor:
		lt, err := r.l.Test(ctx)
		if err != nil {
			return value.TriUnknown, err
		}
		rt, err := r.r.Test(ctx)
		if err != nil {
			return value.TriUnknown, err
		}
		switch r.kind {
		case recAnd:
			return lt.And(rt), nil
		case recOr:
			return lt.Or(rt), nil
		}
		return lt.Xor(rt), nil
	case recNot:
		t, err := r.l.Test(ctx)
		if err != nil {
			return value.TriUnknown, err
		}
		return t.Not(), nil
	case recIsNull, recIsNotNull:
		v, err := r.l.Eval(ctx)
		if err != nil {
			return value.TriUnknown, err
		}
		return value.TriOf(v.IsNull() != (r.kind == recIsNotNull)), nil
	}
	v, err := r.eval(ctx)
	if err != nil {
		return value.TriUnknown, err
	}
	return truth(v)
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
	r := Record{kind: recSlice, l: c.fin(e.Subject, so), args: c.operands(2)}
	r.args[0], r.args[1] = c.fin(e.From, bounds[0]), c.fin(e.To, bounds[1])
	return c.rec(r)
}

func (c *Compiler) lowerCase(e *ast.CaseExpr) Operand {
	// Without ELSE the value is null.
	n := len(e.Whens)
	r := Record{kind: recCase, r: Operand{kind: opConst}, args: c.operands(2 * n)}
	if e.Test != nil {
		r.l = c.operand(e.Test)
	}
	for i, w := range e.Whens {
		r.args[i] = c.operand(w)
		r.args[n+i] = c.operand(e.Thens[i])
	}
	if e.Else != nil {
		r.r = c.operand(e.Else)
	}
	return c.rec(r)
}

// lowerLoop lowers a list comprehension (kind recComp or recStackComp)
// or a quantifier: its input, which is transient, then, with its
// variable bound to a new slot, a comprehension's WHERE and the mapped
// value or predicate. Nothing inside is spliced: the interpreter
// substitutes no aggregate result there, so an aggregate call inside
// fails as one in scalar position does.
func (c *Compiler) lowerLoop(kind recKind, list ast.Expr, name string, where, body ast.Expr) Operand {
	splices := c.Splices
	c.Splices = nil
	r := Record{kind: kind, op: int32(c.NextSlot), l: c.fin(list, c.transient(list, true))}
	c.locals = append(c.locals, localBinding{name: name, slot: int(r.op)})
	c.NextSlot++
	if where != nil {
		r.args = c.operands(1)
		r.args[0] = c.operand(where)
	}
	// A comprehension without a map expression maps an element to itself.
	r.r = Operand{kind: opSlot, slot: r.op}
	if body != nil {
		r.r = c.operand(body)
	}
	c.locals = c.locals[:len(c.locals)-1]
	c.Splices = splices
	return c.rec(r)
}
