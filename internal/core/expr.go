package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"gqs/internal/cypher/ast"
	"gqs/internal/eval"
	"gqs/internal/functions"
	"gqs/internal/value"
)

// This file implements §3.5: generating branching and nested expressions.
// Two generators are value-preserving — genValueExpr builds an expression
// that evaluates to a required constant, and complexifyAccess (Algorithm
// 2) wraps a property access in nested templates while preserving the
// ability to distinguish the intended element from its competitors — and
// two are value-tracking: randomScalarExpr builds arbitrary evaluable
// expressions and truePredicate builds predicates that hold in the
// current symbolic state.

const stringAlphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

// randString draws a string of n characters of stringAlphabet, built in
// place: one allocation.
func randString(r *rand.Rand, n int) string {
	var b strings.Builder
	b.Grow(n)
	for range n {
		b.WriteByte(stringAlphabet[r.Intn(len(stringAlphabet))])
	}
	return b.String()
}

// genValueExpr returns an expression with no free variables that
// evaluates exactly to target. Only operations that are precision-exact
// are used, so the oracle's expected values are never perturbed.
func (s *Synthesizer) genValueExpr(target value.Value, depth int) ast.Expr {
	r, a := s.r, &s.nodes
	if depth <= 0 {
		return a.lit(target)
	}
	rec := func(v value.Value) ast.Expr { return s.genValueExpr(v, depth-1) }
	switch target.Kind() {
	case value.KindInt:
		v := target.AsInt()
		switch r.Intn(4) {
		case 0: // (v-c) + c
			c := int64(r.Intn(2001) - 1000)
			return a.bin(ast.OpAdd, rec(value.Int(v-c)), a.lit(value.Int(c)))
		case 1: // (v+c) - c
			c := int64(r.Intn(2001) - 1000)
			return a.bin(ast.OpSub, rec(value.Int(v+c)), a.lit(value.Int(c)))
		case 2: // toInteger('v')
			return a.call("toInteger", rec(value.Str(strconv.FormatInt(v, 10))))
		default: // char_length of a string of that length, when small
			if v >= 0 && v <= 24 {
				return a.call("char_length", rec(value.Str(randString(r, int(v)))))
			}
			return a.bin(ast.OpAdd, rec(value.Int(v-1)), a.lit(value.Int(1)))
		}
	case value.KindFloat:
		switch r.Intn(3) {
		case 0: // f + 0.0 is exact
			return a.bin(ast.OpAdd, a.lit(target), a.lit(value.Float(0)))
		case 1: // -(-f)
			return a.unary(ast.OpNeg, rec(value.Float(-target.AsFloat())))
		default: // f * 1.0 is exact
			return a.bin(ast.OpMul, a.lit(target), a.lit(value.Float(1)))
		}
	case value.KindString:
		str := target.AsString()
		switch r.Intn(4) {
		case 0: // split concatenation
			cut := 0
			if len(str) > 0 {
				cut = r.Intn(len(str) + 1)
			}
			return a.bin(ast.OpAdd, rec(value.Str(str[:cut])), a.lit(value.Str(str[cut:])))
		case 1: // reverse(reverse(s))
			rev := []rune(str)
			for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
				rev[i], rev[j] = rev[j], rev[i]
			}
			return a.call("reverse", rec(value.Str(string(rev))))
		case 2: // left(s + junk, len(s))
			junk := randString(r, 1+r.Intn(4))
			return a.call("left",
				a.bin(ast.OpAdd, a.lit(value.Str(str)), a.lit(value.Str(junk))),
				rec(value.Int(int64(len([]rune(str))))),
			)
		default:
			// replace with a search string that cannot occur: a marker
			// strictly longer than s, or — exercising the underspecified
			// corner behind the Figure 9 Memgraph hang — the empty
			// string, which the reference semantics defines as identity.
			search := randString(r, len(str)+1)
			if r.Intn(3) == 0 {
				search = ""
			}
			return a.call("replace",
				rec(value.Str(str)),
				a.lit(value.Str(search)),
				a.lit(value.Str(randString(r, 1+r.Intn(5)))),
			)
		}
	case value.KindBool:
		b := target.AsBool()
		switch r.Intn(4) {
		case 0: // NOT NOT b
			return a.unary(ast.OpNot, a.unary(ast.OpNot, rec(target)))
		case 1: // comparison
			x, c := int64(r.Intn(100)), int64(100+r.Intn(100))
			if b {
				return a.bin(ast.OpLt, rec(value.Int(x)), a.lit(value.Int(c)))
			}
			return a.bin(ast.OpGt, rec(value.Int(x)), a.lit(value.Int(c)))
		case 2:
			if b {
				return a.bin(ast.OpAnd, rec(target), a.lit(value.True))
			}
			return a.bin(ast.OpOr, rec(target), a.lit(value.False))
		default:
			return a.call("toBoolean", a.lit(value.Str(strconv.FormatBool(b))))
		}
	case value.KindList:
		elems := target.AsList()
		items := a.args(len(elems))
		for i, el := range elems {
			items[i] = s.genValueExpr(el, depth-1)
		}
		out := a.list(items)
		if r.Intn(3) == 0 {
			// Identity comprehension: [w IN list | w]. The "w" prefix is
			// reserved for comprehension variables, so no shadowing of
			// pattern variables or aliases can occur.
			return s.identityComprehension(out)
		}
		return out
	default:
		return a.lit(target)
	}
}

// exprTemplate is one nesting template for Algorithm 2: it wraps an
// expression of the accepted class into a new expression, reporting the
// result class.
type exprTemplate struct {
	accepts functions.TypeClass
	build   func(s *Synthesizer, inner ast.Expr) ast.Expr
}

var nestTemplates = []exprTemplate{
	// Integer templates.
	{functions.TInt, func(s *Synthesizer, in ast.Expr) ast.Expr {
		return s.nodes.bin(ast.OpAdd, in, s.nodes.lit(value.Int(int64(s.r.Intn(999)+1))))
	}},
	{functions.TInt, func(s *Synthesizer, in ast.Expr) ast.Expr {
		return s.nodes.bin(ast.OpSub, in, s.nodes.lit(value.Int(int64(s.r.Intn(999)+1))))
	}},
	{functions.TInt, func(s *Synthesizer, in ast.Expr) ast.Expr {
		return s.nodes.bin(ast.OpMul, in, s.nodes.lit(value.Int(int64(s.r.Intn(9)+2))))
	}},
	{functions.TInt, func(s *Synthesizer, in ast.Expr) ast.Expr {
		return s.nodes.call("toString", in)
	}},
	{functions.TInt, func(s *Synthesizer, in ast.Expr) ast.Expr {
		return s.nodes.call("abs", in)
	}},
	{functions.TInt, func(s *Synthesizer, in ast.Expr) ast.Expr {
		return s.nodes.call("sign", in)
	}},
	{functions.TInt, func(s *Synthesizer, in ast.Expr) ast.Expr {
		w := s.nodes.args(2)
		w[0], w[1] = in, s.nodes.lit(value.Int(int64(s.r.Intn(100))))
		return s.nodes.list(w)
	}},
	// String templates.
	{functions.TStr, func(s *Synthesizer, in ast.Expr) ast.Expr {
		return s.nodes.bin(ast.OpAdd, in, s.nodes.lit(value.Str(randString(s.r, 1+s.r.Intn(4)))))
	}},
	{functions.TStr, func(s *Synthesizer, in ast.Expr) ast.Expr {
		return s.nodes.bin(ast.OpAdd, s.nodes.lit(value.Str(randString(s.r, 1+s.r.Intn(4)))), in)
	}},
	{functions.TStr, func(s *Synthesizer, in ast.Expr) ast.Expr {
		return s.nodes.call("reverse", in)
	}},
	{functions.TStr, func(s *Synthesizer, in ast.Expr) ast.Expr {
		return s.nodes.call("char_length", in)
	}},
	{functions.TStr, func(s *Synthesizer, in ast.Expr) ast.Expr {
		return s.nodes.call("toUpper", in)
	}},
	// Float templates (exact operations only).
	{functions.TFloat, func(s *Synthesizer, in ast.Expr) ast.Expr {
		return s.nodes.unary(ast.OpNeg, in)
	}},
	{functions.TFloat, func(s *Synthesizer, in ast.Expr) ast.Expr {
		return s.nodes.call("toString", in)
	}},
	{functions.TFloat, func(s *Synthesizer, in ast.Expr) ast.Expr {
		return s.nodes.bin(ast.OpMul, in, s.nodes.lit(value.Float(float64(s.r.Intn(3)+2))))
	}},
	// Boolean templates.
	{functions.TBool, func(s *Synthesizer, in ast.Expr) ast.Expr {
		return s.nodes.unary(ast.OpNot, in)
	}},
	{functions.TBool, func(s *Synthesizer, in ast.Expr) ast.Expr {
		return s.nodes.call("toString", in)
	}},
	// List templates.
	{functions.TList, func(s *Synthesizer, in ast.Expr) ast.Expr {
		return s.nodes.call("reverse", in)
	}},
	{functions.TList, func(s *Synthesizer, in ast.Expr) ast.Expr {
		return s.identityComprehension(in)
	}},
	{functions.TList, func(s *Synthesizer, in ast.Expr) ast.Expr {
		return s.nodes.call("size", in)
	}},
	{functions.TList, func(s *Synthesizer, in ast.Expr) ast.Expr {
		return s.nodes.index(in, ast.Lit(value.Int(0)))
	}},
}

// templatesByClass lists, per value class, the nesting templates that
// accept it, in nestTemplates order.
var templatesByClass = func() (t [functions.TMap + 1][]exprTemplate) {
	for cls := range t {
		for _, tmpl := range nestTemplates {
			if tmpl.accepts.Accepts(functions.TypeClass(cls)) {
				t[cls] = append(t[cls], tmpl)
			}
		}
	}
	return
}()

// wVars are the comprehension variables w0..w99, which ast.Var interns.
var wVars = func() (t [100]*ast.Variable) {
	for i := range t {
		t[i] = ast.Var("w" + strconv.Itoa(i))
	}
	return
}()

// identityComprehension wraps a list in [wN IN list | wN]. The "w"
// prefix is reserved for comprehension variables, so no shadowing of
// pattern variables or aliases can occur.
func (s *Synthesizer) identityComprehension(list ast.Expr) ast.Expr {
	return s.nodes.identity(wVars[s.r.Intn(100)], list)
}

// complexifyAccess implements Algorithm 2: starting from base, an access
// whose values for the intended element and its competitors are given, it
// nests expression templates for depth rounds, keeping a nesting only
// when the intended element's value remains distinguishable from every
// competitor's. It returns the final expression and its value for the
// intended element.
//
// Each round evaluates only the new layer, on the previous layer's value
// per element. That equals evaluating the whole nested expression on the
// element's original value, because templates are pure and a kept layer
// has evaluated without error for every competitor. The layer is built
// around s.hole, a literal set to each input value in turn, so the
// evaluation needs no variable binding; a kept layer gets the real inner
// expression in the hole's place.
func (s *Synthesizer) complexifyAccess(base ast.Expr, intended value.Value, competitors []value.Value, depth int) (ast.Expr, value.Value) {
	if s.constEnv == nil {
		s.constEnv = make(map[string]value.Value, 1)
		s.hole = &ast.Literal{}
	}
	s.constCtx.Graph, s.constCtx.Env = s.g, s.constEnv
	exp, v1 := base, intended
	// cur holds each competitor's value of exp; next collects the
	// candidate layer's values and becomes cur when the layer is kept.
	cur := append(s.compCur[:0], competitors...)
	next := s.compNext[:0]
	for d := 0; d < depth; d++ {
		candidates := templatesByClass[functions.ClassOf(v1)]
		if len(candidates) == 0 {
			break
		}
		t := candidates[s.r.Intn(len(candidates))]
		layer := t.build(s, s.hole)
		nv1, err := s.evalLayer(layer, v1)
		if err != nil {
			continue
		}
		distinct := true
		next = next[:0]
		for _, c := range cur {
			nc, err := s.evalLayer(layer, c)
			if err != nil || value.Equivalent(nc, nv1) {
				distinct = false
				break
			}
			next = append(next, nc)
		}
		if !distinct {
			continue // try another template next round (line 8 of Alg. 2)
		}
		exp, v1 = s.plugHole(layer, exp), nv1
		cur, next = next, cur
	}
	s.compCur, s.compNext = cur, next
	return exp, v1
}

// evalLayer evaluates a template layer with v in its hole.
func (s *Synthesizer) evalLayer(layer ast.Expr, v value.Value) (value.Value, error) {
	s.hole.Val = v
	return eval.Eval(&s.constCtx, layer)
}

// plugHole replaces the hole in a freshly built template layer with
// inner. Every template places its input as a direct child of the node
// it returns.
func (s *Synthesizer) plugHole(layer, inner ast.Expr) ast.Expr {
	hole := ast.Expr(s.hole)
	switch e := layer.(type) {
	case *ast.Binary:
		if e.L == hole {
			e.L = inner
		} else {
			e.R = inner
		}
	case *ast.Unary:
		e.X = inner
	case *ast.FuncCall:
		e.Args[0] = inner
	case *ast.ListLit:
		e.Elems[0] = inner
	case *ast.ListComprehension:
		e.List = inner
	case *ast.IndexExpr:
		e.Subject = inner
	default:
		panic(fmt.Sprintf("plugHole: unexpected template layer %T", layer))
	}
	return layer
}

// pinPredicate renders a pin as a WHERE conjunct: Algorithm 2 nests the
// pin's access, genValueExpr hides the comparison constant, and the
// result still matches only the pinned element.
func (s *Synthesizer) pinPredicate(p pin, depth int) ast.Expr {
	access, intended, byProp := s.pinAccess(p)
	compVals := s.compVals[:0]
	for _, c := range p.competitors {
		if !byProp {
			compVals = append(compVals, value.Int(c.id))
		} else if v, ok := s.lookupProp(c, "id"); ok {
			compVals = append(compVals, v)
		}
	}
	s.compVals = compVals
	nested, v1 := s.complexifyAccess(access, intended, compVals, s.r.Intn(depth+1))
	return s.nodes.bin(ast.OpEq, nested, s.genValueExpr(v1, s.r.Intn(depth+1)))
}

// pinAccess returns the expression that identifies a pinned element and
// its value for that element. It is the element's `id` property when the
// element has one (byProp), and id(var) otherwise: bulk-generated
// relationships carry no properties, so `var.id` would be null for every
// candidate and the pin would match nothing.
func (s *Synthesizer) pinAccess(p pin) (access ast.Expr, intended value.Value, byProp bool) {
	if v, ok := s.lookupProp(p.elem, "id"); ok {
		return s.nodes.prop(p.varName, "id"), v, true
	}
	return s.nodes.call("id", ast.Var(p.varName)), value.Int(p.elem.id), false
}

func (s *Synthesizer) lookupProp(e elemRef, name string) (value.Value, bool) {
	return s.g.Lookup(graphPropertyKey(e, name))
}

// randomScalarExpr builds an arbitrary expression over the in-scope
// variables that is guaranteed to evaluate without error in every
// current symbolic row (it is verified against the tracker and replaced
// by a literal if evaluation fails).
func (s *Synthesizer) randomScalarExpr(depth int) ast.Expr {
	e := s.tryRandomExpr(depth)
	if err := s.tracker.Check(e); err != nil {
		return s.nodes.lit(value.Int(int64(s.r.Intn(2000000000)) - 1000000000))
	}
	return e
}

func (s *Synthesizer) tryRandomExpr(depth int) ast.Expr {
	// The in-scope variables are invariant across the whole recursive
	// build, so compute them once here rather than per level.
	return s.tryRandomExprVars(s.tracker.Vars(), depth)
}

func (s *Synthesizer) tryRandomExprVars(vars []string, depth int) ast.Expr {
	if depth <= 0 || len(vars) == 0 || s.r.Intn(3) == 0 {
		// Leaf: literal or a property access on an element variable.
		if len(vars) > 0 && s.r.Intn(2) == 0 {
			v := vars[s.r.Intn(len(vars))]
			if ref, ok := s.lookupScope(v); ok {
				if name, ok2 := s.randomPropName(ref); ok2 {
					return s.nodes.prop(v, name)
				}
			}
			return ast.Var(v)
		}
		return s.randomLiteral()
	}
	switch s.r.Intn(5) {
	case 0:
		return s.nodes.bin(ast.OpAdd, s.tryRandomExprVars(vars, depth-1), s.nodes.lit(value.Int(int64(s.r.Intn(100)))))
	case 1:
		return s.nodes.bin(ast.OpNeq, s.tryRandomExprVars(vars, depth-1), s.tryRandomExprVars(vars, depth-1))
	case 2:
		return s.nodes.call("toString", s.tryRandomExprVars(vars, depth-1))
	case 3:
		return s.nodes.call("coalesce", s.tryRandomExprVars(vars, depth-1), s.randomLiteral())
	default:
		return s.nodes.list1(s.tryRandomExprVars(vars, depth-1))
	}
}

func (s *Synthesizer) randomLiteral() ast.Expr {
	r := s.r
	switch r.Intn(4) {
	case 0:
		return s.nodes.lit(value.Int(int64(int32(r.Uint32()))))
	case 1:
		return s.nodes.lit(value.Str(randString(r, 4+r.Intn(6))))
	case 2:
		return s.nodes.lit(value.Bool(r.Intn(2) == 0))
	default:
		return s.nodes.lit(value.Float(float64(r.Intn(1000)) / 4))
	}
}

// randomPropName picks a property present on the element.
func (s *Synthesizer) randomPropName(ref elemRef) (string, bool) {
	var props map[string]value.Value
	if ref.isRel {
		rel := s.g.Rel(ref.id)
		if rel == nil {
			return "", false
		}
		props = rel.Props
	} else {
		n := s.g.Node(ref.id)
		if n == nil {
			return "", false
		}
		props = n.Props
	}
	if len(props) == 0 {
		return "", false
	}
	// Map order is random; the draw is over the sorted names.
	return nthName(props, s.r.Intn(len(props))), true
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// truePredicate builds a predicate that holds (TriTrue) in every current
// symbolic row, creating the rich cross-clause data dependencies of §3.3
// (e.g. Figure 1's `n5.k2 <= -881779936`). The candidate is verified
// against the tracker; on failure a literal `true` is used.
func (s *Synthesizer) truePredicate(depth int) ast.Expr {
	// The constant-variable set does not change between retries; compute
	// it once for all four candidates.
	vars := s.tracker.ConstantVarNames()
	for try := 0; try < 4; try++ {
		e := s.candidateTruePredicate(vars, depth)
		if e == nil {
			continue
		}
		if ok, err := s.tracker.HoldsEverywhere(e); err == nil && ok {
			return e
		}
	}
	return s.nodes.lit(value.True)
}

// containsEntity reports whether a value is, or nests inside a list or
// map, a node or relationship.
func containsEntity(v value.Value) bool {
	switch v.Kind() {
	case value.KindNode, value.KindRel:
		return true
	case value.KindList:
		for _, el := range v.AsList() {
			if containsEntity(el) {
				return true
			}
		}
	case value.KindMap:
		for _, el := range v.AsMap() {
			if containsEntity(el) {
				return true
			}
		}
	}
	return false
}

func (s *Synthesizer) candidateTruePredicate(vars []string, depth int) ast.Expr {
	if len(vars) == 0 {
		return s.nodes.lit(value.True)
	}
	v := vars[s.r.Intn(len(vars))]
	var access ast.Expr
	var actual value.Value
	if ref, ok := s.lookupScope(v); ok {
		name, ok2 := s.randomPropName(ref)
		if !ok2 {
			return nil
		}
		access = s.nodes.prop(v, name)
		actual, _ = s.lookupProp(ref, name)
	} else {
		access = ast.Var(v)
		var err error
		actual, err = s.tracker.EvalConstant(access)
		if err != nil {
			return nil
		}
	}
	if actual.IsNull() {
		return s.nodes.unary(ast.OpIsNull, access)
	}
	if containsEntity(actual) {
		// Entity values (an endNode alias, say, or a list holding one)
		// have no literal form; only null checks are safely expressible.
		return s.nodes.unary(ast.OpIsNotNull, access)
	}
	switch s.r.Intn(5) {
	case 0: // equality with hidden constant
		return s.nodes.bin(ast.OpEq, access, s.genValueExpr(actual, s.r.Intn(depth+1)))
	case 1: // ordering
		switch actual.Kind() {
		case value.KindInt:
			return s.nodes.bin(ast.OpLe, access, s.nodes.lit(value.Int(actual.AsInt())))
		case value.KindString:
			return s.nodes.bin(ast.OpGe, access, s.nodes.lit(value.Str(""))) // every string ≥ ""
		default:
			return s.nodes.unary(ast.OpIsNotNull, access)
		}
	case 2: // string suffix (Figure 1 style)
		if actual.Kind() == value.KindString && actual.AsString() != "" {
			str := actual.AsString()
			suffix := str[len(str)/2:]
			return s.nodes.bin(ast.OpEndsWith, access, s.nodes.lit(value.Str(suffix)))
		}
		return s.nodes.unary(ast.OpIsNotNull, access)
	case 3: // membership
		junk := s.randomLiteral()
		w := s.nodes.args(2)
		w[0], w[1] = s.genValueExpr(actual, s.r.Intn(depth+1)), junk
		return s.nodes.bin(ast.OpIn, access, s.nodes.list(w))
	default: // double negation
		return s.nodes.unary(ast.OpNot, s.nodes.unary(ast.OpNot, s.nodes.bin(ast.OpEq, access, s.nodes.lit(actual))))
	}
}
