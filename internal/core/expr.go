package core

import (
	"fmt"
	"math/rand"

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

func randString(r *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = stringAlphabet[r.Intn(len(stringAlphabet))]
	}
	return string(b)
}

// genValueExpr returns an expression with no free variables that
// evaluates exactly to target. Only operations that are precision-exact
// are used, so the oracle's expected values are never perturbed.
func genValueExpr(r *rand.Rand, target value.Value, depth int) ast.Expr {
	if depth <= 0 {
		return ast.Lit(target)
	}
	rec := func(v value.Value) ast.Expr { return genValueExpr(r, v, depth-1) }
	switch target.Kind() {
	case value.KindInt:
		v := target.AsInt()
		switch r.Intn(4) {
		case 0: // (v-c) + c
			c := int64(r.Intn(2001) - 1000)
			return ast.Bin(ast.OpAdd, rec(value.Int(v-c)), ast.Lit(value.Int(c)))
		case 1: // (v+c) - c
			c := int64(r.Intn(2001) - 1000)
			return ast.Bin(ast.OpSub, rec(value.Int(v+c)), ast.Lit(value.Int(c)))
		case 2: // toInteger('v')
			return &ast.FuncCall{Name: "toInteger", Args: []ast.Expr{rec(value.Str(fmt.Sprintf("%d", v)))}}
		default: // char_length of a string of that length, when small
			if v >= 0 && v <= 24 {
				return &ast.FuncCall{Name: "char_length", Args: []ast.Expr{rec(value.Str(randString(r, int(v))))}}
			}
			return ast.Bin(ast.OpAdd, rec(value.Int(v-1)), ast.Lit(value.Int(1)))
		}
	case value.KindFloat:
		switch r.Intn(3) {
		case 0: // f + 0.0 is exact
			return ast.Bin(ast.OpAdd, ast.Lit(target), ast.Lit(value.Float(0)))
		case 1: // -(-f)
			return &ast.Unary{Op: ast.OpNeg, X: rec(value.Float(-target.AsFloat()))}
		default: // f * 1.0 is exact
			return ast.Bin(ast.OpMul, ast.Lit(target), ast.Lit(value.Float(1)))
		}
	case value.KindString:
		s := target.AsString()
		switch r.Intn(4) {
		case 0: // split concatenation
			cut := 0
			if len(s) > 0 {
				cut = r.Intn(len(s) + 1)
			}
			return ast.Bin(ast.OpAdd, rec(value.Str(s[:cut])), ast.Lit(value.Str(s[cut:])))
		case 1: // reverse(reverse(s))
			rev := []rune(s)
			for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
				rev[i], rev[j] = rev[j], rev[i]
			}
			return &ast.FuncCall{Name: "reverse", Args: []ast.Expr{rec(value.Str(string(rev)))}}
		case 2: // left(s + junk, len(s))
			junk := randString(r, 1+r.Intn(4))
			return &ast.FuncCall{Name: "left", Args: []ast.Expr{
				ast.Bin(ast.OpAdd, ast.Lit(value.Str(s)), ast.Lit(value.Str(junk))),
				rec(value.Int(int64(len([]rune(s))))),
			}}
		default:
			// replace with a search string that cannot occur: a marker
			// strictly longer than s, or — exercising the underspecified
			// corner behind the Figure 9 Memgraph hang — the empty
			// string, which the reference semantics defines as identity.
			search := randString(r, len(s)+1)
			if r.Intn(3) == 0 {
				search = ""
			}
			return &ast.FuncCall{Name: "replace", Args: []ast.Expr{
				rec(value.Str(s)),
				ast.Lit(value.Str(search)),
				ast.Lit(value.Str(randString(r, 1+r.Intn(5)))),
			}}
		}
	case value.KindBool:
		b := target.AsBool()
		switch r.Intn(4) {
		case 0: // NOT NOT b
			return &ast.Unary{Op: ast.OpNot, X: &ast.Unary{Op: ast.OpNot, X: rec(target)}}
		case 1: // comparison
			a, c := int64(r.Intn(100)), int64(100+r.Intn(100))
			if b {
				return ast.Bin(ast.OpLt, rec(value.Int(a)), ast.Lit(value.Int(c)))
			}
			return ast.Bin(ast.OpGt, rec(value.Int(a)), ast.Lit(value.Int(c)))
		case 2:
			if b {
				return ast.Bin(ast.OpAnd, rec(target), ast.Lit(value.True))
			}
			return ast.Bin(ast.OpOr, rec(target), ast.Lit(value.False))
		default:
			return &ast.FuncCall{Name: "toBoolean", Args: []ast.Expr{ast.Lit(value.Str(fmt.Sprintf("%v", b)))}}
		}
	case value.KindList:
		elems := target.AsList()
		out := &ast.ListLit{}
		for _, el := range elems {
			out.Elems = append(out.Elems, genValueExpr(r, el, depth-1))
		}
		if r.Intn(3) == 0 {
			// Identity comprehension: [w IN list | w]. The "w" prefix is
			// reserved for comprehension variables, so no shadowing of
			// pattern variables or aliases can occur.
			v := fmt.Sprintf("w%d", r.Intn(100))
			return &ast.ListComprehension{Var: v, List: out, Map: ast.Var(v)}
		}
		return out
	default:
		return ast.Lit(target)
	}
}

// exprTemplate is one nesting template for Algorithm 2: it wraps an
// expression of the accepted class into a new expression, reporting the
// result class.
type exprTemplate struct {
	accepts functions.TypeClass
	build   func(r *rand.Rand, inner ast.Expr) ast.Expr
}

var nestTemplates = []exprTemplate{
	// Integer templates.
	{functions.TInt, func(r *rand.Rand, in ast.Expr) ast.Expr {
		return ast.Bin(ast.OpAdd, in, ast.Lit(value.Int(int64(r.Intn(999)+1))))
	}},
	{functions.TInt, func(r *rand.Rand, in ast.Expr) ast.Expr {
		return ast.Bin(ast.OpSub, in, ast.Lit(value.Int(int64(r.Intn(999)+1))))
	}},
	{functions.TInt, func(r *rand.Rand, in ast.Expr) ast.Expr {
		return ast.Bin(ast.OpMul, in, ast.Lit(value.Int(int64(r.Intn(9)+2))))
	}},
	{functions.TInt, func(_ *rand.Rand, in ast.Expr) ast.Expr {
		return &ast.FuncCall{Name: "toString", Args: []ast.Expr{in}}
	}},
	{functions.TInt, func(_ *rand.Rand, in ast.Expr) ast.Expr {
		return &ast.FuncCall{Name: "abs", Args: []ast.Expr{in}}
	}},
	{functions.TInt, func(_ *rand.Rand, in ast.Expr) ast.Expr {
		return &ast.FuncCall{Name: "sign", Args: []ast.Expr{in}}
	}},
	{functions.TInt, func(r *rand.Rand, in ast.Expr) ast.Expr {
		return &ast.ListLit{Elems: []ast.Expr{in, ast.Lit(value.Int(int64(r.Intn(100))))}}
	}},
	// String templates.
	{functions.TStr, func(r *rand.Rand, in ast.Expr) ast.Expr {
		return ast.Bin(ast.OpAdd, in, ast.Lit(value.Str(randString(r, 1+r.Intn(4)))))
	}},
	{functions.TStr, func(r *rand.Rand, in ast.Expr) ast.Expr {
		return ast.Bin(ast.OpAdd, ast.Lit(value.Str(randString(r, 1+r.Intn(4)))), in)
	}},
	{functions.TStr, func(_ *rand.Rand, in ast.Expr) ast.Expr {
		return &ast.FuncCall{Name: "reverse", Args: []ast.Expr{in}}
	}},
	{functions.TStr, func(_ *rand.Rand, in ast.Expr) ast.Expr {
		return &ast.FuncCall{Name: "char_length", Args: []ast.Expr{in}}
	}},
	{functions.TStr, func(_ *rand.Rand, in ast.Expr) ast.Expr {
		return &ast.FuncCall{Name: "toUpper", Args: []ast.Expr{in}}
	}},
	// Float templates (exact operations only).
	{functions.TFloat, func(_ *rand.Rand, in ast.Expr) ast.Expr {
		return &ast.Unary{Op: ast.OpNeg, X: in}
	}},
	{functions.TFloat, func(_ *rand.Rand, in ast.Expr) ast.Expr {
		return &ast.FuncCall{Name: "toString", Args: []ast.Expr{in}}
	}},
	{functions.TFloat, func(r *rand.Rand, in ast.Expr) ast.Expr {
		return ast.Bin(ast.OpMul, in, ast.Lit(value.Float(float64(r.Intn(3)+2))))
	}},
	// Boolean templates.
	{functions.TBool, func(_ *rand.Rand, in ast.Expr) ast.Expr {
		return &ast.Unary{Op: ast.OpNot, X: in}
	}},
	{functions.TBool, func(_ *rand.Rand, in ast.Expr) ast.Expr {
		return &ast.FuncCall{Name: "toString", Args: []ast.Expr{in}}
	}},
	// List templates.
	{functions.TList, func(_ *rand.Rand, in ast.Expr) ast.Expr {
		return &ast.FuncCall{Name: "reverse", Args: []ast.Expr{in}}
	}},
	{functions.TList, func(r *rand.Rand, in ast.Expr) ast.Expr {
		v := fmt.Sprintf("w%d", r.Intn(100))
		return &ast.ListComprehension{Var: v, List: in, Map: ast.Var(v)}
	}},
	{functions.TList, func(_ *rand.Rand, in ast.Expr) ast.Expr {
		return &ast.FuncCall{Name: "size", Args: []ast.Expr{in}}
	}},
	{functions.TList, func(_ *rand.Rand, in ast.Expr) ast.Expr {
		return &ast.IndexExpr{Subject: in, Index: ast.Lit(value.Int(0))}
	}},
}

// evalConst evaluates an expression after substituting the single free
// variable with a concrete value. The context and environment are scratch
// state reused across calls: evaluation results never alias either (they
// can only alias the substituted value v, which the caller owns).
func (s *Synthesizer) evalConst(e ast.Expr, varName string, v value.Value) (value.Value, error) {
	if s.constEnv == nil {
		s.constEnv = make(map[string]value.Value, 1)
	}
	clear(s.constEnv)
	s.constEnv[varName] = v
	s.constCtx.Graph = s.g
	s.constCtx.Env = s.constEnv
	return eval.Eval(&s.constCtx, e)
}

// holeVar is the placeholder complexifyAccess builds each template layer
// around. Its name is not a Cypher identifier the synthesizer emits, and
// it never reaches a query: plugHole replaces it once the layer is kept.
var holeVar = ast.Var("_")

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
// has evaluated without error for every competitor.
func (s *Synthesizer) complexifyAccess(base ast.Expr, intended value.Value, competitors []value.Value, depth int) (ast.Expr, value.Value) {
	exp, v1 := base, intended
	// cur holds each competitor's value of exp; next collects the
	// candidate layer's values and becomes cur when the layer is kept.
	cur := append(s.compCur[:0], competitors...)
	next := s.compNext[:0]
	for d := 0; d < depth; d++ {
		cls := functions.ClassOf(v1)
		if s.tmplScratch == nil {
			s.tmplScratch = make([]exprTemplate, 0, len(nestTemplates))
		}
		candidates := s.tmplScratch[:0]
		for _, t := range nestTemplates {
			if t.accepts.Accepts(cls) {
				candidates = append(candidates, t)
			}
		}
		s.tmplScratch = candidates
		if len(candidates) == 0 {
			break
		}
		t := candidates[s.r.Intn(len(candidates))]
		layer := t.build(s.r, holeVar)
		nv1, err := s.evalConst(layer, holeVar.Name, v1)
		if err != nil {
			continue
		}
		distinct := true
		next = next[:0]
		for _, c := range cur {
			nc, err := s.evalConst(layer, holeVar.Name, c)
			if err != nil || value.Equivalent(nc, nv1) {
				distinct = false
				break
			}
			next = append(next, nc)
		}
		if !distinct {
			continue // try another template next round (line 8 of Alg. 2)
		}
		exp, v1 = plugHole(layer, exp), nv1
		cur, next = next, cur
	}
	s.compCur, s.compNext = cur, next
	return exp, v1
}

// plugHole replaces holeVar in a freshly built template layer with inner.
// Every template places its input as a direct child of the node it
// returns.
func plugHole(layer, inner ast.Expr) ast.Expr {
	switch e := layer.(type) {
	case *ast.Binary:
		if e.L == holeVar {
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
	var compVals []value.Value
	for _, c := range p.competitors {
		if !byProp {
			compVals = append(compVals, value.Int(c.id))
		} else if v, ok := s.lookupProp(c, "id"); ok {
			compVals = append(compVals, v)
		}
	}
	nested, v1 := s.complexifyAccess(access, intended, compVals, s.r.Intn(depth+1))
	return ast.Bin(ast.OpEq, nested, genValueExpr(s.r, v1, s.r.Intn(depth+1)))
}

// pinAccess returns the expression that identifies a pinned element and
// its value for that element. It is the element's `id` property when the
// element has one (byProp), and id(var) otherwise: bulk-generated
// relationships carry no properties, so `var.id` would be null for every
// candidate and the pin would match nothing.
func (s *Synthesizer) pinAccess(p pin) (access ast.Expr, intended value.Value, byProp bool) {
	if v, ok := s.lookupProp(p.elem, "id"); ok {
		return ast.Prop(p.varName, "id"), v, true
	}
	return &ast.FuncCall{Name: "id", Args: []ast.Expr{ast.Var(p.varName)}}, value.Int(p.elem.id), false
}

func (s *Synthesizer) lookupProp(e elemRef, name string) (value.Value, bool) {
	return s.g.Lookup(graphPropertyKey(e, name))
}

// refOf classifies a graph element identifier as a node or relationship.
func (s *Synthesizer) refOf(id int64) elemRef {
	return elemRef{id: id, isRel: s.g.Rel(id) != nil}
}

// randomScalarExpr builds an arbitrary expression over the in-scope
// variables that is guaranteed to evaluate without error in every
// current symbolic row (it is verified against the tracker and replaced
// by a literal if evaluation fails).
func (s *Synthesizer) randomScalarExpr(depth int) ast.Expr {
	e := s.tryRandomExpr(depth)
	if err := s.tracker.Check(e); err != nil {
		return ast.Lit(value.Int(int64(s.r.Intn(2000000000)) - 1000000000))
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
			if id, ok := s.elemScope[v]; ok {
				if name, ok2 := s.randomPropName(s.refOf(id)); ok2 {
					return ast.Prop(v, name)
				}
			}
			return ast.Var(v)
		}
		return randomLiteral(s.r)
	}
	switch s.r.Intn(5) {
	case 0:
		return ast.Bin(ast.OpAdd, s.tryRandomExprVars(vars, depth-1), ast.Lit(value.Int(int64(s.r.Intn(100)))))
	case 1:
		return ast.Bin(ast.OpNeq, s.tryRandomExprVars(vars, depth-1), s.tryRandomExprVars(vars, depth-1))
	case 2:
		return &ast.FuncCall{Name: "toString", Args: []ast.Expr{s.tryRandomExprVars(vars, depth-1)}}
	case 3:
		return &ast.FuncCall{Name: "coalesce", Args: []ast.Expr{s.tryRandomExprVars(vars, depth-1), randomLiteral(s.r)}}
	default:
		return &ast.ListLit{Elems: []ast.Expr{s.tryRandomExprVars(vars, depth-1)}}
	}
}

func randomLiteral(r *rand.Rand) ast.Expr {
	switch r.Intn(4) {
	case 0:
		return ast.Lit(value.Int(int64(int32(r.Uint32()))))
	case 1:
		return ast.Lit(value.Str(randString(r, 4+r.Intn(6))))
	case 2:
		return ast.Lit(value.Bool(r.Intn(2) == 0))
	default:
		return ast.Lit(value.Float(float64(r.Intn(1000)) / 4))
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
	names := make([]string, 0, len(props))
	for k := range props {
		names = append(names, k)
	}
	if len(names) == 0 {
		return "", false
	}
	sortStrings(names)
	return names[s.r.Intn(len(names))], true
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
	return ast.Lit(value.True)
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
		return ast.Lit(value.True)
	}
	v := vars[s.r.Intn(len(vars))]
	var access ast.Expr
	var actual value.Value
	if id, ok := s.elemScope[v]; ok {
		ref := s.refOf(id)
		name, ok2 := s.randomPropName(ref)
		if !ok2 {
			return nil
		}
		access = ast.Prop(v, name)
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
		return &ast.Unary{Op: ast.OpIsNull, X: access}
	}
	if containsEntity(actual) {
		// Entity values (an endNode alias, say, or a list holding one)
		// have no literal form; only null checks are safely expressible.
		return &ast.Unary{Op: ast.OpIsNotNull, X: access}
	}
	switch s.r.Intn(5) {
	case 0: // equality with hidden constant
		return ast.Bin(ast.OpEq, access, genValueExpr(s.r, actual, s.r.Intn(depth+1)))
	case 1: // ordering
		switch actual.Kind() {
		case value.KindInt:
			return ast.Bin(ast.OpLe, access, ast.Lit(value.Int(actual.AsInt())))
		case value.KindString:
			return ast.Bin(ast.OpGe, access, ast.Lit(value.Str(""))) // every string ≥ ""
		default:
			return &ast.Unary{Op: ast.OpIsNotNull, X: access}
		}
	case 2: // string suffix (Figure 1 style)
		if actual.Kind() == value.KindString && actual.AsString() != "" {
			str := actual.AsString()
			suffix := str[len(str)/2:]
			return ast.Bin(ast.OpEndsWith, access, ast.Lit(value.Str(suffix)))
		}
		return &ast.Unary{Op: ast.OpIsNotNull, X: access}
	case 3: // membership
		junk := randomLiteral(s.r)
		return ast.Bin(ast.OpIn, access, &ast.ListLit{Elems: []ast.Expr{genValueExpr(s.r, actual, s.r.Intn(depth+1)), junk}})
	default: // double negation
		return &ast.Unary{Op: ast.OpNot, X: &ast.Unary{Op: ast.OpNot, X: ast.Bin(ast.OpEq, access, ast.Lit(actual))}}
	}
}
