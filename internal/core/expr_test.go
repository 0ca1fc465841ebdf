package core

import (
	"math/rand"
	"testing"

	"gqs/internal/cypher/ast"
	"gqs/internal/eval"
	"gqs/internal/functions"
	"gqs/internal/graph"
	"gqs/internal/value"
)

func newTestSynth(seed int64) (*Synthesizer, *rand.Rand) {
	r := rand.New(rand.NewSource(seed))
	g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 10, MaxRels: 40})
	syn := NewSynthesizer(r, g, schema, DefaultConfig())
	syn.reset()
	return syn, r
}

// TestComplexifyAccessInvariant checks Algorithm 2's contract: the nested
// expression evaluates to the recorded value for the intended element and
// to a different value for every competitor, at every nesting depth.
func TestComplexifyAccessInvariant(t *testing.T) {
	syn, r := newTestSynth(1)
	mapFor := idMap
	for trial := 0; trial < 2000; trial++ {
		intended := value.Int(int64(r.Intn(60)))
		var comps []value.Value
		for i := 0; i < r.Intn(5); i++ {
			c := value.Int(int64(r.Intn(60)))
			if !value.Equivalent(c, intended) {
				comps = append(comps, c)
			}
		}
		nested, v1 := syn.complexifyAccess(ast.Prop("x", "id"), intended, comps, 1+r.Intn(6))
		got, err := eval.Eval(&eval.Ctx{Graph: syn.g, Env: map[string]value.Value{"x": mapFor(intended)}}, nested)
		if err != nil {
			t.Fatalf("trial %d: eval error %v on %s", trial, err, ast.ExprString(nested))
		}
		if !value.Equivalent(got, v1) {
			t.Fatalf("trial %d: value drift: intended=%v expr=%s got=%v v1=%v",
				trial, intended, ast.ExprString(nested), got, v1)
		}
		for _, c := range comps {
			gc, err := eval.Eval(&eval.Ctx{Graph: syn.g, Env: map[string]value.Value{"x": mapFor(c)}}, nested)
			if err == nil && value.Equivalent(gc, v1) {
				t.Fatalf("trial %d: competitor %v not distinguished by %s", trial, c, ast.ExprString(nested))
			}
		}
	}
}

// idMap stands in for a pattern variable whose `id` property is v, so
// that x.id evaluates to v.
func idMap(v value.Value) value.Value {
	return value.Map(map[string]value.Value{"id": v})
}

// evalConst evaluates an expression with its single free variable bound
// to v.
func (s *Synthesizer) evalConst(e ast.Expr, varName string, v value.Value) (value.Value, error) {
	return eval.Eval(&eval.Ctx{Graph: s.g, Env: map[string]value.Value{varName: v}}, e)
}

// complexifyAccessFull is Algorithm 2 as first written: every round
// re-evaluates the whole nested expression on each element's original
// property value. complexifyAccess must produce exactly its output.
func (s *Synthesizer) complexifyAccessFull(varName, prop string, intended value.Value, competitors []value.Value, depth int) (ast.Expr, value.Value) {
	var exp ast.Expr = ast.Prop(varName, prop)
	v1 := intended
	wrap := func(v value.Value) value.Value {
		return value.Map(map[string]value.Value{prop: v})
	}
	for d := 0; d < depth; d++ {
		cls := functions.ClassOf(v1)
		var candidates []exprTemplate
		for _, t := range nestTemplates {
			if t.accepts.Accepts(cls) {
				candidates = append(candidates, t)
			}
		}
		if len(candidates) == 0 {
			break
		}
		t := candidates[s.r.Intn(len(candidates))]
		newExp := t.build(s, exp)
		nv1, err := s.evalConst(newExp, varName, wrap(intended))
		if err != nil {
			continue
		}
		distinct := true
		for _, c := range competitors {
			nc, err := s.evalConst(newExp, varName, wrap(c))
			if err != nil || value.Equivalent(nc, nv1) {
				distinct = false
				break
			}
		}
		if distinct {
			exp, v1 = newExp, nv1
		}
	}
	return exp, v1
}

// TestComplexifyLayerEvalMatchesFull checks that evaluating only the new
// template layer yields the same expression, the same value and the same
// RNG draws as re-evaluating the whole expression, over many seeds and
// every template class.
func TestComplexifyLayerEvalMatchesFull(t *testing.T) {
	randVal := func(r *rand.Rand) value.Value {
		switch r.Intn(6) {
		case 0:
			return value.Str(randString(r, r.Intn(6)))
		case 1:
			return value.Float(float64(r.Intn(400)-200) / 4)
		case 2:
			return value.Bool(r.Intn(2) == 0)
		case 3:
			return value.List(value.Int(int64(r.Intn(9))), value.Int(int64(r.Intn(9))))
		default:
			return value.Int(int64(r.Intn(200) - 100))
		}
	}
	kept := 0
	for seed := int64(1); seed <= 60; seed++ {
		full, _ := newTestSynth(seed)
		layer, _ := newTestSynth(seed)
		inputs := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 100; trial++ {
			intended := randVal(inputs)
			comps := make([]value.Value, inputs.Intn(5))
			for i := range comps {
				comps[i] = randVal(inputs)
			}
			depth := inputs.Intn(7)
			fe, fv := full.complexifyAccessFull("x", "id", intended, comps, depth)
			le, lv := layer.complexifyAccess(ast.Prop("x", "id"), intended, comps, depth)
			if fs, ls := ast.ExprString(fe), ast.ExprString(le); fs != ls {
				t.Fatalf("seed %d trial %d: expression %s, want %s", seed, trial, ls, fs)
			}
			if lv.Kind() != fv.Kind() || lv.String() != fv.String() {
				t.Fatalf("seed %d trial %d: v1 %v, want %v", seed, trial, lv, fv)
			}
			if _, ok := le.(*ast.PropAccess); !ok {
				kept++
			}
		}
		if full.r.Int63() != layer.r.Int63() {
			t.Fatalf("seed %d: RNG streams diverged", seed)
		}
	}
	if kept < 1000 {
		t.Fatalf("only %d trials kept a template layer", kept)
	}
}

// TestComplexifyStringProperty exercises Algorithm 2 over string-typed
// properties.
func TestComplexifyStringProperty(t *testing.T) {
	syn, r := newTestSynth(2)
	for trial := 0; trial < 500; trial++ {
		intended := value.Str(randString(r, 3+r.Intn(6)))
		comps := []value.Value{value.Str(randString(r, 3+r.Intn(6)))}
		if value.Equivalent(comps[0], intended) {
			continue
		}
		nested, v1 := syn.complexifyAccess(ast.Prop("x", "id"), intended, comps, 4)
		got, err := syn.evalConst(nested, "x", idMap(intended))
		if err != nil || !value.Equivalent(got, v1) {
			t.Fatalf("trial %d: %v / %v vs %v (%s)", trial, err, got, v1, ast.ExprString(nested))
		}
	}
}

// TestTruePredicateHolds verifies that dependency predicates are true in
// every symbolic row.
func TestTruePredicateHolds(t *testing.T) {
	syn, r := newTestSynth(3)
	// Bind a couple of variables to real elements.
	ids := syn.g.NodeIDs()
	syn.bindScope("n0", elemRef{id: ids[0]})
	syn.bindScope("n1", elemRef{id: ids[1]})
	syn.tracker.Bind("n0", value.Node(ids[0]))
	syn.tracker.Bind("n1", value.Node(ids[1]))
	syn.tracker.Bind("a0", value.Int(42))
	for trial := 0; trial < 300; trial++ {
		p := syn.truePredicate(1 + r.Intn(5))
		ok, err := syn.tracker.HoldsEverywhere(p)
		if err != nil || !ok {
			t.Fatalf("trial %d: predicate %s does not hold (%v)", trial, ast.ExprString(p), err)
		}
	}
}

// TestRandomScalarExprEvaluates verifies generated expressions never fail
// to evaluate in the current state.
func TestRandomScalarExprEvaluates(t *testing.T) {
	syn, r := newTestSynth(4)
	ids := syn.g.NodeIDs()
	syn.bindScope("n0", elemRef{id: ids[0]})
	syn.tracker.Bind("n0", value.Node(ids[0]))
	for trial := 0; trial < 500; trial++ {
		e := syn.randomScalarExpr(1 + r.Intn(6))
		if err := syn.tracker.Check(e); err != nil {
			t.Fatalf("trial %d: %s: %v", trial, ast.ExprString(e), err)
		}
	}
}

// TestPinPredicateSelectsIntended verifies that a rendered pin predicate
// is true for the intended element and false for all competitors.
func TestPinPredicateSelectsIntended(t *testing.T) {
	syn, r := newTestSynth(5)
	rels := syn.g.RelIDs()
	for trial := 0; trial < 200; trial++ {
		intended := rels[r.Intn(len(rels))]
		var comps []elemRef
		for _, id := range rels {
			if id != intended && r.Intn(2) == 0 {
				comps = append(comps, elemRef{id: id, isRel: true})
			}
		}
		p := pin{varName: "r9", elem: elemRef{id: intended, isRel: true}, competitors: comps}
		pred := syn.pinPredicate(p, 5)
		check := func(id int64) value.Tri {
			tr, err := eval.EvalPredicate(&eval.Ctx{
				Graph: syn.g,
				Env:   map[string]value.Value{"r9": value.Rel(id)},
			}, pred)
			if err != nil {
				t.Fatalf("trial %d: %v on %s", trial, err, ast.ExprString(pred))
			}
			return tr
		}
		if check(intended) != value.TriTrue {
			t.Fatalf("trial %d: pin predicate false for intended: %s", trial, ast.ExprString(pred))
		}
		for _, c := range comps {
			if check(c.id) == value.TriTrue {
				t.Fatalf("trial %d: pin predicate true for competitor %d: %s", trial, c.id, ast.ExprString(pred))
			}
		}
	}
}
