package functions

import (
	"math"
	"sort"
	"strings"

	"gqs/internal/value"
)

// Aggregator accumulates values of one group during WITH/RETURN
// aggregation. Implementations skip null inputs, as Cypher aggregates do.
type Aggregator interface {
	Add(v value.Value) error
	Result() value.Value
}

// AggSpec describes one aggregation operator.
type AggSpec struct {
	Name string
	// HasParam marks two-argument aggregates (percentileCont/Disc); the
	// second argument is evaluated once per group and passed to New.
	HasParam bool
	Return   TypeClass
	New      func(param value.Value) Aggregator
}

var aggRegistry = map[string]*AggSpec{}
var aggOrdered []*AggSpec

func registerAgg(s *AggSpec) {
	aggRegistry[strings.ToLower(s.Name)] = s
	// Canonical-spelling fast path, as in the scalar registry.
	aggRegistry[s.Name] = s
	aggOrdered = append(aggOrdered, s)
}

// LookupAgg returns the aggregation operator with the given
// (case-insensitive) name, or nil. The canonical spelling hits the
// registry directly.
func LookupAgg(name string) *AggSpec {
	if s, ok := aggRegistry[name]; ok {
		return s
	}
	return lookupFolded(aggRegistry, name)
}

// AllAggs returns every aggregation operator.
func AllAggs() []*AggSpec { return aggOrdered }

// IsAggregate reports whether name refers to an aggregation operator.
func IsAggregate(name string) bool { return LookupAgg(name) != nil }

func init() {
	registerAgg(&AggSpec{Name: "count", Return: TInt, New: func(value.Value) Aggregator { return &countAgg{} }})
	registerAgg(&AggSpec{Name: "collect", Return: TList, New: func(value.Value) Aggregator { return &collectAgg{} }})
	registerAgg(&AggSpec{Name: "sum", Return: TNum, New: func(value.Value) Aggregator { return &sumAgg{} }})
	registerAgg(&AggSpec{Name: "avg", Return: TFloat, New: func(value.Value) Aggregator { return &avgAgg{} }})
	registerAgg(&AggSpec{Name: "min", Return: TAny, New: func(value.Value) Aggregator { return &minMaxAgg{min: true} }})
	registerAgg(&AggSpec{Name: "max", Return: TAny, New: func(value.Value) Aggregator { return &minMaxAgg{} }})
	registerAgg(&AggSpec{Name: "stDev", Return: TFloat, New: func(value.Value) Aggregator { return &stdevAgg{sample: true} }})
	registerAgg(&AggSpec{Name: "stDevP", Return: TFloat, New: func(value.Value) Aggregator { return &stdevAgg{} }})
	registerAgg(&AggSpec{Name: "percentileCont", HasParam: true, Return: TFloat,
		New: func(p value.Value) Aggregator { return &percentileAgg{p: p, cont: true} }})
	registerAgg(&AggSpec{Name: "percentileDisc", HasParam: true, Return: TNum,
		New: func(p value.Value) Aggregator { return &percentileAgg{p: p} }})
}

type countAgg struct{ n int64 }

func (a *countAgg) Add(v value.Value) error {
	if !v.IsNull() {
		a.n++
	}
	return nil
}
func (a *countAgg) Result() value.Value { return value.Int(a.n) }

// CountStar returns an aggregator for count(*), which counts rows
// including nulls.
func CountStar() Aggregator { return &countStarAgg{} }

type countStarAgg struct{ n int64 }

func (a *countStarAgg) Add(value.Value) error { a.n++; return nil }
func (a *countStarAgg) Result() value.Value   { return value.Int(a.n) }

type collectAgg struct{ vs []value.Value }

func (a *collectAgg) Add(v value.Value) error {
	if !v.IsNull() {
		a.vs = append(a.vs, v)
	}
	return nil
}
func (a *collectAgg) Result() value.Value { return value.ListOf(a.vs) }

type sumAgg struct {
	i       int64
	f       float64
	isFloat bool
	saw     bool
}

func (a *sumAgg) Add(v value.Value) error {
	switch v.Kind() {
	case value.KindNull:
		return nil
	case value.KindInt:
		a.saw = true
		if a.isFloat {
			a.f += float64(v.AsInt())
		} else {
			a.i += v.AsInt()
		}
	case value.KindFloat:
		a.saw = true
		if !a.isFloat {
			a.isFloat = true
			a.f = float64(a.i)
		}
		a.f += v.AsFloat()
	default:
		return argErr("sum", "expected a number, got %s", v.Kind())
	}
	return nil
}

func (a *sumAgg) Result() value.Value {
	if a.isFloat {
		return value.Float(a.f)
	}
	return value.Int(a.i)
}

type avgAgg struct {
	sum float64
	n   int64
}

func (a *avgAgg) Add(v value.Value) error {
	switch v.Kind() {
	case value.KindNull:
		return nil
	case value.KindInt, value.KindFloat:
		a.sum += v.AsFloat()
		a.n++
		return nil
	}
	return argErr("avg", "expected a number, got %s", v.Kind())
}

func (a *avgAgg) Result() value.Value {
	if a.n == 0 {
		return value.Null
	}
	return value.Float(a.sum / float64(a.n))
}

type minMaxAgg struct {
	min  bool
	best value.Value
	saw  bool
}

func (a *minMaxAgg) Add(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	if !a.saw {
		a.best, a.saw = v, true
		return nil
	}
	c := value.OrderCompare(v, a.best)
	if (a.min && c < 0) || (!a.min && c > 0) {
		a.best = v
	}
	return nil
}

func (a *minMaxAgg) Result() value.Value {
	if !a.saw {
		return value.Null
	}
	return a.best
}

type stdevAgg struct {
	sample bool
	vs     []float64
}

func (a *stdevAgg) Add(v value.Value) error {
	switch v.Kind() {
	case value.KindNull:
		return nil
	case value.KindInt, value.KindFloat:
		a.vs = append(a.vs, v.AsFloat())
		return nil
	}
	return argErr("stDev", "expected a number, got %s", v.Kind())
}

func (a *stdevAgg) Result() value.Value {
	n := len(a.vs)
	if n < 2 {
		return value.Float(0)
	}
	var mean float64
	for _, x := range a.vs {
		mean += x
	}
	mean /= float64(n)
	var ss float64
	for _, x := range a.vs {
		d := x - mean
		ss += d * d
	}
	div := float64(n)
	if a.sample {
		div = float64(n - 1)
	}
	return value.Float(math.Sqrt(ss / div))
}

type percentileAgg struct {
	p    value.Value
	cont bool
	vs   []float64
	// orig keeps the original elements for percentileDisc, which returns
	// one of its inputs unchanged — an integer input must yield an
	// integer, as Neo4j's percentileDisc does.
	orig []value.Value
}

func (a *percentileAgg) Add(v value.Value) error {
	switch v.Kind() {
	case value.KindNull:
		return nil
	case value.KindInt, value.KindFloat:
		a.vs = append(a.vs, v.AsFloat())
		if !a.cont {
			a.orig = append(a.orig, v)
		}
		return nil
	}
	return argErr("percentile", "expected a number, got %s", v.Kind())
}

func (a *percentileAgg) Result() value.Value {
	if len(a.vs) == 0 {
		return value.Null
	}
	if !a.p.IsNumber() {
		return value.Null
	}
	p := a.p.AsFloat()
	if p < 0 || p > 1 {
		return value.Null
	}
	sort.Float64s(a.vs)
	if a.cont {
		pos := p * float64(len(a.vs)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		if lo == hi {
			return value.Float(a.vs[lo])
		}
		frac := pos - float64(lo)
		return value.Float(a.vs[lo]*(1-frac) + a.vs[hi]*frac)
	}
	// Discrete percentile returns the selected element itself, type
	// intact (a stable sort keeps numerically-equal ints and floats in
	// arrival order, so the pick is deterministic).
	sort.SliceStable(a.orig, func(i, j int) bool {
		return a.orig[i].AsFloat() < a.orig[j].AsFloat()
	})
	idx := int(math.Ceil(p*float64(len(a.orig)))) - 1
	if idx < 0 {
		idx = 0
	}
	return a.orig[idx]
}
