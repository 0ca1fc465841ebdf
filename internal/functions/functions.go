// Package functions implements the Cypher function library shared by the
// four GDBs the paper tests: 61 scalar functions plus the aggregation
// operators (§4, "Supported Cypher Features"). Each function carries type
// metadata (parameter and return type classes) that the GQS expression
// synthesizer uses to build well-typed nested expressions (§3.5).
package functions

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"gqs/internal/value"
)

// TypeClass is the coarse type lattice used for synthesis: it classifies
// function parameters and results so that Algorithm 2 can pick templates
// whose parameter type matches the current expression's type.
type TypeClass int

// Type classes.
const (
	TAny TypeClass = iota
	TNum           // integer or float
	TInt
	TFloat
	TStr
	TBool
	TList
	TNode
	TRel
	TEntity // node or relationship
	TMap
)

// String returns a short name for the type class.
func (t TypeClass) String() string {
	switch t {
	case TAny:
		return "any"
	case TNum:
		return "number"
	case TInt:
		return "integer"
	case TFloat:
		return "float"
	case TStr:
		return "string"
	case TBool:
		return "boolean"
	case TList:
		return "list"
	case TNode:
		return "node"
	case TRel:
		return "relationship"
	case TEntity:
		return "entity"
	case TMap:
		return "map"
	default:
		return "?"
	}
}

// ClassOf returns the type class of a concrete value.
func ClassOf(v value.Value) TypeClass {
	switch v.Kind() {
	case value.KindInt:
		return TInt
	case value.KindFloat:
		return TFloat
	case value.KindString:
		return TStr
	case value.KindBool:
		return TBool
	case value.KindList:
		return TList
	case value.KindMap:
		return TMap
	case value.KindNode:
		return TNode
	case value.KindRel:
		return TRel
	default:
		return TAny
	}
}

// Accepts reports whether a value of class got can be passed where class
// want is expected.
func (want TypeClass) Accepts(got TypeClass) bool {
	switch want {
	case TAny:
		return true
	case TNum:
		return got == TInt || got == TFloat || got == TNum
	case TEntity:
		return got == TNode || got == TRel || got == TEntity
	default:
		return want == got
	}
}

// GraphContext resolves graph-dependent functions (labels, type,
// startNode, ...). The engine's evaluator supplies an implementation;
// GQS's internal evaluator supplies one backed by the generated graph.
type GraphContext interface {
	NodeLabels(id int64) ([]string, bool)
	RelType(id int64) (string, bool)
	RelEndpoints(id int64) (start, end int64, ok bool)
	EntityProps(id int64, isRel bool) (map[string]value.Value, bool)
}

// Func describes one scalar function.
type Func struct {
	Name    string
	Params  []TypeClass // minimum formal parameters
	OptTail int         // number of trailing optional parameters (suffix of Params)
	Return  TypeClass
	// Variadic marks functions accepting any number of arguments of
	// Params[len(Params)-1]'s class (coalesce).
	Variadic bool
	// NeedsGraph marks functions that require a GraphContext.
	NeedsGraph bool
	// Nondeterministic marks functions excluded from synthesis (rand).
	Nondeterministic bool
	Call             func(ctx GraphContext, args []value.Value) (value.Value, error)
}

// MinArgs returns the minimum number of arguments.
func (f *Func) MinArgs() int { return len(f.Params) - f.OptTail }

// MaxArgs returns the maximum number of arguments (-1 for variadic).
func (f *Func) MaxArgs() int {
	if f.Variadic {
		return -1
	}
	return len(f.Params)
}

// ArgError is returned for a wrong number or type of arguments.
type ArgError struct {
	Func string
	Msg  string
}

func (e *ArgError) Error() string { return fmt.Sprintf("%s: %s", e.Func, e.Msg) }

func argErr(name, format string, args ...any) error {
	return &ArgError{Func: name, Msg: fmt.Sprintf(format, args...)}
}

// Lookup returns the scalar function with the given (case-insensitive)
// name, or nil. The canonical spelling hits the registry directly.
func Lookup(name string) *Func {
	if f, ok := registry[name]; ok {
		return f
	}
	return lookupFolded(registry, name)
}

// lookupFolded looks up a name whose canonical spelling missed, in a
// registry also keyed by lower case. The plan compiler meets such misses
// on most calls (a scalar function looked up as an aggregate, an
// aggregate's camel case looked up as a scalar function), so the name is
// folded to lower case in a stack buffer: only long or non-ASCII names
// pay the ToLower allocation.
func lookupFolded[T any](registry map[string]T, name string) T {
	var buf [24]byte
	if len(name) > len(buf) {
		return registry[strings.ToLower(name)]
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'A' <= c && c <= 'Z':
			c += 'a' - 'A'
		case c >= utf8.RuneSelf:
			return registry[strings.ToLower(name)]
		}
		buf[i] = c
	}
	return registry[string(buf[:len(name)])]
}

// All returns every registered scalar function, in registration order.
func All() []*Func { return ordered }

var (
	registry = map[string]*Func{}
	ordered  []*Func
)

func register(f *Func) {
	key := strings.ToLower(f.Name)
	if _, dup := registry[key]; dup {
		panic("functions: duplicate registration of " + f.Name)
	}
	registry[key] = f
	// Also index the canonical spelling so Lookup's exact-match fast
	// path covers camelCase names (a no-op for all-lowercase ones).
	registry[f.Name] = f
	ordered = append(ordered, f)
}

// Invoke validates the argument count and calls the function. A null
// argument yields null without calling the implementation, matching
// Cypher's null propagation for scalar functions (coalesce opts out by
// handling nulls itself).
func Invoke(f *Func, ctx GraphContext, args []value.Value) (value.Value, error) {
	if len(args) < f.MinArgs() || (f.MaxArgs() >= 0 && len(args) > f.MaxArgs()) {
		return value.Null, argErr(f.Name, "wrong number of arguments: %d", len(args))
	}
	if f.Name != "coalesce" && f.Name != "exists" {
		for _, a := range args {
			if a.IsNull() {
				return value.Null, nil
			}
		}
	}
	return f.Call(ctx, args)
}
