// Package value implements the Cypher value model: the dynamically typed
// values that flow through query evaluation, together with Cypher's
// three-valued logic, its comparability rules (used by predicates), its
// equivalence rules (used by DISTINCT and grouping), and its orderability
// rules (used by ORDER BY).
//
// The model follows the openCypher 9 reference. Values are immutable once
// constructed; lists and maps must not be mutated after being wrapped.
package value

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
	"unsafe"
)

// Kind identifies the dynamic type of a Value.
type Kind int

// The Cypher value kinds. Node and Rel values hold only the element
// identifier; resolving properties or labels requires the graph, which the
// evaluator carries.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindList
	KindMap
	KindNode
	KindRel
)

// String returns the Cypher-facing name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOLEAN"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindList:
		return "LIST"
	case KindMap:
		return "MAP"
	case KindNode:
		return "NODE"
	case KindRel:
		return "RELATIONSHIP"
	default:
		return fmt.Sprintf("KIND(%d)", int(k))
	}
}

// Value is a Cypher runtime value. The zero Value is null.
//
// A Value is three words: the kind, one scalar word and one pointer. The
// scalar holds ints, node and relationship identifiers, bools (0/1) and
// float bits; for strings and lists it holds the length. The pointer holds
// the string's bytes, the list's first element, or the map's header, so
// the garbage collector keeps the payload alive through it. The payload is
// rebuilt on read by the accessors below (bv, fv, sv, lv, mv), which are
// the only code that interprets the pointer.
type Value struct {
	kind Kind
	i    int64
	p    unsafe.Pointer
}

// Null is the null value.
var Null = Value{kind: KindNull}

// True and False are the boolean constants.
var (
	True  = Value{kind: KindBool, i: 1}
	False = Value{kind: KindBool, i: 0}
)

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return True
	}
	return False
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a float value.
func Float(f float64) Value { return Value{kind: KindFloat, i: int64(math.Float64bits(f))} }

// String_ returns a string value. (Named with a trailing underscore because
// String is the Stringer method.)
func String_(s string) Value { return Str(s) }

// Str is a shorter alias for String_.
func Str(s string) Value {
	return Value{kind: KindString, i: int64(len(s)), p: unsafe.Pointer(unsafe.StringData(s))}
}

// List returns a list value wrapping vs. The slice is not copied.
func List(vs ...Value) Value { return ListOf(vs) }

// ListOf returns a list value wrapping the given slice without copying.
// Only the slice's length is kept: AsList returns a slice whose capacity
// equals its length, so appending to it always copies.
func ListOf(vs []Value) Value {
	return Value{kind: KindList, i: int64(len(vs)), p: unsafe.Pointer(unsafe.SliceData(vs))}
}

// Map returns a map value wrapping m. The map is not copied.
func Map(m map[string]Value) Value {
	return Value{kind: KindMap, p: *(*unsafe.Pointer)(unsafe.Pointer(&m))}
}

// Node returns a node reference with the given element identifier.
func Node(id int64) Value { return Value{kind: KindNode, i: id} }

// Rel returns a relationship reference with the given element identifier.
func Rel(id int64) Value { return Value{kind: KindRel, i: id} }

// bv, fv, sv, lv and mv rebuild the payload of a bool, float, string,
// list or map value. Each must only be called on a value of that kind; the
// exported As* accessors check the kind first and return the zero payload
// otherwise.
func (v Value) bv() bool    { return v.i != 0 }
func (v Value) fv() float64 { return math.Float64frombits(uint64(v.i)) }
func (v Value) sv() string  { return unsafe.String((*byte)(v.p), int(v.i)) }
func (v Value) lv() []Value { return unsafe.Slice((*Value)(v.p), int(v.i)) }
func (v Value) mv() map[string]Value {
	return *(*map[string]Value)(unsafe.Pointer(&v.p))
}

// Kind reports the value's dynamic type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsNumber reports whether the value is an integer or a float.
func (v Value) IsNumber() bool { return v.kind == KindInt || v.kind == KindFloat }

// IsEntity reports whether the value is a node or relationship reference.
func (v Value) IsEntity() bool { return v.kind == KindNode || v.kind == KindRel }

// AsBool returns the boolean payload; it must only be called when Kind is KindBool.
func (v Value) AsBool() bool { return v.kind == KindBool && v.bv() }

// AsInt returns the integer payload; it must only be called when Kind is KindInt.
func (v Value) AsInt() int64 { return v.iv() }

// AsFloat returns the float payload; for integers it returns the converted value.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i)
	case KindFloat:
		return v.fv()
	}
	return 0
}

// AsString returns the string payload; it must only be called when Kind is KindString.
func (v Value) AsString() string {
	if v.kind != KindString {
		return ""
	}
	return v.sv()
}

// AsList returns the list payload; it must only be called when Kind is
// KindList. The returned slice's capacity equals its length.
func (v Value) AsList() []Value {
	if v.kind != KindList {
		return nil
	}
	return v.lv()
}

// AsMap returns the map payload; it must only be called when Kind is KindMap.
func (v Value) AsMap() map[string]Value {
	if v.kind != KindMap {
		return nil
	}
	return v.mv()
}

// EntityID returns the node or relationship identifier; it must only be
// called when Kind is KindNode or KindRel.
func (v Value) EntityID() int64 { return v.iv() }

// iv returns the scalar word of an integer, node or relationship value and
// 0 for every other kind, whose scalar word means something else.
func (v Value) iv() int64 {
	switch v.kind {
	case KindInt, KindNode, KindRel:
		return v.i
	}
	return 0
}

// Tri is Cypher's three-valued logic: true, false, or unknown (null).
type Tri int

// The three truth values.
const (
	TriFalse Tri = iota
	TriTrue
	TriUnknown
)

// TriOf converts a Go bool to a Tri.
func TriOf(b bool) Tri {
	if b {
		return TriTrue
	}
	return TriFalse
}

// String returns "true", "false", or "null".
func (t Tri) String() string {
	switch t {
	case TriTrue:
		return "true"
	case TriFalse:
		return "false"
	default:
		return "null"
	}
}

// Value converts the Tri back to a Cypher value (null for unknown).
func (t Tri) Value() Value {
	switch t {
	case TriTrue:
		return True
	case TriFalse:
		return False
	default:
		return Null
	}
}

// And is three-valued conjunction.
func (t Tri) And(o Tri) Tri {
	if t == TriFalse || o == TriFalse {
		return TriFalse
	}
	if t == TriUnknown || o == TriUnknown {
		return TriUnknown
	}
	return TriTrue
}

// Or is three-valued disjunction.
func (t Tri) Or(o Tri) Tri {
	if t == TriTrue || o == TriTrue {
		return TriTrue
	}
	if t == TriUnknown || o == TriUnknown {
		return TriUnknown
	}
	return TriFalse
}

// Xor is three-valued exclusive or.
func (t Tri) Xor(o Tri) Tri {
	if t == TriUnknown || o == TriUnknown {
		return TriUnknown
	}
	return TriOf((t == TriTrue) != (o == TriTrue))
}

// Not is three-valued negation.
func (t Tri) Not() Tri {
	switch t {
	case TriTrue:
		return TriFalse
	case TriFalse:
		return TriTrue
	default:
		return TriUnknown
	}
}

// Truth interprets a value as a predicate result: booleans map to
// themselves, null maps to unknown. Any other kind is a type error in
// Cypher; callers surface that via the returned ok flag.
func (v Value) Truth() (t Tri, ok bool) {
	switch v.kind {
	case KindNull:
		return TriUnknown, true
	case KindBool:
		return TriOf(v.bv()), true
	default:
		return TriUnknown, false
	}
}

// String renders the value in Cypher literal notation, e.g. 'abc', [1, 2],
// {k: 1}. Nodes and relationships render as (#id) and [#id]. Null and
// booleans cost no allocation and other values one, unless a rendering
// outgrows a small stack buffer.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindBool:
		return strconv.FormatBool(v.bv())
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	}
	var buf [64]byte
	return string(v.Append(buf[:0]))
}

// Append appends the rendering of String to b. The query printer
// appends every literal to the buffer it prints into, with no string per
// value.
func (v Value) Append(b []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(b, "null"...)
	case KindBool:
		return strconv.AppendBool(b, v.bv())
	case KindInt:
		return strconv.AppendInt(b, v.i, 10)
	case KindFloat:
		return appendFloat(b, v.fv())
	case KindString:
		s := v.sv()
		b = append(b, '\'')
		if !strings.ContainsAny(s, `'\`) {
			b = append(b, s...)
		} else {
			for _, r := range s {
				if r == '\'' || r == '\\' {
					b = append(b, '\\')
				}
				b = utf8.AppendRune(b, r)
			}
		}
		return append(b, '\'')
	case KindList:
		b = append(b, '[')
		for i, e := range v.lv() {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = e.Append(b)
		}
		return append(b, ']')
	case KindMap:
		b = append(b, '{')
		m := v.mv()
		for i, k := range sortedKeys(m) {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = append(b, k...)
			b = append(b, ": "...)
			b = m[k].Append(b)
		}
		return append(b, '}')
	case KindNode:
		b = append(b, "(#"...)
		return append(strconv.AppendInt(b, v.i, 10), ')')
	case KindRel:
		b = append(b, "[#"...)
		return append(strconv.AppendInt(b, v.i, 10), ']')
	}
	return b
}

func appendFloat(b []byte, f float64) []byte {
	switch {
	case math.IsNaN(f):
		return append(b, "NaN"...)
	case math.IsInf(f, 1):
		return append(b, "Infinity"...)
	case math.IsInf(f, -1):
		return append(b, "-Infinity"...)
	}
	start := len(b)
	b = strconv.AppendFloat(b, f, 'g', -1, 64)
	// Keep floats visually distinct from integers.
	if !bytes.ContainsAny(b[start:], ".eE") {
		b = append(b, ".0"...)
	}
	return b
}

func sortedKeys(m map[string]Value) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
