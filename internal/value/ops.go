package value

import (
	"fmt"
	"math"
)

// TypeError is returned when an operator is applied to operands of
// incompatible types, mirroring the runtime type errors Cypher raises.
type TypeError struct {
	Op    string
	Left  Kind
	Right Kind
}

func (e *TypeError) Error() string {
	return fmt.Sprintf("type error: cannot apply %s to %s and %s", e.Op, e.Left, e.Right)
}

func typeErr(op string, a, b Value) error {
	return &TypeError{Op: op, Left: a.kind, Right: b.kind}
}

// Add implements the Cypher + operator: numeric addition, string
// concatenation (a string operand stringifies the other operand, matching
// Neo4j), and list concatenation (a list operand absorbs the other side).
func Add(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	switch {
	case a.kind == KindList && b.kind == KindList:
		al, bl := a.lv(), b.lv()
		out := make([]Value, 0, len(al)+len(bl))
		out = append(out, al...)
		out = append(out, bl...)
		return ListOf(out), nil
	case a.kind == KindList:
		al := a.lv()
		out := make([]Value, 0, len(al)+1)
		out = append(out, al...)
		return ListOf(append(out, b)), nil
	case b.kind == KindList:
		bl := b.lv()
		out := make([]Value, 0, len(bl)+1)
		out = append(out, a)
		return ListOf(append(out, bl...)), nil
	case a.kind == KindString && b.kind == KindString:
		return Str(a.sv() + b.sv()), nil
	case a.kind == KindString && (b.IsNumber() || b.kind == KindBool):
		return Str(a.sv() + plainString(b)), nil
	case b.kind == KindString && (a.IsNumber() || a.kind == KindBool):
		return Str(plainString(a) + b.sv()), nil
	case a.kind == KindInt && b.kind == KindInt:
		return Int(a.i + b.i), nil
	case a.IsNumber() && b.IsNumber():
		return Float(a.AsFloat() + b.AsFloat()), nil
	}
	return Null, typeErr("+", a, b)
}

// plainString renders a value without string quoting, for concatenation.
func plainString(v Value) string {
	if v.kind == KindString {
		return v.sv()
	}
	return v.String()
}

// Sub implements the Cypher - operator.
func Sub(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		return Int(a.i - b.i), nil
	case a.IsNumber() && b.IsNumber():
		return Float(a.AsFloat() - b.AsFloat()), nil
	}
	return Null, typeErr("-", a, b)
}

// Mul implements the Cypher * operator.
func Mul(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		return Int(a.i * b.i), nil
	case a.IsNumber() && b.IsNumber():
		return Float(a.AsFloat() * b.AsFloat()), nil
	}
	return Null, typeErr("*", a, b)
}

// ErrDivisionByZero is returned for integer division or modulo by zero.
var ErrDivisionByZero = fmt.Errorf("division by zero")

// Div implements the Cypher / operator. Integer division truncates;
// integer division by zero is an error while float division by zero
// follows IEEE-754.
func Div(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		if b.i == 0 {
			return Null, ErrDivisionByZero
		}
		return Int(a.i / b.i), nil
	case a.IsNumber() && b.IsNumber():
		return Float(a.AsFloat() / b.AsFloat()), nil
	}
	return Null, typeErr("/", a, b)
}

// Mod implements the Cypher % operator.
func Mod(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		if b.i == 0 {
			return Null, ErrDivisionByZero
		}
		return Int(a.i % b.i), nil
	case a.IsNumber() && b.IsNumber():
		return Float(math.Mod(a.AsFloat(), b.AsFloat())), nil
	}
	return Null, typeErr("%", a, b)
}

// Pow implements the Cypher ^ operator. The result is always a float,
// matching openCypher.
func Pow(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if a.IsNumber() && b.IsNumber() {
		return Float(math.Pow(a.AsFloat(), b.AsFloat())), nil
	}
	return Null, typeErr("^", a, b)
}

// Neg implements unary minus.
func Neg(a Value) (Value, error) {
	switch a.kind {
	case KindNull:
		return Null, nil
	case KindInt:
		return Int(-a.i), nil
	case KindFloat:
		return Float(-a.fv()), nil
	}
	return Null, typeErr("-", a, a)
}

// Index implements list and map subscripting: list[int] (negative indexes
// count from the end, out-of-range yields null) and map[string].
func Index(c, idx Value) (Value, error) {
	if c.IsNull() || idx.IsNull() {
		return Null, nil
	}
	switch c.kind {
	case KindList:
		if idx.kind != KindInt {
			return Null, typeErr("[]", c, idx)
		}
		l := c.lv()
		i := idx.i
		n := int64(len(l))
		if i < 0 {
			i += n
		}
		if i < 0 || i >= n {
			return Null, nil
		}
		return l[i], nil
	case KindMap:
		if idx.kind != KindString {
			return Null, typeErr("[]", c, idx)
		}
		if v, ok := c.mv()[idx.sv()]; ok {
			return v, nil
		}
		return Null, nil
	}
	return Null, typeErr("[]", c, idx)
}

// Slice implements list slicing list[from..to]. Either bound may be null
// (Value with KindNull) meaning "open". Bounds are clamped; negative bounds
// count from the end.
func Slice(c, from, to Value) (Value, error) {
	if c.IsNull() {
		return Null, nil
	}
	if c.kind != KindList {
		return Null, typeErr("[..]", c, from)
	}
	l := c.lv()
	n := int64(len(l))
	lo, hi := int64(0), n
	if !from.IsNull() {
		if from.kind != KindInt {
			return Null, typeErr("[..]", c, from)
		}
		lo = from.i
		if lo < 0 {
			lo += n
		}
	}
	if !to.IsNull() {
		if to.kind != KindInt {
			return Null, typeErr("[..]", c, to)
		}
		hi = to.i
		if hi < 0 {
			hi += n
		}
	}
	lo = clamp(lo, 0, n)
	hi = clamp(hi, 0, n)
	if lo >= hi {
		return List(), nil
	}
	return ListOf(l[lo:hi]), nil
}

func clamp(x, lo, hi int64) int64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// StartsWith implements the STARTS WITH operator.
func StartsWith(a, b Value) Tri { return stringPredicate(a, b, hasPrefix) }

// EndsWith implements the ENDS WITH operator.
func EndsWith(a, b Value) Tri { return stringPredicate(a, b, hasSuffix) }

// Contains implements the CONTAINS operator.
func Contains(a, b Value) Tri { return stringPredicate(a, b, containsSub) }

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }
func hasSuffix(s, p string) bool { return len(s) >= len(p) && s[len(s)-len(p):] == p }
func containsSub(s, p string) bool {
	for i := 0; i+len(p) <= len(s); i++ {
		if s[i:i+len(p)] == p {
			return true
		}
	}
	return false
}

// stringPredicate applies a string predicate with Cypher null semantics:
// null operands yield unknown, non-string operands yield unknown (Neo4j
// returns null when an operand of STARTS WITH is not a string).
func stringPredicate(a, b Value, f func(s, sub string) bool) Tri {
	if a.IsNull() || b.IsNull() || a.kind != KindString || b.kind != KindString {
		return TriUnknown
	}
	return TriOf(f(a.sv(), b.sv()))
}

// In implements the IN operator with its subtle null semantics: if any
// element compares unknown and no element compares true, the result is
// unknown; a null needle against a non-empty list is unknown, against an
// empty list is false.
func In(needle, haystack Value) Tri {
	if haystack.IsNull() {
		return TriUnknown
	}
	if haystack.kind != KindList {
		return TriUnknown
	}
	sawUnknown := false
	for _, e := range haystack.lv() {
		switch Equal(needle, e) {
		case TriTrue:
			return TriTrue
		case TriUnknown:
			sawUnknown = true
		}
	}
	if sawUnknown {
		return TriUnknown
	}
	return TriFalse
}
