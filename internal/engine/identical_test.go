package engine

import (
	"math"

	"gqs/internal/value"
)

// IdenticalRows is the strict row comparator of the differential tests:
// the same number of rows and columns, and every pair of values
// Identical. It is exported (for tests only) so the external plandiff
// test can share it.
func IdenticalRows(a, b [][]value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !Identical(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

// Identical reports whether two values have the same kind and the same
// payload, recursively: floats compare by bits (so NaN matches NaN and
// -0.0 does not match 0.0), Int(1) never matches Float(1.0), and a nil
// list or map does not match an empty one. It is stricter than
// value.Equivalent and does not depend on the Value representation, as
// reflect.DeepEqual does.
func Identical(a, b value.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case value.KindNull:
		return true
	case value.KindBool:
		return a.AsBool() == b.AsBool()
	case value.KindInt:
		return a.AsInt() == b.AsInt()
	case value.KindFloat:
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	case value.KindString:
		return a.AsString() == b.AsString()
	case value.KindNode, value.KindRel:
		return a.EntityID() == b.EntityID()
	case value.KindList:
		al, bl := a.AsList(), b.AsList()
		if len(al) != len(bl) || (al == nil) != (bl == nil) {
			return false
		}
		for i := range al {
			if !Identical(al[i], bl[i]) {
				return false
			}
		}
		return true
	case value.KindMap:
		am, bm := a.AsMap(), b.AsMap()
		if len(am) != len(bm) || (am == nil) != (bm == nil) {
			return false
		}
		for k, av := range am {
			bv, ok := bm[k]
			if !ok || !Identical(av, bv) {
				return false
			}
		}
		return true
	}
	return false
}
