package value

import "math"

// Hash returns a hash of the value that agrees with Equivalent: two
// equivalent values hash alike. Integers and integral floats hash as the
// same number (as Key encodes them), every NaN hashes alike, −0.0 hashes
// as 0, and a map's hash does not depend on the order of its entries.
// The hash is a fixed function of the value, the same in every process.
func Hash(v Value) uint64 { return v.hash(hashSeed) }

// HashRow returns the hash of a tuple of values, combining each column's
// Hash in order: rows whose columns are pairwise Equivalent hash alike.
func HashRow(row []Value) uint64 {
	h := uint64(hashSeed)
	for _, v := range row {
		h = v.hash(h)
	}
	return fmix(h)
}

// EquivalentRows reports whether two rows have the same width and are
// Equivalent column by column.
func EquivalentRows(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Equivalent(a[i], b[i]) {
			return false
		}
	}
	return true
}

const (
	hashSeed = 0x9e3779b97f4a7c15
	hashMul  = 0xbf58476d1ce4e5b9
)

// Per-kind tags keep values of different families apart. Ints and the
// floats Key encodes as integers share tagNum, since an int and an
// integral float are equivalent; any other float is tagFloat.
const (
	tagNull uint64 = iota + 1
	tagBool
	tagNum
	tagFloat
	tagNaN
	tagString
	tagList
	tagMap
	tagNode
	tagRel
)

// combine folds x into the running hash h; it is not commutative, so a
// list's hash depends on its order.
func combine(h, x uint64) uint64 {
	h ^= x + hashSeed + h<<6 + h>>2
	return h * hashMul
}

// fmix is the 64-bit finalizer of MurmurHash3: it spreads every input bit
// over the whole word, so open addressing can take the low bits.
func fmix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// hash folds the value into h.
func (v Value) hash(h uint64) uint64 {
	switch v.kind {
	case KindNull:
		return combine(h, tagNull)
	case KindBool:
		return combine(combine(h, tagBool), uint64(v.i))
	case KindInt:
		return combine(combine(h, tagNum), uint64(v.i))
	case KindFloat:
		f := v.fv()
		if math.IsNaN(f) {
			return combine(h, tagNaN)
		}
		if i, ok := exactInt(f); ok {
			return combine(combine(h, tagNum), uint64(i))
		}
		return combine(combine(h, tagFloat), math.Float64bits(f))
	case KindString:
		return hashString(combine(h, tagString), v.sv())
	case KindNode:
		return combine(combine(h, tagNode), uint64(v.i))
	case KindRel:
		return combine(combine(h, tagRel), uint64(v.i))
	case KindList:
		l := v.lv()
		h = combine(combine(h, tagList), uint64(len(l)))
		for _, e := range l {
			h = e.hash(h)
		}
		return h
	case KindMap:
		// Entries hash independently and add up, so iteration order does
		// not matter.
		m := v.mv()
		var sum uint64
		for k, e := range m {
			sum += fmix(e.hash(hashString(hashSeed, k)))
		}
		return combine(combine(combine(h, tagMap), uint64(len(m))), sum)
	}
	return h
}

// hashString folds the bytes of s into h, eight at a time.
func hashString(h uint64, s string) uint64 {
	h = combine(h, uint64(len(s)))
	for len(s) >= 8 {
		w := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		h = combine(h, w)
		s = s[8:]
	}
	var w uint64
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << (8 * i)
	}
	return combine(h, w)
}

// RowSet is a set of rows of one width under Cypher equivalence, for
// DISTINCT, grouping and multiset comparison without building a string
// key per row. Add keeps the first occurrence of each equivalence class
// and numbers the classes in the order they first occur. The set copies
// the rows it keeps into one flat buffer; Reset empties it and keeps its
// storage for the next use, up to rowSetMaxRetain values.
//
// The table is open addressing with linear probing over row indices:
// a slot holds a row's index plus one, or zero when empty. A probe
// compares the stored hash first and the columns (EquivalentRows) only
// on a hash match.
type RowSet struct {
	width  int
	vals   []Value  // row i is vals[i*width : (i+1)*width]
	hashes []uint64 // hashes[i] is HashRow of row i
	table  []int32
}

// rowSetMaxRetain bounds the values a reset RowSet keeps, so one large
// DISTINCT does not pin its footprint for the life of its owner.
const rowSetMaxRetain = 4096

// Reset empties the set for rows of the given width.
func (s *RowSet) Reset(width int) {
	if cap(s.vals) > rowSetMaxRetain {
		s.vals, s.hashes, s.table = nil, nil, nil
	}
	clear(s.vals) // drop the last use's references
	s.width = width
	s.vals, s.hashes, s.table = s.vals[:0], s.hashes[:0], s.table[:0]
}

// Row returns the i-th distinct row, as first added. The slice is the
// set's own copy, valid until the next Reset.
func (s *RowSet) Row(i int) []Value { return s.vals[i*s.width : (i+1)*s.width] }

// Add returns the index of the row of the set equivalent to row and
// false, or, when there is none, adds a copy of row and returns its new
// index and true. row must have the set's width.
func (s *RowSet) Add(row []Value) (int, bool) {
	h := HashRow(row)
	if 2*(len(s.hashes)+1) > len(s.table) {
		s.grow()
	}
	mask := uint64(len(s.table) - 1)
	for p := h & mask; ; p = (p + 1) & mask {
		j := s.table[p]
		if j == 0 {
			s.table[p] = int32(len(s.hashes) + 1)
			s.hashes = append(s.hashes, h)
			s.vals = append(s.vals, row...)
			return len(s.hashes) - 1, true
		}
		if i := int(j - 1); s.hashes[i] == h && EquivalentRows(s.Row(i), row) {
			return i, false
		}
	}
}

// grow doubles the table, or starts it at 16 slots, reusing the
// table's storage when it has the room, and reinserts every row by its
// stored hash.
func (s *RowSet) grow() {
	n := max(2*len(s.table), 16)
	if cap(s.table) >= n {
		s.table = s.table[:n]
		clear(s.table)
	} else {
		s.table = make([]int32, n)
	}
	mask := uint64(n - 1)
	for i, h := range s.hashes {
		p := h & mask
		for s.table[p] != 0 {
			p = (p + 1) & mask
		}
		s.table[p] = int32(i + 1)
	}
}
