package engine

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"gqs/internal/value"
)

// Result is the output of a query: named columns and rows of values.
// Row order is whatever the engine produced; Cypher guarantees order only
// under ORDER BY, so result comparison should normally be order-insensitive
// (see Equal and Canonical).
type Result struct {
	Columns []string
	Rows    [][]value.Value
}

// Len returns the number of rows.
func (r *Result) Len() int { return len(r.Rows) }

// RowMap returns row i as a column-name-to-value map.
func (r *Result) RowMap(i int) map[string]value.Value {
	m := make(map[string]value.Value, len(r.Columns))
	for j, c := range r.Columns {
		m[c] = r.Rows[i][j]
	}
	return m
}

// Canonical returns the multiset of row keys, sorted: each row's
// columns' Key encodings, each followed by '|'. Two results with the
// same columns are semantically equal iff their canonical forms are
// equal. The keys are slices of one string, sized by KeyLen before any
// is written.
func (r *Result) Canonical() []string {
	keys := make([]string, r.Len())
	n := 0
	for _, row := range r.Rows {
		for _, v := range row {
			n += v.KeyLen() + 1
		}
	}
	var sb strings.Builder
	sb.Grow(n)
	for i, row := range r.Rows {
		start := sb.Len()
		for _, v := range row {
			v.AppendKey(&sb)
			sb.WriteByte('|')
		}
		keys[i] = sb.String()[start:]
	}
	sort.Strings(keys)
	return keys
}

// Equal reports whether two results have the same columns and the same
// multiset of rows (order-insensitive, using Cypher equivalence): the
// answer comparing Canonical forms gives. Each side's row hashes are
// sorted, and the rows of each run of equal hashes are matched by
// EquivalentRows. Up to equalStackRows rows a side it allocates nothing.
func (r *Result) Equal(o *Result) bool {
	if r.Len() != o.Len() || len(r.Columns) != len(o.Columns) {
		return false
	}
	for i, c := range r.Columns {
		if o.Columns[i] != c {
			return false
		}
	}
	n := r.Len()
	var buf [2 * equalStackRows]rowHash
	var hs []rowHash
	if n <= equalStackRows {
		hs = buf[:2*n]
	} else {
		hs = make([]rowHash, 2*n)
	}
	a, b := hashRows(hs[:n], r.Rows), hashRows(hs[n:], o.Rows)
	for i := range a {
		if a[i].h != b[i].h {
			return false
		}
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && a[j].h == a[i].h {
			j++
		}
		if !matchRun(r.Rows, o.Rows, a[i:j], b[i:j]) {
			return false
		}
		i = j
	}
	return true
}

// equalStackRows is the most rows a side Equal compares without
// allocating.
const equalStackRows = 16

// rowHash is a row's hash and its index in its result.
type rowHash struct {
	h uint64
	i int
}

// hashRows fills hs with the rows' hashes, sorted.
func hashRows(hs []rowHash, rows [][]value.Value) []rowHash {
	for i, row := range rows {
		hs[i] = rowHash{value.HashRow(row), i}
	}
	slices.SortFunc(hs, func(x, y rowHash) int { return cmp.Compare(x.h, y.h) })
	return hs
}

// matchRun reports whether two runs of rows with one hash hold the same
// multiset under equivalence. It takes the first row of a's run, moves
// the rows equivalent to it to the front of both runs, compares the
// counts and goes on with the rest, so a run of duplicates costs one
// pass.
func matchRun(ra, rb [][]value.Value, a, b []rowHash) bool {
	for len(a) > 0 {
		p := ra[a[0].i]
		na, nb := partitionEquivalent(ra, a, p), partitionEquivalent(rb, b, p)
		if na != nb {
			return false
		}
		a, b = a[na:], b[nb:]
	}
	return true
}

// partitionEquivalent moves the entries of run whose rows are
// equivalent to p to its front and returns how many there are.
func partitionEquivalent(rows [][]value.Value, run []rowHash, p []value.Value) int {
	k := 0
	for j := range run {
		if value.EquivalentRows(rows[run[j].i], p) {
			run[k], run[j] = run[j], run[k]
			k++
		}
	}
	return k
}

// String renders the result as a compact table for debugging.
func (r *Result) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(r.Columns, " | "))
	for _, row := range r.Rows {
		sb.WriteByte('\n')
		for j, v := range row {
			if j > 0 {
				sb.WriteString(" | ")
			}
			sb.WriteString(v.String())
		}
	}
	return sb.String()
}

// row is the internal intermediate-status row: variable bindings.
type row = map[string]value.Value

func cloneRow(r row) row {
	return cloneRowCap(r, 2)
}

// cloneRowCap clones r into a map pre-sized for extra additional
// bindings, so callers that know how many variables they are about to
// bind (pattern matching does) avoid rehashing the env as it grows.
func cloneRowCap(r row, extra int) row {
	out := make(row, len(r)+extra)
	for k, v := range r {
		out[k] = v
	}
	return out
}
