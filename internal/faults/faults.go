// Package faults implements the injected-fault framework standing in for
// the 36 real bugs the GQS paper found (Table 3). Each fault models one
// of the bug classes the paper describes — wrong projected values
// (Figures 1 and 7), row loss from optimization combinations (Figure 8),
// UNWIND truncation (Figure 17), the replace(”, …) hang (Figure 9),
// unsafe binary-operator helpers, crashes, and exceptions — and carries:
//
//   - a trigger predicate over query features (clauses, patterns, nesting
//     depth, cross-clause references), so that the feature distributions
//     of bug-triggering queries (Figures 10–15) and the blind spots of
//     baseline oracles (§5.4.3) emerge from actually running each tester;
//   - a deterministic manifestation keyed on the query hash, so the same
//     query always fails the same way (required for differential and
//     metamorphic replay); and
//   - metadata (introduction date, confirmed/fixed status) reproducing
//     Tables 3 and 4.
package faults

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"gqs/internal/engine"
	"gqs/internal/metrics"
	"gqs/internal/value"
)

// Kind classifies a bug as the paper does: logic bugs silently corrupt
// results; the rest ("other bugs") crash, hang, or raise exceptions.
type Kind int

// Bug kinds.
const (
	Logic Kind = iota
	Crash
	Hang
	Exception
)

// IsLogic reports whether the kind is a logic bug.
func (k Kind) IsLogic() bool { return k == Logic }

func (k Kind) String() string {
	switch k {
	case Logic:
		return "logic"
	case Crash:
		return "crash"
	case Hang:
		return "hang"
	default:
		return "exception"
	}
}

// Manifestation is how a triggered logic bug corrupts the result.
type Manifestation int

// Logic-bug manifestations.
const (
	WrongValue   Manifestation = iota // one projected value replaced (Figures 1, 7)
	EmptyResult                       // all rows dropped (Figure 8)
	DropRows                          // only the first row survives (Figure 17)
	DuplicateRow                      // one row duplicated
	NullValue                         // one projected value nulled
)

// Trigger is a predicate over query features. All non-zero fields must
// hold; HashMod/HashEq adds deterministic pseudo-random rarity.
type Trigger struct {
	MinClauses  int
	MinPatterns int
	MinDepth    int
	MinRefs     int
	Clause      string // a clause name that must appear (e.g. "UNWIND")
	Func        string // a function that must appear
	// Special shapes.
	ReplaceEmpty      bool
	UnwindBeforeMatch bool
	OrderBy           bool
	Distinct          bool
	Union             bool
	// Rarity gate: CoarseSeed % HashMod == HashEq (ignored when HashMod
	// is 0). The gate is keyed on the coarse feature vector rather than
	// the query text, so equivalent rewrites of a triggering query still
	// trigger — the root-cause model behind the §5.4.3 blind spots —
	// while different fuzzing queries mostly do not.
	HashMod uint64
	HashEq  uint64
}

// Matches evaluates the trigger on a feature vector.
func (t Trigger) Matches(f *metrics.Features) bool {
	if f == nil {
		return false
	}
	switch {
	case f.Clauses < t.MinClauses,
		f.Patterns < t.MinPatterns,
		f.MaxExprDepth < t.MinDepth,
		f.CrossRefs < t.MinRefs:
		return false
	}
	if t.Clause != "" && f.ClauseCounts[t.Clause] == 0 {
		return false
	}
	// Function names are recorded lowercased by the metrics package.
	if t.Func != "" && f.Functions[strings.ToLower(t.Func)] == 0 {
		return false
	}
	if t.ReplaceEmpty && !f.HasReplaceEmptyString {
		return false
	}
	if t.UnwindBeforeMatch && !f.UnwindBeforeMatch {
		return false
	}
	if t.OrderBy && !f.HasOrderBy {
		return false
	}
	if t.Distinct && !f.HasDistinct {
		return false
	}
	if t.Union && !f.HasUnion {
		return false
	}
	if t.HashMod != 0 && f.CoarseSeed()%t.HashMod != t.HashEq {
		return false
	}
	return true
}

// Bug is one injected fault.
type Bug struct {
	ID          string
	GDB         string // neo4j, memgraph, kuzu, falkordb
	Kind        Kind
	Manifest    Manifestation
	Description string
	Trigger     Trigger

	// Latency is extra processing time a triggered execution spends
	// before the bug manifests. It is honoured only in live mode, where
	// the harness's timeout/watchdog path is exercised for real.
	Latency time.Duration

	// Metadata for Tables 3 and 4.
	IntroducedYearsAgo float64
	Confirmed          bool
	Fixed              bool
}

// BugError is the error a non-logic fault raises; it satisfies the
// interface{ BugID() string } contract the test runners use to attribute
// failures.
type BugError struct {
	ID   string
	Kind Kind
	Msg  string
}

func (e *BugError) Error() string { return fmt.Sprintf("[%s/%s] %s", e.ID, e.Kind, e.Msg) }

// BugID returns the fault identifier.
func (e *BugError) BugID() string { return e.ID }

// FaultKind names the bug class ("crash", "hang", "exception", "logic")
// so harness layers can pick a recovery strategy without importing the
// Kind type.
func (e *BugError) FaultKind() string { return e.Kind.String() }

// sleepCtx blocks for d or until the context is canceled, reporting
// whether it slept the full duration.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// ManifestCtx manifests the bug on a query result, deterministically in
// the query hash. In simulated mode (live == false) non-logic bugs return
// instantly with the corresponding error — cheap, for high-volume
// experiment campaigns. In live mode the bug behaves the way the real
// bug class does, so the harness's watchdog/recovery paths are exercised
// for real rather than pretended:
//
//   - Hang blocks until ctx is canceled (the Figure 9 non-termination),
//     then reports the hang error to the unwinding execution path;
//   - Crash panics with the *BugError, as a connector whose server
//     process died mid-call would;
//   - Exception and logic bugs manifest as usual, after the bug's
//     injected Latency (canceled early if ctx expires first).
func (b *Bug) ManifestCtx(ctx context.Context, live bool, res *engine.Result, f *metrics.Features) (*engine.Result, error) {
	if live {
		switch b.Kind {
		case Hang:
			<-ctx.Done()
			return nil, &BugError{ID: b.ID, Kind: Hang, Msg: "query did not terminate; canceled by watchdog"}
		case Crash:
			if !sleepCtx(ctx, b.Latency) {
				return nil, &BugError{ID: b.ID, Kind: Crash, Msg: "server process terminated unexpectedly"}
			}
			panic(&BugError{ID: b.ID, Kind: Crash, Msg: "server process terminated unexpectedly"})
		default:
			if !sleepCtx(ctx, b.Latency) {
				return nil, engine.ErrCanceled
			}
		}
	}
	switch b.Kind {
	case Crash:
		return nil, &BugError{ID: b.ID, Kind: Crash, Msg: "server process terminated unexpectedly (simulated)"}
	case Hang:
		return nil, &BugError{ID: b.ID, Kind: Hang, Msg: "query did not terminate within the timeout (simulated)"}
	case Exception:
		return nil, &BugError{ID: b.ID, Kind: Exception, Msg: "unexpected internal exception (simulated)"}
	}
	if res == nil {
		return nil, nil
	}
	out := &engine.Result{Columns: res.Columns}
	for _, row := range res.Rows {
		out.Rows = append(out.Rows, append([]value.Value(nil), row...))
	}
	rng := rand.New(rand.NewSource(b.seed(f)))
	switch b.Manifest {
	case EmptyResult:
		out.Rows = nil
	case DropRows:
		if len(out.Rows) > 1 {
			out.Rows = out.Rows[:1]
		}
	case DuplicateRow:
		if len(out.Rows) > 0 {
			i := rng.Intn(len(out.Rows))
			out.Rows = append(out.Rows, out.Rows[i])
		}
	case NullValue:
		perturbCell(out, rng, func(value.Value) value.Value { return value.Null })
	case WrongValue:
		perturbCell(out, rng, func(v value.Value) value.Value { return corrupt(rng, v) })
	}
	return out, nil
}

// seed derives the manifestation's random seed from the bug identity and
// the query's coarse feature vector — NOT from the query text. A faithful
// model of a real root cause: semantically equivalent rewrites of the
// query exercise the same broken code path and corrupt the result the
// same way, which is exactly why metamorphic oracles miss such bugs
// (§5.4.3, Figure 16).
func (b *Bug) seed(f *metrics.Features) int64 {
	var h uint64 = 1469598103934665603
	for _, c := range []byte(b.ID) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	h = h*31 + uint64(f.Patterns)
	h = h*31 + uint64(f.MaxExprDepth)
	h = h*31 + uint64(f.Clauses)
	h = h*31 + uint64(f.CrossRefs)
	return int64(h)
}

// perturbCell corrupts one cell; an empty result gains a spurious row, so
// the manifestation is never a silent no-op.
func perturbCell(r *engine.Result, rng *rand.Rand, f func(value.Value) value.Value) {
	if len(r.Rows) == 0 {
		row := make([]value.Value, len(r.Columns))
		for i := range row {
			row[i] = value.Int(int64(rng.Intn(100)))
		}
		r.Rows = append(r.Rows, row)
		return
	}
	if len(r.Columns) == 0 {
		return
	}
	i := rng.Intn(len(r.Rows))
	j := rng.Intn(len(r.Columns))
	r.Rows[i][j] = f(r.Rows[i][j])
}

// corrupt returns a same-typed but different value, like returning a
// different element's property (Figure 7).
func corrupt(rng *rand.Rand, v value.Value) value.Value {
	switch v.Kind() {
	case value.KindInt:
		return value.Int(v.AsInt() + 1 + int64(rng.Intn(7)))
	case value.KindFloat:
		return value.Float(v.AsFloat() + 1.5)
	case value.KindString:
		return value.Str(v.AsString() + "X")
	case value.KindBool:
		return value.Bool(!v.AsBool())
	case value.KindList:
		return value.List(append(v.AsList(), value.Int(0))...) // extra element
	case value.KindNull:
		return value.Int(int64(rng.Intn(1000)))
	default:
		return value.Int(int64(rng.Intn(1000)))
	}
}

// Set is the fault catalog of one simulated GDB.
type Set struct {
	GDB  string
	Bugs []*Bug
}

// Select returns the first catalog fault the query triggers (one root
// cause per execution, as real engines fail on the first broken code
// path), or nil. Logic bugs do not trigger on queries that already
// failed outright — there is no result to corrupt. A connector records
// the selected bug for attribution before it calls ManifestCtx, because
// a live crash panics out of that call (see gdb.Sim.ExecutePrepared).
func (s *Set) Select(f *metrics.Features, execErr error) *Bug {
	if s == nil || f == nil {
		return nil
	}
	for _, b := range s.Bugs {
		if !b.Trigger.Matches(f) {
			continue
		}
		if b.Kind == Logic && execErr != nil {
			continue
		}
		return b
	}
	return nil
}

// ByID finds a bug in the set.
func (s *Set) ByID(id string) *Bug {
	for _, b := range s.Bugs {
		if b.ID == id {
			return b
		}
	}
	return nil
}
