// Package core implements GQS (Graph Query Synthesis), the paper's
// primary contribution: ground-truth-based synthesis of complex Cypher
// queries for logic-bug testing of graph databases.
//
// The package follows the paper's structure:
//
//   - ground truth selection (§3.1 step ②) — truth.go
//   - paired add/remove operation planning (§3.2, Table 1) — ops.go
//   - DAG-based stepwise scheduling (§3.3, Algorithm 1) — schedule.go
//   - pattern mutation and predicate construction (§3.4) — pattern.go,
//     predicate.go
//   - branching/nested expression generation (§3.5, Algorithm 2) — expr.go
//   - clause synthesis and query assembly — synth.go
//   - the expected-result tracker and test oracle (§3.1 step ④) —
//     state.go, oracle.go
//   - the testing loop (§3.1) — runner.go
package core

import (
	"fmt"
	"strconv"

	"gqs/internal/graph"
)

// OpKind identifies one of the paired operations of Table 1.
type OpKind int

// The operation kinds. Essential operations (§3.2 category i) introduce
// or access the ground-truth properties; supplementary operations
// (category ii) add unrelated elements, aliases, and lists, each paired
// with a removal.
const (
	OpAddElem     OpKind = iota // E+: introduce a node or relationship ((OPTIONAL) MATCH)
	OpRemoveElem                // E-: drop the element from the projection (WITH/RETURN)
	OpAccessProp                // (E,p)+: bind element.property to an alias (WITH/RETURN)
	OpAddAlias                  // A+: bind an expression to an alias (WITH/RETURN)
	OpRemoveAlias               // A-: drop the alias (WITH/RETURN)
	OpExpandList                // L+: UNWIND a list into rows
	OpTruncList                 // L-: truncate the expansion (WITH/RETURN + DISTINCT/WHERE/LIMIT)
)

// ClauseKind is the clause family an operation must be scheduled into,
// per the Table 1 mapping.
type ClauseKind int

// Clause families.
const (
	ClauseMatch      ClauseKind = iota // MATCH / OPTIONAL MATCH
	ClauseUnwind                       // UNWIND
	ClauseProjection                   // WITH / RETURN
)

func (k ClauseKind) String() string {
	switch k {
	case ClauseMatch:
		return "MATCH"
	case ClauseUnwind:
		return "UNWIND"
	case ClauseProjection:
		return "WITH"
	default:
		return "?"
	}
}

// ClauseOf returns the clause family that can host an operation kind
// (Table 1).
func ClauseOf(k OpKind) ClauseKind {
	switch k {
	case OpAddElem:
		return ClauseMatch
	case OpExpandList:
		return ClauseUnwind
	default:
		return ClauseProjection
	}
}

// seqName renders the sequential nN/rN/aN variable names of plan and
// synthesis. Every query draws from the same first few dozen indices, so
// those come from a precomputed table instead of fmt.
const seqNameCached = 48

var seqNameTab = func() (t struct{ n, r, a [seqNameCached]string }) {
	for i := 0; i < seqNameCached; i++ {
		d := strconv.Itoa(i)
		t.n[i], t.r[i], t.a[i] = "n"+d, "r"+d, "a"+d
	}
	return
}()

func seqName(prefix byte, i int) string {
	if i >= 0 && i < seqNameCached {
		switch prefix {
		case 'n':
			return seqNameTab.n[i]
		case 'r':
			return seqNameTab.r[i]
		case 'a':
			return seqNameTab.a[i]
		}
	}
	return string(prefix) + strconv.Itoa(i)
}

// Operation is one node of the scheduling DAG.
type Operation struct {
	Kind OpKind
	// Var is the query variable the operation concerns: the pattern
	// variable for E+/E-, the alias for A+/A-/(E,p)+, and the UNWIND
	// alias for L+/L-.
	Var string
	// Element identifies the graph element for E+/E-/(E,p)+.
	Element graph.ID
	IsRel   bool
	// Prop is the property name for (E,p)+.
	Prop string
	// Essential marks category (i) operations: those materializing the
	// expected result set.
	Essential bool

	// idx is the operation's position in Plan.Ops, which indexes the
	// scheduler's per-operation state.
	idx int
	// listSize is the number of items an L+ operation's UNWIND list
	// gets (the expressions themselves are built at synthesis time from
	// in-scope variables).
	listSize int

	// strong and weak outgoing constraint edges (this ≺ other, this ⪯ other).
	// Most operations carry only one or two edges, so the slices start
	// out backed by the inline buffers below and only touch the heap
	// when an operation accumulates more constraints than that.
	strong []*Operation
	weak   []*Operation

	strongBuf [2]*Operation
	weakBuf   [2]*Operation
}

func (o *Operation) String() string {
	switch o.Kind {
	case OpAddElem:
		return o.Var + "+"
	case OpRemoveElem:
		return o.Var + "-"
	case OpAccessProp:
		return fmt.Sprintf("(%s.%s)+", elemVarLabel(o), o.Prop)
	case OpAddAlias:
		return o.Var + "+"
	case OpRemoveAlias:
		return o.Var + "-"
	case OpExpandList:
		return o.Var + "+"
	case OpTruncList:
		return o.Var + "-"
	default:
		return "?"
	}
}

func elemVarLabel(o *Operation) string {
	if o.IsRel {
		return fmt.Sprintf("r#%d", o.Element)
	}
	return fmt.Sprintf("n#%d", o.Element)
}

// Clause returns the clause family hosting this operation.
func (o *Operation) Clause() ClauseKind { return ClauseOf(o.Kind) }

// Before records a strong constraint o ≺ other.
func (o *Operation) Before(other *Operation) {
	if o.strong == nil {
		o.strong = o.strongBuf[:0]
	}
	o.strong = append(o.strong, other)
}

// WeakBefore records a weak constraint o ⪯ other: other may be scheduled
// in the same step or later (§3.3).
func (o *Operation) WeakBefore(other *Operation) {
	if o.weak == nil {
		o.weak = o.weakBuf[:0]
	}
	o.weak = append(o.weak, other)
}
