package core

import (
	"math/rand"
)

// Step is one synthesis step: the operations assigned to it, the clause
// family it will be synthesized into, and the referenceable variables
// after the step executes (Algorithm 1's Step and Var outputs).
type Step struct {
	Ops    Ops
	Clause ClauseKind
	// VarsBefore and VarsAfter are the referenceable variables at the
	// step boundaries, in introduction order. They drive the cross-step
	// data dependencies of §3.3.
	VarsBefore []string
	VarsAfter  []string
}

// Ops is a list of operations with small helpers.
type Ops []*Operation

// Has reports whether any operation has the given kind.
func (os Ops) Has(k OpKind) bool {
	for _, o := range os {
		if o.Kind == k {
			return true
		}
	}
	return false
}

// schedScratch is Schedule's working state, kept with the plan so that
// rescheduling a rebuilt plan reuses it. Everything is indexed by
// Operation.idx. The steps' Ops and Vars slices are windows into ops and
// vars; a window is never written again once its step is complete, so
// when an append moves an arena, completed steps keep the old array.
type schedScratch struct {
	indeg    []int32
	assigned []bool
	scan     []int32
	steps    []Step
	out      []*Step
	ops      []*Operation
	vars     []string
}

// Schedule distributes the plan's operations across steps, implementing
// Algorithm 1: repeatedly scan the DAG for zero-indegree operations whose
// clause family matches the current step, assign them at random, and
// opportunistically pull in weakly-constrained successors (⪯) whose only
// remaining constraint is satisfied within the step. maxSteps bounds the
// schedule length; once close to the bound the scan stops rejecting
// eligible operations.
//
// The returned steps live in the plan's scratch space: they are valid
// until the plan is scheduled again.
func Schedule(r *rand.Rand, plan *Plan, maxSteps int) []*Step {
	if maxSteps < 2 {
		maxSteps = 2
	}
	sc := &plan.sched
	n := len(plan.Ops)
	sc.indeg = resize(sc.indeg, n)
	sc.assigned = resize(sc.assigned, n)
	for _, o := range plan.Ops {
		for _, t := range o.strong {
			sc.indeg[t.idx]++
		}
		for _, t := range o.weak {
			sc.indeg[t.idx]++
		}
	}
	remaining := n
	// The scan order is a permutation of operation indices: shuffling
	// integers is cheaper than shuffling pointers.
	sc.scan = sc.scan[:0]
	for i := range plan.Ops {
		sc.scan = append(sc.scan, int32(i))
	}
	sc.steps, sc.ops, sc.vars = sc.steps[:0], sc.ops[:0], sc.vars[:0]
	scan, indeg, assigned := sc.scan, sc.indeg, sc.assigned
	var vars []string

	for remaining > 0 {
		// The scan order within a pass is unspecified by Algorithm 1;
		// shuffling it lets any eligible operation open a step — an
		// unanchored UNWIND can precede the first MATCH (Figure 17).
		r.Shuffle(len(scan), func(i, j int) { scan[i], scan[j] = scan[j], scan[i] })
		start := len(sc.ops)
		mustPack := len(sc.steps) >= maxSteps-2
		// align reports whether o may join the step under construction.
		align := func(o *Operation) bool {
			if len(sc.ops) == start {
				return true
			}
			if sc.ops[start].Clause() != o.Clause() {
				return false
			}
			// One UNWIND clause expands exactly one list.
			return o.Clause() != ClauseUnwind
		}
		assign := func(o *Operation) {
			sc.ops = append(sc.ops, o)
			assigned[o.idx] = true
			remaining--
		}
		for _, k := range scan {
			o := plan.Ops[k]
			if assigned[k] || indeg[k] != 0 || !align(o) {
				continue
			}
			if !mustPack && r.Intn(2) == 0 {
				continue
			}
			assign(o)
			// Weakly-related successors may join the same step (lines
			// 7-11 of Algorithm 1).
			for _, o2 := range o.weak {
				if !assigned[o2.idx] && indeg[o2.idx] == 1 && align(o2) && (mustPack || r.Intn(2) == 0) {
					assign(o2)
				}
			}
		}
		if len(sc.ops) == start {
			// The random scan kept everything back; force the first
			// eligible operation so the loop terminates.
			for _, k := range scan {
				if !assigned[k] && indeg[k] == 0 {
					assign(plan.Ops[k])
					break
				}
			}
		}
		ops := Ops(sc.ops[start:len(sc.ops):len(sc.ops)])
		// Remove the step from the DAG (line 15).
		for _, o := range ops {
			for _, t := range o.strong {
				indeg[t.idx]--
			}
			for _, t := range o.weak {
				if !assigned[t.idx] {
					indeg[t.idx]--
				}
			}
		}
		before := vars
		vars = sc.refVars(before, ops)
		sc.steps = append(sc.steps, Step{Ops: ops, Clause: ops[0].Clause(), VarsBefore: before, VarsAfter: vars})
	}
	normalizeTail(sc)
	sc.out = sc.out[:0]
	for i := range sc.steps {
		sc.out = append(sc.out, &sc.steps[i])
	}
	return sc.out
}

// resize returns s with length n, zeroed, reusing its array if it can.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// refVars implements line 14 of Algorithm 1: variables introduced by the
// step become referenceable; removed ones stop being referenceable. The
// result is a window appended to the vars arena.
func (sc *schedScratch) refVars(prev []string, ops Ops) []string {
	start := len(sc.vars)
	for _, v := range prev {
		if !removes(ops, v) {
			sc.vars = append(sc.vars, v)
		}
	}
	for _, o := range ops {
		switch o.Kind {
		case OpAddElem, OpAccessProp, OpAddAlias, OpExpandList:
			if !removes(ops, o.Var) && !containsStr(sc.vars[start:], o.Var) {
				sc.vars = append(sc.vars, o.Var)
			}
		}
	}
	return sc.vars[start:len(sc.vars):len(sc.vars)]
}

// removes reports whether the step drops the variable.
func removes(ops Ops, v string) bool {
	for _, o := range ops {
		switch o.Kind {
		case OpRemoveElem, OpRemoveAlias, OpTruncList:
			if o.Var == v {
				return true
			}
		}
	}
	return false
}

// normalizeTail guarantees the schedule ends with a projection step (the
// final RETURN). The constraint structure already implies this — every
// add operation has a removal or access downstream in the projection
// family — but a defensive trailing step keeps synthesis simple if a
// future plan shape violates it.
func normalizeTail(sc *schedScratch) {
	if len(sc.steps) == 0 {
		sc.steps = append(sc.steps, Step{Clause: ClauseProjection})
		return
	}
	if last := sc.steps[len(sc.steps)-1]; last.Clause != ClauseProjection {
		sc.steps = append(sc.steps, Step{
			Clause:     ClauseProjection,
			VarsBefore: last.VarsAfter,
			VarsAfter:  last.VarsAfter,
		})
	}
}
