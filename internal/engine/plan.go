package engine

import (
	"fmt"
	"slices"
	"sync"

	"gqs/internal/cypher/ast"
	"gqs/internal/eval"
	"gqs/internal/functions"
	"gqs/internal/graph"
	"gqs/internal/value"
)

// This file is the physical-plan IR and its executor. A plan is compiled
// once at Prepare time (compile.go) and then executed any number of
// times, by any number of engines concurrently: everything
// dialect-dependent (relationship uniqueness, db.* availability, scan
// direction) and everything store-dependent (index existence, label
// cardinalities, traversal orientation) is read from the EXECUTING engine
// at run time, never baked into the plan. That is what lets the five
// oracle targets share one immutable plan exactly as they share one AST.
//
// The executor mirrors the tree-walking interpreter operation for
// operation — same enumeration order, same step accounting, same error
// identity and timing, same rand()/timestamp() draw schedule — so that
// plan execution is byte-for-byte behaviour-preserving (DESIGN.md §12).
// What it removes is per-row overhead: rows are slot-addressed frames
// ([]value.Value) allocated from a bump arena instead of maps, and every
// expression is a compiled operand (eval.Operand: a constant, a slot, a
// property, or a record evaluated by a switch) instead of an AST walk.

// frame is a slot-addressed row. Slot assignment is per query part; the
// zero Value is null, and a slot is only ever read after the compile-time
// schedule has written it, so frames need no zeroing.
type frame = []value.Value

// queryPlan is the compiled form of one query: one partPlan per UNION
// arm, plus the ALL flags between them.
type queryPlan struct {
	parts []partPlan
	all   []bool
	part1 [1]partPlan // parts of a query without UNION
}

// partPlan is one single-query pipeline: a stage per clause, and the
// frame width covering every slot any stage of the part uses.
type partPlan struct {
	stages []planStage
	width  int
}

// planStage is one compiled clause. run transforms the incoming frames,
// returning the outgoing frames and, for RETURN / final CALL, the result.
type planStage interface {
	run(e *Engine, in []frame) ([]frame, *Result, error)
}

// --- frame arena ---------------------------------------------------

// arenaChunkSlots is the bump-allocation granularity of the frame arena.
const arenaChunkSlots = 4096

// arenaMaxRetain bounds how many chunks reset keeps, so one huge query
// does not pin its peak footprint for the life of the engine.
const arenaMaxRetain = 16

// frameArena bump-allocates frames for one execution. Chunks are reused
// across executions without zeroing: stale slots are unreachable because
// every read is scheduled after a write at compile time (see frame).
type frameArena struct {
	chunks [][]value.Value
	ci     int // index of the chunk being filled
	off    int // fill offset within it
}

func (a *frameArena) alloc(w int) frame {
	if w == 0 {
		return nil
	}
	for {
		if a.ci == len(a.chunks) {
			size := arenaChunkSlots
			if w > size {
				size = w
			}
			a.chunks = append(a.chunks, make([]value.Value, size))
		}
		ch := a.chunks[a.ci]
		if a.off+w <= len(ch) {
			f := ch[a.off : a.off+w : a.off+w]
			a.off += w
			return f
		}
		a.ci++
		a.off = 0
	}
}

func (a *frameArena) reset() {
	a.ci, a.off = 0, 0
	if len(a.chunks) > arenaMaxRetain {
		a.chunks = a.chunks[:arenaMaxRetain:arenaMaxRetain]
	}
}

// planState is the per-engine scratch the plan executor reuses across
// executions: the frame arena, the in-flight match frame, the
// relationship-uniqueness stack, the per-part orientation flags, the
// matcher itself, and the per-stage output row buffers.
type planState struct {
	arena   frameArena
	scratch frame
	used    []graph.ID
	rev     []bool
	pm      planMatcher
	// rows0 backs the one-frame input row runPlanPart seeds each part's
	// pipeline with.
	rows0 [1]frame
	// rowBufs pools the []frame output slices of the row-producing
	// stages (MATCH, UNWIND, CALL). The k-th producing stage of an
	// execution always takes buffer k, so buffers are disjoint within
	// an execution; across executions reuse is safe because results
	// copy values out of frames (buildResult) and nothing else retains
	// them past the execution.
	rowBufs [][]frame
	rowSeq  int
	// key is the grouping key of the row being aggregated; firsts and
	// accs are each group's first row and accumulators (st.calls' many
	// per group), by group number.
	key    []value.Value
	firsts []frame
	accs   []functions.Aggregator
	// sortKeys, perm and reorder are ORDER BY's keys (one row of sort
	// keys per input row), its permutation and its reordering buffer.
	sortKeys []value.Value
	perm     []int32
	reorder  []frame
}

func (ps *planState) ensure(w int) frame {
	if cap(ps.scratch) < w {
		ps.scratch = make([]value.Value, w)
	}
	return ps.scratch[:w]
}

// nextRowBuf hands out the next pooled output buffer, empty. The caller
// returns the grown slice through keepRowBuf under the same ticket.
func (ps *planState) nextRowBuf() (int, []frame) {
	if ps.rowSeq == len(ps.rowBufs) {
		ps.rowBufs = append(ps.rowBufs, nil)
	}
	k := ps.rowSeq
	ps.rowSeq++
	return k, ps.rowBufs[k][:0]
}

// keepRowBuf stores a stage's final output slice for reuse by the next
// execution. Oversized buffers are dropped, bounding retained memory
// the same way arenaMaxRetain bounds the arena.
func (ps *planState) keepRowBuf(k int, b []frame) {
	if cap(b) > arenaChunkSlots {
		b = nil
	}
	ps.rowBufs[k] = b
}

// keep returns a per-execution scratch slice emptied for the next
// execution, or nil when it grew past arenaChunkSlots, as keepRowBuf
// bounds the row buffers; it drops the references s holds either way.
func keep[T any](s []T) []T {
	if cap(s) > arenaChunkSlots {
		return nil
	}
	clear(s)
	return s[:0]
}

// planCtx refreshes the engine's scratch eval context for compiled
// evaluation: Env is unused on this path (compiled operands read
// Frame[slot]), and stages rebind Frame per row.
func (e *Engine) planCtx(f frame) *eval.Ctx {
	e.ectx.Graph = e.store.Graph()
	e.ectx.Env = nil
	e.ectx.Params = e.params
	e.ectx.Exec = e.exec
	e.ectx.Frame = f
	return &e.ectx
}

// --- top-level execution -------------------------------------------

// runPlan executes a compiled plan, mirroring ExecuteAST's UNION
// handling.
func (e *Engine) runPlan(p *queryPlan) (*Result, error) {
	e.planTrace = e.planTrace[:0]
	e.pstate.arena.reset()
	e.pstate.rowSeq = 0
	if len(e.pstate.rowBufs) > arenaMaxRetain {
		e.pstate.rowBufs = e.pstate.rowBufs[:arenaMaxRetain:arenaMaxRetain]
	}
	var out *Result
	for i := range p.parts {
		r, err := e.runPlanPart(&p.parts[i])
		if err != nil {
			return nil, err
		}
		if i == 0 {
			out = r
			continue
		}
		if err := sameColumns(out, r); err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, r.Rows...)
		if !p.all[i-1] {
			out = e.distinctResult(out)
		}
	}
	return out, nil
}

// runPlanPart executes one part's stage pipeline, mirroring
// executeSingle's per-clause cancellation poll and row limit.
func (e *Engine) runPlanPart(pp *partPlan) (*Result, error) {
	ps := &e.pstate
	ps.rows0[0] = ps.arena.alloc(pp.width)
	rows := ps.rows0[:1:1]
	var result *Result
	for _, st := range pp.stages {
		if err := e.checkCancelNow(); err != nil {
			return nil, err
		}
		var res *Result
		var err error
		rows, res, err = st.run(e, rows)
		if err != nil {
			return nil, err
		}
		if res != nil {
			result = res
		}
		if len(rows) > e.opts.Limits.MaxRows {
			return nil, &ErrResourceLimit{What: "intermediate rows"}
		}
	}
	if result == nil {
		result = &Result{}
	}
	return result, nil
}

// --- MATCH ---------------------------------------------------------

// cost is matcher.nodeCost of starting the part at chain endpoint n:
// zero when the node variable is bound before the part, otherwise the
// most selective label cardinality. Evaluated against the executing
// store so one plan orients correctly on every target.
func (p *cPart) cost(st *Store, n *cNode) int {
	if n.slot >= 0 && int(n.slot) < p.slotLo {
		return 0
	}
	best := st.Graph().NumNodes()
	for _, l := range n.labels {
		if c := st.LabelCount(l); c < best {
			best = c
		}
	}
	return best
}

// cProps is a compiled inline property map: evaluated key by key in
// declaration order against the current frame, exactly as
// matcher.checkProps evaluates the MapLit.
type cProps []cProp

type cProp struct {
	key string
	val eval.Operand
}

// cNode is one pattern node of a chain. slot is -1 for anonymous nodes;
// bound means the variable is in scope before this element binds (so the
// node is an equality check, not a scan). conj are the WHERE conjuncts
// that become fully bound at this element, in conjunct order.
type cNode struct {
	slot   int32
	bound  bool
	labels []string
	props  cProps
	conj   []*eval.Operand
}

// cRel is one pattern relationship of a chain.
type cRel struct {
	slot  int32
	bound bool
	types []string
	dir   ast.Direction
	props cProps
	conj  []*eval.Operand
}

// cChain is one pattern part lowered to a node/relationship expansion
// sequence (len(nodes) == len(rels)+1).
type cChain struct {
	nodes []cNode
	rels  []cRel
}

// cPart is one pattern part of its clause m. The forward orientation is
// precompiled; the reverse is built on first demand (buildReverse) because
// most executions never reverse — the executor picks fwd or rev once per
// execution from the cost estimates, mirroring matcher.orient (whose
// per-row choice is constant across rows: boundness is static and the
// store does not change during a read-only execution). The compiler
// reserves the reverse's elements in rev and its schedule's room in
// revConj, so the build allocates nothing. revOnce makes the lazy build
// safe across concurrent executions of the shared plan; after it fires
// the chain is immutable like everything else here. The part binds the
// clause scope's positions from lo on, in slots from slotLo on; rprops
// are its property maps compiled for the reverse, when they name its own
// variables.
type cPart struct {
	fwd     cChain
	m       *cMatch
	lo      int
	slotLo  int
	rprops  []cProps
	revOnce sync.Once
	rev     cChain
	revConj []*eval.Operand
}

// reversible reports whether the part may run reversed, and so has its
// reversed chain's memory reserved (see mayReverse).
func (p *cPart) reversible() bool { return p.rev.nodes != nil }

// reverse returns the reversed chain, building it on first use.
func (p *cPart) reverse() *cChain {
	p.revOnce.Do(func() { p.m.buildReverse(p) })
	return &p.rev
}

// cMatch is a compiled MATCH / OPTIONAL MATCH clause. entry holds the
// conjuncts evaluable from the input row alone; final the conjuncts that
// never become fully bound (they surface unknown-variable errors at emit
// time, as the interpreter's conservative final pass does); slots
// [optLo, optHi) are the ones OPTIONAL MATCH null-fills when nothing
// matched. preds (every WHERE conjunct, in order) and revLast (the
// scope position of each one's last variable in reversed chains) are
// what a part's reverse build needs.
type cMatch struct {
	optional     bool
	entry        []*eval.Operand
	final        []*eval.Operand
	parts        []cPart
	optLo, optHi int

	preds   []eval.Operand
	revLast []int
}

// planMatcher is the slot-frame mirror of matcher: one instance serves
// every input row of one clause execution, sharing the step budget and
// the relationship-uniqueness stack exactly as the interpreter shares
// them.
type planMatcher struct {
	e        *Engine
	ctx      *eval.Ctx
	g        *graph.Graph
	adj      *graph.AdjIndex // base-snapshot adjacency index, nil = scan only
	m        *cMatch
	f        frame
	w        int
	uniq     bool
	revScan  bool
	rev      []bool
	used     []graph.ID
	steps    int
	maxSteps int
	maxRows  int
	out      []frame
	arena    *frameArena
	matched  bool
}

func (st *cMatch) run(e *Engine, in []frame) ([]frame, *Result, error) {
	if len(in) == 0 {
		return nil, nil, nil
	}
	w := len(in[0])
	ps := &e.pstate
	scratch := ps.ensure(w)
	// Orientation, chosen once per execution (see cPart).
	if cap(ps.rev) < len(st.parts) {
		ps.rev = make([]bool, len(st.parts))
	}
	rev := ps.rev[:len(st.parts)]
	for i := range st.parts {
		p := &st.parts[i]
		rev[i] = p.reversible() && p.cost(e.store, &p.fwd.nodes[len(p.fwd.nodes)-1]) < p.cost(e.store, &p.fwd.nodes[0])
	}
	g := e.store.Graph()
	var adj *graph.AdjIndex
	if !e.opts.DisableAdjIndex {
		adj = g.BaseAdjIndex() // nil unless snapshot-backed
	}
	// The matcher and its output buffer live in planState: one matcher
	// struct per engine instead of one per MATCH execution, and the
	// output slice of the k-th producing stage is recycled across
	// executions (see nextRowBuf).
	bufK, out := ps.nextRowBuf()
	pm := &ps.pm
	*pm = planMatcher{
		e:        e,
		ctx:      e.planCtx(scratch),
		g:        g,
		adj:      adj,
		m:        st,
		f:        scratch,
		w:        w,
		uniq:     e.opts.Dialect.RelUniqueness,
		revScan:  e.opts.ReverseScan,
		rev:      rev,
		used:     ps.used[:0],
		maxSteps: e.opts.Limits.MaxMatchSteps,
		maxRows:  e.opts.Limits.MaxRows,
		out:      out,
		arena:    &ps.arena,
	}
	for _, r := range in {
		copy(scratch, r)
		pm.matched = false
		ok := true
		for _, p := range st.entry {
			t, err := p.Test(pm.ctx)
			if err != nil {
				return nil, nil, err
			}
			if t != value.TriTrue {
				ok = false
				break
			}
		}
		if ok {
			if err := pm.part(0); err != nil {
				return nil, nil, err
			}
		}
		if st.optional && !pm.matched {
			nf := ps.arena.alloc(w)
			copy(nf, r)
			for s := st.optLo; s < st.optHi; s++ {
				nf[s] = value.Null
			}
			pm.out = append(pm.out, nf)
		}
	}
	ps.used = pm.used[:0]
	ps.keepRowBuf(bufK, pm.out)
	return pm.out, nil, nil
}

func (pm *planMatcher) step() error {
	pm.steps++
	if pm.steps > pm.maxSteps {
		return &ErrResourceLimit{What: "match steps"}
	}
	return pm.e.checkCancel()
}

func (pm *planMatcher) part(pi int) error {
	if pi == len(pm.m.parts) {
		for _, p := range pm.m.final {
			t, err := p.Test(pm.ctx)
			if err != nil {
				return err
			}
			if t != value.TriTrue {
				return nil
			}
		}
		return pm.emit()
	}
	ch := &pm.m.parts[pi].fwd
	if pm.rev[pi] {
		ch = pm.m.parts[pi].reverse()
	}
	return pm.node0(ch, pi)
}

func (pm *planMatcher) emit() error {
	pm.matched = true
	nf := pm.arena.alloc(pm.w)
	copy(nf, pm.f)
	pm.out = append(pm.out, nf)
	if len(pm.out) > pm.maxRows {
		return &ErrResourceLimit{What: "match results"}
	}
	return nil
}

// node0 binds the chain's entry node: the equality path when the
// variable is already bound, otherwise a scan over the access path.
func (pm *planMatcher) node0(ch *cChain, pi int) error {
	n := &ch.nodes[0]
	if n.bound {
		v := pm.f[n.slot]
		if v.Kind() != value.KindNode {
			return nil // bound to a non-node: no match
		}
		return pm.bindNode0(ch, pi, v.EntityID())
	}
	ids, reversed := pm.scan(n)
	if reversed {
		for i := len(ids) - 1; i >= 0; i-- {
			if err := pm.bindNode0(ch, pi, ids[i]); err != nil {
				return err
			}
		}
		return nil
	}
	for _, id := range ids {
		if err := pm.bindNode0(ch, pi, id); err != nil {
			return err
		}
	}
	return nil
}

// scan picks the access path for an unbound entry node, mirroring
// matcher.nodeCandidates: an index probe per (label, property) pair, in
// label-major, key-minor order, then the most-selective label scan, then
// a full scan. Instead of copying to reverse under ReverseScan dialects
// it reports descending iteration (index probes are never reversed, as
// in the interpreter).
func (pm *planMatcher) scan(n *cNode) ([]graph.ID, bool) {
	st := pm.e.store
	for _, l := range n.labels {
		for i := range n.props {
			p := &n.props[i]
			if !st.HasIndex(l, p.key) {
				continue
			}
			v, err := p.val.Eval(pm.ctx)
			if err != nil || v.IsNull() {
				continue // probe value unavailable: fall through, as interpreted
			}
			if ids, ok := st.NodesByIndex(l, p.key, v); ok {
				return ids, false
			}
		}
	}
	if len(n.labels) > 0 {
		best := st.NodesByLabel(n.labels[0])
		for _, l := range n.labels[1:] {
			if ids := st.NodesByLabel(l); len(ids) < len(best) {
				best = ids
			}
		}
		return best, pm.revScan
	}
	return pm.g.NodeIDs(), pm.revScan
}

func (pm *planMatcher) bindNode0(ch *cChain, pi int, id graph.ID) error {
	if err := pm.step(); err != nil {
		return err
	}
	n := &ch.nodes[0]
	ok, err := pm.checkNode(n, id)
	if err != nil || !ok {
		return err
	}
	if n.slot >= 0 {
		pm.f[n.slot] = value.Node(id)
	}
	for _, p := range n.conj {
		t, err := p.Test(pm.ctx)
		if err != nil {
			return err
		}
		if t != value.TriTrue {
			return nil
		}
	}
	if len(ch.nodes) == 1 {
		return pm.part(pi + 1)
	}
	return pm.rel(ch, 0, pi, id)
}

func (pm *planMatcher) checkNode(n *cNode, id graph.ID) (bool, error) {
	if pm.adj != nil && len(n.labels) > 0 && len(n.props) == 0 {
		// Label-only check through the label index (base + store
		// deltas): membership implies existence — deleted nodes are
		// unindexed — so the node table is never touched. Gated with
		// the adjacency index so DisableAdjIndex yields a pure-scan
		// engine for the differential.
		for _, l := range n.labels {
			if !pm.e.store.NodeHasLabel(l, id) {
				return false, nil
			}
		}
		return true, nil
	}
	gn := pm.g.Node(id)
	if gn == nil {
		return false, nil
	}
	for _, l := range n.labels {
		if !gn.HasLabel(l) {
			return false, nil
		}
	}
	return pm.checkProps(n.props, gn.Props)
}

func (pm *planMatcher) checkProps(ps cProps, props map[string]value.Value) (bool, error) {
	for i := range ps {
		p := &ps[i]
		want, err := p.val.Eval(pm.ctx)
		if err != nil {
			return false, err
		}
		got, ok := props[p.key]
		if !ok || value.Equal(got, want) != value.TriTrue {
			return false, nil
		}
	}
	return true, nil
}

// rel expands relationship i of the chain from the bound node `from`:
// through the adjacency index when the pattern is typed and the index
// covers the node, otherwise by scanning the full adjacency lists.
func (pm *planMatcher) rel(ch *cChain, i, pi int, from graph.ID) error {
	if pm.adj != nil && len(ch.rels[i].types) > 0 {
		if handled, err := pm.relIndexed(ch, i, pi, from); handled {
			return err
		}
	}
	switch ch.rels[i].dir {
	case ast.DirRight:
		for _, rid := range pm.g.Out(from) {
			if err := pm.tryRel(ch, i, pi, rid, pm.g.Rel(rid).End); err != nil {
				return err
			}
		}
	case ast.DirLeft:
		for _, rid := range pm.g.In(from) {
			if err := pm.tryRel(ch, i, pi, rid, pm.g.Rel(rid).Start); err != nil {
				return err
			}
		}
	default: // undirected
		for _, rid := range pm.g.Out(from) {
			if err := pm.tryRel(ch, i, pi, rid, pm.g.Rel(rid).End); err != nil {
				return err
			}
		}
		for _, rid := range pm.g.In(from) {
			r := pm.g.Rel(rid)
			if r.Start == r.End {
				continue // self-loop already visited via Out
			}
			if err := pm.tryRel(ch, i, pi, rid, r.Start); err != nil {
				return err
			}
		}
	}
	return nil
}

func (pm *planMatcher) tryRel(ch *cChain, i, pi int, rid, other graph.ID) error {
	if err := pm.step(); err != nil {
		return err
	}
	r := &ch.rels[i]
	gr := pm.g.Rel(rid)
	if !typeMatches(r.types, gr.Type) {
		return nil
	}
	ok, err := pm.checkProps(r.props, gr.Props)
	if err != nil || !ok {
		return err
	}
	return pm.relBind(ch, i, pi, rid, other)
}

// relBind finishes candidate acceptance after type/property filtering:
// bound-variable equality, relationship uniqueness, slot binding, and
// the chain tail. Shared by the scan and indexed expansion paths.
func (pm *planMatcher) relBind(ch *cChain, i, pi int, rid, other graph.ID) error {
	r := &ch.rels[i]
	pushed := false
	if r.bound {
		if v := pm.f[r.slot]; v.Kind() != value.KindRel || v.EntityID() != rid {
			return nil
		}
	} else {
		if pm.uniq {
			for _, u := range pm.used {
				if u == rid {
					return nil
				}
			}
		}
		pm.used = append(pm.used, rid)
		pushed = true
		if r.slot >= 0 {
			pm.f[r.slot] = value.Rel(rid)
		}
	}
	err := pm.relTail(ch, i, pi, other)
	if pushed {
		pm.used = pm.used[:len(pm.used)-1]
	}
	return err
}

// tryRelIndexed is tryRel for an index-bucket candidate: the bucket key
// guarantees the type matches, and the entry carries the far endpoint,
// so the relationship record is fetched (overlay-resolving, for rels
// whose properties were mutated after seal) only when the pattern has
// inline properties to check.
func (pm *planMatcher) tryRelIndexed(ch *cChain, i, pi int, rid, other graph.ID) error {
	if err := pm.step(); err != nil {
		return err
	}
	r := &ch.rels[i]
	if len(r.props) > 0 {
		ok, err := pm.checkProps(r.props, pm.g.Rel(rid).Props)
		if err != nil || !ok {
			return err
		}
	}
	return pm.relBind(ch, i, pi, rid, other)
}

// skipRun charges n skipped (type-mismatched) scan positions to the
// match-step budget in one add. The scan path charges them one step()
// each, but a mismatched candidate has no effect besides its step, so
// one limit check after the run errors at exactly the boundary the
// scan would have hit — the positions past the limit would have done
// nothing anyway. Only the cancellation-poll cadence differs, which is
// not observable behaviour (polling is wall-clock dependent already).
func (pm *planMatcher) skipRun(n int) error {
	if n <= 0 {
		return nil
	}
	pm.steps += n
	if pm.steps > pm.maxSteps {
		return &ErrResourceLimit{What: "match steps"}
	}
	return pm.e.checkCancel()
}

// relIndexed expands relationship i through the base snapshot's
// adjacency index. It handles the expansion only when the overlay does
// not shadow the node's adjacency in any direction the pattern reads;
// otherwise it reports handled == false and rel falls back to the
// scan, which is always correct (an overlay entry is the node's
// complete adjacency list). The index walk visits exactly the scan's
// candidates in exactly its order, with mismatched positions charged
// to the step budget via skipRun, so the two paths are observationally
// identical — the scan-vs-index differential test pins this.
func (pm *planMatcher) relIndexed(ch *cChain, i, pi int, from graph.ID) (bool, error) {
	switch ch.rels[i].dir {
	case ast.DirRight:
		if pm.g.AdjShadowed(from, true) {
			return false, nil
		}
		pm.e.adjExpansions++
		return true, pm.expandIndexed(ch, i, pi, from, true, false)
	case ast.DirLeft:
		if pm.g.AdjShadowed(from, false) {
			return false, nil
		}
		pm.e.adjExpansions++
		return true, pm.expandIndexed(ch, i, pi, from, false, false)
	default: // undirected: Out pass, then In pass skipping self-loops
		if pm.g.AdjShadowed(from, true) || pm.g.AdjShadowed(from, false) {
			return false, nil
		}
		pm.e.adjExpansions++
		if err := pm.expandIndexed(ch, i, pi, from, true, false); err != nil {
			return true, err
		}
		return true, pm.expandIndexed(ch, i, pi, from, false, true)
	}
}

// expandIndexed runs one direction of an indexed expansion. noSelf
// marks the undirected In pass, which skips self-loops (already
// visited via Out) and therefore accounts steps in NSPos space — the
// in-list ordinals with self-loops compacted out, matching the scan's
// continue-before-step.
func (pm *planMatcher) expandIndexed(ch *cChain, i, pi int, from graph.ID, out, noSelf bool) error {
	entries := pm.adjEntries(from, ch.rels[i].types, out)
	var total int
	if out {
		total = len(pm.g.Out(from))
	} else {
		total = len(pm.g.In(from))
		if noSelf {
			total -= pm.adj.SelfLoopIn(from)
		}
	}
	prev := int32(-1)
	for k := range entries {
		e := &entries[k]
		pos := e.Pos
		if noSelf {
			pos = e.NSPos
			if pos < 0 {
				continue // self-loop: the scan skips it before stepping
			}
		}
		if err := pm.skipRun(int(pos - prev - 1)); err != nil {
			return err
		}
		prev = pos
		if err := pm.tryRelIndexed(ch, i, pi, e.Rel, e.Other); err != nil {
			return err
		}
	}
	return pm.skipRun(total - 1 - int(prev))
}

// adjEntries returns the index entries for the node across the
// pattern's admissible types, Pos-ascending. One type (the common
// case) returns the shared bucket directly, allocation-free; several
// merge their buckets by position into a fresh slice, which
// reconstructs full adjacency-list order because the buckets partition
// the list by type.
func (pm *planMatcher) adjEntries(from graph.ID, types []string, out bool) []graph.AdjEntry {
	if out {
		if len(types) == 1 {
			return pm.adj.Out(from, types[0])
		}
		var merged []graph.AdjEntry
		for _, t := range types {
			merged = mergeAdjEntries(merged, pm.adj.Out(from, t))
		}
		return merged
	}
	if len(types) == 1 {
		return pm.adj.In(from, types[0])
	}
	var merged []graph.AdjEntry
	for _, t := range types {
		merged = mergeAdjEntries(merged, pm.adj.In(from, t))
	}
	return merged
}

// mergeAdjEntries merges two Pos-sorted runs into a fresh slice,
// mutating neither input (a may be a previous merge result, b is
// always a shared index bucket). Equal positions — a type repeated in
// the pattern — collapse to one entry, as typeMatches visits each
// relationship once however many alternatives name its type.
func mergeAdjEntries(a, b []graph.AdjEntry) []graph.AdjEntry {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	m := make([]graph.AdjEntry, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Pos < b[j].Pos:
			m = append(m, a[i])
			i++
		case a[i].Pos > b[j].Pos:
			m = append(m, b[j])
			j++
		default:
			m = append(m, a[i])
			i, j = i+1, j+1
		}
	}
	m = append(m, a[i:]...)
	return append(m, b[j:]...)
}

func (pm *planMatcher) relTail(ch *cChain, i, pi int, other graph.ID) error {
	for _, p := range ch.rels[i].conj {
		t, err := p.Test(pm.ctx)
		if err != nil {
			return err
		}
		if t != value.TriTrue {
			return nil
		}
	}
	return pm.nodeAt(ch, i+1, pi, other)
}

// nodeAt binds chain node i to the far endpoint of the relationship just
// traversed. No step() here, mirroring matchNodeAt.
func (pm *planMatcher) nodeAt(ch *cChain, i, pi int, id graph.ID) error {
	n := &ch.nodes[i]
	if n.bound {
		if v := pm.f[n.slot]; v.Kind() != value.KindNode || v.EntityID() != id {
			return nil
		}
	}
	ok, err := pm.checkNode(n, id)
	if err != nil || !ok {
		return err
	}
	if n.slot >= 0 {
		pm.f[n.slot] = value.Node(id)
	}
	for _, p := range n.conj {
		t, err := p.Test(pm.ctx)
		if err != nil {
			return err
		}
		if t != value.TriTrue {
			return nil
		}
	}
	if i == len(ch.nodes)-1 {
		return pm.part(pi + 1)
	}
	return pm.rel(ch, i, pi, id)
}

// --- UNWIND --------------------------------------------------------

type cUnwind struct {
	list eval.Operand
	slot int
}

func (st *cUnwind) run(e *Engine, in []frame) ([]frame, *Result, error) {
	ctx := e.planCtx(nil)
	ps := &e.pstate
	bufK, out := ps.nextRowBuf()
	for _, r := range in {
		if err := e.checkCancel(); err != nil {
			return nil, nil, err
		}
		ctx.Frame = r
		// The list is transient: its elements are copied into the new
		// frames before the stack is released.
		mark := ctx.StackMark()
		v, err := st.list.Eval(ctx)
		switch {
		case err != nil:
		case v.Kind() == value.KindList:
			for _, el := range v.AsList() {
				nf := ps.arena.alloc(len(r))
				copy(nf, r)
				nf[st.slot] = el
				out = append(out, nf)
			}
		case v.Kind() != value.KindNull: // null unwinds to no rows
			err = fmt.Errorf("type error: UNWIND expects a list, got %s", v.Kind())
		}
		ctx.Release(mark)
		if err != nil {
			return nil, nil, err
		}
	}
	ps.keepRowBuf(bufK, out)
	return out, nil, nil
}

// --- CALL ----------------------------------------------------------

type cCall struct {
	proc string
	slot int
	last bool
	cols []string // the result's one column, when last
}

func (st *cCall) run(e *Engine, in []frame) ([]frame, *Result, error) {
	// Availability is a dialect property, so it is checked at run time
	// against the executing engine, never at compile time.
	d := e.opts.Dialect
	var vals []value.Value
	switch st.proc {
	case "db.labels":
		if !d.ProvidesDBLabels {
			return nil, nil, fmt.Errorf("%s: there is no procedure db.labels", d.Name)
		}
		for _, l := range e.store.Labels() {
			vals = append(vals, value.Str(l))
		}
	case "db.relationshipTypes":
		if !d.ProvidesDBLabels {
			return nil, nil, fmt.Errorf("%s: there is no procedure db.relationshipTypes", d.Name)
		}
		for _, t := range e.store.RelTypes() {
			vals = append(vals, value.Str(t))
		}
	case "db.propertyKeys":
		if !d.ProvidesDBLabels {
			return nil, nil, fmt.Errorf("%s: there is no procedure db.propertyKeys", d.Name)
		}
		for _, k := range e.store.PropertyKeys() {
			vals = append(vals, value.Str(k))
		}
	default:
		// compileCallStage only lowers the three known procedures.
		return nil, nil, fmt.Errorf("unknown procedure %s", st.proc)
	}
	ps := &e.pstate
	bufK, out := ps.nextRowBuf()
	for _, r := range in {
		for _, v := range vals {
			nf := ps.arena.alloc(len(r))
			copy(nf, r)
			nf[st.slot] = v
			out = append(out, nf)
		}
	}
	ps.keepRowBuf(bufK, out)
	if st.last {
		res := &Result{Columns: st.cols}
		for _, r := range out {
			res.Rows = append(res.Rows, []value.Value{r[st.slot]})
		}
		return out, res, nil
	}
	return out, nil, nil
}

// --- WITH / RETURN -------------------------------------------------

// cProjItem is one compiled projection item: the output column's slot
// and its compiled expression (for aggregating items, compiled with the
// per-group aggregate results spliced in; zero for an item that is one
// aggregate call, whose result the call publishes in the item's slot).
type cProjItem struct {
	name string
	slot int32
	agg  bool
	fn   eval.Operand
}

// cAggCall is one aggregate call occurrence within a projection: its
// accumulator spec, the compiled argument/parameter expressions, and the
// slot its per-group result is published in for the item expressions.
type cAggCall struct {
	call  *ast.FuncCall
	spec  *functions.AggSpec
	star  bool
	arg   eval.Operand // zero for star calls
	param eval.Operand // set only for HasParam calls with 2 args
	slot  int
}

type cSort struct {
	key  eval.Operand
	desc bool
}

// cProjection is a compiled WITH or RETURN clause. An aggregation
// without grouping items yields one group even over no input rows, as
// the interpreter's does, and evaluates that group's parameters and
// items in an empty scope, where an input variable is an unknown one:
// zero holds its operands, compiled against no variables (see
// builder.aggregation).
type cProjection struct {
	items      []cProjItem
	groupItems []int // indices into items of the non-aggregating items
	calls      []cAggCall
	zero       []eval.Operand
	hasAgg     bool
	distinct   bool
	isReturn   bool
	sorts      []cSort
	skip       eval.Operand // zero without SKIP
	limit      eval.Operand // zero without LIMIT
	where      eval.Operand // WITH ... WHERE only
	cols       []string     // RETURN's result columns, never in a Scratch
	width      int          // part frame width, set by builder.part
}

func (st *cProjection) run(e *Engine, in []frame) ([]frame, *Result, error) {
	ctx := e.planCtx(nil)
	rows := in
	if st.hasAgg {
		var err error
		rows, err = st.aggregate(e, ctx, in)
		if err != nil {
			return nil, nil, err
		}
	} else {
		// Items are written in place: item slots are disjoint from every
		// input-scope slot, and item expressions read only input scope.
		for _, r := range in {
			if err := e.checkCancel(); err != nil {
				return nil, nil, err
			}
			ctx.Frame = r
			for i := range st.items {
				v, err := st.items[i].fn.Eval(ctx)
				if err != nil {
					return nil, nil, err
				}
				r[st.items[i].slot] = v
			}
		}
	}
	if st.distinct {
		rows = st.distinctFrames(&e.rows, rows)
	}
	if len(st.sorts) > 0 {
		if err := st.orderBy(&e.pstate, ctx, rows); err != nil {
			return nil, nil, err
		}
	}
	var err error
	rows, err = st.skipLimit(e, ctx, rows)
	if err != nil {
		return nil, nil, err
	}
	if st.isReturn {
		// RETURN does not replace the row pipeline (executeSingle's row
		// limit sees the pre-projection count), so pass `in` through.
		return in, st.buildResult(rows), nil
	}
	if !st.where.IsZero() {
		rows, err = st.filter(ctx, rows)
		if err != nil {
			return nil, nil, err
		}
	}
	return rows, nil, nil
}

func (st *cProjection) filter(ctx *eval.Ctx, rows []frame) ([]frame, error) {
	out := rows[:0]
	for _, r := range rows {
		ctx.Frame = r
		t, err := st.where.Test(ctx)
		if err != nil {
			return nil, err
		}
		if t == value.TriTrue {
			out = append(out, r)
		}
	}
	return out, nil
}

// itemRow returns the projected values of a frame. Item slots are
// consecutive: projectionStage assigns them in one run.
func (st *cProjection) itemRow(r frame) []value.Value {
	lo := int(st.items[0].slot)
	return r[lo : lo+len(st.items)]
}

func (st *cProjection) distinctFrames(set *value.RowSet, rows []frame) []frame {
	set.Reset(len(st.items))
	out := rows[:0]
	for _, r := range rows {
		if _, added := set.Add(st.itemRow(r)); added {
			out = append(out, r)
		}
	}
	return out
}

// orderBy sorts rows stably by the sort keys, evaluated once per row,
// with the keys, the permutation and the reordering in planState's
// scratch.
func (st *cProjection) orderBy(ps *planState, ctx *eval.Ctx, rows []frame) error {
	n := len(rows)
	if n == 0 {
		return nil
	}
	ns := len(st.sorts)
	keys := slices.Grow(ps.sortKeys[:0], n*ns)[:n*ns]
	perm := slices.Grow(ps.perm[:0], n)[:n]
	defer func() { ps.sortKeys, ps.perm = keep(keys), keep(perm) }()
	for i, r := range rows {
		ctx.Frame = r
		for j := range st.sorts {
			v, err := st.sorts[j].key.Eval(ctx)
			if err != nil {
				return err
			}
			keys[i*ns+j] = v
		}
		perm[i] = int32(i)
	}
	slices.SortStableFunc(perm, func(a, b int32) int {
		ka, kb := keys[int(a)*ns:], keys[int(b)*ns:]
		for j := range st.sorts {
			if c := value.OrderCompare(ka[j], kb[j]); c != 0 {
				if st.sorts[j].desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	tmp := append(ps.reorder[:0], rows...)
	for i, p := range perm {
		rows[i] = tmp[p]
	}
	ps.reorder = keep(tmp)
	return nil
}

func (st *cProjection) skipLimit(e *Engine, ctx *eval.Ctx, rows []frame) ([]frame, error) {
	if st.skip.IsZero() && st.limit.IsZero() {
		return rows, nil
	}
	// SKIP/LIMIT evaluate in an empty environment (variable references
	// error), but comprehension binders still need their temp slots.
	ctx.Frame = e.pstate.ensure(st.width)
	if !st.skip.IsZero() {
		n, err := nonNegIntC(ctx, st.skip, "SKIP")
		if err != nil {
			return nil, err
		}
		if n >= int64(len(rows)) {
			rows = nil
		} else {
			rows = rows[n:]
		}
	}
	if !st.limit.IsZero() {
		n, err := nonNegIntC(ctx, st.limit, "LIMIT")
		if err != nil {
			return nil, err
		}
		if n < int64(len(rows)) {
			rows = rows[:n]
		}
	}
	return rows, nil
}

func nonNegIntC(ctx *eval.Ctx, x eval.Operand, what string) (int64, error) {
	v, err := x.Eval(ctx)
	if err != nil {
		return 0, err
	}
	if v.Kind() != value.KindInt || v.AsInt() < 0 {
		return 0, fmt.Errorf("%s requires a non-negative integer, got %v", what, v)
	}
	return v.AsInt(), nil
}

func (st *cProjection) buildResult(rows []frame) *Result {
	res := &Result{Columns: st.cols}
	if len(rows) == 0 {
		return res
	}
	nc := len(st.items)
	flat := make([]value.Value, len(rows)*nc)
	res.Rows = make([][]value.Value, len(rows))
	for i, r := range rows {
		vals := flat[i*nc : (i+1)*nc : (i+1)*nc]
		for j := range st.items {
			vals[j] = r[st.items[j].slot]
		}
		res.Rows[i] = vals
	}
	return res
}

// aggregate mirrors Engine.aggregate over frames: grouping keys are the
// non-aggregating items (evaluated once per row, stored — re-evaluating
// at finalization would double any rand() draws), accumulators run per
// group, and finalization publishes each call's result in its slot
// before evaluating the aggregating items against the group's first row.
// Groups are numbered in first-occurrence order by the engine's row set,
// which also holds their keys; DISTINCT aggregates dedupe (group, call,
// value) triples in a second set. Over no rows, a projection without
// grouping items finalizes one group on a frame of its own, through its
// zero operands.
func (st *cProjection) aggregate(e *Engine, ctx *eval.Ctx, in []frame) ([]frame, error) {
	ps := &e.pstate
	set, seen := &e.rows, &e.aggRows
	set.Reset(len(st.groupItems))
	seen.Reset(3)
	nc := len(st.calls)
	key := slices.Grow(ps.key[:0], len(st.groupItems))[:len(st.groupItems)]
	firsts, accs := ps.firsts[:0], ps.accs[:0]
	defer func() {
		ps.key, ps.firsts, ps.accs = keep(key), keep(firsts), keep(accs)
	}()
	var err error
	for _, r := range in {
		if err := e.checkCancel(); err != nil {
			return nil, err
		}
		ctx.Frame = r
		for gi, idx := range st.groupItems {
			v, err := st.items[idx].fn.Eval(ctx)
			if err != nil {
				return nil, err
			}
			key[gi] = v
		}
		g, added := set.Add(key)
		if added {
			firsts = append(firsts, r)
			if accs, _, err = st.newGroup(ctx, accs, nil); err != nil {
				return nil, err
			}
		}
		for ci := range st.calls {
			c := &st.calls[ci]
			var v value.Value
			if c.star {
				v = value.True // counted regardless
			} else {
				var err error
				v, err = c.arg.Eval(ctx)
				if err != nil {
					return nil, err
				}
			}
			if !c.star && c.call.Distinct {
				if _, first := seen.Add([]value.Value{value.Int(int64(g)), value.Int(int64(ci)), v}); !first {
					continue
				}
			}
			if err := accs[g*nc+ci].Add(v); err != nil {
				return nil, err
			}
		}
	}
	var items []eval.Operand // the zero-row group's item operands
	if len(in) == 0 && len(st.groupItems) == 0 {
		first := ps.arena.alloc(st.width)
		firsts = append(firsts, first)
		ctx.Frame = first
		if accs, items, err = st.newGroup(ctx, accs, st.zero); err != nil {
			return nil, err
		}
	}
	bufK, out := ps.nextRowBuf()
	for g, first := range firsts {
		for ci := range st.calls {
			first[st.calls[ci].slot] = accs[g*nc+ci].Result()
		}
		for gi, idx := range st.groupItems {
			first[st.items[idx].slot] = set.Row(g)[gi]
		}
		ctx.Frame = first
		for i := range st.items {
			it := &st.items[i]
			if !it.agg || it.fn.IsZero() {
				continue // its slot holds its value
			}
			fn := &it.fn
			if len(in) == 0 {
				fn, items = &items[0], items[1:]
			}
			v, err := fn.Eval(ctx)
			if err != nil {
				return nil, err
			}
			first[it.slot] = v
		}
		out = append(out, first)
	}
	ps.keepRowBuf(bufK, out)
	return out, nil
}

// newGroup appends a new group's accumulators to accs, with
// Engine.aggregate's arity checks, and evaluates each call's parameter
// in ctx: the call's own operand, on the group's first row, or, with
// zero, the next of zero, whose rest it returns.
func (st *cProjection) newGroup(ctx *eval.Ctx, accs []functions.Aggregator, zero []eval.Operand) ([]functions.Aggregator, []eval.Operand, error) {
	for ci := range st.calls {
		c := &st.calls[ci]
		if c.star {
			accs = append(accs, functions.CountStar())
			continue
		}
		var param value.Value
		if c.spec.HasParam {
			if len(c.call.Args) != 2 {
				return nil, nil, fmt.Errorf("%s requires two arguments", c.spec.Name)
			}
			p := &c.param
			if zero != nil {
				p, zero = &zero[0], zero[1:]
			}
			v, err := p.Eval(ctx)
			if err != nil {
				return nil, nil, err
			}
			param = v
		} else if len(c.call.Args) != 1 {
			return nil, nil, fmt.Errorf("%s requires one argument", c.spec.Name)
		}
		accs = append(accs, c.spec.New(param))
	}
	return accs, zero, nil
}
