package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"gqs/internal/cypher/ast"
	"gqs/internal/gdb"
	"gqs/internal/graph"
	"gqs/internal/metrics"
)

// rebindGraphs is how many graphs the rebinding tests bind one
// synthesizer to, each with the 12 queries of a campaign iteration (6
// ground truths of 2 queries), so that an arena that outlived its graph
// would hold the next graph's first queries too.
const rebindGraphs, rebindGTs = 48, 6

// rebindConfig is graph i's config: the four dialects' flag pairs in
// turn, so that they change from graph to graph.
func rebindConfig(i int) Config {
	d := synthDialects[i%len(synthDialects)]
	cfg := DefaultConfig()
	cfg.RelUniqueness, cfg.ProvidesDBLabels = d.relUnique, d.dbLabels
	return cfg
}

// rebindMode is how rebindRun binds synthesizers to its graphs.
type rebindMode int

const (
	// freshPerGraph builds a heap-mode synthesizer (NewSynthesizer) per
	// graph.
	freshPerGraph rebindMode = iota
	// heapRebound rebinds one heap-mode synthesizer to every graph.
	heapRebound
	// runnerRebound rebinds one synthesizer in the runner's mode, its
	// AST arena rewound for every query, to every graph, and in the
	// middle of graph leaveGraph leaves its trees as a wedged call does.
	runnerRebound
)

// leaveGraph is the graph in whose middle runnerRebound leaves its trees.
const leaveGraph = rebindGraphs / 2

// rebindRun synthesizes the queries of rebindGraphs campaign-sized graphs
// in the runner's draw order, with synthesizers bound as mode says. It
// calls visit after every query (sq is nil when synthesis failed); in
// the runner's mode, the query's tree is valid only until visit returns.
func rebindRun(mode rebindMode, visit func(syn *Synthesizer, graphIdx, q int, sq *Synthesized, err error)) {
	r := rand.New(rand.NewSource(3))
	var syn *Synthesizer
	for i := 0; i < rebindGraphs; i++ {
		g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 13, MaxRels: 60})
		g.Seal()
		cfg := rebindConfig(i)
		switch {
		case syn == nil || mode == freshPerGraph:
			syn = newSynthesizer(r, g, schema, cfg, mode == runnerRebound)
		default:
			syn.rebind(g, schema, cfg)
		}
		var gt *GroundTruth
		for q := 0; q < 2*rebindGTs; q++ {
			if q%2 == 0 {
				gt = SelectGroundTruth(r, g, cfg.Plan.MaxResultSet)
			}
			if mode == runnerRebound && i == leaveGraph && q == rebindGTs {
				syn.leaveTrees()
			}
			sq, err := syn.Synthesize(gt)
			visit(syn, i, q, sq, err)
		}
	}
}

// TestReboundSynthesizerMatchesFresh: a synthesizer rebound from graph to
// graph, as the runner keeps one for its life, emits byte for byte what a
// fresh heap-mode synthesizer per graph emits for the same draws — the
// text, the step count and the expected rows of every query, UNION
// branches included — while the dialect flags change from graph to
// graph. So does one in the runner's mode, whose AST arena is rewound for
// every query and replaced once mid-stream, and each of its trees still
// prints to its text when the query is returned.
func TestReboundSynthesizerMatchesFresh(t *testing.T) {
	var fresh, heap, runner []string
	record := func(out *[]string) func(*Synthesizer, int, int, *Synthesized, error) {
		return func(_ *Synthesizer, i, q int, sq *Synthesized, err error) {
			if err != nil {
				*out = append(*out, fmt.Sprintf("graph %d query %d: error %v", i, q, err))
				return
			}
			if text := sq.Query.String(); text != sq.Text {
				t.Fatalf("graph %d query %d: the tree prints %s, the text is %s", i, q, text, sq.Text)
			}
			*out = append(*out, fmt.Sprintf("graph %d query %d: %s\nsteps %d\n%q",
				i, q, sq.Text, sq.Steps, sq.Expected.Canonical()))
		}
	}
	rebindRun(freshPerGraph, record(&fresh))
	rebindRun(heapRebound, record(&heap))
	rebindRun(runnerRebound, record(&runner))
	unions := 0
	for k := range fresh {
		if strings.Contains(fresh[k], " UNION ") {
			unions++
		}
		if heap[k] != fresh[k] {
			t.Fatalf("the rebound synthesizer diverges from a fresh one:\n got  %s\n want %s", heap[k], fresh[k])
		}
		if runner[k] != fresh[k] {
			t.Fatalf("the runner's synthesizer diverges from a fresh one:\n got  %s\n want %s", runner[k], fresh[k])
		}
	}
	if unions < 20 {
		t.Fatalf("only %d of %d queries have a UNION branch", unions, len(fresh))
	}
}

// TestKeptTestCasesStayValid: a test case outlives its query. The
// runner's synthesizer and scratch reuse a query's memory for the next
// one, but what a TestCase holds — the query text, the expected and
// actual results, the features — must not live there: an observer that
// keeps every test case of a small campaign on the four simulated GDBs
// reads each as it was when it was reported.
func TestKeptTestCasesStayValid(t *testing.T) {
	render := func(tc *TestCase) string {
		var expected, actual []string
		if tc.Expected != nil {
			expected = tc.Expected.Canonical()
		}
		if tc.Actual != nil {
			actual = tc.Actual.Canonical()
		}
		var f metrics.Features
		if tc.Features != nil {
			f = *tc.Features
		}
		return fmt.Sprintf("%s\nexpected %q\nactual %q\nfeatures %+v", tc.Query, expected, actual, f)
	}
	type keptCase struct {
		tc       *TestCase
		reported string
	}
	var kept []keptCase
	cfg := DefaultRunnerConfig()
	cfg.Graph = graph.GenConfig{MaxNodes: 13, MaxRels: 60}
	for _, target := range gdb.All() {
		NewRunner(target, cfg).Run(3, func(tc *TestCase) {
			kept = append(kept, keptCase{tc, render(tc)})
		})
	}
	unions, actuals := 0, 0
	for _, k := range kept {
		if got := render(k.tc); got != k.reported {
			t.Fatalf("test case %d changed after it was reported:\n got  %s\n want %s", k.tc.Seq, got, k.reported)
		}
		if strings.Contains(k.tc.Query, " UNION ") {
			unions++
		}
		if k.tc.Actual != nil {
			actuals++
		}
	}
	if len(kept) != 4*3*cfg.QueriesPerGraph*cfg.QueriesPerGT || unions == 0 || actuals == 0 {
		t.Fatalf("%d test cases, %d with a UNION branch, %d with a result", len(kept), unions, actuals)
	}
}

// TestRebindDropsPreviousArena guards the memory a rebound heap-mode
// synthesizer holds. A chunk of the AST arena lives as long as anything
// points into it, so after the first query on a new graph nothing the
// synthesizer and its UNION-branch synthesizer hold — arena chunks,
// scratch up to its capacity, anything they reach — may point at a node
// of the previous graph's queries. A stale pointer left past a scratch
// slice's length keeps that graph's whole arena alive, and an arena that
// spans graphs keeps two graphs' trees in one; in a two-worker campaign,
// stale scratch raised peak RSS from about 30 MB to 35 MB.
func TestRebindDropsPreviousArena(t *testing.T) {
	var prev, cur []*Synthesized
	checked := 0
	rebindRun(heapRebound, func(syn *Synthesizer, i, q int, sq *Synthesized, err error) {
		if q == 0 && i > 0 {
			prev, cur = cur, nil
		}
		if err == nil {
			cur = append(cur, sq)
		}
		if q != 0 || i == 0 {
			return
		}
		old := arenaNodes(prev)
		var w heldWalker
		var stale []string
		w.walk(reflect.ValueOf(syn), func(p unsafe.Pointer) bool { return old[p] }, func(path string) {
			stale = append(stale, path)
		})
		if len(stale) > 0 {
			t.Fatalf("graph %d, after its first query: %d pointers at nodes of graph %d's queries, first %q",
				i, len(stale), i-1, stale[:min(3, len(stale))])
		}
		checked++
	})
	if checked != rebindGraphs-1 {
		t.Fatalf("checked %d graphs, want %d", checked, rebindGraphs-1)
	}
}

// TestRewindDropsReplacedChunks guards the memory the runner's
// synthesizer holds. Its arenas are rewound for every query, and a chunk
// that runs out is replaced by a larger one, which the nodes already
// taken from it keep alive for as long as anything holds them. So after
// each query, nothing the synthesizer and its UNION-branch synthesizer
// hold — arena chunks, scratch up to its capacity, anything they reach —
// may point at a node of an earlier query's tree in a chunk that is not
// current, unless the chunk was current when the query started (its
// nodes, discarded candidates too, may be in it) or the node is the
// query's own. The set of earlier nodes holds them as pointers, so no
// chunk they are in is freed and its memory reused.
func TestRewindDropsReplacedChunks(t *testing.T) {
	old := map[unsafe.Pointer]bool{}
	var started chunkSet
	checked := 0
	rebindRun(runnerRebound, func(syn *Synthesizer, i, q int, sq *Synthesized, err error) {
		cur := map[unsafe.Pointer]bool{}
		if err == nil {
			cur = arenaNodes([]*Synthesized{sq})
		}
		chunks := arenaChunks(syn)
		var w heldWalker
		var stale []string
		w.walk(reflect.ValueOf(syn), func(p unsafe.Pointer) bool {
			return old[p] && !cur[p] && !chunks.hold(p) && !started.hold(p)
		}, func(path string) {
			stale = append(stale, path)
		})
		if len(stale) > 0 {
			t.Fatalf("graph %d query %d: %d pointers at nodes of earlier queries in replaced chunks, first %q",
				i, q, len(stale), stale[:min(3, len(stale))])
		}
		for p := range cur {
			old[p] = true
		}
		started = chunks
		checked++
	})
	if checked != rebindGraphs*2*rebindGTs {
		t.Fatalf("checked %d queries, want %d", checked, rebindGraphs*2*rebindGTs)
	}
}

// chunkSet is the address ranges of a set of chunks.
type chunkSet [][2]uintptr

// arenaChunks returns the current chunks of the AST arenas of syn and of
// its UNION-branch synthesizer.
func arenaChunks(syn *Synthesizer) chunkSet {
	var out chunkSet
	for s := syn; s != nil; s = s.union {
		v := reflect.ValueOf(&s.nodes).Elem()
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Slice && f.Cap() > 0 {
				base := f.Pointer()
				out = append(out, [2]uintptr{base, base + uintptr(f.Cap())*f.Type().Elem().Size()})
			}
		}
	}
	return out
}

// hold reports whether p points into one of the chunks.
func (cs chunkSet) hold(p unsafe.Pointer) bool {
	for _, c := range cs {
		if uintptr(p) >= c[0] && uintptr(p) < c[1] {
			return true
		}
	}
	return false
}

// arenaNodes returns the addresses of the nodes the queries' trees hold
// that a synthesizer allocates: every node but the variables and the
// interned literals, which are shared by all queries.
func arenaNodes(qs []*Synthesized) map[unsafe.Pointer]bool {
	out := map[unsafe.Pointer]bool{}
	add := func(p unsafe.Pointer) { out[p] = true }
	expr := func(e ast.Expr) {
		ast.WalkExprs(e, func(x ast.Expr) bool {
			switch x := x.(type) {
			case *ast.Variable:
			case *ast.Literal:
				if ast.InternedLit(x.Val) != x {
					add(unsafe.Pointer(x))
				}
			default:
				add(reflect.ValueOf(x).UnsafePointer())
			}
			return true
		})
	}
	projection := func(p *ast.Projection) {
		for _, it := range p.Items {
			add(unsafe.Pointer(it))
			expr(it.Expr)
		}
		for _, si := range p.OrderBy {
			add(unsafe.Pointer(si))
			expr(si.Expr)
		}
		expr(p.Limit)
	}
	for _, sq := range qs {
		add(unsafe.Pointer(sq.Query))
		for _, part := range sq.Query.Parts {
			add(unsafe.Pointer(part))
			for _, c := range part.Clauses {
				switch c := c.(type) {
				case *ast.MatchClause:
					add(unsafe.Pointer(c))
					for _, pp := range c.Patterns {
						add(unsafe.Pointer(pp))
						for _, np := range pp.Nodes {
							add(unsafe.Pointer(np))
						}
						for _, rp := range pp.Rels {
							add(unsafe.Pointer(rp))
						}
					}
					expr(c.Where)
				case *ast.UnwindClause:
					add(unsafe.Pointer(c))
					expr(c.Expr)
				case *ast.WithClause:
					add(unsafe.Pointer(c))
					projection(&c.Projection)
					expr(c.Where)
				case *ast.ReturnClause:
					add(unsafe.Pointer(c))
					projection(&c.Projection)
				}
			}
		}
	}
	return out
}

// heldWalker walks everything a value reaches — pointers, interfaces,
// struct fields, map entries and slices up to their capacity — and
// checks each pointer it finds and the address of each slice element,
// going no further from a hit. It visits each pointer and each backing
// array once, and skips arrays of values that hold no pointers. path
// names where the walk is, for the report of a hit.
type heldWalker struct {
	seen map[heldKey]bool
	path []string
}

type heldKey struct {
	p unsafe.Pointer
	t reflect.Type
}

// walk visits v and calls report with the path of every pointer hit
// reports true for.
func (w *heldWalker) walk(v reflect.Value, hit func(unsafe.Pointer) bool, report func(path string)) {
	w.seen, w.path = map[heldKey]bool{}, []string{"syn"}
	w.visit(v, func(p unsafe.Pointer) bool {
		if hit(p) {
			report(strings.Join(w.path, ""))
			return true
		}
		return false
	})
}

func (w *heldWalker) visit(v reflect.Value, check func(unsafe.Pointer) bool) {
	switch v.Kind() {
	case reflect.Pointer, reflect.UnsafePointer:
		p := v.UnsafePointer()
		if p == nil || check(p) || v.Kind() == reflect.UnsafePointer {
			return // an untyped pointer is a value's payload
		}
		k := heldKey{p, v.Type()}
		if w.seen[k] {
			return
		}
		w.seen[k] = true
		w.visit(v.Elem(), check)
	case reflect.Interface:
		if !v.IsNil() {
			w.visit(v.Elem(), check)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			w.path = append(w.path, "."+v.Type().Field(i).Name)
			w.visit(v.Field(i), check)
			w.path = w.path[:len(w.path)-1]
		}
	case reflect.Slice, reflect.Array:
		if !holdsPointers(v.Type().Elem()) {
			return
		}
		if v.Kind() == reflect.Slice {
			if v.IsNil() {
				return
			}
			k := heldKey{v.UnsafePointer(), v.Type()}
			if w.seen[k] {
				return
			}
			w.seen[k] = true
			v = v.Slice3(0, v.Cap(), v.Cap())
		}
		for i := 0; i < v.Len(); i++ {
			w.path = append(w.path, fmt.Sprintf("[%d]", i))
			if el := v.Index(i); !el.CanAddr() || !check(unsafe.Pointer(el.UnsafeAddr())) {
				w.visit(el, check)
			}
			w.path = w.path[:len(w.path)-1]
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			w.visit(it.Key(), check)
			w.visit(it.Value(), check)
		}
	}
}

// holdsPointers reports whether a value of type t can hold a pointer.
func holdsPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Interface, reflect.Slice, reflect.Map,
		reflect.String, reflect.Chan, reflect.Func:
		return true
	case reflect.Array:
		return holdsPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
