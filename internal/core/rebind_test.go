package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"gqs/internal/cypher/ast"
	"gqs/internal/graph"
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

// rebindRun synthesizes the queries of rebindGraphs campaign-sized graphs
// in the runner's draw order, with one synthesizer rebound to each graph
// or, unless rebind, a fresh one per graph. It calls visit after every
// query (sq is nil when synthesis failed).
func rebindRun(rebind bool, visit func(syn *Synthesizer, graphIdx, q int, sq *Synthesized, err error)) {
	r := rand.New(rand.NewSource(3))
	var syn *Synthesizer
	for i := 0; i < rebindGraphs; i++ {
		g, schema := graph.Generate(r, graph.GenConfig{MaxNodes: 13, MaxRels: 60})
		g.Seal()
		cfg := rebindConfig(i)
		if rebind && syn != nil {
			syn.rebind(g, schema, cfg)
		} else {
			syn = NewSynthesizer(r, g, schema, cfg)
		}
		var gt *GroundTruth
		for q := 0; q < 2*rebindGTs; q++ {
			if q%2 == 0 {
				gt = SelectGroundTruth(r, g, cfg.Plan.MaxResultSet)
			}
			sq, err := syn.Synthesize(gt)
			visit(syn, i, q, sq, err)
		}
	}
}

// TestReboundSynthesizerMatchesFresh: a synthesizer rebound from graph to
// graph, as the runner keeps one for its life, emits byte for byte what a
// fresh synthesizer per graph emits for the same draws — the text, the
// step count and the expected rows of every query, UNION branches
// included — while the dialect flags change from graph to graph.
func TestReboundSynthesizerMatchesFresh(t *testing.T) {
	var fresh, rebound []string
	record := func(out *[]string) func(*Synthesizer, int, int, *Synthesized, error) {
		return func(_ *Synthesizer, i, q int, sq *Synthesized, err error) {
			if err != nil {
				*out = append(*out, fmt.Sprintf("graph %d query %d: error %v", i, q, err))
				return
			}
			*out = append(*out, fmt.Sprintf("graph %d query %d: %s\nsteps %d\n%q",
				i, q, sq.Text, sq.Steps, sq.Expected.Canonical()))
		}
	}
	rebindRun(false, record(&fresh))
	rebindRun(true, record(&rebound))
	unions := 0
	for k := range fresh {
		if strings.Contains(fresh[k], " UNION ") {
			unions++
		}
		if rebound[k] != fresh[k] {
			t.Fatalf("the rebound synthesizer diverges from a fresh one:\n got  %s\n want %s", rebound[k], fresh[k])
		}
	}
	if unions < 20 {
		t.Fatalf("only %d of %d queries have a UNION branch", unions, len(fresh))
	}
}

// TestRebindDropsPreviousArena guards the memory a runner-lifetime
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
	rebindRun(true, func(syn *Synthesizer, i, q int, sq *Synthesized, err error) {
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
