package graph

import (
	"fmt"
	"math/rand"
	"strings"

	"gqs/internal/value"
)

// PropType is the declared type of a property name. Property names have a
// fixed type across the whole graph so that synthesized expressions can be
// typed statically, and so that schema-first databases (Kùzu in the paper)
// can be initialized from the same generator.
type PropType int

// The generated property types.
const (
	PropInt PropType = iota
	PropFloat
	PropString
	PropBool
	PropStrList
)

// String returns a Cypher-ish name for the property type.
func (t PropType) String() string {
	switch t {
	case PropInt:
		return "INTEGER"
	case PropFloat:
		return "FLOAT"
	case PropString:
		return "STRING"
	case PropBool:
		return "BOOLEAN"
	case PropStrList:
		return "LIST<STRING>"
	default:
		return fmt.Sprintf("PROPTYPE(%d)", int(t))
	}
}

// IndexSpec describes one label+property index, created during graph
// initialization as the paper does.
type IndexSpec struct {
	Label    string
	Property string
}

// Schema records the label, relationship-type, and property vocabularies
// of a generated graph. The generators share one vocabulary among every
// graph they make: Labels, RelTypes and Props are read-only. Indexes is
// each schema's own.
type Schema struct {
	Labels   []string
	RelTypes []string
	Props    map[string]PropType
	Indexes  []IndexSpec
}

// PropNames returns the generated property names the schema declares,
// k0, k1, … in order.
func (s *Schema) PropNames() []string {
	names := make([]string, 0, len(s.Props))
	for _, n := range vocab.propNames {
		if _, ok := s.Props[n]; !ok {
			break
		}
		names = append(names, n)
	}
	return names
}

// GenConfig controls random graph generation. The defaults mirror the
// paper's experimental setup (§5.1): graphs of at most 13 nodes and 500
// relationships.
type GenConfig struct {
	MaxNodes        int // upper bound on nodes; at least 2 are generated
	MaxRels         int // upper bound on relationships
	SelfLoopPercent int // percentage of relationships allowed to be self-loops
	// Scale, when positive, switches Generate to the bulk generator
	// (see bulk.go): a power-law-degree graph of exactly Scale nodes
	// built in batch, sized for the large-graph workloads. Zero keeps
	// the paper's small-graph generator with its exact draw schedule.
	Scale int
}

// DefaultGenConfig returns the paper's configuration.
func DefaultGenConfig() GenConfig {
	return GenConfig{MaxNodes: 13, MaxRels: 500, SelfLoopPercent: 5}
}

// The vocabulary and element bounds of the paper's setup (§5.1), the
// same for every generated graph: labels L0..L12, relationship types
// T0..T10 and property names k0..k99; a node carries one to three
// labels, an element up to six properties.
const (
	numLabels        = 13
	numRelTypes      = 11
	numProps         = 100
	maxLabelsPerNode = 3
	maxPropsPerElem  = 6
)

func (c GenConfig) withDefaults() GenConfig {
	d := DefaultGenConfig()
	if c.MaxNodes <= 0 {
		c.MaxNodes = d.MaxNodes
	} else if c.MaxNodes < 2 {
		c.MaxNodes = 2 // at least 2 nodes are generated
	}
	if c.MaxRels <= 0 {
		c.MaxRels = d.MaxRels
	}
	return c
}

// vocab is the fixed vocabulary every generator draws from, built once:
// labels L0…, relationship types T0…, property names k0…, and each
// property name's type, N mod 5 for kN.
var vocab = func() (v struct {
	labels, relTypes, propNames []string
	props                       map[string]PropType
}) {
	names := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		return out
	}
	v.labels, v.relTypes, v.propNames = names("L", numLabels), names("T", numRelTypes), names("k", numProps)
	v.props = make(map[string]PropType, numProps)
	for i, n := range v.propNames {
		v.props[n] = PropType(i % 5)
	}
	return v
}()

// newSchema returns a schema over the shared vocabulary, without
// indexes.
func newSchema() *Schema {
	return &Schema{Labels: vocab.labels, RelTypes: vocab.relTypes, Props: vocab.props}
}

// Generate produces a random labeled property graph and its schema,
// implementing step ① of the GQS workflow. Generation is deterministic
// for a given rand source.
func Generate(r *rand.Rand, cfg GenConfig) (*Graph, *Schema) {
	if cfg.Scale > 0 {
		// Dispatch before any draw from r so the default path's draw
		// schedule — and every campaign fingerprint derived from it —
		// is untouched by the bulk generator's existence.
		return generateBulk(r, cfg)
	}
	cfg = cfg.withDefaults()
	s := newSchema()
	g := New()
	nNodes := 2 + r.Intn(cfg.MaxNodes-1)
	for i := 0; i < nNodes; i++ {
		labels := pickDistinct(r, s.Labels, 1+r.Intn(maxLabelsPerNode))
		n := g.NewNode(labels...)
		fillProps(r, s, n.Props, maxPropsPerElem)
	}
	ids := g.NodeIDs()
	nRels := 1 + r.Intn(cfg.MaxRels)
	for i := 0; i < nRels; i++ {
		a := ids[r.Intn(len(ids))]
		b := ids[r.Intn(len(ids))]
		if a == b && r.Intn(100) >= cfg.SelfLoopPercent {
			b = ids[(indexOf(ids, a)+1)%len(ids)]
		}
		typ := s.RelTypes[r.Intn(len(s.RelTypes))]
		rel, err := g.NewRel(a, b, typ)
		if err != nil {
			panic("graph: generated relationship between missing nodes: " + err.Error())
		}
		fillProps(r, s, rel.Props, maxPropsPerElem)
	}

	// Index a handful of label+property combinations, as the paper's
	// initializer creates indexes for labels and properties.
	nIdx := 1 + r.Intn(4)
	for i := 0; i < nIdx; i++ {
		s.Indexes = append(s.Indexes, IndexSpec{
			Label:    s.Labels[r.Intn(len(s.Labels))],
			Property: vocab.propNames[r.Intn(numProps)],
		})
	}
	return g, s
}

func indexOf(ids []ID, id ID) int {
	for i, x := range ids {
		if x == id {
			return i
		}
	}
	return 0
}

func pickDistinct(r *rand.Rand, pool []string, n int) []string {
	if n > len(pool) {
		n = len(pool)
	}
	perm := r.Perm(len(pool))
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = pool[perm[i]]
	}
	return out
}

func fillProps(r *rand.Rand, s *Schema, props map[string]value.Value, maxProps int) {
	n := 1 + r.Intn(maxProps)
	for i := 0; i < n; i++ {
		name := vocab.propNames[r.Intn(len(s.Props))]
		props[name] = RandomPropValue(r, s.Props[name])
	}
}

// RandomPropValue generates a random value of the given property type,
// matching the paper's value domains (32-bit integers, short alphanumeric
// strings, booleans, floats, and small string lists).
func RandomPropValue(r *rand.Rand, t PropType) value.Value {
	switch t {
	case PropInt:
		return value.Int(int64(int32(r.Uint32())))
	case PropFloat:
		return value.Float(float64(int32(r.Uint32())) / 1000.0)
	case PropString:
		return value.Str(randomString(r, 5+r.Intn(5)))
	case PropBool:
		return value.Bool(r.Intn(2) == 0)
	case PropStrList:
		n := 1 + r.Intn(3)
		vs := make([]value.Value, n)
		for i := range vs {
			vs[i] = value.Str(randomString(r, 4+r.Intn(4)))
		}
		return value.ListOf(vs)
	default:
		return value.Null
	}
}

const alnum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

// randomString draws a string of n characters of alnum, built in place:
// one allocation.
func randomString(r *rand.Rand, n int) string {
	var b strings.Builder
	b.Grow(n)
	for range n {
		b.WriteByte(alnum[r.Intn(len(alnum))])
	}
	return b.String()
}
