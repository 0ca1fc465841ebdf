// Package ast defines the abstract syntax tree for the Cypher subset used
// throughout this repository: the eleven data-retrieval clauses and
// subclauses plus the six update clauses of openCypher 9 (§2.2 of the GQS
// paper), together with a printer that renders trees back to Cypher text
// and a walker used by the complexity metrics of Table 5.
package ast

import (
	"strconv"

	"gqs/internal/value"
)

// Query is a full Cypher query: one or more single queries combined with
// UNION / UNION ALL.
type Query struct {
	Parts []*SingleQuery
	// All[i] reports whether the UNION between Parts[i] and Parts[i+1]
	// is UNION ALL. Its length is len(Parts)-1.
	All []bool
}

// SingleQuery is a sequence of clauses.
type SingleQuery struct {
	Clauses []Clause
}

// Clause is implemented by all clause nodes.
type Clause interface {
	Node
	clause()
}

// Node is implemented by every AST node.
type Node interface {
	node()
}

// Direction is the direction of a relationship pattern.
type Direction int

// Relationship directions: left (<-[]-), right (-[]->), or undirected (-[]-).
const (
	DirBoth Direction = iota
	DirLeft
	DirRight
)

// NodePattern is a node element of a pattern, e.g. (n:L0 {k: 1}).
type NodePattern struct {
	Variable string // "" if anonymous
	Labels   []string
	Props    *MapLit // nil if absent
}

// RelPattern is a relationship element of a pattern, e.g. -[r:T0]->.
type RelPattern struct {
	Variable  string
	Types     []string
	Props     *MapLit
	Direction Direction
}

// PatternPart is one comma-separated pattern: an alternating chain of
// node and relationship patterns, optionally bound to a path variable.
type PatternPart struct {
	Variable string // path variable, usually ""
	Nodes    []*NodePattern
	Rels     []*RelPattern // len(Rels) == len(Nodes)-1
}

// MatchClause is MATCH or OPTIONAL MATCH with an optional WHERE subclause.
type MatchClause struct {
	Optional bool
	Patterns []*PatternPart
	Where    Expr // nil if absent
}

// UnwindClause is UNWIND expr AS alias.
type UnwindClause struct {
	Expr  Expr
	Alias string
}

// SortItem is one ORDER BY key.
type SortItem struct {
	Expr Expr
	Desc bool
}

// ProjectionItem is one item of a WITH/RETURN projection list.
type ProjectionItem struct {
	Expr  Expr
	Alias string // "" means no AS; the item must then be re-renderable
}

// Projection is the shared body of WITH and RETURN.
type Projection struct {
	Distinct bool
	Star     bool // RETURN * / WITH *
	Items    []*ProjectionItem
	OrderBy  []*SortItem
	Skip     Expr // nil if absent
	Limit    Expr // nil if absent
}

// WithClause is WITH ... [WHERE ...].
type WithClause struct {
	Projection
	Where Expr // nil if absent
}

// ReturnClause is the final RETURN.
type ReturnClause struct {
	Projection
}

// CallClause is CALL proc(args) [YIELD items].
type CallClause struct {
	Procedure string
	Args      []Expr
	Yield     []string
}

// CreateClause is CREATE pattern[, pattern]*.
type CreateClause struct {
	Patterns []*PatternPart
}

// SetItem is one assignment of a SET clause: either a property set
// (subject.prop = expr) or a label set (variable:Label).
type SetItem struct {
	// Property assignment.
	Subject  Expr
	Property string
	Value    Expr
	// Label assignment (when Labels is non-empty, the others are unset).
	Variable string
	Labels   []string
}

// SetClause is SET item[, item]*.
type SetClause struct {
	Items []*SetItem
}

// MergeClause is MERGE pattern [ON CREATE SET ...] [ON MATCH SET ...].
type MergeClause struct {
	Pattern  *PatternPart
	OnCreate []*SetItem
	OnMatch  []*SetItem
}

// DeleteClause is [DETACH] DELETE expr[, expr]*.
type DeleteClause struct {
	Detach bool
	Exprs  []Expr
}

// RemoveItem is one item of a REMOVE clause: a property removal
// (subject.prop) or a label removal (variable:Label).
type RemoveItem struct {
	Subject  Expr
	Property string
	Variable string
	Labels   []string
}

// RemoveClause is REMOVE item[, item]*.
type RemoveClause struct {
	Items []*RemoveItem
}

func (*MatchClause) clause()  {}
func (*UnwindClause) clause() {}
func (*WithClause) clause()   {}
func (*ReturnClause) clause() {}
func (*CallClause) clause()   {}
func (*CreateClause) clause() {}
func (*SetClause) clause()    {}
func (*MergeClause) clause()  {}
func (*DeleteClause) clause() {}
func (*RemoveClause) clause() {}

func (*MatchClause) node()  {}
func (*UnwindClause) node() {}
func (*WithClause) node()   {}
func (*ReturnClause) node() {}
func (*CallClause) node()   {}
func (*CreateClause) node() {}
func (*SetClause) node()    {}
func (*MergeClause) node()  {}
func (*DeleteClause) node() {}
func (*RemoveClause) node() {}

// ClauseName returns the display name of a clause, as used by the
// Figure 11/12 analyses.
func ClauseName(c Clause) string {
	switch c := c.(type) {
	case *MatchClause:
		if c.Optional {
			return "OPTIONAL MATCH"
		}
		return "MATCH"
	case *UnwindClause:
		return "UNWIND"
	case *WithClause:
		return "WITH"
	case *ReturnClause:
		return "RETURN"
	case *CallClause:
		return "CALL"
	case *CreateClause:
		return "CREATE"
	case *SetClause:
		return "SET"
	case *MergeClause:
		return "MERGE"
	case *DeleteClause:
		if c.Detach {
			return "DETACH DELETE"
		}
		return "DELETE"
	case *RemoveClause:
		return "REMOVE"
	default:
		return "?"
	}
}

// ---- Expressions ----

// Expr is implemented by all expression nodes.
type Expr interface {
	Node
	expr()
}

// BinOp is a binary operator.
type BinOp int

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpPow
	OpEq
	OpNeq
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpXor
	OpStartsWith
	OpEndsWith
	OpContains
	OpIn
	OpRegex
)

var binOpNames = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpPow: "^", OpEq: "=", OpNeq: "<>", OpLt: "<", OpLe: "<=",
	OpGt: ">", OpGe: ">=", OpAnd: "AND", OpOr: "OR", OpXor: "XOR",
	OpStartsWith: "STARTS WITH", OpEndsWith: "ENDS WITH",
	OpContains: "CONTAINS", OpIn: "IN", OpRegex: "=~",
}

// String returns the Cypher spelling of the operator.
func (op BinOp) String() string {
	if int(op) < len(binOpNames) {
		return binOpNames[op]
	}
	return "?"
}

// UnOp is a unary operator.
type UnOp int

// Unary operators. IS NULL and IS NOT NULL are postfix in the syntax but
// modelled as unary nodes.
const (
	OpNot UnOp = iota
	OpNeg
	OpIsNull
	OpIsNotNull
)

// Literal is a constant value.
type Literal struct {
	Val value.Value
}

// Variable is a reference to a bound variable.
type Variable struct {
	Name string
}

// PropAccess is subject.prop.
type PropAccess struct {
	Subject Expr
	Name    string
}

// Binary is a binary operator application.
type Binary struct {
	Op   BinOp
	L, R Expr
}

// Unary is a unary operator application.
type Unary struct {
	Op UnOp
	X  Expr
}

// FuncCall is a function invocation. Star marks count(*).
type FuncCall struct {
	Name     string
	Distinct bool
	Star     bool
	Args     []Expr
}

// ListLit is a list literal.
type ListLit struct {
	Elems []Expr
}

// MapLit is a map literal with deterministic key order.
type MapLit struct {
	Keys []string
	Vals []Expr
}

// IndexExpr is subject[index].
type IndexExpr struct {
	Subject Expr
	Index   Expr
}

// SliceExpr is subject[from..to]; From and To may be nil.
type SliceExpr struct {
	Subject Expr
	From    Expr
	To      Expr
}

// CaseExpr is either a simple CASE (Test non-nil) or a generic CASE.
type CaseExpr struct {
	Test  Expr // nil for generic CASE
	Whens []Expr
	Thens []Expr
	Else  Expr // nil if absent
}

// Parameter is $name (parsed for completeness; evaluation resolves it
// against the execution parameters).
type Parameter struct {
	Name string
}

// ListComprehension is [v IN list WHERE pred | mapExpr]; Where and Map
// may be nil.
type ListComprehension struct {
	Var   string
	List  Expr
	Where Expr
	Map   Expr
}

// QuantKind selects a list quantifier.
type QuantKind int

// The four Cypher quantifiers.
const (
	QuantAll QuantKind = iota
	QuantAny
	QuantNone
	QuantSingle
)

// String returns the Cypher spelling of the quantifier.
func (k QuantKind) String() string {
	switch k {
	case QuantAll:
		return "all"
	case QuantAny:
		return "any"
	case QuantNone:
		return "none"
	default:
		return "single"
	}
}

// Quantifier is all/any/none/single(v IN list WHERE pred).
type Quantifier struct {
	Kind QuantKind
	Var  string
	List Expr
	Pred Expr
}

func (*Literal) expr()           {}
func (*Variable) expr()          {}
func (*PropAccess) expr()        {}
func (*Binary) expr()            {}
func (*Unary) expr()             {}
func (*FuncCall) expr()          {}
func (*ListLit) expr()           {}
func (*MapLit) expr()            {}
func (*IndexExpr) expr()         {}
func (*SliceExpr) expr()         {}
func (*CaseExpr) expr()          {}
func (*Parameter) expr()         {}
func (*ListComprehension) expr() {}
func (*Quantifier) expr()        {}

func (*Literal) node()           {}
func (*Variable) node()          {}
func (*PropAccess) node()        {}
func (*Binary) node()            {}
func (*Unary) node()             {}
func (*FuncCall) node()          {}
func (*ListLit) node()           {}
func (*MapLit) node()            {}
func (*IndexExpr) node()         {}
func (*SliceExpr) node()         {}
func (*CaseExpr) node()          {}
func (*Parameter) node()         {}
func (*ListComprehension) node() {}
func (*Quantifier) node()        {}

// Leaf interning. Parsing and synthesis construct enormous numbers of
// identical Variable and Literal leaves (the same few variable names and
// small constants recur in every query). Expression trees are immutable
// after construction — the PreparedQuery sharing contract already depends
// on that — so identical leaves can be one shared node. Only leaf types
// are interned, and only through lock-free precomputed tables: a shared
// map (even sync.Map) costs more per lookup on these paths than the
// allocation it saves. Interior nodes keep distinct identity, so walks
// that compare an interior node against its children by pointer still
// work.
const (
	internIntLo = -16
	internIntHi = 256
	// internVarMax bounds the per-prefix nN/rN/aN/wN variable table;
	// names past it simply allocate. It covers the synthesizer's
	// comprehension variables w0..w99.
	internVarMax = 100
)

var (
	litNull  = &Literal{Val: value.Null}
	litTrue  = &Literal{Val: value.Bool(true)}
	litFalse = &Literal{Val: value.Bool(false)}
	litInts  [internIntHi - internIntLo + 1]*Literal
	// varTab holds the nN/rN/aN names every synthesized query is built
	// from, and the wN of its list comprehensions, indexed by prefix (n,
	// r, a, w) and number.
	varTab [4][internVarMax]*Variable
)

func init() {
	for i := range litInts {
		litInts[i] = &Literal{Val: value.Int(int64(i + internIntLo))}
	}
	for p, c := range [4]byte{'n', 'r', 'a', 'w'} {
		for i := range varTab[p] {
			varTab[p][i] = &Variable{Name: string(c) + strconv.Itoa(i)}
		}
	}
}

// Lit is a convenience constructor for literal expressions. Null, bools,
// and small integers return shared interned nodes.
func Lit(v value.Value) *Literal {
	if l := InternedLit(v); l != nil {
		return l
	}
	return &Literal{Val: v}
}

// InternedLit returns the shared node for v if v is interned (null, a
// bool or a small integer), else nil.
func InternedLit(v value.Value) *Literal {
	switch v.Kind() {
	case value.KindNull:
		return litNull
	case value.KindBool:
		if v.AsBool() {
			return litTrue
		}
		return litFalse
	case value.KindInt:
		if i := v.AsInt(); i >= internIntLo && i <= internIntHi {
			return litInts[i-internIntLo]
		}
	}
	return nil
}

// Var is a convenience constructor for variable references. The
// canonical nN/rN/aN/wN names of plan and synthesis return shared
// interned nodes; anything else allocates.
func Var(name string) *Variable {
	if n := len(name); n >= 2 && n <= 3 && (n == 2 || name[1] != '0') {
		p := -1
		switch name[0] {
		case 'n':
			p = 0
		case 'r':
			p = 1
		case 'a':
			p = 2
		case 'w':
			p = 3
		}
		if p >= 0 {
			i := 0
			for j := 1; j < n; j++ {
				d := int(name[j]) - '0'
				if d < 0 || d > 9 {
					i = internVarMax
					break
				}
				i = i*10 + d
			}
			if i < internVarMax {
				return varTab[p][i]
			}
		}
	}
	return &Variable{Name: name}
}

// Prop is a convenience constructor for variable.property accesses.
func Prop(varName, prop string) *PropAccess {
	return &PropAccess{Subject: Var(varName), Name: prop}
}

// Bin is a convenience constructor for binary applications.
func Bin(op BinOp, l, r Expr) *Binary { return &Binary{Op: op, L: l, R: r} }

// And builds a conjunction of the given predicates, returning nil for an
// empty input and the single predicate for one input.
func And(preds ...Expr) Expr {
	var out Expr
	for _, p := range preds {
		if p == nil {
			continue
		}
		if out == nil {
			out = p
		} else {
			out = Bin(OpAnd, out, p)
		}
	}
	return out
}
