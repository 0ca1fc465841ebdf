package ast

import (
	"strings"

	"gqs/internal/cypher/lexer"
	"gqs/internal/cypher/token"
)

// writeName writes a label, relationship type, property key, alias, map
// key or parameter name, where the parser also accepts a keyword: in
// backquotes only when it is not a bare identifier.
func writeName(sb *strings.Builder, name string) {
	if lexer.IsIdentifier(name) {
		sb.WriteString(name)
		return
	}
	sb.WriteByte('`')
	sb.WriteString(name)
	sb.WriteByte('`')
}

// writeVar writes a variable, which the parser reads only from an
// identifier token: in backquotes also when it spells a keyword.
func writeVar(sb *strings.Builder, name string) {
	if lexer.IsIdentifier(name) && token.Lookup(name) == token.Ident {
		sb.WriteString(name)
		return
	}
	sb.WriteByte('`')
	sb.WriteString(name)
	sb.WriteByte('`')
}

// String renders the query back to Cypher text. Binary and unary
// subexpressions are fully parenthesized, which sidesteps precedence
// pitfalls and matches the style of the paper's synthesized queries.
func (q *Query) String() string {
	var sb strings.Builder
	sb.Grow(256)
	q.Print(&sb)
	return sb.String()
}

// Print writes the text String returns to sb, for a caller that sizes
// the builder itself.
func (q *Query) Print(sb *strings.Builder) {
	for i, p := range q.Parts {
		if i > 0 {
			sb.WriteString(" UNION ")
			if q.All[i-1] {
				sb.WriteString("ALL ")
			}
		}
		p.print(sb)
	}
}

// String renders the single query as Cypher text.
func (s *SingleQuery) print(sb *strings.Builder) {
	for i, c := range s.Clauses {
		if i > 0 {
			sb.WriteByte(' ')
		}
		printClause(sb, c)
	}
}

// String renders a single query.
func (s *SingleQuery) String() string {
	var sb strings.Builder
	s.print(&sb)
	return sb.String()
}

func printClause(sb *strings.Builder, c Clause) {
	switch c := c.(type) {
	case *MatchClause:
		if c.Optional {
			sb.WriteString("OPTIONAL ")
		}
		sb.WriteString("MATCH ")
		printPatterns(sb, c.Patterns)
		if c.Where != nil {
			sb.WriteString(" WHERE ")
			printExpr(sb, c.Where)
		}
	case *UnwindClause:
		sb.WriteString("UNWIND ")
		printExpr(sb, c.Expr)
		sb.WriteString(" AS ")
		writeName(sb, c.Alias)
	case *WithClause:
		sb.WriteString("WITH ")
		printProjection(sb, &c.Projection)
		if c.Where != nil {
			sb.WriteString(" WHERE ")
			printExpr(sb, c.Where)
		}
	case *ReturnClause:
		sb.WriteString("RETURN ")
		printProjection(sb, &c.Projection)
	case *CallClause:
		sb.WriteString("CALL ")
		sb.WriteString(c.Procedure)
		sb.WriteByte('(')
		for i, a := range c.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			printExpr(sb, a)
		}
		sb.WriteByte(')')
		for i, y := range c.Yield {
			if i == 0 {
				sb.WriteString(" YIELD ")
			} else {
				sb.WriteString(", ")
			}
			writeName(sb, y)
		}
	case *CreateClause:
		sb.WriteString("CREATE ")
		printPatterns(sb, c.Patterns)
	case *SetClause:
		sb.WriteString("SET ")
		for i, it := range c.Items {
			if i > 0 {
				sb.WriteString(", ")
			}
			printSetItem(sb, it)
		}
	case *MergeClause:
		sb.WriteString("MERGE ")
		printPattern(sb, c.Pattern)
		if len(c.OnCreate) > 0 {
			sb.WriteString(" ON CREATE SET ")
			for i, it := range c.OnCreate {
				if i > 0 {
					sb.WriteString(", ")
				}
				printSetItem(sb, it)
			}
		}
		if len(c.OnMatch) > 0 {
			sb.WriteString(" ON MATCH SET ")
			for i, it := range c.OnMatch {
				if i > 0 {
					sb.WriteString(", ")
				}
				printSetItem(sb, it)
			}
		}
	case *DeleteClause:
		if c.Detach {
			sb.WriteString("DETACH ")
		}
		sb.WriteString("DELETE ")
		for i, e := range c.Exprs {
			if i > 0 {
				sb.WriteString(", ")
			}
			printExpr(sb, e)
		}
	case *RemoveClause:
		sb.WriteString("REMOVE ")
		for i, it := range c.Items {
			if i > 0 {
				sb.WriteString(", ")
			}
			if len(it.Labels) > 0 {
				writeVar(sb, it.Variable)
				for _, l := range it.Labels {
					sb.WriteByte(':')
					writeName(sb, l)
				}
			} else {
				printExpr(sb, it.Subject)
				sb.WriteByte('.')
				writeName(sb, it.Property)
			}
		}
	}
}

func printSetItem(sb *strings.Builder, it *SetItem) {
	if len(it.Labels) > 0 {
		writeVar(sb, it.Variable)
		for _, l := range it.Labels {
			sb.WriteByte(':')
			writeName(sb, l)
		}
		return
	}
	printExpr(sb, it.Subject)
	sb.WriteByte('.')
	writeName(sb, it.Property)
	sb.WriteString(" = ")
	printExpr(sb, it.Value)
}

func printProjection(sb *strings.Builder, p *Projection) {
	if p.Distinct {
		sb.WriteString("DISTINCT ")
	}
	if p.Star {
		sb.WriteByte('*')
		if len(p.Items) > 0 {
			sb.WriteString(", ")
		}
	}
	for i, it := range p.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		printExpr(sb, it.Expr)
		if it.Alias != "" {
			sb.WriteString(" AS ")
			writeName(sb, it.Alias)
		}
	}
	if len(p.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, s := range p.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			printExpr(sb, s.Expr)
			if s.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if p.Skip != nil {
		sb.WriteString(" SKIP ")
		printExpr(sb, p.Skip)
	}
	if p.Limit != nil {
		sb.WriteString(" LIMIT ")
		printExpr(sb, p.Limit)
	}
}

func printPatterns(sb *strings.Builder, ps []*PatternPart) {
	for i, p := range ps {
		if i > 0 {
			sb.WriteString(", ")
		}
		printPattern(sb, p)
	}
}

func printPattern(sb *strings.Builder, p *PatternPart) {
	if p.Variable != "" {
		writeVar(sb, p.Variable)
		sb.WriteString(" = ")
	}
	for i, n := range p.Nodes {
		if i > 0 {
			r := p.Rels[i-1]
			if r.Direction == DirLeft {
				sb.WriteByte('<')
			}
			sb.WriteByte('-')
			if r.Variable != "" || len(r.Types) > 0 || r.Props != nil {
				sb.WriteByte('[')
				if r.Variable != "" {
					writeVar(sb, r.Variable)
				}
				for j, t := range r.Types {
					if j == 0 {
						sb.WriteByte(':')
					} else {
						sb.WriteByte('|')
					}
					writeName(sb, t)
				}
				if r.Props != nil {
					sb.WriteByte(' ')
					printExpr(sb, r.Props)
				}
				sb.WriteByte(']')
			}
			sb.WriteByte('-')
			if r.Direction == DirRight {
				sb.WriteByte('>')
			}
		}
		sb.WriteByte('(')
		if n.Variable != "" {
			writeVar(sb, n.Variable)
		}
		for _, l := range n.Labels {
			sb.WriteByte(':')
			writeName(sb, l)
		}
		if n.Props != nil {
			if n.Variable != "" || len(n.Labels) > 0 {
				sb.WriteByte(' ')
			}
			printExpr(sb, n.Props)
		}
		sb.WriteByte(')')
	}
}

// ExprString renders an expression as Cypher text.
func ExprString(e Expr) string {
	var sb strings.Builder
	printExpr(&sb, e)
	return sb.String()
}

func printExpr(sb *strings.Builder, e Expr) {
	switch e := e.(type) {
	case *Literal:
		if e.Val.IsNull() {
			sb.WriteString("null")
		} else {
			e.Val.Format(sb)
		}
	case *Variable:
		writeVar(sb, e.Name)
	case *Parameter:
		sb.WriteByte('$')
		writeName(sb, e.Name)
	case *PropAccess:
		printExpr(sb, e.Subject)
		sb.WriteByte('.')
		writeName(sb, e.Name)
	case *Binary:
		sb.WriteByte('(')
		printExpr(sb, e.L)
		if e.Op == OpPow {
			// No surrounding spaces keeps ^ compact, like the paper's output.
			sb.WriteString(e.Op.String())
		} else {
			sb.WriteByte(' ')
			sb.WriteString(e.Op.String())
			sb.WriteByte(' ')
		}
		printExpr(sb, e.R)
		sb.WriteByte(')')
	case *Unary:
		switch e.Op {
		case OpNot:
			sb.WriteString("(NOT ")
			printExpr(sb, e.X)
			sb.WriteByte(')')
		case OpNeg:
			sb.WriteString("(-")
			printExpr(sb, e.X)
			sb.WriteByte(')')
		case OpIsNull:
			sb.WriteByte('(')
			printExpr(sb, e.X)
			sb.WriteString(" IS NULL)")
		case OpIsNotNull:
			sb.WriteByte('(')
			printExpr(sb, e.X)
			sb.WriteString(" IS NOT NULL)")
		}
	case *FuncCall:
		// count and exists are the keywords the parser takes for function
		// names; any other keyword before '(' is read as the keyword.
		if t := token.Lookup(e.Name); lexer.IsIdentifier(e.Name) && (t == token.Ident || t == token.KwCount || t == token.KwExists) {
			sb.WriteString(e.Name)
		} else {
			sb.WriteByte('`')
			sb.WriteString(e.Name)
			sb.WriteByte('`')
		}
		sb.WriteByte('(')
		if e.Distinct {
			sb.WriteString("DISTINCT ")
		}
		if e.Star {
			sb.WriteByte('*')
		}
		for i, a := range e.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			printExpr(sb, a)
		}
		sb.WriteByte(')')
	case *ListLit:
		sb.WriteByte('[')
		for i, el := range e.Elems {
			if i > 0 {
				sb.WriteString(", ")
			}
			printExpr(sb, el)
		}
		sb.WriteByte(']')
	case *MapLit:
		sb.WriteByte('{')
		for i, k := range e.Keys {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeName(sb, k)
			sb.WriteString(": ")
			printExpr(sb, e.Vals[i])
		}
		sb.WriteByte('}')
	case *IndexExpr:
		printExpr(sb, e.Subject)
		sb.WriteByte('[')
		printExpr(sb, e.Index)
		sb.WriteByte(']')
	case *SliceExpr:
		printExpr(sb, e.Subject)
		sb.WriteByte('[')
		if e.From != nil {
			printExpr(sb, e.From)
		}
		sb.WriteString("..")
		if e.To != nil {
			printExpr(sb, e.To)
		}
		sb.WriteByte(']')
	case *CaseExpr:
		sb.WriteString("CASE")
		if e.Test != nil {
			sb.WriteByte(' ')
			printExpr(sb, e.Test)
		}
		for i := range e.Whens {
			sb.WriteString(" WHEN ")
			printExpr(sb, e.Whens[i])
			sb.WriteString(" THEN ")
			printExpr(sb, e.Thens[i])
		}
		if e.Else != nil {
			sb.WriteString(" ELSE ")
			printExpr(sb, e.Else)
		}
		sb.WriteString(" END")
	case *ListComprehension:
		sb.WriteByte('[')
		writeVar(sb, e.Var)
		sb.WriteString(" IN ")
		printExpr(sb, e.List)
		if e.Where != nil {
			sb.WriteString(" WHERE ")
			printExpr(sb, e.Where)
		}
		if e.Map != nil {
			sb.WriteString(" | ")
			printExpr(sb, e.Map)
		}
		sb.WriteByte(']')
	case *Quantifier:
		sb.WriteString(e.Kind.String())
		sb.WriteByte('(')
		writeVar(sb, e.Var)
		sb.WriteString(" IN ")
		printExpr(sb, e.List)
		sb.WriteString(" WHERE ")
		printExpr(sb, e.Pred)
		sb.WriteByte(')')
	}
}
