package ast

import (
	"gqs/internal/cypher/lexer"
	"gqs/internal/cypher/token"
)

// appendName appends a label, relationship type, property key, alias,
// map key or parameter name, where the parser also accepts a keyword: in
// backquotes only when it is not a bare identifier.
func appendName(b []byte, name string) []byte {
	if lexer.IsIdentifier(name) {
		return append(b, name...)
	}
	return quoted(b, name)
}

// appendVar appends a variable, which the parser reads only from an
// identifier token: in backquotes also when it spells a keyword.
func appendVar(b []byte, name string) []byte {
	if lexer.IsIdentifier(name) && token.Lookup(name) == token.Ident {
		return append(b, name...)
	}
	return quoted(b, name)
}

// quoted appends name in backquotes.
func quoted(b []byte, name string) []byte {
	b = append(b, '`')
	b = append(b, name...)
	return append(b, '`')
}

// String renders the query back to Cypher text. Binary and unary
// subexpressions are fully parenthesized, which sidesteps precedence
// pitfalls and matches the style of the paper's synthesized queries.
// A text of up to 256 bytes costs one allocation, the string's own.
func (q *Query) String() string {
	var buf [256]byte
	return string(q.Append(buf[:0]))
}

// Append appends the text String returns to b, for a caller that keeps
// the buffer from query to query.
func (q *Query) Append(b []byte) []byte {
	for i, p := range q.Parts {
		if i > 0 {
			b = append(b, " UNION "...)
			if q.All[i-1] {
				b = append(b, "ALL "...)
			}
		}
		b = p.append(b)
	}
	return b
}

// append appends the single query's Cypher text to b.
func (s *SingleQuery) append(b []byte) []byte {
	for i, c := range s.Clauses {
		if i > 0 {
			b = append(b, ' ')
		}
		b = appendClause(b, c)
	}
	return b
}

// String renders a single query.
func (s *SingleQuery) String() string {
	var buf [256]byte
	return string(s.append(buf[:0]))
}

func appendClause(b []byte, c Clause) []byte {
	switch c := c.(type) {
	case *MatchClause:
		if c.Optional {
			b = append(b, "OPTIONAL "...)
		}
		b = append(b, "MATCH "...)
		b = appendPatterns(b, c.Patterns)
		if c.Where != nil {
			b = append(b, " WHERE "...)
			b = appendExpr(b, c.Where)
		}
	case *UnwindClause:
		b = append(b, "UNWIND "...)
		b = appendExpr(b, c.Expr)
		b = append(b, " AS "...)
		b = appendName(b, c.Alias)
	case *WithClause:
		b = append(b, "WITH "...)
		b = appendProjection(b, &c.Projection)
		if c.Where != nil {
			b = append(b, " WHERE "...)
			b = appendExpr(b, c.Where)
		}
	case *ReturnClause:
		b = append(b, "RETURN "...)
		b = appendProjection(b, &c.Projection)
	case *CallClause:
		b = append(b, "CALL "...)
		b = append(b, c.Procedure...)
		b = append(b, '(')
		for i, a := range c.Args {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendExpr(b, a)
		}
		b = append(b, ')')
		for i, y := range c.Yield {
			if i == 0 {
				b = append(b, " YIELD "...)
			} else {
				b = append(b, ", "...)
			}
			b = appendName(b, y)
		}
	case *CreateClause:
		b = append(b, "CREATE "...)
		b = appendPatterns(b, c.Patterns)
	case *SetClause:
		b = append(b, "SET "...)
		for i, it := range c.Items {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendSetItem(b, it)
		}
	case *MergeClause:
		b = append(b, "MERGE "...)
		b = appendPattern(b, c.Pattern)
		if len(c.OnCreate) > 0 {
			b = append(b, " ON CREATE SET "...)
			for i, it := range c.OnCreate {
				if i > 0 {
					b = append(b, ", "...)
				}
				b = appendSetItem(b, it)
			}
		}
		if len(c.OnMatch) > 0 {
			b = append(b, " ON MATCH SET "...)
			for i, it := range c.OnMatch {
				if i > 0 {
					b = append(b, ", "...)
				}
				b = appendSetItem(b, it)
			}
		}
	case *DeleteClause:
		if c.Detach {
			b = append(b, "DETACH "...)
		}
		b = append(b, "DELETE "...)
		for i, e := range c.Exprs {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendExpr(b, e)
		}
	case *RemoveClause:
		b = append(b, "REMOVE "...)
		for i, it := range c.Items {
			if i > 0 {
				b = append(b, ", "...)
			}
			if len(it.Labels) > 0 {
				b = appendVar(b, it.Variable)
				for _, l := range it.Labels {
					b = append(b, ':')
					b = appendName(b, l)
				}
			} else {
				b = appendExpr(b, it.Subject)
				b = append(b, '.')
				b = appendName(b, it.Property)
			}
		}
	}
	return b
}

func appendSetItem(b []byte, it *SetItem) []byte {
	if len(it.Labels) > 0 {
		b = appendVar(b, it.Variable)
		for _, l := range it.Labels {
			b = append(b, ':')
			b = appendName(b, l)
		}
		return b
	}
	b = appendExpr(b, it.Subject)
	b = append(b, '.')
	b = appendName(b, it.Property)
	b = append(b, " = "...)
	b = appendExpr(b, it.Value)
	return b
}

func appendProjection(b []byte, p *Projection) []byte {
	if p.Distinct {
		b = append(b, "DISTINCT "...)
	}
	if p.Star {
		b = append(b, '*')
		if len(p.Items) > 0 {
			b = append(b, ", "...)
		}
	}
	for i, it := range p.Items {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendExpr(b, it.Expr)
		if it.Alias != "" {
			b = append(b, " AS "...)
			b = appendName(b, it.Alias)
		}
	}
	if len(p.OrderBy) > 0 {
		b = append(b, " ORDER BY "...)
		for i, s := range p.OrderBy {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendExpr(b, s.Expr)
			if s.Desc {
				b = append(b, " DESC"...)
			}
		}
	}
	if p.Skip != nil {
		b = append(b, " SKIP "...)
		b = appendExpr(b, p.Skip)
	}
	if p.Limit != nil {
		b = append(b, " LIMIT "...)
		b = appendExpr(b, p.Limit)
	}
	return b
}

func appendPatterns(b []byte, ps []*PatternPart) []byte {
	for i, p := range ps {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendPattern(b, p)
	}
	return b
}

func appendPattern(b []byte, p *PatternPart) []byte {
	if p.Variable != "" {
		b = appendVar(b, p.Variable)
		b = append(b, " = "...)
	}
	for i, n := range p.Nodes {
		if i > 0 {
			r := p.Rels[i-1]
			if r.Direction == DirLeft {
				b = append(b, '<')
			}
			b = append(b, '-')
			if r.Variable != "" || len(r.Types) > 0 || r.Props != nil {
				b = append(b, '[')
				if r.Variable != "" {
					b = appendVar(b, r.Variable)
				}
				for j, t := range r.Types {
					if j == 0 {
						b = append(b, ':')
					} else {
						b = append(b, '|')
					}
					b = appendName(b, t)
				}
				if r.Props != nil {
					b = append(b, ' ')
					b = appendExpr(b, r.Props)
				}
				b = append(b, ']')
			}
			b = append(b, '-')
			if r.Direction == DirRight {
				b = append(b, '>')
			}
		}
		b = append(b, '(')
		if n.Variable != "" {
			b = appendVar(b, n.Variable)
		}
		for _, l := range n.Labels {
			b = append(b, ':')
			b = appendName(b, l)
		}
		if n.Props != nil {
			if n.Variable != "" || len(n.Labels) > 0 {
				b = append(b, ' ')
			}
			b = appendExpr(b, n.Props)
		}
		b = append(b, ')')
	}
	return b
}

// ExprString renders an expression as Cypher text, the name of an
// unaliased projection column. An expression of up to 64 bytes costs
// one allocation, the string's own.
func ExprString(e Expr) string {
	var buf [64]byte
	return string(appendExpr(buf[:0], e))
}

func appendExpr(b []byte, e Expr) []byte {
	switch e := e.(type) {
	case *Literal:
		if e.Val.IsNull() {
			b = append(b, "null"...)
		} else {
			b = e.Val.Append(b)
		}
	case *Variable:
		b = appendVar(b, e.Name)
	case *Parameter:
		b = append(b, '$')
		b = appendName(b, e.Name)
	case *PropAccess:
		b = appendExpr(b, e.Subject)
		b = append(b, '.')
		b = appendName(b, e.Name)
	case *Binary:
		b = append(b, '(')
		b = appendExpr(b, e.L)
		if e.Op == OpPow {
			// No surrounding spaces keeps ^ compact, like the paper's output.
			b = append(b, e.Op.String()...)
		} else {
			b = append(b, ' ')
			b = append(b, e.Op.String()...)
			b = append(b, ' ')
		}
		b = appendExpr(b, e.R)
		b = append(b, ')')
	case *Unary:
		switch e.Op {
		case OpNot:
			b = append(b, "(NOT "...)
			b = appendExpr(b, e.X)
			b = append(b, ')')
		case OpNeg:
			b = append(b, "(-"...)
			b = appendExpr(b, e.X)
			b = append(b, ')')
		case OpIsNull:
			b = append(b, '(')
			b = appendExpr(b, e.X)
			b = append(b, " IS NULL)"...)
		case OpIsNotNull:
			b = append(b, '(')
			b = appendExpr(b, e.X)
			b = append(b, " IS NOT NULL)"...)
		}
	case *FuncCall:
		// count and exists are the keywords the parser takes for function
		// names; any other keyword before '(' is read as the keyword.
		if t := token.Lookup(e.Name); lexer.IsIdentifier(e.Name) && (t == token.Ident || t == token.KwCount || t == token.KwExists) {
			b = append(b, e.Name...)
		} else {
			b = quoted(b, e.Name)
		}
		b = append(b, '(')
		if e.Distinct {
			b = append(b, "DISTINCT "...)
		}
		if e.Star {
			b = append(b, '*')
		}
		for i, a := range e.Args {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendExpr(b, a)
		}
		b = append(b, ')')
	case *ListLit:
		b = append(b, '[')
		for i, el := range e.Elems {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendExpr(b, el)
		}
		b = append(b, ']')
	case *MapLit:
		b = append(b, '{')
		for i, k := range e.Keys {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendName(b, k)
			b = append(b, ": "...)
			b = appendExpr(b, e.Vals[i])
		}
		b = append(b, '}')
	case *IndexExpr:
		b = appendExpr(b, e.Subject)
		b = append(b, '[')
		b = appendExpr(b, e.Index)
		b = append(b, ']')
	case *SliceExpr:
		b = appendExpr(b, e.Subject)
		b = append(b, '[')
		if e.From != nil {
			b = appendExpr(b, e.From)
		}
		b = append(b, ".."...)
		if e.To != nil {
			b = appendExpr(b, e.To)
		}
		b = append(b, ']')
	case *CaseExpr:
		b = append(b, "CASE"...)
		if e.Test != nil {
			b = append(b, ' ')
			b = appendExpr(b, e.Test)
		}
		for i := range e.Whens {
			b = append(b, " WHEN "...)
			b = appendExpr(b, e.Whens[i])
			b = append(b, " THEN "...)
			b = appendExpr(b, e.Thens[i])
		}
		if e.Else != nil {
			b = append(b, " ELSE "...)
			b = appendExpr(b, e.Else)
		}
		b = append(b, " END"...)
	case *ListComprehension:
		b = append(b, '[')
		b = appendVar(b, e.Var)
		b = append(b, " IN "...)
		b = appendExpr(b, e.List)
		if e.Where != nil {
			b = append(b, " WHERE "...)
			b = appendExpr(b, e.Where)
		}
		if e.Map != nil {
			b = append(b, " | "...)
			b = appendExpr(b, e.Map)
		}
		b = append(b, ']')
	case *Quantifier:
		b = append(b, e.Kind.String()...)
		b = append(b, '(')
		b = appendVar(b, e.Var)
		b = append(b, " IN "...)
		b = appendExpr(b, e.List)
		b = append(b, " WHERE "...)
		b = appendExpr(b, e.Pred)
		b = append(b, ')')
	}
	return b
}
