// Package parser implements a recursive-descent parser for the Cypher
// subset of this repository. It produces ast.Query trees and is used both
// by the query engine front end and by the complexity analyses (Table 5),
// which parse the queries generated by each tester.
package parser

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"gqs/internal/cypher/ast"
	"gqs/internal/cypher/lexer"
	"gqs/internal/cypher/token"
	"gqs/internal/value"
)

// parses counts Parse calls process-wide. The prepared-execution layer
// exists to drive parses-per-oracle-check down to one; the benchmarks
// read this counter to verify the claim empirically instead of trusting
// the call graph.
var parses atomic.Int64

// Parses returns the number of full-query Parse calls since process
// start. Callers measuring a code region record the value before and
// after and subtract; the counter is atomic and safe to read anywhere.
func Parses() int64 { return parses.Load() }

// Error is a syntax error with its byte offset in the source.
type Error struct {
	Pos int
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("parse error at %d: %s", e.Pos, e.Msg) }

// parser is a recursive-descent parser over a streaming lexer: it keeps
// the current token and up to three peeked ones (the grammar looks at
// most three tokens ahead), so a parse materializes no token slice.
//
// A parse allocates nothing besides the tree, and the tree itself in
// chunks. Each list the tree holds is built on a scratch stack of its
// element type — a nested list pushes above its parent's elements and
// is popped before the parent grows again — and a closed list is copied
// into a shared slab at its exact length. The commonest node types come
// from chunked arenas. A tree therefore shares its backing arrays
// between nodes, which is safe because trees are immutable once built
// and every list is capped at its length.
type parser struct {
	lx  lexer.Lexer
	tok token.Token // current token
	// ahead[:nahead] are the tokens after tok that were peeked at.
	ahead  [3]token.Token
	nahead int
	// done is set once the lexer returned EOF or Illegal, the token in
	// last; from then on every further token is that one again.
	done bool
	last token.Token

	exprs    stack[ast.Expr]
	names    stack[string]
	clauses  stack[ast.Clause]
	patterns stack[*ast.PatternPart]
	nodes    stack[*ast.NodePattern]
	rels     stack[*ast.RelPattern]
	items    stack[*ast.ProjectionItem]
	sorts    stack[*ast.SortItem]

	nodePats ast.Chunk[ast.NodePattern]
	relPats  ast.Chunk[ast.RelPattern]
	binaries ast.Chunk[ast.Binary]
	props    ast.Chunk[ast.PropAccess]
	literals ast.Chunk[ast.Literal]
	calls    ast.Chunk[ast.FuncCall]
}

// stack holds the open lists of one element type and the slab the
// closed ones are copied into. The first open elements live in the stack
// itself, and so in the parser, which stays off the heap: a typical
// query never grows the stack.
type stack[T any] struct {
	fixed [8]T
	n     int // open elements in fixed
	spill []T // open elements beyond fixed
	slab  []T
}

func (s *stack[T]) push(v T) {
	if s.n < len(s.fixed) {
		s.fixed[s.n] = v
		s.n++
		return
	}
	s.spill = append(s.spill, v)
}

// mark returns the base of a list opened now.
func (s *stack[T]) mark() int { return s.n + len(s.spill) }

// pop closes the list opened at base and returns its elements, or nil if
// there are none.
func (s *stack[T]) pop(base int) []T {
	out := ast.Window(&s.slab, s.mark()-base, ast.NextChunkCap)
	k := 0
	if base < s.n {
		k = copy(out, s.fixed[base:s.n])
		s.n = base
	}
	spilled := max(base-len(s.fixed), 0)
	copy(out[k:], s.spill[spilled:])
	s.spill = s.spill[:spilled]
	return out
}

func newParser(src string) *parser {
	p := &parser{}
	p.lx.Reset(src)
	p.tok = p.lex()
	return p
}

// Parse parses a complete Cypher query.
func Parse(src string) (*ast.Query, error) {
	parses.Add(1)
	p := newParser(src)
	q, err := p.parseQuery()
	if err == nil {
		// Allow a trailing semicolon.
		p.accept(token.Semi)
		if p.tok.Type != token.EOF {
			err = p.errf("unexpected %s after end of query", p.tok.Type)
		}
	}
	if err != nil {
		return nil, p.lexErrOr(err)
	}
	return q, nil
}

// ParseExpr parses a standalone expression (used by tests and tools).
func ParseExpr(src string) (ast.Expr, error) {
	p := newParser(src)
	e, err := p.parseExpr()
	if err == nil && p.tok.Type != token.EOF {
		err = p.errf("unexpected %s after expression", p.tok.Type)
	}
	if err != nil {
		return nil, p.lexErrOr(err)
	}
	return e, nil
}

// lexErrOr returns the first lexical error of the whole input if there
// is one, else err: a lexical error anywhere takes precedence over a
// syntax error, as when the input was tokenized before parsing. Only a
// failed parse pays for lexing the rest of the input.
func (p *parser) lexErrOr(err error) error {
	for !p.done {
		p.lex()
	}
	if lerr := p.lx.Err(); lerr != nil {
		return lerr
	}
	return err
}

// lex returns the lexer's next token, or the final one again once the
// input is exhausted.
func (p *parser) lex() token.Token {
	if p.done {
		return p.last
	}
	t := p.lx.Next()
	if t.Type == token.EOF || t.Type == token.Illegal {
		p.done, p.last = true, t
	}
	return t
}

// at returns the token i ≥ 1 positions after the current one.
func (p *parser) at(i int) token.Token {
	for p.nahead < i {
		p.ahead[p.nahead] = p.lex()
		p.nahead++
	}
	return p.ahead[i-1]
}

func (p *parser) cur() token.Token  { return p.tok }
func (p *parser) peek() token.Token { return p.at(1) }

// next consumes the current token and returns it. Past the end of the
// input the final EOF (or Illegal) token stays current.
func (p *parser) next() token.Token {
	t := p.tok
	if p.nahead == 0 {
		p.tok = p.lex()
	} else {
		p.shift()
	}
	return t
}

// shift makes the first peeked token current.
func (p *parser) shift() {
	p.tok = p.ahead[0]
	copy(p.ahead[:], p.ahead[1:p.nahead])
	p.nahead--
}

func (p *parser) accept(t token.Type) bool {
	if p.cur().Type == t {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(t token.Type) (token.Token, error) {
	if p.cur().Type == t {
		return p.next(), nil
	}
	return token.Token{}, p.errf("expected %s, found %s", t, p.cur().Type)
}

func (p *parser) errf(format string, args ...any) error {
	return &Error{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

// identLike consumes an identifier or any keyword used as a name (Cypher
// keywords are not reserved in name positions).
func (p *parser) identLike() (string, error) {
	t := p.cur()
	if t.Type == token.Ident || t.Type >= token.KwMatch {
		p.next()
		return t.Lit, nil
	}
	return "", p.errf("expected identifier, found %s", t.Type)
}

func (p *parser) parseQuery() (*ast.Query, error) {
	// The query, its first part and the parts array of a single-part
	// query, the common case, are one allocation.
	qa := &struct {
		q      ast.Query
		single ast.SingleQuery
		first  [1]*ast.SingleQuery
	}{}
	q := &qa.q
	for {
		s := &qa.single
		if q.Parts != nil {
			s = new(ast.SingleQuery)
		}
		if err := p.parseSingleQuery(s); err != nil {
			return nil, err
		}
		if q.Parts == nil {
			qa.first[0] = s
			q.Parts = qa.first[:1:1]
		} else {
			q.Parts = append(q.Parts, s)
		}
		if !p.accept(token.KwUnion) {
			break
		}
		q.All = append(q.All, p.accept(token.KwAll))
	}
	return q, nil
}

// parseSingleQuery parses one UNION arm into s.
func (p *parser) parseSingleQuery(s *ast.SingleQuery) error {
	base := p.clauses.mark()
	for {
		c, err := p.parseClause()
		if err != nil {
			return err
		}
		if c == nil {
			break
		}
		p.clauses.push(c)
	}
	s.Clauses = p.clauses.pop(base)
	if len(s.Clauses) == 0 {
		return p.errf("expected a clause, found %s", p.cur().Type)
	}
	return nil
}

func (p *parser) parseClause() (ast.Clause, error) {
	switch p.cur().Type {
	case token.KwMatch:
		p.next()
		return p.parseMatch(false)
	case token.KwOptional:
		p.next()
		if _, err := p.expect(token.KwMatch); err != nil {
			return nil, err
		}
		return p.parseMatch(true)
	case token.KwUnwind:
		p.next()
		return p.parseUnwind()
	case token.KwWith:
		p.next()
		return p.parseWith()
	case token.KwReturn:
		p.next()
		return p.parseReturn()
	case token.KwCall:
		p.next()
		return p.parseCall()
	case token.KwCreate:
		p.next()
		return p.parseCreate()
	case token.KwMerge:
		p.next()
		return p.parseMerge()
	case token.KwSet:
		p.next()
		items, err := p.parseSetItems()
		if err != nil {
			return nil, err
		}
		return &ast.SetClause{Items: items}, nil
	case token.KwDelete:
		p.next()
		return p.parseDelete(false)
	case token.KwDetach:
		p.next()
		if _, err := p.expect(token.KwDelete); err != nil {
			return nil, err
		}
		return p.parseDelete(true)
	case token.KwRemove:
		p.next()
		return p.parseRemove()
	default:
		return nil, nil
	}
}

func (p *parser) parseMatch(optional bool) (ast.Clause, error) {
	pats, err := p.parsePatterns()
	if err != nil {
		return nil, err
	}
	m := &ast.MatchClause{Optional: optional, Patterns: pats}
	if p.accept(token.KwWhere) {
		if m.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (p *parser) parseUnwind() (ast.Clause, error) {
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.KwAs); err != nil {
		return nil, err
	}
	alias, err := p.identLike()
	if err != nil {
		return nil, err
	}
	return &ast.UnwindClause{Expr: e, Alias: alias}, nil
}

func (p *parser) parseWith() (ast.Clause, error) {
	w := &ast.WithClause{}
	err := p.parseProjection(&w.Projection)
	if err != nil {
		return nil, err
	}
	if p.accept(token.KwWhere) {
		if w.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (p *parser) parseReturn() (ast.Clause, error) {
	r := &ast.ReturnClause{}
	if err := p.parseProjection(&r.Projection); err != nil {
		return nil, err
	}
	return r, nil
}

// parseProjection parses a WITH/RETURN body into the clause's own
// Projection.
func (p *parser) parseProjection(proj *ast.Projection) error {
	proj.Distinct = p.accept(token.KwDistinct)
	if p.accept(token.Star) {
		proj.Star = true
		if !p.accept(token.Comma) {
			return p.parseProjectionTail(proj)
		}
	}
	base := p.items.mark()
	for {
		e, err := p.parseExpr()
		if err != nil {
			return err
		}
		item := &ast.ProjectionItem{Expr: e}
		if p.accept(token.KwAs) {
			if item.Alias, err = p.identLike(); err != nil {
				return err
			}
		}
		p.items.push(item)
		if !p.accept(token.Comma) {
			break
		}
	}
	proj.Items = p.items.pop(base)
	return p.parseProjectionTail(proj)
}

func (p *parser) parseProjectionTail(proj *ast.Projection) error {
	if p.accept(token.KwOrder) {
		if _, err := p.expect(token.KwBy); err != nil {
			return err
		}
		base := p.sorts.mark()
		for {
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			s := &ast.SortItem{Expr: e}
			switch p.cur().Type {
			case token.KwDesc, token.KwDescending:
				p.next()
				s.Desc = true
			case token.KwAsc, token.KwAscending:
				p.next()
			}
			p.sorts.push(s)
			if !p.accept(token.Comma) {
				break
			}
		}
		proj.OrderBy = p.sorts.pop(base)
	}
	var err error
	if p.accept(token.KwSkip) {
		if proj.Skip, err = p.parseExpr(); err != nil {
			return err
		}
	}
	if p.accept(token.KwLimit) {
		if proj.Limit, err = p.parseExpr(); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) parseCall() (ast.Clause, error) {
	name, err := p.identLike()
	if err != nil {
		return nil, err
	}
	for p.accept(token.Dot) {
		part, err := p.identLike()
		if err != nil {
			return nil, err
		}
		name += "." + part
	}
	c := &ast.CallClause{Procedure: name}
	if p.accept(token.LParen) {
		if c.Args, err = p.parseArgs(token.RParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
	}
	if p.accept(token.KwYield) {
		base := p.names.mark()
		for {
			y, err := p.identLike()
			if err != nil {
				return nil, err
			}
			p.names.push(y)
			if !p.accept(token.Comma) {
				break
			}
		}
		c.Yield = p.names.pop(base)
	}
	return c, nil
}

func (p *parser) parseCreate() (ast.Clause, error) {
	pats, err := p.parsePatterns()
	if err != nil {
		return nil, err
	}
	return &ast.CreateClause{Patterns: pats}, nil
}

func (p *parser) parseMerge() (ast.Clause, error) {
	pat, err := p.parsePattern()
	if err != nil {
		return nil, err
	}
	m := &ast.MergeClause{Pattern: pat}
	for p.cur().Type == token.KwOn {
		p.next()
		which := p.cur().Type
		if which != token.KwCreate && which != token.KwMatch {
			return nil, p.errf("expected CREATE or MATCH after ON")
		}
		p.next()
		if _, err := p.expect(token.KwSet); err != nil {
			return nil, err
		}
		items, err := p.parseSetItems()
		if err != nil {
			return nil, err
		}
		if which == token.KwCreate {
			m.OnCreate = append(m.OnCreate, items...)
		} else {
			m.OnMatch = append(m.OnMatch, items...)
		}
	}
	return m, nil
}

func (p *parser) parseSetItems() ([]*ast.SetItem, error) {
	var items []*ast.SetItem
	for {
		it, err := p.parseSetItem()
		if err != nil {
			return nil, err
		}
		items = append(items, it)
		if !p.accept(token.Comma) {
			break
		}
	}
	return items, nil
}

func (p *parser) parseSetItem() (*ast.SetItem, error) {
	// Label form: variable:Label(:Label)*
	if p.cur().Type == token.Ident && p.peek().Type == token.Colon {
		name := p.next().Lit
		labels, err := p.parseLabels()
		if err != nil {
			return nil, err
		}
		return &ast.SetItem{Variable: name, Labels: labels}, nil
	}
	// Property form: expr.prop = expr
	subject, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	pa, ok := subject.(*ast.PropAccess)
	if !ok {
		return nil, p.errf("SET requires a property expression")
	}
	if _, err := p.expect(token.Eq); err != nil {
		return nil, err
	}
	v, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &ast.SetItem{Subject: pa.Subject, Property: pa.Name, Value: v}, nil
}

func (p *parser) parseDelete(detach bool) (ast.Clause, error) {
	d := &ast.DeleteClause{Detach: detach}
	base := p.exprs.mark()
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.exprs.push(e)
		if !p.accept(token.Comma) {
			break
		}
	}
	d.Exprs = p.exprs.pop(base)
	return d, nil
}

func (p *parser) parseRemove() (ast.Clause, error) {
	r := &ast.RemoveClause{}
	for {
		if p.cur().Type == token.Ident && p.peek().Type == token.Colon {
			name := p.next().Lit
			labels, err := p.parseLabels()
			if err != nil {
				return nil, err
			}
			r.Items = append(r.Items, &ast.RemoveItem{Variable: name, Labels: labels})
		} else {
			subject, err := p.parsePostfix()
			if err != nil {
				return nil, err
			}
			pa, ok := subject.(*ast.PropAccess)
			if !ok {
				return nil, p.errf("REMOVE requires a property expression")
			}
			r.Items = append(r.Items, &ast.RemoveItem{Subject: pa.Subject, Property: pa.Name})
		}
		if !p.accept(token.Comma) {
			break
		}
	}
	return r, nil
}

func (p *parser) parsePatterns() ([]*ast.PatternPart, error) {
	base := p.patterns.mark()
	for {
		pat, err := p.parsePattern()
		if err != nil {
			return nil, err
		}
		p.patterns.push(pat)
		if !p.accept(token.Comma) {
			break
		}
	}
	return p.patterns.pop(base), nil
}

func (p *parser) parsePattern() (*ast.PatternPart, error) {
	pat := &ast.PatternPart{}
	// Optional path binding: var = (...)
	if p.cur().Type == token.Ident && p.peek().Type == token.Eq {
		pat.Variable = p.next().Lit
		p.next() // =
	}
	n, err := p.parseNodePattern()
	if err != nil {
		return nil, err
	}
	nodeBase, relBase := p.nodes.mark(), p.rels.mark()
	p.nodes.push(n)
	for p.cur().Type == token.Lt || p.cur().Type == token.Minus {
		r, err := p.parseRelPattern()
		if err != nil {
			return nil, err
		}
		n, err := p.parseNodePattern()
		if err != nil {
			return nil, err
		}
		p.rels.push(r)
		p.nodes.push(n)
	}
	pat.Nodes, pat.Rels = p.nodes.pop(nodeBase), p.rels.pop(relBase)
	return pat, nil
}

func (p *parser) parseNodePattern() (*ast.NodePattern, error) {
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	n := p.nodePats.Alloc()
	if p.cur().Type == token.Ident {
		n.Variable = p.next().Lit
	}
	var err error
	if n.Labels, err = p.parseLabels(); err != nil {
		return nil, err
	}
	if p.cur().Type == token.LBrace {
		m, err := p.parseMapLit()
		if err != nil {
			return nil, err
		}
		n.Props = m
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	return n, nil
}

func (p *parser) parseRelPattern() (*ast.RelPattern, error) {
	r := p.relPats.Alloc()
	r.Direction = ast.DirBoth
	left := p.accept(token.Lt)
	if _, err := p.expect(token.Minus); err != nil {
		return nil, err
	}
	if p.accept(token.LBracket) {
		if p.cur().Type == token.Ident {
			r.Variable = p.next().Lit
		}
		if p.accept(token.Colon) {
			base := p.names.mark()
			for {
				t, err := p.identLike()
				if err != nil {
					return nil, err
				}
				p.names.push(t)
				if !p.accept(token.Pipe) {
					break
				}
				p.accept(token.Colon) // tolerate :T1|:T2 form
			}
			r.Types = p.names.pop(base)
		}
		if p.cur().Type == token.LBrace {
			m, err := p.parseMapLit()
			if err != nil {
				return nil, err
			}
			r.Props = m
		}
		if _, err := p.expect(token.RBracket); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(token.Minus); err != nil {
		return nil, err
	}
	right := p.accept(token.Gt)
	switch {
	case left && right:
		// Cypher has no <-[]-> arrows; FalkorDB accepts them as
		// undirected (the Figure 1 query uses one), so we do too.
		r.Direction = ast.DirBoth
	case left:
		r.Direction = ast.DirLeft
	case right:
		r.Direction = ast.DirRight
	}
	return r, nil
}

// parseLabels parses a possibly empty :L1:L2... label list.
func (p *parser) parseLabels() ([]string, error) {
	base := p.names.mark()
	for p.accept(token.Colon) {
		l, err := p.identLike()
		if err != nil {
			return nil, err
		}
		p.names.push(l)
	}
	return p.names.pop(base), nil
}

// parseArgs parses a possibly empty comma-separated expression list up
// to, not including, the closing token.
func (p *parser) parseArgs(closing token.Type) ([]ast.Expr, error) {
	base := p.exprs.mark()
	for p.cur().Type != closing {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.exprs.push(e)
		if !p.accept(token.Comma) {
			break
		}
	}
	return p.exprs.pop(base), nil
}

func (p *parser) parseMapLit() (*ast.MapLit, error) {
	if _, err := p.expect(token.LBrace); err != nil {
		return nil, err
	}
	keyBase, valBase := p.names.mark(), p.exprs.mark()
	for p.cur().Type != token.RBrace {
		k, err := p.identLike()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.Colon); err != nil {
			return nil, err
		}
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.names.push(k)
		p.exprs.push(v)
		if !p.accept(token.Comma) {
			break
		}
	}
	if _, err := p.expect(token.RBrace); err != nil {
		return nil, err
	}
	return &ast.MapLit{Keys: p.names.pop(keyBase), Vals: p.exprs.pop(valBase)}, nil
}

// ---- Expressions ----

func (p *parser) bin(op ast.BinOp, l, r ast.Expr) *ast.Binary {
	b := p.binaries.Alloc()
	*b = ast.Binary{Op: op, L: l, R: r}
	return b
}

// lit returns a literal node: the shared one ast.Lit interns for v, or
// one from the arena.
func (p *parser) lit(v value.Value) *ast.Literal {
	if l := ast.InternedLit(v); l != nil {
		return l
	}
	l := p.literals.Alloc()
	l.Val = v
	return l
}

func (p *parser) parseExpr() (ast.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (ast.Expr, error) {
	l, err := p.parseXor()
	if err != nil {
		return nil, err
	}
	for p.accept(token.KwOr) {
		r, err := p.parseXor()
		if err != nil {
			return nil, err
		}
		l = p.bin(ast.OpOr, l, r)
	}
	return l, nil
}

func (p *parser) parseXor() (ast.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(token.KwXor) {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = p.bin(ast.OpXor, l, r)
	}
	return l, nil
}

func (p *parser) parseAnd() (ast.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(token.KwAnd) {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = p.bin(ast.OpAnd, l, r)
	}
	return l, nil
}

func (p *parser) parseNot() (ast.Expr, error) {
	if p.accept(token.KwNot) {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Op: ast.OpNot, X: x}, nil
	}
	return p.parseComparison()
}

// comparisonOp maps a comparison token to its operator.
func comparisonOp(t token.Type) (ast.BinOp, bool) {
	switch t {
	case token.Eq:
		return ast.OpEq, true
	case token.Neq:
		return ast.OpNeq, true
	case token.Lt:
		return ast.OpLt, true
	case token.Le:
		return ast.OpLe, true
	case token.Gt:
		return ast.OpGt, true
	case token.Ge:
		return ast.OpGe, true
	case token.Regex:
		return ast.OpRegex, true
	}
	return 0, false
}

func (p *parser) parseComparison() (ast.Expr, error) {
	l, err := p.parseAddSub()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur().Type
		op, isCmp := comparisonOp(t)
		switch {
		case isCmp:
			p.next()
			r, err := p.parseAddSub()
			if err != nil {
				return nil, err
			}
			l = p.bin(op, l, r)
		case t == token.KwStarts:
			p.next()
			if _, err := p.expect(token.KwWith); err != nil {
				return nil, err
			}
			r, err := p.parseAddSub()
			if err != nil {
				return nil, err
			}
			l = p.bin(ast.OpStartsWith, l, r)
		case t == token.KwEnds:
			p.next()
			if _, err := p.expect(token.KwWith); err != nil {
				return nil, err
			}
			r, err := p.parseAddSub()
			if err != nil {
				return nil, err
			}
			l = p.bin(ast.OpEndsWith, l, r)
		case t == token.KwContains:
			p.next()
			r, err := p.parseAddSub()
			if err != nil {
				return nil, err
			}
			l = p.bin(ast.OpContains, l, r)
		case t == token.KwIn:
			p.next()
			r, err := p.parseAddSub()
			if err != nil {
				return nil, err
			}
			l = p.bin(ast.OpIn, l, r)
		case t == token.KwIs:
			p.next()
			not := p.accept(token.KwNot)
			if _, err := p.expect(token.KwNull); err != nil {
				return nil, err
			}
			op := ast.OpIsNull
			if not {
				op = ast.OpIsNotNull
			}
			l = &ast.Unary{Op: op, X: l}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseAddSub() (ast.Expr, error) {
	l, err := p.parseMulDiv()
	if err != nil {
		return nil, err
	}
	for {
		var op ast.BinOp
		switch p.cur().Type {
		case token.Plus:
			op = ast.OpAdd
		case token.Minus:
			op = ast.OpSub
		default:
			return l, nil
		}
		p.next()
		r, err := p.parseMulDiv()
		if err != nil {
			return nil, err
		}
		l = p.bin(op, l, r)
	}
}

func (p *parser) parseMulDiv() (ast.Expr, error) {
	l, err := p.parsePow()
	if err != nil {
		return nil, err
	}
	for {
		var op ast.BinOp
		switch p.cur().Type {
		case token.Star:
			op = ast.OpMul
		case token.Slash:
			op = ast.OpDiv
		case token.Percent:
			op = ast.OpMod
		default:
			return l, nil
		}
		p.next()
		r, err := p.parsePow()
		if err != nil {
			return nil, err
		}
		l = p.bin(op, l, r)
	}
}

func (p *parser) parsePow() (ast.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.accept(token.Caret) {
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = p.bin(ast.OpPow, l, r)
	}
	return l, nil
}

func (p *parser) parseUnary() (ast.Expr, error) {
	switch p.cur().Type {
	case token.Minus:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold -literal into a negative literal for cleaner trees.
		if lit, ok := x.(*ast.Literal); ok && lit.Val.IsNumber() {
			if v, err := value.Neg(lit.Val); err == nil {
				return p.lit(v), nil
			}
		}
		return &ast.Unary{Op: ast.OpNeg, X: x}, nil
	case token.Plus:
		p.next()
		return p.parseUnary()
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (ast.Expr, error) {
	e, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().Type {
		case token.Dot:
			p.next()
			name, err := p.identLike()
			if err != nil {
				return nil, err
			}
			pa := p.props.Alloc()
			pa.Subject, pa.Name = e, name
			e = pa
		case token.LBracket:
			p.next()
			var from ast.Expr
			if p.cur().Type != token.DotDot {
				if from, err = p.parseExpr(); err != nil {
					return nil, err
				}
			}
			if p.accept(token.DotDot) {
				var to ast.Expr
				if p.cur().Type != token.RBracket {
					if to, err = p.parseExpr(); err != nil {
						return nil, err
					}
				}
				if _, err := p.expect(token.RBracket); err != nil {
					return nil, err
				}
				e = &ast.SliceExpr{Subject: e, From: from, To: to}
			} else {
				if _, err := p.expect(token.RBracket); err != nil {
					return nil, err
				}
				if from == nil {
					return nil, p.errf("empty index expression")
				}
				e = &ast.IndexExpr{Subject: e, Index: from}
			}
		default:
			return e, nil
		}
	}
}

func (p *parser) parseAtom() (ast.Expr, error) {
	t := p.cur()
	switch t.Type {
	case token.Int:
		p.next()
		i, err := strconv.ParseInt(t.Lit, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer literal %q", t.Lit)
		}
		return p.lit(value.Int(i)), nil
	case token.Float:
		p.next()
		f, err := strconv.ParseFloat(t.Lit, 64)
		if err != nil {
			return nil, p.errf("bad float literal %q", t.Lit)
		}
		return p.lit(value.Float(f)), nil
	case token.String:
		p.next()
		return p.lit(value.Str(t.Lit)), nil
	case token.KwTrue:
		p.next()
		return p.lit(value.True), nil
	case token.KwFalse:
		p.next()
		return p.lit(value.False), nil
	case token.KwNull:
		p.next()
		return p.lit(value.Null), nil
	case token.Dollar:
		p.next()
		name, err := p.identLike()
		if err != nil {
			return nil, err
		}
		return &ast.Parameter{Name: name}, nil
	case token.LParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		return e, nil
	case token.LBracket:
		p.next()
		// [v IN list ...] is a list comprehension; anything else is a
		// list literal (as in Cypher, a bare membership test cannot be
		// the first element of a literal without parentheses).
		if p.cur().Type == token.Ident && p.peek().Type == token.KwIn {
			return p.parseListComprehension()
		}
		elems, err := p.parseArgs(token.RBracket)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RBracket); err != nil {
			return nil, err
		}
		return &ast.ListLit{Elems: elems}, nil
	case token.LBrace:
		return p.parseMapLit()
	case token.KwCase:
		return p.parseCase()
	case token.KwCount, token.KwExists:
		// count and exists are keywords that double as function names.
		name := "count"
		if t.Type == token.KwExists {
			name = "exists"
		}
		p.next()
		return p.parseFuncCall(name)
	case token.KwAll:
		// ALL doubles as the all(...) quantifier.
		if p.peek().Type == token.LParen {
			p.next()
			return p.parseQuantifier(ast.QuantAll)
		}
	case token.Ident:
		if p.peek().Type == token.LParen {
			if k, isQuant := quantKinds[strings.ToLower(t.Lit)]; isQuant && p.isQuantifierAhead() {
				p.next()
				return p.parseQuantifier(k)
			}
			p.next()
			return p.parseFuncCall(t.Lit)
		}
		p.next()
		return ast.Var(t.Lit), nil
	}
	return nil, p.errf("unexpected %s in expression", t.Type)
}

var quantKinds = map[string]ast.QuantKind{
	"all": ast.QuantAll, "any": ast.QuantAny,
	"none": ast.QuantNone, "single": ast.QuantSingle,
}

// isQuantifierAhead distinguishes `any(v IN ...)` from a plain function
// call spelled with the same name: the quantifier form has an identifier
// followed by IN right after the parenthesis.
func (p *parser) isQuantifierAhead() bool {
	// cur = name, cur+1 = '(' — look two and three tokens ahead.
	return p.at(2).Type == token.Ident && p.at(3).Type == token.KwIn
}

func (p *parser) parseQuantifier(k ast.QuantKind) (ast.Expr, error) {
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	name, err := p.identLike()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.KwIn); err != nil {
		return nil, err
	}
	list, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.KwWhere); err != nil {
		return nil, err
	}
	pred, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	return &ast.Quantifier{Kind: k, Var: name, List: list, Pred: pred}, nil
}

// parseListComprehension parses after the opening bracket:
// v IN list [WHERE pred] [| mapExpr] ]
func (p *parser) parseListComprehension() (ast.Expr, error) {
	name, err := p.identLike()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.KwIn); err != nil {
		return nil, err
	}
	out := &ast.ListComprehension{Var: name}
	if out.List, err = p.parseExpr(); err != nil {
		return nil, err
	}
	if p.accept(token.KwWhere) {
		if out.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.accept(token.Pipe) {
		if out.Map, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(token.RBracket); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) parseFuncCall(name string) (ast.Expr, error) {
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	f := p.calls.Alloc()
	f.Name = name
	f.Distinct = p.accept(token.KwDistinct)
	if p.accept(token.Star) {
		f.Star = true
	} else {
		var err error
		if f.Args, err = p.parseArgs(token.RParen); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	return f, nil
}

func (p *parser) parseCase() (ast.Expr, error) {
	if _, err := p.expect(token.KwCase); err != nil {
		return nil, err
	}
	c := &ast.CaseExpr{}
	if p.cur().Type != token.KwWhen {
		t, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Test = t
	}
	for p.accept(token.KwWhen) {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.KwThen); err != nil {
			return nil, err
		}
		th, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, w)
		c.Thens = append(c.Thens, th)
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN")
	}
	if p.accept(token.KwElse) {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if _, err := p.expect(token.KwEnd); err != nil {
		return nil, err
	}
	return c, nil
}
