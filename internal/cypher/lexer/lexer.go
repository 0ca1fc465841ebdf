// Package lexer tokenizes Cypher query text.
package lexer

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"gqs/internal/cypher/token"
)

// Error is a lexical error with its byte offset.
type Error struct {
	Pos int
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("lex error at %d: %s", e.Pos, e.Msg) }

// Lexer produces tokens from Cypher source text.
type Lexer struct {
	src string
	pos int
	err *Error
}

// Reset points the lexer at src and clears its state. A caller keeps
// its Lexer by value instead of allocating one per query.
func (l *Lexer) Reset(src string) { *l = Lexer{src: src} }

// Err returns the first lexical error encountered, if any.
func (l *Lexer) Err() error {
	if l.err == nil {
		return nil
	}
	return l.err
}

func (l *Lexer) fail(pos int, format string, args ...any) token.Token {
	if l.err == nil {
		l.err = &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
	}
	return token.Token{Type: token.Illegal, Pos: pos}
}

func (l *Lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peekByteAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

// Next returns the next token.
func (l *Lexer) Next() token.Token {
	l.skipSpaceAndComments()
	start := l.pos
	if l.pos >= len(l.src) {
		return token.Token{Type: token.EOF, Pos: start}
	}
	c := l.src[l.pos]
	switch {
	case isDigit(c):
		return l.number()
	case c == '\'' || c == '"':
		return l.str(c)
	case c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z':
		return l.ident()
	case c >= utf8.RuneSelf:
		// A non-ASCII rune continues only if an identifier can hold it
		// (as in `café`); anything else is an error, not an empty
		// identifier token that would leave the lexer in place.
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if isIdentPart(r) {
			return l.ident()
		}
		l.pos += size
		if r == utf8.RuneError && size == 1 {
			return l.fail(start, "invalid UTF-8 byte %#x", c)
		}
		return l.fail(start, "unexpected character %q", r)
	case c == '`':
		return l.quotedIdent()
	}
	l.pos++
	t := punct[c]
	switch c {
	case '.':
		if l.peekByte() == '.' {
			l.pos++
			t = token.DotDot
		}
	case '=':
		if l.peekByte() == '~' {
			l.pos++
			t = token.Regex
		}
	case '<':
		switch l.peekByte() {
		case '>':
			l.pos++
			t = token.Neq
		case '=':
			l.pos++
			t = token.Le
		}
	case '>':
		if l.peekByte() == '=' {
			l.pos++
			t = token.Ge
		}
	}
	if t != token.Illegal {
		return token.Token{Type: t, Pos: start}
	}
	return l.fail(start, "unexpected character %q", c)
}

// punct maps each byte that starts a punctuation or operator token to
// its one-byte token; Next extends the few two-byte ones.
var punct = [utf8.RuneSelf]token.Type{
	'(': token.LParen, ')': token.RParen, '[': token.LBracket, ']': token.RBracket,
	'{': token.LBrace, '}': token.RBrace, ',': token.Comma, ':': token.Colon,
	';': token.Semi, '$': token.Dollar, '|': token.Pipe, '.': token.Dot,
	'+': token.Plus, '-': token.Minus, '*': token.Star, '/': token.Slash,
	'%': token.Percent, '^': token.Caret, '=': token.Eq, '<': token.Lt, '>': token.Gt,
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '/' && l.peekByteAt(1) == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.peekByteAt(1) == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
				return
			}
			l.pos += 2 + end + 2
		default:
			return
		}
	}
}

func (l *Lexer) number() token.Token {
	start := l.pos
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
	isFloat := false
	// Fraction, but not a ".." range or a ".prop" access on an int.
	if l.peekByte() == '.' && isDigit(l.peekByteAt(1)) {
		isFloat = true
		l.pos++
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
	}
	if c := l.peekByte(); c == 'e' || c == 'E' {
		save := l.pos
		l.pos++
		if c := l.peekByte(); c == '+' || c == '-' {
			l.pos++
		}
		if isDigit(l.peekByte()) {
			isFloat = true
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
		} else {
			l.pos = save
		}
	}
	typ := token.Int
	if isFloat {
		typ = token.Float
	}
	return token.Token{Type: typ, Lit: l.src[start:l.pos], Pos: start}
}

func (l *Lexer) str(quote byte) token.Token {
	start := l.pos
	l.pos++ // opening quote
	// Most strings hold no escape: their literal is a slice of the
	// source, with no copy.
	for i := l.pos; i < len(l.src); i++ {
		switch l.src[i] {
		case quote:
			l.pos = i + 1
			return token.Token{Type: token.String, Lit: l.src[start+1 : i], Pos: start}
		case '\\':
			return l.escapedStr(start, quote)
		}
	}
	l.pos = len(l.src)
	return l.fail(start, "unterminated string")
}

// escapedStr lexes a string literal that holds an escape sequence,
// resolving the escapes into a fresh string.
func (l *Lexer) escapedStr(start int, quote byte) token.Token {
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case quote:
			l.pos++
			return token.Token{Type: token.String, Lit: sb.String(), Pos: start}
		case '\\':
			l.pos++
			if l.pos >= len(l.src) {
				return l.fail(start, "unterminated string")
			}
			e := l.src[l.pos]
			switch e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			case '\\', '\'', '"', '`':
				sb.WriteByte(e)
			default:
				return l.fail(l.pos, "unknown escape \\%c", e)
			}
			l.pos++
		default:
			sb.WriteByte(c)
			l.pos++
		}
	}
	return l.fail(start, "unterminated string")
}

func (l *Lexer) ident() token.Token {
	start := l.pos
	for l.pos < len(l.src) {
		if c := l.src[l.pos]; c < utf8.RuneSelf {
			if !isIdentPartASCII(c) {
				break
			}
			l.pos++
			continue
		}
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !isIdentPart(r) {
			break
		}
		l.pos += size
	}
	lit := l.src[start:l.pos]
	return token.Token{Type: token.Lookup(lit), Lit: lit, Pos: start}
}

// IsIdentifier reports whether name, unquoted, lexes as exactly one
// identifier or keyword token; any other name needs backquotes.
func IsIdentifier(name string) bool {
	if name == "" || isDigit(name[0]) {
		return false
	}
	for i := 0; i < len(name); i++ {
		if c := name[i]; c >= utf8.RuneSelf {
			// Non-ASCII: let the lexer decide which runes it takes.
			l := Lexer{src: name}
			t := l.Next()
			return l.err == nil && (t.Type == token.Ident || t.Type >= token.KwMatch) && l.pos == len(name)
		} else if !isIdentPartASCII(c) {
			return false
		}
	}
	return true
}

func isIdentPartASCII(c byte) bool {
	return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
}

func (l *Lexer) quotedIdent() token.Token {
	start := l.pos
	l.pos++ // opening backtick
	end := strings.IndexByte(l.src[l.pos:], '`')
	if end < 0 {
		return l.fail(start, "unterminated quoted identifier")
	}
	lit := l.src[l.pos : l.pos+end]
	l.pos += end + 1
	return token.Token{Type: token.Ident, Lit: lit, Pos: start}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
