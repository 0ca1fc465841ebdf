// Package token defines the lexical tokens of the Cypher query language
// subset implemented by this repository (openCypher 9 data retrieval and
// update clauses).
package token

import (
	"strings"
	"unicode/utf8"
)

// Type identifies a lexical token class.
type Type int

// Token types.
const (
	Illegal Type = iota
	EOF

	Ident  // variable and function names, labels, property names
	Int    // integer literal
	Float  // float literal
	String // string literal (quotes removed, escapes resolved)

	// Punctuation and operators.
	LParen   // (
	RParen   // )
	LBracket // [
	RBracket // ]
	LBrace   // {
	RBrace   // }
	Comma    // ,
	Colon    // :
	Semi     // ;
	Dot      // .
	DotDot   // ..
	Plus     // +
	Minus    // -
	Star     // *
	Slash    // /
	Percent  // %
	Caret    // ^
	Eq       // =
	Neq      // <>
	Lt       // <
	Le       // <=
	Gt       // >
	Ge       // >=
	Pipe     // |
	Regex    // =~
	Dollar   // $

	// Keywords.
	KwMatch
	KwOptional
	KwMandatory
	KwUnwind
	KwWith
	KwReturn
	KwWhere
	KwOrder
	KwBy
	KwSkip
	KwLimit
	KwAsc
	KwAscending
	KwDesc
	KwDescending
	KwDistinct
	KwAs
	KwUnion
	KwAll
	KwCall
	KwYield
	KwCreate
	KwSet
	KwMerge
	KwDelete
	KwDetach
	KwRemove
	KwOn
	KwAnd
	KwOr
	KwXor
	KwNot
	KwIn
	KwStarts
	KwEnds
	KwContains
	KwIs
	KwNull
	KwTrue
	KwFalse
	KwCase
	KwWhen
	KwThen
	KwElse
	KwEnd
	KwExists
	KwCount
)

var names = [...]string{
	Illegal: "ILLEGAL", EOF: "EOF", Ident: "IDENT", Int: "INT",
	Float: "FLOAT", String: "STRING",
	LParen: "(", RParen: ")", LBracket: "[", RBracket: "]",
	LBrace: "{", RBrace: "}", Comma: ",", Colon: ":", Semi: ";",
	Dot: ".", DotDot: "..", Plus: "+", Minus: "-", Star: "*",
	Slash: "/", Percent: "%", Caret: "^", Eq: "=", Neq: "<>",
	Lt: "<", Le: "<=", Gt: ">", Ge: ">=", Pipe: "|", Regex: "=~",
	Dollar:  "$",
	KwMatch: "MATCH", KwOptional: "OPTIONAL", KwMandatory: "MANDATORY",
	KwUnwind: "UNWIND", KwWith: "WITH", KwReturn: "RETURN",
	KwWhere: "WHERE", KwOrder: "ORDER", KwBy: "BY", KwSkip: "SKIP",
	KwLimit: "LIMIT", KwAsc: "ASC", KwAscending: "ASCENDING",
	KwDesc: "DESC", KwDescending: "DESCENDING", KwDistinct: "DISTINCT",
	KwAs: "AS", KwUnion: "UNION", KwAll: "ALL", KwCall: "CALL",
	KwYield: "YIELD", KwCreate: "CREATE", KwSet: "SET", KwMerge: "MERGE",
	KwDelete: "DELETE", KwDetach: "DETACH", KwRemove: "REMOVE",
	KwOn: "ON", KwAnd: "AND", KwOr: "OR", KwXor: "XOR", KwNot: "NOT",
	KwIn: "IN", KwStarts: "STARTS", KwEnds: "ENDS",
	KwContains: "CONTAINS", KwIs: "IS", KwNull: "NULL", KwTrue: "TRUE",
	KwFalse: "FALSE", KwCase: "CASE", KwWhen: "WHEN", KwThen: "THEN",
	KwElse: "ELSE", KwEnd: "END", KwExists: "EXISTS", KwCount: "COUNT",
}

// String returns the display name of the token type.
func (t Type) String() string {
	if t >= 0 && int(t) < len(names) {
		return names[t]
	}
	return "TOKEN(?)"
}

// maxKeywordLen is the byte length of the longest keyword (DESCENDING).
const maxKeywordLen = 10

// keywords holds the keywords by the length and first letter of their
// upper-case spelling; no bucket holds more than a few.
var keywords [maxKeywordLen + 1]['Z' - 'A' + 1][]Type

func init() {
	for t := KwMatch; t <= KwCount; t++ {
		n := names[t]
		keywords[len(n)][n[0]-'A'] = append(keywords[len(n)][n[0]-'A'], t)
	}
}

// keyword returns the keyword spelled by the upper-case ASCII letters
// up, or Ident.
func keyword(up []byte) Type {
	if len(up) == 0 || len(up) > maxKeywordLen {
		return Ident
	}
	for _, t := range keywords[len(up)][up[0]-'A'] {
		if names[t] == string(up) {
			return t
		}
	}
	return Ident
}

// Lookup maps an identifier to its keyword type, or returns Ident.
// Cypher keywords are case-insensitive. Every keyword is ASCII letters
// only, so the scan upper-cases into a stack buffer and rejects any
// name with a digit or underscore (every nN/rN/aN variable and kN
// property) without a probe; a candidate is compared with the few
// keywords of its length and first letter, allocating nothing. A
// non-ASCII name keeps the Unicode case mapping.
func Lookup(ident string) Type {
	var buf [maxKeywordLen]byte
	for i := 0; i < len(ident); i++ {
		c := ident[i]
		switch {
		case 'a' <= c && c <= 'z':
			c -= 'a' - 'A'
		case 'A' <= c && c <= 'Z':
		case c >= utf8.RuneSelf:
			return lookupUnicode(ident)
		default:
			return Ident
		}
		if i == len(buf) {
			// Longer than any keyword; a later non-ASCII rune cannot
			// shorten the upper-case form back to keyword length.
			return Ident
		}
		buf[i] = c
	}
	return keyword(buf[:len(ident)])
}

// lookupUnicode resolves a name holding a non-ASCII rune: only one
// that also has an ASCII upper-case letter is upper-cased with the
// Unicode mapping and looked up, so "Lımıt" spells LIMIT and "lımıt"
// is a name.
func lookupUnicode(ident string) Type {
	for i := 0; i < len(ident); i++ {
		if c := ident[i]; c >= 'A' && c <= 'Z' {
			up := strings.ToUpper(ident)
			for i := 0; i < len(up); i++ {
				if up[i] < 'A' || up[i] > 'Z' {
					return Ident
				}
			}
			return keyword([]byte(up))
		}
	}
	return Ident
}

// Token is one lexical token with its source position (byte offset).
type Token struct {
	Type Type
	Lit  string // literal text for Ident/Int/Float/String
	Pos  int
}
