package lexer

import (
	"testing"

	"gqs/internal/cypher/token"
)

// all tokenizes the entire input, returning the token stream ending with
// EOF (or the Illegal token of the first error), and that error.
func all(src string) ([]token.Token, error) {
	var l Lexer
	l.Reset(src)
	var ts []token.Token
	for {
		t := l.Next()
		ts = append(ts, t)
		if t.Type == token.EOF || t.Type == token.Illegal {
			return ts, l.Err()
		}
	}
}

func types(t *testing.T, src string) []token.Type {
	t.Helper()
	toks, err := all(src)
	if err != nil {
		t.Fatalf("%q: %v", src, err)
	}
	out := make([]token.Type, len(toks))
	for i, tk := range toks {
		out[i] = tk.Type
	}
	return out
}

func TestPunctuation(t *testing.T) {
	got := types(t, `()[]{},:;.$|`)
	want := []token.Type{
		token.LParen, token.RParen, token.LBracket, token.RBracket,
		token.LBrace, token.RBrace, token.Comma, token.Colon, token.Semi,
		token.Dot, token.Dollar, token.Pipe, token.EOF,
	}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestOperators(t *testing.T) {
	got := types(t, `+ - * / % ^ = <> < <= > >= =~ ..`)
	want := []token.Type{
		token.Plus, token.Minus, token.Star, token.Slash, token.Percent,
		token.Caret, token.Eq, token.Neq, token.Lt, token.Le, token.Gt,
		token.Ge, token.Regex, token.DotDot, token.EOF,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestNumbers(t *testing.T) {
	toks, err := all(`42 1.5 1e3 2.5e-2 7..9 1.k0`)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		typ token.Type
		lit string
	}{
		{token.Int, "42"}, {token.Float, "1.5"}, {token.Float, "1e3"},
		{token.Float, "2.5e-2"},
		{token.Int, "7"}, {token.DotDot, ""}, {token.Int, "9"},
		{token.Int, "1"}, {token.Dot, ""}, {token.Ident, "k0"},
	}
	for i, w := range want {
		if toks[i].Type != w.typ {
			t.Errorf("token %d = %v, want %v", i, toks[i].Type, w.typ)
		}
		if w.lit != "" && toks[i].Lit != w.lit {
			t.Errorf("token %d lit = %q, want %q", i, toks[i].Lit, w.lit)
		}
	}
}

func TestStrings(t *testing.T) {
	toks, err := all(`'abc' "def" 'a\'b' 'x\ny'`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"abc", "def", "a'b", "x\ny"}
	for i, w := range want {
		if toks[i].Type != token.String || toks[i].Lit != w {
			t.Errorf("string %d = %q (%v), want %q", i, toks[i].Lit, toks[i].Type, w)
		}
	}
}

func TestKeywordsCaseInsensitive(t *testing.T) {
	toks, _ := all(`MATCH match Match oPtIoNaL`)
	for i := 0; i < 3; i++ {
		if toks[i].Type != token.KwMatch {
			t.Errorf("token %d: %v", i, toks[i].Type)
		}
	}
	if toks[3].Type != token.KwOptional {
		t.Error("case-insensitive keyword lookup broken")
	}
}

func TestQuotedIdent(t *testing.T) {
	toks, err := all("`weird name`")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Type != token.Ident || toks[0].Lit != "weird name" {
		t.Errorf("quoted ident = %+v", toks[0])
	}
}

func TestComments(t *testing.T) {
	got := types(t, "a // rest of line\nb /* multi\nline */ c")
	want := []token.Type{token.Ident, token.Ident, token.Ident, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
}

func TestErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", "`unterminated", `'bad \q escape'`, "@"} {
		if _, err := all(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestTokenNames(t *testing.T) {
	if token.KwMatch.String() != "MATCH" || token.Neq.String() != "<>" {
		t.Error("token names broken")
	}
	if token.Lookup("not_a_keyword") != token.Ident {
		t.Error("Lookup must default to Ident")
	}
}

func TestUnicodeIdent(t *testing.T) {
	toks, err := all("pät")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Type != token.Ident || toks[0].Lit != "pät" {
		t.Errorf("unicode ident = %+v", toks[0])
	}
}
