package parser

import (
	"testing"
	"time"

	"gqs/internal/cypher/ast"
)

// parseBounded parses src, failing the test if Parse has not returned
// within a second: on any input, a hang is a bug.
func parseBounded(t *testing.T, src string) (*ast.Query, error) {
	t.Helper()
	type result struct {
		q   *ast.Query
		err error
	}
	done := make(chan result, 1)
	go func() {
		q, err := Parse(src)
		done <- result{q, err}
	}()
	select {
	case r := <-done:
		return r.q, r.err
	case <-time.After(time.Second):
		t.Fatalf("Parse did not return within 1s on %q", src)
		return nil, nil
	}
}

// FuzzParsePrint checks the parser on arbitrary input: it never panics
// or hangs, and every input it accepts prints to a fixpoint after one
// round — the print of the parse of the printed form is the printed
// form. The check is on the printed form, not the input, because
// printing normalizes: it parenthesizes, folds negated numbers, and
// upper-cases keywords. The seeds in testdata/fuzz/FuzzParsePrint (the
// inputs that once hung the lexer, a query with an entity literal, and
// fixed-seed synthesized queries) run under plain `go test`; `make fuzz`
// explores beyond them.
func FuzzParsePrint(f *testing.F) {
	for _, q := range paperQueries {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := parseBounded(t, src)
		if err != nil {
			return
		}
		text := q.String()
		q2, err := parseBounded(t, text)
		if err != nil {
			t.Fatalf("the printed form does not parse: %v\ninput:   %q\nprinted: %q", err, src, text)
		}
		if again := q2.String(); again != text {
			t.Fatalf("print is not a fixpoint:\ninput:   %q\nprinted: %q\nagain:   %q", src, text, again)
		}
	})
}
