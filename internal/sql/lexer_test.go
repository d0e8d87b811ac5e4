package sql

import (
	"testing"

	"wasmdb/internal/tpch"
)

// TestLexTPCHQ1ExactAllocs is an exact allocation gate on the lexer:
// lexing TPC-H Q1 allocates once, the token slice at its final size.
// Keywords are looked up upper-cased in a stack buffer, and a token's text is
// a substring of the query or a keyword's canonical string. It allocated 78
// times before (an upper-cased copy of every word, the date literal's
// builder, and the token slice grown by append).
func TestLexTPCHQ1ExactAllocs(t *testing.T) {
	src := tpch.Queries["Q1"]
	var toks []token
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if toks, err = lex(src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("lexing TPC-H Q1 allocates %v times per run, want 1", allocs)
	}
	if len(toks) != cap(toks) {
		t.Errorf("token slice has length %d and capacity %d, want them equal", len(toks), cap(toks))
	}
}

// TestLexKeywordsAndLiterals pins what the allocation-free paths return:
// keywords in any case upper-cased, identifiers lower-cased, string
// literals with doubled quotes collapsed, and operators as written.
func TestLexKeywordsAndLiterals(t *testing.T) {
	toks, err := lex("sElEcT Foo_1, 'it''s', '' FROM t WHERE a<>b AND c != 1.5e3 -- note\nLIMIT 7")
	if err != nil {
		t.Fatal(err)
	}
	want := []token{
		{tokKeyword, "SELECT", 0}, {tokIdent, "foo_1", 7}, {tokOp, ",", 12},
		{tokString, "it's", 14}, {tokOp, ",", 21}, {tokString, "", 23},
		{tokKeyword, "FROM", 26}, {tokIdent, "t", 31}, {tokKeyword, "WHERE", 33},
		{tokIdent, "a", 39}, {tokOp, "<>", 40}, {tokIdent, "b", 42},
		{tokKeyword, "AND", 44}, {tokIdent, "c", 48}, {tokOp, "<>", 50},
		{tokFloat, "1.5e3", 53}, {tokKeyword, "LIMIT", 67}, {tokInt, "7", 73},
		{tokEOF, "", 74},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(toks), toks, len(want))
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Errorf("token %d = %+v, want %+v", i, toks[i], want[i])
		}
	}
	for _, bad := range []string{"SELECT 'open", "SELECT a ! b", "SELECT #"} {
		if _, err := lex(bad); err == nil {
			t.Errorf("lex(%q) succeeded, want an error", bad)
		}
	}
}
