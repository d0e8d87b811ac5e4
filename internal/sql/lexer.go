// Package sql implements the SQL lexer, AST, and recursive-descent parser
// for the dialect the system supports: single-block SELECT queries with
// joins, WHERE, GROUP BY, ORDER BY, LIMIT, CASE, BETWEEN, IN, LIKE, date and
// interval literals — everything the TPC-H queries of the paper's evaluation
// and the micro-benchmark queries of §8.2 require — plus CREATE TABLE and
// INSERT for loading data through the shell.
package sql

import (
	"fmt"
	"strings"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokString
	tokOp // operators and punctuation
)

type token struct {
	kind tokKind
	text string // keywords upper-cased, identifiers lower-cased
	pos  int
}

// keywords maps each keyword, upper-cased, to itself: a token's text is the
// map's own string, so recognising a keyword allocates nothing.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, k := range []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT", "AS", "AND", "OR",
		"NOT", "BETWEEN", "IN", "LIKE", "CASE", "WHEN", "THEN", "ELSE", "END", "ASC",
		"DESC", "JOIN", "INNER", "ON", "DATE", "INTERVAL", "DAY", "MONTH", "YEAR",
		"EXTRACT", "CREATE", "TABLE", "INSERT", "INTO", "VALUES", "TRUE", "FALSE",
		"INT", "INTEGER", "BIGINT", "DOUBLE", "DECIMAL", "CHAR", "VARCHAR", "BOOLEAN",
		"COUNT", "SUM", "MIN", "MAX", "AVG", "DISTINCT", "HAVING",
	} {
		m[k] = k
	}
	return m
}()

// maxKeywordLen is the length of the longest keyword; a longer word is an
// identifier without a lookup.
const maxKeywordLen = 8

// keyword returns the keyword word spells in any case, upper-cased, and
// whether it is one. It upper-cases into a stack buffer, so the lookup
// allocates nothing.
func keyword(word string) (string, bool) {
	if len(word) > maxKeywordLen {
		return "", false
	}
	var buf [maxKeywordLen]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	k, ok := keywords[string(buf[:len(word)])]
	return k, ok
}

type lexer struct {
	src string
	pos int
}

// lex splits src into tokens, ending with tokEOF. It scans src twice: the
// first pass only counts the tokens, so the token slice is allocated once,
// at its final size; the second fills it and lower-cases identifiers and
// collapses doubled quotes, which next leaves as written. A token's text is
// then a substring of src or a keyword's canonical string; only an
// identifier with upper-case letters and a string literal with a doubled
// quote allocate their own.
func lex(src string) ([]token, error) {
	n := 0
	counter := lexer{src: src}
	for {
		tok, err := counter.next()
		if err != nil {
			return nil, err
		}
		n++
		if tok.kind == tokEOF {
			break
		}
	}
	toks := make([]token, n)
	l := lexer{src: src}
	for i := range toks {
		toks[i], _ = l.next()
		switch toks[i].kind {
		case tokIdent:
			toks[i].text = strings.ToLower(toks[i].text)
		case tokString:
			toks[i].text = strings.ReplaceAll(toks[i].text, "''", "'")
		}
	}
	return toks, nil
}

// next scans the token at l.pos. An identifier's text keeps its case and a
// string literal's its doubled quotes.
func (l *lexer) next() (token, error) {
	l.skipSpace()
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isAlpha(c):
		for l.pos < len(l.src) && (isAlpha(l.src[l.pos]) || isDigit(l.src[l.pos])) {
			l.pos++
		}
		word := l.src[start:l.pos]
		if k, ok := keyword(word); ok {
			return token{kind: tokKeyword, text: k, pos: start}, nil
		}
		return token{kind: tokIdent, text: word, pos: start}, nil
	case isDigit(c) || (c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
		isFloat := false
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
		if l.pos < len(l.src) && l.src[l.pos] == '.' {
			isFloat = true
			l.pos++
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
		}
		if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
			isFloat = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
		}
		kind := tokInt
		if isFloat {
			kind = tokFloat
		}
		return token{kind: kind, text: l.src[start:l.pos], pos: start}, nil
	case c == '\'':
		return l.stringLit()
	case strings.IndexByte("(),.*+-/%;?", c) >= 0:
		l.pos++
		return token{kind: tokOp, text: l.src[start:l.pos], pos: start}, nil
	case c == '<':
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '=' || l.src[l.pos] == '>') {
			l.pos++
		}
		return token{kind: tokOp, text: l.src[start:l.pos], pos: start}, nil
	case c == '>':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
		}
		return token{kind: tokOp, text: l.src[start:l.pos], pos: start}, nil
	case c == '=':
		l.pos++
		return token{kind: tokOp, text: "=", pos: start}, nil
	case c == '!':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return token{kind: tokOp, text: "<>", pos: start}, nil
		}
	}
	return token{}, fmt.Errorf("sql: unexpected character %q at %d", c, start)
}

// stringLit scans the string literal at l.pos; its text is what lies
// between the quotes.
func (l *lexer) stringLit() (token, error) {
	start := l.pos
	l.pos++
	for {
		if l.pos >= len(l.src) {
			return token{}, fmt.Errorf("sql: unterminated string literal at %d", start)
		}
		if l.src[l.pos] == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				l.pos += 2
				continue
			}
			l.pos++
			break
		}
		l.pos++
	}
	return token{kind: tokString, text: l.src[start+1 : l.pos-1], pos: start}, nil
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// -- line comments
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		return
	}
}

func isAlpha(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
