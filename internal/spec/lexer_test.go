package spec

import (
	"strings"
	"testing"
)

func kinds(toks []Token) []TokenKind {
	out := make([]TokenKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestTokenizeBasics(t *testing.T) {
	toks, err := Tokenize(`sm Vpc { states { a: str } }`)
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	want := []TokenKind{TokIdent, TokIdent, TokLBrace, TokIdent, TokLBrace, TokIdent, TokColon, TokIdent, TokRBrace, TokRBrace, TokEOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("token count = %d, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTokenizeOperators(t *testing.T) {
	toks, err := Tokenize(`== != <= >= < > && || ! + - = . , : ( ) { }`)
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	want := []TokenKind{
		TokEq, TokNeq, TokLe, TokGe, TokLt, TokGt, TokAnd, TokOr,
		TokBang, TokPlus, TokMinus, TokAssign, TokDot, TokComma,
		TokColon, TokLParen, TokRParen, TokLBrace, TokRBrace, TokEOF,
	}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("token count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTokenizeStringEscapes(t *testing.T) {
	toks, err := Tokenize(`"a\"b\\c\nd\te"`)
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	if toks[0].Kind != TokString {
		t.Fatalf("kind = %v, want string", toks[0].Kind)
	}
	if got, want := toks[0].Text, "a\"b\\c\nd\te"; got != want {
		t.Errorf("decoded = %q, want %q", got, want)
	}
}

func TestTokenizeComments(t *testing.T) {
	toks, err := Tokenize("a // line comment\n/* block\ncomment */ b")
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	if len(toks) != 3 || toks[0].Text != "a" || toks[1].Text != "b" {
		t.Fatalf("tokens = %v", toks)
	}
}

func TestTokenizePositions(t *testing.T) {
	toks, err := Tokenize("ab\n  cd")
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	if toks[0].Pos != (Pos{Line: 1, Col: 1}) {
		t.Errorf("first pos = %v", toks[0].Pos)
	}
	if toks[1].Pos != (Pos{Line: 2, Col: 3}) {
		t.Errorf("second pos = %v", toks[1].Pos)
	}
}

// TestTokenizeStringLiterals pins kind, decoded text and position for
// string literals on and off the slice-of-source fast path, and the
// position of the token after each — column advance is per rune, with
// an invalid byte counting as one rune that decodes to U+FFFD.
func TestTokenizeStringLiterals(t *testing.T) {
	cases := []struct {
		name, src string
		text      string
		next      Pos // position of the identifier after the literal
	}{
		{"plain", `"plain" x`, "plain", Pos{Line: 1, Col: 9}},
		{"empty", `"" x`, "", Pos{Line: 1, Col: 4}},
		{"two-byte runes", `"héllo" x`, "héllo", Pos{Line: 1, Col: 9}},
		{"three-byte runes", `"日本" x`, "日本", Pos{Line: 1, Col: 6}},
		{"raw tab and CR", "\"a\tb\rc\" x", "a\tb\rc", Pos{Line: 1, Col: 9}},
		{"escaped quote", `"a\"b" x`, `a"b`, Pos{Line: 1, Col: 8}},
		{"escapes and runes", `"é\n\t\\" x`, "é\n\t\\", Pos{Line: 1, Col: 11}},
		{"invalid byte", "\"a\xffb\" x", "a\uFFFDb", Pos{Line: 1, Col: 7}},
		{"truncated rune", "\"\xe6\x97\" x", "\uFFFD\uFFFD", Pos{Line: 1, Col: 6}},
		{"next line", "\"s\"\n  x", "s", Pos{Line: 2, Col: 3}},
		{"after identifier", `ab "cd" x`, "cd", Pos{Line: 1, Col: 9}},
	}
	for _, c := range cases {
		toks, err := Tokenize(c.src)
		if err != nil {
			t.Errorf("%s: Tokenize(%q): %v", c.name, c.src, err)
			continue
		}
		str := toks[0]
		if str.Kind == TokIdent {
			str = toks[1]
		}
		if str.Kind != TokString || str.Text != c.text {
			t.Errorf("%s: literal = %v %q, want string %q", c.name, str.Kind, str.Text, c.text)
		}
		next := toks[len(toks)-2]
		if next.Kind != TokIdent || next.Text != "x" || next.Pos != c.next {
			t.Errorf("%s: next token = %v %q at %v, want ident x at %v", c.name, next.Kind, next.Text, next.Pos, c.next)
		}
	}
}

func TestTokenizeUnterminatedStrings(t *testing.T) {
	cases := []struct {
		src, want string
		pos       Pos
	}{
		{`x "abc`, "unterminated string literal", Pos{Line: 1, Col: 3}},
		{"\"a\xff", "unterminated string literal", Pos{Line: 1, Col: 1}},
		{`"abc\`, "unterminated escape", Pos{Line: 1, Col: 1}},
		{"a\n \"ab\ncd\"", "newline in string literal", Pos{Line: 2, Col: 2}},
	}
	for _, c := range cases {
		_, err := Tokenize(c.src)
		se, ok := err.(*SyntaxError)
		if !ok || !strings.Contains(se.Msg, c.want) || se.Pos != c.pos {
			t.Errorf("Tokenize(%q) error = %v, want %q at %v", c.src, err, c.want, c.pos)
		}
	}
}

func TestTokenizeErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{`"unterminated`, "unterminated string"},
		{"\"bad\\qescape\"", "unknown escape"},
		{"/* never closed", "unterminated block comment"},
		{"@", "unexpected character"},
		{"\"line\nbreak\"", "newline in string"},
	}
	for _, tc := range cases {
		_, err := Tokenize(tc.src)
		if err == nil {
			t.Errorf("Tokenize(%q): want error containing %q, got nil", tc.src, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Tokenize(%q) error = %v, want substring %q", tc.src, err, tc.want)
		}
		if _, ok := err.(*SyntaxError); !ok {
			t.Errorf("Tokenize(%q) error type = %T, want *SyntaxError", tc.src, err)
		}
	}
}
