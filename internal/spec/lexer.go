package spec

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Lexer turns spec source text into tokens. Comments run from "//" to
// end of line. Strings use double quotes with \" and \\ escapes.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (l *Lexer) peek() rune {
	if l.off >= len(l.src) {
		return 0
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.off:])
	return r
}

func (l *Lexer) advance() rune {
	r, size := utf8.DecodeRuneInString(l.src[l.off:])
	l.off += size
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *Lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *Lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		r := l.peek()
		switch {
		case r == ' ' || r == '\t' || r == '\r' || r == '\n':
			l.advance()
		case r == '/' && strings.HasPrefix(l.src[l.off:], "//"):
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case r == '/' && strings.HasPrefix(l.src[l.off:], "/*"):
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if strings.HasPrefix(l.src[l.off:], "*/") {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return syntaxErrf(start, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentCont(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// Next returns the next token, or a *SyntaxError on malformed input.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: TokEOF, Pos: pos}, nil
	}
	r := l.peek()
	switch {
	case isIdentStart(r):
		start := l.off
		for l.off < len(l.src) && isIdentCont(l.peek()) {
			l.advance()
		}
		return Token{Kind: TokIdent, Text: l.src[start:l.off], Pos: pos}, nil
	case unicode.IsDigit(r):
		start := l.off
		for l.off < len(l.src) && unicode.IsDigit(l.peek()) {
			l.advance()
		}
		return Token{Kind: TokInt, Text: l.src[start:l.off], Pos: pos}, nil
	case r == '"':
		if text, ok := l.plainString(); ok {
			return Token{Kind: TokString, Text: text, Pos: pos}, nil
		}
		l.advance()
		var sb strings.Builder
		for {
			if l.off >= len(l.src) {
				return Token{}, syntaxErrf(pos, "unterminated string literal")
			}
			c := l.advance()
			switch c {
			case '"':
				return Token{Kind: TokString, Text: sb.String(), Pos: pos}, nil
			case '\\':
				if l.off >= len(l.src) {
					return Token{}, syntaxErrf(pos, "unterminated escape in string literal")
				}
				e := l.advance()
				switch e {
				case '"':
					sb.WriteByte('"')
				case '\\':
					sb.WriteByte('\\')
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				default:
					return Token{}, syntaxErrf(pos, "unknown escape \\%c", e)
				}
			case '\n':
				return Token{}, syntaxErrf(pos, "newline in string literal")
			default:
				sb.WriteRune(c)
			}
		}
	}
	// Punctuation and operators.
	two := ""
	if l.off+1 < len(l.src) {
		two = l.src[l.off : l.off+2]
	}
	switch two {
	case "==":
		l.advance()
		l.advance()
		return Token{Kind: TokEq, Pos: pos}, nil
	case "!=":
		l.advance()
		l.advance()
		return Token{Kind: TokNeq, Pos: pos}, nil
	case "<=":
		l.advance()
		l.advance()
		return Token{Kind: TokLe, Pos: pos}, nil
	case ">=":
		l.advance()
		l.advance()
		return Token{Kind: TokGe, Pos: pos}, nil
	case "&&":
		l.advance()
		l.advance()
		return Token{Kind: TokAnd, Pos: pos}, nil
	case "||":
		l.advance()
		l.advance()
		return Token{Kind: TokOr, Pos: pos}, nil
	}
	l.advance()
	switch r {
	case '{':
		return Token{Kind: TokLBrace, Pos: pos}, nil
	case '}':
		return Token{Kind: TokRBrace, Pos: pos}, nil
	case '(':
		return Token{Kind: TokLParen, Pos: pos}, nil
	case ')':
		return Token{Kind: TokRParen, Pos: pos}, nil
	case ':':
		return Token{Kind: TokColon, Pos: pos}, nil
	case ',':
		return Token{Kind: TokComma, Pos: pos}, nil
	case '.':
		return Token{Kind: TokDot, Pos: pos}, nil
	case '!':
		return Token{Kind: TokBang, Pos: pos}, nil
	case '<':
		return Token{Kind: TokLt, Pos: pos}, nil
	case '>':
		return Token{Kind: TokGt, Pos: pos}, nil
	case '+':
		return Token{Kind: TokPlus, Pos: pos}, nil
	case '-':
		return Token{Kind: TokMinus, Pos: pos}, nil
	case '=':
		return Token{Kind: TokAssign, Pos: pos}, nil
	default:
		return Token{}, syntaxErrf(pos, "unexpected character %q", r)
	}
}

// plainString lexes the common string literal — no escape and no
// newline before its closing quote, valid UTF-8 throughout — as a slice
// of the source instead of decoding it rune by rune, advancing line and
// column exactly as the per-rune path would. It reports false, having
// consumed nothing, for any other literal (including an unterminated
// one); the per-rune path then decodes it, turning invalid bytes into
// U+FFFD and reporting errors.
func (l *Lexer) plainString() (string, bool) {
	start := l.off + 1
	for i := start; i < len(l.src); i++ {
		switch l.src[i] {
		case '"':
			text := l.src[start:i]
			if !utf8.ValidString(text) {
				return "", false
			}
			l.off = i + 1
			l.col += utf8.RuneCountInString(text) + 2
			return text, true
		case '\\', '\n':
			return "", false
		}
	}
	return "", false
}

// Tokenize lexes all of src. It is the entry point the constrained
// decoder and parser share.
func Tokenize(src string) ([]Token, error) {
	l := NewLexer(src)
	// Printed specs run 7–9 source bytes per token, so this capacity
	// holds every token of one without regrowing.
	toks := make([]Token, 0, len(src)/6+2)
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}
