package spec

import (
	"strconv"
	"unicode/utf8"

	"lce/internal/cloudapi"
)

// Parser is a recursive-descent parser for the concrete spec syntax.
//
//	service <name> { sm ... }                 name: identifiers joined by '-'
//	sm <Name> { doc? idprefix? parent? notfound? dependency? states {...} transition ... }
//	transition <Name>(params) <kind> doc? { stmts }
//
// Statements: write(state, expr) · assert(pred) error "Code" ["msg"] ·
// call(target.Trans(args)) · if (pred) { } else { } · return(name, expr)
// · foreach x in expr { }.
type Parser struct {
	toks []Token
	pos  int
}

// Parse parses a complete service specification.
func Parse(src string) (*Service, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	svc, err := p.parseService()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, syntaxErrf(p.cur().Pos, "trailing input after service block")
	}
	if err := svc.Index(); err != nil {
		return nil, err
	}
	return svc, nil
}

// ParseSM parses a single free-standing `sm { ... }` block, as produced
// by the incremental per-resource extraction pass (§4.2) before the
// linking step assembles SMs into a service.
func ParseSM(src string) (*SM, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	sm, err := p.parseSM()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, syntaxErrf(p.cur().Pos, "trailing input after sm block")
	}
	return sm, nil
}

// ParseExprString parses a free-standing expression, as embedded in
// documentation behaviour clauses (the wrangler and extractor pull
// predicate and value snippets out of doc sentences).
func ParseExprString(src string) (Expr, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, syntaxErrf(p.cur().Pos, "trailing input after expression")
	}
	return x, nil
}

// ParseTypeString parses a free-standing type annotation.
func ParseTypeString(src string) (Type, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return Type{}, err
	}
	p := &Parser{toks: toks}
	t, err := p.parseType()
	if err != nil {
		return Type{}, err
	}
	if !p.atEOF() {
		return Type{}, syntaxErrf(p.cur().Pos, "trailing input after type")
	}
	return t, nil
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) atEOF() bool { return p.cur().Kind == TokEOF }

func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *Parser) expect(kind TokenKind) (Token, error) {
	t := p.cur()
	if t.Kind != kind {
		return Token{}, syntaxErrf(t.Pos, "expected %v, found %v%s", kind, t.Kind, tokenDetail(t))
	}
	return p.next(), nil
}

func tokenDetail(t Token) string {
	if t.Kind == TokIdent || t.Kind == TokString || t.Kind == TokInt {
		return " " + strconv.Quote(t.Text)
	}
	return ""
}

func (p *Parser) expectKeyword(kw string) (Token, error) {
	t := p.cur()
	if t.Kind != TokIdent || t.Text != kw {
		return Token{}, syntaxErrf(t.Pos, "expected keyword %q, found %v%s", kw, t.Kind, tokenDetail(t))
	}
	return p.next(), nil
}

func (p *Parser) peekKeyword(kw string) bool {
	t := p.cur()
	return t.Kind == TokIdent && t.Text == kw
}

func (p *Parser) expectIdent() (Token, error) {
	return p.expect(TokIdent)
}

func (p *Parser) expectString() (string, error) {
	t, err := p.expect(TokString)
	if err != nil {
		return "", err
	}
	return t.Text, nil
}

func (p *Parser) parseService() (*Service, error) {
	start, err := p.expectKeyword("service")
	if err != nil {
		return nil, err
	}
	name, err := p.serviceName()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	svc := &Service{Name: name, Pos: start.Pos}
	for !p.peekIs(TokRBrace) {
		sm, err := p.parseSM()
		if err != nil {
			return nil, err
		}
		svc.SMs = append(svc.SMs, sm)
	}
	if _, err := p.expect(TokRBrace); err != nil {
		return nil, err
	}
	return svc, nil
}

// serviceName reads a service name: identifiers joined by '-' with
// nothing between them, as in network-firewall. A '-' with space on
// either side is not part of the name.
func (p *Parser) serviceName() (string, error) {
	t, err := p.expectIdent()
	if err != nil {
		return "", err
	}
	name, end := t.Text, t.Pos
	end.Col += utf8.RuneCountInString(t.Text)
	for p.peekIs(TokMinus) && p.cur().Pos == end {
		next := p.toks[p.pos+1]
		if next.Kind != TokIdent || next.Pos != (Pos{Line: end.Line, Col: end.Col + 1}) {
			break
		}
		p.pos += 2
		name += "-" + next.Text
		end = next.Pos
		end.Col += utf8.RuneCountInString(next.Text)
	}
	return name, nil
}

func (p *Parser) peekIs(kind TokenKind) bool { return p.cur().Kind == kind }

func (p *Parser) parseSM() (*SM, error) {
	start, err := p.expectKeyword("sm")
	if err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	sm := &SM{Name: name.Text, Pos: start.Pos}
	for !p.peekIs(TokRBrace) {
		t := p.cur()
		if t.Kind != TokIdent {
			return nil, syntaxErrf(t.Pos, "expected sm clause, found %v%s", t.Kind, tokenDetail(t))
		}
		switch t.Text {
		case "doc":
			p.next()
			s, err := p.expectString()
			if err != nil {
				return nil, err
			}
			sm.Doc = s
		case "idprefix":
			p.next()
			s, err := p.expectString()
			if err != nil {
				return nil, err
			}
			sm.IDPrefix = s
		case "parent":
			p.next()
			id, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			sm.Parent = id.Text
		case "notfound":
			p.next()
			s, err := p.expectString()
			if err != nil {
				return nil, err
			}
			sm.NotFound = s
		case "dependency":
			p.next()
			s, err := p.expectString()
			if err != nil {
				return nil, err
			}
			sm.Dependency = s
		case "states":
			p.next()
			states, err := p.parseStates()
			if err != nil {
				return nil, err
			}
			sm.States = append(sm.States, states...)
		case "transition":
			tr, err := p.parseTransition()
			if err != nil {
				return nil, err
			}
			sm.Transitions = append(sm.Transitions, tr)
		default:
			return nil, syntaxErrf(t.Pos, "unknown sm clause %q", t.Text)
		}
	}
	if _, err := p.expect(TokRBrace); err != nil {
		return nil, err
	}
	return sm, nil
}

func (p *Parser) parseStates() ([]*StateVar, error) {
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	var out []*StateVar
	for !p.peekIs(TokRBrace) {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokColon); err != nil {
			return nil, err
		}
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		sv := &StateVar{Name: name.Text, Type: typ, Pos: name.Pos}
		if p.peekKeyword("doc") {
			p.next()
			s, err := p.expectString()
			if err != nil {
				return nil, err
			}
			sv.Doc = s
		}
		out = append(out, sv)
	}
	if _, err := p.expect(TokRBrace); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *Parser) parseType() (Type, error) {
	t, err := p.expectIdent()
	if err != nil {
		return Type{}, err
	}
	switch t.Text {
	case "str":
		return StrT, nil
	case "int":
		return IntT, nil
	case "bool":
		return BoolT, nil
	case "map":
		return MapT, nil
	case "enum":
		if _, err := p.expect(TokLParen); err != nil {
			return Type{}, err
		}
		var vals []string
		for {
			s, err := p.expectString()
			if err != nil {
				return Type{}, err
			}
			vals = append(vals, s)
			if p.peekIs(TokComma) {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(TokRParen); err != nil {
			return Type{}, err
		}
		return EnumT(vals...), nil
	case "ref":
		if _, err := p.expect(TokLParen); err != nil {
			return Type{}, err
		}
		sm, err := p.expectIdent()
		if err != nil {
			return Type{}, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return Type{}, err
		}
		return RefT(sm.Text), nil
	case "list":
		if _, err := p.expect(TokLParen); err != nil {
			return Type{}, err
		}
		elem, err := p.parseType()
		if err != nil {
			return Type{}, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return Type{}, err
		}
		return ListT(elem), nil
	default:
		return Type{}, syntaxErrf(t.Pos, "unknown type %q", t.Text)
	}
}

func (p *Parser) parseTransition() (*Transition, error) {
	start, err := p.expectKeyword("transition")
	if err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	tr := &Transition{Name: name.Text, Pos: start.Pos}
	for !p.peekIs(TokRParen) {
		param, err := p.parseParam()
		if err != nil {
			return nil, err
		}
		tr.Params = append(tr.Params, param)
		if p.peekIs(TokComma) {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	kindTok, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	kind, ok := ParseTransKind(kindTok.Text)
	if !ok {
		return nil, syntaxErrf(kindTok.Pos, "expected transition kind (create/destroy/describe/modify), found %q", kindTok.Text)
	}
	tr.Kind = kind
	if p.peekKeyword("internal") {
		p.next()
		tr.Internal = true
	}
	if p.peekKeyword("doc") {
		p.next()
		s, err := p.expectString()
		if err != nil {
			return nil, err
		}
		tr.Doc = s
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	tr.Body = body
	return tr, nil
}

func (p *Parser) parseParam() (*Param, error) {
	param := &Param{}
	for {
		switch {
		case p.peekKeyword("opt"):
			p.next()
			param.Optional = true
			continue
		case p.peekKeyword("parent"):
			p.next()
			param.ParentLink = true
			continue
		case p.peekKeyword("receiver"):
			p.next()
			param.Receiver = true
			continue
		}
		break
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	param.Name = name.Text
	param.Pos = name.Pos
	if _, err := p.expect(TokColon); err != nil {
		return nil, err
	}
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	param.Type = typ
	if p.peekIs(TokAssign) {
		p.next()
		lit, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		param.Default = lit
	}
	return param, nil
}

func (p *Parser) parseLiteral() (cloudapi.Value, error) {
	t := p.cur()
	switch t.Kind {
	case TokString:
		p.next()
		return cloudapi.Str(t.Text), nil
	case TokInt:
		p.next()
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return cloudapi.Nil, syntaxErrf(t.Pos, "bad integer %q", t.Text)
		}
		return cloudapi.Int(n), nil
	case TokMinus:
		p.next()
		it, err := p.expect(TokInt)
		if err != nil {
			return cloudapi.Nil, err
		}
		n, err := strconv.ParseInt(it.Text, 10, 64)
		if err != nil {
			return cloudapi.Nil, syntaxErrf(it.Pos, "bad integer %q", it.Text)
		}
		return cloudapi.Int(-n), nil
	case TokIdent:
		switch t.Text {
		case "true":
			p.next()
			return cloudapi.True, nil
		case "false":
			p.next()
			return cloudapi.False, nil
		case "nil":
			p.next()
			return cloudapi.Nil, nil
		}
	}
	return cloudapi.Nil, syntaxErrf(t.Pos, "expected literal, found %v%s", t.Kind, tokenDetail(t))
}

func (p *Parser) parseBlock() ([]Stmt, error) {
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	var stmts []Stmt
	for !p.peekIs(TokRBrace) {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	if _, err := p.expect(TokRBrace); err != nil {
		return nil, err
	}
	return stmts, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	t := p.cur()
	if t.Kind != TokIdent {
		return nil, syntaxErrf(t.Pos, "expected statement, found %v%s", t.Kind, tokenDetail(t))
	}
	switch t.Text {
	case "write":
		p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		state, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokComma); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return &WriteStmt{State: state.Text, Value: val, Pos: t.Pos}, nil
	case "assert":
		p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		pred, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		st := &AssertStmt{Pred: pred, Pos: t.Pos}
		if p.peekKeyword("error") {
			p.next()
			code, err := p.expectString()
			if err != nil {
				return nil, err
			}
			st.Code = code
			if p.peekIs(TokString) {
				msg, _ := p.expectString()
				st.Message = msg
			}
		}
		return st, nil
	case "call":
		p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		// Parse target.Trans(args): the target is a postfix expression
		// whose final field access is reinterpreted as the transition
		// name when followed by an argument list.
		target, err := p.parsePostfix()
		if err != nil {
			return nil, err
		}
		fe, ok := target.(*FieldExpr)
		if !ok {
			return nil, syntaxErrf(t.Pos, "call target must be of the form expr.Transition(...)")
		}
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		var args []Expr
		for !p.peekIs(TokRParen) {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.peekIs(TokComma) {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return &CallStmt{Target: fe.X, Trans: fe.Name, Args: args, Pos: t.Pos}, nil
	case "if":
		p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		thenB, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		st := &IfStmt{Cond: cond, Then: thenB, Pos: t.Pos}
		if p.peekKeyword("else") {
			p.next()
			elseB, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			st.Else = elseB
		}
		return st, nil
	case "return":
		p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokComma); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return &ReturnStmt{Name: name.Text, Value: val, Pos: t.Pos}, nil
	case "foreach":
		p.next()
		v, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectKeyword("in"); err != nil {
			return nil, err
		}
		over, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &ForEachStmt{Var: v.Text, Over: over, Body: body, Pos: t.Pos}, nil
	default:
		return nil, syntaxErrf(t.Pos, "unknown statement %q", t.Text)
	}
}

// Expression grammar, by descending precedence:
//
//	or   := and ('||' and)*
//	and  := cmp ('&&' cmp)*
//	cmp  := add (('=='|'!='|'<'|'<='|'>'|'>=') add)?
//	add  := unary (('+'|'-') unary)*
//	unary := ('!'|'-') unary | postfix
//	postfix := primary ('.' ident)*
//	primary := literal | 'self' | 'read' '(' ident ')' |
//	           ident '(' args ')' | ident | '(' expr ')'
func (p *Parser) parseExpr() (Expr, error) {
	return p.parseOr()
}

func (p *Parser) parseOr() (Expr, error) {
	x, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peekIs(TokOr) {
		op := p.next()
		y, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		x = &BinaryExpr{Op: TokOr, X: x, Y: y, Pos: op.Pos}
	}
	return x, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	x, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.peekIs(TokAnd) {
		op := p.next()
		y, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		x = &BinaryExpr{Op: TokAnd, X: x, Y: y, Pos: op.Pos}
	}
	return x, nil
}

func (p *Parser) parseCmp() (Expr, error) {
	x, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	switch p.cur().Kind {
	case TokEq, TokNeq, TokLt, TokLe, TokGt, TokGe:
		op := p.next()
		y, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: op.Kind, X: x, Y: y, Pos: op.Pos}, nil
	}
	return x, nil
}

func (p *Parser) parseAdd() (Expr, error) {
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.peekIs(TokPlus) || p.peekIs(TokMinus) {
		op := p.next()
		y, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		x = &BinaryExpr{Op: op.Kind, X: x, Y: y, Pos: op.Pos}
	}
	return x, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	switch p.cur().Kind {
	case TokBang:
		op := p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: TokBang, X: x, Pos: op.Pos}, nil
	case TokMinus:
		op := p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: TokMinus, X: x, Pos: op.Pos}, nil
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.peekIs(TokDot) {
		dot := p.next()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		x = &FieldExpr{X: x, Name: name.Text, Pos: dot.Pos}
	}
	return x, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokString:
		p.next()
		return &Lit{Value: cloudapi.Str(t.Text), Pos: t.Pos}, nil
	case TokInt:
		p.next()
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, syntaxErrf(t.Pos, "bad integer %q", t.Text)
		}
		return &Lit{Value: cloudapi.Int(n), Pos: t.Pos}, nil
	case TokLParen:
		p.next()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return x, nil
	case TokIdent:
		switch t.Text {
		case "true":
			p.next()
			return &Lit{Value: cloudapi.True, Pos: t.Pos}, nil
		case "false":
			p.next()
			return &Lit{Value: cloudapi.False, Pos: t.Pos}, nil
		case "nil":
			p.next()
			return &Lit{Value: cloudapi.Nil, Pos: t.Pos}, nil
		case "self":
			p.next()
			return &SelfExpr{Pos: t.Pos}, nil
		case "read":
			p.next()
			if _, err := p.expect(TokLParen); err != nil {
				return nil, err
			}
			state, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			return &ReadExpr{State: state.Text, Pos: t.Pos}, nil
		}
		p.next()
		if p.peekIs(TokLParen) {
			p.next()
			var args []Expr
			for !p.peekIs(TokRParen) {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.peekIs(TokComma) {
					p.next()
					continue
				}
				break
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			return &BuiltinExpr{Name: t.Text, Args: args, Pos: t.Pos}, nil
		}
		return &Ident{Name: t.Text, Pos: t.Pos}, nil
	default:
		return nil, syntaxErrf(t.Pos, "expected expression, found %v%s", t.Kind, tokenDetail(t))
	}
}
