package spec

import (
	"fmt"
	"strconv"
	"strings"

	"lce/internal/cloudapi"
)

// Print renders a service in canonical concrete syntax. The output is
// stable (same AST → same text) and re-parses to an equivalent AST;
// the synthesizer's constrained decoder and the specification-linking
// pass both rely on this round trip.
func Print(svc *Service) string {
	var b strings.Builder
	fmt.Fprintf(&b, "service %s {\n", svc.Name)
	for i, sm := range svc.SMs {
		if i > 0 {
			b.WriteString("\n")
		}
		printSM(&b, sm, 1)
	}
	b.WriteString("}\n")
	return b.String()
}

// PrintSM renders one SM block in canonical form.
func PrintSM(sm *SM) string {
	var b strings.Builder
	printSM(&b, sm, 0)
	return b.String()
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func printSM(b *strings.Builder, sm *SM, depth int) {
	indent(b, depth)
	fmt.Fprintf(b, "sm %s {\n", sm.Name)
	if sm.Doc != "" {
		indent(b, depth+1)
		fmt.Fprintf(b, "doc %s\n", quote(sm.Doc))
	}
	if sm.IDPrefix != "" {
		indent(b, depth+1)
		fmt.Fprintf(b, "idprefix %s\n", quote(sm.IDPrefix))
	}
	if sm.Parent != "" {
		indent(b, depth+1)
		fmt.Fprintf(b, "parent %s\n", sm.Parent)
	}
	if sm.NotFound != "" {
		indent(b, depth+1)
		fmt.Fprintf(b, "notfound %s\n", quote(sm.NotFound))
	}
	if sm.Dependency != "" {
		indent(b, depth+1)
		fmt.Fprintf(b, "dependency %s\n", quote(sm.Dependency))
	}
	if len(sm.States) > 0 {
		indent(b, depth+1)
		b.WriteString("states {\n")
		for _, sv := range sm.States {
			indent(b, depth+2)
			fmt.Fprintf(b, "%s: %s", sv.Name, sv.Type)
			if sv.Doc != "" {
				fmt.Fprintf(b, " doc %s", quote(sv.Doc))
			}
			b.WriteString("\n")
		}
		indent(b, depth+1)
		b.WriteString("}\n")
	}
	for _, tr := range sm.Transitions {
		printTransition(b, tr, depth+1)
	}
	indent(b, depth)
	b.WriteString("}\n")
}

func printTransition(b *strings.Builder, tr *Transition, depth int) {
	indent(b, depth)
	fmt.Fprintf(b, "transition %s(", tr.Name)
	for i, p := range tr.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		if p.Optional {
			b.WriteString("opt ")
		}
		if p.ParentLink {
			b.WriteString("parent ")
		}
		if p.Receiver {
			b.WriteString("receiver ")
		}
		fmt.Fprintf(b, "%s: %s", p.Name, p.Type)
		if !p.Default.IsNil() {
			fmt.Fprintf(b, " = %s", litText(p.Default))
		}
	}
	fmt.Fprintf(b, ") %s", tr.Kind)
	if tr.Internal {
		b.WriteString(" internal")
	}
	if tr.Doc != "" {
		fmt.Fprintf(b, " doc %s", quote(tr.Doc))
	}
	b.WriteString(" {\n")
	printStmts(b, tr.Body, depth+1)
	indent(b, depth)
	b.WriteString("}\n")
}

// quote renders s as a string literal that lexes back to s: it escapes
// exactly what the lexer has escapes for (\" \\ \n \t) and writes
// every other rune raw. strconv.Quote's \r, \x and \u forms would not
// re-parse. Invalid UTF-8 comes out as U+FFFD, as the lexer reads it.
func quote(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 2)
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

func litText(v cloudapi.Value) string {
	switch v.Kind() {
	case cloudapi.KindNil:
		return "nil"
	case cloudapi.KindString:
		return quote(v.AsString())
	case cloudapi.KindInt:
		return strconv.FormatInt(v.AsInt(), 10)
	case cloudapi.KindBool:
		return strconv.FormatBool(v.AsBool())
	default:
		return v.String()
	}
}

func printStmts(b *strings.Builder, stmts []Stmt, depth int) {
	for _, s := range stmts {
		printStmt(b, s, depth)
	}
}

func printStmt(b *strings.Builder, s Stmt, depth int) {
	indent(b, depth)
	switch st := s.(type) {
	case *WriteStmt:
		fmt.Fprintf(b, "write(%s, %s)\n", st.State, ExprString(st.Value))
	case *AssertStmt:
		fmt.Fprintf(b, "assert(%s)", ExprString(st.Pred))
		if st.Code != "" {
			fmt.Fprintf(b, " error %s", quote(st.Code))
			if st.Message != "" {
				fmt.Fprintf(b, " %s", quote(st.Message))
			}
		}
		b.WriteString("\n")
	case *CallStmt:
		args := make([]string, len(st.Args))
		for i, a := range st.Args {
			args[i] = ExprString(a)
		}
		fmt.Fprintf(b, "call(%s.%s(%s))\n", ExprString(st.Target), st.Trans, strings.Join(args, ", "))
	case *IfStmt:
		fmt.Fprintf(b, "if (%s) {\n", ExprString(st.Cond))
		printStmts(b, st.Then, depth+1)
		indent(b, depth)
		b.WriteString("}")
		if len(st.Else) > 0 {
			b.WriteString(" else {\n")
			printStmts(b, st.Else, depth+1)
			indent(b, depth)
			b.WriteString("}")
		}
		b.WriteString("\n")
	case *ReturnStmt:
		fmt.Fprintf(b, "return(%s, %s)\n", st.Name, ExprString(st.Value))
	case *ForEachStmt:
		fmt.Fprintf(b, "foreach %s in %s {\n", st.Var, ExprString(st.Over))
		printStmts(b, st.Body, depth+1)
		indent(b, depth)
		b.WriteString("}\n")
	default:
		fmt.Fprintf(b, "/* unknown stmt %T */\n", s)
	}
}

// ExprString renders an expression in canonical concrete syntax.
func ExprString(e Expr) string {
	switch x := e.(type) {
	case *Lit:
		return litText(x.Value)
	case *Ident:
		return x.Name
	case *ReadExpr:
		return "read(" + x.State + ")"
	case *SelfExpr:
		return "self"
	case *FieldExpr:
		return exprStringPrec(x.X, precPostfix) + "." + x.Name
	case *BuiltinExpr:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = ExprString(a)
		}
		return x.Name + "(" + strings.Join(args, ", ") + ")"
	case *UnaryExpr:
		op := "!"
		if x.Op == TokMinus {
			op = "-"
		}
		return op + exprStringPrec(x.X, precUnary)
	case *BinaryExpr:
		prec := binPrec(x.Op)
		return exprStringPrec(x.X, prec) + " " + binOpText(x.Op) + " " + exprStringPrec(x.Y, prec+1)
	default:
		return fmt.Sprintf("/*?%T*/", e)
	}
}

const (
	precOr = iota + 1
	precAnd
	precCmp
	precAdd
	precUnary
	precPostfix
)

func binPrec(op TokenKind) int {
	switch op {
	case TokOr:
		return precOr
	case TokAnd:
		return precAnd
	case TokEq, TokNeq, TokLt, TokLe, TokGt, TokGe:
		return precCmp
	case TokPlus, TokMinus:
		return precAdd
	default:
		return precPostfix
	}
}

func binOpText(op TokenKind) string {
	switch op {
	case TokOr:
		return "||"
	case TokAnd:
		return "&&"
	case TokEq:
		return "=="
	case TokNeq:
		return "!="
	case TokLt:
		return "<"
	case TokLe:
		return "<="
	case TokGt:
		return ">"
	case TokGe:
		return ">="
	case TokPlus:
		return "+"
	case TokMinus:
		return "-"
	default:
		return "?"
	}
}

func exprPrec(e Expr) int {
	switch x := e.(type) {
	case *BinaryExpr:
		return binPrec(x.Op)
	case *UnaryExpr:
		return precUnary
	default:
		return precPostfix
	}
}

func exprStringPrec(e Expr, min int) string {
	s := ExprString(e)
	if exprPrec(e) < min {
		return "(" + s + ")"
	}
	return s
}
