package spec

import (
	"fmt"
	"slices"

	"lce/internal/cloudapi"
)

// CheckMode selects how strictly references to other SMs are resolved.
type CheckMode int

const (
	// Strict requires every ref type, parent edge, and call target to
	// resolve within the service. Used on fully linked services.
	Strict CheckMode = iota
	// Partial tolerates dangling references to SMs that are not (yet)
	// part of the service. The incremental extraction pass (§4.2)
	// generates SMs one at a time with stubs for dependencies, so its
	// intermediate outputs are only Partial-valid; the linking pass
	// must produce a Strict-valid service.
	Partial
)

// CheckError is one well-formedness violation.
type CheckError struct {
	Pos Pos
	SM  string
	Msg string
}

// Error implements the error interface.
func (e *CheckError) Error() string {
	return fmt.Sprintf("spec: %s: sm %s: %s", e.Pos, e.SM, e.Msg)
}

// checker validates one service, one SM at a time.
type checker struct {
	svc  *Service
	mode CheckMode
	errs []error
	// reads collects the other SMs the current SM's check resolved.
	reads []string
}

// smCheck is the record of one SM's last check: the errors it found,
// in the mode it ran, and the other SMs it resolved.
type smCheck struct {
	sm    *SM
	mode  CheckMode
	errs  []error
	reads []string
}

// Check validates the well-formedness of a service specification:
// types resolve, identifiers bind, writes target declared state
// variables with compatible types, asserts are boolean, calls target
// existing transitions with matching arity. It returns all violations
// found (nil when the spec is well-formed).
//
// Check is the "syntactic checks in the interpreter" guard from §5:
// the free-decoding synthesis path re-prompts until Parse and Check
// both pass. Behavioural soundness checks (describe-must-not-write and
// friends) live in internal/checks, mirroring the paper's separation
// between grammar conformance and consistency checking.
//
// Check is Recheck with every SM's record discarded.
func Check(svc *Service, mode CheckMode) []error {
	svc.checked = svc.checked[:0]
	return Recheck(svc, mode)
}

// Recheck is Check for a service whose last check is on record and
// whose named SMs changed since: it re-checks those SMs and every SM
// whose last check resolved one of the names, and reuses the recorded
// errors of the rest. An SM checks only itself and the SMs it resolves
// by name, so the result equals a whole-service Check as long as every
// SM that changed since its last check is named. An SM with no record
// (a new or replaced one), or one checked in another mode, is checked.
func Recheck(svc *Service, mode CheckMode, changed ...string) []error {
	if svc.smIndex == nil {
		if err := svc.Index(); err != nil {
			return []error{err}
		}
	}
	c := &checker{svc: svc, mode: mode}
	var errs []error
	for i, sm := range svc.SMs {
		if i == len(svc.checked) {
			svc.checked = append(svc.checked, smCheck{})
		}
		rec := &svc.checked[i]
		if rec.sm != sm || rec.mode != mode || slices.Contains(changed, sm.Name) || slices.ContainsFunc(rec.reads, func(n string) bool { return slices.Contains(changed, n) }) {
			c.errs, c.reads = nil, nil
			c.checkSM(sm)
			*rec = smCheck{sm: sm, mode: mode, errs: c.errs, reads: c.reads}
		}
		errs = append(errs, rec.errs...)
	}
	svc.checked = svc.checked[:len(svc.SMs)]
	return errs
}

// Reads returns the other SMs the named SM's last check resolved: the
// SMs its well-formedness depends on.
func (s *Service) Reads(sm string) []string {
	for i := range s.checked {
		if s.checked[i].sm.Name == sm {
			return s.checked[i].reads
		}
	}
	return nil
}

func (c *checker) errorf(sm *SM, pos Pos, format string, args ...any) {
	c.errs = append(c.errs, &CheckError{Pos: pos, SM: sm.Name, Msg: fmt.Sprintf(format, args...)})
}

// resolveSM is the checker's only lookup of an SM by name, so it is
// where the current SM's reads are recorded, resolved or not.
func (c *checker) resolveSM(sm *SM, name string) *SM {
	if name != sm.Name && !slices.Contains(c.reads, name) {
		c.reads = append(c.reads, name)
	}
	return c.svc.SM(name)
}

func (c *checker) checkType(sm *SM, t Type, pos Pos) {
	switch t.Kind {
	case TRef:
		if c.mode == Strict && c.resolveSM(sm, t.Ref) == nil {
			c.errorf(sm, pos, "reference to unknown SM %q", t.Ref)
		}
	case TList:
		c.checkType(sm, *t.Elem, pos)
	case TEnum:
		if len(t.Enum) == 0 {
			c.errorf(sm, pos, "enum type with no values")
		}
	}
}

func (c *checker) checkSM(sm *SM) {
	if sm.Parent != "" && c.mode == Strict && c.resolveSM(sm, sm.Parent) == nil {
		c.errorf(sm, sm.Pos, "parent SM %q does not exist", sm.Parent)
	}
	seen := map[string]bool{}
	for _, sv := range sm.States {
		if seen[sv.Name] {
			c.errorf(sm, sv.Pos, "duplicate state variable %q", sv.Name)
		}
		seen[sv.Name] = true
		c.checkType(sm, sv.Type, sv.Pos)
	}
	names := map[string]bool{}
	for _, tr := range sm.Transitions {
		if names[tr.Name] {
			c.errorf(sm, tr.Pos, "duplicate transition %q", tr.Name)
		}
		names[tr.Name] = true
		c.checkTransition(sm, tr)
	}
}

func (c *checker) checkTransition(sm *SM, tr *Transition) {
	pseen := map[string]bool{}
	for _, p := range tr.Params {
		if pseen[p.Name] {
			c.errorf(sm, p.Pos, "transition %s: duplicate parameter %q", tr.Name, p.Name)
		}
		pseen[p.Name] = true
		c.checkType(sm, p.Type, p.Pos)
		if p.Receiver || p.Name == "self" {
			if tr.Kind == KCreate {
				c.errorf(sm, p.Pos, "transition %s: create transitions must not take an explicit self (the framework binds the new instance)", tr.Name)
			} else if p.Type.Kind != TRef || p.Type.Ref != sm.Name {
				c.errorf(sm, p.Pos, "transition %s: self must have type ref(%s), got %s", tr.Name, sm.Name, p.Type)
			}
		}
		if p.ParentLink {
			if tr.Kind != KCreate {
				c.errorf(sm, p.Pos, "transition %s: parent-link parameters only make sense on create transitions", tr.Name)
			}
			if sm.Parent == "" {
				c.errorf(sm, p.Pos, "transition %s: parent-link parameter on an SM with no declared parent", tr.Name)
			} else if p.Type.Kind != TRef || p.Type.Ref != sm.Parent {
				c.errorf(sm, p.Pos, "transition %s: parent-link parameter must have type ref(%s), got %s", tr.Name, sm.Parent, p.Type)
			}
		}
		if !p.Default.IsNil() && !p.Optional {
			c.errorf(sm, p.Pos, "transition %s: parameter %q has a default but is not optional", tr.Name, p.Name)
		}
	}
	if tr.Kind == KDestroy && tr.SelfParam() == nil {
		c.errorf(sm, tr.Pos, "transition %s: destroy transitions require a self parameter", tr.Name)
	}
	env := &scope{sm: sm, tr: tr, checker: c}
	c.checkStmts(env, tr.Body)
}

// scope tracks identifier bindings while walking a transition body.
type scope struct {
	sm      *SM
	tr      *Transition
	checker *checker
	vars    []scopedVar // foreach variables, innermost last
}

type scopedVar struct {
	name string
	typ  Type
	ok   bool // type known
}

func (s *scope) push(name string, typ Type, known bool) {
	s.vars = append(s.vars, scopedVar{name: name, typ: typ, ok: known})
}

func (s *scope) pop() { s.vars = s.vars[:len(s.vars)-1] }

// resolve finds the binding for an identifier: innermost foreach
// variable, then parameter, then state variable of self.
func (s *scope) resolve(name string) (Type, bool, bool) {
	for i := len(s.vars) - 1; i >= 0; i-- {
		if s.vars[i].name == name {
			return s.vars[i].typ, s.vars[i].ok, true
		}
	}
	if p := s.tr.Param(name); p != nil {
		return p.Type, true, true
	}
	if sv := s.sm.State(name); sv != nil {
		return sv.Type, true, true
	}
	return Type{}, false, false
}

func (c *checker) checkStmts(env *scope, stmts []Stmt) {
	for _, s := range stmts {
		c.checkStmt(env, s)
	}
}

func (c *checker) checkStmt(env *scope, s Stmt) {
	sm, tr := env.sm, env.tr
	switch st := s.(type) {
	case *WriteStmt:
		sv := sm.State(st.State)
		if sv == nil {
			c.errorf(sm, st.Pos, "transition %s: write to undeclared state %q", tr.Name, st.State)
			c.inferExpr(env, st.Value)
			return
		}
		vt, known := c.inferExpr(env, st.Value)
		if known && !assignable(sv.Type, vt) {
			c.errorf(sm, st.Pos, "transition %s: write(%s, …): cannot assign %s to %s", tr.Name, st.State, vt, sv.Type)
		}
		if sv.Type.Kind == TEnum {
			if lit, ok := st.Value.(*Lit); ok && lit.Value.Kind() != 0 {
				if !sv.Type.AdmitsEnum(lit.Value.AsString()) {
					c.errorf(sm, st.Pos, "transition %s: write(%s, %s): value not in enum %s", tr.Name, st.State, lit.Value, sv.Type)
				}
			}
		}
	case *AssertStmt:
		vt, known := c.inferExpr(env, st.Pred)
		if known && vt.Kind != TBool {
			c.errorf(sm, st.Pos, "transition %s: assert predicate has type %s, want bool", tr.Name, vt)
		}
	case *CallStmt:
		tt, known := c.inferExpr(env, st.Target)
		if known && tt.Kind != TRef {
			c.errorf(sm, st.Pos, "transition %s: call target has type %s, want a ref", tr.Name, tt)
			return
		}
		for _, a := range st.Args {
			c.inferExpr(env, a)
		}
		if known && tt.Kind == TRef {
			target := c.resolveSM(sm, tt.Ref)
			if target == nil {
				if c.mode == Strict {
					c.errorf(sm, st.Pos, "transition %s: call into unknown SM %q", tr.Name, tt.Ref)
				}
				return
			}
			callee := target.Transition(st.Trans)
			if callee == nil {
				if c.mode == Strict {
					c.errorf(sm, st.Pos, "transition %s: SM %q has no transition %q", tr.Name, tt.Ref, st.Trans)
				}
				return
			}
			// Internal calls bind positionally to the callee's
			// non-self parameters.
			want := 0
			for _, p := range callee.Params {
				if p.Name != "self" && !p.Optional {
					want++
				}
			}
			max := 0
			for _, p := range callee.Params {
				if p.Name != "self" {
					max++
				}
			}
			if len(st.Args) < want || len(st.Args) > max {
				c.errorf(sm, st.Pos, "transition %s: call %s.%s: %d args, want %d..%d", tr.Name, tt.Ref, st.Trans, len(st.Args), want, max)
			}
		}
	case *IfStmt:
		vt, known := c.inferExpr(env, st.Cond)
		if known && vt.Kind != TBool {
			c.errorf(sm, st.Pos, "transition %s: if condition has type %s, want bool", tr.Name, vt)
		}
		c.checkStmts(env, st.Then)
		c.checkStmts(env, st.Else)
	case *ReturnStmt:
		c.inferExpr(env, st.Value)
	case *ForEachStmt:
		ot, known := c.inferExpr(env, st.Over)
		var elem Type
		elemKnown := false
		if known {
			if ot.Kind != TList {
				c.errorf(sm, st.Pos, "transition %s: foreach over %s, want a list", tr.Name, ot)
			} else if ot.Elem != nil {
				elem, elemKnown = *ot.Elem, true
			}
		}
		env.push(st.Var, elem, elemKnown)
		c.checkStmts(env, st.Body)
		env.pop()
	}
}

// assignable reports whether a value of type from can be stored in a
// slot of type to. Enums accept strings (membership is checked
// separately where statically known); refs must target the same SM.
func assignable(to, from Type) bool {
	if to.Kind == TEnum && from.Kind == TString {
		return true
	}
	if to.Kind == TString && from.Kind == TEnum {
		return true
	}
	if to.Kind == TEnum && from.Kind == TEnum {
		return true
	}
	if to.Kind != from.Kind {
		return false
	}
	switch to.Kind {
	case TRef:
		return to.Ref == from.Ref
	case TList:
		if to.Elem == nil || from.Elem == nil {
			return true
		}
		return assignable(*to.Elem, *from.Elem)
	default:
		return true
	}
}

// inferExpr computes the static type of e where possible; the second
// result reports whether the type is known. Unknown types are not
// errors — the language is dynamically valued and some builtins are
// polymorphic — but every identifier must still bind.
func (c *checker) inferExpr(env *scope, e Expr) (Type, bool) {
	sm, tr := env.sm, env.tr
	switch x := e.(type) {
	case *Lit:
		switch x.Value.Kind() {
		case cloudapi.KindString:
			return StrT, true
		case cloudapi.KindInt:
			return IntT, true
		case cloudapi.KindBool:
			return BoolT, true
		default:
			return Type{}, false
		}
	case *Ident:
		typ, known, bound := env.resolve(x.Name)
		if !bound {
			c.errorf(sm, x.Pos, "transition %s: unknown identifier %q", tr.Name, x.Name)
			return Type{}, false
		}
		return typ, known
	case *ReadExpr:
		sv := sm.State(x.State)
		if sv == nil {
			c.errorf(sm, x.Pos, "transition %s: read of undeclared state %q", tr.Name, x.State)
			return Type{}, false
		}
		return sv.Type, true
	case *SelfExpr:
		return RefT(sm.Name), true
	case *FieldExpr:
		xt, known := c.inferExpr(env, x.X)
		if !known {
			return Type{}, false
		}
		if xt.Kind != TRef {
			c.errorf(sm, x.Pos, "transition %s: field access on %s, want a ref", tr.Name, xt)
			return Type{}, false
		}
		target := c.resolveSM(sm, xt.Ref)
		if target == nil {
			// Dangling in Partial mode: the field type is unknowable.
			if c.mode == Strict {
				c.errorf(sm, x.Pos, "transition %s: field access into unknown SM %q", tr.Name, xt.Ref)
			}
			return Type{}, false
		}
		sv := target.State(x.Name)
		if sv == nil {
			c.errorf(sm, x.Pos, "transition %s: SM %q has no state %q", tr.Name, xt.Ref, x.Name)
			return Type{}, false
		}
		return sv.Type, true
	case *BuiltinExpr:
		return c.inferBuiltin(env, x)
	case *UnaryExpr:
		xt, known := c.inferExpr(env, x.X)
		if x.Op == TokBang {
			if known && xt.Kind != TBool {
				// The paper's own example negates a ref (`assert(!NIC)`),
				// meaning "is unset"; we admit !ref and !nil as isnil.
				if xt.Kind != TRef {
					c.errorf(sm, x.Pos, "transition %s: operator ! on %s", tr.Name, xt)
				}
			}
			return BoolT, true
		}
		if known && xt.Kind != TInt {
			c.errorf(sm, x.Pos, "transition %s: unary - on %s", tr.Name, xt)
		}
		return IntT, true
	case *BinaryExpr:
		xt, xk := c.inferExpr(env, x.X)
		yt, yk := c.inferExpr(env, x.Y)
		switch x.Op {
		case TokAnd, TokOr:
			if xk && xt.Kind != TBool {
				c.errorf(sm, x.Pos, "transition %s: left operand of %s has type %s, want bool", tr.Name, binOpText(x.Op), xt)
			}
			if yk && yt.Kind != TBool {
				c.errorf(sm, x.Pos, "transition %s: right operand of %s has type %s, want bool", tr.Name, binOpText(x.Op), yt)
			}
			return BoolT, true
		case TokEq, TokNeq:
			return BoolT, true
		case TokLt, TokLe, TokGt, TokGe:
			if xk && xt.Kind != TInt && xt.Kind != TString {
				c.errorf(sm, x.Pos, "transition %s: ordered comparison on %s", tr.Name, xt)
			}
			if yk && yt.Kind != TInt && yt.Kind != TString {
				c.errorf(sm, x.Pos, "transition %s: ordered comparison on %s", tr.Name, yt)
			}
			return BoolT, true
		case TokPlus, TokMinus:
			if xk && xt.Kind != TInt {
				c.errorf(sm, x.Pos, "transition %s: arithmetic on %s", tr.Name, xt)
			}
			if yk && yt.Kind != TInt {
				c.errorf(sm, x.Pos, "transition %s: arithmetic on %s", tr.Name, yt)
			}
			return IntT, true
		}
		return Type{}, false
	default:
		return Type{}, false
	}
}

func (c *checker) inferBuiltin(env *scope, x *BuiltinExpr) (Type, bool) {
	sm, tr := env.sm, env.tr
	arity := func(n int) bool {
		if len(x.Args) != n {
			c.errorf(sm, x.Pos, "transition %s: builtin %s takes %d argument(s), got %d", tr.Name, x.Name, n, len(x.Args))
			return false
		}
		return true
	}
	for _, a := range x.Args {
		c.inferExpr(env, a)
	}
	switch x.Name {
	case "len":
		arity(1)
		return IntT, true
	case "isnil":
		arity(1)
		return BoolT, true
	case "id":
		arity(1)
		return StrT, true
	case "children":
		// children("SMName"): live children of self of the given type.
		if arity(1) {
			if lit, ok := x.Args[0].(*Lit); !ok || lit.Value.Kind() != cloudapi.KindString {
				c.errorf(sm, x.Pos, "transition %s: children() takes a string literal SM name", tr.Name)
			} else if c.mode == Strict && c.resolveSM(sm, lit.Value.AsString()) == nil {
				c.errorf(sm, x.Pos, "transition %s: children(%q): unknown SM", tr.Name, lit.Value.AsString())
			} else {
				return ListT(RefT(lit.Value.AsString())), true
			}
		}
		return Type{}, false
	case "instances":
		// instances("SMName"): all live instances of the given type.
		if arity(1) {
			if lit, ok := x.Args[0].(*Lit); !ok || lit.Value.Kind() != cloudapi.KindString {
				c.errorf(sm, x.Pos, "transition %s: instances() takes a string literal SM name", tr.Name)
			} else if c.mode == Strict && c.resolveSM(sm, lit.Value.AsString()) == nil {
				c.errorf(sm, x.Pos, "transition %s: instances(%q): unknown SM", tr.Name, lit.Value.AsString())
			} else {
				return ListT(RefT(lit.Value.AsString())), true
			}
		}
		return Type{}, false
	case "append":
		arity(2)
		return Type{Kind: TList}, false
	case "remove":
		arity(2)
		return Type{Kind: TList}, false
	case "contains":
		arity(2)
		return BoolT, true
	case "concat":
		arity(2)
		return StrT, true
	case "first":
		arity(1)
		return Type{}, false
	case "emptyList":
		arity(0)
		return Type{Kind: TList}, false
	case "emptyMap":
		arity(0)
		return MapT, true
	case "pluck":
		// pluck(list, "stateName"): the named state of each ref in list.
		if arity(2) {
			if f, ok := x.Args[1].(*Lit); !ok || f.Value.Kind() != cloudapi.KindString {
				c.errorf(sm, x.Pos, "transition %s: pluck() takes a string literal state name", tr.Name)
			}
		}
		return Type{Kind: TList}, false
	case "describeEach":
		// describeEach(list): describe() of each ref in list.
		arity(1)
		return ListT(MapT), true
	case "mapMerge":
		arity(2)
		return MapT, true
	case "hasPrefix":
		arity(2)
		return BoolT, true
	case "mapSet":
		arity(3)
		return MapT, true
	case "mapDel":
		arity(2)
		return MapT, true
	case "lookup":
		// lookup("SMName", idExpr): the live instance with that ID, or
		// nil. Used for polymorphic references passed as plain strings
		// (e.g. a route's gatewayId may name an internet or NAT
		// gateway, or the literal "local").
		if arity(2) {
			if lit, ok := x.Args[0].(*Lit); !ok || lit.Value.Kind() != cloudapi.KindString {
				c.errorf(sm, x.Pos, "transition %s: lookup() takes a string literal SM name", tr.Name)
			} else if c.mode == Strict && c.resolveSM(sm, lit.Value.AsString()) == nil {
				c.errorf(sm, x.Pos, "transition %s: lookup(%q, …): unknown SM", tr.Name, lit.Value.AsString())
			} else {
				return RefT(lit.Value.AsString()), true
			}
		}
		return Type{}, false
	case "matching":
		// matching("SMName", "stateName", valueExpr): live instances
		// whose named state equals the value.
		if arity(3) {
			lit, ok := x.Args[0].(*Lit)
			if !ok || lit.Value.Kind() != cloudapi.KindString {
				c.errorf(sm, x.Pos, "transition %s: matching() takes a string literal SM name", tr.Name)
				return Type{}, false
			}
			if f, ok := x.Args[1].(*Lit); !ok || f.Value.Kind() != cloudapi.KindString {
				c.errorf(sm, x.Pos, "transition %s: matching() takes a string literal state name", tr.Name)
				return Type{}, false
			}
			if c.mode == Strict && c.resolveSM(sm, lit.Value.AsString()) == nil {
				c.errorf(sm, x.Pos, "transition %s: matching(%q, …): unknown SM", tr.Name, lit.Value.AsString())
				return Type{}, false
			}
			return ListT(RefT(lit.Value.AsString())), true
		}
		return Type{}, false
	case "filterEq":
		// filterEq(list, "stateName", valueExpr): the refs in list whose
		// named state equals the value.
		if arity(3) {
			if f, ok := x.Args[1].(*Lit); !ok || f.Value.Kind() != cloudapi.KindString {
				c.errorf(sm, x.Pos, "transition %s: filterEq() takes a string literal state name", tr.Name)
				return Type{}, false
			}
			t, known := c.inferExpr(env, x.Args[0])
			if known && t.Kind == TList {
				return t, true
			}
		}
		return Type{Kind: TList}, false
	case "cidrCapacity":
		arity(1)
		return IntT, true
	case "cidrValid":
		arity(1)
		return BoolT, true
	case "prefixLen":
		arity(1)
		return IntT, true
	case "cidrWithin":
		arity(2)
		return BoolT, true
	case "cidrOverlaps":
		arity(2)
		return BoolT, true
	case "attrs":
		// attrs(ref): snapshot of a referenced instance's state as a map.
		arity(1)
		return MapT, true
	case "describe":
		// describe(ref): attrs(ref) plus an "id" key — the canonical
		// per-resource describe payload shared with the cloud's wire
		// format.
		arity(1)
		return MapT, true
	case "describeAll":
		// describeAll("SMName"): describe() of every live instance.
		if arity(1) {
			if lit, ok := x.Args[0].(*Lit); !ok || lit.Value.Kind() != cloudapi.KindString {
				c.errorf(sm, x.Pos, "transition %s: describeAll() takes a string literal SM name", tr.Name)
			} else if c.mode == Strict && c.resolveSM(sm, lit.Value.AsString()) == nil {
				c.errorf(sm, x.Pos, "transition %s: describeAll(%q): unknown SM", tr.Name, lit.Value.AsString())
			} else {
				return ListT(MapT), true
			}
		}
		return Type{}, false
	default:
		c.errorf(sm, x.Pos, "transition %s: unknown builtin %q", tr.Name, x.Name)
		return Type{}, false
	}
}
