package spec

import (
	"fmt"
	"slices"
	"sort"

	"lce/internal/cloudapi"
)

// TypeKind enumerates the state/parameter types the grammar admits.
type TypeKind int

// Type kinds.
const (
	TString TypeKind = iota
	TInt
	TBool
	TEnum
	TRef  // reference to another SM instance
	TList // homogeneous list
	TMap  // string-keyed map of values (used by document-style services)
)

// Type is a spec-level type annotation.
type Type struct {
	Kind TypeKind
	// Ref names the target SM for TRef.
	Ref string
	// Enum lists the admissible values for TEnum.
	Enum []string
	// Elem is the element type for TList.
	Elem *Type
}

// StrT, IntT, BoolT are the scalar type constants.
var (
	StrT  = Type{Kind: TString}
	IntT  = Type{Kind: TInt}
	BoolT = Type{Kind: TBool}
	MapT  = Type{Kind: TMap}
)

// EnumT constructs an enum type.
func EnumT(vals ...string) Type { return Type{Kind: TEnum, Enum: vals} }

// RefT constructs a reference type.
func RefT(sm string) Type { return Type{Kind: TRef, Ref: sm} }

// ListT constructs a list type.
func ListT(elem Type) Type { return Type{Kind: TList, Elem: &elem} }

// String renders the type in concrete syntax.
func (t Type) String() string {
	switch t.Kind {
	case TString:
		return "str"
	case TInt:
		return "int"
	case TBool:
		return "bool"
	case TMap:
		return "map"
	case TEnum:
		s := "enum("
		for i, v := range t.Enum {
			if i > 0 {
				s += ", "
			}
			s += quote(v)
		}
		return s + ")"
	case TRef:
		return "ref(" + t.Ref + ")"
	case TList:
		return "list(" + t.Elem.String() + ")"
	default:
		return fmt.Sprintf("type(%d)", int(t.Kind))
	}
}

// Equal reports structural type equality.
func (t Type) Equal(o Type) bool {
	if t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case TRef:
		return t.Ref == o.Ref
	case TEnum:
		if len(t.Enum) != len(o.Enum) {
			return false
		}
		for i := range t.Enum {
			if t.Enum[i] != o.Enum[i] {
				return false
			}
		}
		return true
	case TList:
		return t.Elem.Equal(*o.Elem)
	default:
		return true
	}
}

// AdmitsEnum reports whether v is an admissible value of the enum.
func (t Type) AdmitsEnum(v string) bool {
	for _, e := range t.Enum {
		if e == v {
			return true
		}
	}
	return false
}

// TransKind classifies transitions into the paper's four API
// categories (§3): create(), destroy(), describe(), modify().
type TransKind int

// Transition kinds.
const (
	KCreate TransKind = iota
	KDestroy
	KDescribe
	KModify
)

// String renders the kind keyword.
func (k TransKind) String() string {
	switch k {
	case KCreate:
		return "create"
	case KDestroy:
		return "destroy"
	case KDescribe:
		return "describe"
	case KModify:
		return "modify"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ParseTransKind parses a kind keyword.
func ParseTransKind(s string) (TransKind, bool) {
	switch s {
	case "create":
		return KCreate, true
	case "destroy":
		return KDestroy, true
	case "describe":
		return KDescribe, true
	case "modify":
		return KModify, true
	default:
		return 0, false
	}
}

// Service is a parsed specification: a set of SMs for one cloud
// service. It is the unit of synthesis, checking, interpretation, and
// alignment.
type Service struct {
	Name string
	SMs  []*SM
	Pos  Pos

	smIndex map[string]*SM
	actIdx  map[string]actionRef
	// checked holds the last check (Check, Recheck) of each SM in
	// SMs, in order; Recheck matches records to SMs by pointer.
	checked []smCheck
}

type actionRef struct {
	sm    *SM
	trans *Transition
}

// SM is one resource state machine.
type SM struct {
	Name string
	Doc  string
	// IDPrefix is the resource-ID prefix, e.g. "vpc".
	IDPrefix string
	// Parent names the containing SM ("" for roots). Containment scopes
	// the impact of SM operations and drives the framework's
	// correctness checks (creation must not delete ancestors; deletion
	// requires all children reclaimed).
	Parent string
	// NotFound is the error code returned when the receiver instance
	// does not exist.
	NotFound string
	// Dependency is the error code returned when a destroy is attempted
	// while children are still alive.
	Dependency  string
	States      []*StateVar
	Transitions []*Transition
	Pos         Pos

	// Compile-time linking tables, built by Service.Index: the state
	// slot layout (state name → dense index in declaration order) and
	// the resolved ID prefix. The interpreter's compiled path binds
	// state reads/writes to slot indices instead of per-step map
	// lookups; the slice-backed World view is laid out by this table.
	slotIdx   map[string]int
	slotNames []string
	idPrefix  string
}

// StateVar is one typed state variable.
type StateVar struct {
	Name string
	Type Type
	Doc  string
	Pos  Pos
}

// Param is one transition parameter.
type Param struct {
	Name string
	Type Type
	// Optional parameters bind to nil (or Default) when absent.
	Optional bool
	// Default is the value an absent optional parameter binds to.
	Default cloudapi.Value
	// ParentLink marks the create parameter that establishes the
	// containment edge to the parent SM.
	ParentLink bool
	// Receiver marks the parameter that addresses the transition's
	// receiver instance. A parameter named "self" is implicitly the
	// receiver; the explicit marker lets specs keep the cloud API's
	// wire name (e.g. DeleteVpc's vpcId).
	Receiver bool
	Pos      Pos
}

// Transition is one API action on an SM. Internal transitions are
// synthesized by the specification-linking pass to carry cross-SM
// effects (they are reachable through the call primitive only, not
// through the public API surface).
type Transition struct {
	Name     string
	Kind     TransKind
	Internal bool
	Doc      string
	Params   []*Param
	Body     []Stmt
	Pos      Pos
}

// SelfParam returns the receiver parameter: the one marked `receiver`,
// or failing that the one named "self". Create transitions have an
// implicit receiver (the instance being created); destroy, modify and
// describe transitions address an existing instance through an
// explicit receiver parameter, and service-level describes (e.g.
// DescribeVpcs) have none.
func (t *Transition) SelfParam() *Param {
	for _, p := range t.Params {
		if p.Receiver || p.Name == "self" {
			return p
		}
	}
	return nil
}

// ParentParam returns the parameter carrying the containment link, or
// nil.
func (t *Transition) ParentParam() *Param {
	for _, p := range t.Params {
		if p.ParentLink {
			return p
		}
	}
	return nil
}

// Param returns the named parameter, or nil.
func (t *Transition) Param(name string) *Param {
	for _, p := range t.Params {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// Stmt is a statement in a transition body.
type Stmt interface {
	stmt()
	// Position returns the statement's source position.
	Position() Pos
}

// WriteStmt is `write(state, expr)`: assign a state variable of self.
type WriteStmt struct {
	State string
	Value Expr
	Pos   Pos
}

// AssertStmt is `assert pred error "Code" ["message"]`: the predicate
// must hold, otherwise the transition fails with the given API error
// code (§4.2: failed assertions map to error codes).
type AssertStmt struct {
	Pred    Expr
	Code    string
	Message string
	Pos     Pos
}

// CallStmt is `call(target.Transition(args...))`: trigger a state
// transition on another SM instance (§3's call primitive).
type CallStmt struct {
	Target Expr // must be ref-typed
	Trans  string
	Args   []Expr
	Pos    Pos
}

// IfStmt is `if pred { ... } [else { ... }]`.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
	Pos  Pos
}

// ReturnStmt is `return(name, expr)`: add an attribute to the API
// response.
type ReturnStmt struct {
	Name  string
	Value Expr
	Pos   Pos
}

// ForEachStmt is `foreach x in expr { ... }`: iterate a list value.
type ForEachStmt struct {
	Var  string
	Over Expr
	Body []Stmt
	Pos  Pos
}

func (*WriteStmt) stmt()   {}
func (*AssertStmt) stmt()  {}
func (*CallStmt) stmt()    {}
func (*IfStmt) stmt()      {}
func (*ReturnStmt) stmt()  {}
func (*ForEachStmt) stmt() {}

// Position implements Stmt.
func (s *WriteStmt) Position() Pos { return s.Pos }

// Position implements Stmt.
func (s *AssertStmt) Position() Pos { return s.Pos }

// Position implements Stmt.
func (s *CallStmt) Position() Pos { return s.Pos }

// Position implements Stmt.
func (s *IfStmt) Position() Pos { return s.Pos }

// Position implements Stmt.
func (s *ReturnStmt) Position() Pos { return s.Pos }

// Position implements Stmt.
func (s *ForEachStmt) Position() Pos { return s.Pos }

// Expr is an expression.
type Expr interface {
	expr()
	// Position returns the expression's source position.
	Position() Pos
}

// Lit is a literal value (string, int, bool, nil).
type Lit struct {
	Value cloudapi.Value
	Pos   Pos
}

// Ident resolves to a transition parameter, a foreach variable, or —
// failing those — a state variable of self (the paper's §3 example
// uses bare state names in predicates, e.g. `assert(!NIC)`).
type Ident struct {
	Name string
	Pos  Pos
}

// ReadExpr is `read(state)`: explicitly read a state variable of self.
type ReadExpr struct {
	State string
	Pos   Pos
}

// SelfExpr is `self`: a reference to the receiver instance.
type SelfExpr struct {
	Pos Pos
}

// FieldExpr is `x.field`: read state variable `field` of the instance
// referenced by x.
type FieldExpr struct {
	X    Expr
	Name string
	Pos  Pos
}

// BuiltinExpr is a call to one of the framework's pure builtin
// functions (len, isnil, id, children, instances, append, remove,
// contains, cidrValid, prefixLen, cidrWithin, cidrOverlaps, …).
type BuiltinExpr struct {
	Name string
	Args []Expr
	Pos  Pos
}

// UnaryExpr is `!x` or `-x`.
type UnaryExpr struct {
	Op  TokenKind // TokBang or TokMinus
	X   Expr
	Pos Pos
}

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	Op   TokenKind
	X, Y Expr
	Pos  Pos
}

func (*Lit) expr()         {}
func (*Ident) expr()       {}
func (*ReadExpr) expr()    {}
func (*SelfExpr) expr()    {}
func (*FieldExpr) expr()   {}
func (*BuiltinExpr) expr() {}
func (*UnaryExpr) expr()   {}
func (*BinaryExpr) expr()  {}

// Position implements Expr.
func (e *Lit) Position() Pos { return e.Pos }

// Position implements Expr.
func (e *Ident) Position() Pos { return e.Pos }

// Position implements Expr.
func (e *ReadExpr) Position() Pos { return e.Pos }

// Position implements Expr.
func (e *SelfExpr) Position() Pos { return e.Pos }

// Position implements Expr.
func (e *FieldExpr) Position() Pos { return e.Pos }

// Position implements Expr.
func (e *BuiltinExpr) Position() Pos { return e.Pos }

// Position implements Expr.
func (e *UnaryExpr) Position() Pos { return e.Pos }

// Position implements Expr.
func (e *BinaryExpr) Position() Pos { return e.Pos }

// Index (re)builds the service's lookup tables. It must be called
// after constructing a Service programmatically or editing its SMs in
// place; the parser and the repair engine index automatically. An SM
// whose States still match its slot layout keeps that layout.
func (s *Service) Index() error {
	s.smIndex = make(map[string]*SM, len(s.SMs))
	nTrans := 0
	for _, sm := range s.SMs {
		nTrans += len(sm.Transitions)
	}
	s.actIdx = make(map[string]actionRef, nTrans)
	for _, sm := range s.SMs {
		if err := s.add(sm); err != nil {
			return err
		}
	}
	return nil
}

// Reindex brings the lookup tables up to date after SMs were replaced
// in, added to or removed from s.SMs: it drops the entries of each
// indexed SM that s.SMs no longer holds and enters each SM that is not
// the one indexed under its name. That holds by one rule: an SM is
// never edited in place once indexed, checked or compiled — a change
// puts a new *SM in its place. Code that edits SMs in place (synth's
// scrub, d2c.Naivify) follows with a whole-service Index, Check or New.
// A name clash falls back to Index.
func (s *Service) Reindex() error {
	if s.smIndex == nil {
		return s.Index()
	}
	for name, old := range s.smIndex {
		if slices.Contains(s.SMs, old) {
			continue
		}
		for _, tr := range old.Transitions {
			if ref, ok := s.actIdx[tr.Name]; ok && ref.sm == old {
				delete(s.actIdx, tr.Name)
			}
		}
		delete(s.smIndex, name)
	}
	for _, sm := range s.SMs {
		if s.smIndex[sm.Name] != sm {
			if err := s.add(sm); err != nil {
				return s.Index()
			}
		}
	}
	return nil
}

// add enters one SM and its transitions into the lookup tables and
// lays out its slots.
func (s *Service) add(sm *SM) error {
	if _, dup := s.smIndex[sm.Name]; dup {
		return fmt.Errorf("spec: duplicate SM %q in service %q", sm.Name, s.Name)
	}
	s.smIndex[sm.Name] = sm
	for _, tr := range sm.Transitions {
		if prev, dup := s.actIdx[tr.Name]; dup {
			return fmt.Errorf("spec: action %q defined on both %q and %q", tr.Name, prev.sm.Name, sm.Name)
		}
		s.actIdx[tr.Name] = actionRef{sm: sm, trans: tr}
	}
	sm.layout()
	return nil
}

// layout builds the SM's slot layout and resolved ID prefix, keeping a
// layout that still matches its States.
func (sm *SM) layout() {
	sm.idPrefix = sm.IDPrefix
	if sm.idPrefix == "" {
		sm.idPrefix = lowerFirst(sm.Name)
	}
	if sm.slotIdx != nil && len(sm.slotNames) == len(sm.States) {
		same := true
		for i, sv := range sm.States {
			if sm.slotNames[i] != sv.Name {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	sm.slotIdx = make(map[string]int, len(sm.States))
	sm.slotNames = make([]string, 0, len(sm.States))
	for _, sv := range sm.States {
		if _, dup := sm.slotIdx[sv.Name]; dup {
			continue // typecheck reports duplicates; keep the first slot
		}
		sm.slotIdx[sv.Name] = len(sm.slotNames)
		sm.slotNames = append(sm.slotNames, sv.Name)
	}
}

// StateSlot resolves a state-variable name to its dense slot index in
// the SM's slice layout. Only meaningful after Service.Index; an
// unindexed SM has no layout and every lookup misses.
func (m *SM) StateSlot(name string) (int, bool) {
	i, ok := m.slotIdx[name]
	return i, ok
}

// NumStates returns the size of the SM's slot layout (0 when the SM is
// not indexed).
func (m *SM) NumStates() int { return len(m.slotNames) }

// SlotNames returns the slot layout in index order. Callers must not
// mutate the returned slice.
func (m *SM) SlotNames() []string { return m.slotNames }

// ResolvedIDPrefix returns the ID prefix with the lowered-SM-name
// fallback applied, or "" when the SM has not been indexed (callers
// fall back to computing it themselves).
func (m *SM) ResolvedIDPrefix() string { return m.idPrefix }

func lowerFirst(s string) string {
	if s == "" {
		return s
	}
	r := []rune(s)
	if r[0] >= 'A' && r[0] <= 'Z' {
		r[0] += 'a' - 'A'
	}
	return string(r)
}

// SM returns the named state machine, or nil.
func (s *Service) SM(name string) *SM {
	return s.smIndex[name]
}

// Action resolves an action name to its SM and transition.
func (s *Service) Action(name string) (*SM, *Transition, bool) {
	ref, ok := s.actIdx[name]
	if !ok {
		return nil, nil, false
	}
	return ref.sm, ref.trans, true
}

// Actions returns every public action name in the service, sorted.
// Internal transitions are not part of the API surface.
func (s *Service) Actions() []string {
	out := make([]string, 0, len(s.actIdx))
	for name, ref := range s.actIdx {
		if ref.trans.Internal {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// State returns the named state variable, or nil.
func (m *SM) State(name string) *StateVar {
	for _, sv := range m.States {
		if sv.Name == name {
			return sv
		}
	}
	return nil
}

// Transition returns the named transition, or nil.
func (m *SM) Transition(name string) *Transition {
	for _, tr := range m.Transitions {
		if tr.Name == name {
			return tr
		}
	}
	return nil
}

// Complexity returns the paper's SM complexity measure (§5,
// Fig. 4): the number of state variables plus the number of
// transitions.
func (m *SM) Complexity() int {
	return len(m.States) + len(m.Transitions)
}
