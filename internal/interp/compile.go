package interp

import (
	"slices"
	"sync/atomic"

	"lce/internal/cloudapi"
	"lce/internal/spec"
)

// This file is the compiler: it lowers a type-checked spec.Service
// into a Program of pre-resolved Go closures. Name resolution, error
// table construction, arity checking and state-slot binding all happen
// once here; the runtime (compiled.go) then executes straight-line
// closure calls with integer-indexed state access. The contract is
// strict behavioural equality with the reference walker the tests
// keep (walker_test.go): same
// results, same error codes, same error messages, byte for byte.
//
// Calling conventions. The walker returns every cloudapi.Value (48
// bytes) by value and copies it at every node boundary; the compiled
// form avoids most of those copies two ways:
//
//   - exprFn writes its result through a destination pointer, so each
//     computed value is materialized exactly once. Temporaries live in
//     the frame's register file (frame.regs) at indices assigned here
//     at compile time — a stack temporary whose address is passed
//     through an exprFn (an indirect call) would escape to the heap.
//   - refFn returns a pointer to where a value ALREADY lives — a param
//     slot, a foreach local, a state slot, a literal — so leaf
//     operands of comparisons, predicates and statements are never
//     copied at all. Computed sub-expressions fall back to
//     materializing into a register and returning its address.
//     Builtin arguments are the exception: each builtin is one table
//     entry (builtins.go) over a contiguous []Value, so they are
//     evaluated into consecutive registers.
//
// Invariants that keep this safe: refFn results are read-only and are
// consumed before the next statement runs; an exprFn writes its final
// result to dst only after it has finished reading world, frame, and
// register state; and a node's scratch registers always lie strictly
// above the registers holding its caller's live values. Expressions
// are pure (only call() and write() mutate, and they are statements),
// so evaluating one operand cannot invalidate a pointer obtained for
// another.

// Program is the immutable compiled form of a service spec. It holds
// no world state, so one Program is shared by every fork of an
// emulator (tenant sessions, alignment workers). A Program is a
// snapshot: after repairs replace SMs of the spec, Emulator.Rebuild
// builds the next Program, compiling the SMs that are not the ones
// this one compiled and sharing the compiled form of the rest.
type Program struct {
	svc     *spec.Service
	actions map[string]*compiledTrans
	sms     map[string]*compiledSM
	// compiled counts the SMs this program compiled; it took the rest
	// from the program it was rebuilt from.
	compiled int
}

// compiledSM carries one SM's flattened error-code tables — the walker
// resolves these defaults on every failure; the compiler does it once.
type compiledSM struct {
	sm *spec.SM
	// notFound is the receiver-binding code: SM.NotFound or
	// Invalid<SM>ID.NotFound.
	notFound string
	// callNotFound is the call-target code: SM.NotFound or
	// InvalidResourceID.NotFound.
	callNotFound string
	// dependency is the destroy-with-live-children code.
	dependency string
	trans      map[string]*compiledTrans // includes internal transitions
}

type compiledTrans struct {
	csm      *compiledSM
	tr       *spec.Transition
	kind     spec.TransKind
	internal bool
	readonly bool

	binders   []paramBinder
	nParams   int
	parentIdx int            // param slot of the parent link, or -1
	known     map[string]int // declared param name → slot

	// callPlan is the positional binding plan used when this
	// transition is invoked through call() from another SM.
	callPlan  []callArg
	body      []stmtFn
	maxLocals int
	maxRegs   int
}

type callArg struct {
	isRecv bool
	def    cloudapi.Value
}

// paramBinder binds one declared parameter: presence check, default,
// type coercion, receiver resolution. Its errors are formatted only
// when they fire: most requests bind cleanly, and alignment compiles
// the SMs its repairs replaced every round.
type paramBinder struct {
	name     string
	slot     int
	isRecv   bool
	optional bool
	def      cloudapi.Value
	coerce   coerceFn // nil = pass-through
	// missing is the missing-parameter error, formatted on its first
	// fire and shared by every later one. A Program serves all its
	// sessions at once, so it is published atomically.
	missing atomic.Pointer[cloudapi.APIError]
}

// missingErr returns the binder's missing-parameter error.
func (b *paramBinder) missingErr() *cloudapi.APIError {
	if e := b.missing.Load(); e != nil {
		return e
	}
	e := cloudapi.Errf(cloudapi.CodeMissingParameter, "the request must contain the parameter %s", b.name)
	b.missing.Store(e)
	return e
}

type coerceFn func(f *frame, raw cloudapi.Value) (cloudapi.Value, *cloudapi.APIError, error)

type stmtFn func(f *frame) error
type exprFn func(f *frame, dst *cloudapi.Value) error
type refFn func(f *frame) (*cloudapi.Value, error)

// boolFn is the predicate convention: assert and if conditions, and
// the operands of &&, ||, and !, evaluate straight to a machine bool —
// comparisons and isnil never materialize a Bool Value at all.
type boolFn func(f *frame) (bool, error)

// nilValue backs refFn results for unset state slots. Read-only by the
// refFn invariant.
var nilValue = cloudapi.Nil

// CompileService lowers svc into a Program. The spec is (re)indexed
// first, so like New this must not run concurrently with invocations
// on emulators sharing the spec.
func CompileService(svc *spec.Service) (*Program, error) {
	return compileService(svc, nil)
}

// compileService lowers svc into a Program. Given the program of an
// earlier version of svc, an SM that is still the *spec.SM prev
// compiled keeps prev's compiledSM (a change replaces an SM, never
// edits it; see spec.Service.Reindex): a compiled SM reaches other SMs
// only through the frame's Program at run time, so it does not go stale
// when they change. Only when the service gained or lost an SM, whose
// existence a compiled parameter check reads, does every SM compile
// again. Without prev, the spec is indexed afresh, else re-indexed.
func compileService(svc *spec.Service, prev *Program) (*Program, error) {
	var err error
	if prev == nil {
		err = svc.Index()
	} else {
		err = svc.Reindex()
	}
	if err != nil {
		return nil, err
	}
	if prev != nil && (len(prev.sms) != len(svc.SMs) || slices.ContainsFunc(svc.SMs, func(sm *spec.SM) bool { return prev.sms[sm.Name] == nil })) {
		prev = nil
	}
	p := &Program{
		svc:     svc,
		actions: make(map[string]*compiledTrans),
		sms:     make(map[string]*compiledSM, len(svc.SMs)),
	}
	// Pass 1: take each unchanged SM from prev, and allocate shells for
	// the rest so call() sites can resolve callees of any SM through
	// the program at run time.
	var fresh []*compiledSM
	for _, sm := range svc.SMs {
		if prev != nil && prev.sms[sm.Name].sm == sm {
			csm := prev.sms[sm.Name]
			p.sms[sm.Name] = csm
			for _, tr := range sm.Transitions {
				p.actions[tr.Name] = csm.trans[tr.Name]
			}
			continue
		}
		csm := &compiledSM{
			sm:           sm,
			notFound:     sm.NotFound,
			callNotFound: sm.NotFound,
			dependency:   sm.Dependency,
			trans:        make(map[string]*compiledTrans, len(sm.Transitions)),
		}
		if csm.notFound == "" {
			csm.notFound = "Invalid" + sm.Name + "ID.NotFound"
		}
		if csm.callNotFound == "" {
			csm.callNotFound = "InvalidResourceID.NotFound"
		}
		if csm.dependency == "" {
			csm.dependency = cloudapi.CodeDependencyViolation
		}
		p.sms[sm.Name] = csm
		for _, tr := range sm.Transitions {
			ct := &compiledTrans{
				csm:      csm,
				tr:       tr,
				kind:     tr.Kind,
				internal: tr.Internal,
				readonly: tr.Kind == spec.KDescribe,
			}
			csm.trans[tr.Name] = ct
			p.actions[tr.Name] = ct
		}
		fresh = append(fresh, csm)
	}
	// Pass 2: lower the new shells' parameters and bodies.
	for _, csm := range fresh {
		for _, tr := range csm.sm.Transitions {
			compileTrans(p, csm, csm.trans[tr.Name])
		}
	}
	p.compiled = len(fresh)
	return p, nil
}

func compileTrans(p *Program, csm *compiledSM, ct *compiledTrans) {
	tr := ct.tr
	ct.nParams = len(tr.Params)
	ct.parentIdx = -1
	ct.known = make(map[string]int, len(tr.Params))
	for i, prm := range tr.Params {
		isRecv := prm.Receiver || prm.Name == "self"
		ct.binders = append(ct.binders, paramBinder{
			name:     prm.Name,
			slot:     i,
			isRecv:   isRecv,
			optional: prm.Optional,
			def:      prm.Default,
			coerce:   compileCoerce(p, prm),
		})
		if _, dup := ct.known[prm.Name]; !dup {
			ct.known[prm.Name] = i
		}
		ct.callPlan = append(ct.callPlan, callArg{isRecv: isRecv, def: prm.Default})
	}
	if pp := tr.ParentParam(); pp != nil {
		if i, ok := ct.known[pp.Name]; ok {
			ct.parentIdx = i
		}
	}
	c := &compiler{prog: p, csm: csm, ct: ct, sm: csm.sm, tr: tr}
	ct.body = c.stmts(tr.Body)
	ct.maxLocals = c.maxLocals
	ct.maxRegs = c.maxRegs
}

// compileCoerce mirrors Emulator.coerce with the target SM's existence
// checked at compile time; the expected-type errors are formatted when
// a request's value has the wrong kind. The not-found error takes the
// target's code from the frame's program, so a compiled SM reused
// across rebuilds never answers with a replaced neighbour's code.
func compileCoerce(p *Program, prm *spec.Param) coerceFn {
	name := prm.Name
	switch prm.Type.Kind {
	case spec.TRef:
		refType := prm.Type.Ref
		if p.sms[refType] == nil {
			err := internalErrf("parameter %s references unknown SM %q", name, refType)
			return func(*frame, cloudapi.Value) (cloudapi.Value, *cloudapi.APIError, error) {
				return cloudapi.Nil, nil, err
			}
		}
		return func(f *frame, raw cloudapi.Value) (cloudapi.Value, *cloudapi.APIError, error) {
			switch raw.Kind() {
			case cloudapi.KindRef:
				ref := raw.AsRef()
				if ref.Type != refType {
					return cloudapi.Nil, cloudapi.Errf(cloudapi.CodeInvalidParameter, "parameter %s expects a %s, got a %s", name, refType, ref.Type), nil
				}
				if _, ok := f.world.Lookup(ref.Type, ref.ID); !ok {
					return cloudapi.Nil, compiledNotFound(f.prog.sms[refType], ref.ID), nil
				}
				return raw, nil, nil
			case cloudapi.KindString:
				inst, ok := f.world.Lookup(refType, raw.AsString())
				if !ok {
					return cloudapi.Nil, compiledNotFound(f.prog.sms[refType], raw.AsString()), nil
				}
				return cloudapi.RefOf(inst.Ref), nil, nil
			default:
				return cloudapi.Nil, badKindErr(name, "a resource reference"), nil
			}
		}
	case spec.TString, spec.TEnum:
		return kindCoerce(cloudapi.KindString, name, "a string")
	case spec.TInt:
		return kindCoerce(cloudapi.KindInt, name, "an integer")
	case spec.TBool:
		return kindCoerce(cloudapi.KindBool, name, "a boolean")
	case spec.TList:
		return kindCoerce(cloudapi.KindList, name, "a list")
	case spec.TMap:
		return kindCoerce(cloudapi.KindMap, name, "a map")
	default:
		return nil
	}
}

func kindCoerce(want cloudapi.Kind, name, expects string) coerceFn {
	return func(_ *frame, raw cloudapi.Value) (cloudapi.Value, *cloudapi.APIError, error) {
		if raw.Kind() != want {
			return cloudapi.Nil, badKindErr(name, expects), nil
		}
		return raw, nil, nil
	}
}

func badKindErr(name, expects string) *cloudapi.APIError {
	return cloudapi.Errf(cloudapi.CodeInvalidParameter, "parameter %s expects %s", name, expects)
}

func compiledNotFound(csm *compiledSM, id string) *cloudapi.APIError {
	return cloudapi.Errf(csm.notFound, "the %s %q does not exist", csm.sm.Name, id)
}

// unboundErr and readNoRecvErr are the name-resolution failures of a
// well-typed spec run without a receiver (or of an unchecked one).
func unboundErr(trName, name string) error {
	return internalErrf("transition %s: unbound identifier %q", trName, name)
}

func readNoRecvErr(trName, state string) error {
	return internalErrf("transition %s: read(%s) with no receiver", trName, state)
}

// compiler is the per-transition lowering context. locals is the
// compile-time foreach scope stack; its length at any point is the
// runtime local-slot index. maxRegs is the high-water mark of the
// scratch register file.
type compiler struct {
	prog      *Program
	csm       *compiledSM
	ct        *compiledTrans
	sm        *spec.SM
	tr        *spec.Transition
	locals    []string
	maxLocals int
	maxRegs   int
}

// note records that register index i is used.
func (c *compiler) note(i int) {
	if i+1 > c.maxRegs {
		c.maxRegs = i + 1
	}
}

func (c *compiler) stmts(list []spec.Stmt) []stmtFn {
	out := make([]stmtFn, len(list))
	for i, s := range list {
		out[i] = c.stmt(s)
	}
	return out
}

// Statements compile their expressions in ref form with scratch
// registers from 0 up (statements run sequentially, so the whole
// register file is free at every statement boundary).
func (c *compiler) stmt(s spec.Stmt) stmtFn {
	switch st := s.(type) {
	case *spec.WriteStmt:
		val := c.ref(st.Value, 0)
		name := st.State
		trName := c.tr.Name
		slot, inLayout := c.sm.StateSlot(name)
		return func(f *frame) error {
			if f.readonly {
				return internalErrf("describe transition %s attempted write(%s, …); the framework forbids mutation in describes", trName, name)
			}
			if f.self == nil {
				return internalErrf("transition %s: write(%s, …) with no receiver", trName, name)
			}
			rv, err := val(f)
			if err != nil {
				return err
			}
			if inLayout {
				f.self.setSlot(slot, name, *rv)
			} else {
				f.self.SetAttr(name, *rv)
			}
			return nil
		}
	case *spec.AssertStmt:
		pred := c.boolExpr(st.Pred, 0)
		code := st.Code
		if code == "" {
			code = DefaultAssertCode
		}
		msg := st.Message
		if msg == "" {
			msg = "constraint not satisfied: " + spec.ExprString(st.Pred)
		}
		fail := &assertFailure{err: &cloudapi.APIError{Code: code, Message: msg}}
		return func(f *frame) error {
			ok, err := pred(f)
			if err != nil {
				return err
			}
			if ok {
				return nil
			}
			return fail
		}
	case *spec.CallStmt:
		return c.callStmt(st)
	case *spec.IfStmt:
		cond := c.boolExpr(st.Cond, 0)
		then := c.stmts(st.Then)
		els := c.stmts(st.Else)
		return func(f *frame) error {
			ok, err := cond(f)
			if err != nil {
				return err
			}
			if ok {
				return runBody(f, then)
			}
			return runBody(f, els)
		}
	case *spec.ReturnStmt:
		return c.returnStmt(st)
	case *spec.ForEachStmt:
		over := c.ref(st.Over, 0)
		slot := len(c.locals)
		c.locals = append(c.locals, st.Var)
		if len(c.locals) > c.maxLocals {
			c.maxLocals = len(c.locals)
		}
		body := c.stmts(st.Body)
		c.locals = c.locals[:len(c.locals)-1]
		trName := c.tr.Name
		return func(f *frame) error {
			rv, err := over(f)
			if err != nil {
				return err
			}
			if rv.IsNil() {
				return nil
			}
			if rv.Kind() != cloudapi.KindList {
				return internalErrf("transition %s: foreach over %s", trName, rv.Kind())
			}
			// Copy the slice header before iterating: body statements
			// may overwrite rv's register or even the state slot it
			// points into, and the walker likewise iterates the list
			// value as of loop entry.
			list := rv.AsList()
			for i := range list {
				f.locals[slot] = &list[i]
				if err := runBody(f, body); err != nil {
					return err
				}
			}
			return nil
		}
	default:
		err := internalErrf("unknown statement %T", s)
		return func(*frame) error { return err }
	}
}

// returnStmt lowers return(). The walker normalizes the whole response
// map at the end of Invoke; normalizing at insert builds the final map
// in one pass instead of two. A describe builtin's payload is fresh and
// its attributes are all it holds, so a return of one builds it
// normalized from the start (describeInstanceNormalized) and stores it
// without a further copy.
func (c *compiler) returnStmt(st *spec.ReturnStmt) stmtFn {
	name := st.Name
	if ex, ok := st.Value.(*spec.BuiltinExpr); ok && len(ex.Args) == 1 {
		if body, ok := describeBuiltins[ex.Name]; ok {
			arg := c.ref(ex.Args[0], 0)
			return func(f *frame) error {
				v, err := arg(f)
				if err != nil {
					return err
				}
				payload, err := body(f.world, *v, describeInstanceNormalized)
				if err != nil {
					return err
				}
				f.result()[name] = payload
				return nil
			}
		}
	}
	val := c.ref(st.Value, 0)
	return func(f *frame) error {
		rv, err := val(f)
		if err != nil {
			return err
		}
		f.result()[name] = cloudapi.NormalizeValue(*rv)
		return nil
	}
}

// callStmt lowers call(): target in ref form (consumed immediately),
// argument i materializing through register 1+i when computed, all
// argument pointers live until bound into the callee frame.
func (c *compiler) callStmt(st *spec.CallStmt) stmtFn {
	trName := c.tr.Name
	target := c.ref(st.Target, 0)
	argFns := make([]refFn, len(st.Args))
	for i, a := range st.Args {
		argFns[i] = c.ref(a, 1+i)
	}
	calleeName := st.Trans
	return func(f *frame) error {
		if f.readonly {
			return internalErrf("describe transition %s attempted call(…); the framework forbids mutation in describes", trName)
		}
		if f.depth >= maxCallDepth {
			return internalErrf("call depth limit exceeded in transition %s (cyclic spec?)", trName)
		}
		tv, err := target(f)
		if err != nil {
			return err
		}
		if tv.Kind() != cloudapi.KindRef {
			if owner := f.prog.actions[calleeName]; owner != nil && tv.IsNil() {
				return nilTargetErr(owner.csm.callNotFound, trName)
			}
			return internalErrf("transition %s: call target is %s, want ref", trName, tv.Kind())
		}
		ref := tv.AsRef()
		csm := f.prog.sms[ref.Type]
		if csm == nil {
			return internalErrf("transition %s: call into unknown SM %q", trName, ref.Type)
		}
		callee := csm.trans[calleeName]
		if callee == nil {
			return internalErrf("transition %s: SM %q has no transition %q", trName, ref.Type, calleeName)
		}
		inst, ok := f.world.Get(ref)
		if !ok || !inst.Alive {
			return &assertFailure{err: cloudapi.Errf(csm.callNotFound, "resource %s referenced by %s does not exist", ref, trName)}
		}
		var argBuf [8]*cloudapi.Value
		var args []*cloudapi.Value
		if len(argFns) <= len(argBuf) {
			args = argBuf[:len(argFns)]
		} else {
			args = make([]*cloudapi.Value, len(argFns))
		}
		for i, fn := range argFns {
			if args[i], err = fn(f); err != nil {
				return err
			}
		}
		nf := getFrame()
		nf.prog, nf.world = f.prog, f.world
		nf.ro = f.ro
		nf.depth = f.depth + 1
		nf.self = inst
		nf.ensureParams(callee.nParams)
		refV := cloudapi.RefOf(ref)
		idx := 0
		for i, ca := range callee.callPlan {
			if ca.isRecv {
				nf.params[i] = refV
				continue
			}
			if idx < len(args) {
				nf.params[i] = *args[idx]
				idx++
			} else {
				nf.params[i] = ca.def
			}
		}
		// Destroy transitions invoked through call carry the
		// framework's destroy semantics (cascading reclamation), same
		// as in the reference walker.
		if callee.kind == spec.KDestroy {
			if kids := f.world.LiveChildren(ref); len(kids) > 0 {
				putFrame(nf)
				return &assertFailure{err: cloudapi.Errf(csm.dependency, "%s has dependent resources (%s) and cannot be deleted", ref, kids[0].Ref)}
			}
		}
		nf.ensureLocals(callee.maxLocals)
		nf.ensureRegs(callee.maxRegs)
		err = runBody(nf, callee.body)
		putFrame(nf)
		if err != nil {
			return err
		}
		if callee.kind == spec.KDestroy {
			f.world.Destroy(ref)
		}
		return nil
	}
}

// nilTargetErr is a call on a nil target: the resource is missing, so
// the call answers the not-found code of the SM that owns the callee.
// Transition names are unique within a service, which makes that SM
// the only one the call could have reached.
func nilTargetErr(code, trName string) error {
	return &assertFailure{err: cloudapi.Errf(code, "resource referenced by %s does not exist", trName)}
}

// boolExpr lowers an expression in predicate position; value position
// reuses it for comparisons, connectives and ! (boolValue). Those
// evaluate straight to a machine bool over ref-form operands; anything
// else falls back to ref-and-Truthy. Semantics match the walker
// exactly: && and || are short-circuit and truthiness-based, !
// negates truthiness.
func (c *compiler) boolExpr(x spec.Expr, base int) boolFn {
	switch ex := x.(type) {
	case *spec.BinaryExpr:
		switch ex.Op {
		case spec.TokAnd:
			// Left and right may share registers: the left operand is
			// dead once its truthiness is known.
			l := c.boolExpr(ex.X, base)
			r := c.boolExpr(ex.Y, base)
			return func(f *frame) (bool, error) {
				ok, err := l(f)
				if err != nil || !ok {
					return false, err
				}
				return r(f)
			}
		case spec.TokOr:
			l := c.boolExpr(ex.X, base)
			r := c.boolExpr(ex.Y, base)
			return func(f *frame) (bool, error) {
				ok, err := l(f)
				if err != nil || ok {
					return ok, err
				}
				return r(f)
			}
		case spec.TokEq, spec.TokNeq:
			neq := ex.Op == spec.TokNeq
			l := c.ref(ex.X, base)
			r := c.ref(ex.Y, base+1)
			return func(f *frame) (bool, error) {
				a, b, err := refPair(f, l, r)
				if err != nil {
					return false, err
				}
				return a.Equal(*b) != neq, nil
			}
		case spec.TokLt, spec.TokLe, spec.TokGt, spec.TokGe:
			op := ex.Op
			trName := c.tr.Name
			l := c.ref(ex.X, base)
			r := c.ref(ex.Y, base+1)
			return func(f *frame) (bool, error) {
				a, b, err := refPair(f, l, r)
				if err != nil {
					return false, err
				}
				cmp, err := compareValues(a, b)
				if err != nil {
					return false, internalErrf("transition %s: %v", trName, err)
				}
				return orderedHolds(op, cmp), nil
			}
		}
	case *spec.UnaryExpr:
		if ex.Op == spec.TokBang {
			xb := c.boolExpr(ex.X, base)
			return func(f *frame) (bool, error) {
				ok, err := xb(f)
				if err != nil {
					return false, err
				}
				return !ok, nil
			}
		}
	}
	r := c.ref(x, base)
	return func(f *frame) (bool, error) {
		v, err := r(f)
		if err != nil {
			return false, err
		}
		return v.Truthy(), nil
	}
}

// orderedHolds applies an ordered-comparison operator to a cmp result.
func orderedHolds(op spec.TokenKind, cmp int) bool {
	switch op {
	case spec.TokLt:
		return cmp < 0
	case spec.TokLe:
		return cmp <= 0
	case spec.TokGt:
		return cmp > 0
	default:
		return cmp >= 0
	}
}

// ref lowers an expression to lvalue form: a closure returning a
// pointer to the value wherever it already lives. Literals, params,
// locals, and state slots resolve without copying; everything else
// materializes into register reg (scratch above it) and returns the
// register's address.
func (c *compiler) ref(x spec.Expr, reg int) refFn {
	switch ex := x.(type) {
	case *spec.Lit:
		v := ex.Value
		p := &v
		return func(*frame) (*cloudapi.Value, error) { return p, nil }
	case *spec.Ident:
		name := ex.Name
		for i := len(c.locals) - 1; i >= 0; i-- {
			if c.locals[i] == name {
				slot := i
				return func(f *frame) (*cloudapi.Value, error) { return f.locals[slot], nil }
			}
		}
		if slot, ok := c.ct.known[name]; ok {
			return func(f *frame) (*cloudapi.Value, error) { return &f.params[slot], nil }
		}
		trName := c.tr.Name
		if slot, ok := c.sm.StateSlot(name); ok {
			return func(f *frame) (*cloudapi.Value, error) {
				s := f.self
				if s == nil {
					return nil, unboundErr(trName, name)
				}
				if slot < len(s.slots) {
					return &s.slots[slot], nil
				}
				return &nilValue, nil
			}
		}
		return func(*frame) (*cloudapi.Value, error) { return nil, unboundErr(trName, name) }
	case *spec.ReadExpr:
		if slot, ok := c.sm.StateSlot(ex.State); ok {
			trName, name := c.tr.Name, ex.State
			return func(f *frame) (*cloudapi.Value, error) {
				s := f.self
				if s == nil {
					return nil, readNoRecvErr(trName, name)
				}
				if slot < len(s.slots) {
					return &s.slots[slot], nil
				}
				return &nilValue, nil
			}
		}
	}
	// Computed expression: materialize into the register.
	c.note(reg)
	fn := c.expr(x, reg+1)
	return func(f *frame) (*cloudapi.Value, error) {
		r := &f.regs[reg]
		if err := fn(f, r); err != nil {
			return nil, err
		}
		return r, nil
	}
}

// expr lowers one expression to rvalue form. base is the first scratch
// register this node may use; the node's result goes through dst,
// which always lies below base (or is a statement's temporary).
func (c *compiler) expr(x spec.Expr, base int) exprFn {
	switch ex := x.(type) {
	case *spec.Lit:
		v := ex.Value
		return func(_ *frame, dst *cloudapi.Value) error {
			*dst = v
			return nil
		}
	case *spec.Ident:
		name := ex.Name
		for i := len(c.locals) - 1; i >= 0; i-- {
			if c.locals[i] == name {
				slot := i
				return func(f *frame, dst *cloudapi.Value) error {
					*dst = *f.locals[slot]
					return nil
				}
			}
		}
		if slot, ok := c.ct.known[name]; ok {
			return func(f *frame, dst *cloudapi.Value) error {
				*dst = f.params[slot]
				return nil
			}
		}
		trName := c.tr.Name
		if slot, ok := c.sm.StateSlot(name); ok {
			return func(f *frame, dst *cloudapi.Value) error {
				s := f.self
				if s == nil {
					return unboundErr(trName, name)
				}
				if slot < len(s.slots) {
					*dst = s.slots[slot]
				} else {
					*dst = cloudapi.Nil
				}
				return nil
			}
		}
		return func(_ *frame, dst *cloudapi.Value) error { return unboundErr(trName, name) }
	case *spec.ReadExpr:
		name := ex.State
		trName := c.tr.Name
		if slot, ok := c.sm.StateSlot(name); ok {
			return func(f *frame, dst *cloudapi.Value) error {
				s := f.self
				if s == nil {
					return readNoRecvErr(trName, name)
				}
				if slot < len(s.slots) {
					*dst = s.slots[slot]
				} else {
					*dst = cloudapi.Nil
				}
				return nil
			}
		}
		return func(f *frame, dst *cloudapi.Value) error {
			if f.self == nil {
				return readNoRecvErr(trName, name)
			}
			*dst = f.self.attrOrNil(name)
			return nil
		}
	case *spec.SelfExpr:
		trName := c.tr.Name
		return func(f *frame, dst *cloudapi.Value) error {
			if f.self == nil {
				return internalErrf("transition %s: self with no receiver", trName)
			}
			*dst = cloudapi.RefOf(f.self.Ref)
			return nil
		}
	case *spec.FieldExpr:
		baseFn := c.ref(ex.X, base)
		name := ex.Name
		trName := c.tr.Name
		return func(f *frame, dst *cloudapi.Value) error {
			bv, err := baseFn(f)
			if err != nil {
				return err
			}
			if bv.IsNil() {
				*dst = cloudapi.Nil
				return nil
			}
			if bv.Kind() != cloudapi.KindRef {
				return internalErrf("transition %s: field access on %s", trName, bv.Kind())
			}
			inst, ok := f.world.Get(bv.AsRef())
			if !ok {
				*dst = cloudapi.Nil
				return nil
			}
			*dst = inst.attrOrNil(name)
			return nil
		}
	case *spec.BuiltinExpr:
		return c.builtin(ex, base)
	case *spec.UnaryExpr:
		if ex.Op == spec.TokBang {
			return c.boolValue(x, base)
		}
		xr := c.ref(ex.X, base)
		return func(f *frame, dst *cloudapi.Value) error {
			v, err := xr(f)
			if err != nil {
				return err
			}
			*dst = cloudapi.Int(-v.AsInt())
			return nil
		}
	case *spec.BinaryExpr:
		return c.binary(ex, base)
	default:
		err := internalErrf("unknown expression %T", x)
		return func(_ *frame, dst *cloudapi.Value) error { return err }
	}
}

// binary lowers a binary operator in value position. Comparisons and
// connectives are boolExpr's lowering with its result stored as a Bool;
// + and - read their operands as ints, in registers base and base+1
// when computed.
func (c *compiler) binary(ex *spec.BinaryExpr, base int) exprFn {
	switch ex.Op {
	case spec.TokAnd, spec.TokOr, spec.TokEq, spec.TokNeq, spec.TokLt, spec.TokLe, spec.TokGt, spec.TokGe:
		return c.boolValue(ex, base)
	}
	l := c.ref(ex.X, base)
	r := c.ref(ex.Y, base+1)
	switch ex.Op {
	case spec.TokPlus:
		return func(f *frame, dst *cloudapi.Value) error {
			a, b, err := refPair(f, l, r)
			if err != nil {
				return err
			}
			*dst = cloudapi.Int(a.AsInt() + b.AsInt())
			return nil
		}
	case spec.TokMinus:
		return func(f *frame, dst *cloudapi.Value) error {
			a, b, err := refPair(f, l, r)
			if err != nil {
				return err
			}
			*dst = cloudapi.Int(a.AsInt() - b.AsInt())
			return nil
		}
	default:
		err := internalErrf("unknown binary operator")
		return func(f *frame, dst *cloudapi.Value) error {
			if _, e := l(f); e != nil {
				return e
			}
			if _, e := r(f); e != nil {
				return e
			}
			return err
		}
	}
}

// boolValue lowers a predicate-shaped expression (a comparison, a
// connective or !) in value position: boolExpr's result as a Bool.
func (c *compiler) boolValue(x spec.Expr, base int) exprFn {
	pred := c.boolExpr(x, base)
	return func(f *frame, dst *cloudapi.Value) error {
		ok, err := pred(f)
		if err != nil {
			return err
		}
		*dst = cloudapi.Bool(ok)
		return nil
	}
}

// refPair resolves l then r in ref form.
func refPair(f *frame, l, r refFn) (*cloudapi.Value, *cloudapi.Value, error) {
	a, err := l(f)
	if err != nil {
		return nil, nil, err
	}
	b, err := r(f)
	if err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// builtin lowers one builtin call: its table entry is resolved here,
// its arguments are evaluated into registers base..base+n-1, and the
// entry's fn runs over them. The walker evaluates every argument
// before checking the name and arity, so an unknown builtin or a
// wrong arity compiles to an eval-then-error closure, preserving error
// ordering.
func (c *compiler) builtin(ex *spec.BuiltinExpr, base int) exprFn {
	name := ex.Name
	b, known := builtins[name]
	if !known {
		return c.evalThenErr(ex.Args, base, unknownBuiltinErr(name))
	}
	n := len(ex.Args)
	if n != b.arity {
		return c.evalThenErr(ex.Args, base, builtinArityErr(name, n, b.arity))
	}
	argFns := make([]exprFn, n)
	for i, a := range ex.Args {
		argFns[i] = c.expr(a, base+n)
	}
	if n > 0 {
		c.note(base + n - 1)
	}
	fn := b.fn
	return func(f *frame, dst *cloudapi.Value) error {
		var args []cloudapi.Value
		if n > 0 {
			args = f.regs[base : base+n]
		}
		for i, argFn := range argFns {
			if err := argFn(f, &args[i]); err != nil {
				return err
			}
		}
		v, err := fn(f.world, f.self, args)
		if err != nil {
			return err
		}
		*dst = v
		return nil
	}
}

// evalThenErr compiles to "evaluate every argument for effect, then
// fail": the walker evaluates all builtin arguments before its arity
// check, so argument errors must win over the static one.
func (c *compiler) evalThenErr(argExprs []spec.Expr, base int, err error) exprFn {
	args := make([]refFn, len(argExprs))
	for i, a := range argExprs {
		args[i] = c.ref(a, base)
	}
	return func(f *frame, dst *cloudapi.Value) error {
		for _, fn := range args {
			if _, e := fn(f); e != nil {
				return e
			}
		}
		return err
	}
}
