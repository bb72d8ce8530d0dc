package interp

import (
	"strings"
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
// Calling conventions. cloudapi.Value is a large struct, and the
// walker's return-by-value style copies it at every node boundary;
// the compiled form avoids that two ways:
//
//   - exprFn writes its result through a destination pointer, so each
//     computed value is materialized exactly once. Temporaries live in
//     the frame's register file (frame.regs) at indices assigned here
//     at compile time — a stack temporary whose address is passed
//     through an exprFn (an indirect call) would escape to the heap.
//   - refFn returns a pointer to where a value ALREADY lives — a param
//     slot, a foreach local, a state slot, a literal — so leaf
//     operands of comparisons, predicates, and builtins are never
//     copied at all. Computed sub-expressions fall back to
//     materializing into a register and returning its address.
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
// snapshot: mutating the spec afterwards (alignment repairs) requires
// re-compiling.
type Program struct {
	svc     *spec.Service
	actions map[string]*compiledTrans
	sms     map[string]*compiledSM
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
// when they fire: most requests bind cleanly, and alignment recompiles
// every round.
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

type coerceFn func(w *World, raw cloudapi.Value) (cloudapi.Value, *cloudapi.APIError, error)

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
	if err := svc.Index(); err != nil {
		return nil, err
	}
	p := &Program{
		svc:     svc,
		actions: make(map[string]*compiledTrans),
		sms:     make(map[string]*compiledSM, len(svc.SMs)),
	}
	// Pass 1: allocate shells so call() sites can resolve callees of
	// any SM through the program at run time.
	for _, sm := range svc.SMs {
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
	}
	// Pass 2: lower parameters and bodies.
	for _, sm := range svc.SMs {
		csm := p.sms[sm.Name]
		for _, tr := range sm.Transitions {
			compileTrans(p, csm, csm.trans[tr.Name])
		}
	}
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

// compileCoerce mirrors Emulator.coerce with target-SM resolution done
// at compile time; the expected-type errors are formatted when a
// request's value has the wrong kind.
func compileCoerce(p *Program, prm *spec.Param) coerceFn {
	name := prm.Name
	switch prm.Type.Kind {
	case spec.TRef:
		refType := prm.Type.Ref
		csm := p.sms[refType]
		if csm == nil {
			err := internalErrf("parameter %s references unknown SM %q", name, refType)
			return func(*World, cloudapi.Value) (cloudapi.Value, *cloudapi.APIError, error) {
				return cloudapi.Nil, nil, err
			}
		}
		return func(w *World, raw cloudapi.Value) (cloudapi.Value, *cloudapi.APIError, error) {
			switch raw.Kind() {
			case cloudapi.KindRef:
				ref := raw.AsRef()
				if ref.Type != refType {
					return cloudapi.Nil, cloudapi.Errf(cloudapi.CodeInvalidParameter, "parameter %s expects a %s, got a %s", name, refType, ref.Type), nil
				}
				if _, ok := w.Lookup(ref.Type, ref.ID); !ok {
					return cloudapi.Nil, compiledNotFound(csm, ref.ID), nil
				}
				return raw, nil, nil
			case cloudapi.KindString:
				inst, ok := w.Lookup(refType, raw.AsString())
				if !ok {
					return cloudapi.Nil, compiledNotFound(csm, raw.AsString()), nil
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
	return func(_ *World, raw cloudapi.Value) (cloudapi.Value, *cloudapi.APIError, error) {
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
			if cloudapi.IsNilPtr(rv) {
				return nil
			}
			if cloudapi.KindOf(rv) != cloudapi.KindList {
				return internalErrf("transition %s: foreach over %s", trName, cloudapi.KindOf(rv))
			}
			// Copy the slice header before iterating: body statements
			// may overwrite rv's register or even the state slot it
			// points into, and the walker likewise iterates the list
			// value as of loop entry.
			list := cloudapi.ListOf(rv)
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
// without a further copy. The register layout is the one c.ref gives
// the same expression: payload in register 0, argument from 1.
func (c *compiler) returnStmt(st *spec.ReturnStmt) stmtFn {
	name := st.Name
	if ex, ok := st.Value.(*spec.BuiltinExpr); ok && len(ex.Args) == 1 && describeBuiltins[ex.Name] {
		c.note(0)
		payload := describeBuiltin(ex.Name, c.ref(ex.Args[0], 1), describeInstanceNormalized)
		return func(f *frame) error {
			r := &f.regs[0]
			if err := payload(f, r); err != nil {
				return err
			}
			f.result()[name] = *r
			return nil
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
		if cloudapi.KindOf(tv) != cloudapi.KindRef {
			return internalErrf("transition %s: call target is %s, want ref", trName, cloudapi.KindOf(tv))
		}
		ref := cloudapi.RefOfPtr(tv)
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

// boolExpr lowers an expression in predicate position. Comparisons,
// logical connectives, and isnil compile to direct machine-bool
// evaluation over ref-form operands; anything else falls back to
// ref-and-Truthy. Semantics match the walker exactly: && and || are
// short-circuit and truthiness-based, ! negates truthiness.
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
		case spec.TokEq:
			if ls, ok := c.slotRef(ex.X); ok {
				if rs, ok := c.slotRef(ex.Y); ok {
					return func(f *frame) (bool, error) {
						return cloudapi.EqualPtr(ls.get(f), rs.get(f)), nil
					}
				}
			}
			l := c.ref(ex.X, base)
			r := c.ref(ex.Y, base+1)
			return func(f *frame) (bool, error) {
				a, b, err := refPair(f, l, r)
				if err != nil {
					return false, err
				}
				return cloudapi.EqualPtr(a, b), nil
			}
		case spec.TokNeq:
			if ls, ok := c.slotRef(ex.X); ok {
				if rs, ok := c.slotRef(ex.Y); ok {
					return func(f *frame) (bool, error) {
						return !cloudapi.EqualPtr(ls.get(f), rs.get(f)), nil
					}
				}
			}
			l := c.ref(ex.X, base)
			r := c.ref(ex.Y, base+1)
			return func(f *frame) (bool, error) {
				a, b, err := refPair(f, l, r)
				if err != nil {
					return false, err
				}
				return !cloudapi.EqualPtr(a, b), nil
			}
		case spec.TokLt, spec.TokLe, spec.TokGt, spec.TokGe:
			op := ex.Op
			trName := c.tr.Name
			li, liOK := c.intTerm(ex.X)
			ri, riOK := c.intTerm(ex.Y)
			ls, lsOK := c.slotRef(ex.X)
			rs, rsOK := c.slotRef(ex.Y)
			switch {
			case liOK && riOK:
				// Both sides are int arithmetic: the walker's + and -
				// always produce Int, so no kind mismatch is possible.
				return func(f *frame) (bool, error) {
					return orderedHolds(op, cmpInt(li(f), ri(f))), nil
				}
			case liOK && rsOK:
				return func(f *frame) (bool, error) {
					a := li(f)
					b := rs.get(f)
					if cloudapi.KindOf(b) == cloudapi.KindInt {
						return orderedHolds(op, cmpInt(a, cloudapi.IntOf(b))), nil
					}
					// Route the mismatch through compareValues so the
					// error text matches the walker's byte for byte.
					av := cloudapi.Int(a)
					_, err := compareValues(&av, b)
					return false, internalErrf("transition %s: %v", trName, err)
				}
			case lsOK && riOK:
				return func(f *frame) (bool, error) {
					a := ls.get(f)
					b := ri(f)
					if cloudapi.KindOf(a) == cloudapi.KindInt {
						return orderedHolds(op, cmpInt(cloudapi.IntOf(a), b)), nil
					}
					bv := cloudapi.Int(b)
					_, err := compareValues(a, &bv)
					return false, internalErrf("transition %s: %v", trName, err)
				}
			case lsOK && rsOK:
				return func(f *frame) (bool, error) {
					cmp, err := compareValues(ls.get(f), rs.get(f))
					if err != nil {
						return false, internalErrf("transition %s: %v", trName, err)
					}
					return orderedHolds(op, cmp), nil
				}
			}
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
	case *spec.BuiltinExpr:
		if ex.Name == "isnil" && len(ex.Args) == 1 {
			if s, ok := c.slotRef(ex.Args[0]); ok {
				return func(f *frame) (bool, error) {
					return cloudapi.IsNilPtr(s.get(f)), nil
				}
			}
			a := c.ref(ex.Args[0], base)
			return func(f *frame) (bool, error) {
				v, err := a(f)
				if err != nil {
					return false, err
				}
				return cloudapi.IsNilPtr(v), nil
			}
		}
	}
	r := c.ref(x, base)
	return func(f *frame) (bool, error) {
		v, err := r(f)
		if err != nil {
			return false, err
		}
		return cloudapi.TruthyPtr(v), nil
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

// slotRef describes an infallible leaf operand — a foreach local, a
// parameter, or a literal. Comparison closures over two slotRefs call
// get, a static inlinable method, instead of two indirect refFn calls;
// this is the hottest shape in validation-heavy specs (attr >= const,
// param == literal).
type slotRef struct {
	kind uint8 // 0 local, 1 param, 2 literal
	slot int
	lit  *cloudapi.Value
}

func (s slotRef) get(f *frame) *cloudapi.Value {
	switch s.kind {
	case 0:
		return f.locals[s.slot]
	case 1:
		return &f.params[s.slot]
	default:
		return s.lit
	}
}

// slotRef reports whether x is an infallible leaf and its descriptor.
func (c *compiler) slotRef(x spec.Expr) (slotRef, bool) {
	switch ex := x.(type) {
	case *spec.Lit:
		v := ex.Value
		return slotRef{kind: 2, lit: &v}, true
	case *spec.Ident:
		for i := len(c.locals) - 1; i >= 0; i-- {
			if c.locals[i] == ex.Name {
				return slotRef{kind: 0, slot: i}, true
			}
		}
		if slot, ok := c.ct.known[ex.Name]; ok {
			return slotRef{kind: 1, slot: slot}, true
		}
	}
	return slotRef{}, false
}

// intFn produces an int64 directly, skipping Value materialization.
type intFn func(f *frame) int64

// intTerm recognizes expressions that are statically known to produce
// an Int and cannot fail: integer + and - over infallible leaves (the
// walker's arithmetic reads AsInt, which is 0 for non-ints, so the
// result kind is Int regardless of operand kinds). Comparisons fuse
// these so predicates like `it + 1 > it` never touch a register.
func (c *compiler) intTerm(x spec.Expr) (intFn, bool) {
	ex, ok := x.(*spec.BinaryExpr)
	if !ok || (ex.Op != spec.TokPlus && ex.Op != spec.TokMinus) {
		return nil, false
	}
	ls, ok := c.slotRef(ex.X)
	if !ok {
		return nil, false
	}
	rs, ok := c.slotRef(ex.Y)
	if !ok {
		return nil, false
	}
	if ex.Op == spec.TokPlus {
		return func(f *frame) int64 {
			return cloudapi.IntOf(ls.get(f)) + cloudapi.IntOf(rs.get(f))
		}, true
	}
	return func(f *frame) int64 {
		return cloudapi.IntOf(ls.get(f)) - cloudapi.IntOf(rs.get(f))
	}, true
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
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
			if cloudapi.IsNilPtr(bv) {
				*dst = cloudapi.Nil
				return nil
			}
			if cloudapi.KindOf(bv) != cloudapi.KindRef {
				return internalErrf("transition %s: field access on %s", trName, cloudapi.KindOf(bv))
			}
			inst, ok := f.world.Get(cloudapi.RefOfPtr(bv))
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
		xr := c.ref(ex.X, base)
		if ex.Op == spec.TokBang {
			return func(f *frame, dst *cloudapi.Value) error {
				v, err := xr(f)
				if err != nil {
					return err
				}
				*dst = cloudapi.Bool(!cloudapi.TruthyPtr(v))
				return nil
			}
		}
		return func(f *frame, dst *cloudapi.Value) error {
			v, err := xr(f)
			if err != nil {
				return err
			}
			*dst = cloudapi.Int(-cloudapi.IntOf(v))
			return nil
		}
	case *spec.BinaryExpr:
		return c.binary(ex, base)
	default:
		err := internalErrf("unknown expression %T", x)
		return func(_ *frame, dst *cloudapi.Value) error { return err }
	}
}

// binary lowers a binary operator over ref-form operands: leaf
// operands are compared in place, computed ones live in registers
// base and base+1.
func (c *compiler) binary(ex *spec.BinaryExpr, base int) exprFn {
	switch ex.Op {
	case spec.TokAnd:
		// The right operand may reuse the left's register: the left is
		// dead once its truthiness is known.
		l := c.ref(ex.X, base)
		r := c.ref(ex.Y, base)
		return func(f *frame, dst *cloudapi.Value) error {
			a, err := l(f)
			if err != nil {
				return err
			}
			if !cloudapi.TruthyPtr(a) {
				*dst = cloudapi.False
				return nil
			}
			b, err := r(f)
			if err != nil {
				return err
			}
			*dst = cloudapi.Bool(cloudapi.TruthyPtr(b))
			return nil
		}
	case spec.TokOr:
		l := c.ref(ex.X, base)
		r := c.ref(ex.Y, base)
		return func(f *frame, dst *cloudapi.Value) error {
			a, err := l(f)
			if err != nil {
				return err
			}
			if cloudapi.TruthyPtr(a) {
				*dst = cloudapi.True
				return nil
			}
			b, err := r(f)
			if err != nil {
				return err
			}
			*dst = cloudapi.Bool(cloudapi.TruthyPtr(b))
			return nil
		}
	}
	l := c.ref(ex.X, base)
	r := c.ref(ex.Y, base+1)
	switch ex.Op {
	case spec.TokEq:
		return func(f *frame, dst *cloudapi.Value) error {
			a, b, err := refPair(f, l, r)
			if err != nil {
				return err
			}
			*dst = cloudapi.Bool(cloudapi.EqualPtr(a, b))
			return nil
		}
	case spec.TokNeq:
		return func(f *frame, dst *cloudapi.Value) error {
			a, b, err := refPair(f, l, r)
			if err != nil {
				return err
			}
			*dst = cloudapi.Bool(!cloudapi.EqualPtr(a, b))
			return nil
		}
	case spec.TokLt, spec.TokLe, spec.TokGt, spec.TokGe:
		op := ex.Op
		trName := c.tr.Name
		return func(f *frame, dst *cloudapi.Value) error {
			a, b, err := refPair(f, l, r)
			if err != nil {
				return err
			}
			cmp, err := compareValues(a, b)
			if err != nil {
				return internalErrf("transition %s: %v", trName, err)
			}
			switch op {
			case spec.TokLt:
				*dst = cloudapi.Bool(cmp < 0)
			case spec.TokLe:
				*dst = cloudapi.Bool(cmp <= 0)
			case spec.TokGt:
				*dst = cloudapi.Bool(cmp > 0)
			default:
				*dst = cloudapi.Bool(cmp >= 0)
			}
			return nil
		}
	case spec.TokPlus:
		if ls, ok := c.slotRef(ex.X); ok {
			if rs, ok := c.slotRef(ex.Y); ok {
				return func(f *frame, dst *cloudapi.Value) error {
					*dst = cloudapi.Int(cloudapi.IntOf(ls.get(f)) + cloudapi.IntOf(rs.get(f)))
					return nil
				}
			}
		}
		return func(f *frame, dst *cloudapi.Value) error {
			a, b, err := refPair(f, l, r)
			if err != nil {
				return err
			}
			*dst = cloudapi.Int(cloudapi.IntOf(a) + cloudapi.IntOf(b))
			return nil
		}
	case spec.TokMinus:
		if ls, ok := c.slotRef(ex.X); ok {
			if rs, ok := c.slotRef(ex.Y); ok {
				return func(f *frame, dst *cloudapi.Value) error {
					*dst = cloudapi.Int(cloudapi.IntOf(ls.get(f)) - cloudapi.IntOf(rs.get(f)))
					return nil
				}
			}
		}
		return func(f *frame, dst *cloudapi.Value) error {
			a, b, err := refPair(f, l, r)
			if err != nil {
				return err
			}
			*dst = cloudapi.Int(cloudapi.IntOf(a) - cloudapi.IntOf(b))
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

// builtinArity is the compile-time arity table; the walker re-checks
// arity inside every case on every evaluation.
var builtinArity = map[string]int{
	"len": 1, "isnil": 1, "id": 1, "children": 1, "instances": 1,
	"append": 2, "remove": 2, "contains": 2, "concat": 2,
	"emptyList": 0, "emptyMap": 0, "pluck": 2, "describeEach": 1,
	"mapMerge": 2, "first": 1, "hasPrefix": 2, "mapSet": 3, "mapDel": 2,
	"lookup": 2, "matching": 3, "filterEq": 3,
	"cidrCapacity": 1, "cidrValid": 1, "prefixLen": 1,
	"cidrWithin": 2, "cidrOverlaps": 2,
	"attrs": 1, "describe": 1, "describeAll": 1,
}

// builtin lowers one builtin call. Hot builtins are specialized to
// fixed-arity closures over ref-form operands; the rest evaluate into
// registers and go through the shared applyBuiltin. The walker
// evaluates every argument before checking arity, so arity mismatches
// and unknown builtins compile to eval-then-error closures, preserving
// error ordering.
func (c *compiler) builtin(ex *spec.BuiltinExpr, base int) exprFn {
	name := ex.Name
	want, known := builtinArity[name]
	if !known {
		return c.evalThenErr(ex.Args, base, internalErrf("unknown builtin %q", name))
	}
	if len(ex.Args) != want {
		return c.evalThenErr(ex.Args, base, internalErrf("builtin %s: %d args, want %d", name, len(ex.Args), want))
	}
	var a0, a1, a2 refFn
	if want > 0 {
		a0 = c.ref(ex.Args[0], base)
	}
	if want > 1 {
		a1 = c.ref(ex.Args[1], base+1)
	}
	if want > 2 {
		a2 = c.ref(ex.Args[2], base+2)
	}
	switch name {
	case "isnil":
		return func(f *frame, dst *cloudapi.Value) error {
			v, err := a0(f)
			if err != nil {
				return err
			}
			*dst = cloudapi.Bool(cloudapi.IsNilPtr(v))
			return nil
		}
	case "len":
		return func(f *frame, dst *cloudapi.Value) error {
			v, err := a0(f)
			if err != nil {
				return err
			}
			switch cloudapi.KindOf(v) {
			case cloudapi.KindList:
				*dst = cloudapi.Int(int64(len(cloudapi.ListOf(v))))
			case cloudapi.KindString:
				*dst = cloudapi.Int(int64(len(cloudapi.StringOf(v))))
			case cloudapi.KindMap:
				*dst = cloudapi.Int(int64(len(cloudapi.MapOf(v))))
			case cloudapi.KindNil:
				*dst = cloudapi.Int(0)
			default:
				return internalErrf("builtin len: unsupported kind %s", cloudapi.KindOf(v))
			}
			return nil
		}
	case "id":
		return func(f *frame, dst *cloudapi.Value) error {
			v, err := a0(f)
			if err != nil {
				return err
			}
			if cloudapi.KindOf(v) != cloudapi.KindRef {
				return internalErrf("builtin id: argument is %s, want ref", cloudapi.KindOf(v))
			}
			*dst = cloudapi.Str(cloudapi.RefOfPtr(v).ID)
			return nil
		}
	case "children":
		return func(f *frame, dst *cloudapi.Value) error {
			v, err := a0(f)
			if err != nil {
				return err
			}
			if f.self == nil {
				return internalErrf("builtin children with no receiver")
			}
			*dst = refList(f.world.Children(f.self.Ref, cloudapi.StringOf(v)))
			return nil
		}
	case "instances":
		return func(f *frame, dst *cloudapi.Value) error {
			v, err := a0(f)
			if err != nil {
				return err
			}
			*dst = refList(f.world.Instances(cloudapi.StringOf(v)))
			return nil
		}
	case "first":
		return func(f *frame, dst *cloudapi.Value) error {
			v, err := a0(f)
			if err != nil {
				return err
			}
			l := cloudapi.ListOf(v)
			if len(l) == 0 {
				*dst = cloudapi.Nil
				return nil
			}
			*dst = l[0]
			return nil
		}
	case "append":
		return func(f *frame, dst *cloudapi.Value) error {
			v0, v1, err := refPair(f, a0, a1)
			if err != nil {
				return err
			}
			var bs []cloudapi.Value
			if !cloudapi.IsNilPtr(v0) {
				bs = cloudapi.ListOf(v0)
			}
			out := make([]cloudapi.Value, 0, len(bs)+1)
			out = append(out, bs...)
			out = append(out, *v1)
			*dst = cloudapi.List(out...)
			return nil
		}
	case "contains":
		return func(f *frame, dst *cloudapi.Value) error {
			v0, v1, err := refPair(f, a0, a1)
			if err != nil {
				return err
			}
			list := cloudapi.ListOf(v0)
			for i := range list {
				if cloudapi.EqualPtr(&list[i], v1) {
					*dst = cloudapi.True
					return nil
				}
			}
			*dst = cloudapi.False
			return nil
		}
	case "concat":
		return func(f *frame, dst *cloudapi.Value) error {
			v0, v1, err := refPair(f, a0, a1)
			if err != nil {
				return err
			}
			*dst = cloudapi.Str(cloudapi.StringOf(v0) + cloudapi.StringOf(v1))
			return nil
		}
	case "hasPrefix":
		return func(f *frame, dst *cloudapi.Value) error {
			v0, v1, err := refPair(f, a0, a1)
			if err != nil {
				return err
			}
			*dst = cloudapi.Bool(strings.HasPrefix(cloudapi.StringOf(v0), cloudapi.StringOf(v1)))
			return nil
		}
	case "emptyList":
		return func(_ *frame, dst *cloudapi.Value) error {
			*dst = cloudapi.List()
			return nil
		}
	case "emptyMap":
		return func(_ *frame, dst *cloudapi.Value) error {
			*dst = cloudapi.Map(nil)
			return nil
		}
	case "lookup":
		return func(f *frame, dst *cloudapi.Value) error {
			v0, v1, err := refPair(f, a0, a1)
			if err != nil {
				return err
			}
			if cloudapi.KindOf(v1) != cloudapi.KindString {
				*dst = cloudapi.Nil
				return nil
			}
			inst, ok := f.world.Lookup(cloudapi.StringOf(v0), cloudapi.StringOf(v1))
			if !ok {
				*dst = cloudapi.Nil
				return nil
			}
			*dst = cloudapi.RefOf(inst.Ref)
			return nil
		}
	case "matching":
		return func(f *frame, dst *cloudapi.Value) error {
			v0, v1, err := refPair(f, a0, a1)
			if err != nil {
				return err
			}
			v2, err := a2(f)
			if err != nil {
				return err
			}
			var out []cloudapi.Value
			attr := cloudapi.StringOf(v1)
			for _, inst := range f.world.Instances(cloudapi.StringOf(v0)) {
				av := inst.attrOrNil(attr)
				if cloudapi.EqualPtr(&av, v2) {
					out = append(out, cloudapi.RefOf(inst.Ref))
				}
			}
			*dst = cloudapi.List(out...)
			return nil
		}
	case "filterEq":
		return func(f *frame, dst *cloudapi.Value) error {
			v0, v1, err := refPair(f, a0, a1)
			if err != nil {
				return err
			}
			v2, err := a2(f)
			if err != nil {
				return err
			}
			var out []cloudapi.Value
			attr := cloudapi.StringOf(v1)
			for _, el := range cloudapi.ListOf(v0) {
				if el.Kind() != cloudapi.KindRef {
					continue
				}
				inst, ok := f.world.Get(el.AsRef())
				if !ok {
					continue
				}
				av := inst.attrOrNil(attr)
				if cloudapi.EqualPtr(&av, v2) {
					out = append(out, el)
				}
			}
			*dst = cloudapi.List(out...)
			return nil
		}
	case "describe", "describeAll", "describeEach":
		return describeBuiltin(name, a0, describeInstance)
	default:
		// Cold builtins (cidr math, map surgery, pluck, remove, attrs)
		// route through the shared implementation, which takes a
		// contiguous []Value: materialize arguments into registers
		// base..base+n-1.
		n := len(ex.Args)
		argFns := make([]exprFn, n)
		for i, a := range ex.Args {
			argFns[i] = c.expr(a, base+n)
		}
		if n > 0 {
			c.note(base + n - 1)
		}
		return func(f *frame, dst *cloudapi.Value) error {
			var vals []cloudapi.Value
			if n > 0 {
				vals = f.regs[base : base+n]
			}
			for i, fn := range argFns {
				if err := fn(f, &vals[i]); err != nil {
					return err
				}
			}
			v, err := applyBuiltin(f.world, f.self, name, vals)
			if err != nil {
				return err
			}
			*dst = v
			return nil
		}
	}
}

// describeBuiltins are the builtins whose value is built from describe
// payloads alone.
var describeBuiltins = map[string]bool{"describe": true, "describeAll": true, "describeEach": true}

// describeBuiltin lowers one of describeBuiltins over its ref-form
// argument, rendering each instance with desc.
func describeBuiltin(name string, a0 refFn, desc func(*Instance) cloudapi.Value) exprFn {
	switch name {
	case "describe":
		return func(f *frame, dst *cloudapi.Value) error {
			v, err := a0(f)
			if err != nil {
				return err
			}
			if cloudapi.KindOf(v) != cloudapi.KindRef {
				return internalErrf("builtin describe: argument is %s, want ref", cloudapi.KindOf(v))
			}
			inst, ok := f.world.Get(cloudapi.RefOfPtr(v))
			if !ok {
				*dst = cloudapi.Nil
				return nil
			}
			*dst = desc(inst)
			return nil
		}
	case "describeAll":
		return func(f *frame, dst *cloudapi.Value) error {
			v, err := a0(f)
			if err != nil {
				return err
			}
			insts := f.world.Instances(cloudapi.StringOf(v))
			out := make([]cloudapi.Value, len(insts))
			for i, inst := range insts {
				out[i] = desc(inst)
			}
			*dst = cloudapi.List(out...)
			return nil
		}
	default: // describeEach
		return func(f *frame, dst *cloudapi.Value) error {
			v, err := a0(f)
			if err != nil {
				return err
			}
			out := []cloudapi.Value{}
			for _, el := range cloudapi.ListOf(v) {
				if el.Kind() != cloudapi.KindRef {
					continue
				}
				if inst, ok := f.world.Get(el.AsRef()); ok {
					out = append(out, desc(inst))
				}
			}
			*dst = cloudapi.List(out...)
			return nil
		}
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
