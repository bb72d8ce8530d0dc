package interp

import (
	"fmt"
	"sync"

	"lce/internal/cloudapi"
	"lce/internal/spec"
)

// This file is the reference oracle for the compiled engine: a
// tree-walking interpreter that resolves names and error tables on
// every step, straight off the spec AST. It ships in no binary; the
// differential suites replay every workload through it and through
// Emulator and require identical results, error text and world
// snapshots. A semantic change to the SM language is made in
// compile.go and mirrored here, and the suites say whether the two
// agree.

// walker is the reference emulator. It is a cloudapi.Backend (and
// Forker) over the same World as Emulator, so it slots into every
// harness the production engine does.
type walker struct {
	mu    sync.Mutex
	svc   *spec.Service
	world *World
}

func newWalker(svc *spec.Service) (*walker, error) {
	if err := svc.Index(); err != nil {
		return nil, err
	}
	return &walker{svc: svc, world: NewWorld(svc)}, nil
}

func (e *walker) Service() string   { return e.svc.Name }
func (e *walker) Actions() []string { return e.svc.Actions() }
func (e *walker) World() *World     { return e.world }

func (e *walker) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.world.Reset()
}

func (e *walker) Fork() cloudapi.Backend {
	return &walker{svc: e.svc, world: NewWorld(e.svc)}
}

// Inner presents the walker's spec and world as an *Emulator view to
// code that unwraps backends looking for one — httpapi does, to attach
// error advice (a function of spec, world and error, not of the engine
// that raised it). Without it a served walker's error bodies would
// lack the advice block and could not be compared byte for byte. The
// view has no program and is never invoked.
func (e *walker) Inner() cloudapi.Backend {
	return &Emulator{svc: e.svc, world: e.world}
}

func (e *walker) Invoke(req cloudapi.Request) (cloudapi.Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.invokeWalk(req)
}

// envPool recycles top-level activation records between Invoke calls:
// the env itself, its params map (clear-reused) and its response map.
// Nested call activations are short-lived and stay heap-allocated.
var envPool = sync.Pool{
	New: func() any {
		return &env{
			params: make(map[string]cloudapi.Value, 8),
			resp:   cloudapi.Result{},
		}
	},
}

func getEnv() *env {
	e := envPool.Get().(*env)
	return e
}

func putEnv(e *env) {
	clear(e.params)
	clear(e.resp)
	e.world, e.sm, e.tr, e.self = nil, nil, nil, nil
	clear(e.locals[:cap(e.locals)])
	e.locals = e.locals[:0]
	e.depth = 0
	e.readonly = false
	envPool.Put(e)
}

// invokeWalk is the tree-walking dispatch path.
func (e *walker) invokeWalk(req cloudapi.Request) (cloudapi.Result, error) {
	sm, tr, ok := e.svc.Action(req.Action)
	if !ok || tr.Internal {
		return nil, cloudapi.Errf(cloudapi.CodeUnknownAction, "the action %s is not valid for this service", req.Action)
	}

	activation := getEnv()
	defer putEnv(activation)
	activation.world = e.world
	activation.sm = sm
	activation.tr = tr
	activation.readonly = tr.Kind == spec.KDescribe

	self, apiErr, err := e.bindParams(sm, tr, req.Params, activation.params)
	if err != nil {
		return nil, err
	}
	if apiErr != nil {
		return nil, apiErr
	}
	params := activation.params

	var created *Instance
	if tr.Kind == spec.KCreate {
		created = e.world.Create(sm)
		if pp := tr.ParentParam(); pp != nil {
			pv := params[pp.Name]
			if pv.Kind() == cloudapi.KindRef {
				created.Parent = pv.AsRef()
			}
		}
		self = created
	}

	// Framework correctness check derived from the containment
	// hierarchy (§1, §3): deletion must ensure all children have been
	// reclaimed.
	if tr.Kind == spec.KDestroy && self != nil {
		if kids := e.world.LiveChildren(self.Ref); len(kids) > 0 {
			code := sm.Dependency
			if code == "" {
				code = cloudapi.CodeDependencyViolation
			}
			return nil, cloudapi.Errf(code, "%s has dependent resources (%s) and cannot be deleted", self.Ref, kids[0].Ref)
		}
	}

	activation.self = self
	if err := activation.execStmts(tr.Body); err != nil {
		if created != nil {
			e.world.Discard(created.Ref)
		}
		if af, ok := err.(*assertFailure); ok {
			return nil, af.err
		}
		return nil, err
	}

	if tr.Kind == spec.KDestroy && self != nil {
		e.world.Destroy(self.Ref)
	}
	return cloudapi.NormalizeResult(activation.resp), nil
}

// bindParams resolves request parameters against the transition's
// declared parameters into dest. It returns (receiver, apiError,
// internalError).
func (e *walker) bindParams(sm *spec.SM, tr *spec.Transition, in cloudapi.Params, dest map[string]cloudapi.Value) (*Instance, *cloudapi.APIError, error) {
	params := dest
	var self *Instance
	for _, p := range tr.Params {
		isRecv := p.Receiver || p.Name == "self"
		raw, present := in[p.Name]
		if !present || raw.IsNil() {
			if isRecv || !p.Optional {
				return nil, cloudapi.Errf(cloudapi.CodeMissingParameter, "the request must contain the parameter %s", p.Name), nil
			}
			if !p.Default.IsNil() {
				params[p.Name] = p.Default
			} else {
				params[p.Name] = cloudapi.Nil
			}
			continue
		}
		v, apiErr, err := e.coerce(p, raw)
		if err != nil || apiErr != nil {
			return nil, apiErr, err
		}
		params[p.Name] = v
		if isRecv {
			inst, ok := e.world.Get(v.AsRef())
			if !ok || !inst.Alive {
				return nil, notFoundError(sm, v.AsRef().ID), nil
			}
			self = inst
		}
	}
	// Unknown parameters are rejected: real cloud APIs validate their
	// request shapes, and silent acceptance would hide trace bugs.
	for name := range in {
		if tr.Param(name) == nil {
			return nil, cloudapi.Errf(cloudapi.CodeInvalidParameter, "unknown parameter %s for action %s", name, tr.Name), nil
		}
	}
	return self, nil, nil
}

// coerce converts a wire value to the parameter's declared type.
// String values are accepted for ref-typed parameters and resolved as
// resource IDs, matching how cloud APIs pass references.
func (e *walker) coerce(p *spec.Param, raw cloudapi.Value) (cloudapi.Value, *cloudapi.APIError, error) {
	switch p.Type.Kind {
	case spec.TRef:
		targetSM := e.svc.SM(p.Type.Ref)
		if targetSM == nil {
			return cloudapi.Nil, nil, internalErrf("parameter %s references unknown SM %q", p.Name, p.Type.Ref)
		}
		switch raw.Kind() {
		case cloudapi.KindRef:
			ref := raw.AsRef()
			if ref.Type != p.Type.Ref {
				return cloudapi.Nil, cloudapi.Errf(cloudapi.CodeInvalidParameter, "parameter %s expects a %s, got a %s", p.Name, p.Type.Ref, ref.Type), nil
			}
			if _, ok := e.world.Lookup(ref.Type, ref.ID); !ok {
				return cloudapi.Nil, notFoundError(targetSM, ref.ID), nil
			}
			return raw, nil, nil
		case cloudapi.KindString:
			inst, ok := e.world.Lookup(p.Type.Ref, raw.AsString())
			if !ok {
				return cloudapi.Nil, notFoundError(targetSM, raw.AsString()), nil
			}
			return cloudapi.RefOf(inst.Ref), nil, nil
		default:
			return cloudapi.Nil, cloudapi.Errf(cloudapi.CodeInvalidParameter, "parameter %s expects a resource reference", p.Name), nil
		}
	case spec.TString, spec.TEnum:
		if raw.Kind() != cloudapi.KindString {
			return cloudapi.Nil, cloudapi.Errf(cloudapi.CodeInvalidParameter, "parameter %s expects a string", p.Name), nil
		}
		return raw, nil, nil
	case spec.TInt:
		if raw.Kind() != cloudapi.KindInt {
			return cloudapi.Nil, cloudapi.Errf(cloudapi.CodeInvalidParameter, "parameter %s expects an integer", p.Name), nil
		}
		return raw, nil, nil
	case spec.TBool:
		if raw.Kind() != cloudapi.KindBool {
			return cloudapi.Nil, cloudapi.Errf(cloudapi.CodeInvalidParameter, "parameter %s expects a boolean", p.Name), nil
		}
		return raw, nil, nil
	case spec.TList:
		if raw.Kind() != cloudapi.KindList {
			return cloudapi.Nil, cloudapi.Errf(cloudapi.CodeInvalidParameter, "parameter %s expects a list", p.Name), nil
		}
		return raw, nil, nil
	case spec.TMap:
		if raw.Kind() != cloudapi.KindMap {
			return cloudapi.Nil, cloudapi.Errf(cloudapi.CodeInvalidParameter, "parameter %s expects a map", p.Name), nil
		}
		return raw, nil, nil
	default:
		return raw, nil, nil
	}
}

func notFoundError(sm *spec.SM, id string) *cloudapi.APIError {
	code := sm.NotFound
	if code == "" {
		code = fmt.Sprintf("Invalid%sID.NotFound", sm.Name)
	}
	return cloudapi.Errf(code, "the %s %q does not exist", sm.Name, id)
}

// env is one transition activation record.
type env struct {
	world  *World
	sm     *spec.SM
	tr     *spec.Transition
	self   *Instance // nil for service-level transitions
	params map[string]cloudapi.Value
	locals []localVar // foreach bindings, innermost last
	depth  int
	// readonly is set while executing describe transitions: the
	// framework guarantees by construction that describes cannot
	// mutate state (§4.2's soundness requirement, enforced at runtime
	// as defense in depth).
	readonly bool
	resp     cloudapi.Result
}

type localVar struct {
	name string
	val  cloudapi.Value
}

func (e *env) lookupLocal(name string) (cloudapi.Value, bool) {
	for i := len(e.locals) - 1; i >= 0; i-- {
		if e.locals[i].name == name {
			return e.locals[i].val, true
		}
	}
	return cloudapi.Nil, false
}

// execStmts runs a statement list. It returns an *assertFailure (as
// error) when an assertion fails, or a plain error on framework
// malfunction.
func (e *env) execStmts(stmts []spec.Stmt) error {
	for _, s := range stmts {
		if err := e.execStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (e *env) execStmt(s spec.Stmt) error {
	switch st := s.(type) {
	case *spec.WriteStmt:
		if e.readonly {
			return internalErrf("describe transition %s attempted write(%s, …); the framework forbids mutation in describes", e.tr.Name, st.State)
		}
		if e.self == nil {
			return internalErrf("transition %s: write(%s, …) with no receiver", e.tr.Name, st.State)
		}
		v, err := e.eval(st.Value)
		if err != nil {
			return err
		}
		e.self.SetAttr(st.State, v)
		return nil
	case *spec.AssertStmt:
		v, err := e.eval(st.Pred)
		if err != nil {
			return err
		}
		if v.Truthy() {
			return nil
		}
		code := st.Code
		if code == "" {
			code = DefaultAssertCode
		}
		msg := st.Message
		if msg == "" {
			msg = "constraint not satisfied: " + spec.ExprString(st.Pred)
		}
		return &assertFailure{err: &cloudapi.APIError{Code: code, Message: msg}}
	case *spec.CallStmt:
		return e.execCall(st)
	case *spec.IfStmt:
		v, err := e.eval(st.Cond)
		if err != nil {
			return err
		}
		if v.Truthy() {
			return e.execStmts(st.Then)
		}
		return e.execStmts(st.Else)
	case *spec.ReturnStmt:
		v, err := e.eval(st.Value)
		if err != nil {
			return err
		}
		if e.resp == nil {
			return internalErrf("transition %s: return outside a top-level activation", e.tr.Name)
		}
		e.resp[st.Name] = v
		return nil
	case *spec.ForEachStmt:
		v, err := e.eval(st.Over)
		if err != nil {
			return err
		}
		if v.IsNil() {
			return nil
		}
		if v.Kind() != cloudapi.KindList {
			return internalErrf("transition %s: foreach over %s", e.tr.Name, v.Kind())
		}
		for _, elem := range v.AsList() {
			e.locals = append(e.locals, localVar{name: st.Var, val: elem})
			err := e.execStmts(st.Body)
			e.locals = e.locals[:len(e.locals)-1]
			if err != nil {
				return err
			}
		}
		return nil
	default:
		return internalErrf("unknown statement %T", s)
	}
}

// execCall triggers a transition on another SM instance. Internal
// calls bind positionally to the callee's non-self parameters and do
// not contribute to the API response.
func (e *env) execCall(st *spec.CallStmt) error {
	if e.readonly {
		return internalErrf("describe transition %s attempted call(…); the framework forbids mutation in describes", e.tr.Name)
	}
	if e.depth >= maxCallDepth {
		return internalErrf("call depth limit exceeded in transition %s (cyclic spec?)", e.tr.Name)
	}
	tv, err := e.eval(st.Target)
	if err != nil {
		return err
	}
	if tv.Kind() != cloudapi.KindRef {
		return internalErrf("transition %s: call target is %s, want ref", e.tr.Name, tv.Kind())
	}
	ref := tv.AsRef()
	targetSM := e.world.svc.SM(ref.Type)
	if targetSM == nil {
		return internalErrf("transition %s: call into unknown SM %q", e.tr.Name, ref.Type)
	}
	callee := targetSM.Transition(st.Trans)
	if callee == nil {
		return internalErrf("transition %s: SM %q has no transition %q", e.tr.Name, ref.Type, st.Trans)
	}
	inst, ok := e.world.Get(ref)
	if !ok || !inst.Alive {
		code := targetSM.NotFound
		if code == "" {
			code = "InvalidResourceID.NotFound"
		}
		return &assertFailure{err: cloudapi.Errf(code, "resource %s referenced by %s does not exist", ref, e.tr.Name)}
	}
	args := make([]cloudapi.Value, len(st.Args))
	for i, a := range st.Args {
		v, err := e.eval(a)
		if err != nil {
			return err
		}
		args[i] = v
	}
	params := make(map[string]cloudapi.Value)
	idx := 0
	for _, p := range callee.Params {
		if p.Receiver || p.Name == "self" {
			params[p.Name] = cloudapi.RefOf(ref)
			continue
		}
		if idx < len(args) {
			params[p.Name] = args[idx]
			idx++
		} else if !p.Default.IsNil() {
			params[p.Name] = p.Default
		} else {
			params[p.Name] = cloudapi.Nil
		}
	}
	callee2 := &env{
		world:  e.world,
		sm:     targetSM,
		tr:     callee,
		self:   inst,
		params: params,
		depth:  e.depth + 1,
		resp:   e.resp, // nested returns surface on the same response
	}
	// Destroy transitions invoked through call carry the framework's
	// destroy semantics, so specs can cascade reclamation of dependent
	// resources (DeleteTable reclaiming its items, DeleteSecurityGroup
	// its rules, …).
	if callee.Kind == spec.KDestroy {
		if kids := e.world.LiveChildren(ref); len(kids) > 0 {
			code := targetSM.Dependency
			if code == "" {
				code = cloudapi.CodeDependencyViolation
			}
			return &assertFailure{err: cloudapi.Errf(code, "%s has dependent resources (%s) and cannot be deleted", ref, kids[0].Ref)}
		}
	}
	if err := callee2.execStmts(callee.Body); err != nil {
		return err
	}
	if callee.Kind == spec.KDestroy {
		e.world.Destroy(ref)
	}
	return nil
}

// eval computes an expression value.
func (e *env) eval(x spec.Expr) (cloudapi.Value, error) {
	switch ex := x.(type) {
	case *spec.Lit:
		return ex.Value, nil
	case *spec.Ident:
		if v, ok := e.lookupLocal(ex.Name); ok {
			return v, nil
		}
		if v, ok := e.params[ex.Name]; ok {
			return v, nil
		}
		if e.self != nil {
			if e.sm.State(ex.Name) != nil {
				return e.self.attrOrNil(ex.Name), nil
			}
		}
		return cloudapi.Nil, internalErrf("transition %s: unbound identifier %q", e.tr.Name, ex.Name)
	case *spec.ReadExpr:
		if e.self == nil {
			return cloudapi.Nil, internalErrf("transition %s: read(%s) with no receiver", e.tr.Name, ex.State)
		}
		return e.self.attrOrNil(ex.State), nil
	case *spec.SelfExpr:
		if e.self == nil {
			return cloudapi.Nil, internalErrf("transition %s: self with no receiver", e.tr.Name)
		}
		return cloudapi.RefOf(e.self.Ref), nil
	case *spec.FieldExpr:
		base, err := e.eval(ex.X)
		if err != nil {
			return cloudapi.Nil, err
		}
		if base.IsNil() {
			return cloudapi.Nil, nil
		}
		if base.Kind() != cloudapi.KindRef {
			return cloudapi.Nil, internalErrf("transition %s: field access on %s", e.tr.Name, base.Kind())
		}
		inst, ok := e.world.Get(base.AsRef())
		if !ok {
			return cloudapi.Nil, nil
		}
		return inst.attrOrNil(ex.Name), nil
	case *spec.BuiltinExpr:
		return e.evalBuiltin(ex)
	case *spec.UnaryExpr:
		v, err := e.eval(ex.X)
		if err != nil {
			return cloudapi.Nil, err
		}
		if ex.Op == spec.TokBang {
			return cloudapi.Bool(!v.Truthy()), nil
		}
		return cloudapi.Int(-v.AsInt()), nil
	case *spec.BinaryExpr:
		return e.evalBinary(ex)
	default:
		return cloudapi.Nil, internalErrf("unknown expression %T", x)
	}
}

func (e *env) evalBinary(ex *spec.BinaryExpr) (cloudapi.Value, error) {
	// Short-circuit logical operators.
	switch ex.Op {
	case spec.TokAnd:
		l, err := e.eval(ex.X)
		if err != nil {
			return cloudapi.Nil, err
		}
		if !l.Truthy() {
			return cloudapi.False, nil
		}
		r, err := e.eval(ex.Y)
		if err != nil {
			return cloudapi.Nil, err
		}
		return cloudapi.Bool(r.Truthy()), nil
	case spec.TokOr:
		l, err := e.eval(ex.X)
		if err != nil {
			return cloudapi.Nil, err
		}
		if l.Truthy() {
			return cloudapi.True, nil
		}
		r, err := e.eval(ex.Y)
		if err != nil {
			return cloudapi.Nil, err
		}
		return cloudapi.Bool(r.Truthy()), nil
	}
	l, err := e.eval(ex.X)
	if err != nil {
		return cloudapi.Nil, err
	}
	r, err := e.eval(ex.Y)
	if err != nil {
		return cloudapi.Nil, err
	}
	switch ex.Op {
	case spec.TokEq:
		return cloudapi.Bool(l.Equal(r)), nil
	case spec.TokNeq:
		return cloudapi.Bool(!l.Equal(r)), nil
	case spec.TokLt, spec.TokLe, spec.TokGt, spec.TokGe:
		cmp, err := compareValues(&l, &r)
		if err != nil {
			return cloudapi.Nil, internalErrf("transition %s: %v", e.tr.Name, err)
		}
		switch ex.Op {
		case spec.TokLt:
			return cloudapi.Bool(cmp < 0), nil
		case spec.TokLe:
			return cloudapi.Bool(cmp <= 0), nil
		case spec.TokGt:
			return cloudapi.Bool(cmp > 0), nil
		default:
			return cloudapi.Bool(cmp >= 0), nil
		}
	case spec.TokPlus:
		return cloudapi.Int(l.AsInt() + r.AsInt()), nil
	case spec.TokMinus:
		return cloudapi.Int(l.AsInt() - r.AsInt()), nil
	default:
		return cloudapi.Nil, internalErrf("unknown binary operator")
	}
}

func (e *env) evalBuiltin(ex *spec.BuiltinExpr) (cloudapi.Value, error) {
	args := make([]cloudapi.Value, len(ex.Args))
	for i, a := range ex.Args {
		v, err := e.eval(a)
		if err != nil {
			return cloudapi.Nil, err
		}
		args[i] = v
	}
	return applyBuiltin(e.world, e.self, ex.Name, args)
}
