package interp

import (
	"sync"

	"lce/internal/cloudapi"
	"lce/internal/spec"
)

// This file is the runtime: the activation frame, its pool, and
// Program.invoke. Responses must stay byte-identical to the reference
// walker's (walker_test.go); every deviation here is a bug the
// differential suites exist to catch.

// respOwner holds the lazily-allocated response map. It is a separate
// struct so nested call frames can share the top-level activation's
// response by pointer — nested return() statements surface on the API
// response, exactly as the walker's shared resp map does.
type respOwner struct {
	m cloudapi.Result
}

// frame is one compiled activation record. Parameters and foreach
// locals live in slot-indexed slices — the compiler resolved every
// name to an index — so steady-state invocations allocate nothing.
type frame struct {
	prog   *Program
	world  *World
	self   *Instance
	params []cloudapi.Value
	// locals holds foreach variables as pointers into the iterated
	// list's backing array. Values are immutable once built (writes
	// replace whole slot values, builtins construct fresh lists), so
	// the element outlives the iteration and binding by pointer skips
	// a large-struct copy plus its GC write barrier on every element.
	locals []*cloudapi.Value
	// regs is the scratch register file: compile-time-allocated slots
	// for intermediate expression values. Registers keep temporaries
	// off the heap — a stack variable whose address is passed to an
	// exprFn (an indirect call) would escape.
	regs     []cloudapi.Value
	depth    int
	readonly bool
	owner    respOwner
	ro       *respOwner
}

var framePool = sync.Pool{New: func() any { return new(frame) }}

func getFrame() *frame { return framePool.Get().(*frame) }

func putFrame(f *frame) {
	// Zero the value slots (full capacity, not just current length) so
	// pooled frames don't pin refs, lists, or maps across invocations.
	clear(f.params[:cap(f.params)])
	clear(f.locals[:cap(f.locals)])
	clear(f.regs[:cap(f.regs)])
	f.params = f.params[:0]
	f.locals = f.locals[:0]
	f.regs = f.regs[:0]
	f.prog, f.world, f.self = nil, nil, nil
	f.depth = 0
	f.readonly = false
	f.owner.m = nil
	f.ro = nil
	framePool.Put(f)
}

func (f *frame) ensureParams(n int) {
	if cap(f.params) < n {
		f.params = make([]cloudapi.Value, n)
		return
	}
	f.params = f.params[:n]
}

func (f *frame) ensureRegs(n int) {
	if cap(f.regs) < n {
		f.regs = make([]cloudapi.Value, n)
		return
	}
	f.regs = f.regs[:n]
}

func (f *frame) ensureLocals(n int) {
	if cap(f.locals) < n {
		f.locals = make([]*cloudapi.Value, n)
		return
	}
	// Stale values are fine: the compiler guarantees a local slot is
	// written by its foreach before any read in the loop body.
	f.locals = f.locals[:n]
}

// result returns the response map, allocating it at the first return().
func (f *frame) result() cloudapi.Result {
	if f.ro.m == nil {
		f.ro.m = make(cloudapi.Result, 4)
	}
	return f.ro.m
}

func runBody(f *frame, body []stmtFn) error {
	for _, s := range body {
		if err := s(f); err != nil {
			return err
		}
	}
	return nil
}

// emptyResult is the shared response for transitions that return
// nothing. The walker builds a fresh empty map per call; sharing one
// is safe because no caller mutates Invoke results, and the two are
// indistinguishable structurally and on the wire.
var emptyResult = cloudapi.Result{}

// invoke executes one request through the compiled program, in the
// reference walker's order: action resolution, parameter binding,
// create/parent linking, the destroy dependency check, body execution
// with create rollback, destroy, response normalization. The caller
// (Emulator.Invoke) holds the emulator mutex.
func (p *Program) invoke(w *World, req cloudapi.Request) (cloudapi.Result, error) {
	ct, ok := p.actions[req.Action]
	if !ok || ct.internal {
		return nil, cloudapi.Errf(cloudapi.CodeUnknownAction, "the action %s is not valid for this service", req.Action)
	}

	f := getFrame()
	defer putFrame(f)
	f.prog, f.world = p, w
	f.readonly = ct.readonly
	f.ro = &f.owner

	self, apiErr, err := ct.bind(f, req.Params)
	if err != nil {
		return nil, err
	}
	if apiErr != nil {
		return nil, apiErr
	}

	var created *Instance
	if ct.kind == spec.KCreate {
		created = w.Create(ct.csm.sm)
		if ct.parentIdx >= 0 {
			if pv := f.params[ct.parentIdx]; pv.Kind() == cloudapi.KindRef {
				created.Parent = pv.AsRef()
			}
		}
		self = created
	}

	if ct.kind == spec.KDestroy && self != nil {
		if kids := w.LiveChildren(self.Ref); len(kids) > 0 {
			return nil, cloudapi.Errf(ct.csm.dependency, "%s has dependent resources (%s) and cannot be deleted", self.Ref, kids[0].Ref)
		}
	}

	f.self = self
	f.ensureLocals(ct.maxLocals)
	f.ensureRegs(ct.maxRegs)
	if err := runBody(f, ct.body); err != nil {
		if created != nil {
			w.Discard(created.Ref)
		}
		if af, ok := err.(*assertFailure); ok {
			return nil, af.err
		}
		return nil, err
	}

	if ct.kind == spec.KDestroy && self != nil {
		w.Destroy(self.Ref)
	}
	res := f.owner.m
	if res == nil {
		return emptyResult, nil
	}
	f.owner.m = nil
	return res, nil
}

// bind resolves request parameters into the frame's slot-indexed
// params slice: declared params in declaration order first (so binding
// errors surface in the walker's order), then the unknown-parameter
// sweep — skipped entirely when the declared-present count already
// accounts for every request key.
func (ct *compiledTrans) bind(f *frame, in cloudapi.Params) (*Instance, *cloudapi.APIError, error) {
	f.ensureParams(ct.nParams)
	var self *Instance
	present := 0
	for i := range ct.binders {
		b := &ct.binders[i]
		raw, ok := in[b.name]
		if ok {
			present++
		}
		if !ok || raw.IsNil() {
			if b.isRecv || !b.optional {
				return nil, b.missingErr(), nil
			}
			f.params[b.slot] = b.def
			continue
		}
		v := raw
		if b.coerce != nil {
			cv, apiErr, err := b.coerce(f, raw)
			if err != nil || apiErr != nil {
				return nil, apiErr, err
			}
			v = cv
		}
		f.params[b.slot] = v
		if b.isRecv {
			inst, ok := f.world.Get(v.AsRef())
			if !ok || !inst.Alive {
				return nil, compiledNotFound(ct.csm, v.AsRef().ID), nil
			}
			self = inst
		}
	}
	if present != len(in) {
		for name := range in {
			if _, known := ct.known[name]; !known {
				return nil, cloudapi.Errf(cloudapi.CodeInvalidParameter, "unknown parameter %s for action %s", name, ct.tr.Name), nil
			}
		}
	}
	return self, nil, nil
}
