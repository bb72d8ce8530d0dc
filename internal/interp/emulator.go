package interp

import (
	"sync"

	"lce/internal/cloudapi"
	"lce/internal/obsv"
	"lce/internal/spec"
)

// Emulator executes a service specification as a cloud backend: it is
// the learned emulator. It implements cloudapi.Backend.
//
// Concurrency model: Invoke and Reset are serialized by an internal
// mutex, so one Emulator may be shared across goroutines without data
// races. The interpreter itself keeps no global mutable state — all
// mutation lands in the per-emulator World — but the spec the emulator
// was built from is shared and must be treated as read-only while any
// emulator built from it is live; the alignment engine therefore
// confines spec repairs to its single-goroutine repair phase and
// rebuilds per-worker emulators afterwards. New and Rebuild (which
// re-index the spec's lookup maps) must likewise not run concurrently
// with each other or with invocations on the same spec.
type Emulator struct {
	mu    sync.Mutex
	svc   *spec.Service
	world *World
	// prog is the compiled program Invoke dispatches through: an
	// immutable snapshot of the spec taken at construction. Replacing
	// SMs of the spec afterwards does not change this emulator's
	// behaviour — Rebuild (or New) one to pick the change up.
	prog *Program
}

// New builds an emulator for the given service spec: it indexes the
// spec and lowers it to pre-resolved closures. The spec must index
// cleanly (unique SM and action names); callers that want
// well-formedness guarantees should run spec.Check first — the
// synthesis pipeline always does.
func New(svc *spec.Service) (*Emulator, error) {
	prog, err := CompileService(svc)
	if err != nil {
		return nil, err
	}
	return &Emulator{svc: svc, world: NewWorld(svc), prog: prog}, nil
}

// NewCompiled is New. The name predates the single engine and is kept
// because the frozen benchmark module calls it.
func NewCompiled(svc *spec.Service) (*Emulator, error) { return New(svc) }

// Fork implements cloudapi.Forker: a fresh emulator over the same spec
// with an empty world and restarted ID allocation. The compiled
// program, being immutable, is shared by the fork — the tenant pool
// and alignment workers stamp out one emulator per session or worker
// without re-compiling. The fork shares the spec, so it inherits the
// read-only constraint documented on Emulator.
func (e *Emulator) Fork() cloudapi.Backend {
	return &Emulator{svc: e.svc, world: NewWorld(e.svc), prog: e.prog}
}

// Rebuild returns a fresh emulator, with an empty world, for e's spec
// after SMs were replaced in, added to or removed from it — never
// edited in place (see spec.Service.Reindex). It re-indexes the spec,
// compiles each SM that is not the *spec.SM e's program compiled, and
// takes every other SM's compiled form from e's program; New is the
// case with no program to take from. e keeps its program, a snapshot of
// the spec as it was. Like New, Rebuild must not run concurrently with
// invocations on emulators sharing the spec.
func (e *Emulator) Rebuild() (*Emulator, error) {
	prog, err := compileService(e.svc, e.prog)
	if err != nil {
		return nil, err
	}
	return &Emulator{svc: e.svc, world: NewWorld(e.svc), prog: prog}, nil
}

// SMsCompiled reports how many SMs building this emulator's program
// compiled: every SM for New, the replaced ones for Rebuild. A fork
// reports its parent's count, as it shares the program.
func (e *Emulator) SMsCompiled() int { return e.prog.compiled }

// Service implements cloudapi.Backend.
func (e *Emulator) Service() string { return e.svc.Name }

// Actions implements cloudapi.Backend.
func (e *Emulator) Actions() []string { return e.svc.Actions() }

// Reset implements cloudapi.Backend.
func (e *Emulator) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.world.Reset()
}

// Spec returns the service specification the emulator interprets. The
// alignment loop uses it to localize divergences to spec elements.
func (e *Emulator) Spec() *spec.Service { return e.svc }

// World exposes the resource store for white-box assertions in tests
// and the gym's observation space. The store is only protected by the
// Invoke/Reset mutex, so it must not be read while other goroutines
// are invoking this emulator.
func (e *Emulator) World() *World { return e.world }

// ReadOnly reports whether action is a public describe transition.
// Executing one cannot change the world — the interpreter rejects
// write() and call() inside a describe — so a layer that records
// mutations for replay (the durable journal) has nothing to record for
// it. Unknown and internal actions report false.
func (e *Emulator) ReadOnly(action string) bool {
	ct, ok := e.prog.actions[action]
	return ok && ct.readonly && !ct.internal
}

// Invoke implements cloudapi.Backend. API-level failures (unknown
// action, missing/invalid parameters, missing resources, failed
// assertions, dependency violations) come back as *cloudapi.APIError;
// other errors indicate a malfunctioning spec or framework bug.
func (e *Emulator) Invoke(req cloudapi.Request) (cloudapi.Result, error) {
	// The "interp.dispatch" phase covers lock wait + execution — the
	// emulator's whole contribution to a request. PhasesFrom on a nil
	// or bare context is a nil timer and the region is free, so the
	// hot path stays zero-alloc when uninstrumented.
	region := obsv.PhasesFrom(req.Ctx).Start(obsv.PhaseDispatch)
	e.mu.Lock()
	defer e.mu.Unlock()
	defer region.End()
	return e.prog.invoke(e.world, req)
}
