// Package interp is the emulator framework the paper engineers once by
// hand (§4.2): an interpreter that executes SM specifications against a
// resource store. The specs act as an "executable specification";
// the framework supplies everything the grammar leaves implicit —
// instance lifecycle, the containment hierarchy and its correctness
// checks, parameter binding, error-code mapping for failed assertions,
// and the pure builtin functions.
//
// There is one execution engine: the compiler (compile.go) lowers a
// type-checked spec into pre-resolved closures once, and the runtime
// (compiled.go) executes them with slot-indexed state access. A
// tree-walking interpreter that resolves everything on every step
// lives in walker_test.go as the reference the differential suites
// compare the engine against; it ships in no binary.
package interp

import (
	"fmt"
	"sort"

	"lce/internal/cloudapi"
	"lce/internal/spec"
)

// Instance is one live (or destroyed) resource. State variables live in
// a dense slot array laid out by the SM's compile-time slot table
// (spec.SM.StateSlot); attributes outside the layout — possible only
// when the spec was never indexed — spill into an overflow map. The
// written-flag per slot preserves the distinction between "never
// written" and "written nil", which the attrs() builtin and Snapshot
// observe.
type Instance struct {
	Ref    cloudapi.Ref
	Parent cloudapi.Ref
	Alive  bool
	// Seq is the global creation sequence number; listings are ordered
	// by it so two backends that process the same trace enumerate
	// resources identically.
	Seq int

	sm    *spec.SM
	slots []cloudapi.Value
	set   []bool
	extra map[string]cloudapi.Value // lazily allocated overflow
}

// Attr returns the named attribute and whether it has been written.
// The slot-length guard covers instances created before a re-Index
// grew the SM's layout; such names spill to the overflow map.
func (inst *Instance) Attr(name string) (cloudapi.Value, bool) {
	if inst.sm != nil {
		if i, ok := inst.sm.StateSlot(name); ok && i < len(inst.slots) {
			return inst.slots[i], inst.set[i]
		}
	}
	v, ok := inst.extra[name]
	return v, ok
}

// SetAttr writes the named attribute.
func (inst *Instance) SetAttr(name string, v cloudapi.Value) {
	if inst.sm != nil {
		if i, ok := inst.sm.StateSlot(name); ok && i < len(inst.slots) {
			inst.slots[i] = v
			inst.set[i] = true
			return
		}
	}
	if inst.extra == nil {
		inst.extra = make(map[string]cloudapi.Value)
	}
	inst.extra[name] = v
}

// slotValue is the compiled path's pre-resolved read: no name lookup,
// just an index into the slot array. The compiler only emits it for
// slots in the instance's own layout.
func (inst *Instance) slotValue(i int) cloudapi.Value {
	if i < len(inst.slots) {
		return inst.slots[i]
	}
	return cloudapi.Nil
}

// setSlot is the compiled path's pre-resolved write; the name rides
// along only for the out-of-layout spill.
func (inst *Instance) setSlot(i int, name string, v cloudapi.Value) {
	if i < len(inst.slots) {
		inst.slots[i] = v
		inst.set[i] = true
		return
	}
	inst.SetAttr(name, v)
}

// attrOrNil returns the instance attribute, or Nil when unset.
func (inst *Instance) attrOrNil(name string) cloudapi.Value {
	v, _ := inst.Attr(name)
	return v
}

// eachAttr calls fn for every written attribute in a deterministic
// order: slot-layout attributes first in declaration order, then
// overflow attributes sorted by name. Determinism here is load-bearing
// — the durable snapshot codec walks attributes through this and its
// encoding must be byte-stable across runs and Go versions.
func (inst *Instance) eachAttr(fn func(name string, v cloudapi.Value)) {
	if inst.sm != nil {
		for i, name := range inst.sm.SlotNames() {
			if i >= len(inst.set) {
				break
			}
			if inst.set[i] {
				fn(name, inst.slots[i])
			}
		}
	}
	if len(inst.extra) > 0 {
		keys := make([]string, 0, len(inst.extra))
		for k := range inst.extra {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fn(k, inst.extra[k])
		}
	}
}

// numAttrs returns the number of written attributes.
func (inst *Instance) numAttrs() int {
	n := len(inst.extra)
	for _, s := range inst.set {
		if s {
			n++
		}
	}
	return n
}

// World is the resource store: every instance of every SM type,
// indexed by type and ID, plus deterministic ID allocation.
type World struct {
	svc    *spec.Service
	ids    *cloudapi.IDGen
	byType map[string]map[string]*Instance
	seq    int
}

// NewWorld returns an empty store for the given service.
func NewWorld(svc *spec.Service) *World {
	return &World{
		svc:    svc,
		ids:    cloudapi.NewIDGen(),
		byType: make(map[string]map[string]*Instance),
	}
}

// Reset drops every instance and restarts ID allocation.
func (w *World) Reset() {
	w.byType = make(map[string]map[string]*Instance)
	w.ids.Reset()
	w.seq = 0
}

// Create allocates a new live instance of the given SM.
func (w *World) Create(sm *spec.SM) *Instance {
	prefix := sm.ResolvedIDPrefix()
	if prefix == "" { // unindexed SM: fall back to computing it here
		prefix = sm.IDPrefix
		if prefix == "" {
			prefix = lowerFirst(sm.Name)
		}
	}
	id := w.ids.Next(prefix)
	w.seq++
	inst := &Instance{
		Ref:   cloudapi.Ref{Type: sm.Name, ID: id},
		Alive: true,
		Seq:   w.seq,
		sm:    sm,
	}
	if n := sm.NumStates(); n > 0 {
		inst.slots = make([]cloudapi.Value, n)
		inst.set = make([]bool, n)
	}
	m := w.byType[sm.Name]
	if m == nil {
		m = make(map[string]*Instance)
		w.byType[sm.Name] = m
	}
	m[id] = inst
	return inst
}

// Get returns the instance for ref if it exists (alive or not).
func (w *World) Get(ref cloudapi.Ref) (*Instance, bool) {
	m, ok := w.byType[ref.Type]
	if !ok {
		return nil, false
	}
	inst, ok := m[ref.ID]
	return inst, ok
}

// Lookup finds a live instance of the given type by ID.
func (w *World) Lookup(typ, id string) (*Instance, bool) {
	inst, ok := w.Get(cloudapi.Ref{Type: typ, ID: id})
	if !ok || !inst.Alive {
		return nil, false
	}
	return inst, true
}

// Discard removes an instance entirely and returns its ID and
// sequence number to the pool; used to roll back a create whose
// transition body failed an assertion, keeping ID allocation aligned
// with a cloud that validates before allocating.
func (w *World) Discard(ref cloudapi.Ref) {
	m, ok := w.byType[ref.Type]
	if !ok {
		return
	}
	inst, ok := m[ref.ID]
	if !ok {
		return
	}
	delete(m, ref.ID)
	if inst.Seq == w.seq {
		w.seq--
	}
	sm := w.svc.SM(ref.Type)
	prefix := ""
	if sm != nil {
		prefix = sm.IDPrefix
	}
	if prefix == "" {
		prefix = lowerFirst(ref.Type)
	}
	w.ids.Rollback(prefix)
}

// Destroy marks an instance dead.
func (w *World) Destroy(ref cloudapi.Ref) {
	if inst, ok := w.Get(ref); ok {
		inst.Alive = false
	}
}

// Instances returns the live instances of one type in creation order.
func (w *World) Instances(typ string) []*Instance {
	var out []*Instance
	for _, inst := range w.byType[typ] {
		if inst.Alive {
			out = append(out, inst)
		}
	}
	sortBySeq(out)
	return out
}

// Children returns the live instances of childType whose parent is ref,
// in creation order.
func (w *World) Children(ref cloudapi.Ref, childType string) []*Instance {
	var out []*Instance
	for _, inst := range w.byType[childType] {
		if inst.Alive && inst.Parent == ref {
			out = append(out, inst)
		}
	}
	sortBySeq(out)
	return out
}

// LiveChildren reports whether any live instance of any type has ref as
// its parent, returning the first such instance found (in creation
// order across types as declared in the service).
func (w *World) LiveChildren(ref cloudapi.Ref) []*Instance {
	var out []*Instance
	for _, sm := range w.svc.SMs {
		if sm.Parent == ref.Type {
			out = append(out, w.Children(ref, sm.Name)...)
		}
	}
	return out
}

// CountLive returns the number of live instances of the given type.
func (w *World) CountLive(typ string) int {
	n := 0
	for _, inst := range w.byType[typ] {
		if inst.Alive {
			n++
		}
	}
	return n
}

// Snapshot returns a deep copy of every live instance's attributes,
// keyed by "Type/ID". Tests and the gym use it to assert invariants
// without reaching into the store.
func (w *World) Snapshot() map[string]map[string]cloudapi.Value {
	out := make(map[string]map[string]cloudapi.Value)
	for typ, m := range w.byType {
		for id, inst := range m {
			if !inst.Alive {
				continue
			}
			attrs := make(map[string]cloudapi.Value, inst.numAttrs())
			inst.eachAttr(func(k string, v cloudapi.Value) {
				attrs[k] = v
			})
			out[typ+"/"+id] = attrs
		}
	}
	return out
}

func sortBySeq(insts []*Instance) {
	for i := 1; i < len(insts); i++ {
		for j := i; j > 0 && insts[j].Seq < insts[j-1].Seq; j-- {
			insts[j], insts[j-1] = insts[j-1], insts[j]
		}
	}
}

func lowerFirst(s string) string {
	if s == "" {
		return s
	}
	b := []byte(s)
	if b[0] >= 'A' && b[0] <= 'Z' {
		b[0] += 'a' - 'A'
	}
	return string(b)
}

func internalErrf(format string, args ...any) error {
	return fmt.Errorf("interp: %s", fmt.Sprintf(format, args...))
}
