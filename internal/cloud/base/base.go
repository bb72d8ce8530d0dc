// Package base provides the scaffolding shared by the hand-written
// ground-truth cloud models: a resource store with deterministic IDs
// and an action-dispatch service shell.
//
// These models play the role of "the real cloud" in the reproduction
// (see DESIGN.md §1): the oracle that synthesized emulators are aligned
// against. They are written the way Moto is written — one Go handler
// per API action, with hand-coded validation and error codes — and
// deliberately share nothing with the spec interpreter, so divergence
// between a learned emulator and this oracle is meaningful.
package base

import (
	"sync"

	"lce/internal/cloudapi"
)

// Resource is one resource instance in the oracle's store.
type Resource struct {
	ID     string
	Type   string
	Parent string // parent resource ID, "" when none
	Attrs  map[string]cloudapi.Value
	Alive  bool
	Seq    int
}

// Attr returns the named attribute, or Nil.
func (r *Resource) Attr(name string) cloudapi.Value {
	if v, ok := r.Attrs[name]; ok {
		return v
	}
	return cloudapi.Nil
}

// Set assigns the named attribute.
func (r *Resource) Set(name string, v cloudapi.Value) { r.Attrs[name] = v }

// Str is shorthand for Attr(name).AsString().
func (r *Resource) Str(name string) string { return r.Attr(name).AsString() }

// Bool is shorthand for Attr(name).AsBool().
func (r *Resource) Bool(name string) bool { return r.Attr(name).AsBool() }

// Int is shorthand for Attr(name).AsInt().
func (r *Resource) Int(name string) int64 { return r.Attr(name).AsInt() }

// Store is the resource store for one service account.
type Store struct {
	ids    *cloudapi.IDGen
	byID   map[string]*Resource
	byType map[string][]*Resource
	seq    int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		ids:    cloudapi.NewIDGen(),
		byID:   make(map[string]*Resource),
		byType: make(map[string][]*Resource),
	}
}

// Reset clears everything, restarting ID allocation.
func (s *Store) Reset() {
	s.ids.Reset()
	s.byID = make(map[string]*Resource)
	s.byType = make(map[string][]*Resource)
	s.seq = 0
}

// Create allocates a live resource of the given type with an ID drawn
// from prefix.
func (s *Store) Create(typ, prefix string) *Resource {
	id := s.ids.Next(prefix)
	s.seq++
	r := &Resource{
		ID:    id,
		Type:  typ,
		Attrs: make(map[string]cloudapi.Value),
		Alive: true,
		Seq:   s.seq,
	}
	s.byID[id] = r
	s.byType[typ] = append(s.byType[typ], r)
	return r
}

// Get returns the resource with the given ID regardless of liveness.
func (s *Store) Get(id string) (*Resource, bool) {
	r, ok := s.byID[id]
	return r, ok
}

// Live returns the live resource with the given ID and type.
func (s *Store) Live(typ, id string) (*Resource, bool) {
	r, ok := s.byID[id]
	if !ok || !r.Alive || r.Type != typ {
		return nil, false
	}
	return r, true
}

// Delete marks the resource dead.
func (s *Store) Delete(id string) {
	if r, ok := s.byID[id]; ok {
		r.Alive = false
	}
}

// Discard removes the resource entirely (rollback of a failed create).
func (s *Store) Discard(id string) {
	r, ok := s.byID[id]
	if !ok {
		return
	}
	delete(s.byID, id)
	list := s.byType[r.Type]
	for i, e := range list {
		if e == r {
			s.byType[r.Type] = append(list[:i], list[i+1:]...)
			break
		}
	}
}

// ListLive returns the live resources of one type in creation order.
func (s *Store) ListLive(typ string) []*Resource {
	var out []*Resource
	for _, r := range s.byType[typ] {
		if r.Alive {
			out = append(out, r)
		}
	}
	return out
}

// CountLive returns the number of live resources of one type.
func (s *Store) CountLive(typ string) int {
	n := 0
	for _, r := range s.byType[typ] {
		if r.Alive {
			n++
		}
	}
	return n
}

// Children returns the live resources of childType parented to id.
func (s *Store) Children(id, childType string) []*Resource {
	var out []*Resource
	for _, r := range s.byType[childType] {
		if r.Alive && r.Parent == id {
			out = append(out, r)
		}
	}
	return out
}

// AnyChild returns the first live resource (of any of the given types)
// parented to id, or nil.
func (s *Store) AnyChild(id string, childTypes ...string) *Resource {
	var first *Resource
	for _, typ := range childTypes {
		for _, r := range s.byType[typ] {
			if r.Alive && r.Parent == id && (first == nil || r.Seq < first.Seq) {
				first = r
			}
		}
	}
	return first
}

// FindLive returns the first live resource of the given type matching
// pred, in creation order.
func (s *Store) FindLive(typ string, pred func(*Resource) bool) *Resource {
	for _, r := range s.byType[typ] {
		if r.Alive && pred(r) {
			return r
		}
	}
	return nil
}

// Handler executes one API action against the store. Handlers must be
// pure over (store, params): they may not capture mutable state outside
// the store, or forked service instances (see Fork) would share it.
type Handler func(s *Store, p cloudapi.Params) (cloudapi.Result, error)

// Service is a hand-written cloud service: a named dispatch table over
// a store. It implements cloudapi.Backend.
//
// Concurrency model: the dispatch table (handlers, actions, setup) is
// immutable once construction finishes — Register and SetSetup must
// not be called after the service is shared. Invoke and Reset are
// serialized by an internal mutex, so one Service instance may be
// hammered from many goroutines without data races; callers that need
// *logical* isolation (independent traces running concurrently) should
// instead give each goroutine its own instance via Fork.
type Service struct {
	mu       sync.Mutex
	name     string
	store    *Store
	handlers map[string]Handler
	actions  []string
	// setup re-creates default resources (e.g. a default VPC) after
	// Reset, mirroring how a fresh cloud account is not empty.
	setup func(*Store)
}

// NewService returns an empty service shell.
func NewService(name string) *Service {
	return &Service{
		name:     name,
		store:    NewStore(),
		handlers: make(map[string]Handler),
	}
}

// Register adds an action handler. Registering the same action twice
// panics: action tables are static and a duplicate is a programming
// error.
func (s *Service) Register(action string, h Handler) {
	if _, dup := s.handlers[action]; dup {
		panic("base: duplicate action " + action)
	}
	s.handlers[action] = h
	s.actions = append(s.actions, action)
}

// SetSetup installs the account-initialization hook and runs it once.
func (s *Service) SetSetup(f func(*Store)) {
	s.setup = f
	if f != nil {
		f(s.store)
	}
}

// Store exposes the raw store for white-box tests. It must not be used
// while other goroutines are invoking the service: the store is only
// protected by the Invoke/Reset mutex.
func (s *Service) Store() *Store { return s.store }

// Fork returns a fresh, independent instance of this service: same
// action table and account-setup hook, brand-new store with ID
// allocation restarted. It implements cloudapi.Forker, which lets the
// parallel alignment engine stamp out one oracle per worker. The
// dispatch table is immutable after construction, so Fork is safe to
// call even while the original instance is serving requests.
func (s *Service) Fork() cloudapi.Backend {
	ns := NewService(s.name)
	for _, action := range s.actions {
		ns.Register(action, s.handlers[action])
	}
	ns.SetSetup(s.setup)
	return ns
}

// Service implements cloudapi.Backend.
func (s *Service) Service() string { return s.name }

// Actions implements cloudapi.Backend.
func (s *Service) Actions() []string {
	out := make([]string, len(s.actions))
	copy(out, s.actions)
	sortStrings(out)
	return out
}

// Reset implements cloudapi.Backend.
func (s *Service) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store.Reset()
	if s.setup != nil {
		s.setup(s.store)
	}
}

// Invoke implements cloudapi.Backend.
func (s *Service) Invoke(req cloudapi.Request) (cloudapi.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.handlers[req.Action]
	if !ok {
		return nil, cloudapi.Errf(cloudapi.CodeUnknownAction, "the action %s is not valid for this service", req.Action)
	}
	return h(s.store, req.Params)
}

func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// --- Parameter helpers shared by every hand-written handler. ---

// ReqStr extracts a required string parameter.
func ReqStr(p cloudapi.Params, name string) (string, *cloudapi.APIError) {
	v := p.Get(name)
	if v.IsNil() {
		return "", cloudapi.Errf(cloudapi.CodeMissingParameter, "the request must contain the parameter %s", name)
	}
	if v.Kind() != cloudapi.KindString {
		return "", cloudapi.Errf(cloudapi.CodeInvalidParameter, "parameter %s expects a string", name)
	}
	return v.AsString(), nil
}

// OptStr extracts an optional string parameter with a default.
func OptStr(p cloudapi.Params, name, def string) string {
	v := p.Get(name)
	if v.Kind() != cloudapi.KindString {
		return def
	}
	return v.AsString()
}

// OptBool extracts an optional boolean parameter.
func OptBool(p cloudapi.Params, name string, def bool) bool {
	v := p.Get(name)
	if v.Kind() != cloudapi.KindBool {
		return def
	}
	return v.AsBool()
}

// OptInt extracts an optional integer parameter.
func OptInt(p cloudapi.Params, name string, def int64) int64 {
	v := p.Get(name)
	if v.Kind() != cloudapi.KindInt {
		return def
	}
	return v.AsInt()
}

// ReqInt extracts a required integer parameter.
func ReqInt(p cloudapi.Params, name string) (int64, *cloudapi.APIError) {
	v := p.Get(name)
	if v.IsNil() {
		return 0, cloudapi.Errf(cloudapi.CodeMissingParameter, "the request must contain the parameter %s", name)
	}
	if v.Kind() != cloudapi.KindInt {
		return 0, cloudapi.Errf(cloudapi.CodeInvalidParameter, "parameter %s expects an integer", name)
	}
	return v.AsInt(), nil
}

// Describe renders a resource as the canonical describe payload: every
// non-nil attribute plus an "id" key. This mirrors the interpreter's
// describe() builtin so oracle and learned emulator responses are
// directly comparable.
func Describe(r *Resource) cloudapi.Value {
	m := make(map[string]cloudapi.Value, len(r.Attrs)+1)
	for k, v := range r.Attrs {
		if v.IsNil() {
			continue
		}
		m[k] = v
	}
	m["id"] = cloudapi.Str(r.ID)
	return cloudapi.Map(m)
}

// DescribeAll renders a resource list as describe payloads.
func DescribeAll(rs []*Resource) cloudapi.Value {
	out := make([]cloudapi.Value, len(rs))
	for i, r := range rs {
		out[i] = Describe(r)
	}
	return cloudapi.List(out...)
}

// OKResult is the uniform success payload for modify/delete actions.
func OKResult() cloudapi.Result {
	return cloudapi.Result{"return": cloudapi.True}
}
