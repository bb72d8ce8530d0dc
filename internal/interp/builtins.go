package interp

import (
	"strings"

	"lce/internal/cidr"
	"lce/internal/cloudapi"
)

// This file holds the runtime pieces the compiled engine and the
// reference walker (walker_test.go) both call: the assertion-failure
// signal, ordered comparison, the builtin table and the describe
// payload. Keeping one copy is what makes the walker a reference for
// the compiler's lowering rather than for the builtins themselves.

// DefaultAssertCode is the error code used when a failed assertion
// carries no explicit code. Spec linking normally attaches a code to
// every assertion; this default exists so unlinked specs still fail
// closed.
const DefaultAssertCode = "AssertionFailure"

// maxCallDepth bounds cross-SM call chains so cyclic specs cannot hang
// the emulator; the depth is generous compared to any real dependency
// hierarchy.
const maxCallDepth = 64

// assertFailure is an internal control-flow signal carrying the API
// error a failed assertion maps to.
type assertFailure struct {
	err *cloudapi.APIError
}

func (a *assertFailure) Error() string { return a.err.Error() }

// compareValues orders two values of the same scalar kind. The int
// fast path stays under the inlining budget by deferring strings and
// the mismatch error to compareSlow.
func compareValues(l, r *cloudapi.Value) (int, error) {
	if l.Kind() == cloudapi.KindInt && r.Kind() == cloudapi.KindInt {
		switch {
		case l.AsInt() < r.AsInt():
			return -1, nil
		case l.AsInt() > r.AsInt():
			return 1, nil
		default:
			return 0, nil
		}
	}
	return compareSlow(l, r)
}

func compareSlow(l, r *cloudapi.Value) (int, error) {
	if l.Kind() == cloudapi.KindString && r.Kind() == cloudapi.KindString {
		return strings.Compare(l.AsString(), r.AsString()), nil
	}
	return 0, internalErrf("ordered comparison between %s and %s", l.Kind(), r.Kind())
}

// applyBuiltin executes one builtin over already-evaluated arguments.
// The compiled engine routes cold builtins here and specializes the
// hot ones; the reference walker routes all of them here.
func applyBuiltin(world *World, self *Instance, name string, args []cloudapi.Value) (cloudapi.Value, error) {
	need := func(n int) error {
		if len(args) != n {
			return internalErrf("builtin %s: %d args, want %d", name, len(args), n)
		}
		return nil
	}
	switch name {
	case "len":
		if err := need(1); err != nil {
			return cloudapi.Nil, err
		}
		switch args[0].Kind() {
		case cloudapi.KindList:
			return cloudapi.Int(int64(len(args[0].AsList()))), nil
		case cloudapi.KindString:
			return cloudapi.Int(int64(len(args[0].AsString()))), nil
		case cloudapi.KindMap:
			return cloudapi.Int(int64(len(args[0].AsMap()))), nil
		case cloudapi.KindNil:
			return cloudapi.Int(0), nil
		default:
			return cloudapi.Nil, internalErrf("builtin len: unsupported kind %s", args[0].Kind())
		}
	case "isnil":
		if err := need(1); err != nil {
			return cloudapi.Nil, err
		}
		return cloudapi.Bool(args[0].IsNil()), nil
	case "id":
		if err := need(1); err != nil {
			return cloudapi.Nil, err
		}
		if args[0].Kind() != cloudapi.KindRef {
			return cloudapi.Nil, internalErrf("builtin id: argument is %s, want ref", args[0].Kind())
		}
		return cloudapi.Str(args[0].AsRef().ID), nil
	case "children":
		if err := need(1); err != nil {
			return cloudapi.Nil, err
		}
		if self == nil {
			return cloudapi.Nil, internalErrf("builtin children with no receiver")
		}
		insts := world.Children(self.Ref, args[0].AsString())
		return refList(insts), nil
	case "instances":
		if err := need(1); err != nil {
			return cloudapi.Nil, err
		}
		insts := world.Instances(args[0].AsString())
		return refList(insts), nil
	case "append":
		if err := need(2); err != nil {
			return cloudapi.Nil, err
		}
		var base []cloudapi.Value
		if !args[0].IsNil() {
			base = args[0].AsList()
		}
		out := make([]cloudapi.Value, 0, len(base)+1)
		out = append(out, base...)
		out = append(out, args[1])
		return cloudapi.List(out...), nil
	case "remove":
		if err := need(2); err != nil {
			return cloudapi.Nil, err
		}
		var out []cloudapi.Value
		for _, v := range args[0].AsList() {
			if !v.Equal(args[1]) {
				out = append(out, v)
			}
		}
		return cloudapi.List(out...), nil
	case "contains":
		if err := need(2); err != nil {
			return cloudapi.Nil, err
		}
		for _, v := range args[0].AsList() {
			if v.Equal(args[1]) {
				return cloudapi.True, nil
			}
		}
		return cloudapi.False, nil
	case "concat":
		if err := need(2); err != nil {
			return cloudapi.Nil, err
		}
		return cloudapi.Str(args[0].AsString() + args[1].AsString()), nil
	case "emptyList":
		if err := need(0); err != nil {
			return cloudapi.Nil, err
		}
		return cloudapi.List(), nil
	case "emptyMap":
		if err := need(0); err != nil {
			return cloudapi.Nil, err
		}
		return cloudapi.Map(nil), nil
	case "pluck":
		if err := need(2); err != nil {
			return cloudapi.Nil, err
		}
		out := []cloudapi.Value{}
		for _, v := range args[0].AsList() {
			if v.Kind() != cloudapi.KindRef {
				continue
			}
			if inst, ok := world.Get(v.AsRef()); ok {
				out = append(out, inst.attrOrNil(args[1].AsString()))
			}
		}
		return cloudapi.List(out...), nil
	case "describeEach":
		if err := need(1); err != nil {
			return cloudapi.Nil, err
		}
		out := []cloudapi.Value{}
		for _, v := range args[0].AsList() {
			if v.Kind() != cloudapi.KindRef {
				continue
			}
			if inst, ok := world.Get(v.AsRef()); ok {
				out = append(out, describeInstance(inst))
			}
		}
		return cloudapi.List(out...), nil
	case "mapMerge":
		if err := need(2); err != nil {
			return cloudapi.Nil, err
		}
		a, b := args[0].AsMap(), args[1].AsMap()
		out := make(map[string]cloudapi.Value, len(a)+len(b))
		for k, v := range a {
			out[k] = v
		}
		for k, v := range b {
			out[k] = v
		}
		return cloudapi.Map(out), nil
	case "first":
		if err := need(1); err != nil {
			return cloudapi.Nil, err
		}
		l := args[0].AsList()
		if len(l) == 0 {
			return cloudapi.Nil, nil
		}
		return l[0], nil
	case "hasPrefix":
		if err := need(2); err != nil {
			return cloudapi.Nil, err
		}
		return cloudapi.Bool(strings.HasPrefix(args[0].AsString(), args[1].AsString())), nil
	case "mapSet":
		if err := need(3); err != nil {
			return cloudapi.Nil, err
		}
		src := args[0].AsMap()
		out := make(map[string]cloudapi.Value, len(src)+1)
		for k, v := range src {
			out[k] = v
		}
		out[args[1].AsString()] = args[2]
		return cloudapi.Map(out), nil
	case "mapDel":
		if err := need(2); err != nil {
			return cloudapi.Nil, err
		}
		src := args[0].AsMap()
		out := make(map[string]cloudapi.Value, len(src))
		for k, v := range src {
			if k != args[1].AsString() {
				out[k] = v
			}
		}
		return cloudapi.Map(out), nil
	case "lookup":
		if err := need(2); err != nil {
			return cloudapi.Nil, err
		}
		if args[1].Kind() != cloudapi.KindString {
			return cloudapi.Nil, nil
		}
		inst, ok := world.Lookup(args[0].AsString(), args[1].AsString())
		if !ok {
			return cloudapi.Nil, nil
		}
		return cloudapi.RefOf(inst.Ref), nil
	case "matching":
		if err := need(3); err != nil {
			return cloudapi.Nil, err
		}
		var out []cloudapi.Value
		for _, inst := range world.Instances(args[0].AsString()) {
			if inst.attrOrNil(args[1].AsString()).Equal(args[2]) {
				out = append(out, cloudapi.RefOf(inst.Ref))
			}
		}
		return cloudapi.List(out...), nil
	case "filterEq":
		if err := need(3); err != nil {
			return cloudapi.Nil, err
		}
		var out []cloudapi.Value
		for _, v := range args[0].AsList() {
			if v.Kind() != cloudapi.KindRef {
				continue
			}
			inst, ok := world.Get(v.AsRef())
			if !ok {
				continue
			}
			if inst.attrOrNil(args[1].AsString()).Equal(args[2]) {
				out = append(out, v)
			}
		}
		return cloudapi.List(out...), nil
	case "cidrCapacity":
		if err := need(1); err != nil {
			return cloudapi.Nil, err
		}
		return cloudapi.Int(cidr.HostCapacity(args[0].AsString())), nil
	case "cidrValid":
		if err := need(1); err != nil {
			return cloudapi.Nil, err
		}
		return cloudapi.Bool(cidr.Valid(args[0].AsString())), nil
	case "prefixLen":
		if err := need(1); err != nil {
			return cloudapi.Nil, err
		}
		return cloudapi.Int(int64(cidr.PrefixLen(args[0].AsString()))), nil
	case "cidrWithin":
		if err := need(2); err != nil {
			return cloudapi.Nil, err
		}
		return cloudapi.Bool(cidr.Within(args[0].AsString(), args[1].AsString())), nil
	case "cidrOverlaps":
		if err := need(2); err != nil {
			return cloudapi.Nil, err
		}
		return cloudapi.Bool(cidr.Overlaps(args[0].AsString(), args[1].AsString())), nil
	case "attrs":
		if err := need(1); err != nil {
			return cloudapi.Nil, err
		}
		if args[0].Kind() != cloudapi.KindRef {
			return cloudapi.Nil, internalErrf("builtin attrs: argument is %s, want ref", args[0].Kind())
		}
		inst, ok := world.Get(args[0].AsRef())
		if !ok {
			return cloudapi.Nil, nil
		}
		m := make(map[string]cloudapi.Value, inst.numAttrs())
		inst.eachAttr(func(k string, v cloudapi.Value) {
			m[k] = v
		})
		return cloudapi.Map(m), nil
	case "describe":
		if err := need(1); err != nil {
			return cloudapi.Nil, err
		}
		if args[0].Kind() != cloudapi.KindRef {
			return cloudapi.Nil, internalErrf("builtin describe: argument is %s, want ref", args[0].Kind())
		}
		inst, ok := world.Get(args[0].AsRef())
		if !ok {
			return cloudapi.Nil, nil
		}
		return describeInstance(inst), nil
	case "describeAll":
		if err := need(1); err != nil {
			return cloudapi.Nil, err
		}
		insts := world.Instances(args[0].AsString())
		out := make([]cloudapi.Value, len(insts))
		for i, inst := range insts {
			out[i] = describeInstance(inst)
		}
		return cloudapi.List(out...), nil
	default:
		return cloudapi.Nil, internalErrf("unknown builtin %q", name)
	}
}

// describeInstance renders an instance as the canonical describe
// payload: every state attribute plus an "id" key. Nil attributes are
// omitted, matching how cloud APIs omit unset fields.
func describeInstance(inst *Instance) cloudapi.Value { return describePayload(inst, false) }

// describeInstanceNormalized is NormalizeValue(describeInstance(inst))
// built in one pass, each attribute normalized as it goes in. A
// compiled return of a describe builtin stores its payload this way
// and skips the return's own normalizing copy (compiler.returnStmt).
func describeInstanceNormalized(inst *Instance) cloudapi.Value { return describePayload(inst, true) }

func describePayload(inst *Instance, normalize bool) cloudapi.Value {
	m := make(map[string]cloudapi.Value, inst.numAttrs()+1)
	inst.eachAttr(func(k string, v cloudapi.Value) {
		if v.IsNil() {
			return
		}
		if normalize {
			v = cloudapi.NormalizeValue(v)
		}
		m[k] = v
	})
	m["id"] = cloudapi.Str(inst.Ref.ID)
	return cloudapi.Map(m)
}

func refList(insts []*Instance) cloudapi.Value {
	out := make([]cloudapi.Value, len(insts))
	for i, inst := range insts {
		out[i] = cloudapi.RefOf(inst.Ref)
	}
	return cloudapi.List(out...)
}
