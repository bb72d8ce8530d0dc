package interp

import (
	"strings"

	"lce/internal/cidr"
	"lce/internal/cloudapi"
)

// This file holds the runtime pieces the compiled engine and the
// reference walker (walker_test.go) both call: the assertion-failure
// signal, ordered comparison, the builtin table and the describe
// payload. Each builtin has one implementation, its table entry, so
// the walker is a reference for the compiler's lowering rather than
// for the builtins themselves.

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

// applyBuiltin executes one builtin over already-evaluated arguments,
// checking its name and arity first. The reference walker calls every
// builtin through it; the compiler resolves and arity-checks each call
// site's table entry once and calls its fn directly.
func applyBuiltin(world *World, self *Instance, name string, args []cloudapi.Value) (cloudapi.Value, error) {
	b, ok := builtins[name]
	if !ok {
		return cloudapi.Nil, unknownBuiltinErr(name)
	}
	if len(args) != b.arity {
		return cloudapi.Nil, builtinArityErr(name, len(args), b.arity)
	}
	return b.fn(world, self, args)
}

func unknownBuiltinErr(name string) error { return internalErrf("unknown builtin %q", name) }

func builtinArityErr(name string, got, want int) error {
	return internalErrf("builtin %s: %d args, want %d", name, got, want)
}

// builtin is one entry of the builtin table: fn runs over exactly
// arity arguments.
type builtin struct {
	arity int
	fn    func(world *World, self *Instance, args []cloudapi.Value) (cloudapi.Value, error)
}

// builtins is the builtin table, the only implementation of each
// builtin.
var builtins = map[string]builtin{
	"len": {1, func(_ *World, _ *Instance, a []cloudapi.Value) (cloudapi.Value, error) {
		switch a[0].Kind() {
		case cloudapi.KindList:
			return cloudapi.Int(int64(len(a[0].AsList()))), nil
		case cloudapi.KindString:
			return cloudapi.Int(int64(len(a[0].AsString()))), nil
		case cloudapi.KindMap:
			return cloudapi.Int(int64(len(a[0].AsMap()))), nil
		case cloudapi.KindNil:
			return cloudapi.Int(0), nil
		default:
			return cloudapi.Nil, internalErrf("builtin len: unsupported kind %s", a[0].Kind())
		}
	}},
	"isnil": {1, func(_ *World, _ *Instance, a []cloudapi.Value) (cloudapi.Value, error) {
		return cloudapi.Bool(a[0].IsNil()), nil
	}},
	"id": {1, func(_ *World, _ *Instance, a []cloudapi.Value) (cloudapi.Value, error) {
		if a[0].Kind() != cloudapi.KindRef {
			return cloudapi.Nil, internalErrf("builtin id: argument is %s, want ref", a[0].Kind())
		}
		return cloudapi.Str(a[0].AsRef().ID), nil
	}},
	"children": {1, func(world *World, self *Instance, a []cloudapi.Value) (cloudapi.Value, error) {
		if self == nil {
			return cloudapi.Nil, internalErrf("builtin children with no receiver")
		}
		return refList(world.Children(self.Ref, a[0].AsString())), nil
	}},
	"instances": {1, func(world *World, _ *Instance, a []cloudapi.Value) (cloudapi.Value, error) {
		return refList(world.Instances(a[0].AsString())), nil
	}},
	"append": {2, func(_ *World, _ *Instance, a []cloudapi.Value) (cloudapi.Value, error) {
		base := a[0].AsList()
		out := make([]cloudapi.Value, 0, len(base)+1)
		out = append(out, base...)
		out = append(out, a[1])
		return cloudapi.List(out...), nil
	}},
	"remove": {2, func(_ *World, _ *Instance, a []cloudapi.Value) (cloudapi.Value, error) {
		var out []cloudapi.Value
		for _, v := range a[0].AsList() {
			if !v.Equal(a[1]) {
				out = append(out, v)
			}
		}
		return cloudapi.List(out...), nil
	}},
	"contains": {2, func(_ *World, _ *Instance, a []cloudapi.Value) (cloudapi.Value, error) {
		for _, v := range a[0].AsList() {
			if v.Equal(a[1]) {
				return cloudapi.True, nil
			}
		}
		return cloudapi.False, nil
	}},
	"concat": {2, func(_ *World, _ *Instance, a []cloudapi.Value) (cloudapi.Value, error) {
		return cloudapi.Str(a[0].AsString() + a[1].AsString()), nil
	}},
	"emptyList": {0, func(*World, *Instance, []cloudapi.Value) (cloudapi.Value, error) {
		return cloudapi.List(), nil
	}},
	"emptyMap": {0, func(*World, *Instance, []cloudapi.Value) (cloudapi.Value, error) {
		return cloudapi.Map(nil), nil
	}},
	"pluck": {2, func(world *World, _ *Instance, a []cloudapi.Value) (cloudapi.Value, error) {
		out := []cloudapi.Value{}
		for _, v := range a[0].AsList() {
			if v.Kind() != cloudapi.KindRef {
				continue
			}
			if inst, ok := world.Get(v.AsRef()); ok {
				out = append(out, inst.attrOrNil(a[1].AsString()))
			}
		}
		return cloudapi.List(out...), nil
	}},
	"mapMerge": {2, func(_ *World, _ *Instance, a []cloudapi.Value) (cloudapi.Value, error) {
		x, y := a[0].AsMap(), a[1].AsMap()
		out := make(map[string]cloudapi.Value, len(x)+len(y))
		for k, v := range x {
			out[k] = v
		}
		for k, v := range y {
			out[k] = v
		}
		return cloudapi.Map(out), nil
	}},
	"first": {1, func(_ *World, _ *Instance, a []cloudapi.Value) (cloudapi.Value, error) {
		l := a[0].AsList()
		if len(l) == 0 {
			return cloudapi.Nil, nil
		}
		return l[0], nil
	}},
	"hasPrefix": {2, func(_ *World, _ *Instance, a []cloudapi.Value) (cloudapi.Value, error) {
		return cloudapi.Bool(strings.HasPrefix(a[0].AsString(), a[1].AsString())), nil
	}},
	"mapSet": {3, func(_ *World, _ *Instance, a []cloudapi.Value) (cloudapi.Value, error) {
		src := a[0].AsMap()
		out := make(map[string]cloudapi.Value, len(src)+1)
		for k, v := range src {
			out[k] = v
		}
		out[a[1].AsString()] = a[2]
		return cloudapi.Map(out), nil
	}},
	"mapDel": {2, func(_ *World, _ *Instance, a []cloudapi.Value) (cloudapi.Value, error) {
		src := a[0].AsMap()
		out := make(map[string]cloudapi.Value, len(src))
		for k, v := range src {
			if k != a[1].AsString() {
				out[k] = v
			}
		}
		return cloudapi.Map(out), nil
	}},
	"lookup": {2, func(world *World, _ *Instance, a []cloudapi.Value) (cloudapi.Value, error) {
		if a[1].Kind() != cloudapi.KindString {
			return cloudapi.Nil, nil
		}
		inst, ok := world.Lookup(a[0].AsString(), a[1].AsString())
		if !ok {
			return cloudapi.Nil, nil
		}
		return cloudapi.RefOf(inst.Ref), nil
	}},
	"matching": {3, func(world *World, _ *Instance, a []cloudapi.Value) (cloudapi.Value, error) {
		var out []cloudapi.Value
		for _, inst := range world.Instances(a[0].AsString()) {
			if inst.attrOrNil(a[1].AsString()).Equal(a[2]) {
				out = append(out, cloudapi.RefOf(inst.Ref))
			}
		}
		return cloudapi.List(out...), nil
	}},
	"filterEq": {3, func(world *World, _ *Instance, a []cloudapi.Value) (cloudapi.Value, error) {
		var out []cloudapi.Value
		for _, v := range a[0].AsList() {
			if v.Kind() != cloudapi.KindRef {
				continue
			}
			inst, ok := world.Get(v.AsRef())
			if !ok {
				continue
			}
			if inst.attrOrNil(a[1].AsString()).Equal(a[2]) {
				out = append(out, v)
			}
		}
		return cloudapi.List(out...), nil
	}},
	"cidrCapacity": {1, func(_ *World, _ *Instance, a []cloudapi.Value) (cloudapi.Value, error) {
		return cloudapi.Int(cidr.HostCapacity(a[0].AsString())), nil
	}},
	"cidrValid": {1, func(_ *World, _ *Instance, a []cloudapi.Value) (cloudapi.Value, error) {
		return cloudapi.Bool(cidr.Valid(a[0].AsString())), nil
	}},
	"prefixLen": {1, func(_ *World, _ *Instance, a []cloudapi.Value) (cloudapi.Value, error) {
		return cloudapi.Int(int64(cidr.PrefixLen(a[0].AsString()))), nil
	}},
	"cidrWithin": {2, func(_ *World, _ *Instance, a []cloudapi.Value) (cloudapi.Value, error) {
		return cloudapi.Bool(cidr.Within(a[0].AsString(), a[1].AsString())), nil
	}},
	"cidrOverlaps": {2, func(_ *World, _ *Instance, a []cloudapi.Value) (cloudapi.Value, error) {
		return cloudapi.Bool(cidr.Overlaps(a[0].AsString(), a[1].AsString())), nil
	}},
	"attrs": {1, func(world *World, _ *Instance, a []cloudapi.Value) (cloudapi.Value, error) {
		if a[0].Kind() != cloudapi.KindRef {
			return cloudapi.Nil, internalErrf("builtin attrs: argument is %s, want ref", a[0].Kind())
		}
		inst, ok := world.Get(a[0].AsRef())
		if !ok {
			return cloudapi.Nil, nil
		}
		m := make(map[string]cloudapi.Value, inst.numAttrs())
		inst.eachAttr(func(k string, v cloudapi.Value) {
			m[k] = v
		})
		return cloudapi.Map(m), nil
	}},
	"describe":     describeEntry(describeOne),
	"describeAll":  describeEntry(describeAll),
	"describeEach": describeEntry(describeEach),
}

// describeFn is the body of a describe builtin: it renders each
// instance its argument names with desc.
type describeFn func(world *World, arg cloudapi.Value, desc func(*Instance) cloudapi.Value) (cloudapi.Value, error)

// describeBuiltins are the builtins whose value is built from describe
// payloads alone. A compiled return of one renders them normalized
// (compiler.returnStmt); the table renders them with describeInstance.
var describeBuiltins = map[string]describeFn{
	"describe":     describeOne,
	"describeAll":  describeAll,
	"describeEach": describeEach,
}

func describeEntry(body describeFn) builtin {
	return builtin{1, func(world *World, _ *Instance, a []cloudapi.Value) (cloudapi.Value, error) {
		return body(world, a[0], describeInstance)
	}}
}

func describeOne(world *World, arg cloudapi.Value, desc func(*Instance) cloudapi.Value) (cloudapi.Value, error) {
	if arg.Kind() != cloudapi.KindRef {
		return cloudapi.Nil, internalErrf("builtin describe: argument is %s, want ref", arg.Kind())
	}
	inst, ok := world.Get(arg.AsRef())
	if !ok {
		return cloudapi.Nil, nil
	}
	return desc(inst), nil
}

func describeAll(world *World, arg cloudapi.Value, desc func(*Instance) cloudapi.Value) (cloudapi.Value, error) {
	insts := world.Instances(arg.AsString())
	out := make([]cloudapi.Value, len(insts))
	for i, inst := range insts {
		out[i] = desc(inst)
	}
	return cloudapi.List(out...), nil
}

func describeEach(world *World, arg cloudapi.Value, desc func(*Instance) cloudapi.Value) (cloudapi.Value, error) {
	out := []cloudapi.Value{}
	for _, v := range arg.AsList() {
		if v.Kind() != cloudapi.KindRef {
			continue
		}
		if inst, ok := world.Get(v.AsRef()); ok {
			out = append(out, desc(inst))
		}
	}
	return cloudapi.List(out...), nil
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
