package cloudapitest

import (
	"strings"
	"testing"

	"lce/internal/cloudapi"
)

type inner struct {
	v    cloudapi.Value
	tags []string
}

type outer struct {
	Name  string
	in    inner
	byKey map[string]inner
	ptr   *inner
	any   any
	fn    func()
}

// fresh builds the same outer twice over no shared string or slice.
func fresh(leaf string) outer {
	typ := strings.Clone("Vpc")
	in := inner{v: cloudapi.List(cloudapi.RefVal(typ, leaf), cloudapi.Str(leaf)), tags: []string{"t"}}
	return outer{
		Name:  "o",
		in:    in,
		byKey: map[string]inner{"k": in},
		ptr:   &inner{v: cloudapi.RefVal(strings.Clone(typ), leaf)},
		any:   in,
	}
}

func TestDeepEqual(t *testing.T) {
	if !DeepEqual(fresh("a"), fresh("a")) {
		t.Error("two equal structures built apart compare unequal")
	}
	if !DeepEqual(cloudapi.List(cloudapi.RefVal(strings.Clone("Vpc"), "x")), cloudapi.List(cloudapi.RefVal("Vpc", "x"))) {
		t.Error("two equal Values built apart compare unequal")
	}
	for name, mutate := range map[string]func(a, b *outer){
		"exported field":           func(_, b *outer) { b.Name = "p" },
		"unexported Value":         func(_, b *outer) { b.in.v = cloudapi.List(cloudapi.Str("a"), cloudapi.Str("a")) },
		"Value in a map's struct":  func(_, b *outer) { b.byKey["k"] = inner{v: cloudapi.Nil, tags: b.in.tags} },
		"Value behind a pointer":   func(_, b *outer) { b.ptr.v = cloudapi.RefVal("Subnet", "a") },
		"Value in an interface":    func(_, b *outer) { b.any = inner{v: cloudapi.Str("a"), tags: []string{"t"}} },
		"nil slice vs empty slice": func(a, b *outer) { a.in.tags, b.in.tags = nil, []string{} },
		"nil map vs empty map":     func(a, b *outer) { a.byKey, b.byKey = nil, map[string]inner{} },
		"missing map key":          func(_, b *outer) { b.byKey = map[string]inner{"j": b.in} },
		"non-nil func":             func(_, b *outer) { b.fn = func() {} },
	} {
		a, b := fresh("a"), fresh("a")
		mutate(&a, &b)
		if DeepEqual(a, b) || DeepEqual(b, a) {
			t.Errorf("%s: the structures compare equal after the change", name)
		}
	}
	if DeepEqual(1, int64(1)) || !DeepEqual(nil, nil) || DeepEqual(nil, 0) {
		t.Error("top-level type or nil comparison")
	}
}
