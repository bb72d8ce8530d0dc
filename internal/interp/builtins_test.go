package interp

import (
	"testing"

	"lce/internal/cloudapi"
	"lce/internal/spec"
)

// builtinEmulator builds a tiny service exposing an Eval transition
// whose body stores a computed expression, so individual builtins can
// be exercised through the public surface.
func builtinEmulator(t *testing.T, valueExpr string, states string) (*Emulator, string) {
	t.Helper()
	src := `service b { sm Box {
		idprefix "box"
		states { out: str
		  n: int
		  l: list(str)
		  m: map
		  flag: bool
		  ` + states + ` }
		transition MkBox() create { return(boxId, id(self)) }
		transition EvalStr(self: ref(Box)) modify { write(out, ` + valueExpr + `) }
		transition EvalInt(self: ref(Box)) modify { write(n, ` + valueExpr + `) }
		transition EvalList(self: ref(Box)) modify { write(l, ` + valueExpr + `) }
		transition EvalMap(self: ref(Box)) modify { write(m, ` + valueExpr + `) }
		transition EvalBool(self: ref(Box)) modify { write(flag, ` + valueExpr + `) }
	} }`
	svc, err := spec.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	emu, err := New(svc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := emu.Invoke(cloudapi.Request{Action: "MkBox"})
	if err != nil {
		t.Fatal(err)
	}
	return emu, res.Get("boxId").AsString()
}

func evalOn(t *testing.T, emu *Emulator, id, action, attr string) cloudapi.Value {
	t.Helper()
	if _, err := emu.Invoke(cloudapi.Request{Action: action, Params: cloudapi.Params{"self": cloudapi.Str(id)}}); err != nil {
		t.Fatalf("%s: %v", action, err)
	}
	inst, _ := emu.World().Lookup("Box", id)
	return inst.attrOrNil(attr)
}

func TestBuiltinStringOps(t *testing.T) {
	emu, id := builtinEmulator(t, `concat("a-", "b")`, "")
	if got := evalOn(t, emu, id, "EvalStr", "out"); got.AsString() != "a-b" {
		t.Errorf("concat = %v", got)
	}
	emu, id = builtinEmulator(t, `hasPrefix("t3.micro", "t3.")`, "")
	if got := evalOn(t, emu, id, "EvalBool", "flag"); !got.AsBool() {
		t.Errorf("hasPrefix = %v", got)
	}
}

func TestBuiltinCidrOps(t *testing.T) {
	emu, id := builtinEmulator(t, `cidrCapacity("10.0.0.0/24") - 5`, "")
	if got := evalOn(t, emu, id, "EvalInt", "n"); got.AsInt() != 251 {
		t.Errorf("cidrCapacity = %v", got)
	}
}

func TestBuiltinListOps(t *testing.T) {
	emu, id := builtinEmulator(t, `append(emptyList(), "x")`, "")
	if got := evalOn(t, emu, id, "EvalList", "l"); len(got.AsList()) != 1 {
		t.Errorf("append/emptyList = %v", got)
	}
	emu, id = builtinEmulator(t, `remove(append(append(emptyList(), "x"), "y"), "x")`, "")
	got := evalOn(t, emu, id, "EvalList", "l")
	if len(got.AsList()) != 1 || got.AsList()[0].AsString() != "y" {
		t.Errorf("remove = %v", got)
	}
	emu, id = builtinEmulator(t, `len(append(emptyList(), "x")) + len("ab")`, "")
	if got := evalOn(t, emu, id, "EvalInt", "n"); got.AsInt() != 3 {
		t.Errorf("len = %v", got)
	}
	emu, id = builtinEmulator(t, `contains(append(emptyList(), "x"), "x")`, "")
	if got := evalOn(t, emu, id, "EvalBool", "flag"); !got.AsBool() {
		t.Errorf("contains = %v", got)
	}
}

func TestBuiltinMapOps(t *testing.T) {
	emu, id := builtinEmulator(t, `mapSet(emptyMap(), "k", "v")`, "")
	got := evalOn(t, emu, id, "EvalMap", "m")
	if got.AsMap()["k"].AsString() != "v" {
		t.Errorf("mapSet = %v", got)
	}
	emu, id = builtinEmulator(t, `mapDel(mapSet(emptyMap(), "k", "v"), "k")`, "")
	if got := evalOn(t, emu, id, "EvalMap", "m"); len(got.AsMap()) != 0 {
		t.Errorf("mapDel = %v", got)
	}
	emu, id = builtinEmulator(t, `mapMerge(mapSet(emptyMap(), "a", 1), mapSet(emptyMap(), "b", 2))`, "")
	if got := evalOn(t, emu, id, "EvalMap", "m"); len(got.AsMap()) != 2 {
		t.Errorf("mapMerge = %v", got)
	}
}

func TestBuiltinStoreQueries(t *testing.T) {
	// lookup/matching/filterEq/first/pluck against live instances.
	src := `service q {
	  sm Item {
	    idprefix "item"
	    states { k: str
	      grp: str }
	    transition MkItem(k: str, grp: str) create {
	      write(k, k)
	      write(grp, grp)
	      return(itemId, id(self))
	    }
	    transition Probe(self: ref(Item)) describe {
	      return(found, id(first(filterEq(matching("Item", "grp", "g1"), "k", "b"))))
	      return(all, pluck(instances("Item"), "k"))
	      return(missing, lookup("Item", "item-ffffffff"))
	      return(hit, lookup("Item", id(self)))
	      return(payload, describeEach(matching("Item", "grp", "g1")))
	    }
	  }
	}`
	svc, err := spec.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	emu, err := New(svc)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(k, grp string) string {
		res, err := emu.Invoke(cloudapi.Request{Action: "MkItem", Params: cloudapi.Params{
			"k": cloudapi.Str(k), "grp": cloudapi.Str(grp)}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Get("itemId").AsString()
	}
	a := mk("a", "g1")
	b := mk("b", "g1")
	mk("c", "g2")
	res, err := emu.Invoke(cloudapi.Request{Action: "Probe", Params: cloudapi.Params{"self": cloudapi.Str(a)}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Get("found").AsString(); got != b {
		t.Errorf("filterEq/first = %q, want %q", got, b)
	}
	if got := res.Get("all").AsList(); len(got) != 3 || got[0].AsString() != "a" {
		t.Errorf("pluck = %v", got)
	}
	if !res.Get("missing").IsNil() {
		t.Errorf("lookup(missing) = %v", res.Get("missing"))
	}
	if got := res.Get("hit").AsString(); got != a {
		t.Errorf("lookup(self) = %q (normalized)", got)
	}
	payload := res.Get("payload").AsList()
	if len(payload) != 2 || payload[0].AsMap()["id"].AsString() != a {
		t.Errorf("describeEach = %v", payload)
	}
}

func TestFailedCreateRollsBackIDs(t *testing.T) {
	// The ID-alignment property: any number of failed creates must not
	// perturb the IDs later successful creates receive.
	src := `service r { sm A {
	  idprefix "a"
	  states { v: str }
	  transition MkA(v: str) create {
	    assert(v != "bad") error "Nope"
	    write(v, v)
	    return(aId, id(self))
	  }
	} }`
	svc, err := spec.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	emu, err := New(svc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := emu.Invoke(cloudapi.Request{Action: "MkA", Params: cloudapi.Params{"v": cloudapi.Str("bad")}}); err == nil {
			t.Fatal("bad create succeeded")
		}
	}
	res, err := emu.Invoke(cloudapi.Request{Action: "MkA", Params: cloudapi.Params{"v": cloudapi.Str("ok")}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Get("aId").AsString(); got != "a-00000001" {
		t.Errorf("id after failed creates = %q, want a-00000001", got)
	}
}

func TestInternalTransitionsHiddenFromAPI(t *testing.T) {
	src := `service h { sm A {
	  states { n: int }
	  transition MkA() create { return(aId, id(self)) }
	  transition _Set_A_n(receiver self: ref(A), v: int) modify internal { write(n, v) }
	  transition Bump(self: ref(A)) modify { call(self._Set_A_n(7)) }
	} }`
	svc, err := spec.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	emu, err := New(svc)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range emu.Actions() {
		if a == "_Set_A_n" {
			t.Error("internal transition listed in Actions()")
		}
	}
	res, _ := emu.Invoke(cloudapi.Request{Action: "MkA"})
	id := res.Get("aId").AsString()
	// Direct invocation is rejected...
	_, err = emu.Invoke(cloudapi.Request{Action: "_Set_A_n", Params: cloudapi.Params{"self": cloudapi.Str(id), "v": cloudapi.Int(1)}})
	if ae, ok := cloudapi.AsAPIError(err); !ok || ae.Code != cloudapi.CodeUnknownAction {
		t.Errorf("internal direct invoke = %v", err)
	}
	// ...but the call primitive reaches it.
	if _, err := emu.Invoke(cloudapi.Request{Action: "Bump", Params: cloudapi.Params{"self": cloudapi.Str(id)}}); err != nil {
		t.Fatal(err)
	}
	inst, _ := emu.World().Lookup("A", id)
	if inst.attrOrNil("n").AsInt() != 7 {
		t.Errorf("n = %v", inst.attrOrNil("n"))
	}
}

func TestCallDepthLimit(t *testing.T) {
	src := `service c { sm A {
	  states { n: int }
	  transition MkA() create { return(aId, id(self)) }
	  transition Loop(self: ref(A)) modify { call(self.Loop()) }
	} }`
	svc, err := spec.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	emu, err := New(svc)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := emu.Invoke(cloudapi.Request{Action: "MkA"})
	id := res.Get("aId").AsString()
	_, err = emu.Invoke(cloudapi.Request{Action: "Loop", Params: cloudapi.Params{"self": cloudapi.Str(id)}})
	if err == nil {
		t.Fatal("cyclic call terminated without error")
	}
	if _, isAPI := cloudapi.AsAPIError(err); isAPI {
		t.Errorf("cycle surfaced as API error: %v", err)
	}
}

func TestDestroyViaCallCascades(t *testing.T) {
	src := `service d {
	  sm Child {
	    idprefix "c"
	    states { owner: str }
	    transition MkChild(owner: str) create { write(owner, owner) return(childId, id(self)) }
	    transition _Reclaim_Child(receiver self: ref(Child)) destroy internal {}
	  }
	  sm Owner {
	    idprefix "o"
	    transition MkOwner() create { return(ownerId, id(self)) }
	    transition Purge(self: ref(Owner)) modify {
	      foreach c in matching("Child", "owner", id(self)) { call(c._Reclaim_Child()) }
	    }
	  }
	}`
	svc, err := spec.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	emu, err := New(svc)
	if err != nil {
		t.Fatal(err)
	}
	o, _ := emu.Invoke(cloudapi.Request{Action: "MkOwner"})
	oid := o.Get("ownerId").AsString()
	for i := 0; i < 3; i++ {
		if _, err := emu.Invoke(cloudapi.Request{Action: "MkChild", Params: cloudapi.Params{"owner": cloudapi.Str(oid)}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := emu.Invoke(cloudapi.Request{Action: "Purge", Params: cloudapi.Params{"self": cloudapi.Str(oid)}}); err != nil {
		t.Fatal(err)
	}
	if n := emu.World().CountLive("Child"); n != 0 {
		t.Errorf("children after purge = %d", n)
	}
}

// TestBuiltinTable calls every entry of the builtin table through
// applyBuiltin over a world holding one VPC and one subnet under it.
// Its rows must name exactly the table's builtins, so a builtin added
// without a row fails here.
func TestBuiltinTable(t *testing.T) {
	emu := newHierarchyEmulator(t)
	for _, req := range []cloudapi.Request{
		{Action: "CreateVpc", Params: cloudapi.Params{"cidrBlock": cloudapi.Str("10.0.0.0/16")}},
		{Action: "CreateSubnet", Params: cloudapi.Params{"vpcId": cloudapi.Str("vpc-00000001"), "cidrBlock": cloudapi.Str("10.0.1.0/24")}},
	} {
		if _, err := emu.Invoke(req); err != nil {
			t.Fatalf("%s: %v", req.Action, err)
		}
	}
	w := emu.World()
	vpc, subnet := cloudapi.RefVal("Vpc", "vpc-00000001"), cloudapi.RefVal("Subnet", "subnet-00000001")
	self, ok := w.Get(vpc.AsRef())
	if !ok {
		t.Fatal("vpc-00000001 not in the world")
	}
	s, i := cloudapi.Str, cloudapi.Int
	list := cloudapi.List
	vpcPayload := cloudapi.Map(map[string]cloudapi.Value{"cidrBlock": s("10.0.0.0/16"), "id": s("vpc-00000001")})
	rows := []struct {
		name string
		args []cloudapi.Value
		want cloudapi.Value
	}{
		{"len", []cloudapi.Value{list(s("x"), s("y"))}, i(2)},
		{"isnil", []cloudapi.Value{cloudapi.Nil}, cloudapi.True},
		{"id", []cloudapi.Value{vpc}, s("vpc-00000001")},
		{"children", []cloudapi.Value{s("Subnet")}, list(subnet)},
		{"instances", []cloudapi.Value{s("Vpc")}, list(vpc)},
		{"append", []cloudapi.Value{list(s("x")), s("y")}, list(s("x"), s("y"))},
		{"remove", []cloudapi.Value{list(s("x"), s("y")), s("x")}, list(s("y"))},
		{"contains", []cloudapi.Value{list(s("x"), s("y")), s("y")}, cloudapi.True},
		{"concat", []cloudapi.Value{s("a-"), s("b")}, s("a-b")},
		{"emptyList", nil, list()},
		{"emptyMap", nil, cloudapi.Map(nil)},
		{"pluck", []cloudapi.Value{list(vpc, s("x")), s("cidrBlock")}, list(s("10.0.0.0/16"))},
		{"mapMerge", []cloudapi.Value{cloudapi.Map(map[string]cloudapi.Value{"a": i(1)}), cloudapi.Map(map[string]cloudapi.Value{"b": i(2)})},
			cloudapi.Map(map[string]cloudapi.Value{"a": i(1), "b": i(2)})},
		{"first", []cloudapi.Value{list(s("x"), s("y"))}, s("x")},
		{"hasPrefix", []cloudapi.Value{s("t3.micro"), s("t3.")}, cloudapi.True},
		{"mapSet", []cloudapi.Value{cloudapi.Map(nil), s("k"), s("v")}, cloudapi.Map(map[string]cloudapi.Value{"k": s("v")})},
		{"mapDel", []cloudapi.Value{cloudapi.Map(map[string]cloudapi.Value{"k": s("v")}), s("k")}, cloudapi.Map(nil)},
		{"lookup", []cloudapi.Value{s("Vpc"), s("vpc-00000001")}, vpc},
		{"matching", []cloudapi.Value{s("Subnet"), s("cidrBlock"), s("10.0.1.0/24")}, list(subnet)},
		{"filterEq", []cloudapi.Value{list(vpc, subnet, i(1)), s("cidrBlock"), s("10.0.0.0/16")}, list(vpc)},
		{"cidrCapacity", []cloudapi.Value{s("10.0.0.0/24")}, i(256)},
		{"cidrValid", []cloudapi.Value{s("10.0.0.0/33")}, cloudapi.False},
		{"prefixLen", []cloudapi.Value{s("10.0.0.0/16")}, i(16)},
		{"cidrWithin", []cloudapi.Value{s("10.0.1.0/24"), s("10.0.0.0/16")}, cloudapi.True},
		{"cidrOverlaps", []cloudapi.Value{s("10.0.0.0/16"), s("10.1.0.0/16")}, cloudapi.False},
		{"attrs", []cloudapi.Value{vpc}, cloudapi.Map(map[string]cloudapi.Value{"cidrBlock": s("10.0.0.0/16")})},
		{"describe", []cloudapi.Value{vpc}, vpcPayload},
		{"describeAll", []cloudapi.Value{s("Vpc")}, list(vpcPayload)},
		{"describeEach", []cloudapi.Value{list(vpc, s("x"))}, list(vpcPayload)},
	}
	named := make(map[string]bool, len(rows))
	for _, r := range rows {
		named[r.name] = true
		got, err := applyBuiltin(w, self, r.name, r.args)
		if err != nil || !cloudapi.Identical(got, r.want) {
			t.Errorf("%s%v = %v, %v; want %v", r.name, r.args, got, err, r.want)
		}
	}
	for name := range builtins {
		if !named[name] {
			t.Errorf("builtin %s has no row", name)
		}
	}
	for name := range named {
		if _, ok := builtins[name]; !ok {
			t.Errorf("row for %s, which the table does not hold", name)
		}
	}
	for _, c := range []struct {
		name string
		args []cloudapi.Value
		want string
	}{
		{"nosuch", nil, `interp: unknown builtin "nosuch"`},
		{"len", nil, "interp: builtin len: 0 args, want 1"},
		{"mapSet", []cloudapi.Value{cloudapi.Map(nil)}, "interp: builtin mapSet: 1 args, want 3"},
	} {
		if _, err := applyBuiltin(w, self, c.name, c.args); err == nil || err.Error() != c.want {
			t.Errorf("%s%v: err %v, want %q", c.name, c.args, err, c.want)
		}
	}
}
