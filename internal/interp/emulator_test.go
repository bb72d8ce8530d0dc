package interp

import (
	"strings"
	"testing"

	"lce/internal/cloudapi"
	"lce/internal/cloudapi/cloudapitest"
	"lce/internal/spec"
)

func newToyEmulator(t *testing.T) *Emulator {
	t.Helper()
	svc, err := spec.Parse(spec.ToySource)
	if err != nil {
		t.Fatalf("Parse(ToySource): %v", err)
	}
	if errs := spec.Check(svc, spec.Strict); len(errs) > 0 {
		t.Fatalf("Check(ToySource): %v", errs)
	}
	emu, err := New(svc)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return emu
}

func invoke(t *testing.T, b cloudapi.Backend, action string, params cloudapi.Params) cloudapi.Result {
	t.Helper()
	res, err := b.Invoke(cloudapi.Request{Action: action, Params: params})
	if err != nil {
		t.Fatalf("%s: %v", action, err)
	}
	return res
}

func invokeErr(t *testing.T, b cloudapi.Backend, action string, params cloudapi.Params) *cloudapi.APIError {
	t.Helper()
	_, err := b.Invoke(cloudapi.Request{Action: action, Params: params})
	if err == nil {
		t.Fatalf("%s: want API error, got success", action)
	}
	ae, ok := cloudapi.AsAPIError(err)
	if !ok {
		t.Fatalf("%s: non-API error: %v", action, err)
	}
	return ae
}

func TestCreateAndDescribeLifecycle(t *testing.T) {
	emu := newToyEmulator(t)
	res := invoke(t, emu, "CreatePublicIp", cloudapi.Params{"region": cloudapi.Str("us-east")})
	id := res.Get("allocationId").AsString()
	if !strings.HasPrefix(id, "eipalloc-") {
		t.Fatalf("allocationId = %q", id)
	}
	if emu.World().CountLive("PublicIp") != 1 {
		t.Errorf("live PublicIp count = %d", emu.World().CountLive("PublicIp"))
	}
}

func TestCreateAssertionRollsBack(t *testing.T) {
	emu := newToyEmulator(t)
	ae := invokeErr(t, emu, "CreatePublicIp", cloudapi.Params{"region": cloudapi.Str("eu-central")})
	if ae.Code != "InvalidParameterValue" {
		t.Errorf("code = %q", ae.Code)
	}
	if emu.World().CountLive("PublicIp") != 0 {
		t.Errorf("failed create leaked an instance: %d live", emu.World().CountLive("PublicIp"))
	}
	// The ID space must also not be burned in a way that breaks
	// cross-backend determinism... it may advance, but the next create
	// must still succeed.
	res := invoke(t, emu, "CreatePublicIp", cloudapi.Params{"region": cloudapi.Str("us-east")})
	if res.Get("allocationId").IsNil() {
		t.Error("create after failed create returned no id")
	}
}

func TestCrossSMCallAndZoneCheck(t *testing.T) {
	emu := newToyEmulator(t)
	ipRes := invoke(t, emu, "CreatePublicIp", cloudapi.Params{"region": cloudapi.Str("us-east")})
	ipID := ipRes.Get("allocationId").AsString()
	nicRes := invoke(t, emu, "CreateNic", cloudapi.Params{"zone": cloudapi.Str("us-east")})
	nicID := nicRes.Get("networkInterfaceId").AsString()

	invoke(t, emu, "AssociateNic", cloudapi.Params{
		"self":   cloudapi.Str(ipID),
		"nicRef": cloudapi.Str(nicID),
	})

	// The call primitive must have transitioned the NIC SM too
	// (bidirectional association, §3).
	nic, ok := emu.World().Lookup("NetworkInterface", nicID)
	if !ok {
		t.Fatal("nic disappeared")
	}
	got := nic.attrOrNil("publicIp")
	if got.Kind() != cloudapi.KindRef || got.AsRef().ID != ipID {
		t.Errorf("nic.publicIp = %v, want ref to %s", got, ipID)
	}
}

func TestZoneMismatchRejected(t *testing.T) {
	emu := newToyEmulator(t)
	ipID := invoke(t, emu, "CreatePublicIp", cloudapi.Params{"region": cloudapi.Str("us-east")}).Get("allocationId").AsString()
	nicID := invoke(t, emu, "CreateNic", cloudapi.Params{"zone": cloudapi.Str("us-west")}).Get("networkInterfaceId").AsString()
	ae := invokeErr(t, emu, "AssociateNic", cloudapi.Params{
		"self":   cloudapi.Str(ipID),
		"nicRef": cloudapi.Str(nicID),
	})
	if ae.Code != "InvalidZone.Mismatch" {
		t.Errorf("code = %q", ae.Code)
	}
	// The failed assert precedes the call: the NIC must be untouched.
	nic, _ := emu.World().Lookup("NetworkInterface", nicID)
	if !nic.attrOrNil("publicIp").IsNil() {
		t.Errorf("nic.publicIp mutated on failed transition: %v", nic.attrOrNil("publicIp"))
	}
}

func TestDestroyGuardedByAssertion(t *testing.T) {
	emu := newToyEmulator(t)
	ipID := invoke(t, emu, "CreatePublicIp", cloudapi.Params{"region": cloudapi.Str("us-east")}).Get("allocationId").AsString()
	nicID := invoke(t, emu, "CreateNic", cloudapi.Params{"zone": cloudapi.Str("us-east")}).Get("networkInterfaceId").AsString()
	invoke(t, emu, "AssociateNic", cloudapi.Params{"self": cloudapi.Str(ipID), "nicRef": cloudapi.Str(nicID)})

	ae := invokeErr(t, emu, "DestroyPublicIp", cloudapi.Params{"self": cloudapi.Str(ipID)})
	if ae.Code != "InUse" {
		t.Errorf("code = %q", ae.Code)
	}
	if emu.World().CountLive("PublicIp") != 1 {
		t.Error("PublicIp destroyed despite failed assertion")
	}
}

func TestDestroySucceedsWhenUnattached(t *testing.T) {
	emu := newToyEmulator(t)
	ipID := invoke(t, emu, "CreatePublicIp", cloudapi.Params{"region": cloudapi.Str("us-east")}).Get("allocationId").AsString()
	invoke(t, emu, "DestroyPublicIp", cloudapi.Params{"self": cloudapi.Str(ipID)})
	if emu.World().CountLive("PublicIp") != 0 {
		t.Error("PublicIp still live after destroy")
	}
	// A second destroy must report not-found, not succeed silently.
	ae := invokeErr(t, emu, "DestroyPublicIp", cloudapi.Params{"self": cloudapi.Str(ipID)})
	if ae.Code != "InvalidAllocationID.NotFound" {
		t.Errorf("code = %q", ae.Code)
	}
}

func TestUnknownAction(t *testing.T) {
	emu := newToyEmulator(t)
	ae := invokeErr(t, emu, "FrobnicateIp", nil)
	if ae.Code != cloudapi.CodeUnknownAction {
		t.Errorf("code = %q", ae.Code)
	}
}

func TestMissingParameter(t *testing.T) {
	emu := newToyEmulator(t)
	ae := invokeErr(t, emu, "CreatePublicIp", nil)
	if ae.Code != cloudapi.CodeMissingParameter {
		t.Errorf("code = %q", ae.Code)
	}
}

func TestUnknownParameterRejected(t *testing.T) {
	emu := newToyEmulator(t)
	ae := invokeErr(t, emu, "CreatePublicIp", cloudapi.Params{
		"region": cloudapi.Str("us-east"),
		"bogus":  cloudapi.Str("x"),
	})
	if ae.Code != cloudapi.CodeInvalidParameter {
		t.Errorf("code = %q", ae.Code)
	}
}

func TestRefParamNotFound(t *testing.T) {
	emu := newToyEmulator(t)
	ipID := invoke(t, emu, "CreatePublicIp", cloudapi.Params{"region": cloudapi.Str("us-east")}).Get("allocationId").AsString()
	ae := invokeErr(t, emu, "AssociateNic", cloudapi.Params{
		"self":   cloudapi.Str(ipID),
		"nicRef": cloudapi.Str("eni-deadbeef"),
	})
	if ae.Code != "InvalidNetworkInterfaceID.NotFound" {
		t.Errorf("code = %q", ae.Code)
	}
}

func TestWrongRefTypeRejected(t *testing.T) {
	emu := newToyEmulator(t)
	ipID := invoke(t, emu, "CreatePublicIp", cloudapi.Params{"region": cloudapi.Str("us-east")}).Get("allocationId").AsString()
	ae := invokeErr(t, emu, "AssociateNic", cloudapi.Params{
		"self":   cloudapi.Str(ipID),
		"nicRef": cloudapi.RefVal("PublicIp", ipID),
	})
	if ae.Code != cloudapi.CodeInvalidParameter {
		t.Errorf("code = %q", ae.Code)
	}
}

func TestReset(t *testing.T) {
	emu := newToyEmulator(t)
	id1 := invoke(t, emu, "CreatePublicIp", cloudapi.Params{"region": cloudapi.Str("us-east")}).Get("allocationId").AsString()
	emu.Reset()
	if emu.World().CountLive("PublicIp") != 0 {
		t.Error("reset left instances")
	}
	id2 := invoke(t, emu, "CreatePublicIp", cloudapi.Params{"region": cloudapi.Str("us-east")}).Get("allocationId").AsString()
	if id1 != id2 {
		t.Errorf("ID allocation not deterministic across Reset: %q vs %q", id1, id2)
	}
}

const hierarchySpec = `
service h {
  sm Vpc {
    idprefix "vpc"
    notfound "InvalidVpcID.NotFound"
    dependency "DependencyViolation"
    states { cidrBlock: str }
    transition CreateVpc(cidrBlock: str) create {
      assert(cidrValid(cidrBlock)) error "InvalidVpc.Range"
      write(cidrBlock, cidrBlock)
      return(vpcId, id(self))
    }
    transition DeleteVpc(self: ref(Vpc)) destroy {}
    transition DescribeVpcs() describe {
      return(vpcIds, instances("Vpc"))
    }
  }
  sm Subnet {
    idprefix "subnet"
    parent Vpc
    notfound "InvalidSubnetID.NotFound"
    states { cidrBlock: str }
    transition CreateSubnet(parent vpcId: ref(Vpc), cidrBlock: str) create {
      assert(cidrWithin(cidrBlock, vpcId.cidrBlock)) error "InvalidSubnet.Range"
      write(cidrBlock, cidrBlock)
      return(subnetId, id(self))
    }
    transition DeleteSubnet(self: ref(Subnet)) destroy {}
  }
}
`

func newHierarchyEmulator(t *testing.T) *Emulator {
	t.Helper()
	svc, err := spec.Parse(hierarchySpec)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if errs := spec.Check(svc, spec.Strict); len(errs) > 0 {
		t.Fatalf("Check: %v", errs)
	}
	emu, err := New(svc)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return emu
}

func TestHierarchyDependencyViolation(t *testing.T) {
	emu := newHierarchyEmulator(t)
	vpcID := invoke(t, emu, "CreateVpc", cloudapi.Params{"cidrBlock": cloudapi.Str("10.0.0.0/16")}).Get("vpcId").AsString()
	subnetID := invoke(t, emu, "CreateSubnet", cloudapi.Params{
		"vpcId":     cloudapi.Str(vpcID),
		"cidrBlock": cloudapi.Str("10.0.1.0/24"),
	}).Get("subnetId").AsString()

	// The framework's hierarchy check: DeleteVpc with a live Subnet
	// must fail with DependencyViolation — exactly the Moto bug the
	// paper calls out (§2).
	ae := invokeErr(t, emu, "DeleteVpc", cloudapi.Params{"self": cloudapi.Str(vpcID)})
	if ae.Code != "DependencyViolation" {
		t.Errorf("code = %q, want DependencyViolation", ae.Code)
	}

	invoke(t, emu, "DeleteSubnet", cloudapi.Params{"self": cloudapi.Str(subnetID)})
	invoke(t, emu, "DeleteVpc", cloudapi.Params{"self": cloudapi.Str(vpcID)})
	if emu.World().CountLive("Vpc") != 0 {
		t.Error("vpc still live")
	}
}

func TestSubnetRangeCheckAgainstParentField(t *testing.T) {
	emu := newHierarchyEmulator(t)
	vpcID := invoke(t, emu, "CreateVpc", cloudapi.Params{"cidrBlock": cloudapi.Str("10.0.0.0/16")}).Get("vpcId").AsString()
	ae := invokeErr(t, emu, "CreateSubnet", cloudapi.Params{
		"vpcId":     cloudapi.Str(vpcID),
		"cidrBlock": cloudapi.Str("192.168.0.0/24"),
	})
	if ae.Code != "InvalidSubnet.Range" {
		t.Errorf("code = %q", ae.Code)
	}
	if emu.World().CountLive("Subnet") != 0 {
		t.Error("failed subnet create leaked")
	}
}

func TestServiceLevelDescribe(t *testing.T) {
	emu := newHierarchyEmulator(t)
	invoke(t, emu, "CreateVpc", cloudapi.Params{"cidrBlock": cloudapi.Str("10.0.0.0/16")})
	invoke(t, emu, "CreateVpc", cloudapi.Params{"cidrBlock": cloudapi.Str("10.1.0.0/16")})
	res := invoke(t, emu, "DescribeVpcs", nil)
	list := res.Get("vpcIds").AsList()
	if len(list) != 2 {
		t.Fatalf("DescribeVpcs returned %d vpcs", len(list))
	}
	// Creation order must be stable.
	if list[0].AsRef().ID > list[1].AsRef().ID {
		t.Errorf("listing not in creation order: %v", list)
	}
}

func TestDescribeCannotMutate(t *testing.T) {
	src := `
service bad {
  sm A {
    states { n: int }
    transition Mk() create { write(n, 0) }
    transition Peek(self: ref(A)) describe { write(n, 1) }
  }
}
`
	svc, err := spec.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	emu, err := New(svc)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	id := invoke(t, emu, "Mk", nil).Get("id")
	_ = id
	insts := emu.World().Instances("A")
	if len(insts) != 1 {
		t.Fatal("no instance")
	}
	_, err = emu.Invoke(cloudapi.Request{Action: "Peek", Params: cloudapi.Params{"self": cloudapi.Str(insts[0].Ref.ID)}})
	if err == nil {
		t.Fatal("describe-with-write executed without error")
	}
	if _, isAPI := cloudapi.AsAPIError(err); isAPI {
		t.Fatalf("describe-with-write surfaced as API error %v; want framework error", err)
	}
	if got := insts[0].attrOrNil("n"); got.AsInt() != 0 {
		t.Errorf("describe mutated state: n = %v", got)
	}
}

func TestOptionalParamsAndDefaults(t *testing.T) {
	src := `
service s {
  sm A {
    states { tenancy: str, n: int }
    transition Mk(opt tenancy: str = "default", opt n: int) create {
      write(tenancy, tenancy)
      if (!isnil(n)) { write(n, n) }
      return(aId, id(self))
    }
  }
}
`
	src = strings.Replace(src, "tenancy: str, n: int", "tenancy: str\n n: int", 1)
	svc, err := spec.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	emu, err := New(svc)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	id := invoke(t, emu, "Mk", nil).Get("aId").AsString()
	inst, _ := emu.World().Lookup("A", id)
	if got := inst.attrOrNil("tenancy").AsString(); got != "default" {
		t.Errorf("tenancy = %q, want default via default value", got)
	}
	if !inst.attrOrNil("n").IsNil() {
		t.Errorf("n = %v, want nil (optional, no default)", inst.attrOrNil("n"))
	}
}

func TestForeachAndBuiltins(t *testing.T) {
	src := `
service s {
  sm Box {
    states { total: int }
    transition MkBox() create {
      write(total, 0)
      return(boxId, id(self))
    }
    transition Sum(self: ref(Box), xs: list(int)) modify {
      foreach x in xs {
        write(total, read(total) + x)
      }
    }
  }
}
`
	svc, err := spec.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	emu, err := New(svc)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	id := invoke(t, emu, "MkBox", nil).Get("boxId").AsString()
	invoke(t, emu, "Sum", cloudapi.Params{
		"self": cloudapi.Str(id),
		"xs":   cloudapi.List(cloudapi.Int(1), cloudapi.Int(2), cloudapi.Int(3)),
	})
	inst, _ := emu.World().Lookup("Box", id)
	if got := inst.attrOrNil("total").AsInt(); got != 6 {
		t.Errorf("total = %d, want 6", got)
	}
}

// TestReadOnlyActions: ReadOnly is true exactly for public describe
// transitions, and running one leaves the exported world untouched —
// the property the durable journal relies on to not record describes.
func TestReadOnlyActions(t *testing.T) {
	emu := newHierarchyEmulator(t)
	for action, want := range map[string]bool{
		"DescribeVpcs": true,
		"CreateVpc":    false,
		"DeleteVpc":    false,
		"CreateSubnet": false,
		"NoSuchAction": false,
	} {
		if got := emu.ReadOnly(action); got != want {
			t.Errorf("ReadOnly(%s) = %v, want %v", action, got, want)
		}
	}
	if _, err := emu.Invoke(cloudapi.Request{Action: "CreateVpc", Params: cloudapi.Params{"cidrBlock": cloudapi.Str("10.0.0.0/16")}}); err != nil {
		t.Fatal(err)
	}
	before := emu.ExportState()
	for _, req := range []cloudapi.Request{
		{Action: "DescribeVpcs"},
		{Action: "DescribeVpcs", Params: cloudapi.Params{"bogus": cloudapi.Str("x")}}, // fails binding
	} {
		emu.Invoke(req)
	}
	if after := emu.ExportState(); !cloudapitest.DeepEqual(before, after) {
		t.Errorf("describes changed the exported world:\nbefore %+v\nafter  %+v", before, after)
	}
}
