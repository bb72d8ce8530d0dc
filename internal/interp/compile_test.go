package interp

import (
	"fmt"
	"strings"
	"testing"

	"lce/internal/cloudapi"
	"lce/internal/cloudapi/cloudapitest"
	"lce/internal/spec"
)

// engine is what the differential helpers need from either side: the
// backend surface plus the world for snapshot comparison.
type engine interface {
	cloudapi.Backend
	World() *World
}

// diffPair builds the reference walker and the production emulator
// from the same source, each over its own parsed spec so the two
// engines share nothing but the text.
func diffPair(t *testing.T, src string) (*walker, *Emulator) {
	t.Helper()
	parse := func() *spec.Service {
		svc, err := spec.Parse(src)
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		return svc
	}
	walk, err := newWalker(parse())
	if err != nil {
		t.Fatalf("newWalker: %v", err)
	}
	comp, err := New(parse())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return walk, comp
}

// invokeBoth drives one request through both engines and requires
// identical outcomes: DeepEqual results, identical error strings,
// matching API-error-ness, and identical world snapshots afterwards.
func invokeBoth(t *testing.T, walk, comp engine, action string, params cloudapi.Params) (cloudapi.Result, error) {
	t.Helper()
	req := cloudapi.Request{Action: action, Params: params}
	wres, werr := walk.Invoke(req)
	cres, cerr := comp.Invoke(req)
	if (werr == nil) != (cerr == nil) {
		t.Fatalf("%s: walker err=%v, compiled err=%v", action, werr, cerr)
	}
	if werr != nil {
		if werr.Error() != cerr.Error() {
			t.Fatalf("%s: error text diverged:\n  walker:   %v\n  compiled: %v", action, werr, cerr)
		}
		_, wapi := cloudapi.AsAPIError(werr)
		_, capi := cloudapi.AsAPIError(cerr)
		if wapi != capi {
			t.Fatalf("%s: API-error-ness diverged: walker=%v compiled=%v", action, wapi, capi)
		}
	}
	if !cloudapitest.DeepEqual(wres, cres) {
		t.Fatalf("%s: results diverged:\n  walker:   %v\n  compiled: %v", action, wres, cres)
	}
	if ws, cs := walk.World().Snapshot(), comp.World().Snapshot(); !cloudapitest.DeepEqual(ws, cs) {
		t.Fatalf("%s: world snapshots diverged:\n  walker:   %v\n  compiled: %v", action, ws, cs)
	}
	return wres, werr
}

// TestInterpDifferentialToy runs the §3 worked example through both
// engines step for step, covering the success path and every error
// class the toy spec can produce.
func TestInterpDifferentialToy(t *testing.T) {
	walk, comp := diffPair(t, spec.ToySource)
	steps := []struct {
		action string
		params cloudapi.Params
	}{
		{"CreatePublicIp", cloudapi.Params{"region": cloudapi.Str("us-east")}},
		{"CreatePublicIp", cloudapi.Params{"region": cloudapi.Str("eu-central")}}, // assert fails
		{"CreateNic", cloudapi.Params{"zone": cloudapi.Str("us-east")}},
		{"CreateNic", cloudapi.Params{"zone": cloudapi.Str("us-west")}},
		{"AssociateNic", cloudapi.Params{"self": cloudapi.Str("eipalloc-00000001"), "nicRef": cloudapi.Str("eni-00000002")}}, // zone mismatch
		{"AssociateNic", cloudapi.Params{"self": cloudapi.Str("eipalloc-00000001"), "nicRef": cloudapi.Str("eni-00000001")}},
		{"DestroyPublicIp", cloudapi.Params{"self": cloudapi.Str("eipalloc-00000001")}}, // InUse
		{"FrobnicateIp", nil},   // unknown action
		{"CreatePublicIp", nil}, // missing parameter
		{"CreatePublicIp", cloudapi.Params{"region": cloudapi.Str("us-east"), "bogus": cloudapi.Str("x")}},                                       // unknown parameter
		{"AssociateNic", cloudapi.Params{"self": cloudapi.Str("eipalloc-00000001"), "nicRef": cloudapi.Str("eni-deadbeef")}},                     // ref not found
		{"AssociateNic", cloudapi.Params{"self": cloudapi.Str("eipalloc-00000001"), "nicRef": cloudapi.RefVal("PublicIp", "eipalloc-00000001")}}, // wrong ref type
		{"DestroyPublicIp", cloudapi.Params{"self": cloudapi.Str("eipalloc-99999999")}},                                                          // receiver not found
	}
	for _, s := range steps {
		invokeBoth(t, walk, comp, s.action, s.params)
	}
}

// TestInterpDifferentialHierarchy covers the containment hierarchy:
// parent linking, dependency violations, service-level describes.
func TestInterpDifferentialHierarchy(t *testing.T) {
	walk, comp := diffPair(t, hierarchySpec)
	steps := []struct {
		action string
		params cloudapi.Params
	}{
		{"CreateVpc", cloudapi.Params{"cidrBlock": cloudapi.Str("10.0.0.0/16")}},
		{"CreateVpc", cloudapi.Params{"cidrBlock": cloudapi.Str("not-a-cidr")}}, // assert fails
		{"CreateSubnet", cloudapi.Params{"vpcId": cloudapi.Str("vpc-00000001"), "cidrBlock": cloudapi.Str("10.0.1.0/24")}},
		{"CreateSubnet", cloudapi.Params{"vpcId": cloudapi.Str("vpc-00000001"), "cidrBlock": cloudapi.Str("192.168.0.0/24")}}, // range check fails
		{"DeleteVpc", cloudapi.Params{"self": cloudapi.Str("vpc-00000001")}},                                                  // dependency violation
		{"DescribeVpcs", nil},
		{"DeleteSubnet", cloudapi.Params{"self": cloudapi.Str("subnet-00000001")}},
		{"DeleteVpc", cloudapi.Params{"self": cloudapi.Str("vpc-00000001")}},
		{"DescribeVpcs", nil},
	}
	for _, s := range steps {
		invokeBoth(t, walk, comp, s.action, s.params)
	}
}

// describeRefsSpec describes instances whose attributes hold refs at
// every depth: a ref, a list of refs and strings, and a map with a ref
// value. The compiled engine builds returned describe payloads already
// normalized; the walker normalizes once at the end of Invoke.
const describeRefsSpec = `
service d {
  sm Vpc {
    idprefix "vpc"
    states { cidrBlock: str }
    transition CreateVpc(cidrBlock: str) create {
      write(cidrBlock, cidrBlock)
      return(vpcId, id(self))
    }
  }
  sm Subnet {
    idprefix "subnet"
    parent Vpc
    states {
      vpc: ref(Vpc)
      peers: list(ref(Vpc))
      tags: list(str)
      meta: map
      note: str
    }
    transition CreateSubnet(parent vpcId: ref(Vpc)) create {
      write(vpc, vpcId)
      write(peers, append(append(emptyList(), vpcId), vpcId))
      write(tags, append(emptyList(), "web"))
      write(meta, mapSet(emptyMap(), "owner", vpcId))
      return(subnetId, id(self))
    }
    transition DescribeSubnet(self: ref(Subnet)) describe {
      return(subnet, describe(self))
    }
    transition DescribeSubnets() describe {
      return(subnets, describeAll("Subnet"))
    }
    transition DescribeEach() describe {
      return(subnets, describeEach(instances("Subnet")))
    }
    transition DescribeNested() describe {
      return(wrapped, append(emptyList(), describeAll("Subnet")))
      return(raw, instances("Subnet"))
    }
  }
}
`

// TestInterpDifferentialDescribeRefs: returned describe payloads whose
// attributes hold refs and lists match the walker's normalized result,
// through each describe builtin and through a return that wraps one.
func TestInterpDifferentialDescribeRefs(t *testing.T) {
	walk, comp := diffPair(t, describeRefsSpec)
	steps := []struct {
		action string
		params cloudapi.Params
	}{
		{"DescribeSubnets", nil},
		{"DescribeEach", nil},
		{"CreateVpc", cloudapi.Params{"cidrBlock": cloudapi.Str("10.0.0.0/16")}},
		{"CreateSubnet", cloudapi.Params{"vpcId": cloudapi.Str("vpc-00000001")}},
		{"CreateSubnet", cloudapi.Params{"vpcId": cloudapi.Str("vpc-00000001")}},
		{"DescribeSubnet", cloudapi.Params{"self": cloudapi.Str("subnet-00000002")}},
		{"DescribeSubnets", nil},
		{"DescribeEach", nil},
		{"DescribeNested", nil},
	}
	for _, s := range steps {
		invokeBoth(t, walk, comp, s.action, s.params)
	}
	res := invoke(t, comp, "DescribeSubnet", cloudapi.Params{"self": cloudapi.Str("subnet-00000001")})
	want := cloudapi.Map(map[string]cloudapi.Value{
		"id":    cloudapi.Str("subnet-00000001"),
		"vpc":   cloudapi.Str("vpc-00000001"),
		"peers": cloudapi.List(cloudapi.Str("vpc-00000001"), cloudapi.Str("vpc-00000001")),
		"tags":  cloudapi.List(cloudapi.Str("web")),
		"meta":  cloudapi.Map(map[string]cloudapi.Value{"owner": cloudapi.Str("vpc-00000001")}),
	})
	if got := res.Get("subnet"); !cloudapi.Identical(got, want) {
		t.Errorf("DescribeSubnet = %v, want %v", got, want)
	}
}

// TestInterpCompiledNoReturnResult pins the response-shape contract
// for transitions that return nothing: both engines yield a non-nil
// empty result that normalizes identically on the wire.
func TestInterpCompiledNoReturnResult(t *testing.T) {
	const src = `
service s {
  sm A {
    states { n: int }
    transition Mk() create { write(n, 0) }
  }
}
`
	walk, comp := diffPair(t, src)
	res, err := invokeBoth(t, walk, comp, "Mk", nil)
	if err != nil {
		t.Fatalf("Mk: %v", err)
	}
	if res == nil {
		t.Fatal("no-return transition produced a nil result; want non-nil empty")
	}
	if len(res) != 0 {
		t.Fatalf("no-return transition produced %v", res)
	}
}

// TestInterpEdgeCases exercises the compile-time edge cases through
// both engines: call-depth overflow on cyclic specs, the readonly
// describe-mutation defense, and the DefaultAssertCode fallback for
// assertions that carry no explicit error code.
func TestInterpEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		setup  []cloudapi.Request // steps run on both engines first
		action string
		params cloudapi.Params
		// wantAPI: the final step must fail with this API error code.
		// wantFrameworkErr: the final step must fail with a non-API
		// framework error containing this substring.
		wantAPI          string
		wantFrameworkErr string
	}{
		{
			name: "max call depth overflow in cyclic call chain",
			src: `
service s {
  sm A {
    states { n: int }
    transition Mk() create { write(n, 0) }
    transition Spin(self: ref(A)) modify { call(self.Spin()) }
  }
}
`,
			setup:            []cloudapi.Request{{Action: "Mk"}},
			action:           "Spin",
			params:           cloudapi.Params{"self": cloudapi.Str("a-00000001")},
			wantFrameworkErr: "call depth limit exceeded in transition Spin (cyclic spec?)",
		},
		{
			name: "cross-SM cyclic call chain",
			src: `
service s {
  sm A {
    states { n: int }
    transition MkA() create { write(n, 0) }
    transition PingA(self: ref(A), other: ref(B)) modify { call(other.PingB(self)) }
  }
  sm B {
    states { n: int }
    transition MkB() create { write(n, 0) }
    transition PingB(self: ref(B), other: ref(A)) modify { call(other.PingA(self)) }
  }
}
`,
			setup:            []cloudapi.Request{{Action: "MkA"}, {Action: "MkB"}},
			action:           "PingA",
			params:           cloudapi.Params{"self": cloudapi.Str("a-00000001"), "other": cloudapi.Str("b-00000001")},
			wantFrameworkErr: "call depth limit exceeded",
		},
		{
			name: "readonly defense: describe attempting write",
			src: `
service s {
  sm A {
    states { n: int }
    transition Mk() create { write(n, 0) }
    transition Peek(self: ref(A)) describe { write(n, 1) }
  }
}
`,
			setup:            []cloudapi.Request{{Action: "Mk"}},
			action:           "Peek",
			params:           cloudapi.Params{"self": cloudapi.Str("a-00000001")},
			wantFrameworkErr: "describe transition Peek attempted write(n, …)",
		},
		{
			name: "readonly defense: describe attempting call",
			src: `
service s {
  sm A {
    states { n: int }
    transition Mk() create { write(n, 0) }
    transition Bump(self: ref(A)) modify { write(n, read(n) + 1) }
    transition Peek(self: ref(A)) describe { call(self.Bump()) }
  }
}
`,
			setup:            []cloudapi.Request{{Action: "Mk"}},
			action:           "Peek",
			params:           cloudapi.Params{"self": cloudapi.Str("a-00000001")},
			wantFrameworkErr: "describe transition Peek attempted call(…)",
		},
		{
			name: "unlinked assert falls back to DefaultAssertCode",
			src: `
service s {
  sm A {
    states { n: int }
    transition Mk(n: int) create {
      assert(n > 0)
      write(n, n)
    }
  }
}
`,
			action:  "Mk",
			params:  cloudapi.Params{"n": cloudapi.Int(-1)},
			wantAPI: DefaultAssertCode,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			walk, comp := diffPair(t, tc.src)
			for _, r := range tc.setup {
				if _, err := invokeBoth(t, walk, comp, r.Action, r.Params); err != nil {
					t.Fatalf("setup %s: %v", r.Action, err)
				}
			}
			_, err := invokeBoth(t, walk, comp, tc.action, tc.params)
			if err == nil {
				t.Fatalf("%s: want error, got success", tc.action)
			}
			ae, isAPI := cloudapi.AsAPIError(err)
			if tc.wantAPI != "" {
				if !isAPI {
					t.Fatalf("%s: want API error %q, got framework error %v", tc.action, tc.wantAPI, err)
				}
				if ae.Code != tc.wantAPI {
					t.Errorf("%s: code = %q, want %q", tc.action, ae.Code, tc.wantAPI)
				}
				if !strings.Contains(ae.Message, "constraint not satisfied: ") {
					t.Errorf("%s: default assert message = %q", tc.action, ae.Message)
				}
			} else {
				if isAPI {
					t.Fatalf("%s: want framework error, got API error %v", tc.action, ae)
				}
				if !strings.Contains(err.Error(), tc.wantFrameworkErr) {
					t.Errorf("%s: error = %q, want substring %q", tc.action, err, tc.wantFrameworkErr)
				}
			}
		})
	}
}

// TestInterpForkSharesProgram proves Fork inherits the compiled
// program (no re-compilation per session) while keeping world state
// fully independent.
func TestInterpForkSharesProgram(t *testing.T) {
	svc, err := spec.Parse(spec.ToySource)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	emu, err := New(svc)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	fork := emu.Fork().(*Emulator)
	if fork.prog != emu.prog {
		t.Fatal("fork re-compiled instead of sharing the program")
	}
	invoke(t, emu, "CreatePublicIp", cloudapi.Params{"region": cloudapi.Str("us-east")})
	if fork.World().CountLive("PublicIp") != 0 {
		t.Fatal("fork shares world state with its parent")
	}
	id := invoke(t, fork, "CreatePublicIp", cloudapi.Params{"region": cloudapi.Str("us-east")}).Get("allocationId").AsString()
	if id != "eipalloc-00000001" {
		t.Fatalf("fork ID allocation = %q, want fresh sequence", id)
	}
}

// TestInterpDifferentialRandomized fuzzes both engines with the same
// deterministic pseudo-random request stream over the toy service.
func TestInterpDifferentialRandomized(t *testing.T) {
	walk, comp := diffPair(t, spec.ToySource)
	actions := []string{"CreatePublicIp", "CreateNic", "AssociateNic", "DestroyPublicIp"}
	regions := []string{"us-east", "us-west", "eu-central"}
	rng := uint64(0x9E3779B97F4A7C15)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	for i := 0; i < 400; i++ {
		action := actions[next(len(actions))]
		params := cloudapi.Params{}
		switch action {
		case "CreatePublicIp":
			params["region"] = cloudapi.Str(regions[next(len(regions))])
		case "CreateNic":
			params["zone"] = cloudapi.Str(regions[next(len(regions))])
		case "AssociateNic":
			params["self"] = cloudapi.Str(fmt.Sprintf("eipalloc-%08x", next(6)+1))
			params["nicRef"] = cloudapi.Str(fmt.Sprintf("eni-%08x", next(6)+1))
		case "DestroyPublicIp":
			params["self"] = cloudapi.Str(fmt.Sprintf("eipalloc-%08x", next(6)+1))
		}
		invokeBoth(t, walk, comp, action, params)
	}
}

// TestRebuildReusesSMsWithoutStaleNeighbours: after B is replaced by an
// SM with another not-found code and only B is rebuilt, A's compiled
// form is reused, yet its ref(B) parameter and its call on a nil
// target answer the new B's code, as a fresh build does.
func TestRebuildReusesSMsWithoutStaleNeighbours(t *testing.T) {
	const a = `sm A {
    transition MkA(b: ref(B)) create { }
    transition Poke() create { call(first(emptyList())._Touch()) }
  }`
	b := func(code string) string {
		return `sm B { notfound "` + code + `" transition _Touch(self: ref(B)) modify internal { } }`
	}
	svc, err := spec.Parse("service s {\n" + a + "\n" + b("OldB") + "\n}")
	if err != nil {
		t.Fatal(err)
	}
	emu, err := New(svc)
	if err != nil {
		t.Fatal(err)
	}
	if emu.SMsCompiled() != 2 {
		t.Fatalf("New compiled %d SMs, want 2", emu.SMsCompiled())
	}
	if svc.SMs[1], err = spec.ParseSM(b("NewB")); err != nil {
		t.Fatal(err)
	}
	re, err := emu.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if re.SMsCompiled() != 1 || re.prog.sms["A"] != emu.prog.sms["A"] {
		t.Fatalf("Rebuild compiled %d SMs and reused A: %v; want 1 and A reused", re.SMsCompiled(), re.prog.sms["A"] == emu.prog.sms["A"])
	}
	for _, req := range []cloudapi.Request{
		{Action: "MkA", Params: cloudapi.Params{"b": cloudapi.Str("b-missing")}},
		{Action: "Poke"},
	} {
		_, err := re.Invoke(req)
		if ae, ok := cloudapi.AsAPIError(err); !ok || ae.Code != "NewB" {
			t.Errorf("%s: err %v, want the new B's NewB", req.Action, err)
		}
	}
}
