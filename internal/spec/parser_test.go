package spec

import (
	"strings"
	"testing"
)

// publicIPSpec is the paper's §3 worked example (see ToySource).
const publicIPSpec = ToySource

func mustParse(t *testing.T, src string) *Service {
	t.Helper()
	svc, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return svc
}

func TestParsePublicIPExample(t *testing.T) {
	svc := mustParse(t, publicIPSpec)
	if svc.Name != "toy" {
		t.Errorf("service name = %q", svc.Name)
	}
	if len(svc.SMs) != 2 {
		t.Fatalf("SM count = %d, want 2", len(svc.SMs))
	}
	ip := svc.SM("PublicIp")
	if ip == nil {
		t.Fatal("PublicIp SM not found")
	}
	if got := len(ip.States); got != 3 {
		t.Errorf("PublicIp state count = %d, want 3", got)
	}
	if got := len(ip.Transitions); got != 3 {
		t.Errorf("PublicIp transition count = %d, want 3", got)
	}
	if ip.Complexity() != 6 {
		t.Errorf("Complexity = %d, want 6", ip.Complexity())
	}
	assoc := ip.Transition("AssociateNic")
	if assoc == nil {
		t.Fatal("AssociateNic not found")
	}
	if assoc.Kind != KModify {
		t.Errorf("AssociateNic kind = %v", assoc.Kind)
	}
	if assoc.SelfParam() == nil {
		t.Error("AssociateNic has no self param")
	}
	if got := len(assoc.Body); got != 3 {
		t.Fatalf("AssociateNic body length = %d, want 3", got)
	}
	if _, ok := assoc.Body[0].(*AssertStmt); !ok {
		t.Errorf("stmt 0 is %T, want *AssertStmt", assoc.Body[0])
	}
	call, ok := assoc.Body[1].(*CallStmt)
	if !ok {
		t.Fatalf("stmt 1 is %T, want *CallStmt", assoc.Body[1])
	}
	if call.Trans != "AttachPublicIp" {
		t.Errorf("call transition = %q", call.Trans)
	}
	if len(call.Args) != 1 {
		t.Errorf("call args = %d, want 1", len(call.Args))
	}
}

func TestParseActionLookup(t *testing.T) {
	svc := mustParse(t, publicIPSpec)
	sm, tr, ok := svc.Action("AssociateNic")
	if !ok {
		t.Fatal("AssociateNic not indexed")
	}
	if sm.Name != "PublicIp" || tr.Name != "AssociateNic" {
		t.Errorf("lookup = %s.%s", sm.Name, tr.Name)
	}
	if _, _, ok := svc.Action("NoSuchAction"); ok {
		t.Error("lookup of unknown action succeeded")
	}
	actions := svc.Actions()
	if len(actions) != 5 {
		t.Errorf("action count = %d, want 5: %v", len(actions), actions)
	}
}

func TestParsePrintRoundTrip(t *testing.T) {
	svc := mustParse(t, publicIPSpec)
	text1 := Print(svc)
	svc2, err := Parse(text1)
	if err != nil {
		t.Fatalf("reparse of printed spec failed: %v\n%s", err, text1)
	}
	text2 := Print(svc2)
	if text1 != text2 {
		t.Errorf("printer is not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", text1, text2)
	}
}

func TestParseParamModifiers(t *testing.T) {
	src := `
service s {
  sm Vpc {
    idprefix "vpc"
    states { cidr: str }
    transition CreateVpc(cidr: str) create { write(cidr, cidr) }
  }
  sm Subnet {
    idprefix "subnet"
    parent Vpc
    states { cidr: str, sz: int }
    transition CreateSubnet(parent vpc: ref(Vpc), cidr: str, opt sz: int = 4) create {
      write(cidr, cidr)
      write(sz, sz)
    }
  }
}
`
	// Our states block is newline-separated, not comma-separated.
	src = strings.Replace(src, "cidr: str, sz: int", "cidr: str\n sz: int", 1)
	svc := mustParse(t, src)
	tr := svc.SM("Subnet").Transition("CreateSubnet")
	pp := tr.ParentParam()
	if pp == nil || pp.Name != "vpc" {
		t.Fatalf("parent param = %+v", pp)
	}
	opt := tr.Param("sz")
	if opt == nil || !opt.Optional {
		t.Fatalf("optional param = %+v", opt)
	}
	if opt.Default.AsInt() != 4 {
		t.Errorf("default = %v, want 4", opt.Default)
	}
}

func TestParseIfElseForeach(t *testing.T) {
	src := `
service s {
  sm A {
    states {
      n: int
      kids: list(ref(A))
    }
    transition T(self: ref(A), x: int) modify {
      if (x > 3) {
        write(n, x)
      } else {
        write(n, 0 - x)
      }
      foreach k in read(kids) {
        call(k.T(1))
      }
    }
    transition Mk() create { write(n, 0) }
  }
}
`
	svc := mustParse(t, src)
	tr := svc.SM("A").Transition("T")
	ifs, ok := tr.Body[0].(*IfStmt)
	if !ok {
		t.Fatalf("stmt 0 = %T", tr.Body[0])
	}
	if len(ifs.Then) != 1 || len(ifs.Else) != 1 {
		t.Errorf("if arms = %d/%d", len(ifs.Then), len(ifs.Else))
	}
	fe, ok := tr.Body[1].(*ForEachStmt)
	if !ok {
		t.Fatalf("stmt 1 = %T", tr.Body[1])
	}
	if fe.Var != "k" {
		t.Errorf("foreach var = %q", fe.Var)
	}
	if _, ok := fe.Body[0].(*CallStmt); !ok {
		t.Errorf("foreach body stmt = %T", fe.Body[0])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"missing service", `sm A {}`, `expected keyword "service"`},
		{"bad kind", `service s { sm A { transition T() frobnicate {} } }`, "expected transition kind"},
		{"unknown clause", `service s { sm A { bogus "x" } }`, "unknown sm clause"},
		{"unknown type", `service s { sm A { states { x: float } } }`, "unknown type"},
		{"unknown stmt", `service s { sm A { transition T() modify { frob(x) } } }`, "unknown statement"},
		{"trailing", `service s {} extra`, "trailing input"},
		{"dup sm", `service s { sm A { } sm A { } }`, "duplicate SM"},
		{"dup action", `service s { sm A { transition T() modify {} } sm B { transition T() modify {} } }`, `action "T" defined on both`},
		{"call shape", `service s { sm A { transition T() modify { call(foo) } } }`, "call target must be of the form"},
		{"spaced hyphen", `service network - firewall {}`, "expected '{'"},
		{"trailing hyphen", `service network- {}`, "expected '{'"},
		{"hyphen before digit", `service network-1 {}`, "expected '{'"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestParseHyphenatedServiceName: identifiers joined by '-' with
// nothing between them name one service, and print back unchanged.
func TestParseHyphenatedServiceName(t *testing.T) {
	for _, name := range []string{"network-firewall", "azure-network", "a-b-c"} {
		svc, err := Parse("service " + name + " {}")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if svc.Name != name {
			t.Errorf("parsed name %q, want %q", svc.Name, name)
		}
		if got, want := Print(svc), "service "+name+" {\n}\n"; got != want {
			t.Errorf("Print = %q, want %q", got, want)
		}
	}
}

func TestParseSMFragment(t *testing.T) {
	sm, err := ParseSM(`sm Stub { states { x: str } transition Touch(self: ref(Stub)) modify { write(x, "y") } }`)
	if err != nil {
		t.Fatalf("ParseSM: %v", err)
	}
	if sm.Name != "Stub" || len(sm.Transitions) != 1 {
		t.Errorf("sm = %+v", sm)
	}
}

func TestExprPrecedencePrinting(t *testing.T) {
	src := `service s { sm A { states { x: int } transition T(self: ref(A), a: int, b: int) modify {
	  assert((a + b) - 1 > 3 && (a == b || !(a < b))) error "E"
	} transition Mk() create {} } }`
	svc := mustParse(t, src)
	text := Print(svc)
	svc2, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if Print(svc2) != text {
		t.Errorf("precedence printing unstable:\n%s\nvs\n%s", text, Print(svc2))
	}
}
