package interp

import (
	"testing"

	"lce/internal/cloudapi"
	"lce/internal/spec"
)

// errSM is one hand-written SM whose transitions each reach one of the
// compiler's rare-path errors: binding failures, mutation in a
// describe, the call-depth limit, and names with nothing bound to them.
const errSM = `
sm A {
  states { n: int  cidr: str }
  transition Mk() create { write(n, 0) }
  transition Kinds(self: ref(A), s: str, i: int, b: bool, l: list(str), m: map) modify { write(n, 1) }
  transition PeekWrite(self: ref(A)) describe { write(n, 1) }
  transition PeekCall(self: ref(A)) describe { call(self.Bump()) }
  transition Bump(self: ref(A)) modify { write(n, read(n) + 1) }
  transition Spin(self: ref(A)) modify { call(self.Spin()) }
  transition Orphan(v: int) modify { write(n, v) }
  transition OrphanRef() modify { return(Out, n) }
  transition OrphanRead() modify { return(Out, read(n)) }
  transition OrphanReadExpr() modify { return(Out, prefixLen(read(cidr))) }
  transition OrphanIdentExpr() modify { return(Out, prefixLen(cidr)) }
  transition OrphanSelf() modify { return(Out, self) }
  transition Unknown(self: ref(A)) modify { return(Out, nowhere) }
  transition UnknownExpr(self: ref(A)) modify { return(Out, prefixLen(nowhere)) }
}
`

// TestCompiledErrorText pins the exact code and message of every error
// the compiler formats only when it fires. Framework errors (no API
// code) are pinned by their Error() text.
func TestCompiledErrorText(t *testing.T) {
	sm, err := spec.ParseSM(errSM)
	if err != nil {
		t.Fatalf("ParseSM: %v", err)
	}
	emu, err := New(&spec.Service{Name: "s", SMs: []*spec.SM{sm}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := emu.Invoke(cloudapi.Request{Action: "Mk"}); err != nil {
		t.Fatalf("Mk: %v", err)
	}
	self := cloudapi.Str("a-00000001")
	kinds := func(over string, v cloudapi.Value) cloudapi.Params {
		p := cloudapi.Params{
			"self": self,
			"s":    cloudapi.Str("x"),
			"i":    cloudapi.Int(1),
			"b":    cloudapi.Bool(true),
			"l":    cloudapi.List(),
			"m":    cloudapi.Map(nil),
		}
		p[over] = v
		return p
	}
	cases := []struct {
		name, action string
		params       cloudapi.Params
		code, msg    string
	}{
		{"missing parameter", "Kinds", cloudapi.Params{"self": self},
			cloudapi.CodeMissingParameter, "the request must contain the parameter s"},
		{"ref kind", "Kinds", kinds("self", cloudapi.Int(3)),
			cloudapi.CodeInvalidParameter, "parameter self expects a resource reference"},
		{"string kind", "Kinds", kinds("s", cloudapi.Int(3)),
			cloudapi.CodeInvalidParameter, "parameter s expects a string"},
		{"int kind", "Kinds", kinds("i", cloudapi.Str("3")),
			cloudapi.CodeInvalidParameter, "parameter i expects an integer"},
		{"bool kind", "Kinds", kinds("b", cloudapi.Str("true")),
			cloudapi.CodeInvalidParameter, "parameter b expects a boolean"},
		{"list kind", "Kinds", kinds("l", cloudapi.Str("[]")),
			cloudapi.CodeInvalidParameter, "parameter l expects a list"},
		{"map kind", "Kinds", kinds("m", cloudapi.Str("{}")),
			cloudapi.CodeInvalidParameter, "parameter m expects a map"},
		{"write in describe", "PeekWrite", cloudapi.Params{"self": self},
			"", "interp: describe transition PeekWrite attempted write(n, …); the framework forbids mutation in describes"},
		{"call in describe", "PeekCall", cloudapi.Params{"self": self},
			"", "interp: describe transition PeekCall attempted call(…); the framework forbids mutation in describes"},
		{"call depth limit", "Spin", cloudapi.Params{"self": self},
			"", "interp: call depth limit exceeded in transition Spin (cyclic spec?)"},
		{"write with no receiver", "Orphan", cloudapi.Params{"v": cloudapi.Int(1)},
			"", "interp: transition Orphan: write(n, …) with no receiver"},
		{"state identifier with no receiver", "OrphanRef", nil,
			"", `interp: transition OrphanRef: unbound identifier "n"`},
		{"read with no receiver", "OrphanRead", nil,
			"", "interp: transition OrphanRead: read(n) with no receiver"},
		{"read with no receiver, computed", "OrphanReadExpr", nil,
			"", "interp: transition OrphanReadExpr: read(cidr) with no receiver"},
		{"state identifier with no receiver, computed", "OrphanIdentExpr", nil,
			"", `interp: transition OrphanIdentExpr: unbound identifier "cidr"`},
		{"self with no receiver", "OrphanSelf", nil,
			"", "interp: transition OrphanSelf: self with no receiver"},
		{"unbound identifier", "Unknown", cloudapi.Params{"self": self},
			"", `interp: transition Unknown: unbound identifier "nowhere"`},
		{"unbound identifier, computed", "UnknownExpr", cloudapi.Params{"self": self},
			"", `interp: transition UnknownExpr: unbound identifier "nowhere"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := emu.Invoke(cloudapi.Request{Action: tc.action, Params: tc.params})
			if err == nil {
				t.Fatalf("%s: want an error, got success", tc.action)
			}
			code, msg := "", err.Error()
			if ae, ok := cloudapi.AsAPIError(err); ok {
				code, msg = ae.Code, ae.Message
			}
			if code != tc.code || msg != tc.msg {
				t.Errorf("%s: got code %q message %q\nwant code %q message %q", tc.action, code, msg, tc.code, tc.msg)
			}
		})
	}
}
