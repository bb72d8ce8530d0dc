package interp_test

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"lce/internal/cloudapi"
	"lce/internal/docs/corpus"
	"lce/internal/fault"
	"lce/internal/h1"
	"lce/internal/httpapi"
	"lce/internal/interp"
	"lce/internal/obsv"
	"lce/internal/scenarios"
	"lce/internal/spec"
	"lce/internal/synth"
	"lce/internal/synth/d2c"
	"lce/internal/tenant"
)

// perfectEC2 synthesizes the faithful EC2 spec; every caller gets its
// own copy so the two sides of a comparison share no spec objects.
func perfectEC2(t *testing.T) *spec.Service {
	t.Helper()
	svc, _, err := synth.SynthesizeFromBrief(corpus.EC2(), synth.Options{Noise: synth.Perfect, Decoding: synth.Constrained})
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	return svc
}

// TestInterpDifferentialD2C replays the EC2 suite over the
// direct-to-code degradation of the spec (no parents, most assertions
// stripped): the shape `-backend d2c` serves, with the lifecycle and
// dependency paths the faithful spec never reaches.
func TestInterpDifferentialD2C(t *testing.T) {
	naive := func() *spec.Service {
		svc := perfectEC2(t)
		d2c.Naivify(svc)
		return svc
	}
	ref, err := interp.NewReference(naive())
	if err != nil {
		t.Fatalf("NewReference: %v", err)
	}
	emu, err := interp.New(naive())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	suite := append(scenarios.EC2Fig3(), scenarios.EC2Extended()...)
	interp.DiffSuite(t, ref, emu, suite, 0, 0)
}

// wireStack serves base the way lce.NewServer would: a tenant pool
// forking per-session backends from it, observability on, and
// optionally the same-seed chaos layer over base and forks alike. It
// listens through the HTTP/1.1 front lce-server runs, and returns the
// base URL and a stop function.
func wireStack(t *testing.T, base cloudapi.Backend, chaos bool) (string, func()) {
	t.Helper()
	factory := cloudapi.FactoryOf(base)
	if chaos {
		cfg := fault.Uniform(0.25, 11)
		base = fault.Wrap(base, cfg)
		factory = fault.Factory(factory, cfg)
	}
	ob := obsv.New(5, 0)
	pool, err := tenant.New(factory, tenant.Config{Shards: 2, Capacity: 8, IdleTTL: time.Hour, Registry: ob.Registry})
	if err != nil {
		t.Fatalf("tenant.New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	front := h1.New(httpapi.New(base, httpapi.WithPool(pool), httpapi.WithObs(ob)), time.Minute, time.Minute)
	go front.Serve(ln)
	return "http://" + ln.Addr().String(), func() { front.Close() }
}

// driveInterpScript runs one fixed request sequence against a server
// and returns every response as "status|body". The script covers the
// default session (success, API error, unknown action), per-session
// backends (which the pool stamps out by forking — for the engine that
// means sharing one compiled program), a mixed-outcome batch, and a
// session-scoped reset. Everything in the stack is
// deterministic per server instance (IDs, RequestId sequence, chaos
// stream), so two servers given this script must answer each step
// byte-identically.
func driveInterpScript(t *testing.T, baseURL string) []string {
	t.Helper()
	var out []string
	post := func(path, session, body string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, baseURL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if session != "" {
			req.Header.Set(httpapi.SessionHeader, session)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, resp.Status+"|"+string(b))
	}

	// Headerless calls on the default session, the action in the body.
	post("/v2/ec2", "", `{"action":"CreateVpc","params":{"cidrBlock":"10.0.0.0/16"}}`)
	post("/v2/ec2", "", `{"action":"DescribeVpcs","params":{}}`)
	post("/v2/ec2", "", `{"action":"CreateVpc","params":{"cidr":"oops"}}`)
	post("/v2/ec2", "", `{"action":"NoSuchAction","params":{}}`)

	// Tenant surface: alice gets her own forked backend; the vpcId her
	// server returned drives a dependent call (empty if chaos ate the
	// create — identically on both sides).
	post("/v2/ec2?Action=CreateVpc", "alice", `{"params":{"cidrBlock":"10.1.0.0/16"}}`)
	var last struct {
		Result map[string]any `json:"result"`
	}
	_ = json.Unmarshal([]byte(out[len(out)-1][strings.Index(out[len(out)-1], "|")+1:]), &last)
	vpcID, _ := last.Result["vpcId"].(string)
	post("/v2/ec2?Action=CreateSubnet", "alice", `{"params":{"vpcId":"`+vpcID+`","cidrBlock":"10.1.1.0/24"}}`)
	post("/v2/ec2?Action=DescribeVpcs", "alice", `{"params":{}}`)

	// Batch surface on a second tenant: success, API error, success.
	post("/v2/ec2/batch", "bob", `{"mode":"best-effort","requests":[`+
		`{"action":"CreateVpc","params":{"cidrBlock":"10.2.0.0/16"}},`+
		`{"action":"CreateVpc","params":{"cidrBlock":"10.0.0.0/8"}},`+
		`{"action":"DescribeVpcs","params":{}}]}`)

	// Session-scoped reset: alice empties, bob is untouched.
	post("/v2/ec2/reset", "alice", ``)
	post("/v2/ec2?Action=DescribeVpcs", "alice", `{"params":{}}`)
	post("/v2/ec2?Action=DescribeVpcs", "bob", `{"params":{}}`)
	return out
}

// TestInterpWireParity proves the engine is indistinguishable from
// the reference walker at the HTTP boundary: two server stacks —
// identical except for what interprets the spec — answer a scripted
// sequence across the default-session, tenant, batch and reset calls with
// byte-identical bodies, clean and under same-seed chaos.
func TestInterpWireParity(t *testing.T) {
	for _, chaos := range []bool{false, true} {
		name := "clean"
		if chaos {
			name = "chaos"
		}
		t.Run(name, func(t *testing.T) {
			ref, err := interp.NewReference(perfectEC2(t))
			if err != nil {
				t.Fatalf("NewReference: %v", err)
			}
			emu, err := interp.New(perfectEC2(t))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			var got [2][]string
			for i, base := range []cloudapi.Backend{ref, emu} {
				url, stop := wireStack(t, base, chaos)
				got[i] = driveInterpScript(t, url)
				stop()
			}
			if len(got[0]) != len(got[1]) {
				t.Fatalf("step counts differ: reference=%d engine=%d", len(got[0]), len(got[1]))
			}
			for i := range got[0] {
				if got[0][i] != got[1][i] {
					t.Errorf("step %d diverged at the wire:\n  reference: %s\n  engine:    %s", i, got[0][i], got[1][i])
				}
			}
		})
	}
}
