package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lce/internal/cloud/aws/ec2"
	"lce/internal/cloudapi"
	"lce/internal/docs"
	"lce/internal/docs/corpus"
	"lce/internal/docs/wrangle"
	"lce/internal/fault"
	"lce/internal/interp"
	"lce/internal/retry"
	"lce/internal/scenarios"
	"lce/internal/synth"
	"lce/internal/trace"
)

func newServer(t *testing.T) (*httptest.Server, *Client) {
	t.Helper()
	srv := httptest.NewServer(New(ec2.New()))
	t.Cleanup(srv.Close)
	return srv, NewClient(srv.URL + "/")
}

func TestInvokeOverHTTP(t *testing.T) {
	_, client := newServer(t)
	res, err := client.Invoke(cloudapi.Request{
		Action: "CreateVpc",
		Params: cloudapi.Params{"cidrBlock": cloudapi.Str("10.0.0.0/16")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Get("vpcId").AsString() == "" {
		t.Errorf("result = %v", res)
	}
}

func TestAPIErrorsCrossTheWire(t *testing.T) {
	_, client := newServer(t)
	_, err := client.Invoke(cloudapi.Request{
		Action: "CreateVpc",
		Params: cloudapi.Params{"cidrBlock": cloudapi.Str("10.0.0.0/8")},
	})
	ae, ok := cloudapi.AsAPIError(err)
	if !ok || ae.Code != "InvalidVpc.Range" {
		t.Fatalf("err = %v", err)
	}
	if ae.Message == "" {
		t.Error("message lost on the wire")
	}
}

func TestActionsAndService(t *testing.T) {
	_, client := newServer(t)
	if client.Service() != "ec2" {
		t.Errorf("service = %q", client.Service())
	}
	if len(client.Actions()) < 90 {
		t.Errorf("actions = %d", len(client.Actions()))
	}
}

func TestResetOverHTTP(t *testing.T) {
	_, client := newServer(t)
	_, err := client.Invoke(cloudapi.Request{Action: "CreateVpc", Params: cloudapi.Params{"cidrBlock": cloudapi.Str("10.0.0.0/16")}})
	if err != nil {
		t.Fatal(err)
	}
	client.Reset()
	res, err := client.Invoke(cloudapi.Request{Action: "DescribeVpcs"})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Get("vpcs").AsList()); n != 0 {
		t.Errorf("vpcs after reset = %d", n)
	}
}

// TestRemoteBackendIsTraceEquivalent runs the Fig. 3 workload through
// the HTTP client against an in-process oracle: the transport must be
// behaviourally invisible.
func TestRemoteBackendIsTraceEquivalent(t *testing.T) {
	_, client := newServer(t)
	local := ec2.New()
	for _, tr := range scenarios.EC2Fig3() {
		rep := trace.Compare(client, local, tr)
		if !rep.Aligned() {
			t.Errorf("transport changed behaviour:\n%s", trace.FormatReport(rep))
		}
	}
}

func TestMalformedRequests(t *testing.T) {
	srv, _ := newServer(t)
	resp, err := srv.Client().Post(srv.URL+"/v2/ec2", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("empty body status = %d", resp.StatusCode)
	}
}

// errBackend returns a scripted error from every Invoke: an APIError
// with the given code, or a plain (non-API) error when code is "".
type errBackend struct{ code string }

func (e errBackend) Service() string   { return "errsvc" }
func (e errBackend) Actions() []string { return []string{"Ping"} }
func (e errBackend) Reset()            {}
func (e errBackend) Invoke(req cloudapi.Request) (cloudapi.Result, error) {
	if e.code == "" {
		return nil, fmt.Errorf("disk on fire")
	}
	return nil, cloudapi.Errf(e.code, "scripted %s", e.code)
}

// TestErrorStatusMapping is the wire-format round-trip audit: for
// every framework and transient error code it pins (a) the
// statusFor HTTP mapping — throttling stays 400 with the service's
// throttling code as AWS query APIs do, availability faults are 503,
// internal faults 500, timeouts 408, semantic client errors 400, a
// non-API backend malfunction is a 500 carrying InternalFailure —
// (b) the unified {__error, Code, Message, RequestId} envelope on
// the raw wire, and (c) that Client decodes the envelope back into
// an API error with the same code, the same transient-vs-semantic
// classification, and the RequestId surfaced.
func TestErrorStatusMapping(t *testing.T) {
	cases := []struct {
		code       string // "" = non-API error
		wantStatus int
		wantCode   string
	}{
		{cloudapi.CodeThrottling, 400, "Throttling"},
		{cloudapi.CodeRequestLimitExceeded, 400, "RequestLimitExceeded"},
		{cloudapi.CodeThrottlingException, 400, "ThrottlingException"},
		{cloudapi.CodeThroughputExceeded, 400, "ProvisionedThroughputExceededException"},
		{cloudapi.CodeServiceUnavailable, 503, "ServiceUnavailable"},
		{cloudapi.CodeInternalError, 500, "InternalError"},
		{cloudapi.CodeInternalFailure, 500, "InternalFailure"},
		{cloudapi.CodeRequestTimeout, 408, "RequestTimeout"},
		{cloudapi.CodeInvalidParameter, 400, "InvalidParameterValue"},
		{cloudapi.CodeMissingParameter, 400, "MissingParameter"},
		{cloudapi.CodeUnknownAction, 400, "InvalidAction"},
		{cloudapi.CodeDependencyViolation, 400, "DependencyViolation"},
		{cloudapi.CodeInvalidSession, 400, "InvalidSession"},
		{"InvalidVpc.Range", 400, "InvalidVpc.Range"},
		{"", 500, "InternalFailure"}, // backend malfunction
	}
	for _, c := range cases {
		name := c.code
		if name == "" {
			name = "non-API error"
		}
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(New(errBackend{code: c.code}))
			defer srv.Close()

			// Raw wire: status and unified envelope.
			req, _ := http.NewRequest("POST", srv.URL+"/v2/errsvc?Action=Ping", nil)
			req.Header.Set(RequestIDHeader, "req-roundtrip-1")
			resp, err := srv.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.wantStatus {
				t.Errorf("status = %d, want %d", resp.StatusCode, c.wantStatus)
			}
			var wire wireError
			if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
				t.Fatal(err)
			}
			if !wire.IsError {
				t.Error("__error marker missing from error envelope")
			}
			if wire.Code != c.wantCode {
				t.Errorf("wire code = %q, want %q", wire.Code, c.wantCode)
			}
			if wire.Message == "" {
				t.Error("error message lost")
			}
			if wire.RequestID != "req-roundtrip-1" {
				t.Errorf("RequestId = %q, want echoed req-roundtrip-1", wire.RequestID)
			}
			if got := resp.Header.Get(RequestIDHeader); got != "req-roundtrip-1" {
				t.Errorf("response %s header = %q", RequestIDHeader, got)
			}

			// Client decode: same code, same classification, RequestId
			// surfaced.
			client := NewClient(srv.URL)
			_, cerr := client.Invoke(cloudapi.Request{Action: "Ping"})
			ae, ok := cloudapi.AsAPIError(cerr)
			if !ok || ae.Code != c.wantCode {
				t.Fatalf("client decoded %v, want APIError code %q", cerr, c.wantCode)
			}
			if c.code != "" && cloudapi.IsTransientCode(c.code) != cloudapi.IsTransientCode(ae.Code) {
				t.Errorf("transient classification changed across the wire for %q", c.code)
			}
			if got := RequestIDFrom(cerr); got == "" {
				t.Errorf("client error %v carries no RequestId", cerr)
			}
			if c.wantCode == cloudapi.CodeInternalFailure && !strings.Contains(cerr.Error(), "request-id") {
				t.Errorf("malfunction error %q does not surface the request id", cerr.Error())
			}
		})
	}
}

// TestResilientClientSurvivesChaosServer points the retrying client
// at a server fronted by the fault injector: every logical call must
// succeed even though a third of the wire calls are faulted.
func TestResilientClientSurvivesChaosServer(t *testing.T) {
	flaky := fault.Wrap(ec2.New(), fault.Uniform(0.3, 77))
	srv := httptest.NewServer(New(flaky))
	defer srv.Close()
	policy := retry.Policy{MaxAttempts: fault.DefaultMaxConsecutive + 2, Seed: 1}
	client := retry.Wrap(NewClient(srv.URL), policy, nil)
	for i := 0; i < 50; i++ {
		res, err := client.Invoke(cloudapi.Request{
			Action: "CreateVpc",
			Params: cloudapi.Params{"cidrBlock": cloudapi.Str("10.0.0.0/16")},
		})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if res.Get("vpcId").AsString() == "" {
			t.Fatalf("call %d: empty result %v", i, res)
		}
		client.Reset()
	}
	// The plain client against the same server does observe faults —
	// the resilience lives in the wrapper, not in luck.
	plain := NewClient(srv.URL)
	faulted := false
	for i := 0; i < 100 && !faulted; i++ {
		_, err := plain.Invoke(cloudapi.Request{Action: "DescribeVpcs"})
		if ae, ok := cloudapi.AsAPIError(err); ok && cloudapi.IsTransientCode(ae.Code) {
			faulted = true
		}
	}
	if !faulted {
		t.Error("chaos server never faulted the plain client — the test is vacuous")
	}
}

// TestAdviceInErrorEnvelope verifies that serving a learned emulator
// enriches error responses with root causes and repairs (§4.3's
// "richer than the cloud" error messages), while raw oracles stay
// code+message only.
func TestAdviceInErrorEnvelope(t *testing.T) {
	brief, err := wrangle.Wrangle(docs.Render(corpus.EC2()))
	if err != nil {
		t.Fatal(err)
	}
	svc, _, err := synth.SynthesizeFromBrief(brief, synth.Options{Noise: synth.Perfect, Decoding: synth.Constrained})
	if err != nil {
		t.Fatal(err)
	}
	emu, err := interp.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(emu))
	defer srv.Close()

	body := `{"params":{"cidrBlock":"10.0.0.0/8"}}`
	resp, err := srv.Client().Post(srv.URL+"/v2/ec2?Action=CreateVpc", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var envelope struct {
		IsError bool   `json:"__error"`
		Code    string `json:"Code"`
		Advice  *struct {
			RootCause string   `json:"rootCause"`
			Repairs   []string `json:"repairs"`
		} `json:"advice"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if !envelope.IsError || envelope.Advice == nil {
		t.Fatalf("no advice in learned-emulator error envelope: %+v", envelope)
	}
	if !strings.Contains(envelope.Advice.RootCause, "prefixLen") || len(envelope.Advice.Repairs) == 0 {
		t.Errorf("advice = %+v", envelope.Advice)
	}
}
