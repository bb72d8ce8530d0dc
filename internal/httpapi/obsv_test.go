package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"lce/internal/cloud/aws/ec2"
	"lce/internal/cloudapi"
	"lce/internal/obsv"
	"lce/internal/opsplane"
)

func newObservedServer(t *testing.T) (*httptest.Server, *Client, *obsv.Obs) {
	t.Helper()
	obs := obsv.New(11, 0)
	srv := httptest.NewServer(New(ec2.New(), WithObs(obs)))
	t.Cleanup(srv.Close)
	return srv, NewClient(srv.URL), obs
}

// TestEveryRequestIncrementsRegistry: each handled request bumps one
// lce_http_requests_total series labelled with its route, errors are the
// series whose code is not "OK", and every request lands a latency
// observation.
func TestEveryRequestIncrementsRegistry(t *testing.T) {
	srv, client, obs := newObservedServer(t)

	if _, err := client.Invoke(cloudapi.Request{
		Action: "CreateVpc",
		Params: cloudapi.Params{"cidrBlock": cloudapi.Str("10.0.0.0/16")},
	}); err != nil {
		t.Fatal(err)
	}
	// A semantic API error: still a handled request, counted as an error.
	if _, err := client.Invoke(cloudapi.Request{Action: "CreateVpc"}); err == nil {
		t.Fatal("missing-parameter invoke should error")
	}
	client.Reset()
	client.Actions()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	reg := obs.Registry
	// The client fetches the service name from /actions once, before its
	// first call, and Actions asks again.
	wantRequests := map[string]int64{"v2.invoke": 2, "v2.reset": 1, "actions": 2, "healthz": 1}
	for route, want := range wantRequests {
		if got, _ := routeRequests(t, reg, route); got != want {
			t.Errorf("requests_total{route=%q} = %d, want %d", route, got, want)
		}
		if got := reg.Histogram(obsv.MetricHTTPSeconds, "route", route).Count(); got != want {
			t.Errorf("request_seconds{route=%q} count = %d, want %d", route, got, want)
		}
	}
	if _, errs := routeRequests(t, reg, "v2.invoke"); errs != 1 {
		t.Errorf(`requests_total{route="v2.invoke",code!="OK"} = %d, want 1`, errs)
	}
	if _, errs := routeRequests(t, reg, "healthz"); errs != 0 {
		t.Errorf(`requests_total{route="healthz",code!="OK"} = %d, want 0`, errs)
	}
}

// routeRequests reads a route's requests and errors off the exposition,
// as sum(lce_http_requests_total{route=...}) and the same with
// code!="OK".
func routeRequests(t *testing.T, reg *obsv.Registry, route string) (total, errs int64) {
	t.Helper()
	var b strings.Builder
	reg.WritePrometheus(&b)
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, obsv.MetricHTTPRequests+"{") || !strings.Contains(line, `route="`+route+`"`) {
			continue
		}
		n, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		total += n
		if !strings.Contains(line, `code="OK"`) {
			errs += n
		}
	}
	return total, errs
}

// TestErroredRequestsCarrySpanErrorStatus: the root span of a failed
// request records error status and the wire status code; successful
// requests stay clean. The invoke span parents the backend call span.
func TestErroredRequestsCarrySpanErrorStatus(t *testing.T) {
	_, client, obs := newObservedServer(t)

	if _, err := client.Invoke(cloudapi.Request{
		Action: "CreateVpc",
		Params: cloudapi.Params{"cidrBlock": cloudapi.Str("10.0.0.0/16")},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Invoke(cloudapi.Request{Action: "CreateVpc"}); err == nil {
		t.Fatal("missing-parameter invoke should error")
	}

	spans := obs.Tracer.Snapshot()
	if err := obsv.Validate(spans); err != nil {
		t.Fatalf("server spans invalid: %v", err)
	}
	var okRoot, errRoot *obsv.SpanData
	for i := range spans {
		sp := &spans[i]
		if sp.Name != obsv.SpanHTTPPfx+"v2.invoke" {
			continue
		}
		if sp.Error == "" {
			okRoot = sp
		} else {
			errRoot = sp
		}
	}
	if okRoot == nil || errRoot == nil {
		t.Fatalf("want one clean and one errored invoke root, got %+v", spans)
	}
	if okRoot.Attrs["status"] != "200" {
		t.Errorf("clean root status attr = %q", okRoot.Attrs["status"])
	}
	if errRoot.Attrs["status"] != "400" || !strings.Contains(errRoot.Error, "400") {
		t.Errorf("errored root: status attr %q, error %q", errRoot.Attrs["status"], errRoot.Error)
	}
	if errRoot.Attrs["action"] != "CreateVpc" {
		t.Errorf("errored root action attr = %q", errRoot.Attrs["action"])
	}
}

// TestMetricsAndTraceEndpoints: the two debug routes serve Prometheus
// text and grouped spans.
func TestMetricsAndTraceEndpoints(t *testing.T) {
	srv, client, _ := newObservedServer(t)
	if _, err := client.Invoke(cloudapi.Request{
		Action: "CreateVpc",
		Params: cloudapi.Params{"cidrBlock": cloudapi.Str("10.0.0.0/16")},
	}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if !strings.Contains(body, obsv.MetricHTTPRequests) || !strings.Contains(body, `route="v2.invoke"`) {
		t.Errorf("/metrics missing request counter:\n%s", body)
	}
	if !strings.Contains(body, obsv.MetricHTTPSeconds+"_bucket") {
		t.Errorf("/metrics missing latency histogram:\n%s", body)
	}

	resp, err = http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var groups []obsv.TraceGroup
	if err := json.Unmarshal([]byte(readAll(t, resp)), &groups); err != nil {
		t.Fatalf("/debug/traces not JSON: %v", err)
	}
	if len(groups) == 0 || len(groups[0].Spans) == 0 {
		t.Fatalf("/debug/traces empty: %+v", groups)
	}
}

// TestObservedNilIsHandler: a nil obs serves the plain routes and no
// debug endpoints.
func TestObservedNilIsHandler(t *testing.T) {
	srv := httptest.NewServer(New(ec2.New(), WithObs(nil)))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/metrics on unobserved server = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d", resp.StatusCode)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// bigBackend answers every call with one string attribute of size n.
type bigBackend struct{ n int }

func (bigBackend) Service() string   { return "big" }
func (bigBackend) Actions() []string { return []string{"Get"} }
func (bigBackend) Reset()            {}
func (b bigBackend) Invoke(cloudapi.Request) (cloudapi.Result, error) {
	return cloudapi.Result{"blob": cloudapi.Str(strings.Repeat("x", b.n))}, nil
}

// TestFlightMirrorBoundedByMaxBody: a success envelope larger than
// MaxBody reaches the client whole, while the flight record keeps only
// its first MaxBody bytes — the bound MaxBody documents for what an
// instrumented route buffers.
func TestFlightMirrorBoundedByMaxBody(t *testing.T) {
	ops := opsplane.New(opsplane.Config{Service: "big", Obs: obsv.New(1, 0)})
	h := New(bigBackend{n: MaxBody + 4096}, WithOps(ops))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v2/big?Action=Get", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	full := rec.Body.String()
	if want := len(`{"RequestId":"lce-0000000000000000","result":{"blob":""}}`+"\n") + MaxBody + 4096; len(full) != want {
		t.Fatalf("client received %d bytes, want %d", len(full), want)
	}
	recs := ops.Flight.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("%d flight records, want 1", len(recs))
	}
	if got := recs[0].ResponseBody; len(got) != MaxBody || !strings.HasPrefix(full, got) {
		t.Errorf("flight record holds %d response bytes, want the first %d", len(got), MaxBody)
	}
}
