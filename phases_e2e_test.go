package lce

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"lce/internal/httpapi"
	"lce/internal/leakcheck"
	"lce/internal/obsv"
	"lce/internal/opsplane"
	"lce/internal/tenant"
)

// phaseParityResponse is everything a client can observe about one
// response body-wise — the unit of the on-vs-off proof.
type phaseParityResponse struct {
	Status int
	Body   string
}

// drivePhaseSequence runs the fixed request mix and returns what came
// back, plus the Server-Timing headers seen per request ("" = none).
func drivePhaseSequence(t *testing.T, url string) ([]phaseParityResponse, []string) {
	t.Helper()
	var responses []phaseParityResponse
	var timings []string
	do := func(path, session, body string) {
		req, err := http.NewRequest(http.MethodPost, url+path, strings.NewReader(body))
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
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		responses = append(responses, phaseParityResponse{Status: resp.StatusCode, Body: string(raw)})
		timings = append(timings, resp.Header.Get("Server-Timing"))
	}
	sessions := []string{"", "alice", "bob"}
	for i := 0; i < 18; i++ {
		s := sessions[i%len(sessions)]
		switch i % 3 {
		case 0:
			do("/v2/ec2?Action=CreateVpc", s, fmt.Sprintf(`{"params":{"cidrBlock":"10.%d.0.0/16"}}`, i))
		case 1:
			do("/v2/ec2?Action=DescribeVpcs", s, `{"params":{}}`)
		default:
			do("/v2/ec2", s, `{"action":"DescribeVpcs","params":{}}`)
		}
	}
	return responses, timings
}

// TestPhasesOnOffByteIdentical is the tentpole's no-op proof: the same
// request sequence against a bare stack (no observability, nil phase
// timers throughout) and against the fully instrumented stack (obs +
// ops plane, phase spine live) must produce byte-identical response
// bodies and statuses. The only observable difference is additive:
// the Server-Timing header.
func TestPhasesOnOffByteIdentical(t *testing.T) {
	leakcheck.Check(t)

	// Off: raw handler, no obs — every PhasesFrom in the stack sees a
	// nil timer.
	cfg := ServerConfig{Service: "ec2", Backend: "oracle"}
	b, err := NewBackend(cfg.Service, cfg.Backend, false)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := tenant.New(FactoryFor(b, cfg), tenant.Config{Shards: 4, Capacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	off := httptest.NewServer(httpapi.New(b, httpapi.WithPool(pool)))
	defer off.Close()

	// On: the full stack NewServer assembles (obs + ops plane).
	srv, err := NewServer(ServerConfig{
		Service: "ec2", Backend: "oracle",
		Sessions: 32, Shards: 4, TraceSeed: 1, Ops: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	on := httptest.NewServer(srv.Handler)
	defer on.Close()

	offResponses, offTimings := drivePhaseSequence(t, off.URL)
	onResponses, onTimings := drivePhaseSequence(t, on.URL)

	if !reflect.DeepEqual(offResponses, onResponses) {
		for i := range offResponses {
			if offResponses[i] != onResponses[i] {
				t.Errorf("request %d diverged:\noff: %d %s\non:  %d %s", i,
					offResponses[i].Status, offResponses[i].Body,
					onResponses[i].Status, onResponses[i].Body)
			}
		}
		t.Fatal("responses differ with phase timing on")
	}

	// The uninstrumented stack never emits Server-Timing.
	for i, h := range offTimings {
		if h != "" {
			t.Errorf("request %d: bare stack sent Server-Timing %q", i, h)
		}
	}
	// The instrumented stack emits it on every response, with known
	// phase names in the standard metric format.
	for i, h := range onTimings {
		if h == "" {
			t.Errorf("request %d: /v2 response missing Server-Timing", i)
			continue
		}
		for _, want := range []string{"decode;dur=", "session.lookup;dur=", "interp.dispatch;dur=", "encode;dur="} {
			if !strings.Contains(h, want) {
				t.Errorf("request %d: Server-Timing %q missing %q", i, h, want)
			}
		}
	}

	// The spine actually recorded: phase histograms exist for every
	// phase the hot path visits.
	scrape := scrapeNow(srv.Obs.Registry)
	for _, phase := range []string{"decode", "session.lookup", "interp.dispatch", "encode", "other"} {
		if !strings.Contains(scrape, `lce_phase_seconds_count{phase="`+phase+`",service="ec2"}`) {
			t.Errorf("lce_phase_seconds{phase=%q} missing from scrape:\n%s", phase, grepLines(scrape, "lce_phase_seconds_count"))
		}
	}
}

// TestPhaseSpanAttrsAndFlightRecorder: the instrumented stack must
// surface phase self-times on span attributes (phase.*, validated by
// the tracecheck invariants), on span-end bus events, and in flight
// recorder entries.
func TestPhaseSpanAttrsAndFlightRecorder(t *testing.T) {
	leakcheck.Check(t)
	srv, err := NewServer(ServerConfig{
		Service: "ec2", Backend: "oracle",
		Sessions: 8, Shards: 2, TraceSeed: 1, Ops: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler)
	defer ts.Close()

	sub := srv.Ops.Bus.Subscribe(opsplane.Filter{Kind: opsplane.KindSpanEnd}, 64)
	defer sub.Close()

	resp, err := http.Post(ts.URL+"/v2/ec2?Action=DescribeVpcs", "application/json", strings.NewReader(`{"params":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// Span attributes carry the self-times, and the whole export passes
	// the phase invariants tracecheck enforces.
	spans := srv.Obs.Tracer.Snapshot()
	var phased int
	for _, sp := range spans {
		if _, ok := sp.Attrs["phase.decode"]; ok {
			phased++
		}
	}
	if phased == 0 {
		t.Fatalf("no spans carry phase.* attributes (%d spans)", len(spans))
	}
	if err := obsv.ValidatePhases(spans); err != nil {
		t.Errorf("phase attributes violate the trace invariants: %v", err)
	}

	// The span-end bus event replicates the phase fields.
	var sawPhaseEvent bool
	for drained := false; !drained; {
		select {
		case e := <-sub.Events():
			if e.Attrs["phase.decode"] != "" && e.Attrs["phase.interp.dispatch"] != "" {
				sawPhaseEvent = true
			}
		default:
			drained = true
		}
	}
	if !sawPhaseEvent {
		t.Error("no span.end event carried phase.* attrs")
	}

	dump := srv.Ops.Flight.Dump("ec2")
	if len(dump.Records) == 0 {
		t.Fatal("flight recorder empty")
	}
	rec := dump.Records[len(dump.Records)-1]
	if len(rec.Phases) == 0 {
		t.Fatalf("flight record has no phase breakdown: %+v", rec)
	}
	for _, phase := range []string{"decode", "interp.dispatch", "encode"} {
		if rec.Phases[phase] <= 0 {
			t.Errorf("flight record phase %q = %d, want > 0 (have %v)", phase, rec.Phases[phase], rec.Phases)
		}
	}
}
