package lce

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"lce/internal/cloudapi"
	"lce/internal/durable"
	"lce/internal/httpapi"
	"lce/internal/interp"
	"lce/internal/leakcheck"
	"lce/internal/obsv"
	"lce/internal/opsplane"
	"lce/internal/spec"
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

// phaseScenario is a request mix through the fully instrumented
// stack: post sends one request, and obs holds what the timing spine
// recorded for service.
type phaseScenario struct {
	service string
	obs     *obsv.Obs
	post    func() error
}

// phaseScenarios are the two latency-attribution mixes, with the
// phases each must record.
var phaseScenarios = []struct {
	name   string
	build  func(t *testing.T) phaseScenario
	phases []string
}{
	{"hot", hotPhaseScenario, []string{"decode", "session.lookup", "interp.dispatch", "encode", "other"}},
	{"durable", durablePhaseScenario, []string{"decode", "session.lookup", "interp.dispatch", "encode", "other",
		"journal.append", "fsync", "rehydrate"}},
}

// hotPhaseScenario is the paper's fast path: the learned EC2 emulator
// behind the tenant pool, describing the one VPC created up front.
func hotPhaseScenario(t *testing.T) phaseScenario {
	t.Helper()
	b, err := NewBackend("ec2", "learned", false)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := tenant.New(cloudapi.FactoryOf(b), tenant.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ob := obsv.New(1, 0)
	srv := httptest.NewServer(httpapi.New(b, httpapi.WithObs(ob), httpapi.WithPool(pool)))
	t.Cleanup(srv.Close)
	if err := phasePost(srv.Client(), srv.URL+"/v2/ec2?Action=CreateVpc", `{"params":{"cidrBlock":"10.0.0.0/16"}}`, ""); err != nil {
		t.Fatal(err)
	}
	return phaseScenario{service: "ec2", obs: ob, post: func() error {
		return phasePost(srv.Client(), srv.URL+"/v2/ec2?Action=DescribeVpcs", "", "")
	}}
}

// durablePhaseScenario rotates four sessions over a capacity-2 pool
// with an FsyncAlways journal, so every request evicts someone on the
// way out (spill) and pays session.lookup → rehydrate on the way back
// in, then journal.append → fsync.
func durablePhaseScenario(t *testing.T) phaseScenario {
	t.Helper()
	store, err := durable.Open(durable.Config{Dir: t.TempDir(), Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := spec.Parse(spec.ToySource)
	if err != nil {
		t.Fatal(err)
	}
	if errs := spec.Check(svc, spec.Strict); len(errs) > 0 {
		t.Fatal(errs[0])
	}
	emu, err := interp.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := tenant.New(cloudapi.FactoryOf(emu), tenant.Config{Shards: 1, Capacity: 2, Spill: store})
	if err != nil {
		t.Fatal(err)
	}
	ob := obsv.New(1, 0)
	srv := httptest.NewServer(httpapi.New(emu, httpapi.WithObs(ob), httpapi.WithPool(pool)))
	t.Cleanup(srv.Close)
	url := srv.URL + "/v2/" + emu.Service() + "?Action=CreatePublicIp"
	i := 0
	return phaseScenario{service: emu.Service(), obs: ob, post: func() error {
		i++
		return phasePost(srv.Client(), url, `{"params":{"region":"us-east"}}`, fmt.Sprintf("phase-%d", i%4))
	}}
}

func phasePost(c *http.Client, url, body, session string) error {
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if session != "" {
		req.Header.Set(httpapi.SessionHeader, session)
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return nil
}

// TestPhaseCoverage: per-phase self-times tile end-to-end latency in
// both mixes. The spine records a request's latency as the sum of its
// phases' self-times, so coverage (Σ phase time ÷ end-to-end time, from
// the lce_phase_seconds and lce_http_request_seconds histograms) off
// 1.0 means a layer leaked an open region or counted one twice.
func TestPhaseCoverage(t *testing.T) {
	const requests = 40
	for _, c := range phaseScenarios {
		t.Run(c.name, func(t *testing.T) {
			sc := c.build(t)
			for i := 0; i < requests; i++ {
				if err := sc.post(); err != nil {
					t.Fatal(err)
				}
			}
			reg := sc.obs.Registry
			e2e := reg.Histogram(obsv.MetricHTTPSeconds, "route", "v2.invoke")
			if e2e.Count() < requests {
				t.Fatalf("end-to-end count %d < %d requests", e2e.Count(), requests)
			}
			var phaseSum float64
			seen := map[string]bool{}
			for _, phase := range obsv.PhaseNames {
				h := reg.Histogram(obsv.MetricPhaseSeconds, "phase", phase, "service", sc.service)
				if h.Count() > 0 {
					seen[phase] = true
					phaseSum += h.Sum()
				}
			}
			if cov := phaseSum / e2e.Sum(); cov < 0.9 || cov > 1.1 {
				t.Errorf("coverage %.4f outside [0.9, 1.1]", cov)
			}
			for _, want := range c.phases {
				if !seen[want] {
					t.Errorf("phase %q missing (have %v)", want, seen)
				}
			}
		})
	}
}
