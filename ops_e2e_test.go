package lce

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lce/internal/httpapi"
	"lce/internal/obsv"
	"lce/internal/opsplane"
)

// chaosServerConfig is the one configuration both the capturing and
// replaying sides of the e2e tests build from — the replay contract
// made concrete.
func chaosServerConfig() ServerConfig {
	return ServerConfig{
		Service: "ec2", Backend: "oracle",
		Chaos: true, ChaosSeed: 7, FaultRate: 0.35,
		TraceSeed: 3,
		Sessions:  32, Shards: 8, SessionTTL: time.Hour,
		Ops: true,
	}
}

// sseCollect reads SSE frames from the stream until ctx is done,
// appending decoded events.
func sseCollect(ctx context.Context, t *testing.T, url string, out *[]opsplane.Event, mu *sync.Mutex) {
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Errorf("sse %s: %v", url, err)
		return
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var e opsplane.Event
			if err := json.Unmarshal([]byte(data), &e); err != nil {
				t.Errorf("sse frame %q: %v", data, err)
				continue
			}
			mu.Lock()
			*out = append(*out, e)
			mu.Unlock()
		}
	}
}

// TestOpsChaosEndToEnd is the tentpole acceptance run: a chaos-mode
// multi-tenant server with the full operations plane, driven by 16
// concurrent sessions while two differently-filtered SSE subscribers
// watch, then inspected through every ops surface — dimensional
// metrics with exemplars resolvable in /debug/traces, a lintable
// scrape, and an SLO breach on /healthz and /readyz.
func TestOpsChaosEndToEnd(t *testing.T) {
	srv, err := NewServer(chaosServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler)
	defer ts.Close()

	// Two subscribers with disjoint filters: one watches the fault
	// family across all sessions, one watches everything about a single
	// tenant.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var faultEvents, tenantEvents []opsplane.Event
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); sseCollect(ctx, t, ts.URL+"/debug/events?kind=fault.*", &faultEvents, &mu) }()
	go func() {
		defer wg.Done()
		sseCollect(ctx, t, ts.URL+"/debug/events?session=tenant-03", &tenantEvents, &mu)
	}()
	waitFor(t, "subscribers attached", func() bool { return srv.Ops.Bus.Subscribers() == 2 })

	// 16 sessions hammer the server concurrently.
	const perSession = 6
	var drive sync.WaitGroup
	for g := 0; g < 16; g++ {
		drive.Add(1)
		go func(g int) {
			defer drive.Done()
			session := fmt.Sprintf("tenant-%02d", g)
			for i := 0; i < perSession; i++ {
				req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v2/ec2?Action=DescribeVpcs",
					strings.NewReader(`{"params":{}}`))
				req.Header.Set(httpapi.SessionHeader, session)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(g)
	}
	drive.Wait()

	// No event loss below buffer capacity: the fault subscriber must
	// receive exactly the fault.injected events the bus published, and
	// nothing may have been dropped.
	wantFaults := srv.Obs.Registry.Counter(obsv.MetricOpsEvents, "kind", opsplane.KindFaultInjected).Value()
	if wantFaults == 0 {
		t.Fatal("no faults injected at 35% rate — the test is vacuous")
	}
	waitFor(t, "fault events drained", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return int64(len(faultEvents)) >= wantFaults
	})
	cancel()
	wg.Wait()
	if int64(len(faultEvents)) != wantFaults {
		t.Errorf("fault subscriber saw %d events, bus published %d", len(faultEvents), wantFaults)
	}
	for _, e := range faultEvents {
		if e.Kind != opsplane.KindFaultInjected {
			t.Errorf("kind filter leaked %q", e.Kind)
		}
		if e.Attrs["code"] == "" || e.Action == "" {
			t.Errorf("fault event missing code/action: %+v", e)
		}
	}
	if len(tenantEvents) == 0 {
		t.Error("session-filtered subscriber saw nothing")
	}
	for _, e := range tenantEvents {
		if e.Session != "tenant-03" {
			t.Errorf("session filter leaked %q", e.Session)
		}
	}
	if dropped := srv.Obs.Registry.Counter(obsv.MetricOpsEventsDropped).Value(); dropped != 0 {
		t.Errorf("%d events dropped below buffer capacity", dropped)
	}

	// The scrape lints in both formats and carries the dimensional vec.
	var om strings.Builder
	srv.Obs.Registry.WriteOpenMetrics(&om)
	if _, err := obsv.LintExposition(strings.NewReader(om.String())); err != nil {
		t.Errorf("openmetrics scrape invalid: %v", err)
	}
	scrape := om.String()
	if !strings.Contains(scrape, `lce_http_requests_total{action="DescribeVpcs",code="OK",route="v2.invoke",service="ec2"}`) {
		t.Errorf("labeled request vec missing from scrape:\n%s", grepLines(scrape, "lce_http_requests_total"))
	}
	// One request series: its route="v2.invoke" samples add up to the
	// invokes made, each counted once.
	var invokes int64
	for _, line := range strings.Split(grepLines(scrape, `lce_http_requests_total{`), "\n") {
		if strings.Contains(line, `route="v2.invoke"`) {
			n, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			invokes += n
		}
	}
	if invokes != 16*perSession {
		t.Errorf(`sum(lce_http_requests_total{route="v2.invoke"}) = %d, want %d`, invokes, 16*perSession)
	}

	// An exemplar's trace ID resolves to a recorded trace.
	exRe := regexp.MustCompile(`# \{trace_id="([0-9a-f]+)"\}`)
	m := exRe.FindStringSubmatch(scrape)
	if m == nil {
		t.Fatalf("no exemplars in scrape:\n%s", grepLines(scrape, "lce_http_request_seconds"))
	}
	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	traceBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(traceBody, []byte(m[1])) {
		t.Errorf("exemplar trace %s not found in /debug/traces", m[1])
	}

	// 35% faults against a 1% SLO: healthz and readyz must report a
	// breach, with per-check verdicts in the payload.
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s = %d under 35%% faults, want 503: %s", ep, resp.StatusCode, body)
			continue
		}
		var hp struct {
			Status string                 `json:"status"`
			Checks []opsplane.CheckResult `json:"checks"`
		}
		if err := json.Unmarshal(body, &hp); err != nil {
			t.Fatalf("%s payload: %v", ep, err)
		}
		if hp.Status != "breach" || len(hp.Checks) == 0 {
			t.Errorf("%s: status=%q checks=%d", ep, hp.Status, len(hp.Checks))
		}
	}
	// The breach was announced on the bus and the burn gauge published.
	if n := srv.Obs.Registry.Counter(obsv.MetricOpsEvents, "kind", opsplane.KindSLOBreach).Value(); n != 1 {
		t.Errorf("slo.breach events published = %d, want 1 (transition only)", n)
	}
	if !strings.Contains(scrapeNow(srv.Obs.Registry), `lce_slo_burn_rate{slo="error-rate"`) {
		t.Error("lce_slo_burn_rate gauge not published")
	}
}

// TestFlightReplayByteIdentical captures a sequential multi-session
// chaos conversation and re-drives it against a server rebuilt from
// the same ServerConfig: every response must match byte-for-byte.
// (Sequential driving keeps session-creation order — and with it the
// per-session fault streams — deterministic; that is the same
// discipline lce-replay documents.)
func TestFlightReplayByteIdentical(t *testing.T) {
	cfg := chaosServerConfig()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler)

	sessions := []string{"", "alice", "bob"}
	for i := 0; i < 30; i++ {
		body := fmt.Sprintf(`{"action":"CreateVpc","params":{"cidrBlock":"10.%d.0.0/16"}}`, i)
		if i%3 == 0 {
			body = `{"action":"DescribeVpcs","params":{}}`
		}
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v2/ec2", strings.NewReader(body))
		if s := sessions[i%len(sessions)]; s != "" {
			req.Header.Set(httpapi.SessionHeader, s)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	dump, err := opsplane.ReadDump(resp.Body)
	resp.Body.Close()
	ts.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Records) != 30 {
		t.Fatalf("captured %d records, want 30", len(dump.Records))
	}

	fresh, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range dump.Records {
		req := httptest.NewRequest(rec.Method, rec.Path, strings.NewReader(rec.RequestBody))
		if rec.Session != "" {
			req.Header.Set(httpapi.SessionHeader, rec.Session)
		}
		if rec.RequestID != "" {
			req.Header.Set(httpapi.RequestIDHeader, rec.RequestID)
		}
		w := httptest.NewRecorder()
		fresh.Handler.ServeHTTP(w, req)
		if w.Code != rec.Status {
			t.Errorf("record %d %s: status %d, captured %d", rec.Seq, rec.Path, w.Code, rec.Status)
		}
		if got := w.Body.String(); got != rec.ResponseBody {
			t.Errorf("record %d %s: body diverged\ncaptured: %s\nreplayed: %s", rec.Seq, rec.Path, rec.ResponseBody, got)
		}
	}
}

// TestOpsDivergenceCounterAndEvents: a flaky alignment run without
// retries must leave exhausted-transient divergences in (a) the
// labeled lce_align_divergences_total vec and (b) matching
// align.divergence events on the ops bus — the metric and the event
// stream agree.
func TestOpsDivergenceCounterAndEvents(t *testing.T) {
	ob := NewObs(99)
	plane := opsplane.New(opsplane.Config{Service: "ec2", Obs: ob})
	sub := plane.Bus.Subscribe(opsplane.Filter{Kind: opsplane.KindDivergence}, 1024)
	var events []opsplane.Event
	done := make(chan struct{})
	go func() {
		defer close(done)
		for e := range sub.Events() {
			events = append(events, e)
		}
	}()

	faults := UniformFaults(0.10, 99)
	res, err := Align("ec2", PerfectOptions(), AlignConfig{Workers: 4, Faults: &faults, Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	plane.Bus.Close()
	<-done

	var wantDiverged int64
	for _, c := range []string{"semantic", "exhausted-transient"} {
		wantDiverged += ob.Registry.Counter(obsv.MetricAlignDivergences, "service", "ec2", "cause", c).Value()
	}
	if wantDiverged == 0 {
		t.Fatalf("no labeled divergences at 10%% faults without retries (result: %+v)", res.Stats)
	}
	if int64(len(events)) != wantDiverged {
		t.Errorf("bus saw %d align.divergence events, counter says %d", len(events), wantDiverged)
	}
	for _, e := range events {
		if e.Service != "ec2" || e.Attrs["diff.cause"] == "" || e.TraceID == "" {
			t.Errorf("divergence event underspecified: %+v", e)
		}
	}
}

// TestRequestSeriesBoundedBySessions: session IDs are minted by
// clients, so the request counter must not grow with them. 200
// distinct sessions leave lce_http_requests_total with as many series
// as one session does.
func TestRequestSeriesBoundedBySessions(t *testing.T) {
	series := func(sessions int) int {
		srv, err := NewServer(ServerConfig{Service: "ec2", Backend: "oracle", TraceSeed: 1,
			Sessions: 64, Shards: 8, Ops: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sessions; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v2/ec2?Action=DescribeVpcs", nil)
			req.Header.Set(httpapi.SessionHeader, fmt.Sprintf("client-%03d", i))
			rec := httptest.NewRecorder()
			srv.Handler.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("session %d answered %d: %s", i, rec.Code, rec.Body)
			}
		}
		return strings.Count(scrapeNow(srv.Obs.Registry), "\n"+obsv.MetricHTTPRequests+"{")
	}
	one, many := series(1), series(200)
	if one == 0 || many != one {
		t.Errorf("%s: %d series after one session, %d after 200", obsv.MetricHTTPRequests, one, many)
	}
}

// TestOpsPlaneOffIdenticalResults is the pay-for-what-you-use bar:
// an alignment run with the full operations plane hooked into the
// tracer must produce results identical to the bare run. Retries are
// on (attempt budget past the injector's consecutive-fault cap) so
// the outcome is deterministic — without them, which trace absorbs
// which fault depends on worker scheduling in both runs alike.
func TestOpsPlaneOffIdenticalResults(t *testing.T) {
	cfg := UniformFaults(0.10, 5)
	policy := &RetryPolicy{MaxAttempts: 4, Seed: 5}
	plain, err := Align("ec2", PerfectOptions(), AlignConfig{Workers: 4, Faults: &cfg, Retry: policy})
	if err != nil {
		t.Fatal(err)
	}
	ob := NewObs(5)
	plane := opsplane.New(opsplane.Config{Service: "ec2", Obs: ob})
	sub := plane.Bus.Subscribe(opsplane.Filter{}, 64)
	go func() { // drain so the live subscriber exercises the publish path
		for range sub.Events() {
		}
	}()
	defer sub.Close()
	instrumented, err := Align("ec2", PerfectOptions(), AlignConfig{Workers: 4, Faults: &cfg, Retry: policy, Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Rounds, instrumented.Rounds) {
		t.Errorf("rounds differ with ops plane on:\nplain: %+v\nops:   %+v", plain.Rounds, instrumented.Rounds)
	}
	// Retry/fault tallies depend on worker scheduling even with a
	// deterministic injector (instance seeds follow creation order), so
	// compare the semantic stats only — same contract as the align
	// chaos tests.
	if plain.Stats.TracesCompared != instrumented.Stats.TracesCompared ||
		plain.Stats.Repairs != instrumented.Stats.Repairs {
		t.Errorf("stats differ with ops plane on: %+v vs %+v", plain.Stats, instrumented.Stats)
	}
	if plain.Converged != instrumented.Converged {
		t.Errorf("converged: plain=%v ops=%v", plain.Converged, instrumented.Converged)
	}
}

// TestSSESlowConsumerHTTPDisconnect floods a subscriber that never
// reads: the bus must disconnect it (rather than block publishers or
// buffer without bound) and the stream must end with the overflow
// comment once the client finally reads.
func TestSSESlowConsumerHTTPDisconnect(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Service: "ec2", Backend: "oracle", Ops: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	waitFor(t, "subscriber attached", func() bool { return srv.Ops.Bus.Subscribers() == 1 })

	// Pad events so the kernel socket buffer fills long before we'd
	// OOM; once the SSE writer blocks, the channel backs up and the bus
	// cuts the subscriber loose.
	pad := strings.Repeat("x", 4096)
	for i := 0; i < 20000 && srv.Ops.Bus.Subscribers() > 0; i++ {
		srv.Ops.Publish(opsplane.Event{Kind: "test.flood", Attrs: map[string]string{"pad": pad}})
	}
	waitFor(t, "slow consumer disconnected", func() bool { return srv.Ops.Bus.Subscribers() == 0 })
	if srv.Obs.Registry.Counter(obsv.MetricOpsEventsDropped).Value() == 0 {
		t.Error("dropped-events counter not incremented")
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("stream did not terminate cleanly: %v", err)
	}
	if !bytes.Contains(body, []byte("overflow")) {
		t.Error("stream ended without the overflow comment")
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func grepLines(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

func scrapeNow(reg *obsv.Registry) string {
	var b strings.Builder
	reg.WritePrometheus(&b)
	return b.String()
}
