package opsplane

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lce/internal/obsv"
)

func TestBusFilterAndSeq(t *testing.T) {
	b := NewBus(nil)
	all := b.Subscribe(Filter{}, 16)
	onlyS1 := b.Subscribe(Filter{Session: "s1"}, 16)
	retries := b.Subscribe(Filter{Kind: "retry.*"}, 16)

	b.Publish(Event{Kind: KindFaultInjected, Session: "s1"})
	b.Publish(Event{Kind: KindRetryBackoff, Session: "s2"})
	b.Publish(Event{Kind: KindRetryExhausted, Session: "s1"})
	b.Close()

	drain := func(s *Subscription) []Event {
		var out []Event
		for e := range s.Events() {
			out = append(out, e)
		}
		return out
	}
	got := drain(all)
	if len(got) != 3 {
		t.Fatalf("all: %d events, want 3", len(got))
	}
	if got[0].Seq != 1 || got[1].Seq != 2 || got[2].Seq != 3 {
		t.Fatalf("seq must be dense 1..3: %+v", got)
	}
	if s1 := drain(onlyS1); len(s1) != 2 {
		t.Fatalf("session filter: %d, want 2", len(s1))
	}
	if r := drain(retries); len(r) != 2 || r[0].Kind != KindRetryBackoff {
		t.Fatalf("kind prefix filter: %+v", r)
	}
}

func TestBusSlowConsumerDisconnect(t *testing.T) {
	reg := obsv.NewRegistry()
	b := NewBus(reg)
	slow := b.Subscribe(Filter{}, 2)
	fast := b.Subscribe(Filter{}, 16)
	for i := 0; i < 5; i++ {
		b.Publish(Event{Kind: KindSpanEnd})
	}
	// slow's buffer (2) overflowed on the third publish: it must be
	// disconnected, channel closed, marked as a slow consumer.
	n := 0
	for range slow.Events() {
		n++
	}
	if n != 2 {
		t.Fatalf("slow consumer kept %d events, want its 2 buffered", n)
	}
	if !slow.SlowConsumer() {
		t.Fatal("must be marked a slow-consumer disconnect")
	}
	if b.Subscribers() != 1 {
		t.Fatalf("subscribers = %d, want 1 (fast)", b.Subscribers())
	}
	// The fast subscriber saw everything.
	fast.Close()
	n = 0
	for range fast.Events() {
		n++
	}
	if n != 5 {
		t.Fatalf("fast consumer saw %d, want 5", n)
	}
	if fast.SlowConsumer() {
		t.Fatal("clean close must not be marked slow")
	}
	var buf strings.Builder
	reg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "lce_ops_events_dropped_total 1") {
		t.Fatalf("dropped counter missing:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `lce_ops_events_total{kind="span.end"} 5`) {
		t.Fatalf("per-kind counter missing:\n%s", buf.String())
	}
}

func TestBusConcurrentPublish(t *testing.T) {
	b := NewBus(nil)
	sub := b.Subscribe(Filter{}, 4096)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.Publish(Event{Kind: KindSpanEnd})
			}
		}()
	}
	wg.Wait()
	b.Close()
	n := 0
	for range sub.Events() {
		n++
	}
	if n != 800 {
		t.Fatalf("got %d events, want 800 (no loss below capacity)", n)
	}
	if b.Published() != 800 {
		t.Fatalf("published = %d", b.Published())
	}
}

func TestFlightRecorderWindowAndOrder(t *testing.T) {
	f := NewFlightRecorder(16, nil)
	for i := 0; i < 40; i++ {
		f.Add(FlightRecord{Path: "/v2/ec2", Status: 200})
	}
	if f.Recorded() != 40 {
		t.Fatalf("recorded = %d", f.Recorded())
	}
	snap := f.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("window holds %d, want 16", len(snap))
	}
	for i, rec := range snap {
		if want := uint64(25 + i); rec.Seq != want {
			t.Fatalf("snap[%d].Seq = %d, want %d (newest 16, oldest first)", i, rec.Seq, want)
		}
	}
	d := f.Dump("ec2")
	if d.Schema != FlightDumpSchema || d.Capacity != 16 || d.Recorded != 40 || d.Service != "ec2" {
		t.Fatalf("dump header wrong: %+v", d)
	}
	// Round-trip through the JSON codec lce-replay uses.
	raw, _ := json.Marshal(d)
	back, err := ReadDump(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != 16 || back.Records[0].Seq != 25 {
		t.Fatalf("round-trip lost records: %+v", back)
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(64, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f.Add(FlightRecord{Status: 200})
			}
		}()
	}
	wg.Wait()
	snap := f.Snapshot()
	if len(snap) != 64 {
		t.Fatalf("window = %d, want 64", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq <= snap[i-1].Seq {
			t.Fatal("snapshot must be strictly ordered by capture seq")
		}
	}
	var nilF *FlightRecorder
	nilF.Add(FlightRecord{})
	if nilF.Snapshot() != nil || nilF.Recorded() != 0 || nilF.Capacity() != 0 {
		t.Fatal("nil recorder must be inert")
	}
}

// TestFlightRecorderKeepsNewestUnderContention: writers whose sequence
// numbers are a ring apart share a slot and may take its lock in
// either order. Whichever order they take it in, the window must end
// full and end at the newest record. Many short rounds of 16 writers
// wrapping a 16-slot recorder make that collision common; the writers
// need a second processor to interleave.
func TestFlightRecorderKeepsNewestUnderContention(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	const capacity, writers, adds, rounds = 16, 16, 4, 20000
	for r := 0; r < rounds; r++ {
		f := NewFlightRecorder(capacity, nil)
		var start, wg sync.WaitGroup
		start.Add(1)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				for i := 0; i < adds; i++ {
					f.Add(FlightRecord{Status: 200})
				}
			}()
		}
		start.Done()
		wg.Wait()
		snap := f.Snapshot()
		if len(snap) != capacity || snap[len(snap)-1].Seq != f.Recorded() {
			t.Fatalf("round %d: window holds %d records ending at seq %d, want %d ending at %d",
				r, len(snap), snap[len(snap)-1].Seq, capacity, f.Recorded())
		}
	}
}

func TestHealthMultiWindowBurn(t *testing.T) {
	clock := obsv.NewFakeClock(time.Time{})
	reg := obsv.NewRegistry()
	h := NewHealth(Objectives{ErrorRate: 0.01, P99: 250 * time.Millisecond}, clock, reg)

	// One hour of clean traffic: everything ok.
	for i := 0; i < 60; i++ {
		for j := 0; j < 1000; j++ {
			h.Record(false, 5*time.Millisecond)
		}
		clock.Advance(time.Minute)
	}
	res := h.Evaluate()
	if len(res) != 4 {
		t.Fatalf("want 4 checks (2 SLOs x 2 windows), got %d: %+v", len(res), res)
	}
	if !Healthy(res) {
		t.Fatalf("clean traffic must be healthy: %+v", res)
	}

	// A burst of errors big enough to push the 5m window past 1% but
	// tiny against the hour's volume: the short window breaches, the
	// long window holds, and the multi-window verdict stays ok.
	for i := 0; i < 100; i++ {
		h.Record(true, 5*time.Millisecond)
	}
	res = h.Evaluate()
	byKey := map[string]CheckResult{}
	for _, cr := range res {
		byKey[cr.SLO+"|"+cr.Window] = cr
	}
	if byKey["error-rate|5m0s"].Verdict != "breach" {
		t.Fatalf("short window must breach: %+v", byKey["error-rate|5m0s"])
	}
	if byKey["error-rate|1h0m0s"].Verdict != "ok" {
		t.Fatalf("long window must hold: %+v", byKey["error-rate|1h0m0s"])
	}
	if !Healthy(res) {
		t.Fatal("one-window burn must not flip the multi-window verdict")
	}

	// Sustain the burn across the long window too: now both burn and
	// the verdict flips.
	for i := 0; i < 55; i++ {
		for j := 0; j < 100; j++ {
			h.Record(true, 5*time.Millisecond)
		}
		clock.Advance(time.Minute)
	}
	res = h.Evaluate()
	if Healthy(res) {
		t.Fatalf("sustained burn must flip the verdict: %+v", res)
	}

	// Burn-rate gauges are live.
	var buf strings.Builder
	reg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), `lce_slo_burn_rate{slo="error-rate",window="5m0s"}`) {
		t.Fatalf("burn gauge missing:\n%s", buf.String())
	}
}

func TestHealthLatencyCheckAndNoData(t *testing.T) {
	clock := obsv.NewFakeClock(time.Time{})
	h := NewHealth(Objectives{P99: 10 * time.Millisecond}, clock, nil)
	res := h.Evaluate()
	for _, cr := range res {
		if cr.Verdict != "no-data" {
			t.Fatalf("empty engine must report no-data: %+v", cr)
		}
	}
	if !Healthy(res) {
		t.Fatal("no-data must count as healthy")
	}
	for i := 0; i < 100; i++ {
		h.Record(false, 100*time.Millisecond) // p99 ~100ms >> 10ms target
	}
	res = h.Evaluate()
	if Healthy(res) {
		t.Fatalf("slow traffic must breach the latency SLO: %+v", res)
	}
	for _, cr := range res {
		if cr.Burn <= 1 {
			t.Fatalf("latency burn must exceed 1: %+v", cr)
		}
	}
	var nilH *Health
	nilH.Record(false, time.Second)
	if nilH.Evaluate() != nil {
		t.Fatal("nil health must be inert")
	}
}

func TestPlaneSpanEndDerivation(t *testing.T) {
	obs := obsv.New(7, 128)
	clock := obsv.NewFakeClock(time.Time{})
	obs.Tracer.SetClock(clock)
	p := New(Config{Service: "ec2", Obs: obs, Clock: clock, Objectives: DefaultObjectives()})
	sub := p.Bus.Subscribe(Filter{}, 64)

	ctx := obs.Context(context.Background())
	ctx, root := obs.Tracer.StartRootKeyed(ctx, obsv.SpanAlignTrace, 42)
	root.SetAttr("aligned", "false")
	root.SetAttr("diff.action", "CreateVpc")
	root.SetAttr("diff.cause", "semantic")
	_, call := obsv.StartSpan(ctx, obsv.SpanCallPfx+"CreateVpc")
	call.Event(obsv.EventFault, "code", "Throttling")
	clock.Advance(time.Millisecond)
	call.End()
	root.End()

	p.Bus.Close()
	byKind := map[string][]Event{}
	for e := range sub.Events() {
		byKind[e.Kind] = append(byKind[e.Kind], e)
	}
	if n := len(byKind[KindSpanEnd]); n != 2 {
		t.Fatalf("span.end events = %d, want 2", n)
	}
	fi := byKind[KindFaultInjected]
	if len(fi) != 1 || fi[0].Action != "CreateVpc" || fi[0].Attrs["code"] != "Throttling" {
		t.Fatalf("fault event wrong: %+v", fi)
	}
	if fi[0].TraceID == "" {
		t.Fatal("fault event must carry the trace id")
	}
	dv := byKind[KindDivergence]
	if len(dv) != 1 || dv[0].Attrs["diff.cause"] != "semantic" || dv[0].Action != "CreateVpc" {
		t.Fatalf("divergence event wrong: %+v", dv)
	}
	if dv[0].Service != "ec2" {
		t.Fatalf("service stamp missing: %+v", dv[0])
	}
}

// TestSpanEndCostsAReaderNotARequest: the span.end event is built only
// for a subscriber, yet nothing an absent reader could later ask about
// may change — the sequence number and lce_ops_events_total{kind}
// advance identically with nobody listening, and a subscriber attached
// mid-run gets complete events (phase.* attrs included) from its first
// one, numbered as if it had been there all along.
func TestSpanEndCostsAReaderNotARequest(t *testing.T) {
	script := func(p *Plane, obs *obsv.Obs, clock *obsv.FakeClock, from, to int) {
		for i := from; i < to; i++ {
			ctx, root := obs.Tracer.StartRoot(context.Background(), obsv.SpanHTTPPfx+"v2.invoke")
			root.SetAttr("action", "DescribeVpcs")
			root.SetAttr("session", "s1")
			root.SetAttrInt(obsv.SpanAttrPhasePfx+obsv.PhaseDecode, int64(1000+i))
			_, call := obsv.StartSpan(ctx, obsv.SpanCallPfx+"DescribeVpcs")
			if i%3 == 0 {
				call.Event(obsv.EventFault, "code", "Throttling")
				root.SetError("status 400")
			}
			clock.Advance(time.Millisecond)
			call.End()
			root.End()
		}
	}
	build := func() (*Plane, *obsv.Obs, *obsv.FakeClock) {
		obs := obsv.New(7, 128)
		clock := obsv.NewFakeClock(time.Time{})
		obs.Tracer.SetClock(clock)
		return New(Config{Service: "ec2", Obs: obs, Clock: clock}), obs, clock
	}
	spanEnds := func(obs *obsv.Obs) int64 {
		return obs.Registry.Counter(obsv.MetricOpsEvents, "kind", KindSpanEnd).Value()
	}

	unwatched, obs0, clock0 := build()
	script(unwatched, obs0, clock0, 0, 12)

	watched, obs1, clock1 := build()
	script(watched, obs1, clock1, 0, 6)
	sub := watched.Bus.Subscribe(Filter{Kind: KindSpanEnd}, 64)
	before := watched.Bus.Published()
	script(watched, obs1, clock1, 6, 12)
	sub.Close()

	if a, b := unwatched.Bus.Published(), watched.Bus.Published(); a != b || a != 12*2+4 {
		t.Fatalf("Published() = %d unwatched, %d watched; want both %d", a, b, 12*2+4)
	}
	if a, b := spanEnds(obs0), spanEnds(obs1); a != b || a != 24 {
		t.Fatalf("lce_ops_events_total{kind=span.end} = %d unwatched, %d watched; want both 24", a, b)
	}
	var got []Event
	for e := range sub.Events() {
		got = append(got, e)
	}
	if len(got) != 12 {
		t.Fatalf("subscriber attached mid-run received %d span.end events, want 12", len(got))
	}
	if got[0].Seq <= before {
		t.Fatalf("first event has seq %d, want it after the %d published unobserved", got[0].Seq, before)
	}
	for _, e := range got {
		if e.Attrs["name"] == obsv.SpanHTTPPfx+"v2.invoke" {
			if e.Action != "DescribeVpcs" || e.Session != "s1" || e.Service != "ec2" || e.TraceID == "" ||
				e.Attrs["durationNs"] != "1000000" || !strings.HasPrefix(e.Attrs["phase.decode"], "10") {
				t.Fatalf("incomplete span.end event: %+v", e)
			}
		}
	}
	if e := got[1]; e.Attrs["error"] != "status 400" { // request 6: the child ends first, then the failed root
		t.Fatalf("error attr missing from %+v", e)
	}
}

func TestServeEventsSSE(t *testing.T) {
	p := New(Config{Service: "ec2", Obs: obsv.New(1, 16)})
	srv := httptest.NewServer(http.HandlerFunc(p.ServeEvents))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "?kind=tenant.evicted")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	// Wait for the subscription to attach before publishing.
	deadline := time.Now().Add(2 * time.Second)
	for p.Bus.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never attached")
		}
		time.Sleep(time.Millisecond)
	}
	p.OnEvict()("s9", 3, "capacity", "spilled", 4096)
	p.Publish(Event{Kind: KindSpanEnd}) // filtered out

	sc := bufio.NewScanner(resp.Body)
	var frame []string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, ":") {
			continue
		}
		if line == "" {
			if len(frame) > 0 {
				break
			}
			continue
		}
		frame = append(frame, line)
	}
	if len(frame) != 3 || !strings.HasPrefix(frame[0], "id: ") ||
		frame[1] != "event: tenant.evicted" || !strings.HasPrefix(frame[2], "data: ") {
		t.Fatalf("SSE frame wrong: %q", frame)
	}
	var e Event
	if err := json.Unmarshal([]byte(strings.TrimPrefix(frame[2], "data: ")), &e); err != nil {
		t.Fatal(err)
	}
	if e.Session != "s9" || e.Attrs["reason"] != "capacity" || e.Attrs["shard"] != "3" {
		t.Fatalf("event payload wrong: %+v", e)
	}
}

func TestServeHealthzFlip(t *testing.T) {
	clock := obsv.NewFakeClock(time.Time{})
	p := New(Config{Service: "ec2", Obs: obsv.New(1, 16), Clock: clock,
		Objectives: Objectives{ErrorRate: 0.05}})
	sub := p.Bus.Subscribe(Filter{Kind: KindSLOBreach}, 4)

	// Healthy traffic.
	for i := 0; i < 100; i++ {
		p.Health.Record(false, time.Millisecond)
	}
	rec := httptest.NewRecorder()
	p.ServeHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("healthy server must 200, got %d: %s", rec.Code, rec.Body.String())
	}

	// Error burn in every window with data → breach → 503 + event.
	for i := 0; i < 100; i++ {
		p.Health.Record(true, time.Millisecond)
	}
	rec = httptest.NewRecorder()
	p.ServeHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("burning server must 503, got %d: %s", rec.Code, rec.Body.String())
	}
	var body healthPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "breach" || len(body.Checks) == 0 {
		t.Fatalf("payload wrong: %+v", body)
	}
	select {
	case e := <-sub.Events():
		if e.Kind != KindSLOBreach {
			t.Fatalf("want breach event, got %+v", e)
		}
	default:
		t.Fatal("transition into breach must publish a slo.breach event")
	}
	// Repeated 503s do not republish (transition-edge only).
	rec = httptest.NewRecorder()
	p.ServeHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	select {
	case <-sub.Events():
		t.Fatal("steady breach must not republish")
	default:
	}

	// Readyz flips on the fast window alone.
	rec = httptest.NewRecorder()
	p.ServeReadyz(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 503 {
		t.Fatalf("readyz must 503 under fast burn, got %d", rec.Code)
	}

	// A nil plane still answers probes.
	var nilP *Plane
	rec = httptest.NewRecorder()
	nilP.ServeHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("nil plane healthz = %d", rec.Code)
	}
}

// TestServeEventsHeartbeat: an idle SSE stream must carry ": keepalive"
// comments at the configured interval so intermediaries don't reap the
// connection, and a real event arriving between heartbeats still
// parses as a normal frame.
func TestServeEventsHeartbeat(t *testing.T) {
	p := New(Config{Service: "ec2", Obs: obsv.New(1, 16), Heartbeat: 20 * time.Millisecond})
	srv := httptest.NewServer(http.HandlerFunc(p.ServeEvents))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	type line struct {
		text string
		err  error
	}
	lines := make(chan line, 64)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- line{text: sc.Text()}
		}
		lines <- line{err: sc.Err()}
	}()
	read := func(what string) string {
		select {
		case l := <-lines:
			if l.err != nil {
				t.Fatalf("stream error waiting for %s: %v", what, l.err)
			}
			return l.text
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
			return ""
		}
	}

	// Nothing is published: the only traffic is comments (the opening
	// banner, then keepalives).
	keepalives := 0
	for keepalives < 2 {
		l := read("keepalive")
		switch {
		case l == ": keepalive":
			keepalives++
		case l == "" || strings.HasPrefix(l, ":"):
			// blank separators and other comments are fine
		default:
			t.Fatalf("idle stream sent non-comment line %q", l)
		}
	}

	p.Publish(Event{Kind: KindSpanEnd})
	var frame []string
	for {
		l := read("event frame")
		if strings.HasPrefix(l, ":") {
			continue // keepalives may interleave
		}
		if l == "" {
			if len(frame) > 0 {
				break
			}
			continue
		}
		frame = append(frame, l)
	}
	if len(frame) != 3 || frame[1] != "event: span.end" {
		t.Fatalf("frame after heartbeats wrong: %q", frame)
	}
}

// TestServeEventsNoHeartbeatWhenDisabled: a negative interval turns
// keepalives off — an idle stream stays silent.
func TestServeEventsNoHeartbeatWhenDisabled(t *testing.T) {
	p := New(Config{Service: "ec2", Obs: obsv.New(1, 16), Heartbeat: -1})
	srv := httptest.NewServer(http.HandlerFunc(p.ServeEvents))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 256)
	n, _ := resp.Body.Read(buf) // blocks until ctx deadline kills the idle stream
	if got := string(buf[:n]); strings.Contains(got, "keepalive") {
		t.Fatalf("disabled heartbeat still sent %q", got)
	}
}
