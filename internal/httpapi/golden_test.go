package httpapi_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"lce"
	"lce/internal/cloudapi"
	"lce/internal/httpapi"
	"lce/internal/obsv"
	"lce/internal/opsplane"
	"lce/internal/tenant"
)

// The files under testdata/signals were written by this same script
// run against the commit before the change they gate. They pin every
// signal the request path emits — /metrics in both content
// negotiations, the JSONL trace export, the flight dump, the bus events
// a mid-run subscriber sees, and each response with its Server-Timing
// header — so a change that makes a signal cheaper has to leave its
// bytes alone.

// scriptedBackend advances the fake clock inside every Invoke by the
// next scripted amount, so the run has non-trivial, repeatable
// durations that depend on nothing but the request sequence. Inner
// exposes the emulator so error advice matches a served emulator's.
type scriptedBackend struct {
	cloudapi.Backend
	clock *obsv.FakeClock
	calls *int
}

// Whole microseconds or clear of the half-microsecond, so Server-Timing
// (milliseconds to three decimals) renders them without a rounding tie.
var scriptedCosts = []time.Duration{
	300 * time.Nanosecond, 7 * time.Microsecond, 700 * time.Nanosecond, 40 * time.Microsecond,
	2 * time.Microsecond, 300 * time.Microsecond, 4 * time.Microsecond, 3 * time.Millisecond,
}

func (b *scriptedBackend) Invoke(req cloudapi.Request) (cloudapi.Result, error) {
	b.clock.Advance(scriptedCosts[*b.calls%len(scriptedCosts)])
	*b.calls++
	return b.Backend.Invoke(req)
}

func (b *scriptedBackend) Inner() cloudapi.Backend { return b.Backend }

// signalStack assembles the node handler the way lce.NewServer does,
// but with every clock a FakeClock and every session backend scripted.
func signalStack(t *testing.T) (http.Handler, *opsplane.Plane, *obsv.FakeClock) {
	t.Helper()
	clock := obsv.NewFakeClock(time.Unix(1_700_000_000, 0).UTC())
	base, err := lce.NewBackend("ec2", "learned", false)
	if err != nil {
		t.Fatal(err)
	}
	fork := cloudapi.FactoryOf(base)
	calls := 0
	factory := func() cloudapi.Backend {
		// Creating a session costs time too: it lands in session.lookup.
		clock.Advance(2 * time.Microsecond)
		return &scriptedBackend{Backend: fork(), clock: clock, calls: &calls}
	}
	ob := obsv.New(1, 0)
	ob.Tracer.SetClock(clock)
	ops := opsplane.New(opsplane.Config{Service: "ec2", Obs: ob, Clock: clock, Objectives: opsplane.DefaultObjectives()})
	pool, err := tenant.New(factory, tenant.Config{Shards: 8, Capacity: 64, IdleTTL: 15 * time.Minute,
		Clock: clock, Registry: ob.Registry, OnEvict: ops.OnEvict()})
	if err != nil {
		t.Fatal(err)
	}
	h := httpapi.New(factory(), httpapi.WithPool(pool), httpapi.WithObs(ob), httpapi.WithOps(ops), httpapi.WithNode("n1"))
	return h, ops, clock
}

// signalRun drives the script and returns every output by golden name.
func signalRun(t *testing.T) map[string]string {
	h, ops, clock := signalStack(t)
	var responses strings.Builder
	do := func(method, path, body string, hdr ...string) *httptest.ResponseRecorder {
		clock.Advance(time.Millisecond)
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		for i := 0; i+1 < len(hdr); i += 2 {
			req.Header.Set(hdr[i], hdr[i+1])
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		fmt.Fprintf(&responses, "%s %s -> %d\n", method, path, rec.Code)
		keys := make([]string, 0, len(rec.Header()))
		for k := range rec.Header() {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&responses, "  %s: %s\n", k, strings.Join(rec.Header()[k], " | "))
		}
		fmt.Fprintf(&responses, "  %s\n", strings.TrimSuffix(rec.Body.String(), "\n"))
		return rec
	}
	cycle := func(session string, steps []httpapi.CycleStep, traced bool) {
		for i, s := range steps {
			hdr := []string{httpapi.SessionHeader, session}
			if traced {
				// One upstream trace; a fresh parent span per request, as a
				// router's forward spans would be.
				hdr = append(hdr, obsv.TraceHeader, fmt.Sprintf("00000000000000aa-%016x-01", 0xb0+i))
			}
			do("POST", s.Path(), s.Body(), hdr...)
		}
	}

	// With nobody subscribed: the whole cycle, then the failing shapes.
	cycle("s00", cycleSteps, false)
	do("POST", "/v2/ec2?Action=CreateVpc", `{"params":`)
	do("POST", "/v2/dynamodb?Action=ListTables", `{}`, httpapi.SessionHeader, "s00")
	do("POST", "/v2/ec2", `{"action":"DescribeSubnets"}`, httpapi.SessionHeader, "s00")
	do("POST", "/v2/ec2?Action=Describe%56pcs&x=1", ``, httpapi.SessionHeader, "s00")

	// A subscriber attached mid-run must see complete events from its
	// first one; it also proves the sequence kept advancing unobserved.
	sub := ops.Bus.Subscribe(opsplane.Filter{}, 1024)
	cycle("s01", cycleSteps[:12], true)
	do("POST", "/v2/ec2/batch", `{"mode":"best-effort","requests":[{"action":"DescribeVpcs"},{"action":"DeleteVpc","params":{"vpcId":"vpc-404"}}]}`,
		httpapi.SessionHeader, "s01")
	do("GET", "/actions", "")
	do("GET", "/v2/sessions", "")
	do("GET", "/healthz", "")
	sub.Close()
	var events strings.Builder
	for e := range sub.Events() {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		events.Write(line)
		events.WriteByte('\n')
	}

	get := func(path string, hdr ...string) string {
		req := httptest.NewRequest("GET", path, nil)
		for i := 0; i+1 < len(hdr); i += 2 {
			req.Header.Set(hdr[i], hdr[i+1])
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s answered %d", path, rec.Code)
		}
		return rec.Body.String()
	}
	return map[string]string{
		"responses.txt":       responses.String(),
		"events.jsonl":        events.String(),
		"metrics.prom":        get("/metrics"),
		"metrics.openmetrics": get("/metrics", "Accept", "application/openmetrics-text"),
		"traces.jsonl":        get("/debug/traces?format=jsonl"),
		"flight.json":         get("/debug/flightrecorder"),
	}
}

func TestSignalsMatchParentGolden(t *testing.T) {
	got := signalRun(t)
	for name, have := range got {
		golden, err := os.ReadFile(filepath.Join("testdata", "signals", name))
		if err != nil {
			t.Fatal(err)
		}
		if want := string(golden); have != want {
			t.Errorf("%s differs from the parent's bytes: %s", name, firstDiff(want, have))
		}
	}
	for _, name := range []string{"metrics.prom", "metrics.openmetrics"} {
		if _, err := obsv.LintExposition(strings.NewReader(got[name])); err != nil {
			t.Errorf("%s does not lint: %v", name, err)
		}
	}
}

// firstDiff names the first line two texts disagree on.
func firstDiff(want, have string) string {
	w, h := strings.Split(want, "\n"), strings.Split(have, "\n")
	for i := 0; i < len(w) || i < len(h); i++ {
		var wl, hl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(h) {
			hl = h[i]
		}
		if wl != hl {
			return fmt.Sprintf("line %d\n  parent: %s\n  now:    %s", i+1, wl, hl)
		}
	}
	return "no line differs"
}

// TestSignalRunIsDeterministic guards the golden test's premise: the
// script's outputs depend on nothing but the script.
func TestSignalRunIsDeterministic(t *testing.T) {
	a, b := signalRun(t), signalRun(t)
	for name := range a {
		if !bytes.Equal([]byte(a[name]), []byte(b[name])) {
			t.Errorf("%s differs between two runs: %s", name, firstDiff(a[name], b[name]))
		}
	}
}
