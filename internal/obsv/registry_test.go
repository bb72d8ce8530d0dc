package obsv

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter must stay 0")
	}
	g := r.Gauge("y")
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge must stay 0")
	}
	h := r.Histogram("z")
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram must stay empty")
	}
	if r.snapshotItems() != nil {
		t.Fatal("nil registry must have no items")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("lce_http_requests_total", "route", "invoke")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters only go up
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	// Same name+labels resolves to the same series regardless of pair order.
	c2 := r.Counter("lce_http_requests_total", "route", "invoke")
	if c2.Value() != 3 {
		t.Fatal("memoization broken")
	}
	g := r.Gauge("lce_workers")
	g.Set(8)
	g.Add(-3)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
}

func TestLabelCanonicalization(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "b", "2", "a", "1").Inc()
	r.Counter("m", "a", "1", "b", "2").Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, `m{a="1",b="2"} 2`) {
		t.Fatalf("label order must canonicalize:\n%s", out)
	}
	// Every spelling of a series — first sight or alias hit, any pair
	// order — is the same instrument, and a value that merely looks like
	// another spelling's bytes is not.
	first := r.Counter("m", "a", "1", "b", "2")
	for i := 0; i < 3; i++ {
		if r.Counter("m", "b", "2", "a", "1") != first || r.Counter("m", "a", "1", "b", "2") != first {
			t.Fatal("permuted label order resolved to a different instrument")
		}
	}
	if r.Counter("m", "a", "1b", "2", "") == first || r.Counter("m", "a", "1", "b", "2\x00") == first {
		t.Fatal("distinct label values collided in the alias index")
	}
	if got := first.Value(); got != 2 {
		t.Fatalf("shared series = %d, want 2", got)
	}
	// Histograms and gauges hand out stable handles the same way.
	if r.Histogram("h", "x", "1", "y", "2") != r.Histogram("h", "y", "2", "x", "1") {
		t.Fatal("permuted histogram labels resolved to different instruments")
	}
}

// TestKindClashPanics: asking for a series under a second type fails
// loudly whether the lookup resolves through the alias index (a
// spelling seen before) or through canonical rendering (a new spelling
// of an existing series), and a failed lookup registers nothing.
func TestKindClashPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, `m{a="1",b="2"} registered as counter, requested as`) {
				t.Fatalf("%s: panic = %q", name, msg)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("m", "a", "1", "b", "2")
	mustPanic("alias path", func() { r.Gauge("m", "a", "1", "b", "2") })
	mustPanic("canonical path", func() { r.Histogram("m", "b", "2", "a", "1") })
	mustPanic("canonical path, again", func() { r.Histogram("m", "b", "2", "a", "1") })
	mustPanic("float gauge", func() { r.FloatGauge("m", "b", "2", "a", "1") })
	if n := len(r.snapshotItems()); n != 1 {
		t.Fatalf("registry holds %d series after the clashes, want 1", n)
	}
	// The registry is still usable: the panics released its lock.
	r.Counter("m", "b", "2", "a", "1").Inc()
}

// TestRegistryConcurrentFirstSight: many goroutines meeting the same
// new series at once — each under its own label order — must end up
// on one instrument with no lost increments (run under -race).
func TestRegistryConcurrentFirstSight(t *testing.T) {
	r := NewRegistry()
	const workers, series = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < series; i++ {
				id := strconv.Itoa(i)
				if w%2 == 0 {
					r.Counter("c", "series", id, "kind", "x").Inc()
					r.Histogram("h", "series", id, "kind", "x").ObserveExemplar(1e-3, "t")
				} else {
					r.Counter("c", "kind", "x", "series", id).Inc()
					r.Histogram("h", "kind", "x", "series", id).ObserveExemplar(1e-3, "t")
				}
			}
		}(w)
	}
	wg.Wait()
	if n := len(r.snapshotItems()); n != 2*series {
		t.Fatalf("registry holds %d series, want %d", n, 2*series)
	}
	for i := 0; i < series; i++ {
		id := strconv.Itoa(i)
		if got := r.Counter("c", "series", id, "kind", "x").Value(); got != workers {
			t.Fatalf("series %d counted %d, want %d", i, got, workers)
		}
		if got := r.Histogram("h", "series", id, "kind", "x").Count(); got != workers {
			t.Fatalf("series %d observed %d, want %d", i, got, workers)
		}
	}
}

// TestPhaseSecondsBuckets: lce_phase_seconds alone resolves below
// 10µs; every other family keeps DefaultDurationBuckets, and the finer
// exposition still lints.
func TestPhaseSecondsBuckets(t *testing.T) {
	r := NewRegistry()
	ph := r.Histogram(MetricPhaseSeconds, "phase", PhaseDecode, "service", "ec2")
	ph.ObserveDurationExemplar(300*time.Nanosecond, "00000000000000aa")
	ph.ObserveDuration(3 * time.Microsecond)
	ph.ObserveDuration(30 * time.Microsecond)
	r.Histogram(MetricHTTPSeconds, "route", "v2.invoke").ObserveDuration(300 * time.Nanosecond)

	var b strings.Builder
	r.WriteOpenMetrics(&b)
	out := b.String()
	for _, want := range []string{
		`lce_phase_seconds_bucket{phase="decode",service="ec2",le="2.5e-07"} 0`,
		`lce_phase_seconds_bucket{phase="decode",service="ec2",le="5e-07"} 1 # {trace_id="00000000000000aa"} 3e-07`,
		`lce_phase_seconds_bucket{phase="decode",service="ec2",le="1e-06"} 1`,
		`lce_phase_seconds_bucket{phase="decode",service="ec2",le="2.5e-06"} 1`,
		`lce_phase_seconds_bucket{phase="decode",service="ec2",le="5e-06"} 2`,
		`lce_phase_seconds_bucket{phase="decode",service="ec2",le="1e-05"} 2`,
		`lce_phase_seconds_bucket{phase="decode",service="ec2",le="+Inf"} 3`,
		`lce_http_request_seconds_bucket{route="v2.invoke",le="1e-05"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition lacks %q", want)
		}
	}
	if strings.Contains(out, `lce_http_request_seconds_bucket{route="v2.invoke",le="5e-06"}`) {
		t.Error("lce_http_request_seconds gained sub-10µs buckets; only lce_phase_seconds should")
	}
	if got := ph.QuantileDuration(0.3); got > 500*time.Nanosecond {
		t.Errorf("phase p30 = %v, want it resolved inside the 500ns bucket", got)
	}
	if _, err := LintExposition(strings.NewReader(out)); err != nil {
		t.Errorf("exposition with the finer phase buckets does not lint: %v", err)
	}
}

// BenchmarkRegistryLookupHit is the cost of meeting a series again —
// what every request pays per metric touch. It fails if a hit
// allocates.
func BenchmarkRegistryLookupHit(b *testing.B) {
	r := NewRegistry()
	lookup := func() {
		r.Counter(MetricHTTPRequests, "route", "v2.invoke",
			"service", "ec2", "action", "DescribeSubnets", "session", "s00", "code", "OK").Inc()
		r.Histogram(MetricPhaseSeconds, "phase", PhaseDispatch, "service", "ec2").ObserveDurationExemplar(time.Microsecond, "00000000000000aa")
	}
	lookup()
	if allocs := testing.AllocsPerRun(100, lookup); allocs != 0 {
		b.Fatalf("a registry hit allocates %.1f objects, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookup()
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lce_backend_op_seconds", "action", "CreateVpc")
	// 100 samples at 1ms, 100 at 100ms: p50 must land in the 1ms
	// bucket, p99 in the 100ms one (bucket-width accuracy).
	for i := 0; i < 100; i++ {
		h.Observe(0.001)
		h.Observe(0.1)
	}
	if h.Count() != 200 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Quantile(0.5); got > 0.0025 {
		t.Fatalf("p50 = %v, want <= 2.5ms bucket", got)
	}
	if got := h.Quantile(0.99); got < 0.05 || got > 0.1 {
		t.Fatalf("p99 = %v, want within the 100ms bucket", got)
	}
	if h.Quantile(0) > h.Quantile(1) {
		t.Fatal("quantiles must be monotone")
	}
	// Overflow samples clamp to the last bound.
	h2 := r.Histogram("overflow")
	h2.Observe(1e9)
	if got := h2.Quantile(0.5); got != DefaultDurationBuckets[len(DefaultDurationBuckets)-1] {
		t.Fatalf("overflow quantile = %v", got)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("lce_http_requests_total", "route", "invoke").Add(7)
	r.Gauge("lce_up").Set(1)
	h := r.Histogram("lce_backend_op_seconds", "action", "X")
	h.Observe(0.003)

	srv := httptest.NewServer(r)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	out := string(buf[:n])

	for _, want := range []string{
		"# TYPE lce_http_requests_total counter",
		`lce_http_requests_total{route="invoke"} 7`,
		"# TYPE lce_up gauge",
		"lce_up 1",
		"# TYPE lce_backend_op_seconds histogram",
		`lce_backend_op_seconds_bucket{action="X",le="+Inf"} 1`,
		`lce_backend_op_seconds_count{action="X"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "path", "a\\b\"c\nd").Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	want := `m{path="a\\b\"c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaping wrong, want %s in:\n%s", want, b.String())
	}
	// Non-ASCII and control characters other than \n pass through raw
	// (UTF-8 label values are legal in the text format).
	if got := EscapeLabelValue("héllo\tworld"); got != "héllo\tworld" {
		t.Fatalf("over-escaped: %q", got)
	}
}

func TestFloatGauge(t *testing.T) {
	r := NewRegistry()
	g := r.FloatGauge("lce_slo_burn_rate", "slo", "error-rate", "window", "5m")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("value = %v", g.Value())
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, "# TYPE lce_slo_burn_rate gauge") {
		t.Fatalf("float gauge must expose as TYPE gauge:\n%s", out)
	}
	if !strings.Contains(out, `lce_slo_burn_rate{slo="error-rate",window="5m"} 2.5`) {
		t.Fatalf("float gauge sample missing:\n%s", out)
	}
	var nilG *FloatGauge
	nilG.Set(1)
	if nilG.Value() != 0 {
		t.Fatal("nil float gauge must stay 0")
	}
}

func TestHistogramExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lce_http_request_seconds", "route", "invoke")
	h.ObserveExemplar(0.003, "00000000deadbeef")
	h.ObserveExemplar(0.004, "00000000cafebabe") // same bucket: last write wins
	h.ObserveDurationExemplar(2*time.Second, "1111111122222222")
	h.Observe(0.5) // no exemplar

	var om, prom strings.Builder
	r.WriteOpenMetrics(&om)
	r.WritePrometheus(&prom)
	if strings.Contains(prom.String(), "trace_id") {
		t.Fatalf("0.0.4 exposition must not carry exemplars:\n%s", prom.String())
	}
	out := om.String()
	for _, want := range []string{
		`lce_http_request_seconds_bucket{route="invoke",le="0.005"} 2 # {trace_id="00000000cafebabe"} 0.004`,
		`# {trace_id="1111111122222222"} 2`,
		"# EOF",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("openmetrics missing %q:\n%s", want, out)
		}
	}
	// Buckets without exemplars render bare.
	if strings.Contains(out, `le="0.5"} 3 #`) {
		t.Fatalf("bucket without exemplar must render bare:\n%s", out)
	}
	// Content negotiation: the Accept header selects the format.
	srv := httptest.NewServer(r)
	defer srv.Close()
	req, _ := http.NewRequest("GET", srv.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != OpenMetricsContentType {
		t.Fatalf("content type %q", ct)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if got, want := h.Sum(), 8.0; got < want-0.01 || got > want+0.01 {
		t.Fatalf("sum = %v, want ~%v", got, want)
	}
}

func TestObsSummaryAndFakeClock(t *testing.T) {
	o := New(11, 0)
	clock := NewFakeClock(time.Time{})
	o.Tracer.SetClock(clock)
	ctx := o.Context(nil)
	ctx, root := o.Tracer.StartRootKeyed(ctx, SpanAlignTrace, 0)
	_, c := StartSpan(ctx, SpanCallPfx+"CreateVpc")
	clock.Advance(2 * time.Millisecond)
	c.End()
	root.End()
	RegistryFrom(ctx).Histogram(MetricBackendOpSeconds, "action", "CreateVpc").ObserveDuration(2 * time.Millisecond)

	sum := o.Summary()
	for _, want := range []string{"align.trace", "call.*", "backend ops", "CreateVpc"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q:\n%s", want, sum)
		}
	}
	var disabled *Obs
	if disabled.Summary() != "" || disabled.Enabled() {
		t.Fatal("nil Obs must be silent")
	}
	if (&Obs{}).Summary() != "" {
		t.Fatal("empty Obs must be silent")
	}
}
