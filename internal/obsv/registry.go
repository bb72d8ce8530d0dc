package obsv

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a typed metrics registry: counters, gauges, and
// fixed-bucket histograms, identified by name plus label pairs, and
// exposed in Prometheus text format. An alignment run adds its counts
// to a Registry once it ends (align.Stats.PublishTo).
//
// Instruments are created on first use and memoized. A lookup of a
// series seen before costs one map probe and no allocation (see
// lookup), so request paths may re-look a series up per event; holding
// the returned instrument is still the cheapest. A nil *Registry is the
// disabled registry: lookups return nil instruments whose methods
// no-op.
type Registry struct {
	mu sync.Mutex
	// items is the series table, keyed by name plus the canonical
	// (key-sorted, escaped) label rendering the exposition prints.
	items map[string]*instrument
	// alias maps the raw spelling of a lookup — name and label pairs in
	// call order, see appendAliasKey — to its instrument, so only the
	// first lookup of each spelling pays for canonical rendering.
	alias map[string]*instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{items: map[string]*instrument{}, alias: map[string]*instrument{}}
}

// instrument is one series. The typed handles (Counter, Gauge,
// FloatGauge, Histogram) are this struct under another name, so
// handing one out is a pointer conversion, not an allocation.
type instrument struct {
	name   string
	labels string // canonical rendered {k="v",...} or ""
	kind   string // "counter" | "gauge" | "floatgauge" | "histogram"

	val  atomic.Int64  // counter/gauge
	fval atomic.Uint64 // floatgauge (Float64bits)
	hist *histogram
}

// exposKind maps the internal instrument kind to the Prometheus TYPE
// keyword (float gauges expose as plain gauges).
func exposKind(kind string) string {
	if kind == "floatgauge" {
		return "gauge"
	}
	return kind
}

// EscapeLabelValue escapes a label value per the Prometheus text
// exposition rules: backslash, double quote, and line feed are the
// only characters that need (and get) escaping. Go's %q is close but
// not conformant — it escapes control and non-ASCII characters into
// \u sequences Prometheus parsers reject.
func EscapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// renderLabels canonicalizes alternating key,value pairs into
// Prometheus label syntax, sorted by key. A trailing odd key is
// dropped.
func renderLabels(kv []string) string {
	if len(kv) < 2 {
		return ""
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, p.k, EscapeLabelValue(p.v))
	}
	b.WriteByte('}')
	return b.String()
}

// appendAliasKey appends the raw spelling of a lookup to dst: name
// and every label string in call order, each length-prefixed so no
// label value can make two spellings collide.
func appendAliasKey(dst []byte, name string, labels []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	dst = append(dst, name...)
	for _, l := range labels {
		dst = binary.AppendUvarint(dst, uint64(len(l)))
		dst = append(dst, l...)
	}
	return dst
}

// lookup finds or creates the instrument for (name, labels). A spelling
// seen before resolves through the alias index: the key is built in a
// stack buffer and the map is probed without converting it to a string,
// so a hit neither renders nor allocates. Only the first sight of a
// spelling renders the canonical label form, which is what makes
// permuted label orders land on one series. A kind clash (the same
// series requested as two different types) panics: that is a
// programming error worth failing loudly on.
func (r *Registry) lookup(kind, name string, labels []string) *instrument {
	if r == nil {
		return nil
	}
	var buf [192]byte
	raw := appendAliasKey(buf[:0], name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	in, seen := r.alias[string(raw)]
	if !seen {
		rendered := renderLabels(labels)
		if in = r.items[name+rendered]; in == nil {
			in = &instrument{name: name, labels: rendered, kind: kind}
			if kind == "histogram" {
				in.hist = newHistogram(bucketsFor(name))
			}
			r.items[name+rendered] = in
		}
	}
	if in.kind != kind {
		panic(fmt.Sprintf("obsv: metric %s registered as %s, requested as %s", in.name+in.labels, in.kind, kind))
	}
	if !seen {
		r.alias[string(raw)] = in
	}
	return in
}

// Counter is a monotonically increasing series.
type Counter instrument

// Counter returns the counter for name and label pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return (*Counter)(r.lookup("counter", name, labels))
}

// CounterOrNew is Counter, except that a nil registry yields a fresh
// standalone counter instead of the nil no-op. It is for components
// whose own Stats read the count: the counter is then the count's only
// copy, whether or not a registry exports it.
func (r *Registry) CounterOrNew(name string, labels ...string) *Counter {
	if r == nil {
		return new(Counter)
	}
	return r.Counter(name, labels...)
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative n is ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.val.Add(n)
}

// Value returns the current total.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.val.Load()
}

// Gauge is a series that can go up and down.
type Gauge instrument

// Gauge returns the gauge for name and label pairs.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return (*Gauge)(r.lookup("gauge", name, labels))
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.val.Store(v)
}

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.val.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.val.Load()
}

// FloatGauge is a float-valued series that can go up and down — the
// SLO engine's burn rates are ratios, which an integer gauge cannot
// carry without losing the signal near 1.0.
type FloatGauge instrument

// FloatGauge returns the float gauge for name and label pairs. It
// exposes as TYPE gauge; requesting the same series as an integer
// Gauge panics (kind clash).
func (r *Registry) FloatGauge(name string, labels ...string) *FloatGauge {
	return (*FloatGauge)(r.lookup("floatgauge", name, labels))
}

// Set stores v (NaN is ignored).
func (g *FloatGauge) Set(v float64) {
	if g == nil || math.IsNaN(v) {
		return
	}
	g.fval.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.fval.Load())
}

// DefaultDurationBuckets are the fixed histogram bounds, in seconds:
// exponential from 10µs to 10s, sized for in-process backend calls at
// the low end and retry-inflated chaos calls at the high end.
var DefaultDurationBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// PhaseDurationBuckets are the bounds of lce_phase_seconds alone:
// DefaultDurationBuckets extended down to 250ns, because most request
// phases (decode, session lookup, encode) finish well under the 10µs
// floor that suits whole requests. Request latency and the SLO engine
// keep DefaultDurationBuckets.
var PhaseDurationBuckets = append([]float64{2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6}, DefaultDurationBuckets...)

// bucketsFor returns the bounds a histogram family is created with.
func bucketsFor(name string) []float64 {
	if name == MetricPhaseSeconds {
		return PhaseDurationBuckets
	}
	return DefaultDurationBuckets
}

type histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is +Inf
	sumBits atomic.Uint64
	count   atomic.Int64
	// exemplars holds the most recent exemplar per bucket (last write
	// wins; an empty TraceID is an unused slot) — the trace-ID
	// breadcrumb that links a latency bucket to the request that landed
	// in it. Stored by value under exMu so recording one allocates
	// nothing; readers copy out.
	exMu      sync.Mutex
	exemplars []Exemplar
}

// Exemplar attaches one sampled observation's trace ID to a histogram
// bucket, rendered in the OpenMetrics exposition as
//
//	..._bucket{le="0.1"} 17 # {trace_id="7f3a..."} 0.083
//
// so a slow bucket resolves straight to a trace in /debug/traces.
type Exemplar struct {
	TraceID string
	Value   float64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{
		bounds:    bounds,
		counts:    make([]atomic.Int64, len(bounds)+1),
		exemplars: make([]Exemplar, len(bounds)+1),
	}
}

// observe records one sample and returns the bucket it landed in.
func (d *histogram) observe(v float64) int {
	i := sort.SearchFloat64s(d.bounds, v)
	d.counts[i].Add(1)
	d.count.Add(1)
	for {
		old := d.sumBits.Load()
		if d.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return i
		}
	}
}

// exemplar returns bucket i's exemplar, nil when none was recorded.
func (d *histogram) exemplar(i int) *Exemplar {
	d.exMu.Lock()
	ex := d.exemplars[i]
	d.exMu.Unlock()
	if ex.TraceID == "" {
		return nil
	}
	return &ex
}

// Histogram is a fixed-bucket distribution series.
type Histogram instrument

// Histogram returns the histogram for name and label pairs, with
// the family's buckets: PhaseDurationBuckets for lce_phase_seconds,
// DefaultDurationBuckets for everything else.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	return (*Histogram)(r.lookup("histogram", name, labels))
}

// Observe records one sample. Safe for concurrent use.
func (h *Histogram) Observe(v float64) { h.ObserveExemplar(v, "") }

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.ObserveExemplar(d.Seconds(), "") }

// ObserveExemplar records one sample and attaches traceID as the
// owning bucket's exemplar (an empty traceID records the sample only —
// the same pay-for-what-you-use rule as everywhere else in obsv).
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil || h.hist == nil || math.IsNaN(v) {
		return
	}
	d := h.hist
	i := d.observe(v)
	if traceID == "" {
		return
	}
	d.exMu.Lock()
	d.exemplars[i] = Exemplar{TraceID: traceID, Value: v}
	d.exMu.Unlock()
}

// ObserveDurationExemplar is ObserveExemplar over a duration in
// seconds.
func (h *Histogram) ObserveDurationExemplar(d time.Duration, traceID string) {
	h.ObserveExemplar(d.Seconds(), traceID)
}

// Exemplars returns the per-bucket exemplars (nil entries where no
// exemplar has been recorded); index len(bounds) is the +Inf bucket.
func (h *Histogram) Exemplars() []*Exemplar {
	if h == nil || h.hist == nil {
		return nil
	}
	out := make([]*Exemplar, len(h.hist.exemplars))
	for i := range out {
		out[i] = h.hist.exemplar(i)
	}
	return out
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	if h == nil || h.hist == nil {
		return 0
	}
	return h.hist.count.Load()
}

// Sum returns the sum of samples.
func (h *Histogram) Sum() float64 {
	if h == nil || h.hist == nil {
		return 0
	}
	return math.Float64frombits(h.hist.sumBits.Load())
}

// Quantile estimates the q-th quantile (q in [0, 1]) by linear
// interpolation within the owning bucket — the standard
// Prometheus-style estimate, accurate to the bucket width. Samples
// above the last bound report the last bound. Returns 0 with no
// samples.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.hist == nil {
		return 0
	}
	d := h.hist
	total := d.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i := range d.counts {
		c := d.counts[i].Load()
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= rank {
			if i >= len(d.bounds) {
				return d.bounds[len(d.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = d.bounds[i-1]
			}
			hi := d.bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return d.bounds[len(d.bounds)-1]
}

// QuantileDuration is Quantile converted to a duration.
func (h *Histogram) QuantileDuration(q float64) time.Duration {
	return time.Duration(h.Quantile(q) * float64(time.Second))
}

// snapshotItems returns the instruments sorted by (name, labels).
func (r *Registry) snapshotItems() []*instrument {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	items := make([]*instrument, 0, len(r.items))
	for _, in := range r.items {
		items = append(items, in)
	}
	r.mu.Unlock()
	sort.Slice(items, func(i, j int) bool {
		if items[i].name != items[j].name {
			return items[i].name < items[j].name
		}
		return items[i].labels < items[j].labels
	})
	return items
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4), instruments sorted by name then
// labels so the output is diffable.
func (r *Registry) WritePrometheus(w *strings.Builder) { r.writeExposition(w, false) }

// WriteOpenMetrics renders the OpenMetrics-flavoured exposition: the
// same deterministic body as WritePrometheus plus per-bucket histogram
// exemplars (`# {trace_id="..."} value` suffixes) and the mandatory
// `# EOF` trailer. Scrapers that ask for it get the trace-ID
// breadcrumbs; 0.0.4 scrapers keep the plain format.
func (r *Registry) WriteOpenMetrics(w *strings.Builder) { r.writeExposition(w, true) }

func (r *Registry) writeExposition(w *strings.Builder, openMetrics bool) {
	lastName := ""
	for _, in := range r.snapshotItems() {
		if in.name != lastName {
			fmt.Fprintf(w, "# TYPE %s %s\n", in.name, exposKind(in.kind))
			lastName = in.name
		}
		switch in.kind {
		case "counter", "gauge":
			fmt.Fprintf(w, "%s%s %d\n", in.name, in.labels, in.val.Load())
		case "floatgauge":
			fmt.Fprintf(w, "%s%s %s\n", in.name, in.labels, formatFloat(math.Float64frombits(in.fval.Load())))
		case "histogram":
			d := in.hist
			inner := strings.TrimSuffix(strings.TrimPrefix(in.labels, "{"), "}")
			var cum int64
			for i := 0; i <= len(d.bounds); i++ {
				le := `le="+Inf"`
				if i < len(d.bounds) {
					le = fmt.Sprintf(`le="%s"`, formatFloat(d.bounds[i]))
				}
				cum += d.counts[i].Load()
				fmt.Fprintf(w, "%s_bucket%s %d", in.name, joinLabels(inner, le), cum)
				if openMetrics {
					if ex := d.exemplar(i); ex != nil {
						fmt.Fprintf(w, ` # {trace_id="%s"} %s`, EscapeLabelValue(ex.TraceID), formatFloat(ex.Value))
					}
				}
				w.WriteByte('\n')
			}
			fmt.Fprintf(w, "%s_sum%s %s\n", in.name, in.labels, formatFloat(math.Float64frombits(d.sumBits.Load())))
			fmt.Fprintf(w, "%s_count%s %d\n", in.name, in.labels, d.count.Load())
		}
	}
	if openMetrics {
		w.WriteString("# EOF\n")
	}
}

func joinLabels(inner, extra string) string {
	if inner == "" {
		return "{" + extra + "}"
	}
	return "{" + inner + "," + extra + "}"
}

func formatFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	return s
}

// OpenMetricsContentType is the content type served when a scraper
// negotiates the exemplar-bearing exposition.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// ServeHTTP implements http.Handler: GET /metrics in Prometheus text
// format, or the OpenMetrics-flavoured format (with histogram
// exemplars) when the Accept header asks for application/openmetrics-text.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	var b strings.Builder
	if req != nil && strings.Contains(req.Header.Get("Accept"), "application/openmetrics-text") {
		r.WriteOpenMetrics(&b)
		w.Header().Set("Content-Type", OpenMetricsContentType)
	} else {
		r.WritePrometheus(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	}
	_, _ = w.Write([]byte(b.String()))
}
