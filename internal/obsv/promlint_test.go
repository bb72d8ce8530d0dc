package obsv

import (
	"strings"
	"testing"
	"time"
)

// TestLintLiveExposition feeds the linter the registry's own output —
// the same bytes /metrics serves — in both exposition flavours. The
// registry exercises every instrument kind, multi-label series,
// values needing escaping, and exemplars.
func TestLintLiveExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("lce_http_requests_total",
		"route", "v2.invoke", "service", "ec2", "action", "CreateVpc", "session", "s00", "code", "OK").Add(7)
	reg.Counter("lce_http_requests_total",
		"route", "v2.reset", "service", "ec2", "action", "", "session", "s00", "code", "OK").Add(2)
	reg.Counter("lce_http_requests_total",
		"route", "v2.invoke", "service", "ec2", "action", "CreateVpc", "session", "al\"ice\n", "code", "OK").Inc()
	reg.Gauge("lce_sessions_resident", "shard", "0").Set(3)
	reg.FloatGauge("lce_slo_burn_rate", "slo", "error-rate", "window", "5m0s").Set(0.42)
	h := reg.Histogram("lce_http_request_seconds", "route", "invoke")
	h.ObserveDuration(3 * time.Millisecond)
	h.ObserveDurationExemplar(40*time.Millisecond, "deadbeefcafe0001")
	reg.Histogram("lce_http_request_seconds", "route", "reset").ObserveDuration(time.Millisecond)

	for _, tc := range []struct {
		name string
		om   bool
	}{{"prometheus", false}, {"openmetrics", true}} {
		var b strings.Builder
		if tc.om {
			reg.WriteOpenMetrics(&b)
		} else {
			reg.WritePrometheus(&b)
		}
		st, err := LintExposition(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("%s: lint failed: %v\nbody:\n%s", tc.name, err, b.String())
		}
		if st.Families != 4 {
			t.Errorf("%s: families = %d, want 4", tc.name, st.Families)
		}
		if st.OpenMetrics != tc.om {
			t.Errorf("%s: OpenMetrics = %v", tc.name, st.OpenMetrics)
		}
		if tc.om && st.Exemplars == 0 {
			t.Errorf("openmetrics: no exemplars seen")
		}
		if !tc.om && st.Exemplars != 0 {
			t.Errorf("prometheus: exemplars leaked into 0.0.4 format")
		}
	}
}

func TestLintRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"unsorted families":         "# TYPE b counter\nb 1\n# TYPE a counter\na 1\n",
		"sample before TYPE":        "a_total 1\n",
		"sample outside family":     "# TYPE a counter\nb 1\n",
		"bad label name":            "# TYPE a counter\na{0x=\"v\"} 1\n",
		"bad escape":                "# TYPE a counter\na{k=\"v\\t\"} 1\n",
		"unterminated value":        "# TYPE a counter\na{k=\"v} 1\n",
		"duplicate label":           "# TYPE a counter\na{k=\"1\",k=\"2\"} 1\n",
		"duplicate series":          "# TYPE a counter\na{k=\"1\"} 1\na{k=\"1\"} 2\n",
		"unsorted series":           "# TYPE a counter\na{k=\"2\"} 1\na{k=\"1\"} 2\n",
		"non-numeric value":         "# TYPE a counter\na{k=\"1\"} x\n",
		"non-cumulative buckets":    "# TYPE a histogram\na_bucket{le=\"1\"} 5\na_bucket{le=\"+Inf\"} 3\na_sum 1\na_count 3\n",
		"count mismatch":            "# TYPE a histogram\na_bucket{le=\"+Inf\"} 3\na_sum 1\na_count 4\n",
		"missing +Inf":              "# TYPE a histogram\na_bucket{le=\"1\"} 3\na_sum 1\na_count 3\n",
		"exemplar on counter":       "# TYPE a counter\na 1 # {trace_id=\"x\"} 1\n",
		"exemplar without trace_id": "# TYPE a histogram\na_bucket{le=\"+Inf\"} 1 # {span=\"x\"} 1\na_sum 1\na_count 1\n",
		"content after EOF":         "# TYPE a counter\na 1\n# EOF\na 2\n",
		"blank line":                "# TYPE a counter\n\na 1\n",
	}
	for name, body := range cases {
		if _, err := LintExposition(strings.NewReader(body)); err == nil {
			t.Errorf("%s: lint accepted malformed body:\n%s", name, body)
		}
	}
}

// TestLintRejectsMixedLabelSets: a family whose series carry different
// label-name sets fails the lint, while every other rule holds — the
// series below are sorted, unique and well formed.
func TestLintRejectsMixedLabelSets(t *testing.T) {
	cases := map[string]string{
		"counter":                    "# TYPE a counter\na{code=\"OK\",route=\"x\"} 1\na{route=\"x\"} 1\n",
		"unlabelled beside labelled": "# TYPE a counter\na 1\na{k=\"1\"} 1\n",
		"histogram": "# TYPE a histogram\na_bucket{k=\"1\",le=\"+Inf\"} 1\na_sum{k=\"1\"} 1\na_count{k=\"1\"} 1\n" +
			"a_bucket{j=\"1\",k=\"2\",le=\"+Inf\"} 1\na_sum{j=\"1\",k=\"2\"} 1\na_count{j=\"1\",k=\"2\"} 1\n",
	}
	for name, body := range cases {
		_, err := LintExposition(strings.NewReader(body))
		if err == nil || !strings.Contains(err.Error(), "mixes label sets") {
			t.Errorf("%s: lint error = %v, want a mixed-label-set violation:\n%s", name, err, body)
		}
	}
}
