package eval

import (
	"strings"
	"testing"
)

const perfArtifact = `{
  "schemaVersion": 6,
  "goMaxProcs": 4,
  "batchAmortization": [
    {"n": 8, "rttNs": 200000, "singlesNs": 2400000, "batchNs": 800000, "speedup": 3.0}
  ],
  "opsOverhead": [
    {"mode": "off", "requests": 300, "perReqNs": 50000, "allocsPerReq": 120.0},
    {"mode": "on", "requests": 300, "perReqNs": 60000, "allocsPerReq": 150.0}
  ],
  "durable": {
    "journalWritePath": [
      {"mode": "fsync=always", "calls": 128, "perCallNs": 40000}
    ]
  },
  "phases": {
    "scenarios": [
      {"name": "durable", "requests": 200, "coverage": 0.999,
       "phases": [
         {"phase": "fsync", "count": 200, "p50Ns": 30000, "p99Ns": 90000, "meanNs": 35000},
         {"phase": "decode", "count": 200, "p50Ns": 900, "p99Ns": 2000, "meanNs": 1000}
       ]}
    ]
  }
}`

func TestExtractPerfMetrics(t *testing.T) {
	schema, metrics, err := ExtractPerfMetrics([]byte(perfArtifact))
	if err != nil {
		t.Fatal(err)
	}
	if schema != 6 {
		t.Errorf("schema = %d, want 6", schema)
	}
	byName := map[string]PerfMetric{}
	for _, m := range metrics {
		byName[m.Name] = m
	}
	want := map[string]struct {
		value        float64
		latency      bool
		higherBetter bool
	}{
		"batchAmortization.n=8.speedup":                   {3.0, false, true},
		"opsOverhead.on.perReqNs":                         {60000, true, false},
		"opsOverhead.on.allocsPerReq":                     {150, false, false},
		"durable.journalWritePath.fsync=always.perCallNs": {40000, true, false},
		"phases.scenarios.durable.phases.fsync.p99Ns":     {90000, true, false},
		"phases.scenarios.durable.phases.decode.meanNs":   {1000, true, false},
	}
	for name, w := range want {
		m, ok := byName[name]
		if !ok {
			t.Errorf("metric %q not extracted (have %d metrics)", name, len(metrics))
			continue
		}
		if m.Value != w.value || m.Latency != w.latency || m.HigherBetter != w.higherBetter {
			t.Errorf("%s = %+v, want value=%g latency=%v higherBetter=%v", name, m, w.value, w.latency, w.higherBetter)
		}
	}
	// Workload parameters must not become metrics.
	for _, m := range metrics {
		if strings.HasSuffix(m.Name, ".calls") || strings.HasSuffix(m.Name, ".requests") || strings.HasSuffix(m.Name, ".count") {
			t.Errorf("parameter leaked into metrics: %s", m.Name)
		}
	}
}

func TestExtractPerfMetricsRejectsOldSchema(t *testing.T) {
	if _, _, err := ExtractPerfMetrics([]byte(`{"schemaVersion": 2}`)); err == nil {
		t.Error("schema v2 accepted, want error")
	}
	if _, _, err := ExtractPerfMetrics([]byte(`{"goMaxProcs": 4}`)); err == nil {
		t.Error("missing schemaVersion accepted, want error")
	}
	if _, _, err := ExtractPerfMetrics([]byte(`not json`)); err == nil {
		t.Error("non-JSON accepted, want error")
	}
}

func TestComparePerfIdentical(t *testing.T) {
	_, m, err := ExtractPerfMetrics([]byte(perfArtifact))
	if err != nil {
		t.Fatal(err)
	}
	d := ComparePerf(m, m, 0.25, 0.5)
	if len(d.Regressions) != 0 {
		t.Errorf("identical artifacts regressed: %v", d.Regressions)
	}
	if d.Compared == 0 {
		t.Error("nothing compared")
	}
}

func TestComparePerfLatencyGating(t *testing.T) {
	old := []PerfMetric{{Name: "phases.durable.fsync.p99Ns", Value: 30000, Latency: true}}
	doubled := []PerfMetric{{Name: "phases.durable.fsync.p99Ns", Value: 60000, Latency: true}}

	// Without a latency tolerance the machine-dependent metric is
	// skipped, not judged.
	d := ComparePerf(old, doubled, 0.25, 0)
	if len(d.Regressions) != 0 || d.SkippedLatency != 1 {
		t.Errorf("latTol=0: regressions=%v skipped=%d, want none skipped=1", d.Regressions, d.SkippedLatency)
	}
	// With one, a 2x fsync is a regression.
	d = ComparePerf(old, doubled, 0.25, 0.5)
	if len(d.Regressions) != 1 {
		t.Fatalf("latTol=0.5: regressions=%v, want 1", d.Regressions)
	}
	if r := d.Regressions[0]; r.Change < 0.99 || r.Change > 1.01 {
		t.Errorf("change = %g, want ~1.0 (doubled)", r.Change)
	}
}

func TestComparePerfRatioDirections(t *testing.T) {
	old := []PerfMetric{
		{Name: "speedup", Value: 4.0, HigherBetter: true},
		{Name: "allocs", Value: 100},
	}
	worse := []PerfMetric{
		{Name: "speedup", Value: 2.0, HigherBetter: true}, // halved speedup
		{Name: "allocs", Value: 100},
	}
	d := ComparePerf(old, worse, 0.25, 0)
	if len(d.Regressions) != 1 || d.Regressions[0].Name != "speedup" {
		t.Errorf("regressions = %v, want halved speedup flagged", d.Regressions)
	}
	// Improvement in the good direction never fails.
	better := []PerfMetric{
		{Name: "speedup", Value: 8.0, HigherBetter: true},
		{Name: "allocs", Value: 50},
	}
	if d := ComparePerf(old, better, 0.25, 0); len(d.Regressions) != 0 {
		t.Errorf("improvements flagged: %v", d.Regressions)
	}
}

func TestComparePerfOneSided(t *testing.T) {
	old := []PerfMetric{{Name: "gone", Value: 1}}
	new := []PerfMetric{{Name: "fresh", Value: 1}}
	d := ComparePerf(old, new, 0.25, 0)
	if len(d.Regressions) != 0 {
		t.Errorf("one-sided metrics regressed: %v", d.Regressions)
	}
	if len(d.Notes) != 2 {
		t.Errorf("notes = %v, want new-metric + disappeared", d.Notes)
	}
}
