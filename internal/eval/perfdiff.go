package eval

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// PerfMetric is one comparable scalar extracted from a bench artifact:
// a dotted path naming where it came from
// ("batchAmortization.n=8.speedup", "phases.durable.fsync.p99Ns") plus
// how to judge a change in it.
type PerfMetric struct {
	Name  string
	Value float64
	// Latency marks machine-dependent wall-clock metrics (the
	// Ns-suffixed fields and raw throughput). Two artifacts from
	// different runners disagree on these for reasons that have
	// nothing to do with the code, so ComparePerf only gates them
	// when given an explicit latency tolerance.
	Latency bool
	// HigherBetter orients the regression test: true for speedups and
	// throughput, false for latencies and allocation counts.
	HigherBetter bool
}

// perfMetricClass maps artifact field names to their comparison class.
// Fields not listed here (request counts, workload sizes, byte totals,
// booleans) are benchmark parameters, not performance results, and are
// never compared.
var perfMetricClass = map[string]struct{ latency, higherBetter bool }{
	"speedup":             {false, true},
	"allocsPerReq":        {false, false},
	"perCallNs":           {true, false},
	"perReqNs":            {true, false},
	"p50CallNs":           {true, false},
	"p99CallNs":           {true, false},
	"p50Ns":               {true, false},
	"p99Ns":               {true, false},
	"meanNs":              {true, false},
	"spillNsPerCycle":     {true, false},
	"rehydrateNsPerCycle": {true, false},
	"callsPerSec":         {true, true},
	"overheadRatio":       {false, false},
}

// rowIdentity lists the fields that name a row within an artifact
// array, in precedence order. The first present becomes the row's path
// segment, so "opsOverhead[1]" compares by mode name rather than by
// position.
var rowIdentity = []string{"name", "scenario", "workload", "mode", "phase", "service", "sessions", "n", "worldSize", "round", "faultRate", "resident"}

// MinPerfSchema is the oldest artifact schema ExtractPerfMetrics
// accepts. v3 is where the artifact gained the stable block layout
// (schemaVersion + per-block row arrays) the extractor walks.
const MinPerfSchema = 3

// ExtractPerfMetrics parses a lce-bench -json artifact (any schema ≥
// MinPerfSchema) and returns its comparable metrics, sorted by name.
// The walk is structural — new blocks added by later schemas are
// picked up automatically as long as their fields use the established
// naming conventions.
func ExtractPerfMetrics(raw []byte) (schema int, metrics []PerfMetric, err error) {
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return 0, nil, fmt.Errorf("perfdiff: artifact is not JSON: %w", err)
	}
	sv, ok := doc["schemaVersion"].(float64)
	if !ok {
		return 0, nil, fmt.Errorf("perfdiff: artifact has no schemaVersion")
	}
	schema = int(sv)
	if schema < MinPerfSchema {
		return schema, nil, fmt.Errorf("perfdiff: artifact schema v%d predates v%d, cannot compare", schema, MinPerfSchema)
	}
	for key, v := range doc {
		walkPerf(key, v, &metrics)
	}
	sort.Slice(metrics, func(i, j int) bool { return metrics[i].Name < metrics[j].Name })
	return schema, metrics, nil
}

func walkPerf(prefix string, v any, out *[]PerfMetric) {
	switch t := v.(type) {
	case map[string]any:
		for k, child := range t {
			if n, ok := child.(float64); ok {
				if cls, isMetric := perfMetricClass[k]; isMetric {
					*out = append(*out, PerfMetric{
						Name: prefix + "." + k, Value: n,
						Latency: cls.latency, HigherBetter: cls.higherBetter,
					})
				}
				continue
			}
			walkPerf(prefix+"."+k, child, out)
		}
	case []any:
		for i, elem := range t {
			m, ok := elem.(map[string]any)
			if !ok {
				continue
			}
			walkPerf(prefix+"."+rowKey(m, i), elem, out)
		}
	}
}

// rowKey names an array element by its identity fields, falling back
// to the index for rows with none.
func rowKey(m map[string]any, idx int) string {
	for _, field := range rowIdentity {
		switch id := m[field].(type) {
		case string:
			if id != "" {
				return id
			}
		case float64:
			return field + "=" + strconv.FormatFloat(id, 'g', -1, 64)
		}
	}
	return strconv.Itoa(idx)
}

// PerfRegression is one metric that moved past tolerance in the bad
// direction.
type PerfRegression struct {
	Name     string
	Old, New float64
	// Change is the fractional move in the bad direction: 1.0 means
	// a latency doubled or a speedup halved.
	Change  float64
	Latency bool
}

func (r PerfRegression) String() string {
	kind := "ratio"
	if r.Latency {
		kind = "latency"
	}
	return fmt.Sprintf("%s: %g -> %g (%+.1f%% worse, %s)", r.Name, r.Old, r.New, 100*r.Change, kind)
}

// PerfDiff is ComparePerf's full report.
type PerfDiff struct {
	Regressions []PerfRegression
	// Compared counts metric pairs actually judged; SkippedLatency
	// counts latency pairs passed over because no latency tolerance
	// was given; Notes lists one-sided metrics (present in only one
	// artifact) and zero-baseline metrics, which are reported but
	// never fail the diff.
	Compared       int
	SkippedLatency int
	Notes          []string
}

// ComparePerf diffs two extracted metric sets. tol is the fractional
// tolerance for machine-independent ratios (speedups, allocs/request);
// latTol, when > 0, additionally gates the machine-dependent latency
// metrics — leave it 0 when old and new were produced on different
// hardware.
func ComparePerf(old, new []PerfMetric, tol, latTol float64) PerfDiff {
	var d PerfDiff
	oldBy := make(map[string]PerfMetric, len(old))
	for _, m := range old {
		oldBy[m.Name] = m
	}
	seen := make(map[string]bool, len(new))
	for _, nm := range new {
		seen[nm.Name] = true
		om, ok := oldBy[nm.Name]
		if !ok {
			d.Notes = append(d.Notes, "new metric (no baseline): "+nm.Name)
			continue
		}
		if nm.Latency && latTol <= 0 {
			d.SkippedLatency++
			continue
		}
		limit := tol
		if nm.Latency {
			limit = latTol
		}
		if om.Value == 0 {
			d.Notes = append(d.Notes, "zero baseline, not compared: "+nm.Name)
			continue
		}
		d.Compared++
		var change float64 // fractional move in the bad direction
		if nm.HigherBetter {
			change = (om.Value - nm.Value) / om.Value
		} else {
			change = (nm.Value - om.Value) / om.Value
		}
		if change > limit {
			d.Regressions = append(d.Regressions, PerfRegression{
				Name: nm.Name, Old: om.Value, New: nm.Value,
				Change: change, Latency: nm.Latency,
			})
		}
	}
	for _, om := range old {
		if !seen[om.Name] {
			d.Notes = append(d.Notes, "metric disappeared: "+om.Name)
		}
	}
	return d
}

// FormatPerfDiff renders the report for the CI log.
func FormatPerfDiff(d PerfDiff, tol, latTol float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "perfdiff: %d metric(s) compared at %.0f%% tolerance", d.Compared, 100*tol)
	if latTol > 0 {
		fmt.Fprintf(&b, " (latency at %.0f%%)", 100*latTol)
	} else if d.SkippedLatency > 0 {
		fmt.Fprintf(&b, ", %d machine-dependent latency metric(s) skipped", d.SkippedLatency)
	}
	b.WriteString("\n")
	for _, n := range d.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	for _, r := range d.Regressions {
		fmt.Fprintf(&b, "  REGRESSION %s\n", r)
	}
	if len(d.Regressions) == 0 {
		b.WriteString("  no regressions\n")
	}
	return b.String()
}
