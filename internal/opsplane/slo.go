package opsplane

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"lce/internal/obsv"
)

// Objectives are the service-level targets the health engine evaluates.
type Objectives struct {
	// ErrorRate is the maximum acceptable error fraction (0.01 = 1%).
	// Zero disables the error-rate check.
	ErrorRate float64
	// P99 is the maximum acceptable 99th-percentile request latency.
	// Zero disables the latency check.
	P99 time.Duration
}

// windows are the rolling evaluation windows, shortest first: the fast
// and the slow burn window. Multi-window evaluation is what keeps
// /healthz stable: a check breaches only when every window with data
// burns, so a brief spike heats the short window but not the long one
// and the verdict holds — see Healthy.
var windows = [...]time.Duration{5 * time.Minute, time.Hour}

// DefaultObjectives targets 1% errors and a 250ms p99 — loose enough
// for an emulator under normal load, tight enough that chaos mode
// (fault rates of 10%+) flips the verdict within a window.
func DefaultObjectives() Objectives {
	return Objectives{ErrorRate: 0.01, P99: 250 * time.Millisecond}
}

// sloGranularity is the bucket width of the rolling ring. Finer
// granularity tightens window edges at the cost of memory; 10s gives a
// 5m window 30 slots and an 1h window 360.
const sloGranularity = 10 * time.Second

// CheckResult is one (SLO, window) verdict from Evaluate.
type CheckResult struct {
	// SLO names the objective: "error-rate" or "latency-p99".
	SLO string `json:"slo"`
	// Window is the rolling window evaluated, as a duration string.
	Window string `json:"window"`
	// Requests/Errors are the totals observed inside the window.
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// ErrorRate is Errors/Requests (error-rate check only).
	ErrorRate float64 `json:"errorRate,omitempty"`
	// P99 is the estimated 99th-percentile latency in seconds
	// (latency check only; bucket-width accuracy).
	P99 float64 `json:"p99,omitempty"`
	// Burn is observed/target: >1 means the objective is being
	// violated at this instant's rate.
	Burn float64 `json:"burn"`
	// Verdict is "ok", "breach", or "no-data".
	Verdict string `json:"verdict"`
}

// sloSlot is one granularity bucket of the rolling window.
type sloSlot struct {
	// stamp is the slot's epoch second + 1 (0 = never used, so a fake
	// clock starting at the Unix epoch still counts as live). A stale
	// slot is zeroed on reuse.
	stamp    int64
	requests int64
	errors   int64
	// latency histogram over obsv.DefaultDurationBuckets (+overflow).
	buckets []int64
}

// Health is the rolling multi-window SLO engine. Record is called on
// the request path (one mutex, O(1) work); Evaluate walks the ring and
// produces per-(SLO,window) verdicts, feeding /healthz, /readyz, and
// the lce_slo_burn_rate gauge.
type Health struct {
	mu    sync.Mutex
	obj   Objectives
	clock obsv.Clock
	slots []sloSlot // ring over the longest window
	reg   *obsv.Registry
	// burnGauges memoizes the {slo,window} float gauges.
	burnGauges map[string]*obsv.FloatGauge
}

// NewHealth returns a health engine for the given objectives. A nil
// clock uses the system clock; a non-nil registry receives
// lce_slo_burn_rate{slo,window} on every Evaluate.
func NewHealth(obj Objectives, clock obsv.Clock, reg *obsv.Registry) *Health {
	if clock == nil {
		clock = obsv.System()
	}
	n := int(windows[len(windows)-1]/sloGranularity) + 1
	h := &Health{
		obj:        obj,
		clock:      clock,
		slots:      make([]sloSlot, n),
		reg:        reg,
		burnGauges: map[string]*obsv.FloatGauge{},
	}
	for i := range h.slots {
		h.slots[i].buckets = make([]int64, len(obsv.DefaultDurationBuckets)+1)
	}
	return h
}

// slotFor returns the live slot for now, zeroing it first if it still
// holds counts from a previous lap of the ring. Caller holds h.mu.
func (h *Health) slotFor(now time.Time) *sloSlot {
	gran := int64(sloGranularity / time.Second)
	epoch := now.Unix() - now.Unix()%gran
	s := &h.slots[(epoch/gran)%int64(len(h.slots))]
	if s.stamp != epoch+1 {
		s.stamp = epoch + 1
		s.requests = 0
		s.errors = 0
		for i := range s.buckets {
			s.buckets[i] = 0
		}
	}
	return s
}

// Record observes one request outcome. Nil-safe.
func (h *Health) Record(isError bool, d time.Duration) {
	if h == nil {
		return
	}
	sec := d.Seconds()
	i := sort.SearchFloat64s(obsv.DefaultDurationBuckets, sec)
	h.mu.Lock()
	s := h.slotFor(h.clock.Now())
	s.requests++
	if isError {
		s.errors++
	}
	s.buckets[i]++
	h.mu.Unlock()
}

// Evaluate produces one CheckResult per enabled (SLO, window) pair and
// refreshes the burn-rate gauges. Results order: error-rate checks
// (windows ascending) then latency checks.
func (h *Health) Evaluate() []CheckResult {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	now := h.clock.Now()
	type agg struct {
		requests, errors int64
		buckets          []int64
	}
	var aggs [len(windows)]agg
	for i := range aggs {
		aggs[i].buckets = make([]int64, len(obsv.DefaultDurationBuckets)+1)
	}
	for si := range h.slots {
		s := &h.slots[si]
		if s.stamp == 0 {
			continue
		}
		age := now.Unix() - (s.stamp - 1)
		if age < 0 {
			continue
		}
		for wi, w := range windows {
			if age >= int64(w/time.Second) {
				continue
			}
			aggs[wi].requests += s.requests
			aggs[wi].errors += s.errors
			for bi, c := range s.buckets {
				aggs[wi].buckets[bi] += c
			}
		}
	}
	obj := h.obj
	h.mu.Unlock()

	var out []CheckResult
	if obj.ErrorRate > 0 {
		for wi, w := range windows {
			a := aggs[wi]
			cr := CheckResult{SLO: "error-rate", Window: w.String(), Requests: a.requests, Errors: a.errors}
			if a.requests == 0 {
				cr.Verdict = "no-data"
			} else {
				cr.ErrorRate = float64(a.errors) / float64(a.requests)
				cr.Burn = cr.ErrorRate / obj.ErrorRate
				cr.Verdict = verdict(cr.Burn)
			}
			out = append(out, cr)
		}
	}
	if obj.P99 > 0 {
		target := obj.P99.Seconds()
		for wi, w := range windows {
			a := aggs[wi]
			cr := CheckResult{SLO: "latency-p99", Window: w.String(), Requests: a.requests, Errors: a.errors}
			if a.requests == 0 {
				cr.Verdict = "no-data"
			} else {
				cr.P99 = bucketQuantile(a.buckets, a.requests, 0.99)
				cr.Burn = cr.P99 / target
				cr.Verdict = verdict(cr.Burn)
			}
			out = append(out, cr)
		}
	}
	if h.reg != nil {
		h.mu.Lock()
		for _, cr := range out {
			key := cr.SLO + "|" + cr.Window
			g := h.burnGauges[key]
			if g == nil {
				g = h.reg.FloatGauge(obsv.MetricSLOBurnRate, "slo", cr.SLO, "window", cr.Window)
				h.burnGauges[key] = g
			}
			g.Set(cr.Burn)
		}
		h.mu.Unlock()
	}
	return out
}

func verdict(burn float64) string {
	if burn > 1 {
		return "breach"
	}
	return "ok"
}

// bucketQuantile estimates quantile q from cumulative-free bucket
// counts over DefaultDurationBuckets, with the same bucket-upper-bound
// convention as obsv.Histogram.Quantile.
func bucketQuantile(buckets []int64, total int64, q float64) float64 {
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range buckets {
		cum += c
		if cum >= rank {
			if i < len(obsv.DefaultDurationBuckets) {
				return obsv.DefaultDurationBuckets[i]
			}
			return obsv.DefaultDurationBuckets[len(obsv.DefaultDurationBuckets)-1]
		}
	}
	return obsv.DefaultDurationBuckets[len(obsv.DefaultDurationBuckets)-1]
}

// Healthy condenses Evaluate into the /healthz verdict: a check (SLO)
// is breaching only when EVERY window that has data reports breach —
// the multi-window rule that keeps one bad minute from flipping an
// hour-healthy server, while a sustained burn flips both windows and
// the verdict with them.
func Healthy(results []CheckResult) bool {
	breach := map[string]bool{}
	seen := map[string]bool{}
	for _, cr := range results {
		if cr.Verdict == "no-data" {
			continue
		}
		if !seen[cr.SLO] {
			seen[cr.SLO] = true
			breach[cr.SLO] = true
		}
		if cr.Verdict != "breach" {
			breach[cr.SLO] = false
		}
	}
	for _, b := range breach {
		if b {
			return false
		}
	}
	return true
}

// Worst returns the highest-burn check among results that have data,
// and false when every check is no-data. The cluster router uses it to
// name the worst-offending node in its fleet /healthz: evaluate each
// node's engine, take each node's Worst, compare burns.
func Worst(results []CheckResult) (CheckResult, bool) {
	var worst CheckResult
	found := false
	for _, cr := range results {
		if cr.Verdict == "no-data" {
			continue
		}
		if !found || cr.Burn > worst.Burn {
			worst = cr
			found = true
		}
	}
	return worst, found
}

// FormatChecks renders results as an aligned text table (one line per
// check) for human-readable /healthz output and logs.
func FormatChecks(results []CheckResult) string {
	out := ""
	for _, cr := range results {
		switch cr.SLO {
		case "error-rate":
			out += fmt.Sprintf("%-12s window=%-6s verdict=%-8s burn=%.2f errors=%d/%d\n",
				cr.SLO, cr.Window, cr.Verdict, cr.Burn, cr.Errors, cr.Requests)
		default:
			out += fmt.Sprintf("%-12s window=%-6s verdict=%-8s burn=%.2f p99=%.4fs n=%d\n",
				cr.SLO, cr.Window, cr.Verdict, cr.Burn, cr.P99, cr.Requests)
		}
	}
	return out
}
