package main

import (
	"sort"
	"time"
)

// percentile returns the p-quantile (0 < p <= 1) of sorted by the
// nearest-rank rule: the smallest sample with at least p of the
// samples at or below it. sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(p*float64(len(sorted)) + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value of vs (mean of the middle two for an
// even count) without reordering the caller's slice. 0 for no values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// sample is one verified-correct op: when it completed, counted from
// the start of its stage, and how long it took.
type sample struct {
	at time.Duration
	ms float64
}

// A stage is cut into equal windows, as many as leave each about
// samplesPerWindow samples, within [minWindows, maxWindows]: short
// windows are what let one of them fall between two bursts of
// interference, but a percentile over a handful of samples is noise of
// its own (learn-align completes ~30 ops a second).
const (
	samplesPerWindow = 64
	minWindows       = 4
	maxWindows       = 32
)

// stageStats are a stage's reported numbers. Every one is the best of
// its per-window values — lowest latency percentile, highest rate.
// Interference on a shared box only ever slows a window down, in bursts
// of seconds, so the best window is the closest a run gets to what the
// program itself costs; in calibration it was steadier across identical
// runs than the median window by a factor of two to four whenever the
// box was busy, steadier the shorter the windows, and no worse when the
// box was quiet. samples is the total behind the stage.
type stageStats struct {
	p50Ms, p90Ms, p99Ms float64
	opsPerSec           float64
	samples, windows    int
}

// summarize reduces a stage of length dur to stageStats. Windows with
// no samples are skipped (a stage with none at all reports zeros, which
// the caller treats as a failed run).
func summarize(samples []sample, dur time.Duration) stageStats {
	n := min(max(len(samples)/samplesPerWindow, minWindows), maxWindows)
	st := stageStats{samples: len(samples), windows: n}
	wins := make([][]float64, n)
	for _, s := range samples {
		w := min(int(int64(s.at)*int64(n)/int64(dur)), n-1)
		wins[w] = append(wins[w], s.ms)
	}
	best := func(cur, v float64, lower bool) float64 {
		if cur == 0 || lower == (v < cur) {
			return v
		}
		return cur
	}
	winSeconds := dur.Seconds() / float64(n)
	for _, w := range wins {
		if len(w) == 0 {
			continue
		}
		sort.Float64s(w)
		st.p50Ms = best(st.p50Ms, percentile(w, 0.50), true)
		st.p90Ms = best(st.p90Ms, percentile(w, 0.90), true)
		st.p99Ms = best(st.p99Ms, percentile(w, 0.99), true)
		st.opsPerSec = best(st.opsPerSec, float64(len(w))/winSeconds, false)
	}
	return st
}

// spread is the contract's steadiness measure for one metric over
// repeated runs: the distance between the first and third quartile as
// a share of the median, quartiles as Python's
// statistics.quantiles(values, n=4) (exclusive method) gives them.
func spread(vs []float64) float64 {
	n := len(vs)
	m := median(vs)
	if n < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / m
}
