// Command lce-perfdiff diffs two lce-bench -json artifacts and exits
// non-zero when performance regressed beyond tolerance — the
// trajectory gate CI runs against the committed baseline:
//
//	lce-perfdiff bench/bench-phases-baseline.json bench-phases.json
//	lce-perfdiff -tolerance 0.5 old.json new.json
//	lce-perfdiff -latency-tolerance 1.0 old.json new.json  # same machine
//	lce-perfdiff -self-test bench-phases.json
//
// Any artifact schema ≥ v3 is accepted; metrics present in only one
// artifact are noted, never failed, so the gate survives schema
// growth. Machine-independent ratios (alignment speedup, allocs per
// request, batch amortization) are always gated at -tolerance.
// Wall-clock latency metrics (the *Ns fields, per-phase percentiles)
// are machine-dependent and only gated when -latency-tolerance is set
// — leave it 0 when the two artifacts come from different runners.
//
// -self-test proves the gate works end to end: it re-reads the given
// artifact, synthetically doubles its fsync-phase latencies, and
// verifies the regression is caught (and that the unmodified artifact
// passes). Exit codes: 0 ok, 1 regression (or self-test failure), 2
// usage or artifact error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lce/internal/eval"
)

func main() {
	var (
		tol      = flag.Float64("tolerance", 0.25, "allowed fractional worsening for machine-independent ratio metrics (0.25 = 25%)")
		latTol   = flag.Float64("latency-tolerance", 0, "also gate wall-clock latency metrics at this fractional tolerance (0 = skip them; only meaningful when both artifacts ran on the same machine)")
		selfTest = flag.Bool("self-test", false, "single artifact: double its fsync-phase latencies and verify the gate catches the regression")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lce-perfdiff [flags] old.json new.json\n       lce-perfdiff -self-test artifact.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *selfTest {
		if flag.NArg() != 1 {
			flag.Usage()
			os.Exit(2)
		}
		os.Exit(runSelfTest(flag.Arg(0), *tol))
	}
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	oldM := load(flag.Arg(0))
	newM := load(flag.Arg(1))
	d := eval.ComparePerf(oldM, newM, *tol, *latTol)
	fmt.Printf("%s vs %s\n%s", flag.Arg(0), flag.Arg(1), eval.FormatPerfDiff(d, *tol, *latTol))
	if len(d.Regressions) > 0 {
		os.Exit(1)
	}
}

func load(path string) []eval.PerfMetric {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lce-perfdiff:", err)
		os.Exit(2)
	}
	schema, metrics, err := eval.ExtractPerfMetrics(raw)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lce-perfdiff: %s: %v\n", path, err)
		os.Exit(2)
	}
	if len(metrics) == 0 {
		fmt.Fprintf(os.Stderr, "lce-perfdiff: %s (schema v%d): no comparable metrics\n", path, schema)
		os.Exit(2)
	}
	return metrics
}

// runSelfTest proves the regression gate fires: the artifact compared
// against itself must pass, and compared against a copy whose
// fsync-phase latencies are doubled must fail on exactly those
// metrics.
func runSelfTest(path string, tol float64) int {
	metrics := load(path)
	var fsync []string
	doubled := make([]eval.PerfMetric, len(metrics))
	for i, m := range metrics {
		doubled[i] = m
		if m.Latency && strings.Contains(m.Name, ".fsync.") {
			doubled[i].Value = 2 * m.Value
			fsync = append(fsync, m.Name)
		}
	}
	if len(fsync) == 0 {
		fmt.Fprintf(os.Stderr, "lce-perfdiff: self-test: %s has no fsync-phase latency metrics (run lce-bench -phases)\n", path)
		return 1
	}
	if d := eval.ComparePerf(metrics, metrics, tol, 0.5); len(d.Regressions) > 0 {
		fmt.Fprintf(os.Stderr, "lce-perfdiff: self-test: artifact regresses against itself: %v\n", d.Regressions)
		return 1
	}
	d := eval.ComparePerf(metrics, doubled, tol, 0.5)
	caught := map[string]bool{}
	for _, r := range d.Regressions {
		caught[r.Name] = true
	}
	for _, name := range fsync {
		if !caught[name] {
			fmt.Fprintf(os.Stderr, "lce-perfdiff: self-test FAILED: injected 2x regression on %s not detected\n", name)
			return 1
		}
	}
	fmt.Printf("self-test ok: injected 2x fsync regression detected on %d metric(s) (%s)\n",
		len(fsync), strings.Join(fsync, ", "))
	return 0
}
