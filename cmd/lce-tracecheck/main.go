// Command lce-tracecheck validates observability exports from the
// outside, the way a consumer would, so CI catches a regression in an
// exporter as well as in the instrumentation behind it.
//
// Trace mode (default) checks a JSONL trace export (lce-align
// -trace-out, or a server's /debug/traces?format=jsonl):
//
//	lce-tracecheck trace.jsonl
//
// It fails (exit 1) when any span is malformed, references a parent
// that is not in its trace, duplicates a span ID, belongs to a trace
// with no root, or ends before it starts — the invariants the span
// taxonomy guarantees. Spans carrying phase.* attributes (the request
// path's timing spine) are additionally checked: every phase name must
// be known, self-times must be non-negative integers, and their sum
// must not exceed the span's duration. On success it prints a one-line
// digest (spans, phase-annotated spans, traces, divergences, fault
// events).
//
// Stitch mode (-stitch) merges several JSONL exports — typically the
// router's /debug/traces?format=jsonl plus one dump per node — and
// validates cross-process integrity on top of the per-file invariants:
// every remote span's parent must exist somewhere in the merged set,
// child windows must nest inside parent windows (within -skew, since
// clocks are per-process), and migration export/import spans must end
// before the placement flip starts:
//
//	lce-tracecheck -stitch router.jsonl node-a.jsonl node-b.jsonl
//
// Metrics mode (-metrics) checks a Prometheus/OpenMetrics text
// exposition — typically a live scrape of a running server:
//
//	curl -s localhost:4566/metrics | lce-tracecheck -metrics -
//	curl -s -H 'Accept: application/openmetrics-text' localhost:4566/metrics > om.txt
//	lce-tracecheck -metrics om.txt
//
// It fails when a line is malformed, a label value breaks the escaping
// rules, families or series are out of the registry's deterministic
// order, a family's series disagree on their label names, histogram
// buckets are not cumulative, or an exemplar does not parse — see
// obsv.LintExposition for the full invariant list.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"lce/internal/obsv"
)

func main() {
	metrics := flag.Bool("metrics", false, "validate a Prometheus/OpenMetrics text exposition instead of a trace export")
	stitch := flag.Bool("stitch", false, "merge several trace exports and validate cross-process parent/child integrity")
	skew := flag.Duration("skew", 100*time.Millisecond, "clock-skew allowance for -stitch window nesting (spans are stamped per-process)")
	flag.Parse()
	if *stitch {
		if flag.NArg() < 1 {
			fmt.Fprintln(os.Stderr, "usage: lce-tracecheck -stitch [-skew d] <file> [file ...]")
			os.Exit(2)
		}
		checkStitch(flag.Args(), *skew)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: lce-tracecheck [-metrics] <file | ->")
		os.Exit(2)
	}
	path := flag.Arg(0)
	f := io.Reader(os.Stdin)
	if path != "-" {
		file, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lce-tracecheck:", err)
			os.Exit(1)
		}
		defer file.Close()
		f = file
	}
	if *metrics {
		checkMetrics(path, f)
		return
	}
	checkTraces(path, f)
}

// checkStitch merges every input file's spans (dropping exact
// duplicates — the router's merged dump repeats node spans the node's
// own dump also carries) and runs the cross-process validators.
func checkStitch(paths []string, skew time.Duration) {
	type key struct{ trace, span string }
	seen := map[key]bool{}
	var spans []obsv.SpanData
	for _, path := range paths {
		f := io.Reader(os.Stdin)
		var file *os.File
		if path != "-" {
			var err error
			file, err = os.Open(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lce-tracecheck:", err)
				os.Exit(1)
			}
			f = file
		}
		fileSpans, err := obsv.ReadJSONL(f)
		if file != nil {
			file.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "lce-tracecheck: %s: %v\n", path, err)
			os.Exit(1)
		}
		for _, sp := range fileSpans {
			k := key{sp.TraceID, sp.SpanID}
			if !seen[k] {
				seen[k] = true
				spans = append(spans, sp)
			}
		}
	}
	if len(spans) == 0 {
		fmt.Fprintln(os.Stderr, "lce-tracecheck: no spans in", strings.Join(paths, ", "))
		os.Exit(1)
	}
	st, err := obsv.ValidateStitch(spans, skew)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lce-tracecheck: stitch invalid: %v\n", err)
		os.Exit(1)
	}
	if err := obsv.ValidatePhases(spans); err != nil {
		fmt.Fprintf(os.Stderr, "lce-tracecheck: stitch invalid: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("stitch: valid — %d files, %d spans, %d traces, %d nodes, %d remote spans (%d stitched), %d migrations\n",
		len(paths), st.Spans, st.Traces, st.Nodes, st.Remote, st.Stitched, st.Migrations)
}

func checkMetrics(path string, f io.Reader) {
	st, err := obsv.LintExposition(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lce-tracecheck: %s invalid: %v\n", path, err)
		os.Exit(1)
	}
	if st.Families == 0 {
		fmt.Fprintln(os.Stderr, "lce-tracecheck: no metric families in", path)
		os.Exit(1)
	}
	format := "prometheus 0.0.4"
	if st.OpenMetrics {
		format = "openmetrics"
	}
	fmt.Printf("%s: valid %s — %d families, %d series, %d samples, %d exemplars\n",
		path, format, st.Families, st.Series, st.Samples, st.Exemplars)
}

func checkTraces(path string, f io.Reader) {
	spans, err := obsv.ReadJSONL(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lce-tracecheck:", err)
		os.Exit(1)
	}
	if len(spans) == 0 {
		fmt.Fprintln(os.Stderr, "lce-tracecheck: no spans in", path)
		os.Exit(1)
	}
	if err := obsv.Validate(spans); err != nil {
		fmt.Fprintf(os.Stderr, "lce-tracecheck: %s invalid: %v\n", path, err)
		os.Exit(1)
	}
	if err := obsv.ValidatePhases(spans); err != nil {
		fmt.Fprintf(os.Stderr, "lce-tracecheck: %s invalid: %v\n", path, err)
		os.Exit(1)
	}
	traces := map[string]bool{}
	var divergences, faults, retries, phased int
	for _, sp := range spans {
		traces[sp.TraceID] = true
		for k := range sp.Attrs {
			if strings.HasPrefix(k, obsv.SpanAttrPhasePfx) {
				phased++
				break
			}
		}
		if sp.Root() && sp.Name == obsv.SpanAlignTrace && sp.Attrs["aligned"] == "false" {
			divergences++
		}
		for _, e := range sp.Events {
			switch e.Name {
			case obsv.EventFault:
				faults++
			case obsv.EventRetry:
				retries++
			}
		}
	}
	fmt.Printf("%s: valid — %d spans (%d phase-annotated), %d traces, %d divergences, %d injected faults, %d retries\n",
		path, len(spans), phased, len(traces), divergences, faults, retries)
}
