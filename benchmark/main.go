// Command benchmark is the repository's one end-to-end and per-layer
// benchmark: five workloads over the real lce-server and lce-router
// binaries, driven closed-loop over loopback, every answer checked.
//
//	go -C benchmark run .                 all five workloads, untraced then traced
//	go -C benchmark run . -repeat 5       five full sets and their spread
//	bash benchmark/run.sh --workload hot-direct --seed 7 --seconds 16 --trace 0
//
// The last form is BENCHMARK.json's contract: one workload per
// process, one JSON object as the last line of standard output. See
// README.md for what every number means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and print the contract's JSON line (empty = all five, with a report)")
		seed    = flag.Int64("seed", 1, "workload seed: same seed, same op stream")
		seconds = flag.Int("seconds", 20, "measured seconds per run, split evenly between the solo and the sat stage")
		traceOn = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics (process accounting, traced run, micro-benchmarks)")
		repeat  = flag.Int("repeat", 1, "without -workload: run this many full sets and report each metric's spread")
		out     = flag.String("out", "", "directory for the result JSON, child logs and traces (default .bench_build/out in the repository)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traceOn, *repeat, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, traceOn, repeat int, out string) error {
	if seconds < 1 || repeat < 1 || traceOn < 0 || traceOn > 1 {
		return fmt.Errorf("bad flags: -seconds %d -repeat %d -trace %d", seconds, repeat, traceOn)
	}
	e, err := newEnv(out)
	if err != nil {
		return err
	}
	defer e.close()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		e.close()
		os.Exit(130)
	}()
	if err := e.preflight(); err != nil {
		return err
	}
	if err := e.build(); err != nil {
		return err
	}

	if name != "" {
		w := findWorkload(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		res, err := e.runWorkload(w, configFor(seed, seconds, traceOn == 1))
		if err != nil {
			return err
		}
		defs := endToEnd
		if traceOn == 1 {
			defs = perLayer
		}
		report(os.Stderr, res, defs)
		line, err := contractLine(res, defs)
		if err != nil {
			return err
		}
		_, err = fmt.Printf("%s\n", line)
		return err
	}

	// Full mode: every workload untraced, then every workload's layers.
	var sets [][]*runResult
	for i := 0; i < repeat; i++ {
		var set []*runResult
		for j := range workloads {
			w := &workloads[j]
			res, err := e.runWorkload(w, configFor(seed, seconds, false))
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			report(os.Stdout, res, endToEnd)
			set = append(set, res)
		}
		sets = append(sets, set)
	}
	var layers []*runResult
	for j := range workloads {
		w := &workloads[j]
		res, err := e.runWorkload(w, configFor(seed, seconds, true))
		if err != nil {
			return fmt.Errorf("%s (layers): %w", w.name, err)
		}
		report(os.Stdout, res, perLayer)
		layers = append(layers, res)
	}
	if err := e.writeResult(seed, seconds, sets, layers); err != nil {
		return err
	}
	failed := 0
	for _, set := range append(sets, layers) {
		for _, r := range set {
			failed += r.failed
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d wrong answers or failed checks", failed)
	}
	if repeat > 1 {
		return reportSpread(sets)
	}
	return nil
}

// configFor sizes a run from the measured seconds. A per-layer run
// spends a quarter of them on each of solo stage, sat stage and traced
// run; its micro-benchmarks have fixed iteration counts.
func configFor(seed int64, seconds int, layers bool) runConfig {
	total := time.Duration(seconds) * time.Second
	cfg := runConfig{seed: seed, warm: 1500 * time.Millisecond, solo: total / 2, sat: total / 2, setups: 9, microDiv: 1}
	if layers {
		cfg.solo, cfg.sat, cfg.traced = total/4, total/4, total/4
		cfg.layers, cfg.tracedOps, cfg.setups = true, 20000, 1
	}
	return cfg
}

func (e *env) runWorkload(w *workload, cfg runConfig) (*runResult, error) {
	if w.learn {
		return runLearn(w, cfg)
	}
	_, unpin, err := pinToOneCPU()
	if err != nil {
		return nil, err
	}
	defer unpin()
	return e.runServing(w, cfg)
}

// report prints the named metrics of one run, one per line, with unit
// and the sample count behind each timing.
func report(f *os.File, r *runResult, defs []metricDef) {
	fmt.Fprintf(f, "%s: %d ops attempted, %d failed, %.1fs wall\n", r.workload, r.attempted, r.failed, r.wall.Seconds())
	for _, d := range defs {
		line := fmt.Sprintf("  %-32s %14.4f %-6s", d.name, r.metrics[d.name], d.unit)
		if n, ok := r.samples[d.name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Fprintln(f, strings.TrimRight(line, " "))
	}
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine renders the one JSON object BENCHMARK.json's contract
// wants as the last line of standard output.
func contractLine(r *runResult, defs []metricDef) ([]byte, error) {
	ms := map[string]metricJSON{}
	for _, d := range defs {
		ms[d.name] = metricJSON{Value: r.metrics[d.name], Unit: d.unit}
	}
	return json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   ms,
	})
}

// reportSpread prints, per (metric, workload), median, min, max and
// spread over the sets, and fails if any end-to-end metric's spread
// exceeds its bound. Spread is the contract's quartile distance over
// the median; under four sets quartiles are extrapolations, so the
// full range over the median stands in.
func reportSpread(sets [][]*runResult) error {
	var over []string
	fmt.Printf("%-14s %-12s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "min", "max", "spread", "bound")
	for j := range workloads {
		for _, d := range endToEnd {
			var vs []float64
			for _, set := range sets {
				vs = append(vs, set[j].metrics[d.name])
			}
			sort.Float64s(vs)
			sp := spread(vs)
			if len(vs) < 4 {
				sp = (vs[len(vs)-1] - vs[0]) / median(vs)
			}
			fmt.Printf("%-14s %-12s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%\n",
				workloads[j].name, d.name, median(vs), vs[0], vs[len(vs)-1], 100*sp, 100*d.bound)
			if sp > d.bound && d.name != "setup_s" {
				over = append(over, workloads[j].name+"/"+d.name)
			}
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("spread exceeds bound on %s", strings.Join(over, ", "))
	}
	return nil
}

// writeResult writes result.json: every number of every run, plus what
// is needed to rerun to the same shape.
func (e *env) writeResult(seed int64, seconds int, sets [][]*runResult, layers []*runResult) error {
	type runJSON struct {
		Workload  string             `json:"workload"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		WallS     float64            `json:"wall_s"`
		Metrics   map[string]float64 `json:"metrics"`
		Samples   map[string]int     `json:"samples"`
	}
	conv := func(rs []*runResult) []runJSON {
		var out []runJSON
		for _, r := range rs {
			out = append(out, runJSON{r.workload, r.attempted, r.failed, r.wall.Seconds(), r.metrics, r.samples})
		}
		return out
	}
	type workloadJSON struct {
		Name     string   `json:"name"`
		Sessions int      `json:"sessions"`
		Routed   bool     `json:"routed"`
		NodeArgs []string `json:"node_args"`
	}
	var ws []workloadJSON
	for _, w := range workloads {
		var args []string
		if !w.learn {
			args = w.serverArgs()
		}
		ws = append(ws, workloadJSON{w.name, w.sessions, w.routed, args})
	}
	sha, dirty := gitState(e.root)
	doc := map[string]any{
		"seed":        seed,
		"seconds":     seconds,
		"go":          runtime.Version(),
		"git_sha":     sha,
		"git_dirty":   dirty,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"data_dir_fs": fsType(e.work),
		"workloads":   ws,
		"layers":      conv(layers),
	}
	var setsJSON [][]runJSON
	for _, s := range sets {
		setsJSON = append(setsJSON, conv(s))
	}
	doc["sets"] = setsJSON
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(e.out, "result.json")
	fmt.Printf("result: %s (data dirs on %s)\n", path, fsType(e.work))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gitState reports the checkout's commit and whether it has local
// changes; both empty/false when the checkout is not a git repository.
func gitState(root string) (sha string, dirty bool) {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "", false
	}
	st, _ := exec.Command("git", "-C", root, "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), len(st) > 0
}
