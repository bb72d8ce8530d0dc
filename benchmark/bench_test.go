package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lce"
	"lce/internal/cloudapi"
	"lce/internal/durable"
	"lce/internal/tenant"
)

// opLog renders the first n ops a client would issue as text, one per
// line.
func opLog(seed int64, stage, client, sessions, n int) []byte {
	ss := newSessions("s", sessions)
	p := newPicker(seed, stage, client, ss)
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		s := p.next()
		st := cycle[s.n%len(cycle)]
		fmt.Fprintf(&b, "%s POST %s %s\n", s.name, stepPath(st), stepBody(st))
		s.n++
	}
	return b.Bytes()
}

func TestOpLogIsAFunctionOfTheSeed(t *testing.T) {
	a := opLog(7, 1, 0, 32, 2000)
	if b := opLog(7, 1, 0, 32, 2000); !bytes.Equal(a, b) {
		t.Fatal("same seed gave different op logs")
	}
	if b := opLog(8, 1, 0, 32, 2000); bytes.Equal(a, b) {
		t.Fatal("different seeds gave the same op log")
	}
	if b := opLog(7, 2, 0, 32, 2000); bytes.Equal(a, b) {
		t.Fatal("solo and sat stages drew the same stream")
	}
	if n := bytes.Count(a, []byte("\n")); n != 2000 {
		t.Fatalf("op log has %d lines, want 2000", n)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {1, 10}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

func TestSummarizeTakesTheBestWindow(t *testing.T) {
	// Four one-second windows: two quiet, one slowed by a burst, one cut
	// short. Neither disturbance may decide a reported number.
	quiet := []float64{1, 1, 1, 1, 1, 1, 1, 1, 2, 3}
	burst := []float64{50, 50, 50, 50, 50, 50, 50, 50, 60, 70}
	var samples []sample
	for w, lat := range [][]float64{quiet, burst, quiet[:5], quiet} {
		for i, ms := range lat {
			samples = append(samples, sample{at: time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond, ms: ms})
		}
	}
	st := summarize(samples, 4*time.Second)
	if st.p50Ms != 1 || st.p90Ms != 1 || st.p99Ms != 1 {
		t.Errorf("p50/p90/p99 = %v/%v/%v, want 1/1/1 (the short window's)", st.p50Ms, st.p90Ms, st.p99Ms)
	}
	if st.opsPerSec != 10 || st.samples != 35 || st.windows != 4 {
		t.Errorf("ops/s = %v samples = %d windows = %d, want 10, 35 and 4", st.opsPerSec, st.samples, st.windows)
	}
	if st := summarize(samples[:20], 4*time.Second); st.p50Ms != 1 || st.p90Ms != 2 || st.p99Ms != 3 || st.opsPerSec != 10 {
		t.Errorf("two windows: %+v, want 1/2/3 at 10 ops/s", st)
	}
	if st := summarize(nil, time.Second); st.samples != 0 || st.p50Ms != 0 {
		t.Errorf("empty stage = %+v", st)
	}
	// Many samples: as many windows as keep ~64 each, at most 32.
	var many []sample
	for i := 0; i < 64*40; i++ {
		many = append(many, sample{at: time.Duration(i) * time.Millisecond, ms: 1})
	}
	if st := summarize(many[:64*10], 640*time.Millisecond); st.windows != 10 {
		t.Errorf("640 samples cut into %d windows, want 10", st.windows)
	}
	if st := summarize(many, 2560*time.Millisecond); st.windows != 32 || st.opsPerSec != 1000 {
		t.Errorf("2560 samples: %d windows at %v ops/s, want 32 at 1000", st.windows, st.opsPerSec)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	got = spread([]float64{1, 2, 4, 8, 16})
	if want := (12.0 - 1.5) / 4; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestSelfTimesAndCoverage(t *testing.T) {
	// One request: client 0..100, router 10..90, node 20..70, journal
	// 30..60 around interp 40..50; plus a second request whose router
	// span outlives its client (answer flushed before the handler ends).
	spans := []span{
		{Name: spanClient, Op: 0, ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: spanCluster, Op: 0, ID: 1, Parent: 0, Start: 10, End: 90},
		{Name: spanHTTPAPI, Op: 0, ID: 2, Parent: 1, Start: 20, End: 70},
		{Name: spanJournal, Op: 0, ID: 3, Parent: 2, Start: 30, End: 60},
		{Name: spanInterp, Op: 0, ID: 4, Parent: 3, Start: 40, End: 50},
		{Name: spanClient, Op: 1, ID: 5, Parent: -1, Start: 200, End: 300},
		{Name: spanCluster, Op: 1, ID: 6, Parent: 5, Start: 210, End: 310},
	}
	self, total, count, root, ops := selfTimes(spans)
	want := map[string]int64{spanClient: 20 + 10, spanCluster: 30 + 100, spanHTTPAPI: 20, spanJournal: 20, spanInterp: 10}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
	}
	if total[spanCluster] != 180 || total[spanInterp] != 10 {
		t.Errorf("totals %v", total)
	}
	if root != 200 || ops != 2 || count[spanClient] != 2 || count[spanInterp] != 1 {
		t.Errorf("root %d ops %d counts %v", root, ops, count)
	}
	var sum int64
	for _, v := range self {
		sum += v
	}
	if cov := float64(sum) / float64(root); cov != 1.05 {
		t.Errorf("coverage = %v, want 1.05 (the router's 10 past its client)", cov)
	}
}

func TestRecorderNestsAndRootsClearTheStack(t *testing.T) {
	rec := newRecorder()
	c0 := rec.beginRoot(spanClient)
	r0 := rec.begin(spanCluster)
	n0 := rec.begin(spanHTTPAPI)
	rec.end(n0)
	rec.end(c0) // the client has its answer; the router span is still open
	c1 := rec.beginRoot(spanClient)
	rec.end(r0) // late end of the previous request's router span
	r1 := rec.begin(spanCluster)
	rec.end(r1)
	rec.end(c1)
	if p := rec.spans[r0].Parent; p != c0 {
		t.Errorf("first router span's parent = %d, want %d", p, c0)
	}
	if p := rec.spans[c1].Parent; p != -1 {
		t.Errorf("second client span's parent = %d, want -1", p)
	}
	if p := rec.spans[r1].Parent; p != c1 {
		t.Errorf("second router span's parent = %d, want %d", p, c1)
	}
	if rec.spans[r1].Op != 1 || rec.ops != 2 {
		t.Errorf("op ids: span %d, recorder %d", rec.spans[r1].Op, rec.ops)
	}
}

// A backend wrapped in the benchmark's Inner()-exposing decorator must
// still be adopted by the durable store: a wrapped session journals,
// spills on eviction and rehydrates with its state.
func TestDecoratedSessionSpillsAndRehydrates(t *testing.T) {
	rec := newRecorder()
	b, err := lce.NewBackend("ec2", "learned", false)
	if err != nil {
		t.Fatal(err)
	}
	store, err := durable.Open(durable.Config{Dir: t.TempDir(), Fsync: "off"})
	if err != nil {
		t.Fatal(err)
	}
	fork := cloudapi.FactoryOf(b)
	pool, err := tenant.New(
		func() cloudapi.Backend { return &spanBackend{Backend: fork(), rec: rec, name: spanInterp} },
		tenant.Config{Shards: 1, Capacity: 1, Spill: &spillTier{Store: store, rec: rec}})
	if err != nil {
		t.Fatal(err)
	}
	traced := context.WithValue(context.Background(), traceKey{}, true)
	create, err := stepRequest(cycle[1])
	if err != nil {
		t.Fatal(err)
	}
	create.Ctx = traced
	a, err := pool.GetCtx(traced, "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.(*spanBackend); !ok {
		t.Fatalf("pool handed out %T: the store did not adopt the decorated backend", a)
	}
	if _, err := a.Invoke(create); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.GetCtx(traced, "b"); err != nil { // evicts and spills a
		t.Fatal(err)
	}
	if st := store.Stats(); st.Spills != 1 || st.JournalRecords < 1 {
		t.Fatalf("store stats after eviction: %+v", st)
	}
	a, err = pool.GetCtx(traced, "a") // rehydrates a
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.Invoke(cloudapi.Request{Action: "DescribeVpcs", Ctx: traced})
	if err != nil {
		t.Fatal(err)
	}
	if vpcs := out.Get("vpcs").AsList(); len(vpcs) != 1 {
		t.Fatalf("rehydrated session describes %d VPCs, want 1", len(vpcs))
	}
	_, _, count, _, _ := selfTimes(rec.spans)
	if count[spanRehydrate] != 3 || count[spanSpill] != 2 || count[spanJournal] != 2 || count[spanInterp] != 2 {
		t.Errorf("span counts %v", count)
	}
}

// inProcessNode serves the hot-direct stack from this process.
func inProcessNode(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := lce.NewServer(lce.ServerConfig{Service: "ec2", Backend: "learned", TraceSeed: 1, Sessions: 64, Shards: 8, Ops: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler)
	t.Cleanup(ts.Close)
	return ts
}

func cycleWant(t *testing.T) []expect {
	t.Helper()
	ref, err := newReference()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.cycleExpectations()
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func TestWrongExpectationsShowAsFailures(t *testing.T) {
	ts := inProcessNode(t)
	addr := strings.TrimPrefix(ts.URL, "http://")
	run := func(want []expect) *stageResult {
		tg := newTarget(addr, newSessions(t.Name(), 4), want)
		res, err := runStage(tg, 1, 1, 2, 200*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := run(cycleWant(t)); res.failed != 0 || res.attempted < len(cycle) {
		t.Fatalf("correct fixture: %d failed of %d", res.failed, res.attempted)
	}
	wrongID := cycleWant(t)
	wrongID[1].suffix = bytes.Replace(wrongID[1].suffix, []byte("vpc-00000001"), []byte("vpc-00000002"), 1)
	if res := run(wrongID); res.failed == 0 {
		t.Error("a wrong expected ID did not count as a failure")
	}
	wrongCode := cycleWant(t)
	wrongCode[10].prefix = bytes.Replace(wrongCode[10].prefix, []byte("DependencyViolation"), []byte("InvalidVpcID.NotFound"), 1)
	if res := run(wrongCode); res.failed == 0 {
		t.Error("a flipped expected error code did not count as a failure")
	}
}

func TestDeadServerFailsTheStage(t *testing.T) {
	ts := inProcessNode(t)
	tg := newTarget(strings.TrimPrefix(ts.URL, "http://"), newSessions("s", 4), cycleWant(t))
	go func() {
		time.Sleep(100 * time.Millisecond)
		ts.CloseClientConnections()
		ts.Listener.Close()
	}()
	if res, err := runStage(tg, 1, 1, 1, 2*time.Second); err == nil {
		t.Fatalf("stage over a dying server reported %d ops instead of failing", res.attempted)
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONRepeatsTheTables(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v vs %s / %s", i, bj.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if g := bj.EndToEnd[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v vs %+v", i, g, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(bj.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		if g := bj.PerLayer[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("per-layer %d: %+v vs %+v", i, g, d)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric name %s used twice", d.name)
		}
		seen[d.name] = true
	}
}

// The smoke runs every workload end to end against freshly built
// binaries with stages of a fraction of a second, in both output
// modes, and checks the contract line against BENCHMARK.json.
func TestSmokeAllWorkloads(t *testing.T) {
	bj := readBenchmarkJSON(t)
	e, err := newEnv(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if err := e.preflight(); err != nil {
		t.Skip(err)
	}
	if err := e.build(); err != nil {
		t.Fatal(err)
	}
	stage := 500 * time.Millisecond
	for i := range workloads {
		w := &workloads[i]
		for _, layers := range []bool{false, true} {
			cfg := runConfig{seed: 3, warm: 100 * time.Millisecond, solo: stage, sat: stage, setups: 1,
				layers: layers, tracedOps: 200, traced: 5 * time.Second, microDiv: 200}
			res, err := e.runWorkload(w, cfg)
			if err != nil {
				t.Fatalf("%s (layers=%v): %v", w.name, layers, err)
			}
			if res.failed != 0 || res.attempted < 1 {
				t.Errorf("%s (layers=%v): %d failed of %d", w.name, layers, res.failed, res.attempted)
			}
			defs, want := endToEnd, len(bj.EndToEnd)
			if layers {
				defs, want = perLayer, len(bj.PerLayer)
			}
			line, err := contractLine(res, defs)
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct   *bool                 `json:"correct"`
				Attempted *int                  `json:"attempted"`
				Failed    *int                  `json:"failed"`
				Metrics   map[string]metricJSON `json:"metrics"`
			}
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("%s: contract line %s: %v", w.name, line, err)
			}
			if got.Correct == nil || got.Attempted == nil || got.Failed == nil || len(got.Metrics) != want {
				t.Errorf("%s (layers=%v): contract line %s", w.name, layers, line)
			}
			if !layers {
				for _, d := range endToEnd {
					if got.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, got.Metrics[d.name].Value)
					}
				}
				continue
			}
			m := res.metrics
			if w.learn {
				continue
			}
			if c := m["trace.coverage"]; c < 0.99 || c > 1.01 {
				t.Errorf("%s: trace.coverage = %v", w.name, c)
			}
			if _, err := os.Stat(filepath.Join(e.out, "trace-"+w.name+".jsonl")); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
			if (m["cluster.self_us"] > 0) != w.routed {
				t.Errorf("%s: cluster.self_us = %v", w.name, m["cluster.self_us"])
			}
			if (m["durable.journal_self_us"] > 0) != w.durable() {
				t.Errorf("%s: durable.journal_self_us = %v", w.name, m["durable.journal_self_us"])
			}
			churn := w.name == "durable-churn"
			if (m["durable.rehydrate_self_us"]+m["durable.spill_self_us"] > 0) != churn {
				t.Errorf("%s: rehydrate %v spill %v", w.name, m["durable.rehydrate_self_us"], m["durable.spill_self_us"])
			}
			if churn && m["tenant.hit_rate"] >= 0.5 || !churn && m["tenant.hit_rate"] != 1 {
				t.Errorf("%s: tenant.hit_rate = %v", w.name, m["tenant.hit_rate"])
			}
		}
	}
}
