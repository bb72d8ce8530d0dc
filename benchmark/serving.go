package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strings"
	"syscall"
	"time"
)

// runConfig sizes one run of one workload.
type runConfig struct {
	seed      int64
	warm      time.Duration
	solo, sat time.Duration
	setups    int  // set-ups per run; setup_s is the fastest
	layers    bool // also take the per-layer numbers (traced run, micro-benchmarks)
	tracedOps int  // upper bound on ops in the traced run
	traced    time.Duration
	microDiv  int // micro-benchmark iteration counts are divided by this
}

// runResult is one run's outcome. metrics holds every number the run
// produced, end-to-end and per-layer alike, by name.
type runResult struct {
	workload  string
	metrics   map[string]float64
	samples   map[string]int // sample count behind a timing
	attempted int
	failed    int
	wall      time.Duration
}

func newResult(w *workload) *runResult {
	return &runResult{workload: w.name, metrics: map[string]float64{}, samples: map[string]int{}}
}

// setStages records a run's solo and sat stages: the end-to-end
// numbers, the higher percentiles that are too noisy to be end-to-end,
// and the ops behind failed_share. It returns the solo stage's stats.
func (r *runResult) setStages(solo, sat *stageResult) (stageStats, error) {
	r.attempted += solo.attempted + sat.attempted
	r.failed += solo.failed + sat.failed
	so, sa := summarize(solo.samples, solo.dur), summarize(sat.samples, sat.dur)
	if so.samples == 0 || sa.samples == 0 {
		return so, fmt.Errorf("no verified-correct op in a stage (solo %d, sat %d): nothing to report", so.samples, sa.samples)
	}
	r.metrics["solo_p50_ms"], r.samples["solo_p50_ms"] = so.p50Ms, so.samples
	r.metrics["client.solo_p90_ms"], r.samples["client.solo_p90_ms"] = so.p90Ms, so.samples
	r.metrics["sat_ops_s"], r.samples["sat_ops_s"] = sa.opsPerSec, sa.samples
	r.metrics["client.solo_p99_ms"], r.samples["client.solo_p99_ms"] = so.p99Ms, so.samples
	r.metrics["client.sat_p99_ms"], r.samples["client.sat_p99_ms"] = sa.p99Ms, sa.samples
	return so, nil
}

// fleet is the set of servers one serving workload runs against.
type fleet struct {
	nodes    []*proc
	nodeArgs [][]string // as spawned, for the restart check
	router   *proc
	dataDir  string
}

// front is the address clients talk to.
func (f *fleet) front() string {
	if f.router != nil {
		return f.router.addr
	}
	return f.nodes[0].addr
}

func (f *fleet) procs() []*proc {
	ps := append([]*proc(nil), f.nodes...)
	if f.router != nil {
		ps = append(ps, f.router)
	}
	return ps
}

func (f *fleet) stop() {
	for _, p := range f.procs() {
		p.kill()
	}
	if f.dataDir != "" {
		os.RemoveAll(f.dataDir)
		// ext4 commits a removal's metadata with the next fsync anyone
		// issues; flush it now, or it lands in whatever is timed next
		// (the next set-up, the stages, or the next run's).
		syscall.Sync()
	}
}

// startFleet spawns the workload's servers and waits until each
// answers /healthz.
func (e *env) startFleet(w *workload) (*fleet, error) {
	f := &fleet{}
	ok := false
	defer func() {
		if !ok {
			f.stop()
		}
	}()
	args := w.serverArgs()
	if w.durable() {
		var err error
		if f.dataDir, err = os.MkdirTemp(e.work, "data-"); err != nil {
			return nil, err
		}
		args = append(args, "-data-dir", f.dataDir)
	}
	names := []string{""}
	if w.routed {
		names = []string{"n1", "n2"}
	}
	for i, n := range names {
		nargs := args
		if n != "" {
			nargs = append(append([]string(nil), args...), "-node", n)
		}
		p, err := e.spawn(fmt.Sprintf("%s-node%d", w.name, i+1), "lce-server", nargs...)
		if err != nil {
			return nil, err
		}
		f.nodes = append(f.nodes, p)
		f.nodeArgs = append(f.nodeArgs, nargs)
	}
	for _, p := range f.nodes {
		if err := p.waitHealthy(); err != nil {
			return nil, err
		}
	}
	if w.routed {
		var members []string
		for i, p := range f.nodes {
			members = append(members, names[i]+"=http://"+p.addr)
		}
		p, err := e.spawn(w.name+"-router", "lce-router", "-nodes", strings.Join(members, ","))
		if err != nil {
			return nil, err
		}
		f.router = p
		if err := p.waitHealthy(); err != nil {
			return nil, err
		}
	}
	ok = true
	return f, nil
}

// poolStats is the slice of GET /v2/sessions the benchmark reads.
type poolStats struct {
	Hits              int64 `json:"hits"`
	Misses            int64 `json:"misses"`
	IdleEvictions     int64 `json:"idleEvictions"`
	CapacityEvictions int64 `json:"capacityEvictions"`
}

// fleetPoolStats sums the nodes' tenant-pool counters.
func (f *fleet) poolStats() (poolStats, error) {
	var sum poolStats
	for _, p := range f.nodes {
		resp, err := http.Get("http://" + p.addr + "/v2/sessions")
		if err != nil {
			return sum, err
		}
		var st poolStats
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return sum, fmt.Errorf("GET /v2/sessions on %s: %w", p.name, err)
		}
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.IdleEvictions += st.IdleEvictions
		sum.CapacityEvictions += st.CapacityEvictions
	}
	return sum, nil
}

// accounting is a reading of everything sampled around the sat stage.
type accounting struct {
	self   procSample
	nodes  []procSample
	router procSample
	pool   poolStats
}

func (f *fleet) account() (accounting, error) {
	var a accounting
	var err error
	if a.self, err = sampleProc(os.Getpid()); err != nil {
		return a, err
	}
	for _, p := range f.nodes {
		s, err := sampleProc(p.cmd.Process.Pid)
		if err != nil {
			return a, fmt.Errorf("%s: %w", p.name, err)
		}
		a.nodes = append(a.nodes, s)
	}
	if f.router != nil {
		if a.router, err = sampleProc(f.router.cmd.Process.Pid); err != nil {
			return a, err
		}
	}
	a.pool, err = f.poolStats()
	return a, err
}

// stripRequestID removes the server-minted request ID value from a
// body so two answers to the same question compare equal.
func stripRequestID(body []byte) []byte {
	const key = `"RequestId":"`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return append([]byte(nil), body...)
	}
	j := bytes.IndexByte(body[i+len(key):], '"')
	if j < 0 {
		return append([]byte(nil), body...)
	}
	return append(append([]byte(nil), body[:i+len(key)]...), body[i+len(key)+j:]...)
}

// describeAll asks addr for every session's describes over one
// connection. It returns the bodies (request IDs stripped) in
// (session, describe) order and the latency of each session's first
// call.
func describeAll(addr string, sessions []*session) (bodies [][]byte, firstMs []float64, err error) {
	c, err := dial(addr)
	if err != nil {
		return nil, nil, err
	}
	defer c.close()
	for _, s := range sessions {
		for i, a := range describes {
			req := renderRequest(addr, "/v2/ec2?Action="+a, s.name, `{"params":{}}`)
			t0 := time.Now()
			status, _, body, err := c.roundTrip(req)
			if err != nil {
				return nil, nil, fmt.Errorf("session %s %s: %w", s.name, a, err)
			}
			if i == 0 {
				firstMs = append(firstMs, float64(time.Since(t0).Nanoseconds())/1e6)
			}
			if status != http.StatusOK {
				body = []byte(fmt.Sprintf("status %d: %s", status, body))
			}
			bodies = append(bodies, stripRequestID(body))
		}
	}
	return bodies, firstMs, nil
}

// setAccounting turns the readings taken around the sat stage into the
// per-op process metrics.
func (res *runResult) setAccounting(w *workload, f *fleet, before, after accounting, satOps int) {
	ops := float64(satOps)
	perOp := func(d time.Duration) float64 { return float64(d.Microseconds()) / ops }
	res.metrics["loadgen.cpu_us_per_op"] = perOp(after.self.cpu - before.self.cpu)
	var nodeCPU time.Duration
	var nodeWrite int64
	for i := range after.nodes {
		nodeCPU += after.nodes[i].cpu - before.nodes[i].cpu
		nodeWrite += after.nodes[i].writeBytes - before.nodes[i].writeBytes
		res.metrics["node.peak_rss_mb"] = max(res.metrics["node.peak_rss_mb"], after.nodes[i].peakRSSMB)
	}
	res.metrics["node.cpu_us_per_op"] = perOp(nodeCPU)
	res.metrics["node.write_bytes_per_op"] = float64(nodeWrite) / ops
	if f.router != nil {
		res.metrics["router.cpu_us_per_op"] = perOp(after.router.cpu - before.router.cpu)
		res.metrics["router.peak_rss_mb"] = after.router.peakRSSMB
	}
	hits, misses := after.pool.Hits-before.pool.Hits, after.pool.Misses-before.pool.Misses
	if hits+misses > 0 {
		res.metrics["tenant.hit_rate"] = float64(hits) / float64(hits+misses)
	}
	res.metrics["tenant.evictions_per_op"] = float64(after.pool.CapacityEvictions+after.pool.IdleEvictions-
		before.pool.CapacityEvictions-before.pool.IdleEvictions) / ops
	if w.durable() {
		res.metrics["durable.disk_bytes_per_session"] = float64(dirBytes(f.dataDir)) / float64(w.sessions)
	}
}

// postRunChecks are the correctness checks outside every timed window:
// each session's final state against a replay of its op log, and on a
// durable node the same state again after kill -9 and restart.
func (e *env) postRunChecks(w *workload, f *fleet, t *target, ref *reference, res *runResult) error {
	bodies, _, err := describeAll(f.front(), t.sessions)
	if err != nil {
		return fmt.Errorf("post-run describes: %w", err)
	}
	for i, s := range t.sessions {
		state, err := ref.stateAfter(s.n)
		if err != nil {
			return err
		}
		for j := range describes {
			res.attempted++
			got := bodies[i*len(describes)+j]
			if exp := append(append([]byte(nil), state[j].prefix...), state[j].suffix...); !bytes.Equal(got, exp) {
				res.failed++
				fmt.Fprintf(os.Stderr, "%s: session %s %s after %d ops:\n  got  %s\n  want %s\n", w.name, s.name, describes[j], s.n, got, exp)
			}
		}
	}

	if w.durable() {
		// Crash recovery: kill -9 the node, restart it over the same
		// directory, and every session must describe itself exactly as
		// before. (A process kill leaves the page cache intact, so this
		// checks the journal's logic, not the device's flush.)
		f.nodes[0].kill()
		t0 := time.Now()
		p, err := e.spawn(w.name+"-node1-restarted", "lce-server", f.nodeArgs[0]...)
		if err != nil {
			return err
		}
		f.nodes[0] = p
		if err := p.waitHealthy(); err != nil {
			return err
		}
		res.metrics["durable.restart_s"] = time.Since(t0).Seconds()
		recovered, firstMs, err := describeAll(p.addr, t.sessions)
		if err != nil {
			return fmt.Errorf("post-restart describes: %w", err)
		}
		res.metrics["durable.recover_first_touch_ms"] = median(firstMs)
		res.samples["durable.recover_first_touch_ms"] = len(firstMs)
		for i := range bodies {
			res.attempted++
			if !bytes.Equal(bodies[i], recovered[i]) {
				res.failed++
				fmt.Fprintf(os.Stderr, "%s: session %s %s differs after kill -9 and restart:\n  before %s\n  after  %s\n",
					w.name, t.sessions[i/len(describes)].name, describes[i%len(describes)], bodies[i], recovered[i])
			}
		}
	}
	return nil
}

// runServing runs one serving workload: set-up (several times, for a
// steady setup_s — the fastest, like the best window of a stage; the
// last fleet is kept), warm-up, solo stage, sat stage, then the
// post-run checks outside every timed window.
func (e *env) runServing(w *workload, cfg runConfig) (*runResult, error) {
	began := time.Now()
	res := newResult(w)
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	want, err := ref.cycleExpectations()
	if err != nil {
		return nil, err
	}

	var f *fleet
	var t *target
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if f != nil {
			f.stop()
		}
		t0 := time.Now()
		if f, err = e.startFleet(w); err != nil {
			return nil, err
		}
		t = newTarget(f.front(), newSessions("s", w.sessions), want)
		if err := runSteps(t, 0, baseSteps); err != nil {
			f.stop()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer f.stop()
	res.metrics["setup_s"] = slices.Min(setups)
	res.samples["setup_s"] = len(setups)

	stage := func(idx, clients int, dur time.Duration) (*stageResult, error) {
		sr, err := runStage(t, cfg.seed, idx, clients, dur)
		if err != nil {
			return nil, err
		}
		for _, p := range f.procs() {
			if !p.alive() {
				return nil, fmt.Errorf("%s died during stage %d (see %s)", p.name, idx, p.log.Name())
			}
		}
		return sr, nil
	}
	warm, err := stage(0, 1, cfg.warm)
	if err != nil {
		return nil, err
	}
	res.failed += warm.failed // a wrong answer is wrong whenever it happens
	solo, err := stage(1, 1, cfg.solo)
	if err != nil {
		return nil, err
	}
	before, err := f.account()
	if err != nil {
		return nil, err
	}
	sat, err := stage(2, 2, cfg.sat)
	if err != nil {
		return nil, err
	}
	after, err := f.account()
	if err != nil {
		return nil, err
	}
	soloSt, err := res.setStages(solo, sat)
	if err != nil {
		return nil, err
	}

	res.setAccounting(w, f, before, after, sat.attempted)

	if cfg.layers && w.routed {
		// The hop's cost on the same binaries in the same run: the same
		// script, solo, straight at node n1 with sessions of its own.
		direct := newTarget(f.nodes[0].addr, newSessions("d", w.sessions/2), want)
		if err := runSteps(direct, 0, baseSteps); err != nil {
			return nil, fmt.Errorf("direct leg set-up: %w", err)
		}
		sr, err := runStage(direct, cfg.seed, 3, 1, cfg.solo)
		if err != nil {
			return nil, err
		}
		res.failed += sr.failed
		if st := summarize(sr.samples, sr.dur); st.p50Ms > 0 {
			res.metrics["cluster.hop_ratio"] = soloSt.p50Ms / st.p50Ms
			res.samples["cluster.hop_ratio"] = st.samples
		}
	}

	if err := e.postRunChecks(w, f, t, ref, res); err != nil {
		return nil, err
	}

	if cfg.layers {
		if err := e.tracedRun(w, cfg, want, res); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		if err := servingMicro(res, cfg.microDiv); err != nil {
			return nil, fmt.Errorf("micro-benchmarks: %w", err)
		}
	}
	res.metrics["failed_share"] = float64(res.failed) / float64(res.attempted)
	res.wall = time.Since(began)
	return res, nil
}
