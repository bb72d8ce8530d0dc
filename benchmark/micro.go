package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"lce"
	"lce/internal/align"
	"lce/internal/cloudapi"
	"lce/internal/cluster"
	"lce/internal/docs"
	"lce/internal/docs/corpus"
	"lce/internal/durable"
	"lce/internal/interp"
	"lce/internal/scenarios"
	"lce/internal/spec"
	"lce/internal/symexec"
	"lce/internal/synth"
	"lce/internal/tenant"
	"lce/internal/trace"
)

// Direct calls into the layers' public functions, at fixed iteration
// counts so a run costs the same on every commit. Each number is the
// median over microBatches batches of the batch's mean.

const microBatches = 5

// sink keeps results alive so the compiler cannot drop a measured call.
var sink any

// measure runs fn iters/div times per batch and returns the median
// batch's ns per call and the mean allocations per call. div is 1
// except in the smoke test, which only wants every path taken once.
func measure(iters, div int, fn func()) (nsPerOp, allocsPerOp float64) {
	iters = max(1, iters/div)
	fn() // warm caches and pools
	var ns []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for b := 0; b < microBatches; b++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(iters))
	}
	runtime.ReadMemStats(&ms1)
	return median(ns), float64(ms1.Mallocs-ms0.Mallocs) / float64(iters*microBatches)
}

// stepRequest is a script step as the interpreter sees it.
func stepRequest(s step) (cloudapi.Request, error) {
	var params map[string]cloudapi.Value
	if err := json.Unmarshal([]byte(s.params), &params); err != nil {
		return cloudapi.Request{}, err
	}
	return cloudapi.Request{Action: s.action, Params: params}, nil
}

// wireBody mirrors the POST body shape the HTTP front-end decodes.
type wireBody struct {
	Action string                    `json:"action"`
	Params map[string]cloudapi.Value `json:"params,omitempty"`
}

// servingMicro fills in the per-layer numbers of the serving layers.
func servingMicro(res *runResult, div int) error {
	m := res.metrics
	c := docs.Render(corpus.EC2())
	svc, _, err := synth.Synthesize(c, lce.PerfectOptions())
	if err != nil {
		return err
	}

	// interp: compile, then the workload's own cycle straight into the
	// emulator, each call timed, averaged per op kind.
	ns, _ := measure(3, div, func() { sink, _ = interp.NewCompiled(svc) })
	m["interp.compile_ms"] = ns / 1e6
	emu, err := interp.NewCompiled(svc)
	if err != nil {
		return err
	}
	reqs := make([]cloudapi.Request, len(cycle))
	for i, s := range cycle {
		if reqs[i], err = stepRequest(s); err != nil {
			return err
		}
	}
	cycles := max(1, 400/div)
	var kindNs [3][]float64
	var ms0, ms1 runtime.MemStats
	for b := 0; b <= microBatches; b++ { // batch 0 warms up
		var total [3]time.Duration
		var n [3]int
		runtime.ReadMemStats(&ms0)
		for i := 0; i < cycles; i++ {
			for k, s := range cycle {
				t0 := time.Now()
				if s.action == "" {
					emu.Reset()
				} else if _, err := emu.Invoke(reqs[k]); (err != nil) != (s.kind == kindError) {
					return fmt.Errorf("interp micro: step %d (%s): err=%v", k, s.action, err)
				}
				total[s.kind] += time.Since(t0)
				n[s.kind]++
			}
		}
		runtime.ReadMemStats(&ms1)
		if b == 0 {
			continue
		}
		for k := range total {
			kindNs[k] = append(kindNs[k], float64(total[k].Nanoseconds())/float64(n[k]))
		}
		m["interp.allocs_per_invoke"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(cycles*len(cycle))
	}
	m["interp.invoke_read_ns"] = median(kindNs[kindRead])
	m["interp.invoke_write_ns"] = median(kindNs[kindWrite])
	m["interp.invoke_error_ns"] = median(kindNs[kindError])

	// The world the snapshot numbers use: the cycle's fullest point.
	emu.Reset()
	for k := 1; k < baseSteps; k++ {
		if _, err := emu.Invoke(reqs[k]); err != nil {
			return err
		}
	}
	ns, _ = measure(2000, div, func() { sink = emu.ExportState() })
	m["interp.export_state_us"] = ns / 1e3
	state := emu.ExportState()
	scratch, err := interp.NewCompiled(svc)
	if err != nil {
		return err
	}
	ns, _ = measure(2000, div, func() { sink = scratch.RestoreState(state) })
	m["interp.restore_state_us"] = ns / 1e3
	snap := &durable.SessionState{LastSeq: 1, World: state}
	ns, _ = measure(2000, div, func() { sink = durable.EncodeSnapshot(snap) })
	m["durable.encode_snapshot_us"] = ns / 1e3
	data := durable.EncodeSnapshot(snap)
	m["durable.snapshot_bytes"] = float64(len(data))
	ns, _ = measure(2000, div, func() { sink, _ = durable.DecodeSnapshot(data) })
	m["durable.decode_snapshot_us"] = ns / 1e3

	// cloudapi wire codec: the largest request body and the largest
	// describe result of the cycle.
	body := []byte(stepBody(cycle[5]))
	ns, _ = measure(5000, div, func() {
		var wb wireBody
		sink = json.Unmarshal(body, &wb)
	})
	m["cloudapi.decode_ns"] = ns
	out, err := emu.Invoke(reqs[7]) // DescribeSubnets, two subnets
	if err != nil {
		return err
	}
	mv := cloudapi.Map(cloudapi.NormalizeResult(out))
	buf := make([]byte, 0, 4096)
	ns, _ = measure(5000, div, func() { buf = cloudapi.AppendJSON(buf[:0], &mv) })
	m["cloudapi.encode_ns"] = ns

	// httpapi: one describe through the whole node handler, as
	// lce-server assembles it for hot-direct, into a recorder.
	srv, err := lce.NewServer(lce.ServerConfig{Service: "ec2", Backend: "learned", TraceSeed: 1, Sessions: 64, Shards: 8, SessionTTL: 15 * time.Minute, Ops: true})
	if err != nil {
		return err
	}
	serve := func(path, body string) int {
		req := httptest.NewRequest("POST", path, io.NopCloser(bytes.NewReader([]byte(body))))
		req.Header.Set("X-LCE-Session", "s00")
		rec := httptest.NewRecorder()
		srv.Handler.ServeHTTP(rec, req)
		return rec.Code
	}
	for k := 0; k < baseSteps; k++ {
		if code := serve(stepPath(cycle[k]), stepBody(cycle[k])); code >= 300 {
			return fmt.Errorf("httpapi micro: step %d answered %d", k, code)
		}
	}
	path, hbody := stepPath(cycle[7]), stepBody(cycle[7])
	ns, allocs := measure(2000, div, func() {
		if serve(path, hbody) != http.StatusOK {
			panic("httpapi micro: describe failed")
		}
	})
	m["httpapi.handler_ns"], m["httpapi.handler_allocs"] = ns, allocs

	// tenant: resident-session lookup. cluster: ring lookup.
	pool, err := tenant.New(cloudapi.FactoryOf(emu), tenant.Config{Shards: 8, Capacity: 64})
	if err != nil {
		return err
	}
	if _, err := pool.Get("s00"); err != nil {
		return err
	}
	ns, _ = measure(20000, div, func() { sink, _ = pool.Get("s00") })
	m["tenant.get_hit_ns"] = ns
	ring := cluster.NewRing(0)
	ring.Add("n1")
	ring.Add("n2")
	ns, _ = measure(20000, div, func() { sink = ring.Owner("s07") })
	m["cluster.ring_owner_ns"] = ns
	return nil
}

// learnMicro fills in the per-layer numbers of the learning layers, on
// the ec2 corpus (the largest of the four).
func learnMicro(res *runResult, div int) error {
	m := res.metrics
	brief := corpus.EC2()
	opts := synth.DefaultOptions()
	ns, _ := measure(3, div, func() { sink, _, _ = synth.SynthesizeFromBrief(brief, opts) })
	m["synth.synthesize_ms"] = ns / 1e6
	svc, _, err := synth.SynthesizeFromBrief(brief, opts)
	if err != nil {
		return err
	}
	var perr error
	ns, _ = measure(3, div, func() {
		parsed, err := spec.Parse(spec.Print(svc))
		if err != nil {
			perr = err
			return
		}
		if errs := spec.Check(parsed, spec.Strict); len(errs) > 0 {
			perr = errs[0]
		}
	})
	if perr != nil {
		return fmt.Errorf("spec round trip: %w", perr)
	}
	m["spec.parse_check_ms"] = ns / 1e6
	seeds := append(scenarios.EC2Fig3(), scenarios.EC2Extended()...)
	ns, _ = measure(3, div, func() { sink = symexec.ViolationTraces(svc, seeds) })
	m["symexec.violations_ms"] = ns / 1e6
	suite := append(append([]trace.Trace(nil), seeds...), symexec.ViolationTraces(svc, seeds)...)
	factory, err := lce.CloudFactory("ec2")
	if err != nil {
		return err
	}
	ns, _ = measure(3, div, func() { sink, _ = align.CompareSuite(svc, factory, suite, 1) })
	m["align.compare_suite_ms"] = ns / 1e6
	ns, _ = measure(3, div, func() {
		fresh, _, _ := synth.SynthesizeFromBrief(brief, opts)
		sink, _ = align.RunFactory(fresh, brief, factory, seeds, align.Options{GenerateViolations: true, Workers: 1})
	})
	m["align.run_ms"] = ns / 1e6
	return nil
}
