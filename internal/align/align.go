// Package align implements the automated alignment loop (§4.3): run
// symbolically derived traces against both the learned emulator and
// the cloud oracle, diff the outcomes, localize each divergence to a
// spec element, and repair it — by re-reading the documentation for
// the implicated resource, or, when the documentation itself is out of
// sync with the cloud, by adopting the error code the cloud was
// observed to return. The loop iterates until the emulator aligns or
// the round budget is spent.
//
// The comparison phase of each round — one differential trace replay
// per seed — is embarrassingly parallel and dominates wall-clock time,
// so it fans out over a bounded worker pool (Options.Workers). Each
// worker owns a private emulator instance (forked from the round's
// emulator, built from the shared spec, which is read-only during
// comparison) and a private oracle instance (stamped out by a
// cloudapi.BackendFactory), so no mutable state crosses goroutines;
// per-trace reports are merged back in trace order, which makes a
// parallel round's Result byte-identical to a serial one's. The repair
// phase stays single-goroutine: it mutates the spec.
//
// A round costs what the previous round's repairs changed. A repair
// never edits an SM but puts a new one in its place, so the index, the
// check records and the compiled program each find what changed by
// pointer: only the replaced SMs (and the SMs whose check read them)
// are re-indexed, re-checked and recompiled. A repair that leaves the
// spec ill-formed is undone by restoring the SM list saved before it.
//
// Only the emulator side changes between rounds. An oracle replay is a
// pure function of its trace — Reset restarts the oracle's state and
// its ID allocation — so each run memoizes the oracle's outcomes per
// trace position and, after round 1, replays only the emulator and
// diffs it against them. The memo lives and dies with one run. A
// replay with a broken or transient-coded outcome is never memoized:
// it says something about the oracle's weather, not about the trace,
// so the next round replays it.
package align

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

	"lce/internal/cloudapi"
	"lce/internal/docs"
	"lce/internal/interp"
	"lce/internal/obsv"
	"lce/internal/retry"
	"lce/internal/spec"
	"lce/internal/symexec"
	"lce/internal/synth"
	"lce/internal/trace"
)

// Divergence causes: a divergence is *semantic* when emulator and
// oracle genuinely disagree about the request, and
// *exhausted-transient* when the failing side carries a transient
// infrastructure code — an injected (or real-cloud) fault that
// survived the retry budget, which says nothing about behavioural
// alignment and must not drive spec repairs.
const (
	CauseSemantic           = "semantic"
	CauseExhaustedTransient = "exhausted-transient"
)

// Cause classifies one divergence as CauseSemantic or
// CauseExhaustedTransient, keyed on the same transient-code set the
// retry layer uses (cloudapi.IsTransientCode).
func Cause(d trace.StepDiff) string {
	if outcomeTransient(d.Subject) || outcomeTransient(d.Against) {
		return CauseExhaustedTransient
	}
	return CauseSemantic
}

func outcomeTransient(o *trace.Outcome) bool {
	return o != nil && !o.OK && !o.Broken && cloudapi.IsTransientCode(o.Code)
}

// Repair describes one fix the engine applied.
type Repair struct {
	Kind   string // "redocument-sm" | "adopt-cloud-code"
	Target string // SM name or "action/code"
	Reason string
}

// Round summarizes one alignment iteration.
type Round struct {
	Round      int
	Aligned    int
	Total      int
	Divergence []trace.StepDiff
	Repairs    []Repair
	// Semantic counts divergences caused by genuine emulator/cloud
	// disagreement; ExhaustedTransient counts divergences caused by
	// transient oracle faults that outlasted the retry budget (zero
	// whenever the retry policy covers the fault injector's worst
	// case). Semantic + ExhaustedTransient == len(Divergence).
	Semantic           int
	ExhaustedTransient int
	// OracleReplays counts this round's trace replays against the
	// oracle, and OracleMemoHits the comparisons that diffed against an
	// earlier round's memoized replay instead. OracleReplays +
	// OracleMemoHits == Total.
	OracleReplays  int
	OracleMemoHits int
	// SMsCompiled counts the SMs compiled to build this round's
	// emulator: every SM in round 1, then only the SMs the previous
	// round's repairs replaced.
	SMsCompiled int
}

// Result is the outcome of an alignment run.
type Result struct {
	Rounds []Round
	// Converged reports whether every trace aligned by the end.
	Converged bool
	// Final is the aligned (or best-effort) emulator.
	Final *interp.Emulator
	// Stats sums the rounds (comparisons, divergences, repairs) and
	// adds the run's retry tallies.
	Stats Stats
}

// Options tunes the loop.
type Options struct {
	MaxRounds int
	// GenerateViolations adds symexec-derived single-violation traces
	// to the seed suite.
	GenerateViolations bool
	// Workers bounds the comparison-phase worker pool. 0 (the default)
	// means GOMAXPROCS; 1 forces the serial path. Any setting yields an
	// identical Result — parallelism only changes wall-clock time. When
	// the oracle cannot be instantiated per worker (no factory and no
	// cloudapi.Forker support), the engine falls back to serial
	// regardless of this setting.
	Workers int
	// Retry, when non-nil, wraps every worker's oracle in a resilient
	// client with this policy: transient oracle faults (throttling,
	// 5xx, timeouts) are retried — counted in the run's Stats —
	// instead of surfacing as spurious divergences. Each worker's
	// wrapper draws a derived jitter seed so backoff schedules stay
	// deterministic per worker.
	Retry *retry.Policy
	// Obs, when non-nil, records the run's observability: one root
	// span per trace comparison (keyed by round and trace index, so
	// trace IDs are identical across runs and worker counts), nested
	// replay and per-call spans, fault/retry span events, per-op
	// latency histograms, and the run counters published into the
	// registry. Tracing never changes the Result — a traced run is
	// byte-identical to an untraced one.
	Obs *obsv.Obs
}

// Run executes the alignment loop over svc, mutating it in place. The
// oracle is forked per worker when it supports cloudapi.Forker (every
// hand-written cloud model does); otherwise the loop runs serially on
// the single shared instance.
func Run(svc *spec.Service, brief *docs.ServiceDoc, oracle cloudapi.Backend, seeds []trace.Trace, opts Options) (*Result, error) {
	return run(svc, brief, oracle, cloudapi.FactoryOf(oracle), seeds, opts)
}

// RunFactory is Run for callers that construct oracles explicitly: each
// comparison worker draws its own instance from the factory.
func RunFactory(svc *spec.Service, brief *docs.ServiceDoc, factory cloudapi.BackendFactory, seeds []trace.Trace, opts Options) (*Result, error) {
	if factory == nil {
		return nil, fmt.Errorf("align: nil backend factory")
	}
	return run(svc, brief, factory(), factory, seeds, opts)
}

func run(svc *spec.Service, brief *docs.ServiceDoc, oracle cloudapi.Backend, factory cloudapi.BackendFactory, seeds []trace.Trace, opts Options) (res *Result, err error) {
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = len(svc.SMs) + 2
	}
	traces := append([]trace.Trace{}, seeds...)
	if opts.GenerateViolations {
		traces = append(traces, symexec.ViolationTraces(svc, seeds)...)
	}
	workers := poolSize(opts.Workers, len(traces), factory != nil)

	res = &Result{}
	var tally retry.Tally
	// One keyed-ID epoch per run: reusing an Obs across runs keeps
	// trace IDs unique without losing run-to-run determinism.
	epoch := opts.Obs.TracerOrNil().NextEpoch()
	// Every return — converged, stuck, or errored — reads the run's
	// counts off the rounds it recorded and adds them to the registry.
	defer func() {
		res.Stats = statsOf(res.Rounds, &tally)
		if opts.Obs != nil {
			res.Stats.PublishTo(opts.Obs.Registry)
		}
	}()
	// adopted records cloud error codes already grafted onto actions so
	// a stale-doc divergence is only "fixed from observation" once.
	adopted := map[string]bool{}
	// redocumented records SMs already re-extracted; if a divergence
	// persists on a redocumented SM, the docs themselves are wrong and
	// the cloud's observed behaviour wins.
	redocumented := map[string]bool{}
	// memo[i] holds the oracle's outcomes for traces[i] once a replay
	// was memoizable; later rounds diff against it instead of replaying.
	memo := make([][]trace.Outcome, len(traces))

	for round := 1; round <= opts.MaxRounds; round++ {
		// Each trace is compared once per round and its memo entry only
		// ever filled, so the entries filled so far are this round's hits.
		hits := 0
		for _, out := range memo {
			if out != nil {
				hits++
			}
		}
		reports, emu, err := compareRound(svc, res.Final, oracle, factory, traces, memo, workers, opts.Retry, &tally, epoch, round, opts.Obs)
		if err != nil {
			return res, err
		}
		res.Final = emu
		r := Round{
			Round:          round,
			Total:          len(traces),
			OracleReplays:  len(traces) - hits,
			OracleMemoHits: hits,
			SMsCompiled:    emu.SMsCompiled(),
		}
		implicated := map[string]trace.StepDiff{}
		var wrongCodes []trace.StepDiff
		// reports is ordered by trace index, so this loop observes the
		// suite exactly as the serial engine did.
		for _, rep := range reports {
			if rep.Aligned() {
				r.Aligned++
				continue
			}
			d := *rep.FirstDiff()
			r.Divergence = append(r.Divergence, d)
			// An exhausted-transient divergence is an oracle fault that
			// outlasted the retry budget, not a spec bug: report it but
			// never let it drive a repair — redocumenting an SM or
			// adopting "Throttling" as the documented error code would
			// corrupt the spec.
			if Cause(d) == CauseExhaustedTransient {
				r.ExhaustedTransient++
				continue
			}
			r.Semantic++
			smName := localize(svc, d.Action)
			if smName != "" {
				if _, seen := implicated[smName]; !seen {
					implicated[smName] = d
				}
			}
			if d.Kind == trace.DiffWrongCode {
				wrongCodes = append(wrongCodes, d)
			}
		}
		if r.Aligned == r.Total {
			res.Rounds = append(res.Rounds, r)
			res.Converged = true
			return res, nil
		}

		// Repair phase (single-goroutine: mutates the spec). First
		// preference: re-read the docs for each implicated SM
		// (deterministic order).
		names := make([]string, 0, len(implicated))
		for n := range implicated {
			names = append(names, n)
		}
		sort.Strings(names)
		progressed := false
		for _, n := range names {
			if redocumented[n] {
				continue
			}
			before := slices.Clone(svc.SMs)
			err := synth.RepairSM(svc, brief, n)
			var neighbours []string
			if err != nil {
				// The fresh SM may read state that a neighbour's noisy
				// draft dropped: re-read the documentation of the SMs
				// the failing checks resolved, and check again.
				neighbours = unredocumentedReads(svc, brief, redocumented, n)
				if len(neighbours) > 0 {
					err = synth.RepairSM(svc, brief, neighbours...)
				}
			}
			redocumented[n] = true
			if err != nil {
				// Still ill-formed: put back the SMs the repair replaced
				// (they indexed cleanly); n stays marked, not re-read. A
				// missing doc or a name clash is no draft noise: give up.
				if ce := (*spec.CheckError)(nil); errors.As(err, &ce) {
					svc.SMs = before
					err = svc.Reindex()
				}
				if err != nil {
					res.Rounds = append(res.Rounds, r)
					return res, fmt.Errorf("align: repair of %s failed: %w", n, err)
				}
				continue
			}
			progressed = true
			r.Repairs = append(r.Repairs, Repair{
				Kind:   "redocument-sm",
				Target: n,
				Reason: fmt.Sprintf("divergence at %s (%s)", implicated[n].Action, implicated[n].Kind),
			})
			for _, m := range neighbours {
				redocumented[m] = true
				r.Repairs = append(r.Repairs, Repair{
					Kind:   "redocument-sm",
					Target: m,
					Reason: fmt.Sprintf("the fresh %s did not check against its draft", n),
				})
			}
		}
		// Second preference: a wrong-code divergence that survived
		// redocumentation means the documentation disagrees with the
		// cloud; adopt the observed code (§4.3 — error codes must match
		// the cloud exactly).
		if !progressed {
			for _, d := range wrongCodes {
				key := d.Action + "/" + d.Against.Code
				if adopted[key] {
					continue
				}
				if synth.SetAssertCode(svc, d.Action, d.Subject.Code, d.Against.Code) {
					adopted[key] = true
					progressed = true
					r.Repairs = append(r.Repairs, Repair{
						Kind:   "adopt-cloud-code",
						Target: key,
						Reason: fmt.Sprintf("documentation says %s, cloud returns %s", d.Subject.Code, d.Against.Code),
					})
				}
			}
		}
		res.Rounds = append(res.Rounds, r)
		if !progressed {
			return res, nil // stuck: report best effort
		}
	}
	return res, nil
}

// unredocumentedReads lists, sorted, the documented SMs that the failing
// SMs' last checks resolved, leaving out repaired (already noise-free)
// SMs. spec.Recheck with nothing changed re-checks nothing: it returns
// the errors on record.
func unredocumentedReads(svc *spec.Service, brief *docs.ServiceDoc, redocumented map[string]bool, repaired string) []string {
	var out []string
	for _, err := range spec.Recheck(svc, spec.Strict) {
		ce, ok := err.(*spec.CheckError)
		if !ok {
			continue
		}
		for _, m := range svc.Reads(ce.SM) {
			if m != repaired && !redocumented[m] && brief.Resource(m) != nil && !slices.Contains(out, m) {
				out = append(out, m)
			}
		}
	}
	sort.Strings(out)
	return out
}

// poolSize resolves the effective worker count: requested (or
// GOMAXPROCS when unset), clamped to the number of traces, and forced
// to 1 when per-worker oracle instances are unavailable.
func poolSize(requested, traces int, haveFactory bool) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > traces {
		w = traces
	}
	if w < 1 || !haveFactory {
		w = 1
	}
	return w
}

// CompareSuite replays every trace differentially — a spec-built
// emulator versus a factory-drawn oracle — across a pool of `workers`
// goroutines, returning reports in suite order. It is one alignment
// round's comparison phase, exported for the speedup benchmark and for
// callers that want bulk differential replay without the repair loop.
func CompareSuite(svc *spec.Service, factory cloudapi.BackendFactory, traces []trace.Trace, workers int) ([]trace.Report, error) {
	reports, _, err := CompareSuiteWith(svc, factory, traces, Options{Workers: workers})
	return reports, err
}

// CompareSuiteWith is CompareSuite configured by the Workers, Retry and
// Obs fields of opts: a non-nil Retry wraps every worker's oracle in
// the resilient client, and a non-nil Obs roots one span per
// comparison keyed by its trace index, with per-call child spans,
// fault/retry events and per-op latencies in the registry. The Stats
// count the one comparison phase (Rounds is 0) and its retries.
func CompareSuiteWith(svc *spec.Service, factory cloudapi.BackendFactory, traces []trace.Trace, opts Options) ([]trace.Report, Stats, error) {
	if factory == nil {
		return nil, Stats{}, fmt.Errorf("align: nil backend factory")
	}
	var tally retry.Tally
	workers := poolSize(opts.Workers, len(traces), true)
	epoch := opts.Obs.TracerOrNil().NextEpoch()
	reports, _, err := compareRound(svc, nil, nil, factory, traces, make([][]trace.Outcome, len(traces)), workers, opts.Retry, &tally, epoch, 0, opts.Obs)
	if err != nil {
		return nil, Stats{}, err
	}
	n := int64(len(reports))
	st := Stats{TracesCompared: n, OracleReplays: n, Retries: tally.Retries(), TransientFaults: tally.TransientFaults()}
	for i := range reports {
		if !reports[i].Aligned() {
			st.Divergent++
		}
	}
	return reports, st, nil
}

// compareRound runs the comparison phase of one round and returns the
// per-trace reports in trace order plus the first worker's emulator
// (the round's representative Final). Worker w owns emus[w] and its
// own oracle for the whole phase; the spec is shared read-only. The
// first emulator is built up front, because indexing mutates the
// spec's lookup tables: from scratch when prev is nil (round 1, or a
// bare comparison), otherwise rebuilt from prev — the previous round's
// emulator — compiling only the SMs the repairs since put in.
// Remaining workers fork it, sharing the immutable compiled program,
// so the spec is lowered once per round, not once per worker. A
// non-nil retry policy wraps each worker's oracle in a resilient
// client (derived jitter seed per worker, events counted in tally) so
// transient oracle faults are retried inside the worker instead of
// surfacing as divergences. A non-nil obs roots one span per
// comparison, keyed by (epoch, round, index) so trace IDs never depend
// on which worker drew which trace. memo is the run's oracle memo (see
// diff): worker writes land on disjoint indices, and the next round
// reads them after the pool joins.
func compareRound(svc *spec.Service, prev *interp.Emulator, oracle cloudapi.Backend, factory cloudapi.BackendFactory, traces []trace.Trace, memo [][]trace.Outcome, workers int, policy *retry.Policy, tally *retry.Tally, epoch int64, round int, obs *obsv.Obs) ([]trace.Report, *interp.Emulator, error) {
	emus := make([]*interp.Emulator, workers)
	oracles := make([]cloudapi.Backend, workers)
	var base *interp.Emulator
	var err error
	if prev == nil {
		base, err = interp.New(svc)
	} else {
		base, err = prev.Rebuild()
	}
	if err != nil {
		return nil, nil, fmt.Errorf("align: emulator rebuild failed: %w", err)
	}
	for w := 0; w < workers; w++ {
		if w == 0 {
			emus[w] = base
		} else {
			emus[w] = base.Fork().(*interp.Emulator)
		}
		if factory != nil {
			oracles[w] = factory()
		} else {
			oracles[w] = oracle
		}
		if policy != nil {
			p := *policy
			p.Seed = policy.Seed ^ int64(w+1)*0x9E3779B9
			oracles[w] = retry.Wrap(oracles[w], p, tally)
		}
	}

	// Per-cause divergence counters, labelled with the service under
	// alignment ({service,cause}) so a multi-service process attributes
	// each divergence. Pre-created once per round; nil (no-op) without a
	// registry, which keeps the uninstrumented path untouched.
	var cDivSemantic, cDivTransient *obsv.Counter
	if obs != nil && obs.Registry != nil {
		cDivSemantic = obs.Registry.Counter(obsv.MetricAlignDivergences,
			"service", svc.Name, "cause", CauseSemantic)
		cDivTransient = obs.Registry.Counter(obsv.MetricAlignDivergences,
			"service", svc.Name, "cause", CauseExhaustedTransient)
	}
	countDivergence := func(d *trace.StepDiff) {
		if d == nil || cDivSemantic == nil {
			return
		}
		if Cause(*d) == CauseSemantic {
			cDivSemantic.Inc()
		} else {
			cDivTransient.Inc()
		}
	}

	// diff compares traces[i]: against the memoized oracle outcomes when
	// an earlier round left them, replaying only the emulator; otherwise
	// replaying both sides and memoizing the oracle's replay if it may
	// stand in for every later one. It reports whether the memo served.
	diff := func(ctx context.Context, emu *interp.Emulator, ora cloudapi.Backend, i int) (trace.Report, bool) {
		tr := traces[i]
		if out := memo[i]; out != nil {
			return trace.Diff(i, tr, trace.RunTraced(ctx, emu, tr, "emulator"), out), true
		}
		rep := trace.CompareIndexedTraced(ctx, emu, ora, i, tr)
		if memoizable(rep.Oracle) {
			memo[i] = rep.Oracle
		}
		return rep, false
	}

	compare := func(emu *interp.Emulator, ora cloudapi.Backend, i int) trace.Report {
		tracer := obs.TracerOrNil()
		if tracer == nil {
			// Nil-tracer fast path: exactly the untraced comparison.
			rep, _ := diff(context.Background(), emu, ora, i)
			countDivergence(rep.FirstDiff())
			return rep
		}
		ctx := obs.Context(context.Background())
		ctx, root := tracer.StartRootKeyed(ctx, obsv.SpanAlignTrace, rootKey(epoch, round, i))
		root.SetAttr("service", svc.Name)
		root.SetAttr("trace", traces[i].Name)
		root.SetAttrInt("index", int64(i))
		root.SetAttrInt("round", int64(round))
		rep, memoized := diff(ctx, emu, ora, i)
		if memoized {
			root.SetAttr("oracle", "memo")
		} else {
			root.SetAttr("oracle", "replayed")
		}
		if d := rep.FirstDiff(); d != nil {
			root.SetAttr("aligned", "false")
			root.SetAttr("diff.action", d.Action)
			root.SetAttr("diff.kind", d.Kind.String())
			root.SetAttr("diff.cause", Cause(*d))
			root.SetError(d.Kind.String())
			countDivergence(d)
		} else {
			root.SetAttr("aligned", "true")
		}
		root.End()
		return rep
	}

	reports := make([]trace.Report, len(traces))
	if workers == 1 {
		for i := range traces {
			reports[i] = compare(emus[0], oracles[0], i)
		}
		return reports, emus[0], nil
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(emu *interp.Emulator, ora cloudapi.Backend) {
			defer wg.Done()
			for i := range jobs {
				// Disjoint index writes: no lock needed on the slice.
				reports[i] = compare(emu, ora, i)
			}
		}(emus[w], oracles[w])
	}
	for i := range traces {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return reports, emus[0], nil
}

// memoizable reports whether an oracle replay may stand in for every
// later replay of its trace within the run: not if any step broke (a
// backend malfunction) or ended on a transient code (a fault that
// outlasted the retry budget). A replay whose faults were retried to
// success is memoizable — its outcomes are the fault-free ones.
func memoizable(out []trace.Outcome) bool {
	for i := range out {
		if out[i].Broken || outcomeTransient(&out[i]) {
			return false
		}
	}
	return true
}

// rootKey packs (epoch, round, trace index) into the deterministic key
// the per-comparison root span's trace ID derives from: 16 bits of
// epoch, 16 of round, 32 of index.
func rootKey(epoch int64, round, index int) int64 {
	return epoch<<48 | int64(uint16(round))<<32 | int64(uint32(index))
}

// localize maps a diverging action to the SM that owns it — the
// paper's "track down the source of errors to a specific SM
// implementation".
func localize(svc *spec.Service, action string) string {
	sm, _, ok := svc.Action(action)
	if !ok {
		return ""
	}
	return sm.Name
}
