// Command lce-bench regenerates the paper's tables and figures and
// prints them:
//
//	lce-bench            # everything
//	lce-bench -table1 -fig3
//	lce-bench -alignspeed -workers 8        # parallel alignment speedup
//	lce-bench -alignspeed -short -json out.json  # CI bench-smoke artifact
//	lce-bench -chaos -short                 # alignment vs a flaky oracle, across fault rates
//	lce-bench -tenant -short -json out.json # multi-tenant sweep + /batch amortization
//	lce-bench -durable -short -json out.json # journal/spill/rehydrate latency + sessions beyond RAM
//	lce-bench -phases -short -json out.json # phase-timing attribution, gated on coverage vs end-to-end
//	lce-bench -cluster -short -json out.json # router hop overhead, fleet scale-out sweep, live-migration cost
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"lce/internal/eval"
	"lce/internal/obsv"
)

// artifactSchemaVersion identifies the benchArtifact layout; bump it
// when a field changes meaning so trajectory tooling can dispatch on
// shape instead of guessing from key presence. v3 added the run-wide
// MemStats block and the operations-plane overhead rows; v4 added the
// compiled-vs-walked interpreter rows (gone with the second engine;
// the block is simply absent now); v5 added the durable-tier
// block (journal write path, spill/rehydrate latency,
// sessions-beyond-RAM capacity); v6 added the phase-attribution
// block (-phases: per-phase latency percentiles + coverage vs the
// end-to-end distribution); v7 added the cluster block (-cluster:
// router hop overhead, fleet scale-out sweep, join-triggered live
// migration); v8 added the routed-traced routing-overhead row (the
// router-hop distributed-tracing tax) and its machine-independent
// overheadRatio gate field. lce-perfdiff accepts any schema ≥ 3.
const artifactSchemaVersion = 8

// benchArtifact is the JSON blob -json writes; CI uploads it so every
// PR leaves a perf trajectory behind. GitSHA and GoMaxProcs pin each
// data point to the commit and the parallelism it ran with — without
// them a trajectory spanning PRs or runner shapes is uninterpretable.
type benchArtifact struct {
	SchemaVersion int            `json:"schemaVersion"`
	GoVersion     string         `json:"goVersion,omitempty"`
	GitSHA        string         `json:"gitSha,omitempty"`
	GitDirty      bool           `json:"gitDirty,omitempty"`
	GoMaxProcs    int            `json:"goMaxProcs"`
	Timestamp     time.Time      `json:"timestamp"`
	AlignSpeed    []speedupJSON  `json:"alignSpeedup,omitempty"`
	Converge      []convergeJSON `json:"alignmentConvergence,omitempty"`
	Chaos         []chaosJSON    `json:"chaosAlignment,omitempty"`
	Tenant        []tenantJSON   `json:"tenantSweep,omitempty"`
	Batch         []batchJSON    `json:"batchAmortization,omitempty"`
	Ops           []opsJSON      `json:"opsOverhead,omitempty"`
	Durable       *durableJSON   `json:"durable,omitempty"`
	Phases        *phasesJSON    `json:"phases,omitempty"`
	Cluster       *clusterJSON   `json:"cluster,omitempty"`
	// Mem is the whole-run heap delta: how much this benchmark binary
	// allocated and collected between flag parsing and artifact write.
	Mem *memJSON `json:"memStats,omitempty"`
}

// opsJSON is one -ops cell: the same HTTP load with the operations
// plane off versus on.
type opsJSON struct {
	Mode        string  `json:"mode"`
	Requests    int     `json:"requests"`
	ElapsedNs   int64   `json:"elapsedNs"`
	PerReqNs    int64   `json:"perReqNs"`
	AllocBytes  uint64  `json:"allocBytes"`
	Allocs      uint64  `json:"allocs"`
	AllocsPerRq float64 `json:"allocsPerReq"`
	NumGC       uint32  `json:"numGC"`
}

// memJSON pins each artifact to the memory behaviour of the run that
// produced it, so a perf trajectory can tell a latency regression from
// an allocation regression.
type memJSON struct {
	TotalAllocBytes uint64 `json:"totalAllocBytes"`
	Mallocs         uint64 `json:"mallocs"`
	HeapAllocBytes  uint64 `json:"heapAllocBytes"`
	HeapObjects     uint64 `json:"heapObjects"`
	NumGC           uint32 `json:"numGC"`
	GCPauseNs       uint64 `json:"gcPauseNs"`
}

// memDelta summarizes the run's allocation activity between two
// MemStats snapshots (monotonic fields as deltas, heap fields as the
// final state).
func memDelta(before, after *runtime.MemStats) *memJSON {
	return &memJSON{
		TotalAllocBytes: after.TotalAlloc - before.TotalAlloc,
		Mallocs:         after.Mallocs - before.Mallocs,
		HeapAllocBytes:  after.HeapAlloc,
		HeapObjects:     after.HeapObjects,
		NumGC:           after.NumGC - before.NumGC,
		GCPauseNs:       after.PauseTotalNs - before.PauseTotalNs,
	}
}

// tenantJSON is one -tenant sweep cell: the same total load pushed
// through K pool sessions; speedup is relative to the 1-session row.
type tenantJSON struct {
	Sessions    int     `json:"sessions"`
	Goroutines  int     `json:"goroutines"`
	Ops         int     `json:"ops"`
	PerCallNs   int64   `json:"perCallNs"`
	ElapsedNs   int64   `json:"elapsedNs"`
	CallsPerSec float64 `json:"callsPerSec"`
	Speedup     float64 `json:"speedup"`
}

// batchJSON is one -tenant batch cell: n sequential single calls
// versus one n-request /batch round trip at a simulated RTT.
type batchJSON struct {
	N         int     `json:"n"`
	RTTNs     int64   `json:"rttNs"`
	SinglesNs int64   `json:"singlesNs"`
	BatchNs   int64   `json:"batchNs"`
	Speedup   float64 `json:"speedup"`
}

// durableJSON is the -durable block: per-call journal overhead by
// fsync policy, spill/rehydrate latency by world size, and the
// sessions-beyond-RAM capacity run.
type durableJSON struct {
	Calls    []durableCallJSON   `json:"journalWritePath"`
	Cycles   []durableCycleJSON  `json:"spillRehydrate"`
	Capacity durableCapacityJSON `json:"sessionsBeyondRAM"`
}

type durableCallJSON struct {
	Mode      string `json:"mode"`
	Calls     int    `json:"calls"`
	ElapsedNs int64  `json:"elapsedNs"`
	PerCallNs int64  `json:"perCallNs"`
}

type durableCycleJSON struct {
	WorldSize     int   `json:"worldSize"`
	Cycles        int   `json:"cycles"`
	SpillNs       int64 `json:"spillNsPerCycle"`
	RehydrateNs   int64 `json:"rehydrateNsPerCycle"`
	SnapshotBytes int64 `json:"snapshotBytes"`
}

type durableCapacityJSON struct {
	Resident  int   `json:"residentSlots"`
	Sessions  int   `json:"journaledSessions"`
	CallsEach int   `json:"callsPerSession"`
	DiskBytes int64 `json:"diskBytes"`
	ElapsedNs int64 `json:"elapsedNs"`
	Verified  bool  `json:"continuityVerified"`
}

// clusterJSON is the -cluster block: the router hop's per-call tax,
// the fleet-size throughput sweep (node-serialized backends, so nodes
// — not sessions — buy parallelism), and the join-triggered live
// migration with its byte-continuity verdict.
type clusterJSON struct {
	Overhead  []clusterOverheadJSON `json:"routingOverhead"`
	Sweep     []clusterSweepJSON    `json:"fleetSweep"`
	Migration clusterMigrationJSON  `json:"migration"`
}

type clusterOverheadJSON struct {
	Mode      string `json:"mode"`
	Calls     int    `json:"calls"`
	ElapsedNs int64  `json:"elapsedNs"`
	PerCallNs int64  `json:"perCallNs"`
	// OverheadRatio is this mode's per-call cost over the previous
	// row's ("routed" over "direct" = the hop tax, "routed-traced"
	// over "routed" = the tracing tax). A ratio of same-machine
	// timings is machine-independent, so perfdiff gates it at the
	// plain tolerance.
	OverheadRatio float64 `json:"overheadRatio,omitempty"`
}

type clusterSweepJSON struct {
	Nodes       int     `json:"nodes"`
	Goroutines  int     `json:"goroutines"`
	Ops         int     `json:"ops"`
	PerCallNs   int64   `json:"perCallNs"`
	ElapsedNs   int64   `json:"elapsedNs"`
	CallsPerSec float64 `json:"callsPerSec"`
	Speedup     float64 `json:"speedup"`
}

type clusterMigrationJSON struct {
	Sessions     int   `json:"sessions"`
	PreCalls     int   `json:"preCallsPerSession"`
	Migrated     int   `json:"migrated"`
	ElapsedNs    int64 `json:"elapsedNs"`
	PerSessionNs int64 `json:"perSessionNs"`
	Verified     bool  `json:"continuityVerified"`
}

// phasesJSON is the -phases block: the phase-timing spine's latency
// attribution per scenario, with the coverage ratio between the sum of
// phase self-times and the end-to-end request distribution.
type phasesJSON struct {
	Scenarios []phaseScenarioJSON `json:"scenarios"`
}

type phaseScenarioJSON struct {
	Name         string         `json:"name"`
	Requests     int            `json:"requests"`
	Coverage     float64        `json:"coverage"`
	AllocsPerReq float64        `json:"allocsPerReq"`
	E2E          phaseStatJSON  `json:"e2e"`
	Phases       []phaseRowJSON `json:"phases"`
}

type phaseRowJSON struct {
	Phase string `json:"phase"`
	phaseStatJSON
}

type phaseStatJSON struct {
	Count  int64 `json:"count"`
	P50Ns  int64 `json:"p50Ns"`
	P99Ns  int64 `json:"p99Ns"`
	MeanNs int64 `json:"meanNs"`
}

// buildVCS reads the commit this binary was built from out of the
// embedded build info (set for `go build` inside a git checkout; empty
// for `go run` and test binaries).
func buildVCS() (sha string, dirty bool) {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "", false
	}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			sha = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	return sha, dirty
}

// chaosJSON is one -chaos cell: alignment throughput and retry
// overhead at one fault rate, with effective call-latency
// percentiles.
type chaosJSON struct {
	Service            string  `json:"service"`
	FaultRate          float64 `json:"faultRate"`
	Traces             int     `json:"traces"`
	OracleCalls        int     `json:"oracleCalls"`
	InjectedFaults     int     `json:"injectedFaults"`
	Retries            int64   `json:"retries"`
	TransientFaults    int64   `json:"transientFaults"`
	SemanticDiverged   int     `json:"semanticDiverged"`
	ExhaustedTransient int     `json:"exhaustedTransient"`
	P50CallNs          int64   `json:"p50CallNs"`
	P99CallNs          int64   `json:"p99CallNs"`
	ElapsedNs          int64   `json:"elapsedNs"`
	CallsPerSec        float64 `json:"callsPerSec"`
}

type speedupJSON struct {
	Service     string  `json:"service"`
	Traces      int     `json:"traces"`
	Workers     int     `json:"workers"`
	OracleRTTNs int64   `json:"oracleRttNs"`
	SerialNs    int64   `json:"serialNs"`
	ParallelNs  int64   `json:"parallelNs"`
	Speedup     float64 `json:"speedup"`
}

type convergeJSON struct {
	Round   int `json:"round"`
	Aligned int `json:"aligned"`
	Total   int `json:"total"`
	Repairs int `json:"repairs"`
}

func main() {
	var (
		table1     = flag.Bool("table1", false, "Table 1: manual baseline coverage")
		fig3       = flag.Bool("fig3", false, "Fig. 3: accuracy across scenarios")
		fig4       = flag.Bool("fig4", false, "Fig. 4: CDF of SM complexity")
		basic      = flag.Bool("basic", false, "§5 basic functionality")
		vsManual   = flag.Bool("vsmanual", false, "§5 versus manual engineering")
		d2cTax     = flag.Bool("d2c", false, "§5 D2C error taxonomy")
		multicloud = flag.Bool("multicloud", false, "§5 multi-cloud")
		converge   = flag.Bool("converge", false, "A1: alignment convergence")
		decoding   = flag.Bool("decoding", false, "A2: decoding ablation")
		graphs     = flag.Bool("graphs", false, "A3: complexity graphs and anti-patterns")
		alignspeed = flag.Bool("alignspeed", false, "parallel-vs-serial alignment speedup (multi-service)")
		tenantB    = flag.Bool("tenant", false, "multi-tenant serving sweep (K sessions x M goroutines) and /batch round-trip amortization")
		chaos      = flag.Bool("chaos", false, "alignment throughput and retry overhead against a flaky oracle, across fault rates")
		opsB       = flag.Bool("ops", false, "operations-plane overhead: the same HTTP load with the plane off vs on")
		durableB   = flag.Bool("durable", false, "durable-tier rows: journal write path per fsync policy, spill/rehydrate latency by world size, and the sessions-beyond-RAM capacity run")
		phasesB    = flag.Bool("phases", false, "phase-timing attribution: per-phase latency percentiles through the instrumented stack, gated on coverage vs end-to-end latency")
		clusterB   = flag.Bool("cluster", false, "scale-out rows: router hop overhead, fleet-size throughput sweep, and join-triggered live migration with byte-continuity verification")
		chaosSeed  = flag.Int64("chaos-seed", 1, "seed for -chaos fault/jitter streams")
		workers    = flag.Int("workers", 8, "worker-pool size for -alignspeed and -chaos")
		rtt        = flag.Duration("rtt", 200*time.Microsecond, "simulated cloud round trip: per API call for -alignspeed (0 = in-process, pure CPU), per serialized call / HTTP request for -tenant")
		short      = flag.Bool("short", false, "shrink -alignspeed/-chaos workload (CI smoke mode)")
		jsonOut    = flag.String("json", "", "write machine-readable results to this file")
		traceOut   = flag.String("trace-out", "", "record -chaos runs' spans and write them to this file as JSONL (empty = tracing off)")
		traceSeed  = flag.Int64("trace-seed", 1, "seed for span/trace IDs when -trace-out is set")
	)
	flag.Parse()
	all := !(*table1 || *fig3 || *fig4 || *basic || *vsManual || *d2cTax || *multicloud || *converge || *decoding || *graphs || *alignspeed || *chaos || *tenantB || *opsB || *durableB || *phasesB || *clusterB)
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	sha, dirty := buildVCS()
	artifact := benchArtifact{
		SchemaVersion: artifactSchemaVersion,
		GoVersion:     runtime.Version(),
		GitSHA:        sha,
		GitDirty:      dirty,
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Timestamp:     time.Now().UTC(),
	}

	if all || *table1 {
		fmt.Println(eval.FormatTable1(eval.Table1()))
	}
	if all || *fig3 {
		rows, err := eval.Fig3()
		check(err)
		fmt.Println(eval.FormatFig3(rows))
	}
	if all || *fig4 {
		series, err := eval.Fig4()
		check(err)
		fmt.Println(eval.FormatFig4(series))
	}
	if all || *basic {
		res, err := eval.BasicFunctionality()
		check(err)
		fmt.Printf("Basic functionality: synthesized full EC2 spec in %v; trace aligned with the cloud: %v\n\n",
			res.SynthesisTime, res.Aligned)
	}
	if all || *vsManual {
		rows, err := eval.VersusManual()
		check(err)
		fmt.Println(eval.FormatVersusManual(rows))
	}
	if all || *d2cTax {
		rows, err := eval.D2CTaxonomy()
		check(err)
		fmt.Println("Direct-to-code error taxonomy over the Fig. 3 workload:")
		for _, r := range rows {
			fmt.Printf("  %s: %d\n", r.Category, r.Count)
			for _, e := range r.Examples {
				fmt.Printf("    e.g. %s\n", e)
			}
		}
		fmt.Println()
	}
	if all || *multicloud {
		rows, err := eval.MultiCloud()
		check(err)
		fmt.Println("Multi-cloud (Azure backend):")
		for _, r := range rows {
			fmt.Printf("  %-24s %d/%d traces aligned\n", r.System, r.Aligned, r.Total)
		}
		fmt.Println()
	}
	if all || *converge {
		rows, err := eval.AlignmentConvergence()
		check(err)
		fmt.Println("Alignment convergence (EC2, preliminary noise):")
		for _, r := range rows {
			fmt.Printf("  round %d: %d/%d aligned (%d repairs)\n", r.Round, r.Aligned, r.Total, r.Repairs)
			artifact.Converge = append(artifact.Converge, convergeJSON{Round: r.Round, Aligned: r.Aligned, Total: r.Total, Repairs: r.Repairs})
		}
		fmt.Println()
	}
	if all || *decoding {
		rows, err := eval.DecodingAblation()
		check(err)
		fmt.Println("Decoding ablation (EC2 corpus):")
		for _, r := range rows {
			fmt.Printf("  syntax-noise %.0f%%: free decoding %d re-prompts, constrained %d\n",
				100*r.SyntaxNoise, r.FreeRePrompts, r.ConstrainedRePrompts)
		}
		fmt.Println()
	}
	if *alignspeed {
		replicas, reps := 40, 3
		if *short {
			replicas, reps = 8, 2
		}
		rows, err := eval.AlignSpeedup(*workers, replicas, reps, *rtt)
		check(err)
		fmt.Println(eval.FormatSpeedup(rows))
		for _, r := range rows {
			artifact.AlignSpeed = append(artifact.AlignSpeed, speedupJSON{
				Service: r.Service, Traces: r.Traces, Workers: r.Workers,
				OracleRTTNs: r.OracleRTT.Nanoseconds(),
				SerialNs:    r.Serial.Nanoseconds(), ParallelNs: r.Parallel.Nanoseconds(),
				Speedup: r.Speedup(),
			})
		}
	}
	if *tenantB {
		sessions := []int{1, 2, 4, 8, 16}
		goroutines, opsPerG := 16, 32
		sizes := []int{8, 32, 128}
		if *short {
			sessions = []int{1, 4, 16}
			goroutines, opsPerG = 16, 8
			sizes = []int{8, 32}
		}
		perCall := *rtt
		if perCall <= 0 {
			perCall = 200 * time.Microsecond
		}
		trows, err := eval.TenantSweep(sessions, goroutines, opsPerG, perCall)
		check(err)
		fmt.Println(eval.FormatTenant(trows))
		base := trows[0].Elapsed
		for _, r := range trows {
			sp := 0.0
			if r.Elapsed > 0 {
				sp = float64(base) / float64(r.Elapsed)
			}
			artifact.Tenant = append(artifact.Tenant, tenantJSON{
				Sessions: r.Sessions, Goroutines: r.Goroutines, Ops: r.Ops,
				PerCallNs: r.PerCall.Nanoseconds(), ElapsedNs: r.Elapsed.Nanoseconds(),
				CallsPerSec: r.Throughput(), Speedup: sp,
			})
		}
		brows, err := eval.BatchVsSingle(sizes, perCall)
		check(err)
		fmt.Println(eval.FormatBatch(brows))
		for _, r := range brows {
			artifact.Batch = append(artifact.Batch, batchJSON{
				N: r.N, RTTNs: r.RTT.Nanoseconds(),
				SinglesNs: r.Singles.Nanoseconds(), BatchNs: r.Batch.Nanoseconds(),
				Speedup: r.Speedup(),
			})
		}
	}
	if *chaos {
		replicas := 8
		if *short {
			replicas = 2
		}
		var obs *obsv.Obs
		if *traceOut != "" {
			obs = obsv.New(*traceSeed, 0)
		}
		rates := []float64{0, 0.05, 0.1, 0.2}
		rows, err := eval.ChaosBenchObserved(*workers, replicas, *chaosSeed, rates, obs)
		check(err)
		fmt.Println(eval.FormatChaos(rows))
		if obs != nil {
			if s := obs.Summary(); s != "" {
				fmt.Println(s)
			}
			f, err := os.Create(*traceOut)
			check(err)
			check(obs.Tracer.WriteJSONL(f))
			check(f.Close())
			fmt.Printf("wrote %s (%d spans retained of %d recorded)\n",
				*traceOut, len(obs.Tracer.Snapshot()), obs.Tracer.Recorded())
		}
		for _, r := range rows {
			artifact.Chaos = append(artifact.Chaos, chaosJSON{
				Service: r.Service, FaultRate: r.FaultRate, Traces: r.Traces,
				OracleCalls: r.Calls, InjectedFaults: r.Faults,
				Retries: r.Retries, TransientFaults: r.TransientFaults,
				SemanticDiverged: r.Semantic, ExhaustedTransient: r.ExhaustedTransient,
				P50CallNs: r.P50.Nanoseconds(), P99CallNs: r.P99.Nanoseconds(),
				ElapsedNs: r.Elapsed.Nanoseconds(), CallsPerSec: r.Throughput(),
			})
		}
	}
	if *durableB {
		calls, worldSizes, cycles, sessions, resident := 512, []int{16, 128, 512}, 8, 256, 8
		if *short {
			calls, worldSizes, cycles, sessions, resident = 128, []int{16, 64}, 4, 48, 4
		}
		dir, err := os.MkdirTemp("", "lce-bench-durable-")
		check(err)
		defer os.RemoveAll(dir)
		res, err := eval.DurableBench(dir, calls, worldSizes, cycles, sessions, resident)
		check(err)
		fmt.Println(eval.FormatDurable(res))
		dj := &durableJSON{}
		for _, r := range res.Calls {
			dj.Calls = append(dj.Calls, durableCallJSON{
				Mode: r.Mode, Calls: r.Calls,
				ElapsedNs: r.Elapsed.Nanoseconds(), PerCallNs: r.PerCall().Nanoseconds(),
			})
		}
		for _, r := range res.Cycles {
			dj.Cycles = append(dj.Cycles, durableCycleJSON{
				WorldSize: r.WorldSize, Cycles: r.Cycles,
				SpillNs: r.PerSpill().Nanoseconds(), RehydrateNs: r.PerRehydrate().Nanoseconds(),
				SnapshotBytes: r.SnapshotBytes,
			})
		}
		dj.Capacity = durableCapacityJSON{
			Resident: res.Capacity.Resident, Sessions: res.Capacity.Sessions,
			CallsEach: res.Capacity.CallsEach, DiskBytes: res.Capacity.DiskBytes,
			ElapsedNs: res.Capacity.Elapsed.Nanoseconds(), Verified: res.Capacity.Verified,
		}
		artifact.Durable = dj
		if !res.Capacity.Verified {
			fmt.Fprintln(os.Stderr, "lce-bench: durable gate FAILED: sessions-beyond-RAM continuity broken")
			defer os.Exit(1)
		}
	}
	if *phasesB {
		requests := 1500
		if *short {
			requests = 200
		}
		dir, err := os.MkdirTemp("", "lce-bench-phases-")
		check(err)
		defer os.RemoveAll(dir)
		scs, err := eval.PhaseBench(dir, requests)
		check(err)
		fmt.Println(eval.FormatPhases(scs))
		pj := &phasesJSON{}
		for _, sc := range scs {
			row := phaseScenarioJSON{
				Name: sc.Name, Requests: sc.Requests,
				Coverage: sc.Coverage, AllocsPerReq: sc.AllocsPerReq,
				E2E: phaseStatJSON{
					Count: sc.E2ECount, P50Ns: sc.E2EP50.Nanoseconds(),
					P99Ns: sc.E2EP99.Nanoseconds(), MeanNs: sc.E2EMean.Nanoseconds(),
				},
			}
			sawFsync := false
			for _, ps := range sc.Phases {
				sawFsync = sawFsync || ps.Phase == "fsync"
				row.Phases = append(row.Phases, phaseRowJSON{
					Phase: ps.Phase,
					phaseStatJSON: phaseStatJSON{
						Count: ps.Count, P50Ns: ps.P50.Nanoseconds(),
						P99Ns: ps.P99.Nanoseconds(), MeanNs: ps.Mean.Nanoseconds(),
					},
				})
			}
			pj.Scenarios = append(pj.Scenarios, row)
			// The spine defines end-to-end latency as the sum of phase
			// self-times, so coverage drifting off 1.0 means a layer
			// leaked an open region or double-counted.
			if sc.Coverage < 0.9 || sc.Coverage > 1.1 {
				fmt.Fprintf(os.Stderr, "lce-bench: phase gate FAILED: %s coverage %.4f outside [0.9, 1.1]\n", sc.Name, sc.Coverage)
				defer os.Exit(1)
			}
			if sc.Name == "durable" && !sawFsync {
				fmt.Fprintln(os.Stderr, "lce-bench: phase gate FAILED: durable scenario recorded no fsync phase")
				defer os.Exit(1)
			}
		}
		artifact.Phases = pj
	}
	if *clusterB {
		overheadCalls, fleets, goroutines, opsPerG := 200, []int{1, 2, 3}, 24, 12
		migSessions, migPreCalls := 24, 4
		perCall := 1 * time.Millisecond
		if *short {
			// overheadCalls stays at full size even in -short: the
			// overheadRatio rows are perfdiff-gated, and a pass much
			// under ~20ms of wall clock drowns the hop tax in noise.
			overheadCalls, fleets, goroutines, opsPerG = 200, []int{1, 2}, 12, 6
			migSessions, migPreCalls = 8, 3
			perCall = 500 * time.Microsecond
		}
		res, err := eval.ClusterBench(overheadCalls, fleets, goroutines, opsPerG, perCall, migSessions, migPreCalls)
		check(err)
		fmt.Println(eval.FormatCluster(res))
		cj := &clusterJSON{}
		for i, r := range res.Overhead {
			row := clusterOverheadJSON{
				Mode: r.Mode, Calls: r.Calls,
				ElapsedNs: r.Elapsed.Nanoseconds(), PerCallNs: r.PerCall().Nanoseconds(),
			}
			if i > 0 {
				if prev := res.Overhead[i-1].PerCall(); prev > 0 {
					row.OverheadRatio = float64(r.PerCall()) / float64(prev)
				}
			}
			cj.Overhead = append(cj.Overhead, row)
		}
		base := time.Duration(0)
		if len(res.Sweep) > 0 {
			base = res.Sweep[0].Elapsed
		}
		for _, r := range res.Sweep {
			sp := 0.0
			if r.Elapsed > 0 {
				sp = float64(base) / float64(r.Elapsed)
			}
			cj.Sweep = append(cj.Sweep, clusterSweepJSON{
				Nodes: r.Nodes, Goroutines: r.Goroutines, Ops: r.Ops,
				PerCallNs: r.PerCall.Nanoseconds(), ElapsedNs: r.Elapsed.Nanoseconds(),
				CallsPerSec: r.Throughput(), Speedup: sp,
			})
		}
		cj.Migration = clusterMigrationJSON{
			Sessions: res.Migration.Sessions, PreCalls: res.Migration.PreCalls,
			Migrated: res.Migration.Migrated, ElapsedNs: res.Migration.Elapsed.Nanoseconds(),
			PerSessionNs: res.Migration.PerSession().Nanoseconds(), Verified: res.Migration.Verified,
		}
		artifact.Cluster = cj
		if !res.Migration.Verified {
			fmt.Fprintln(os.Stderr, "lce-bench: cluster gate FAILED: live migration broke byte continuity")
			defer os.Exit(1)
		}
	}
	if *opsB {
		requests := 2000
		if *short {
			requests = 300
		}
		rows, err := eval.OpsOverhead(requests)
		check(err)
		fmt.Println(eval.FormatOps(rows))
		for _, r := range rows {
			artifact.Ops = append(artifact.Ops, opsJSON{
				Mode: r.Mode, Requests: r.Requests,
				ElapsedNs: r.Elapsed.Nanoseconds(), PerReqNs: r.PerRequest().Nanoseconds(),
				AllocBytes: r.AllocBytes, Allocs: r.Allocs,
				AllocsPerRq: r.AllocsPerRequest(), NumGC: r.NumGC,
			})
		}
	}
	if all || *graphs {
		stats, anti, err := eval.GraphReport()
		check(err)
		fmt.Println("Specification graph metrics (§4.4):")
		for _, s := range stats {
			fmt.Printf("  %-18s nodes=%-3d edges=%-3d density=%.3f states=%-4d transitions=%-4d checks=%-4d depth=%d\n",
				s.Service, s.Nodes, s.Edges, s.EdgeDensity, s.States, s.Transitions, s.Checks, s.MaxDepth)
		}
		fmt.Printf("  anti-patterns detected: %d\n", len(anti))
		for _, ap := range anti {
			fmt.Printf("    [%s] %s.%s: %s\n", ap.Kind, ap.SM, ap.Action, ap.Detail)
		}
	}

	if *jsonOut != "" {
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		artifact.Mem = memDelta(&memBefore, &memAfter)
		blob, err := json.MarshalIndent(artifact, "", "  ")
		check(err)
		check(os.WriteFile(*jsonOut, append(blob, '\n'), 0o644))
		fmt.Printf("wrote %s\n", *jsonOut)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "lce-bench:", err)
		os.Exit(1)
	}
}
