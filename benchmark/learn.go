package main

import (
	"fmt"
	"os"
	"slices"
	"time"

	"lce"
	"lce/internal/cloud/aws/ec2"
	"lce/internal/docs/corpus"
	"lce/internal/interp"
	"lce/internal/scenarios"
	"lce/internal/synth"
	"lce/internal/trace"
)

// learnServices are the services with learnable documentation; one op
// of learn-align is the paper's full loop for each in turn.
var learnServices = []string{"ec2", "dynamodb", "network-firewall", "azure-network"}

// loopCounts are the exact, seed-independent counts one op produces.
type loopCounts struct {
	rounds, comparisons, repairs int64
	fig3After                    int
}

// pinnedLoop is what one op must produce (Fig. 3: 7/12 → 12/12). A
// loop that converges to anything else counts as failed: it is how a
// serving-path optimisation that bends interpreter semantics shows.
var pinnedLoop = loopCounts{rounds: 9, comparisons: 342, repairs: 12, fig3After: 12}

const pinnedFig3Before = 7

// fig3Aligned counts the Fig. 3 traces on which emu agrees with the
// ec2 oracle.
func fig3Aligned(emu lce.Backend) int {
	n := 0
	for _, tr := range scenarios.EC2Fig3() {
		if trace.Compare(emu, ec2.New(), tr).Aligned() {
			n++
		}
	}
	return n
}

// learnLoop is one op: synthesize from documentation under the
// paper-prototype noise model and align against the oracle, for every
// service, serially.
func learnLoop() (loopCounts, error) {
	var c loopCounts
	for _, svc := range learnServices {
		r, err := lce.AlignWithCloudWorkers(svc, lce.DefaultOptions(), 1)
		if err != nil {
			return c, fmt.Errorf("%s: %w", svc, err)
		}
		if !r.Converged {
			return c, fmt.Errorf("%s: alignment did not converge", svc)
		}
		c.rounds += r.Stats.Rounds
		c.comparisons += r.Stats.TracesCompared
		c.repairs += r.Stats.Repairs
		if svc == "ec2" {
			c.fig3After = fig3Aligned(r.Final)
		}
	}
	return c, nil
}

// learnSetup is what has to happen before the first loop can run: load
// each service's documentation corpus and learn an emulator from it.
func learnSetup() error {
	for _, svc := range learnServices {
		c, err := lce.Documentation(svc)
		if err != nil {
			return err
		}
		if _, _, err := lce.Learn(c, lce.PerfectOptions()); err != nil {
			return fmt.Errorf("learn %s: %w", svc, err)
		}
	}
	return nil
}

// learnStage loops learnLoop on the given number of goroutines for dur.
func learnStage(workers int, dur time.Duration) (*stageResult, error) {
	return closedLoop(workers, dur, func(int) (bool, error) {
		c, err := learnLoop()
		if err != nil || c != pinnedLoop {
			fmt.Fprintf(os.Stderr, "learn-align: loop gave %+v (err %v), want %+v\n", c, err, pinnedLoop)
			return false, nil
		}
		return true, nil
	})
}

// runLearn runs the learn-align workload: same stages as the serving
// workloads, with goroutines of this process as the clients.
func runLearn(w *workload, cfg runConfig) (*runResult, error) {
	began := time.Now()
	res := newResult(w)
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		if err := learnSetup(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.metrics["setup_s"], res.samples["setup_s"] = slices.Min(setups), len(setups)

	warm, err := learnStage(1, cfg.warm)
	if err != nil {
		return nil, err
	}
	res.failed += warm.failed
	solo, err := learnStage(1, cfg.solo)
	if err != nil {
		return nil, err
	}
	before, err := sampleProc(os.Getpid())
	if err != nil {
		return nil, err
	}
	sat, err := learnStage(2, cfg.sat)
	if err != nil {
		return nil, err
	}
	after, err := sampleProc(os.Getpid())
	if err != nil {
		return nil, err
	}
	if _, err := res.setStages(solo, sat); err != nil {
		return nil, err
	}
	// The loop runs in this process, so its CPU is the generator's.
	res.metrics["loadgen.cpu_us_per_op"] = float64((after.cpu - before.cpu).Microseconds()) / float64(sat.attempted)

	// Post-run: Fig. 3 before alignment, and the pinned counts.
	res.attempted++
	svc, _, err := synth.SynthesizeFromBrief(corpus.EC2(), synth.DefaultOptions())
	if err != nil {
		return nil, err
	}
	unaligned, err := interp.NewCompiled(svc)
	if err != nil {
		return nil, err
	}
	fig3Before := fig3Aligned(unaligned)
	if fig3Before != pinnedFig3Before {
		res.failed++
		fmt.Fprintf(os.Stderr, "learn-align: Fig. 3 before alignment %d/12, want %d/12\n", fig3Before, pinnedFig3Before)
	}
	if cfg.layers {
		c, err := learnLoop()
		if err != nil {
			return nil, err
		}
		res.metrics["align.rounds"] = float64(c.rounds)
		res.metrics["align.comparisons"] = float64(c.comparisons)
		res.metrics["align.repairs"] = float64(c.repairs)
		res.metrics["align.fig3_aligned_before"] = float64(fig3Before)
		res.metrics["align.fig3_aligned_after"] = float64(c.fig3After)
		if err := learnMicro(res, cfg.microDiv); err != nil {
			return nil, fmt.Errorf("micro-benchmarks: %w", err)
		}
	}
	res.metrics["failed_share"] = float64(res.failed) / float64(res.attempted)
	res.wall = time.Since(began)
	return res, nil
}
