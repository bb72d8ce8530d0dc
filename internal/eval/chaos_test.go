package eval

import (
	"fmt"
	"sync"
	"testing"

	"lce/internal/align"
	"lce/internal/cloud/aws/dynamodb"
	"lce/internal/cloud/aws/ec2"
	"lce/internal/cloudapi"
	"lce/internal/docs"
	"lce/internal/docs/corpus"
	"lce/internal/fault"
	"lce/internal/retry"
	"lce/internal/scenarios"
	"lce/internal/synth"
	"lce/internal/trace"
)

// TestChaosBenchSmoke replays the EC2 and DynamoDB suites through the
// parallel comparison phase against an oracle that injects transient
// faults, with the default retry policy defending the replay. At 0%
// nothing may be injected or retried; at 10% faults must be injected
// and retried. At either rate no fault may surface as a divergence of
// either cause.
func TestChaosBenchSmoke(t *testing.T) {
	const seed = 11
	cases := []struct {
		service string
		brief   func() *docs.ServiceDoc
		suite   []trace.Trace
		oracle  cloudapi.BackendFactory
	}{
		{"ec2", corpus.EC2, append(scenarios.EC2Fig3(), scenarios.EC2Extended()...), ec2.Factory()},
		{"dynamodb", corpus.DynamoDB, scenarios.DynamoDB(), dynamodb.Factory()},
	}
	for _, c := range cases {
		svc, _, err := synth.SynthesizeFromBrief(c.brief(), synth.Options{Noise: synth.Perfect, Decoding: synth.Constrained})
		if err != nil {
			t.Fatal(err)
		}
		for _, rate := range []float64{0, 0.1} {
			var tally retry.Tally
			var mu sync.Mutex
			var injectors []*fault.Injector
			factory := func() cloudapi.Backend {
				mu.Lock()
				defer mu.Unlock()
				n := int64(len(injectors))
				inj := fault.New(c.oracle(), fault.Uniform(rate, seed+n*0x9E3779B9))
				injectors = append(injectors, inj)
				p := retry.DefaultPolicy()
				p.Seed = seed ^ (n+1)*0x5DEECE66D
				return retry.Wrap(inj, p, &tally)
			}
			reports, err := align.CompareSuite(svc, factory, c.suite, 4)
			if err != nil {
				t.Fatal(err)
			}
			semantic, exhausted := 0, 0
			for _, rep := range reports {
				if rep.Aligned() {
					continue
				}
				if align.Cause(*rep.FirstDiff()) == align.CauseExhaustedTransient {
					exhausted++
				} else {
					semantic++
				}
			}
			calls, faults := 0, 0
			for _, inj := range injectors {
				s := inj.Stats()
				calls += s.Calls
				faults += s.Faults
			}
			cell := fmt.Sprintf("%s@%.0f%%", c.service, 100*rate)
			if semantic != 0 {
				t.Errorf("%s: %d semantic divergences under retry", cell, semantic)
			}
			if exhausted != 0 {
				t.Errorf("%s: %d faults leaked past the retry policy", cell, exhausted)
			}
			if calls == 0 {
				t.Errorf("%s: the replay reached the oracle 0 times", cell)
			}
			if rate == 0 {
				if faults != 0 || tally.Retries() != 0 {
					t.Errorf("%s: faults=%d retries=%d", cell, faults, tally.Retries())
				}
				continue
			}
			if faults == 0 || tally.Retries() == 0 || tally.TransientFaults() == 0 {
				t.Errorf("%s: chaos injected nothing (faults=%d retries=%d transient=%d)",
					cell, faults, tally.Retries(), tally.TransientFaults())
			}
		}
	}
}
