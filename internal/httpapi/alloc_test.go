//go:build !race

package httpapi_test

import "testing"

// TestInstrumentedHandlerAllocBudget pins what full observability may
// cost a request in allocations, through the handler lce.NewServer
// assembles (tracer, registry, ops plane, flight capture all on): one
// describe and one call answering an expected API error. The budgets
// are what the single-pass request decoder and response encoder reached
// plus 10% (before them: 86 and 62); the same calls
// through the bare handler are measured alongside so a failure shows
// whether the instrumentation or the data plane grew. The race detector
// instruments allocations and thins sync.Pool, so this is compiled out
// under -race (`make bench` runs it without).
func TestInstrumentedHandlerAllocBudget(t *testing.T) {
	bare, inst := newCycleDriver(bareHandler(t)), newCycleDriver(instrumentedHandler(t))
	for i := 0; i < 3; i++ { // warm pools and first-sight metric lookups
		bare.run(t)
		inst.run(t)
	}
	for _, c := range []struct {
		name   string
		step   int
		budget float64
	}{
		{"describe", stepDescribe, 35},    // reached 32, of which the bare handler is 23
		{"expected error", stepError, 59}, // reached 54, of which the bare handler is 43
	} {
		// Replay the cycle up to the step so the world is the one the
		// step expects, then measure the step alone.
		measure := func(d *cycleDriver) float64 {
			for i := 0; i < c.step; i++ {
				d.call(i)
			}
			return testing.AllocsPerRun(200, func() {
				if got := d.call(c.step); got != cycleSteps[c.step].Status {
					t.Fatalf("%s answered %d, want %d", c.name, got, cycleSteps[c.step].Status)
				}
			})
		}
		got, base := measure(inst), measure(bare)
		t.Logf("%s: %.0f allocs instrumented, %.0f bare", c.name, got, base)
		if got > c.budget {
			t.Errorf("%s: instrumented handler allocates %.0f objects, budget %.0f (bare handler: %.0f)", c.name, got, c.budget, base)
		}
	}
}
