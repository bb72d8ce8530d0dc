//go:build !race

package lce

import (
	"runtime"
	"testing"
)

// TestPhaseAllocBudget caps heap allocations per request through each
// instrumented phase mix, client and server together: the
// runtime.MemStats.Mallocs delta over a measured window, divided by its
// requests. Each ceiling is 1.5x what the mix allocated when the budget
// was set (161 hot, 655 durable). The race detector changes allocation
// counts, so the budget only exists without it.
func TestPhaseAllocBudget(t *testing.T) {
	const requests = 200
	ceiling := map[string]float64{"hot": 242, "durable": 982}
	for _, c := range phaseScenarios {
		t.Run(c.name, func(t *testing.T) {
			sc := c.build(t)
			// Warm the route, the connection and the first session
			// outside the window.
			if err := sc.post(); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < requests; i++ {
				if err := sc.post(); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			perReq := float64(after.Mallocs-before.Mallocs) / requests
			t.Logf("%.1f allocs/req (ceiling %.0f)", perReq, ceiling[c.name])
			if perReq > ceiling[c.name] {
				t.Errorf("%.1f allocs/req, over the %.0f ceiling", perReq, ceiling[c.name])
			}
		})
	}
}
