//go:build !race

package align_test

import (
	"runtime"
	"testing"
)

// TestAlignLoopAllocBudget caps the heap allocations of one
// learn-align op — BenchmarkAlignLoop's loop over the four learnable
// services — as the runtime.MemStats.Mallocs delta over one op after a
// warm one. The ceiling is 1.2x what the op allocated when the budget
// was set (74.1k), so re-printing and re-parsing every clean free
// decoding draw, or formatting every compile-time error up front,
// breaks it. The race detector changes allocation counts, so the
// budget only exists without it.
func TestAlignLoopAllocBudget(t *testing.T) {
	const ceiling = 89000
	op := func() {
		for _, service := range goldenServices {
			alignCase(t, service, 1, false)
		}
	}
	op()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	op()
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("%d allocs/op (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("%d allocs/op, over the %d ceiling", allocs, ceiling)
	}
}
