//go:build !race

package align_test

import (
	"runtime"
	"testing"
)

// TestAlignLoopAllocBudget caps the heap allocations of one
// learn-align op — BenchmarkAlignLoop's loop over the four learnable
// services — as the runtime.MemStats Mallocs and TotalAlloc deltas
// over one op after a warm one. Each ceiling is 1.2x what the op
// allocated when the budget was set (61.1k allocations, 7.83 MB), so
// re-printing and re-parsing every clean free decoding draw,
// formatting every compile-time error up front, or a cloudapi.Value
// back at its 104-byte field-per-kind layout breaks it; recompiling
// every SM each round (70.5k, 8.68 MB) stays under it, and
// TestAlignLoopCompileBudget catches that. The race detector changes
// allocation counts, so the budget only exists without it.
func TestAlignLoopAllocBudget(t *testing.T) {
	const (
		ceiling      = 73300
		bytesCeiling = 9_400_000
	)
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
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d allocs/op (ceiling %d), %d B/op (ceiling %d)", allocs, ceiling, bytes, bytesCeiling)
	if allocs > ceiling {
		t.Errorf("%d allocs/op, over the %d ceiling", allocs, ceiling)
	}
	if bytes > bytesCeiling {
		t.Errorf("%d B/op, over the %d ceiling", bytes, bytesCeiling)
	}
}
