//go:build !race

package interp

import (
	"testing"

	"lce/internal/cloudapi"
)

// TestInterpCompiledZeroAllocFastPath asserts the compiled engine's
// no-return describe path — dispatch, receiver binding, pooled
// activation record, shared empty result — allocates nothing per call.
// The race detector instruments allocations, so this assertion is
// compiled out under -race (`make bench` runs it without).
func TestInterpCompiledZeroAllocFastPath(t *testing.T) {
	emu := benchEmulator(t, true)
	req := cloudapi.Request{Action: "PingVpc", Params: cloudapi.Params{"self": cloudapi.Str("vpc-00000001")}}
	// Warm the frame pool so pool refills don't count.
	if _, err := emu.Invoke(req); err != nil {
		t.Fatalf("PingVpc: %v", err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := emu.Invoke(req); err != nil {
			t.Fatalf("PingVpc: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("compiled no-return describe allocates %.1f objects/op, want 0", allocs)
	}
}
