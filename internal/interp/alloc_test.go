//go:build !race

package interp

import (
	"strings"
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

// TestInterpDescribeAllAllocBudget pins return(vpcs, describeAll("Vpc"))
// over a two-instance world at its measured count, 9: the response map
// (2), the world's instance slice (2), the payload list (1) and each
// instance's map (2 apiece). A normalizing copy of the payload after it
// is built would add the list and both maps again, 14 in all.
func TestInterpDescribeAllAllocBudget(t *testing.T) {
	emu := benchEmulatorN(t, true, 2)
	req := cloudapi.Request{Action: "DescribeVpcs"}
	if _, err := emu.Invoke(req); err != nil {
		t.Fatalf("DescribeVpcs: %v", err)
	}
	const budget = 9
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := emu.Invoke(req); err != nil {
			t.Fatalf("DescribeVpcs: %v", err)
		}
	})
	if allocs > budget {
		t.Fatalf("describeAll over two instances allocates %.1f objects/op, budget %d", allocs, budget)
	}
}

// TestInterpMissingParameterAllocBudget: a request missing a required
// parameter is answered with its binder's one shared error, formatted
// on the first such request; formatting it on every fire costs three
// allocations (the message, its boxed argument, the error).
func TestInterpMissingParameterAllocBudget(t *testing.T) {
	emu := benchEmulator(t, true)
	req := cloudapi.Request{Action: "PingVpc"}
	const budget = 1
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := emu.Invoke(req); err == nil || !strings.Contains(err.Error(), cloudapi.CodeMissingParameter) {
			t.Fatalf("PingVpc without self: err %v, want %s", err, cloudapi.CodeMissingParameter)
		}
	})
	if allocs > budget {
		t.Fatalf("missing-parameter call allocates %.1f objects/op, budget %d", allocs, budget)
	}
}
