//go:build !race

package cloudapi

import "testing"

// The race detector instruments allocations, so this pin only holds
// in plain builds.
func TestEqualNormalizedDoesNotAllocate(t *testing.T) {
	a := Map(map[string]Value{"vpc": Map(map[string]Value{"id": RefVal("Vpc", "vpc-1"), "tags": List(Str("x"))})})
	b := Map(map[string]Value{"vpc": Map(map[string]Value{"id": Str("vpc-1"), "tags": List(Str("x"))})})
	if n := testing.AllocsPerRun(100, func() { EqualNormalized(&a, &b) }); n != 0 {
		t.Errorf("EqualNormalized allocated %v times per call", n)
	}
}
