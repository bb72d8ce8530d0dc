//go:build !race

package cloudapi

import (
	"fmt"
	"testing"
)

// The race detector instruments allocations, so this pin only holds
// in plain builds.
func TestEqualNormalizedDoesNotAllocate(t *testing.T) {
	a := Map(map[string]Value{"vpc": Map(map[string]Value{"id": RefVal("Vpc", "vpc-1"), "tags": List(Str("x"))})})
	b := Map(map[string]Value{"vpc": Map(map[string]Value{"id": Str("vpc-1"), "tags": List(Str("x"))})})
	if n := testing.AllocsPerRun(100, func() { EqualNormalized(&a, &b) }); n != 0 {
		t.Errorf("EqualNormalized allocated %v times per call", n)
	}
}

// The encoders sort map keys in a stack array, so a map of up to 16
// keys — refs inside and all — encodes into a grown buffer without one
// allocation; the plain encoder is held to it on a ref-free value (its
// {"$ref"} wrapper builds a string).
func TestAppendJSONMapsDoNotAllocate(t *testing.T) {
	m := make(map[string]Value, 16)
	for i := 0; i < 16; i++ {
		m[fmt.Sprintf("attr%02d", 15-i)] = Map(map[string]Value{
			"id":   RefVal("Vpc", fmt.Sprintf("vpc-%d", i)),
			"tags": List(Str("x"), RefVal("Subnet", "subnet-1")),
		})
	}
	v := Map(m)
	plain := NormalizeValue(v)
	buf := make([]byte, 0, 64<<10)
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"AppendNormalizedJSON", func() { buf = AppendNormalizedJSON(buf[:0], &v) }},
		{"AppendNormalizedResult", func() { buf = AppendNormalizedResult(buf[:0], Result(m)) }},
		{"AppendJSON", func() { buf = AppendJSON(buf[:0], &plain) }},
	} {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s allocated %v times per call on 16-key maps", c.name, n)
		}
	}
}
