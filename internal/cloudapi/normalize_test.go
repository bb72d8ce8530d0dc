package cloudapi

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// normalizedTwin rebuilds v with every string and ref re-spelled at
// random as the other kind (a ref keeps its ID, under any type), so
// twin and v normalize to the same value.
func normalizedTwin(r *rand.Rand, v Value) Value {
	switch v.Kind() {
	case KindString:
		if r.Intn(2) == 0 {
			return RefVal(randString(r), v.AsString())
		}
		return v
	case KindRef:
		if r.Intn(2) == 0 {
			return Str(v.AsRef().ID)
		}
		return RefVal(randString(r), v.AsRef().ID)
	case KindList:
		out := make([]Value, len(v.AsList()))
		for i, e := range v.AsList() {
			out[i] = normalizedTwin(r, e)
		}
		return List(out...)
	case KindMap:
		out := make(map[string]Value, len(v.AsMap()))
		for k, e := range v.AsMap() {
			out[k] = normalizedTwin(r, e)
		}
		return Map(out)
	default:
		return v
	}
}

// EqualNormalized must agree with comparing the two NormalizeValue
// copies, on twins (equal after normalization) and on unrelated pairs.
func TestQuickEqualNormalizedMatchesNormalizeValue(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(a, b valueGen) bool {
		twin := normalizedTwin(r, a.V)
		if !EqualNormalized(&a.V, &twin) || !EqualNormalized(&twin, &a.V) {
			return false
		}
		na, nb := NormalizeValue(a.V), NormalizeValue(b.V)
		return EqualNormalized(&a.V, &b.V) == na.Equal(nb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestEqualNormalizedCases(t *testing.T) {
	cases := []struct {
		name string
		a, b Value
		want bool
	}{
		{"ref vs its ID", RefVal("Vpc", "vpc-1"), Str("vpc-1"), true},
		{"refs of different types, same ID", RefVal("Vpc", "vpc-1"), RefVal("Subnet", "vpc-1"), true},
		{"ref vs other ID", RefVal("Vpc", "vpc-1"), Str("vpc-2"), false},
		{"nested", Map(map[string]Value{"ids": List(RefVal("Vpc", "a"))}), Map(map[string]Value{"ids": List(Str("a"))}), true},
		{"missing key", Map(map[string]Value{"a": Nil}), Map(map[string]Value{"b": Nil}), false},
		{"kinds differ", Int(1), Str("1"), false},
		{"nil vs empty map", Map(nil), Map(map[string]Value{}), true},
	}
	for _, c := range cases {
		if got := EqualNormalized(&c.a, &c.b); got != c.want {
			t.Errorf("%s: EqualNormalized = %v, want %v", c.name, got, c.want)
		}
	}
}
