package synth

import (
	"math"
	"math/rand"
	"testing"
)

// TestNoiseStreamMatchesMathRand: a stream yields exactly the draws of
// a math/rand source seeded up front, across the seed normalization's
// edges (zero, negatives, multiples of the modulus, the int64
// extremes), Intn's mask, rejection and 63-bit paths, and past draw
// rngTap, where the stream hands over to a real source.
func TestNoiseStreamMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, -7, 42, 89482311, 1 << 40,
		int32max, -int32max, 2 * int32max, math.MaxInt64 / int32max * int32max,
		math.MinInt64, math.MaxInt64}
	ns := []int{1000, 1 << 10, 1<<30 + 1, int32max - 1, int32max, 1 << 31, 3<<40 + 1}
	for _, seed := range seeds {
		s := &stream{seed: seed}
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 1500; i++ {
			if i%2 == 0 {
				if a, b := s.Float64(), want.Float64(); a != b {
					t.Fatalf("seed %d draw %d: Float64 %v, want %v", seed, i, a, b)
				}
				continue
			}
			n := ns[i/2%len(ns)]
			if a, b := s.Intn(n), want.Intn(n); a != b {
				t.Fatalf("seed %d draw %d: Intn(%d) %d, want %d", seed, i, n, a, b)
			}
		}
		if s.src == nil {
			t.Errorf("seed %d: 1500 draws never reached the fallback source", seed)
		}
	}
	if s := Perfect.rng("Vpc", 0); decide(s, 0) || s.n != 0 {
		t.Error("a zero-rate draw drew from the stream")
	}
}

// BenchmarkNoiseStream is one stream as an extraction uses it: eight
// Bernoulli draws.
func BenchmarkNoiseStream(b *testing.B) {
	b.ReportAllocs()
	hits := 0
	for i := 0; i < b.N; i++ {
		s := Preliminary.rng("Vpc", i)
		for k := 0; k < 8; k++ {
			if decide(s, 0.05) {
				hits++
			}
		}
	}
	benchHits = hits
}

var benchHits int
