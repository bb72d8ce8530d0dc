package synth

import "math/rand"

// stream yields exactly the draws of rand.New(rand.NewSource(seed))
// without seeding a source for the first rngTap of them. Seeding fills
// a 607-word state — three steps of an LCG per word, XORed with a
// table of constants — while the four services' syntheses and repairs
// in one alignment make 136 streams that draw 1 037 times in all, so
// seeding cost more than the draws it served. A zero rate never draws (decide), so a
// noise-free extraction computes nothing at all.
//
// math/rand's generator is an additive lagged Fibonacci one: draw j
// (from 0) of a freshly seeded source is vec[333-j] + vec[606-j] for
// j < rngTap, summing seeded words no earlier draw has overwritten.
// Seeded word i is (x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i]) ^ cooked[i],
// where x[k] = seed·48271^k mod 2³¹−1. So a draw costs six modular
// products read off lcgPow. Draw rngTap and later ones would read
// words earlier draws replaced; they come from a real source advanced
// past the draws already taken.
type stream struct {
	seed int64
	n    int         // draws taken
	src  rand.Source // from draw rngTap on
}

const (
	rngLen   = 607       // math/rand's state length
	rngTap   = 273       // its lag
	int32max = 1<<31 - 1 // the seeding LCG's modulus
)

var (
	// lcgPow[k] is 48271^k mod 2³¹−1: k steps of the seeding LCG.
	lcgPow [23 + 3*(rngLen-1) + 1]uint64
	// cooked[i] is the constant math/rand XORs into seeded word i, for
	// the words the draws before rngTap read (i >= 61).
	cooked [rngLen]uint64
)

func init() {
	lcgPow[0] = 1
	for k := 1; k < len(lcgPow); k++ {
		lcgPow[k] = lcgPow[k-1] * 48271 % int32max
	}
	// The constants are not copied from math/rand but recovered from
	// the first rngLen draws y of one source. Each draw overwrites one
	// of the words it sums with its output. A draw j from rngTap on
	// sums a seeded word and the output of draw j-rngTap, so
	// y[j] - y[j-rngTap] is that seeded word; the words the draws
	// before rngTap sum follow from those.
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var y [rngLen]uint64
	for j := range y {
		y[j] = src.Uint64()
	}
	var vec [rngLen]uint64
	for j := 334; j < rngLen; j++ { // words 334..606
		vec[940-j] = y[j] - y[j-rngTap]
	}
	for j := 0; j < rngTap; j++ { // words 61..333
		vec[333-j] = y[j] - vec[606-j]
	}
	for i := rngLen - 2*rngTap; i < rngLen; i++ {
		cooked[i] = vec[i] ^ lcgWord(seed, i)
	}
}

// lcgWord is the seeding LCG's part of word i for a normalized seed.
func lcgWord(seed uint64, i int) uint64 {
	k := 21 + 3*i
	return seed*lcgPow[k]%int32max<<40 ^ seed*lcgPow[k+1]%int32max<<20 ^ seed*lcgPow[k+2]%int32max
}

// int63 is rand.Source.Int63 of the stream's source.
func (s *stream) int63() int64 {
	j := s.n
	s.n++
	if j < rngTap {
		seed := s.seed % int32max // rngSource.Seed's normalization
		if seed < 0 {
			seed += int32max
		}
		if seed == 0 {
			seed = 89482311
		}
		u := uint64(seed)
		w := (lcgWord(u, 333-j) ^ cooked[333-j]) + (lcgWord(u, 606-j) ^ cooked[606-j])
		return int64(w &^ (1 << 63))
	}
	if s.src == nil {
		s.src = rand.NewSource(s.seed)
		for k := 0; k < j; k++ {
			s.src.Int63()
		}
	}
	return s.src.Int63()
}

// Float64 is rand.Rand.Float64.
func (s *stream) Float64() float64 {
	for {
		// math/rand draws again when the quotient rounds up to 1.
		if f := float64(s.int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Intn is rand.Rand.Intn: Int31n over the top 31 bits of a draw for
// an n that fits in 31 bits, Int63n over all 63 otherwise.
func (s *stream) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	shift, span := 0, uint64(1<<63)
	if n <= int32max {
		shift, span = 32, 1<<31
	}
	if n&(n-1) == 0 {
		return int(s.int63()>>shift) & (n - 1)
	}
	max := int64(span - 1 - span%uint64(n))
	v := s.int63() >> shift
	for v > max {
		v = s.int63() >> shift
	}
	return int(v % int64(n))
}
