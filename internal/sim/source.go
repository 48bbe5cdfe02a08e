package sim

// The kernel's random source: xoshiro256** (Blackman & Vigna, 2018),
// seeded through SplitMix64. Owning the generator pins every stream's
// draw sequence to this file rather than to math/rand's implementation,
// which the committed golden recordings depend on.

import "math/bits"

// Source is a deterministic rand.Source64.
type Source struct {
	s [4]uint64
}

// splitmix64 advances a SplitMix64 state and returns the next output.
// It is the recommended seeder for xoshiro generators: it maps any
// 64-bit seed to well-mixed, never-all-zero state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewSource returns a source seeded from the given value. Distinct seeds
// give independent streams.
func NewSource(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed implements rand.Source: it resets the state from the seed.
func (s *Source) Seed(seed int64) {
	x := uint64(seed)
	for i := range s.s {
		s.s[i] = splitmix64(&x)
	}
}

// Uint64 implements rand.Source64 (xoshiro256**).
func (s *Source) Uint64() uint64 {
	result := bits.RotateLeft64(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = bits.RotateLeft64(s.s[3], 45)
	return result
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 { return int64(s.Uint64() >> 1) }
