// Package rng is a minimal stand-in for repro/internal/rng so the lint
// fixtures type-check without pulling in the real module. The rng-stream
// analyzer keys on the package name ("rng"), the receiver type name
// ("Stream"), and the names Split and SplitSeed, all of which match.
package rng

// Stream mirrors the real deterministic stream type.
type Stream struct{ seed uint64 }

// New returns a stream seeded with seed.
func New(seed uint64) *Stream { return &Stream{seed: seed} }

// Split mirrors the real label-derivation signature.
func (s *Stream) Split(labels ...uint64) *Stream {
	child := s.seed
	for _, l := range labels {
		child ^= l
	}
	return &Stream{seed: child}
}

// SplitSeed mirrors the real seed-only derivation.
func SplitSeed(seed uint64, labels ...uint64) uint64 {
	for _, l := range labels {
		seed ^= l
	}
	return seed
}

// IntN exists so fixtures can consume a stream.
func (s *Stream) IntN(n int) int { return int(s.seed) % n }
