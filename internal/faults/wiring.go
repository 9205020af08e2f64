package faults

import "repro/internal/rng"

// Injector-seed stream labels, disjoint from the plan-generation labels so
// a plan and its injectors never share randomness.
const (
	injRepoStream uint64 = iota + 311
	injSiteStream
)

// RepoInjector builds the repository's injector, seeded from the plan.
// Returns nil on a nil plan (no injection).
func (p *Plan) RepoInjector() *Injector {
	if p == nil {
		return nil
	}
	return NewInjector(p.Repo, rng.SplitSeed(p.Seed, injRepoStream))
}

// SiteInjector builds site i's injector, seeded from the plan. Returns nil
// on a nil plan; out-of-range sites get a quiet injector.
func (p *Plan) SiteInjector(i int) *Injector {
	if p == nil {
		return nil
	}
	return NewInjector(p.SiteSpec(i), rng.SplitSeed(p.Seed, injSiteStream, uint64(i)))
}
