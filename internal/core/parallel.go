// Parallel planning engine. Three pieces let Plan scale to all cores while
// staying deterministic:
//
//   - PartitionParallel fans the PARTITION phase out over a page-level
//     worker pool. Partitioning one page touches only page-local state (its
//     placement row, byte counts and cached chain time), so workers need no
//     locks; each records its page's site-level contribution in a deltas
//     array, and a per-site reduce folds those contributions into the
//     planner's accumulators in the site's fixed page order. Float
//     accumulation order is therefore a function of the workload alone —
//     never of the worker count or the scheduler — so any Workers value
//     produces byte-identical placements and an identical D.
//
//   - forEachSite runs a per-site phase over a bounded pool: the storage
//     and processing restoration in Plan and every round of the off-loading
//     negotiation in OffloadParallel. Each site's greedy loop mutates the
//     live planner, but only the site's own state — its pages' rows, byte
//     counts and chain times, its store, its reference-index slots and its
//     objective and load cells — so sites need no copies and no locks, and
//     each site's outcome is the one a sequential run computes. Off-loading
//     answers are gathered by site index, so the coordinator applies them in
//     ascending site order whatever the scheduling.
//
//   - The Planner's pageT / optLocalT / optRemoteT caches (planner.go) make
//     each concurrent evaluation cheap: flip scoring reads the cached
//     whole-page time and the precomputed per-link one-download times
//     instead of recomputing them per candidate.
package core

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workload"
)

// partitionDelta is one page's contribution to its site's accumulators: the
// Eq. 7 objective deltas and the request rate moved from the repository to
// the local server by the page's PARTITION outcome.
type partitionDelta struct {
	d1    float64 // α1-side objective change, f·(T_new − T_old)
	d2    float64 // α2-side objective change over the page's optional links
	moved float64 // req/s moved local (added to Eq. 8, removed from Eq. 9)
}

// partitionPageScratch runs the PARTITION decision loop on page j, touching
// only page-local state: the page's placement row, its byte counts and its
// cached chain time. Site-level accounting is returned as a delta for the
// deterministic per-site reduce. The page must still be in its all-remote
// initial state. buf is the caller's reusable visit-order scratch buffer.
//
// The decision arithmetic — the running chain times and their comparison —
// is expression-for-expression the one in partitionPage, so the chosen split
// is identical to the sequential planner's.
func (pl *Planner) partitionPageScratch(j workload.PageID, buf *[]int) partitionDelta {
	pg := &pl.env.W.Pages[j]
	est := pl.siteEstimateOf(pg.Site)
	f := float64(pg.Freq)
	oldT := pl.pageT[j]

	order := pl.visitOrder(pg, !pl.UnsortedPartition, *buf)
	*buf = order

	local := est.LocalOvhd + est.LocalRate.TransferTime(pg.HTMLSize)
	remote := est.RepoOvhd
	var localB units.ByteSize
	nLocal := 0
	for _, idx := range order {
		size := pl.env.W.ObjectSize(pg.Compulsory[idx])
		remoteIf := remote + est.RepoRate.TransferTime(size)
		localIf := local + est.LocalRate.TransferTime(size)
		if remoteIf < localIf {
			remote = remoteIf // stays on the repository chain (X bit is 0)
		} else {
			local = localIf
			pl.p.SetCompLocal(j, idx, true)
			localB += size
			nLocal++
		}
	}
	pl.localBytes[j] += localB
	pl.remoteBytes[j] -= localB

	// Section 4.2 "store all optional objects": every optional link is
	// marked local; the replica allocation happens in the reduce.
	var d2, optMoved float64
	off := pl.optOff[j]
	for idx, l := range pg.Optional {
		pl.p.SetOptLocal(j, idx, true)
		d2 += f * l.Prob * float64(pl.optLocalT[off+idx]-pl.optRemoteT[off+idx])
		optMoved += f * l.Prob
	}

	newT := pl.computePageTime(j)
	pl.pageT[j] = newT
	return partitionDelta{
		d1:    f * float64(newT-oldT),
		d2:    d2,
		moved: float64(nLocal)*f + optMoved,
	}
}

// reducePartitionSite folds the partition deltas of site i's pages into the
// planner's site accumulators, allocates the replicas the decisions require
// and counts the local marks — always in the site's fixed page order, so the
// result is independent of how the parallel phase scheduled the pages.
func (pl *Planner) reducePartitionSite(i workload.SiteID, deltas []partitionDelta) {
	w := pl.env.W
	for _, pid := range w.Sites[i].Pages {
		d := &deltas[pid]
		pl.d1Site[i] += d.d1
		pl.d2Site[i] += d.d2
		pl.siteLocalLoad[i] += d.moved
		pl.siteRepoLoad[i] -= d.moved
		pg := &w.Pages[pid]
		for idx, k := range pg.Compulsory {
			if pl.p.CompLocal(pid, idx) {
				pl.p.Store(i, k)
				pl.marks[pl.refSlot(pid, idx, false)]++
			}
		}
		for idx, l := range pg.Optional {
			pl.p.Store(i, l.Object)
			pl.marks[pl.refSlot(pid, idx, true)]++
		}
	}
}

// partitionChunk is the unit of work the page pool hands out: big enough to
// amortize the atomic fetch, small enough to balance the 400-800 page/site
// skew across workers.
const partitionChunk = 64

// PartitionParallel runs PARTITION over every page (and marks all optional
// links local) using up to workers goroutines, then reduces the site-level
// accounting deterministically. The planner must be freshly constructed
// (all-remote). Workers record their busy time on sp. With workers <= 1
// everything runs inline on the caller's goroutine; the results are
// byte-identical for every worker count.
func (pl *Planner) PartitionParallel(workers int, sp *telemetry.Span) {
	numPages := pl.env.W.NumPages()
	numSites := pl.env.W.NumSites()
	deltas := make([]partitionDelta, numPages)

	partitionRange := func(lo, hi int, buf *[]int) {
		for j := lo; j < hi; j++ {
			deltas[j] = pl.partitionPageScratch(workload.PageID(j), buf)
		}
	}

	if workers <= 1 {
		var t time.Time
		if sp != nil {
			t = time.Now() //repllint:allow determinism — span busy-time telemetry; never feeds planner state
		}
		var buf []int
		partitionRange(0, numPages, &buf)
		for i := 0; i < numSites; i++ {
			pl.reducePartitionSite(workload.SiteID(i), deltas)
		}
		if sp != nil {
			sp.AddBusy(time.Since(t)) //repllint:allow determinism — span busy-time telemetry; never feeds planner state
		}
		return
	}

	// Fan out over pages: per-worker scratch buffers, chunked index ranges
	// claimed by an atomic cursor. Pages touch disjoint state, no locks.
	if w := (numPages + partitionChunk - 1) / partitionChunk; workers > w {
		workers = w
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t time.Time
			if sp != nil {
				t = time.Now() //repllint:allow determinism — span busy-time telemetry; never feeds planner state
			}
			var buf []int // per-worker scratch, reused across pages
			for {
				c := int(next.Add(1) - 1)
				lo := c * partitionChunk
				if lo >= numPages {
					break
				}
				hi := lo + partitionChunk
				if hi > numPages {
					hi = numPages
				}
				partitionRange(lo, hi, &buf)
			}
			if sp != nil {
				sp.AddBusy(time.Since(t)) //repllint:allow determinism — span busy-time telemetry; never feeds planner state
			}
		}()
	}
	wg.Wait()

	// Reduce, fanned over sites: each site's accumulators are disjoint and
	// its pages are folded in fixed order, so the reduction is race-free and
	// scheduling-independent.
	forEachSite(numSites, workers, func(i int) {
		var t time.Time
		if sp != nil {
			t = time.Now() //repllint:allow determinism — span busy-time telemetry; never feeds planner state
		}
		pl.reducePartitionSite(workload.SiteID(i), deltas)
		if sp != nil {
			sp.AddBusy(time.Since(t)) //repllint:allow determinism — span busy-time telemetry; never feeds planner state
		}
	})
}

// forEachSite calls fn(i) for every site 0 ≤ i < numSites over a pool of at
// most workers goroutines (inline, in site order, when workers <= 1) and
// returns when every call has. fn must touch only site i's planner state.
func forEachSite(numSites, workers int, fn func(i int)) {
	if workers > numSites {
		workers = numSites
	}
	if workers <= 1 {
		for i := 0; i < numSites; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= numSites {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// OffloadParallel runs the off-loading negotiation with each phase's
// AcceptWorkload calls spread over a pool of workers. Every requested site
// accepts on the live planner — sites touch disjoint planner state — and
// the answers are gathered by site, so the coordinator applies them in
// ascending site order exactly as the sequential Offload does: the
// placement, the statistics and the message log are bit-identical to it.
// Per-site acceptance busy time accumulates on sp.
func (pl *Planner) OffloadParallel(log io.Writer, workers int, sp *telemetry.Span) OffloadStats {
	return pl.offload(log, func(reqs map[workload.SiteID]units.ReqPerSec) []AcceptResult {
		sites := make([]workload.SiteID, 0, len(reqs))
		for i := 0; i < pl.env.W.NumSites(); i++ {
			if _, ok := reqs[workload.SiteID(i)]; ok {
				sites = append(sites, workload.SiteID(i))
			}
		}
		out := make([]AcceptResult, len(sites))
		forEachSite(len(sites), workers, func(s int) {
			var t time.Time
			if sp != nil {
				t = time.Now() //repllint:allow determinism — span busy-time telemetry; never feeds planner state
			}
			out[s] = pl.AcceptWorkload(sites[s], reqs[sites[s]])
			if sp != nil {
				sp.AddBusy(time.Since(t)) //repllint:allow determinism — span busy-time telemetry; never feeds planner state
			}
		})
		return out
	})
}
