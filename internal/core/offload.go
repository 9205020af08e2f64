package core

import (
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/units"
	"repro/internal/workload"
)

// OffloadStats summarizes an off-loading negotiation.
type OffloadStats struct {
	Ran            bool // the protocol had to run at all
	Rounds         int  // message-exchange phases
	Messages       int  // total protocol messages
	Restored       bool // Eq. 9 holds on exit
	RepoLoadBefore units.ReqPerSec
	RepoLoadAfter  units.ReqPerSec
	MovedLocal     units.ReqPerSec // workload moved from repository to sites
	NewReplicas    int
	Swaps          int
}

// maxOffloadRounds bounds the negotiation: each round either restores the
// constraint or moves at least one site to L3, so sites+2 rounds suffice;
// the bound is a backstop against pathological float behavior.
const maxOffloadRounds = 64

// Offload runs the repository's OFF_LOADING_REPOSITORY loop (Section 4.2)
// against the planner's sites, sequentially. The distributed variant in
// RunOffloadDistributed exchanges the same messages over channels and
// produces the identical placement; this form is the deterministic
// reference. log, when non-nil, receives a line per protocol message.
func (pl *Planner) Offload(log io.Writer) OffloadStats {
	return pl.OffloadParallel(log, 1, nil)
}

// RunOffloadDistributed runs the same negotiation with one goroutine per
// local server, exchanging request/answer messages over channels — the
// shape the paper describes, where each phase is a round of messages
// between the repository and the servers. Distinct sites mutate disjoint
// planner state, so the concurrent acceptance is race-free, and because the
// coordinator waits for all answers before the next phase the outcome is
// identical to Offload.
func (pl *Planner) RunOffloadDistributed(log io.Writer) OffloadStats {
	type job struct {
		site   workload.SiteID
		target units.ReqPerSec
	}
	return pl.offload(log, func(reqs map[workload.SiteID]units.ReqPerSec) []AcceptResult {
		jobs := make(chan job, len(reqs))
		answers := make(chan AcceptResult, len(reqs))
		var wg sync.WaitGroup
		for w := 0; w < len(reqs); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for jb := range jobs {
					answers <- pl.AcceptWorkload(jb.site, jb.target)
				}
			}()
		}
		for site, target := range reqs {
			jobs <- job{site, target}
		}
		close(jobs)
		wg.Wait()
		close(answers)
		out := make([]AcceptResult, 0, len(reqs))
		for a := range answers {
			out = append(out, a)
		}
		return out
	})
}

// offload is the coordinator loop shared by both execution modes; dispatch
// runs one phase of NewReq messages and returns the sites' answers.
func (pl *Planner) offload(log io.Writer, dispatch func(map[workload.SiteID]units.ReqPerSec) []AcceptResult) OffloadStats {
	stats := OffloadStats{RepoLoadBefore: pl.RepoLoad()}
	capR := float64(pl.env.Budgets.RepoCapacity)
	logf := func(format string, args ...interface{}) {
		if log != nil {
			fmt.Fprintf(log, format, args...)
		}
	}

	pR := float64(pl.RepoLoad())
	stats.Messages += pl.env.W.NumSites() // the initial status messages
	logf("repository: collected %d status messages, P(R)=%.2f req/s, C(R)=%.2f req/s\n",
		pl.env.W.NumSites(), pR, capR)
	if math.IsInf(capR, 1) || pR <= capR {
		stats.Restored = true
		stats.RepoLoadAfter = units.ReqPerSec(pR)
		return stats
	}
	stats.Ran = true

	exhausted := make(map[workload.SiteID]bool) // the L3 set accumulated across phases

	for stats.Rounds = 1; stats.Rounds <= maxOffloadRounds; stats.Rounds++ {
		pR = float64(pl.RepoLoad())
		if pR <= capR {
			break
		}
		excess := pR - capR

		// Classify sites. An unconstrained site's free capacity is clamped
		// to the excess: it can absorb everything, and the clamp keeps the
		// proportional split finite.
		var l1, l2 []workload.SiteID
		freeCap := make(map[workload.SiteID]float64)
		for i := 0; i < pl.env.W.NumSites(); i++ {
			id := workload.SiteID(i)
			if exhausted[id] {
				continue
			}
			fc := pl.freeCapacity(id)
			if math.IsInf(fc, 1) {
				fc = excess
			}
			if fc <= 1e-9 {
				continue
			}
			freeCap[id] = fc
			if pl.freeSpace(id) > 0 {
				l1 = append(l1, id)
			} else {
				l2 = append(l2, id)
			}
		}
		if len(l1) == 0 && len(l2) == 0 {
			logf("repository: L1 and L2 empty — constraint cannot be restored (%.2f > %.2f)\n", pR, capR)
			break
		}

		pL1 := 0.0
		for _, id := range l1 {
			pL1 += freeCap[id]
		}
		pL2 := 0.0
		for _, id := range l2 {
			pL2 += freeCap[id]
		}

		reqs := make(map[workload.SiteID]units.ReqPerSec)
		if excess <= pL1 {
			for _, id := range l1 {
				reqs[id] = units.ReqPerSec(freeCap[id] * excess / pL1)
			}
		} else {
			for _, id := range l1 {
				reqs[id] = units.ReqPerSec(freeCap[id])
			}
			if pL2 > 0 {
				over := math.Min(excess-pL1, pL2)
				for _, id := range l2 {
					reqs[id] = units.ReqPerSec(freeCap[id] * over / pL2)
				}
			}
		}
		logf("repository: round %d, excess %.2f req/s, |L1|=%d (P=%.2f), |L2|=%d (P=%.2f)\n",
			stats.Rounds, excess, len(l1), pL1, len(l2), pL2)
		for _, id := range l1 {
			logf("  -> S%d (L1): NewReq %.3f req/s\n", id, float64(reqs[id]))
		}
		for _, id := range l2 {
			if r, ok := reqs[id]; ok {
				logf("  -> S%d (L2): NewReq %.3f req/s\n", id, float64(r))
			}
		}

		answers := dispatch(reqs)
		stats.Messages += 2 * len(reqs) // NewReq out + answer back
		for _, a := range answers {
			stats.MovedLocal += a.Accepted
			stats.NewReplicas += a.Stored
			stats.Swaps += a.Swapped
			logf("  <- S%d: accepted %.3f of %.3f req/s (stored %d, swapped %d)\n",
				a.Site, float64(a.Accepted), float64(a.Target), a.Stored, a.Swapped)
			if float64(a.Accepted) < float64(a.Target)-1e-6 {
				exhausted[a.Site] = true // the site reports it now belongs to L3
				logf("     S%d moves to L3\n", a.Site)
			}
		}
	}

	stats.RepoLoadAfter = pl.RepoLoad()
	stats.Restored = float64(stats.RepoLoadAfter) <= capR*(1+1e-9)+1e-9
	stats.Messages += pl.env.W.NumSites() // Off_Loading_END broadcast
	logf("repository: done after %d rounds, P(R)=%.2f req/s (restored=%v)\n",
		stats.Rounds, float64(stats.RepoLoadAfter), stats.Restored)
	return stats
}
