package core

import (
	"math"

	"repro/internal/workload"
)

// RefineSite is an extension beyond the paper's algorithm (Options.Refine):
// a post-restoration improvement sweep. The paper's storage restoration
// only ever *removes* replicas, and its re-partitioning step only re-marks
// objects that are still stored — so after evicting a 2 MB replica, a
// profitable 100 KB object that would now fit is never (re)considered.
// RefineSite closes that gap greedily: while some remote-marked reference
// has a negative ΔD and its object is stored or fits in the free space —
// and the site's capacity allows the extra requests — flip the best one
// (ΔD amortized over the bytes it must newly occupy). Each flip strictly
// decreases D, so the sweep terminates. Returns the number of flips.
func (pl *Planner) RefineSite(i workload.SiteID) (flips int) {
	capacity := float64(pl.env.Budgets.SiteCapacity[i])

	items := pl.candidates(i)
	for _, pid := range pl.env.W.Sites[i].Pages {
		pg := &pl.env.W.Pages[pid]
		for idx := range pg.Compulsory {
			if !pl.p.CompLocal(pid, idx) {
				items = append(items, heapItem{key: pl.refineKey(pid, idx, false), id: encodeRef(pid, idx, false)})
			}
		}
		for idx := range pg.Optional {
			if !pl.p.OptLocal(pid, idx) {
				items = append(items, heapItem{key: pl.refineKey(pid, idx, true), id: encodeRef(pid, idx, true)})
			}
		}
	}
	h := newLazyHeap(items)

	recompute := func(id int64) (float64, bool) {
		j, idx, optional := decodeRef(id)
		pg := &pl.env.W.Pages[j]
		var k workload.ObjectID
		var gain float64
		if optional {
			if pl.p.OptLocal(j, idx) {
				return 0, false
			}
			k = pg.Optional[idx].Object
			gain = float64(pg.Freq) * pg.Optional[idx].Prob
		} else {
			if pl.p.CompLocal(j, idx) {
				return 0, false
			}
			k = pg.Compulsory[idx]
			gain = float64(pg.Freq)
		}
		if !pl.p.IsStored(i, k) && pl.env.W.ObjectSize(k) > pl.freeSpace(i) {
			return 0, false
		}
		if !math.IsInf(capacity, 1) && pl.siteLocalLoad[i]+gain > capacity+1e-9 {
			return 0, false
		}
		key := pl.refineKey(j, idx, optional)
		if key >= -1e-12 {
			return 0, false // not an improvement (any more)
		}
		return key, true
	}

	for {
		id, _, ok := h.popFresh(recompute)
		if !ok {
			return flips
		}
		j, idx, optional := decodeRef(id)
		pg := &pl.env.W.Pages[j]
		var k workload.ObjectID
		if optional {
			k = pg.Optional[idx].Object
		} else {
			k = pg.Compulsory[idx]
		}
		if !pl.p.IsStored(i, k) {
			pl.p.Store(i, k)
		}
		if optional {
			pl.flipOpt(j, idx, true)
		} else {
			pl.flipComp(j, idx, true)
		}
		flips++
	}
}

// refineKey is ΔD of flipping the reference local, amortized over the new
// bytes the flip must occupy (zero for already-stored objects, which makes
// free improvements sort first).
func (pl *Planner) refineKey(j workload.PageID, idx int, optional bool) float64 {
	pg := &pl.env.W.Pages[j]
	var k workload.ObjectID
	var preview float64
	if optional {
		k = pg.Optional[idx].Object
		preview = pl.previewFlipOpt(j, idx, true)
	} else {
		k = pg.Compulsory[idx]
		preview = pl.previewFlipComp(j, idx, true)
	}
	if pl.p.IsStored(pg.Site, k) {
		return preview // free: no new bytes
	}
	size := float64(pl.env.W.ObjectSize(k))
	if size <= 0 {
		return preview
	}
	// Normalize per MB so stored (free) candidates still dominate.
	return preview / (size / 1e6)
}
