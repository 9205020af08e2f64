package core

import (
	"cmp"
	"slices"

	"repro/internal/workload"
)

// PartitionPage runs the paper's PARTITION(W_j) heuristic on one page:
// compulsory objects are visited in decreasing size order, each tentatively
// added to both chains, and kept on the side that leaves the smaller
// running maximum — exactly the pseudocode of Section 4.2 (the object goes
// to the repository iff RemoteDownload + transfer < LocalDownload +
// transfer). Objects assigned locally are stored at the page's site.
//
// Per the pseudocode the remote running time starts at Ovhd(R, S_i) even if
// no object ends up remote; the planner's cached Eq. 4 value (0 for an
// empty remote chain) is re-established by the flips themselves.
func (pl *Planner) PartitionPage(j workload.PageID) {
	pl.partitionPage(j, !pl.UnsortedPartition)
}

// PartitionPageUnsorted is the ablation of PARTITION's decreasing-size
// visit order: objects are considered in their page order instead. Used by
// the ablation benchmarks to quantify what the sort buys.
func (pl *Planner) PartitionPageUnsorted(j workload.PageID) {
	pl.partitionPage(j, false)
}

func (pl *Planner) partitionPage(j workload.PageID, bySize bool) {
	pg := &pl.env.W.Pages[j]
	est := pl.siteEstimateOf(pg.Site)

	local := est.LocalOvhd + est.LocalRate.TransferTime(pg.HTMLSize)
	remote := est.RepoOvhd

	for _, idx := range pl.visitOrder(pg, bySize, nil) {
		size := pl.env.W.ObjectSize(pg.Compulsory[idx])
		remoteIf := remote + est.RepoRate.TransferTime(size)
		localIf := local + est.LocalRate.TransferTime(size)
		if remoteIf < localIf {
			remote = remoteIf
			pl.flipComp(j, idx, false)
		} else {
			local = localIf
			pl.p.Store(pg.Site, pg.Compulsory[idx])
			pl.flipComp(j, idx, true)
		}
	}
}

// visitOrder returns page pg's compulsory indices in PARTITION's visit
// order, reusing buf: decreasing size with ties by index when bySize, page
// order otherwise. The order is total, so it does not depend on the sort.
func (pl *Planner) visitOrder(pg *workload.Page, bySize bool, buf []int) []int {
	order := buf[:0]
	for idx := range pg.Compulsory {
		order = append(order, idx)
	}
	if bySize {
		slices.SortFunc(order, func(a, b int) int {
			sa := pl.env.W.ObjectSize(pg.Compulsory[a])
			sb := pl.env.W.ObjectSize(pg.Compulsory[b])
			if c := cmp.Compare(sb, sa); c != 0 {
				return c // decreasing size
			}
			return cmp.Compare(a, b)
		})
	}
	return order
}

// AdmitPage runs the full per-page admission of PARTITION on page j at its
// current host site: the compulsory split, then storing every optional
// object locally with its download marked local (Section 4.2's "Store all
// optional objects"). It is PartitionSite restricted to one page — the
// primitive the repair planner uses to re-home a dead site's page onto a
// survivor without disturbing the survivor's other pages. Constraint
// restoration afterwards trims whatever does not fit.
func (pl *Planner) AdmitPage(j workload.PageID) {
	pl.PartitionPage(j)
	pg := &pl.env.W.Pages[j]
	for idx, l := range pg.Optional {
		pl.p.Store(pg.Site, l.Object)
		pl.flipOpt(j, idx, true)
	}
}

// PartitionSite runs PARTITION on every page of site i and then stores all
// optional objects locally (Section 4.2: "Store all optional objects"),
// marking their downloads local. Constraint restoration afterwards trims
// whatever does not fit.
func (pl *Planner) PartitionSite(i workload.SiteID) {
	for _, pid := range pl.env.W.Sites[i].Pages {
		pl.PartitionPage(pid)
	}
	for _, pid := range pl.env.W.Sites[i].Pages {
		pg := &pl.env.W.Pages[pid]
		for idx, l := range pg.Optional {
			pl.p.Store(i, l.Object)
			pl.flipOpt(pid, idx, true)
		}
	}
}

// PartitionAll runs PartitionSite on every site sequentially.
func (pl *Planner) PartitionAll() {
	for i := range pl.env.W.Sites {
		pl.PartitionSite(workload.SiteID(i))
	}
}
