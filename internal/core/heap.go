package core

import (
	"repro/internal/minheap"
	"repro/internal/workload"
)

// heapItem is one candidate in a lazy-greedy selection: an opaque id with a
// possibly-stale key (smaller = apply earlier).
type heapItem struct {
	key float64
	id  int64
}

// Less orders candidates by key alone; equal keys keep the heap's
// deterministic slot order.
func (a heapItem) Less(b heapItem) bool { return a.key < b.key }

// lazyHeap is a min-heap of heapItems supporting the lazy-greedy pattern
// used by the restoration loops: keys are computed when items are pushed and
// may go stale as the state mutates; Pop'd items are re-validated by the
// caller and pushed back with a fresh key when they no longer beat the top.
// Between two state mutations every key recomputation is deterministic, so
// each item is refreshed at most once per mutation and the loop terminates.
type lazyHeap struct {
	minheap.Heap[heapItem]
}

// candidates returns an empty item buffer with room for one item per
// reference by site i's pages — the most a per-site greedy loop seeds its
// heap with — so seeding it never regrows the buffer.
func (pl *Planner) candidates(i workload.SiteID) []heapItem {
	return make([]heapItem, 0, pl.refOff[pl.siteOff[i+1]]-pl.refOff[pl.siteOff[i]])
}

// newLazyHeap heapifies the given items in place.
func newLazyHeap(items []heapItem) lazyHeap {
	return lazyHeap{minheap.New(items)}
}

// popFresh implements the lazy-greedy pop: it returns the id whose *fresh*
// key (as computed by recompute) is minimal. Items whose recompute returns
// valid=false are dropped. ok=false when the heap is exhausted.
func (h *lazyHeap) popFresh(recompute func(id int64) (key float64, valid bool)) (int64, float64, bool) {
	const eps = 1e-12
	for {
		it, ok := h.Pop()
		if !ok {
			return 0, 0, false
		}
		key, valid := recompute(it.id)
		if !valid {
			continue
		}
		if top, ok := h.Peek(); ok && key > top.key+eps {
			// Fresh key no longer beats the rest — refresh and retry.
			// (Between two mutations recomputation is deterministic, so two
			// items cannot alternate indefinitely: A re-pushed over B and B
			// re-pushed over A would need key_A > key_B + eps and vice versa.)
			h.Push(heapItem{key: key, id: it.id})
			continue
		}
		return it.id, key, true
	}
}
