// Package minheap is the module's one priority queue: a typed binary
// min-heap over a slice, with no interface boxing on Push or Pop.
//
// The sift algorithm is container/heap's, step for step — New heapifies
// bottom-up, Push appends and sifts up, Pop swaps the root with the last
// element and sifts down — so for the same sequence of operations the
// elements sit in the same slots and equal keys leave in the same order as
// they would through container/heap. Callers whose results depend on that
// tie order (the planner's lazy-greedy loops) stay bit-identical.
package minheap

// Item is implemented by heap elements: a.Less(b) reports whether a must
// leave the heap before b.
type Item[T any] interface {
	Less(T) bool
}

// Heap is a min-heap of T. The zero value is an empty heap.
type Heap[T Item[T]] struct {
	items []T
}

// New heapifies items in place (the heap takes ownership of the slice).
//
//repllint:hotpath — planner restoration and off-loading loops
func New[T Item[T]](items []T) Heap[T] {
	h := Heap[T]{items: items}
	n := len(items)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
	return h
}

// Len returns the number of elements.
func (h *Heap[T]) Len() int { return len(h.items) }

// Push adds x.
//
//repllint:hotpath — planner restoration and off-loading loops
func (h *Heap[T]) Push(x T) {
	h.items = append(h.items, x)
	h.up(len(h.items) - 1)
}

// Pop removes and returns the minimum element; ok is false when empty.
//
//repllint:hotpath — planner restoration and off-loading loops
func (h *Heap[T]) Pop() (x T, ok bool) {
	n := len(h.items) - 1
	if n < 0 {
		return x, false
	}
	h.items[0], h.items[n] = h.items[n], h.items[0]
	h.down(0, n)
	x = h.items[n]
	var zero T
	h.items[n] = zero // drop the reference for pointer elements
	h.items = h.items[:n]
	return x, true
}

// Peek returns the minimum element without removing it; ok is false when
// empty.
func (h *Heap[T]) Peek() (x T, ok bool) {
	if len(h.items) == 0 {
		return x, false
	}
	return h.items[0], true
}

func (h *Heap[T]) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.items[j].Less(h.items[i]) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		j = i
	}
}

func (h *Heap[T]) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.items[j2].Less(h.items[j1]) {
			j = j2 // right child
		}
		if !h.items[j].Less(h.items[i]) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		i = j
	}
}
