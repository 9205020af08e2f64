package minheap

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"testing"
)

type item struct {
	key float64
	id  int64
}

func (a item) Less(b item) bool { return a.key < b.key }

// lcg is a deterministic op stream for the tests.
type lcg uint64

func (s *lcg) next() uint64 {
	*s = *s*6364136223846793005 + 1442695040888963407
	return uint64(*s >> 33)
}

// TestTieOrderPinned drives a heap whose keys take only seven values — so
// almost every comparison is a tie — through 200 heapified items and 5000
// random pushes and pops, then drains it, and hashes the popped ids. The
// digests were taken from the same op stream run through container/heap,
// so they pin that Heap reproduces its slot-for-slot behaviour, not just
// the heap order.
func TestTieOrderPinned(t *testing.T) {
	want := map[uint64]string{
		1: "e717bc3247a11a7444fe5bd426b67c8daba453d108071532ebfa8e50efcf6db0",
		2: "1dc19058e1d7d585e317fe16ba5275a30ca948b0d6f37ba0643dea66c0093f2b",
		3: "eb17d534e2f8dd2f30638c6ebc2205285df9b3d1f3ceff8d52cb709332477a81",
	}
	for seed, digest := range want {
		s := lcg(seed)
		init := make([]item, 200)
		for i := range init {
			init[i] = item{key: float64(s.next() % 7), id: int64(i)}
		}
		h := New(init)
		sum := sha256.New()
		var buf [8]byte
		emit := func(it item) {
			binary.LittleEndian.PutUint64(buf[:], uint64(it.id))
			sum.Write(buf[:])
		}
		next := int64(len(init))
		for op := 0; op < 5000; op++ {
			if s.next()%3 == 0 || h.Len() == 0 {
				h.Push(item{key: float64(s.next() % 7), id: next})
				next++
				continue
			}
			it, ok := h.Pop()
			if !ok {
				t.Fatal("Pop on a non-empty heap reported empty")
			}
			emit(it)
		}
		for h.Len() > 0 {
			it, _ := h.Pop()
			emit(it)
		}
		if got := hex.EncodeToString(sum.Sum(nil)); got != digest {
			t.Errorf("seed %d: pop-order digest %s, want %s", seed, got, digest)
		}
	}
}

// TestSorts checks Pop drains distinct keys in ascending order and that
// Peek agrees with Pop.
func TestSorts(t *testing.T) {
	s := lcg(9)
	var h Heap[item]
	var keys []float64
	for i := 0; i < 500; i++ {
		k := float64(s.next())
		keys = append(keys, k)
		h.Push(item{key: k, id: int64(i)})
	}
	sort.Float64s(keys)
	for i, k := range keys {
		top, ok := h.Peek()
		it, _ := h.Pop()
		if !ok || top != it || it.key != k {
			t.Fatalf("pop %d: got %v (peek %v), want key %v", i, it, top, k)
		}
	}
	if _, ok := h.Pop(); ok {
		t.Error("Pop on an empty heap reported an element")
	}
	if _, ok := h.Peek(); ok {
		t.Error("Peek on an empty heap reported an element")
	}
}

// TestPopClearsPointerSlot checks a popped pointer does not stay reachable
// from the heap's backing array.
func TestPopClearsPointerSlot(t *testing.T) {
	h := New([]*ptrItem{{1}, {2}})
	h.Pop()
	if full := h.items[:2]; full[1] != nil {
		t.Error("vacated slot still holds the popped pointer")
	}
}

type ptrItem struct{ key int }

func (a *ptrItem) Less(b *ptrItem) bool { return a.key < b.key }
