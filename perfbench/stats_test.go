package main

import (
	"math"
	"syscall"
	"testing"
	"time"

	"repro/internal/workload"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) prints for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5.5, 1.25, 9, 2, 7.75}, [3]float64{1.625, 5.5, 8.375}},
		{[]float64{10, 20, 30, 40}, [3]float64{12.5, 25, 37.5}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if q1, _, _ := quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Error("quartiles of one value should be NaN")
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 2000 … 1, unsorted input
	}
	// Enough samples: the true p99, with 20 beyond it.
	got, ok := tailPercentile(xs, 0.99, 10)
	if !ok || got.Value != 1980 || got.Pct != 0.99 || got.N != 2000 {
		t.Errorf("2000 samples: got %+v ok=%v, want p99 = 1980", got, ok)
	}
	// Too few for p99: fall back to the highest percentile with 10 beyond.
	got, ok = tailPercentile(xs[:500], 0.99, 10)
	beyond := 0
	for _, x := range xs[:500] {
		if x > got.Value {
			beyond++
		}
	}
	if !ok || beyond != 10 || got.Pct != 0.98 || got.N != 500 {
		t.Errorf("500 samples: got %+v ok=%v with %d beyond, want p98 with 10 beyond", got, ok, beyond)
	}
	if _, ok := tailPercentile(xs[:10], 0.99, 10); ok {
		t.Error("10 samples cannot have 10 beyond any rank")
	}
}

func TestCPUFromRusageDeltas(t *testing.T) {
	a := fromRusage(syscall.Rusage{
		Utime: syscall.Timeval{Sec: 1, Usec: 500000},
		Stime: syscall.Timeval{Sec: 0, Usec: 250000},
	})
	b := fromRusage(syscall.Rusage{
		Utime:  syscall.Timeval{Sec: 3, Usec: 0},
		Stime:  syscall.Timeval{Sec: 1, Usec: 0},
		Maxrss: 2048,
	})
	if got, want := cpuSince(a, b), 2250*time.Millisecond; got != want {
		t.Errorf("cpuSince = %v, want %v", got, want)
	}
	if b.maxRSS != 2048*1024 {
		t.Errorf("maxRSS = %d, want ru_maxrss KiB in bytes", b.maxRSS)
	}

	// A live sample moves by at least the CPU a busy loop burns.
	before := readRusage()
	start := time.Now()
	x := 0
	for time.Since(start) < 50*time.Millisecond {
		x++
	}
	if d := cpuSince(before, readRusage()); d < 20*time.Millisecond || x == 0 {
		t.Errorf("50 ms busy loop measured %v of CPU", d)
	}
}

func TestPageSamplerDeterministicAndWeighted(t *testing.T) {
	w := workload.MustGenerate(workload.SmallConfig(), 5)
	draw := func(seed uint64) []workload.PageID {
		s := newPageSampler(w, seed)
		out := make([]workload.PageID, 20000)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	a, b, c := draw(9), draw(9), draw(10)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 9 drew page %d then %d at draw %d", a[i], b[i], i)
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("seeds 9 and 10 drew identical sequences")
	}
	// Hot pages draw their configured share of the traffic.
	hot := 0
	for _, j := range a {
		if w.Pages[j].Hot {
			hot++
		}
	}
	share := float64(hot) / float64(len(a))
	if want := w.Config.HotTrafficShare; math.Abs(share-want) > 0.03 {
		t.Errorf("hot pages drew %.3f of views, want about %.2f", share, want)
	}
}
