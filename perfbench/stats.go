package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or NaN for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the three cut points that split xs into four groups,
// computed exactly as Python's statistics.quantiles(xs, n=4) does with its
// default "exclusive" method — the rule the steadiness check is stated in.
// It needs at least two values; with fewer every result is NaN.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := sorted(xs)
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// tail is a high percentile together with the sample it was taken from.
type tail struct {
	Value float64 // the percentile's value
	Pct   float64 // the percentile actually reported, in (0, 1)
	N     int     // sample count
}

// tailPercentile returns the want-th percentile of xs (nearest rank), unless
// fewer than minBeyond samples would lie above it: then it falls back to the
// highest percentile that still has minBeyond samples beyond it, so a tail
// is never read off a handful of points. ok is false when even that leaves
// no rank (n <= minBeyond).
func tailPercentile(xs []float64, want float64, minBeyond int) (t tail, ok bool) {
	n := len(xs)
	rank := int(math.Ceil(want * float64(n)))
	if rank > n-minBeyond {
		rank = n - minBeyond
	}
	if rank < 1 {
		return tail{N: n}, false
	}
	s := sorted(xs)
	return tail{Value: s[rank-1], Pct: float64(rank) / float64(n), N: n}, true
}

// rusage is the process's resource usage at one instant.
type rusage struct {
	cpu    time.Duration // user + system CPU
	maxRSS int64         // peak resident set, bytes
}

// readRusage samples getrusage(RUSAGE_SELF). The process hosts both the
// cluster and its client, so its CPU is the whole system's cost.
func readRusage() rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return rusage{}
	}
	return fromRusage(ru)
}

// fromRusage converts a raw getrusage result (ru_maxrss is in KiB on Linux).
func fromRusage(ru syscall.Rusage) rusage {
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return rusage{cpu: tv(ru.Utime) + tv(ru.Stime), maxRSS: int64(ru.Maxrss) * 1024}
}

// cpuSince returns the CPU the process spent between two samples.
func cpuSince(from, to rusage) time.Duration { return to.cpu - from.cpu }
