package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 needs at least 1000 samples.
const minTail = 10

// percentileOK reports whether n samples leave at least minTail of them
// above the sample quantile reports for q.
func percentileOK(n int, q float64) bool {
	return n-rank(n, q) >= minTail
}

// rank is the 1-based nearest rank of the q-th quantile of n samples.
func rank(n int, q float64) int {
	return min(max(int(q*float64(n)+0.5), 1), n)
}

// quantile returns the nearest-rank q-th quantile of sorted, or 0 for
// an empty slice.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// medianFloat returns the median of xs (0 for none).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// mergeSorted merges ascending slices into one ascending slice.
func mergeSorted(parts ...[]int64) []int64 {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]int64, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// usage is a process resource snapshot: CPU time and heap allocations.
type usage struct {
	cpu    time.Duration
	allocs uint64
}

// readUsage snapshots process user+system CPU (getrusage) and the Go
// heap allocation count. ReadMemStats stops the world, so it is only
// called at window edges.
func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: ms.Mallocs,
	}
}

func (u usage) sub(v usage) usage {
	return usage{cpu: u.cpu - v.cpu, allocs: u.allocs - v.allocs}
}
