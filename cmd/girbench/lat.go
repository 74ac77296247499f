package main

import (
	"sort"
	"sync"
	"time"
)

// latRecorder collects per-call service times so suite rows can report
// real latency percentiles — each sample is one timed call, never a number
// derived from aggregate throughput (QPS hides tail stalls entirely: one
// 10ms fsync stall among ten thousand 80µs queries barely moves the mean
// but owns the p99.9). Reads and writes each get one. Safe for concurrent
// add from serving workers.
type latRecorder struct {
	mu      sync.Mutex
	samples []time.Duration
}

func newLatRecorder(capacity int) *latRecorder {
	return &latRecorder{samples: make([]time.Duration, 0, capacity)}
}

func (l *latRecorder) add(d time.Duration) {
	l.mu.Lock()
	l.samples = append(l.samples, d)
	l.mu.Unlock()
}

// latSummary is the percentile block of a row: embedded for reads, and
// the source of the write_* columns.
type latSummary struct {
	P50US  float64 `json:"p50_us,omitempty"`
	P99US  float64 `json:"p99_us,omitempty"`
	P999US float64 `json:"p999_us,omitempty"`
	MaxUS  float64 `json:"max_us,omitempty"`
	MeanUS float64 `json:"mean_us,omitempty"`
}

// summarize returns the sample count and the percentiles over the recorded
// samples. The one rule, for reads and writes alike: the q-quantile of n
// sorted samples is the one at index ⌊q·n⌋, clamped to the last.
func (l *latRecorder) summarize() (int, latSummary) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.samples)
	if n == 0 {
		return 0, latSummary{}
	}
	sorted := append([]time.Duration(nil), l.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	rank := func(q float64) float64 { return us(sorted[min(int(q*float64(n)), n-1)]) }
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	return n, latSummary{
		P50US:  rank(0.50),
		P99US:  rank(0.99),
		P999US: rank(0.999),
		MaxUS:  us(sorted[n-1]),
		MeanUS: us(sum) / float64(n),
	}
}
