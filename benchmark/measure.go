package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	gir "github.com/girlib/gir"
)

// setupTarget is how much set-up time a run observes before it reports
// setup_s: whole set-ups repeat (at most sizes.setupReps of them) until this
// much has accumulated, and the median is reported — a sub-second set-up is
// as noisy as a sub-second round, a multi-second one is steady measured once.
const setupTarget = 3 * time.Second

// value is one reported metric.
type value struct {
	v    float64
	unit string
	// samples is how many observations the value summarises (rounds for a
	// median over rounds); lo/hi are the smallest and largest round value.
	samples int
	lo, hi  float64
}

// round is what one measured round yields. Everything in it is on the wall
// clock; stolen is what the host reports beside it (host.go).
type round struct {
	passes, samples int
	wallRate        float64 // ops per wall second
	p50, p95, p99   float64 // us
	stolen          float64 // share of the VM's CPU time given to another tenant
}

// rate is the round's ops per second the VM ran: the wall time less the
// share of it the hypervisor reports stolen. With nothing stolen, or nothing
// reported, it is the wall rate.
func (rd round) rate() float64 { return rd.wallRate / (1 - rd.stolen) }

// result is one untraced run of one workload.
type result struct {
	workload          string
	attempted, failed int
	// broken names a violated workload invariant (see checker); empty when
	// the run is sound.
	broken  string
	metrics map[string]value
	// Printed, not gated: set-up time and rate on the wall clock, and the
	// latency percentiles (see the README on why the last are not end-to-end
	// metrics here).
	wallSetup, wallRate, p50us, p95us, p99us value
	rounds                                   []round
	hitRatio                                 float64
}

// endToEnd lists the end-to-end metrics in print order.
var endToEnd = []string{"setup_s", "ops_per_s", "live_heap_mb"}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	i := int(q * float64(len(sorted)))
	return sorted[min(i, len(sorted)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// overRounds reports the median of per-round values with their spread.
func overRounds(xs []float64, unit string) value {
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return value{v: median(xs), unit: unit, samples: len(xs), lo: lo, hi: hi}
}

// liveHeap is HeapAlloc after two collections: the first moves pooled
// objects to the victim cache, the second drops them, so the reading does
// not depend on the GC phase the run happened to end in.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runSetup times whole set-ups until setupTarget has accumulated and leaves
// the last one standing. A set-up's time is, like a round's, the wall time
// less the share of it reported stolen.
func runSetup(w workload, rec *recorder, maxReps int) (times, wallTimes []float64, err error) {
	var total time.Duration
	for {
		rec.reset()
		cpu0 := readHostCPU()
		t0 := time.Now()
		if err := w.setup(rec); err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name(), err)
		}
		d := time.Since(t0)
		times = append(times, d.Seconds()*(1-stolen(cpu0, readHostCPU())))
		wallTimes = append(wallTimes, d.Seconds())
		total += d
		if total >= setupTarget || len(times) == maxReps {
			return times, wallTimes, nil
		}
		if err := w.close(); err != nil {
			return nil, nil, fmt.Errorf("%s teardown between set-ups: %w", w.name(), err)
		}
	}
}

// measure is the untraced run: set-up, then rounds of whole passes, each
// round at least roundDur long; every timed value is the median over the
// rounds.
func measure(w workload, sz sizes, roundDur time.Duration) (*result, error) {
	rec := newRecorder(nil)
	heap0 := liveHeap() // inputs, expectations and sample buffers are allocated by now

	setups, wallSetups, err := runSetup(w, rec, sz.setupReps)
	if err != nil {
		return nil, err
	}
	res := &result{workload: w.name(), metrics: map[string]value{}}
	before := w.engine().Stats()

	for range sz.rounds {
		rec.reset()
		rd := round{}
		cpu0 := readHostCPU()
		t0 := time.Now()
		var wall time.Duration
		for wall < roundDur || rd.passes == 0 {
			w.pass(rec)
			rd.passes++
			wall = time.Since(t0)
		}
		rd.stolen = stolen(cpu0, readHostCPU())
		res.attempted += rec.ops
		res.failed += rec.failed
		sort.Float64s(rec.reads)
		rd.samples = len(rec.reads)
		rd.wallRate = float64(rec.ops) / wall.Seconds()
		rd.p50 = quantile(rec.reads, 0.50) / 1e3
		rd.p95 = quantile(rec.reads, 0.95) / 1e3
		rd.p99 = quantile(rec.reads, 0.99) / 1e3
		res.rounds = append(res.rounds, rd)
	}
	after := w.engine().Stats()
	heap1 := liveHeap()
	runtime.KeepAlive(rec) // in the baseline, so it must still be counted here

	over := func(unit string, of func(round) float64) value {
		xs := make([]float64, len(res.rounds))
		for i, rd := range res.rounds {
			xs[i] = of(rd)
		}
		return overRounds(xs, unit)
	}
	res.metrics["setup_s"] = overRounds(setups, "s")
	res.metrics["ops_per_s"] = over("1/s", round.rate)
	res.metrics["live_heap_mb"] = value{v: (float64(heap1) - float64(heap0)) / 1e6, unit: "MB", samples: 1}
	res.wallSetup = overRounds(wallSetups, "s")
	res.wallRate = over("1/s", func(rd round) float64 { return rd.wallRate })
	res.p50us = over("us", func(rd round) float64 { return rd.p50 })
	res.p95us = over("us", func(rd round) float64 { return rd.p95 })
	res.p99us = over("us", func(rd round) float64 { return rd.p99 })
	res.hitRatio = hitRatio(before, after)

	if c, ok := w.(checker); ok {
		n, bad, err := c.check(res.hitRatio)
		res.attempted += n
		res.failed += bad
		if err != nil {
			res.broken = err.Error()
		}
	}
	return res, w.close()
}

// hitRatio is complete hits over cache lookups between two stat readings
// (0 when caching is off).
func hitRatio(a, b gir.EngineStats) float64 {
	lookups := (b.CacheHits - a.CacheHits) + (b.PartialHits - a.PartialHits) + (b.Misses - a.Misses)
	if lookups == 0 {
		return 0
	}
	return float64(b.CacheHits-a.CacheHits) / float64(lookups)
}
