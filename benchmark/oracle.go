package main

import (
	"math"
	"runtime"
	"sort"
	"sync"

	gir "github.com/girlib/gir"
)

// shadow is the benchmark's own copy of the records, the ground truth every
// measured result is compared against. The bulk-loaded base is held
// column-major for the brute-force scan; no script deletes a base record,
// so a churn step's truth is the base answer merged with the script's live
// inserts.
type shadow struct {
	n    int
	cols [dim][]float64
}

func newShadow(points [][]float64) *shadow {
	sh := &shadow{n: len(points)}
	for j := range sh.cols {
		sh.cols[j] = make([]float64, len(points))
		for i, p := range points {
			sh.cols[j][i] = p[j]
		}
	}
	return sh
}

type scored struct {
	id int64
	s  float64
}

// better is the oracle's total order: score descending, id ascending.
func better(a, b scored) bool { return a.s > b.s || (a.s == b.s && a.id < b.id) }

// dot accumulates in the library's order (dimensions ascending from zero),
// so on platforms without fused multiply-add the oracle's scores are the
// library's bit for bit; elsewhere the tie rule below absorbs the last ulp.
func dot(q, p []float64) float64 {
	var s float64
	for j, w := range q {
		s += w * p[j]
	}
	return s
}

// tieSlack is how far past k the oracle looks for records tied with the
// k-th; ties of more than tieSlack records do not occur in uniform data.
const tieSlack = 4

// top scans every base record and returns the m best in oracle order.
func (sh *shadow) top(q []float64, m int) []scored {
	const block = 1024
	var buf [block]float64
	best := make([]scored, 0, m+1)
	for lo := 0; lo < sh.n; lo += block {
		sc := buf[:min(block, sh.n-lo)]
		for i := range sc {
			sc[i] = 0
		}
		for j, w := range q {
			col := sh.cols[j][lo : lo+len(sc)]
			for i := range sc {
				sc[i] += w * col[i]
			}
		}
		for i, s := range sc {
			// Ids ascend through the scan, so an equal score never displaces.
			if len(best) == m && s <= best[m-1].s {
				continue
			}
			best = insertScored(best, scored{id: int64(lo + i), s: s}, m)
		}
	}
	return best
}

// insertScored places x into the sorted list, keeping at most m entries.
func insertScored(best []scored, x scored, m int) []scored {
	at := sort.Search(len(best), func(i int) bool { return better(x, best[i]) })
	if at >= m {
		return best
	}
	if len(best) < m {
		best = append(best, scored{})
	}
	copy(best[at+1:], best[at:])
	best[at] = x
	return best
}

// expect is what one script step must return.
type expect struct {
	ids []int64 // the top-k in oracle order
	// A step whose k-th and (k+1)-th scores — or any two neighbours above
	// them — lie within 1e-12 relative compares as a set: ids[:strict] must
	// all be present and the rest may come from ids[strict:] or alt (records
	// past k tied with the k-th).
	tie    bool
	strict int
	alt    []int64
}

func relTie(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// newExpect builds a step's expectation from the k+tieSlack best records.
func newExpect(best []scored, k int) expect {
	e := expect{ids: make([]int64, k)}
	for i := range e.ids {
		e.ids[i] = best[i].id
	}
	for i := 0; i < k && i+1 < len(best); i++ {
		if relTie(best[i].s, best[i+1].s) {
			e.tie = true
		}
	}
	if !e.tie {
		return e
	}
	e.strict = k - 1
	for e.strict > 0 && relTie(best[e.strict-1].s, best[e.strict].s) {
		e.strict--
	}
	for i := k; i < len(best) && relTie(best[i-1].s, best[i].s); i++ {
		e.alt = append(e.alt, best[i].id)
	}
	return e
}

// matches reports whether the library's records are the expected answer.
func (e *expect) matches(recs []gir.Record) bool {
	if len(recs) != len(e.ids) {
		return false
	}
	if !e.tie {
		for i, r := range recs {
			if r.ID != e.ids[i] {
				return false
			}
		}
		return true
	}
	got := make(map[int64]bool, len(recs))
	for _, r := range recs {
		got[r.ID] = true
	}
	if len(got) != len(recs) {
		return false
	}
	for _, id := range e.ids[:e.strict] {
		if !got[id] {
			return false
		}
	}
	fromBand := 0
	for _, id := range e.ids[e.strict:] {
		if got[id] {
			fromBand++
		}
	}
	for _, id := range e.alt {
		if got[id] {
			fromBand++
		}
	}
	return fromBand == len(recs)-e.strict
}

// tops returns each query's kMax+tieSlack best base records: one
// brute-force scan per distinct vector, split over the available cores
// (data generation is outside every timed interval).
func (sh *shadow) tops(qs []query) [][]scored {
	type key [dim]float64
	byVec := make(map[key][]int)
	var order []key
	for i, qu := range qs {
		k := key(qu.q)
		if _, seen := byVec[k]; !seen {
			order = append(order, k)
		}
		byVec[k] = append(byVec[k], i)
	}
	out := make([][]scored, len(qs))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for at := w; at < len(order); at += workers {
				k := order[at]
				best := sh.top(k[:], kMax+tieSlack)
				for _, i := range byVec[k] {
					out[i] = best
				}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// fillExpected stores every query's expectation over the static base.
func (sh *shadow) fillExpected(qs []query) {
	for i, best := range sh.tops(qs) {
		qs[i].exp = newExpect(best, qs[i].k)
	}
}
