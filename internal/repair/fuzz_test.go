package repair

import (
	"encoding/binary"
	"math"
	"testing"

	"github.com/girlib/gir/internal/domain"
	gir "github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/lp"
	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// FuzzRepairInsert fuzzes the insert-repair classifier over small random
// datasets — in both query-space domains — and checks every entry it
// claims to repair against the LP oracle: inside the shrunk region, every
// adjacent pair of the repaired result must keep its order and every
// record of the mutated dataset that is NOT in the repaired result must
// stay below its k-th record — the definition of a sound (region, result)
// pair, decided exactly by maximizing each pairwise margin over the
// region's constraint system clipped to its domain.
// Refusals are not checked (the classifier is allowed to be conservative;
// the property tests pin non-vacuousness). Run as a smoke job with:
//
//	go test -run=^$ -fuzz=FuzzRepairInsert -fuzztime=15s ./internal/repair
func FuzzRepairInsert(f *testing.F) {
	f.Add(fuzzSeed(2, 2, false, []float64{
		0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, // 4 points
		0.5, 0.5, // query
		0.65, 0.55, // inserted record
	}))
	f.Add(fuzzSeed(3, 3, false, []float64{
		0.9, 0.1, 0.5, 0.2, 0.8, 0.4, 0.7, 0.7, 0.1, 0.3, 0.3, 0.9, 0.6, 0.2, 0.2, 0.15, 0.45, 0.85,
		0.4, 0.3, 0.3,
		0.55, 0.5, 0.45,
	}))
	f.Add(fuzzSeed(2, 2, true, []float64{
		0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2,
		0.5, 0.5,
		0.65, 0.55,
	}))
	f.Add(fuzzSeed(3, 2, true, []float64{
		0.9, 0.1, 0.5, 0.2, 0.8, 0.4, 0.7, 0.7, 0.1, 0.3, 0.3, 0.9, 0.6, 0.2, 0.2, 0.15, 0.45, 0.85,
		0.4, 0.3, 0.3,
		0.55, 0.5, 0.45,
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		d := 2 + int(data[0])%3        // 2..4
		k := 1 + int(data[1]>>1)%4     // 1..4
		simplex := data[1]&1 == 1      // rotate the query-space domain
		floats := fuzzFloats(data[2:]) // clamped to [0,1]
		need := d * (k + 3)            // at least k+2 points + query + insert
		if len(floats) < need {
			return
		}
		insertP := vec.Vector(floats[len(floats)-d:])
		q := vec.Vector(floats[len(floats)-2*d : len(floats)-d])
		var sum float64
		for _, w := range q {
			sum += w
		}
		if sum < 0.1 {
			return // near-zero query vectors make every score a tie
		}
		var dom domain.Domain
		if simplex {
			dom = domain.Simplex(d)
			q = dom.Normalize(q)
		}
		var pts []vec.Vector
		for off := 0; off+d <= len(floats)-2*d; off += d {
			pts = append(pts, vec.Vector(floats[off:off+d]))
		}

		tree := rtree.BulkLoad(pager.NewMemStore(), d, pts, nil)
		res := topk.BRS(tree, score.Linear{}, q, k)
		cand := append([]topk.Record(nil), res.T...)
		var bounds []vec.Vector
		for _, it := range *res.Heap {
			bounds = append(bounds, it.Rect.Hi.Clone())
		}
		reg, _, err := gir.Compute(tree, res, gir.Options{Method: gir.FP, Domain: dom})
		if err != nil {
			return // degenerate fuzz geometry; region computation declined
		}
		entry := Entry{Region: reg, Records: res.Records, Cand: cand, Bounds: bounds}

		const id = int64(1 << 30)
		rp, ok := Insert(entry, id, insertP)
		if !ok {
			return // conservative refusal is always allowed
		}

		// Classification sanity: a repair implies the entry was repairable,
		// i.e. the inserted record can never overtake the (k−1)-th result
		// record inside the ORIGINAL region (LP oracle, same margin
		// definition as the classifier) — unless the repair was the keep
		// case, where the record entered nowhere at the query.
		if k >= 2 && containsID(rp.Records, id) {
			pkm1 := entry.Records[k-2]
			if m := maxOverRegion(reg, vec.Sub(insertP, pkm1.Point)); m > 10*Tol && !math.IsInf(m, 1) {
				t.Fatalf("swap repair although the insert overtakes the (k−1)-th somewhere (LP margin %g)", m)
			}
		}

		// Region-soundness oracle: order within the repaired result, and
		// supremacy of its k-th record over every other record of the
		// mutated dataset, proven by LP over the shrunk region. Fresh FP
		// regions carry their own hull-arithmetic numerics (a non-critical
		// record may overtake by ~1e-8 in an extreme corner), so each
		// violation margin is held against the SAME objective over the
		// original region: repair must never widen a gap, and the margins
		// its own added constraints govern must stay at tie tolerance.
		if !rp.Region.Contains(q, 1e-9) {
			t.Fatal("repaired region lost its own query point")
		}
		oracle := func(what string, aID, bID int64, obj vec.Vector) {
			m := maxOverRegion(rp.Region, obj)
			if m <= oracleNoise {
				return
			}
			if math.IsInf(m, 1) {
				// The hardened solver refused the certificate (pivot
				// breakdown on an ill-conditioned cone): the oracle has
				// no verdict, so there is nothing to adjudicate here.
				return
			}
			// Inherited-numerics exemption: the repaired region is a
			// subset of the original, so for the same objective m can
			// only exceed orig by solver noise.
			if orig := maxOverRegion(reg, obj); m <= orig+oracleNoise {
				return
			}
			t.Fatalf("%s (a=%d b=%d): repaired-region LP margin %g exceeds both the LP noise floor and the original region's margin", what, aID, bID, m)
		}
		for i := 0; i+1 < len(rp.Records); i++ {
			a, b := rp.Records[i], rp.Records[i+1]
			oracle("result order can flip", a.ID, b.ID, vec.Sub(b.Point, a.Point))
		}
		pk := rp.Records[len(rp.Records)-1]
		check := func(tid int64, p vec.Vector) {
			if containsID(rp.Records, tid) {
				return
			}
			oracle("non-result record can overtake the k-th", pk.ID, tid, vec.Sub(p, pk.Point))
		}
		for i, p := range pts {
			check(int64(i), p)
		}
		check(id, insertP)

		// And at the repaired entry's own query the absorbed insert must be
		// settled: the record either IS the new k-th (swap) or scores below
		// it beyond tie tolerance (keep). Exact arithmetic — no LP — so no
		// solver-noise exemption. (The full InsertAffects verdict on the
		// repaired entry may still come back "affected" from the rays'
		// tolerances on near-degenerate cones; that direction is conservative — it
		// costs an eviction, never a stale serve — so it is not asserted.)
		npk := rp.Records[len(rp.Records)-1]
		if npk.ID != id && vec.Dot(q, vec.Sub(insertP, npk.Point)) > Tol {
			t.Fatal("absorbed insert still outscores the repaired k-th at the entry query")
		}
	})
}

// oracleNoise is the LP's own resolution on near-degenerate
// cones, NOT a repair tolerance: duplicated or nearly-parallel
// constraints (a repair re-adds a pairwise normal the region
// already carries a close copy of) make the final pivots
// degenerate, and the claimed maximum can sit ~1e-8..5e-8 above
// the true one while every constraint verifies (corpus entry
// ae1b0bf88bdf6ae6: objective exactly the negation of a present
// constraint — true max 0 — reported as 1.79e-8). Genuine repair
// bugs surface at data scale (entry 229d1b270705bacf overstated
// by 0.69 before lp.Solve learned to refuse broken certificates).
const oracleNoise = 1e-7

// maxOverRegion maximizes obj·w over the region's constraint cone clipped
// to its query-space domain — the LP oracle shared with the invalidation
// layer. A non-optimal status is reported as +Inf: the solver refused to
// certify a maximum (lp.Solve self-verifies its certificate since the
// 229d1b270705bacf corpus entry), and the callers above decide whether
// that refusal is conservative in context.
func maxOverRegion(reg *gir.Region, obj vec.Vector) float64 {
	cons := make([]lp.Constraint, 0, len(reg.Constraints))
	for _, c := range reg.Constraints {
		cons = append(cons, lp.Constraint{Coef: c.Normal, Op: lp.GE, RHS: 0})
	}
	sol := reg.Space().MaximizeLinear(new(lp.Solver), obj, cons)
	if sol.Status != lp.Optimal {
		return math.Inf(1)
	}
	return sol.Objective
}

// fuzzFloats decodes the fuzz payload into floats in [0,1] (abs fractional
// part; NaN/Inf map to 0).
func fuzzFloats(data []byte) []float64 {
	var out []float64
	for len(data) >= 8 {
		x := math.Float64frombits(binary.LittleEndian.Uint64(data[:8]))
		data = data[8:]
		x = math.Abs(x)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		x -= math.Floor(x)
		out = append(out, x)
	}
	return out
}

func fuzzSeed(d, k int, simplex bool, floats []float64) []byte {
	kb := byte((k - 1) << 1)
	if simplex {
		kb |= 1
	}
	out := []byte{byte(d - 2), kb}
	for _, x := range floats {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
	}
	return out
}
