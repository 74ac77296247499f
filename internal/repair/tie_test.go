package repair

import (
	"testing"

	gir "github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/invalidate"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// This file pins the handling of exact ties end to end with a
// hand-built, fully deterministic fixture (no RNG, no index):
//
//	internal/invalidate: an inserted record that can only ever TIE the
//	k-th result is an invalidation event iff its id is smaller, as the
//	results' (score desc, id asc) order ranks ties.
//
//	internal/repair: the repair classifier must stay on the conservative
//	side of the same line — any repaired ordering that would rest on an
//	exact tie at the entry's query refuses to repair (the entry evicts),
//	so repair can never widen the tie gap the invalidation layer left
//	open.

// tieFixture is a 2-D entry at q=(0.5,0.5) with result p1=(0.8,0.8),
// p2=(0.6,0.6) (k=2) and one retained candidate t=(0.4,0.4). Region: the
// reorder constraint p1−p2 = (0.2,0.2) plus the replace constraint
// p2−t = (0.2,0.2) — both hold on the whole query space, so the region is
// the full box and every score comparison is easy to do by hand.
func tieFixture() Entry {
	p1 := vec.Vector{0.8, 0.8}
	p2 := vec.Vector{0.6, 0.6}
	tc := vec.Vector{0.4, 0.4}
	q := vec.Vector{0.5, 0.5}
	reg := &gir.Region{
		Dim:   2,
		Query: q,
		Constraints: []gir.Constraint{
			{Normal: vec.Sub(p1, p2), Kind: gir.Reorder, A: 1, B: 2},
			{Normal: vec.Sub(p2, tc), Kind: gir.Replace, A: 2, B: 3},
		},
		OrderSensitive: true,
	}
	return Entry{
		Region: reg,
		Records: []topk.Record{
			{ID: 1, Point: p1, Score: scoreAt(p1, q)},
			{ID: 2, Point: p2, Score: scoreAt(p2, q)},
		},
		Cand:    []topk.Record{{ID: 3, Point: tc, Score: scoreAt(tc, q)}},
		InnerLo: vec.Vector{0, 0},
		InnerHi: vec.Vector{1, 1},
	}
}

func TestTieIsNotAnInvalidationEvent(t *testing.T) {
	e := tieFixture()
	// An exact duplicate of the k-th record ties it at every weight vector:
	// an invalidation event only when it wins the tie by id.
	dup := e.Records[1].Point.Clone()
	if invalidate.InsertAffectsID(e.Region, e.Records, 9, dup, e.InnerLo, e.InnerHi) {
		t.Error("exact duplicate of the k-th record with a larger id must not be an invalidation event")
	}
	if !invalidate.InsertAffectsID(e.Region, e.Records, 0, dup, e.InnerLo, e.InnerHi) {
		t.Error("exact duplicate of the k-th record with a smaller id must be an invalidation event")
	}
	// A mirrored record (0.7,0.5) ties the k-th at the query q=(0.5,0.5)
	// exactly — same coordinate sum — but beats it wherever w_0 > w_1, so
	// it IS an invalidation event (the tie is at a point, not everywhere).
	mirror := vec.Vector{0.7, 0.5}
	if !invalidate.InsertAffects(e.Region, e.Records, mirror, e.InnerLo, e.InnerHi) {
		t.Error("a record tying only at the query must still be an invalidation event")
	}
}

func TestRepairClassifierEvictsOnTies(t *testing.T) {
	e := tieFixture()

	// Insert that ties the k-th record exactly at the query: the affected
	// entry must evict, never repair — whichever of the two orders repair
	// picked, an exact tie would back it.
	mirror := vec.Vector{0.7, 0.5} // 0.5·0.7+0.5·0.5 = 0.6 = score of p2
	if _, ok := Insert(e, 9, mirror); ok {
		t.Error("insert tying the k-th record at the query must evict, not repair")
	}

	// Insert that ties the (k−1)-th record at the query while beating the
	// k-th: the swap would place the new record adjacent to an exact tie.
	top := vec.Vector{0.9, 0.7} // 0.8 = score of p1, > score of p2
	if _, ok := Insert(e, 10, top); ok {
		t.Error("insert tying the record above its slot must evict, not repair")
	}

	// Delete with two candidates tying at the query: promotion would pick
	// arbitrarily between them — evict.
	e2 := tieFixture()
	e2.Cand = append(e2.Cand, topk.Record{ID: 4, Point: vec.Vector{0.5, 0.3}}) // 0.4 = score of candidate 3
	if _, ok := Delete(e2, 2); ok {
		t.Error("delete with tied promotion candidates must evict, not repair")
	}

	// Delete where the best candidate ties the record that would sit above
	// it: same rule.
	e3 := tieFixture()
	e3.Cand = []topk.Record{{ID: 5, Point: vec.Vector{0.7, 0.9}}} // 0.8 = score of p1
	if _, ok := Delete(e3, 2); ok {
		t.Error("promotion tying the surviving result must evict, not repair")
	}

	// Control: the untouched fixture promotes cleanly (0.4 < 0.6 < 0.8 all
	// separated), so the evictions above are the ties' doing.
	if _, ok := Delete(tieFixture(), 2); !ok {
		t.Error("control fixture must repair — the tie tests would otherwise be vacuous")
	}
}
