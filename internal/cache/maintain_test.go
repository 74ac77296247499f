package cache

import (
	"testing"

	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
	"github.com/girlib/gir/internal/viz"
)

// TestMaintainBatch pins the three verdicts of a maintenance pass: keep
// (entry untouched), evict (entry gone), replace (repaired entry swapped
// in with the old entry's recency and the new records served from then
// on) — and that the outcome credits the callback's per-chain event
// counts only for applied verdicts.
func TestMaintainBatch(t *testing.T) {
	c := New(8)
	var olds []*Entry
	for i := 0; i < 3; i++ {
		_, _, reg, recs := setup(t, int64(i+1), 200, 3, 3+i)
		if !c.Put(reg, recs) {
			t.Fatal("Put failed")
		}
		e, ok := c.Lookup(reg.Query, 3+i)
		if !ok {
			t.Fatal("fresh entry missed")
		}
		olds = append(olds, e)
	}
	keepE, evictE, swapE := olds[0], olds[1], olds[2]

	// The replacement keeps the region but swaps a record, as a repair
	// would.
	lo, hi := viz.MAH(swapE.Region, swapE.Region.Query)
	newRecs := append([]topk.Record(nil), swapE.Records...)
	newRecs[len(newRecs)-1] = topk.Record{ID: 4242, Point: newRecs[len(newRecs)-1].Point, Score: newRecs[len(newRecs)-1].Score}
	repl := RepairedEntry(swapE, swapE.Region, newRecs, nil, lo, hi)

	out := c.MaintainBatch(func(e *Entry) BatchDecision {
		switch e {
		case evictE:
			// A chain that repaired twice before the terminal eviction.
			return BatchDecision{Evict: true, Affected: 3, Repaired: 2}
		case swapE:
			return BatchDecision{Replace: repl, Affected: 1, Repaired: 1}
		default:
			return BatchDecision{}
		}
	})
	if out.Repaired != 3 || out.Evicted != 1 || out.Affected != 4 {
		t.Fatalf("MaintainBatch = %+v, want Repaired 3, Evicted 1, Affected 4", out)
	}
	if out.Entries != 3 {
		t.Fatalf("scanned %d entries, want 3", out.Entries)
	}
	if out.Affected != out.Repaired+out.Evicted {
		t.Fatalf("outcome breaks Affected == Repaired + Evicted: %+v", out)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, ok := c.Lookup(keepE.Region.Query, keepE.K); !ok {
		t.Error("kept entry vanished")
	}
	if _, ok := c.Lookup(evictE.Region.Query, evictE.K); ok {
		t.Error("evicted entry still serves")
	}
	got, ok := c.Lookup(swapE.Region.Query, swapE.K)
	if !ok {
		t.Fatal("replaced entry vanished")
	}
	if got != repl {
		t.Error("lookup did not serve the replacement entry")
	}
	if got.Records[len(got.Records)-1].ID != 4242 {
		t.Error("replacement records not served")
	}
	if got.lastUse.Load() == 0 {
		t.Error("replacement lost the recency stamp")
	}
}

// TestAbsorb pins the candidate-set bookkeeping unaffecting mutations
// drive: inserts append (until the cap drops completeness), deletes
// remove.
func TestAbsorb(t *testing.T) {
	e := &Entry{candComplete: true}
	e.AbsorbInsert(topk.Record{ID: 7})
	e.AbsorbInsert(topk.Record{ID: 8})
	if len(e.Cand) != 2 {
		t.Fatalf("after inserts: %d candidates", len(e.Cand))
	}
	e.AbsorbDelete(7)
	if len(e.Cand) != 1 || e.Cand[0].ID != 8 {
		t.Fatalf("after delete: %+v", e.Cand)
	}
	e.AbsorbDelete(99) // absent id
	if len(e.Cand) != 1 {
		t.Fatalf("after no-op delete: %d candidates", len(e.Cand))
	}

	full := &Entry{candComplete: true, Cand: make([]topk.Record, MaxRetained)}
	full.Bounds = []vec.Vector{{1, 1}}
	full.AbsorbInsert(topk.Record{ID: 1})
	if full.CandComplete() {
		t.Error("candidate set over the cap must drop completeness")
	}
	if full.Cand != nil || full.Bounds != nil {
		t.Error("dropped candidate state must be released")
	}
}
