package cache

import "testing"

// TestMaintainBatch pins the two verdicts of a maintenance pass: keep
// (entry untouched, still served) and evict (entry gone), the predicate
// run once per entry, and the outcome counting only the evictions it
// applied: an entry the pass condemned that a put evicted first is not
// counted.
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
	keepE, evictE, goneE := olds[0], olds[1], olds[2]

	asked := map[*Entry]int{}
	out := c.MaintainBatch(func(e *Entry) bool {
		asked[e]++
		if e == goneE {
			c.Clear() // a concurrent writer empties the view before the apply
			c.Put(keepE.Region, keepE.Records)
			c.Put(evictE.Region, evictE.Records)
		}
		return e == evictE || e == goneE
	})
	for _, e := range olds {
		if asked[e] != 1 {
			t.Fatalf("the predicate ran %d times on one entry, want 1", asked[e])
		}
	}
	if out.Entries != 3 {
		t.Fatalf("scanned %d entries, want 3", out.Entries)
	}
	if out.Evicted != 0 {
		t.Fatalf("Evicted = %d: the condemned entries had already left the view", out.Evicted)
	}

	c = New(8)
	for _, e := range olds {
		c.Put(e.Region, e.Records)
	}
	out = c.MaintainBatch(func(e *Entry) bool { return e.Region == evictE.Region })
	if out.Evicted != 1 || out.Entries != 3 {
		t.Fatalf("MaintainBatch = %+v, want 1 evicted of 3", out)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, ok := c.Lookup(keepE.Region.Query, keepE.K); !ok {
		t.Error("kept entry vanished")
	}
	if _, ok := c.Lookup(goneE.Region.Query, goneE.K); !ok {
		t.Error("kept entry vanished")
	}
	if _, ok := c.Lookup(evictE.Region.Query, evictE.K); ok {
		t.Error("evicted entry still serves")
	}
	if out := c.MaintainBatch(func(*Entry) bool { return false }); out.Evicted != 0 || c.Len() != 2 {
		t.Fatalf("a pass that condemns nothing changed the cache: %+v, Len %d", out, c.Len())
	}
}
