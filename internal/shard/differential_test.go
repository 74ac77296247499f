package shard

import (
	"testing"

	gir "github.com/girlib/gir"
	engineint "github.com/girlib/gir/internal/engine"
)

// TestShardedChurnDifferential is the tier's ground-truth harness: a
// 10k-step Zipf-query/write-mix churn stream is driven through
// coordinators over 1, 2 and 4 partitions in both query spaces, with
// every read's merged top-k compared byte-for-byte (ids, attributes,
// exact score bits) against a brute-force oracle over a mirror of the
// logical dataset at the same version vector. Writes are applied
// synchronously — the coordinator acknowledges the owning partition's
// mutation before the next operation issues — so the oracle's state IS
// the cut every following query must be served at-or-past; any stale
// cache serve (a missed invalidation, a drain behind its write, a
// version-vector regression) surfaces as a byte diff. Run under -race, the scatter
// fan-out also exercises the cross-partition concurrency.
func TestShardedChurnDifferential(t *testing.T) {
	steps := 10000
	if testing.Short() {
		steps = 1500
	}
	const n, d, distinct = 1200, 3, 24
	for _, space := range []gir.Space{gir.SpaceBox, gir.SpaceSimplex} {
		for _, parts := range []int{1, 2, 4} {
			name := "box"
			if space == gir.SpaceSimplex {
				name = "simplex"
			}
			t.Run(name+"/"+string(rune('0'+parts)), func(t *testing.T) {
				t.Parallel()
				runShardDifferential(t, space, parts, n, d, distinct, steps)
			})
		}
	}
}

func runShardDifferential(t *testing.T, space gir.Space, parts, n, d, distinct, steps int) {
	points := genPoints(77, n, d)
	mirror := mirrorOf(points)
	c, err := New(points, Options{Parts: parts, Space: space, Engine: gir.EngineOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ops, queries, writes := engineint.NewChurnWorkloadIn(
		177, d, distinct, 1.3, 0.001, steps, 0.05, 2, 8, space == gir.SpaceSimplex)
	if queries == 0 || writes == 0 {
		t.Fatalf("degenerate workload: %d queries, %d writes", queries, writes)
	}
	for step, op := range ops {
		switch {
		case op.Write && op.Insert:
			if err := c.Insert(op.ID, op.Point); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			mirror[op.ID] = op.Point
		case op.Write:
			if ok, err := c.Delete(op.ID, op.Point); err != nil || !ok {
				t.Fatalf("step %d: delete of live record %d: %v, %v", step, op.ID, ok, err)
			}
			delete(mirror, op.ID)
		default:
			res := c.TopK(op.Query, op.K)
			if res.Err != nil {
				t.Fatalf("step %d: %v", step, res.Err)
			}
			now := c.Versions()
			if len(res.At) != parts || len(now) != parts {
				t.Fatalf("step %d: version vectors have %d and %d coordinates", step, len(res.At), len(now))
			}
			for i := range now {
				if now[i] < res.At[i] {
					t.Fatalf("step %d: served cut %v is ahead of the tier %v", step, res.At, now)
				}
			}
			if !sameRecords(res.Records, bruteTopK(mirror, op.Query, op.K)) {
				t.Fatalf("step %d: merged top-%d diverges from the oracle at cut %v", step, op.K, res.At)
			}
		}
	}
	// The tier must have genuinely served from cache under this stream —
	// a silently cache-less differential would prove nothing about
	// maintenance correctness.
	if st := c.Stats(); st.Aggregate.CacheHits == 0 {
		t.Fatal("differential stream never hit the cache")
	}
}
