package gir

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/girlib/gir/internal/maintain"
)

// BenchmarkDrainBurst measures one maintenance pass over a warm cache for
// a burst of B writes. An engine drains each write as a batch of one inside
// the write, so B=1 is what a write pays for the drain; B=8 and B=64 are
// the planner's batch path. Bursts alternate between inserting B
// background records and deleting them again, so the cache state (32
// entries) is steady across iterations and B=1 vs B=8 vs
// B=64 differences are the batching economics alone (scans, lock traffic),
// not growing entry state. CI runs this in the bench smoke so drain-cost
// regressions show up in PR runs.
func BenchmarkDrainBurst(b *testing.B) {
	r := rand.New(rand.NewSource(17))
	const n, d, k = 5000, 3, 8
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	ds, err := NewDataset(points)
	if err != nil {
		b.Fatal(err)
	}
	c := newCache(64)
	for i := 0; i < 32; i++ {
		fillEntry(b, ds, []float64{0.15 + 0.7*r.Float64(), 0.15 + 0.7*r.Float64(), 0.15 + 0.7*r.Float64()}, k, c)
	}

	for _, burst := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("B=%d", burst), func(b *testing.B) {
			b.ReportAllocs()
			version := int64(1)
			nextID := int64(1 << 50)
			for i := 0; i < b.N; i++ {
				ins := make([]maintain.Mutation, burst)
				del := make([]maintain.Mutation, burst)
				for j := range ins {
					// Background points: provably unaffecting for every
					// entry, so the pass exercises the keep path (the
					// common case under churn) without evicting the
					// fixture.
					p := []float64{0.2 * r.Float64(), 0.2 * r.Float64(), 0.2 * r.Float64()}
					ins[j] = maintain.Mutation{Version: version, Insert: true, ID: nextID, Point: p}
					version++
					del[j] = maintain.Mutation{Version: 0, ID: nextID} // versions assigned below
					nextID++
				}
				for j := range del {
					del[j].Version = version
					version++
				}
				st := drain(c, ins)
				if st.Evicted != 0 {
					b.Fatalf("background insert burst evicted %d entries", st.Evicted)
				}
				drain(c, del)
			}
		})
	}
}
