package volume

import (
	"sync"
	"testing"

	"github.com/girlib/gir/internal/domain"
	"github.com/girlib/gir/internal/geom"
	"github.com/girlib/gir/internal/vec"
)

// orthantRegion is a 4D test region: one ordering of the cube's
// coordinates plus a cut at x ≤ 0.5.
func orthantRegion() []geom.Halfspace {
	return []geom.Halfspace{
		{A: vec.Vector{1, -1, 0, 0}, B: 0},    // x ≥ y
		{A: vec.Vector{0, 1, -1, 0}, B: 0},    // y ≥ z
		{A: vec.Vector{0, 0, 1, -1}, B: 0},    // z ≥ w
		{A: vec.Vector{-1, 0, 0, 0}, B: -0.5}, // x ≤ 0.5
	}
}

// TestConcurrentEstimatesDeterministic runs many concurrent ratios of one
// region and requires each to equal a sequential call bit for bit, under
// -race: a call shares no state with another.
func TestConcurrentEstimatesDeterministic(t *testing.T) {
	hs := orthantRegion()
	want, err := RatioIn(domain.UnitBox(4), hs)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	results := make([]float64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RatioIn(domain.UnitBox(4), hs)
		}(w)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if results[i] != want {
			t.Errorf("worker %d: %v, want exactly %v", i, results[i], want)
		}
	}
}
