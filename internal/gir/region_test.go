package gir

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/vec"
)

func TestConstraintKindString(t *testing.T) {
	if Reorder.String() != "reorder" || Replace.String() != "replace" {
		t.Errorf("kind strings: %q, %q", Reorder.String(), Replace.String())
	}
}

func TestConstraintDescribe(t *testing.T) {
	re := Constraint{Kind: Reorder, A: 3, B: 7}
	if !strings.Contains(re.Describe(), "3") || !strings.Contains(re.Describe(), "swap") {
		t.Errorf("reorder description: %q", re.Describe())
	}
	rp := Constraint{Kind: Replace, A: 5, B: 11}
	if !strings.Contains(rp.Describe(), "overtakes") || !strings.Contains(rp.Describe(), "11") {
		t.Errorf("replace description: %q", rp.Describe())
	}
}

func TestConstraintHalfspace(t *testing.T) {
	c := Constraint{Normal: vec.Vector{1, -2}}
	h := c.Halfspace()
	if h.B != 0 {
		t.Error("GIR half-spaces must pass through the origin")
	}
	if !h.Contains(vec.Vector{2, 0.5}, 0) || h.Contains(vec.Vector{0, 1}, 0) {
		t.Error("half-space orientation wrong")
	}
}

func TestRegionContainsEdges(t *testing.T) {
	reg := &Region{Dim: 2, Query: vec.Vector{0.5, 0.5},
		Constraints: []Constraint{{Normal: vec.Vector{1, -1}}}} // x ≥ y
	cases := []struct {
		p    vec.Vector
		want bool
	}{
		{vec.Vector{0.6, 0.4}, true},
		{vec.Vector{0.4, 0.6}, false},
		{vec.Vector{0.5, 0.5}, true},     // boundary of the cone
		{vec.Vector{1.5, 0.5}, false},    // outside the box
		{vec.Vector{-0.1, -0.2}, false},  // negative weights
		{vec.Vector{0.5}, false},         // wrong dimension
		{vec.Vector{0.5, 0.5, 0}, false}, // wrong dimension
	}
	for _, c := range cases {
		if got := reg.Contains(c.p, 1e-12); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestHalfspacesWithBox(t *testing.T) {
	reg := &Region{Dim: 3, Constraints: []Constraint{{Normal: vec.Vector{1, 0, 0}}}}
	if got := len(reg.Halfspaces()); got != 1 {
		t.Errorf("Halfspaces = %d", got)
	}
	if got := len(reg.Space().Halfspaces()); got != 6 {
		t.Errorf("the default domain has %d half-spaces, want the unit box's 6", got)
	}
}

func TestReduceTrivialSets(t *testing.T) {
	if got := reduce(nil); len(got) != 0 {
		t.Error("reduce(nil) non-empty")
	}
	one := []Constraint{{Normal: vec.Vector{1, -1}}}
	if got := reduce(one); len(got) != 1 {
		t.Error("reduce of a single constraint changed it")
	}
	if got := reduce([]Constraint{{Normal: vec.Vector{1, 0}}}); len(got) != 0 {
		t.Error("reduce kept a constraint the orthant implies")
	}
}

// Large-scale cross-validation (skipped with -short): FP against SP
// membership on a 20k-record dataset across distributions.
func TestLargeScaleCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale validation skipped with -short")
	}
	r := rand.New(rand.NewSource(1))
	fx := makeFixture(r, 20000, 4, 20, score.Linear{})
	spReg, _, err := Compute(fx.tree, fx.fresh(), Options{Method: SP})
	if err != nil {
		t.Fatal(err)
	}
	fpReg, _, err := Compute(fx.tree, fx.fresh(), Options{Method: FP})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 500; trial++ {
		p := vec.Vector{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
		if spReg.Contains(p, 1e-9) != fpReg.Contains(p, 1e-9) &&
			minAbsSlack(spReg, p) > 1e-6 {
			t.Fatalf("SP and FP disagree at %v on the 20k dataset", p)
		}
	}
	// The defining property at scale.
	for _, p := range insideSamples(r, fpReg, 5) {
		if !allPositive(p) {
			continue
		}
		got := topkAtScale(fx, p)
		for i, id := range got {
			if id != fx.idsOfResult()[i] && minAbsSlack(fpReg, p) > 1e-7 {
				t.Fatalf("result changed inside the GIR at %v", p)
			}
		}
	}
}

// topkAtScale and idsOfResult keep the large test readable.
func topkAtScale(fx *fixture, q vec.Vector) []int64 {
	res := fx.freshAt(q)
	out := make([]int64, len(res.Records))
	for i, r := range res.Records {
		out[i] = r.ID
	}
	return out
}
