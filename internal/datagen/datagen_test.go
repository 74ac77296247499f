package datagen

import (
	"math"
	"testing"

	"github.com/girlib/gir/internal/vec"
)

func inUnitBox(pts []vec.Vector) bool {
	for _, p := range pts {
		for _, x := range p {
			if x < 0 || x > 1 {
				return false
			}
		}
	}
	return true
}

// pairwiseCorrelation returns the mean Pearson correlation over dimension
// pairs.
func pairwiseCorrelation(pts []vec.Vector) float64 {
	d := len(pts[0])
	n := float64(len(pts))
	mean := make([]float64, d)
	for _, p := range pts {
		for j, x := range p {
			mean[j] += x
		}
	}
	for j := range mean {
		mean[j] /= n
	}
	va := make([]float64, d)
	for _, p := range pts {
		for j, x := range p {
			va[j] += (x - mean[j]) * (x - mean[j])
		}
	}
	var sum float64
	var pairs int
	for a := 0; a < d; a++ {
		for b := a + 1; b < d; b++ {
			var cov float64
			for _, p := range pts {
				cov += (p[a] - mean[a]) * (p[b] - mean[b])
			}
			sum += cov / math.Sqrt(va[a]*va[b])
			pairs++
		}
	}
	return sum / float64(pairs)
}

func TestDistributionsShape(t *testing.T) {
	n, d := 20000, 4
	ind := Independent(n, d, 1)
	cor := Correlated(n, d, 1)
	anti := AntiCorrelated(n, d, 1)
	for name, pts := range map[string][]vec.Vector{"IND": ind, "COR": cor, "ANTI": anti} {
		if len(pts) != n {
			t.Fatalf("%s: %d points", name, len(pts))
		}
		if !inUnitBox(pts) {
			t.Fatalf("%s: points escape the unit box", name)
		}
	}
	ci := pairwiseCorrelation(ind)
	cc := pairwiseCorrelation(cor)
	ca := pairwiseCorrelation(anti)
	if math.Abs(ci) > 0.05 {
		t.Errorf("IND correlation = %v, want ≈ 0", ci)
	}
	if cc < 0.5 {
		t.Errorf("COR correlation = %v, want strongly positive", cc)
	}
	if ca > -0.15 {
		t.Errorf("ANTI correlation = %v, want clearly negative", ca)
	}
}

func TestDeterminism(t *testing.T) {
	a := Independent(100, 3, 42)
	b := Independent(100, 3, 42)
	c := Independent(100, 3, 43)
	for i := range a {
		if !vec.Equal(a[i], b[i], 0) {
			t.Fatal("same seed produced different data")
		}
	}
	same := true
	for i := range a {
		if !vec.Equal(a[i], c[i], 0) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestHouseSurrogate(t *testing.T) {
	pts := House(5000, 7)
	if len(pts) != 5000 || len(pts[0]) != HouseD {
		t.Fatalf("shape = %d × %d", len(pts), len(pts[0]))
	}
	if !inUnitBox(pts) {
		t.Fatal("HOUSE points escape the unit box")
	}
	// Expenditures share an income factor: mildly positive correlation.
	if c := pairwiseCorrelation(pts); c < 0.1 {
		t.Errorf("HOUSE correlation = %v, want mildly positive", c)
	}
}

func TestHotelSurrogate(t *testing.T) {
	pts := Hotel(5000, 7)
	if len(pts) != 5000 || len(pts[0]) != HotelD {
		t.Fatalf("shape = %d × %d", len(pts), len(pts[0]))
	}
	if !inUnitBox(pts) {
		t.Fatal("HOTEL points escape the unit box")
	}
	// Stars (dim 0) and inverted price (dim 1) must be anti-correlated:
	// better hotels cost more.
	d0, d1 := column(pts, 0), column(pts, 1)
	if c := corr(d0, d1); c > -0.2 {
		t.Errorf("stars vs value correlation = %v, want negative", c)
	}
	// Stars and facilities (dim 3) positively correlated.
	d3 := column(pts, 3)
	if c := corr(d0, d3); c < 0.2 {
		t.Errorf("stars vs facilities correlation = %v, want positive", c)
	}
}

func column(pts []vec.Vector, j int) []float64 {
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p[j]
	}
	return out
}

func corr(a, b []float64) float64 {
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		cov += (a[i] - ma) * (b[i] - mb)
		va += (a[i] - ma) * (a[i] - ma)
		vb += (b[i] - mb) * (b[i] - mb)
	}
	return cov / math.Sqrt(va*vb)
}

func TestGenerateDispatch(t *testing.T) {
	for _, kind := range []Kind{IND, COR, ANTI} {
		pts, err := Generate(kind, 50, 3, 1)
		if err != nil || len(pts) != 50 {
			t.Errorf("Generate(%s) failed: %v", kind, err)
		}
	}
	if _, err := Generate(HOUSE, 50, HouseD, 1); err != nil {
		t.Errorf("Generate(HOUSE): %v", err)
	}
	if _, err := Generate(HOUSE, 50, 3, 1); err == nil {
		t.Error("Generate(HOUSE, d=3) should fail")
	}
	if _, err := Generate(HOTEL, 50, HotelD, 1); err != nil {
		t.Errorf("Generate(HOTEL): %v", err)
	}
	if _, err := Generate("nope", 50, 3, 1); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestQueryPositive(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		q := Query(5, seed)
		if len(q) != 5 {
			t.Fatal("wrong dimension")
		}
		for _, w := range q {
			if w <= 0 || w > 1 {
				t.Fatalf("weight %v out of (0,1]", w)
			}
		}
	}
}

// The paper's headline skyline behaviour (Figure 6a): for fixed n and d,
// |skyline| is largest on ANTI and smallest on COR. Verified via a simple
// in-test dominance count on a sample.
func TestSkylineOrdering(t *testing.T) {
	n, d := 4000, 4
	count := func(pts []vec.Vector) int {
		cnt := 0
		for i, a := range pts {
			dominated := false
			for j, b := range pts {
				if i == j {
					continue
				}
				dom, strict := true, false
				for x := range a {
					if b[x] < a[x] {
						dom = false
						break
					}
					if b[x] > a[x] {
						strict = true
					}
				}
				if dom && strict {
					dominated = true
					break
				}
			}
			if !dominated {
				cnt++
			}
		}
		return cnt
	}
	sCor := count(Correlated(n, d, 3))
	sInd := count(Independent(n, d, 3))
	sAnti := count(AntiCorrelated(n, d, 3))
	if !(sCor < sInd && sInd < sAnti) {
		t.Errorf("skyline sizes COR=%d IND=%d ANTI=%d, want COR < IND < ANTI", sCor, sInd, sAnti)
	}
}

// TestGenerateResolvedSmoke pins the command-line tools' pipeline end to
// end (resolve → generate) for every kind at a small cardinality.
func TestGenerateResolvedSmoke(t *testing.T) {
	for _, kind := range []Kind{IND, COR, ANTI, HOUSE, HOTEL} {
		kd, n, d := Resolve(kind, 50, 3)
		if kind == HOUSE || kind == HOTEL {
			if n != 50 {
				t.Errorf("%s: small n not preserved (%d)", kind, n)
			}
			if (kind == HOUSE && d != HouseD) || (kind == HOTEL && d != HotelD) {
				t.Errorf("%s: dimension not pinned (%d)", kind, d)
			}
		}
		pts, err := Generate(kd, n, d, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(pts) != n {
			t.Fatalf("%s: %d points, want %d", kind, len(pts), n)
		}
		for _, p := range pts {
			if len(p) != d {
				t.Fatalf("%s: point dimension %d, want %d", kind, len(p), d)
			}
			for _, x := range p {
				if x < 0 || x > 1 {
					t.Fatalf("%s: coordinate %v outside [0,1]", kind, x)
				}
			}
		}
	}
	if _, err := Generate(Kind("NOPE"), 10, 3, 1); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestResolveDefaultsAndCaps pins the paper-size defaulting the
// command-line tools rely on for n = 0 and the cap for oversized requests.
func TestResolveDefaultsAndCaps(t *testing.T) {
	if _, n, d := Resolve(HOUSE, 0, 9); n != HouseN || d != HouseD {
		t.Errorf("HOUSE default = (%d, %d)", n, d)
	}
	if _, n, _ := Resolve(HOTEL, HotelN+5, 2); n != HotelN {
		t.Errorf("HOTEL oversize not capped: %d", n)
	}
	if kd, n, d := Resolve(IND, 123, 7); kd != IND || n != 123 || d != 7 {
		t.Errorf("IND passthrough = (%s, %d, %d)", kd, n, d)
	}
}
