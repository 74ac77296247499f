package gir

import (
	"encoding/binary"
	"math"
	"testing"

	"github.com/girlib/gir/internal/domain"
	"github.com/girlib/gir/internal/vec"
)

// FuzzGIRContains fuzzes Region.Contains over arbitrary query vectors,
// region constraints AND both query-space domains. Contains is the
// cache's admission test — a wrong "inside" serves a wrong result to a
// user — so the fuzzer pins it against an independent re-evaluation of
// the definition (domain membership — the [0,1]^d box within tol, or the
// simplex's w ≥ −tol plus |Σw − 1| ≤ max(tol, EqTol) — plus
// Normal·q ≥ −tol for every constraint) and checks tolerance
// monotonicity. Run as a smoke job with:
//
//	go test -run=^$ -fuzz=FuzzGIRContains -fuzztime=10s ./internal/gir
func FuzzGIRContains(f *testing.F) {
	// Corpus seeds mirroring the package fixtures: small dims, weights in
	// (0,1), reorder/replace normals with mixed signs, boundary values,
	// both domains.
	f.Add(seedCase(2, false, []float64{0.5, 0.6}, []float64{0.3, -0.2}))
	f.Add(seedCase(3, false, []float64{0.15, 0.7, 0.4}, []float64{0.05, -0.3, 0.12, -0.01, 0.2, -0.4}))
	f.Add(seedCase(4, false, []float64{0.2, 0.3, 0.1, 0.9}, []float64{1, 0, -1, 0}))
	f.Add(seedCase(2, false, []float64{0, 1}, []float64{0, 0}))
	f.Add(seedCase(2, false, []float64{0.25, 0.75}, nil))
	f.Add(seedCase(2, true, []float64{0.25, 0.75}, []float64{0.3, -0.2}))
	f.Add(seedCase(3, true, []float64{0.2, 0.3, 0.5}, []float64{0.05, -0.3, 0.12}))
	f.Add(seedCase(4, true, []float64{0.25, 0.25, 0.25, 0.25}, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		d := 2 + int(data[0]>>1)%5 // 2..6, matching the library's supported dims
		simplex := data[0]&1 == 1  // rotate the query-space domain
		tol := float64(data[1]) * 1e-10
		floats := decodeFloats(data[2:], 1+8*d) // 1 query + up to 8 constraints
		if len(floats) < 2*d {
			return
		}
		q := vec.Vector(floats[:d])
		var cons []Constraint
		for off := d; off+d <= len(floats); off += d {
			cons = append(cons, Constraint{
				Normal: vec.Vector(floats[off : off+d]),
				Kind:   Replace,
				A:      int64(off),
				B:      int64(off + 1),
			})
		}
		var dom domain.Domain
		if simplex {
			dom = domain.Simplex(d)
		}
		reg := &Region{Dim: d, Query: q, Constraints: cons, OrderSensitive: true, Domain: dom}

		got := reg.Contains(q, tol)
		if want := containsOracle(reg, q, tol); got != want {
			t.Fatalf("Contains(%v, %g) = %v, oracle says %v (simplex=%v constraints %v)", q, tol, got, want, simplex, cons)
		}
		// Monotone in tolerance: inside at a tight tolerance stays inside
		// at a looser one.
		if got && !reg.Contains(q, tol+1e-9) {
			t.Fatalf("Contains not monotone in tol at %v", q)
		}
		// Wrong-dimension vectors are never inside.
		if d > 2 && reg.Contains(q[:d-1], tol) {
			t.Fatalf("Contains accepted a %d-vector in a %d-region", d-1, d)
		}
		// The normalized image of an inside point stays inside a simplex
		// region (scale invariance of the cone). Asserted only for
		// well-conditioned inputs: with ~1e300 normal components the
		// recomputed dot product's roundoff dwarfs any fixed slack, so
		// the property is not float-testable there.
		if simplex && got && wellConditioned(q, cons) {
			if n := reg.Space().Normalize(q); !reg.Contains(n, tol+1e-9) {
				t.Fatalf("normalized image %v of inside point %v left the simplex region", n, q)
			}
		}
		// Exercise the derived views for panics on hostile regions.
		if len(reg.Halfspaces()) != len(cons) {
			t.Fatal("Halfspaces dropped constraints")
		}
		wantDomHS := 2 * d // box facets
		if simplex {
			wantDomHS = d + 2 // w_i ≥ 0 plus the two Σw = 1 halves
		}
		if len(reg.Space().Halfspaces()) != wantDomHS {
			t.Fatal("the domain's half-spaces miscounted")
		}
	})
}

// containsOracle re-evaluates Definition 1's membership test directly,
// mirroring the implementation's comparison form (NaNs fail no rejection
// test, exactly as in Region.Contains — the fuzzer checks agreement, and
// upstream validation keeps NaNs out of real queries).
func containsOracle(r *Region, q vec.Vector, tol float64) bool {
	if len(q) != r.Dim {
		return false
	}
	if r.Space().Kind() == domain.KindSimplex {
		sum := 0.0
		for _, x := range q {
			if x < -tol {
				return false
			}
			sum += x
		}
		eq := math.Max(tol, domain.EqTol)
		if !(sum >= 1-eq && sum <= 1+eq) {
			return false
		}
	} else {
		for _, x := range q {
			if x < -tol || x > 1+tol {
				return false
			}
		}
	}
	for _, c := range r.Constraints {
		dot := 0.0
		for j := range c.Normal {
			dot += c.Normal[j] * q[j]
		}
		if dot < -tol {
			return false
		}
	}
	return true
}

// wellConditioned bounds every query and normal component to a scale
// where a d-term dot product's roundoff stays far below the 1e-9 slack
// the normalize-invariance property allows.
func wellConditioned(q vec.Vector, cons []Constraint) bool {
	ok := func(x float64) bool { return !math.IsNaN(x) && math.Abs(x) <= 1e3 }
	for _, x := range q {
		if !ok(x) {
			return false
		}
	}
	for _, c := range cons {
		for _, x := range c.Normal {
			if !ok(x) {
				return false
			}
		}
	}
	return true
}

func seedCase(d int, simplex bool, q []float64, normals []float64) []byte {
	head := byte((d - 2) << 1)
	if simplex {
		head |= 1
	}
	out := []byte{head, 10}
	for _, x := range append(append([]float64(nil), q...), normals...) {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
	}
	return out
}

func decodeFloats(data []byte, max int) []float64 {
	var out []float64
	for len(data) >= 8 && len(out) < max {
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(data[:8])))
		data = data[8:]
	}
	return out
}
