package geom

import (
	"math"

	"github.com/girlib/gir/internal/vec"
)

// ReduceConeLP is ReduceCone decided by the membership programs alone.
func ReduceConeLP(normals []vec.Vector, tol float64) []int {
	if len(normals) == 0 {
		return nil
	}
	r := reducers.Get().(*reducer)
	defer reducers.Put(r)
	return r.indices(r.eliminate(r.dedupe(normals, tol)))
}

// ReduceConeRays is c.Reduce — ReduceCone for a nil c — at any dimension,
// however costly a fresh double description is there, that also reports
// whether the rays decided, the membership programs not running.
func ReduceConeRays(c *Cone, normals []vec.Vector, tol float64) ([]int, bool) {
	r := reducers.Get().(*reducer)
	defer reducers.Put(r)
	if c == nil {
		c = &r.cone
		c.Reset(0, nil)
	}
	return r.reduce(c, normals, tol, math.MaxInt)
}
