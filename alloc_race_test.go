//go:build race

package gir

// Under the race detector sync.Pool.Put drops a quarter of what it is
// given, so pooled scratch is re-grown where the plain build reuses it. A
// drain pass reads 24–27 objects over seven runs on the development box
// (13 in the plain build); a cache fill reads 85–110 over sixteen runs (48–49),
// and since a fill copies no candidate set, 79–115 objects and 94–105 KB
// over eleven (41–42 objects, 50–52 KB); a cold BRS
// reads 10–18 over ten (7), and an uncached miss 25–28 objects and
// 32–43 KB at k = 20, 75–92 KB at k = 100 (21 objects; 3.3 and 12.5 KB),
// most of the bytes a re-grown scratch.
func init() {
	drainAllocBudget, fillAllocBudget, coldBRSAllocBudget = 54, 220, 32
	fillByteBudget = 210 << 10
	uncachedMissAllocBudget, uncachedMissFixedBytes = 60, 160<<10
	// Not an allocation budget: the differential of a fill's screened tail
	// ran 220 s under the race detector at four queries a cell.
	screenQueries = 1
}
