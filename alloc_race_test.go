//go:build race

package gir

// Under the race detector sync.Pool.Put drops a quarter of what it is
// given, so a drain pass re-grows the scratch it lost: 130–161 objects over
// twelve runs on the development box, where the plain build reads 45.
func init() { drainAllocBudget = 320 }
