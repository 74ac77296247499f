//go:build race

package gir

// Under the race detector sync.Pool.Put drops a quarter of what it is
// given, so pooled scratch is re-grown where the plain build reuses it. A
// drain pass reads 130–161 objects over twelve runs on the development box
// (45 in the plain build); a cache fill reads 85–109 over twelve runs (48–49).
func init() { drainAllocBudget, fillAllocBudget = 320, 220 }
