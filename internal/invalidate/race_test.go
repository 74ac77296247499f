//go:build race

package invalidate

// Under the race detector TestInsertAffectsRaysMatchLP's programs, most of
// them over the raw regions past 64 rows, run about twenty times slower:
// one region per kind, dimension and space keeps it near twenty seconds.
func init() { lpRegions = 1 }
