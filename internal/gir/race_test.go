//go:build race

package gir

// Under the race detector TestConeFPMatchesSP's SP builds, one membership
// program per row at d = 5–6, run about ten times slower: the test took
// over three of the package's five minutes at two query pairs a dataset.
func init() { coneQueryPairs = 1 }
