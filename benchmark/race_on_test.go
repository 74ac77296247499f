//go:build race

package main

// raceOn trims the smoke test under the race detector, which slows the LP
// and scoring loops tenfold: one traced run per workload instead of two
// (that exact counts repeat is the plain run's job, not a data-race matter).
const raceOn = true
