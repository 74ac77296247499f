//go:build !race

package main

const raceOn = false
