package main

import (
	"os"
	"strconv"
	"strings"
)

// hostCPU is the VM-wide CPU accounting of /proc/stat's first line, in
// clock ticks: busy is time some thread of this VM ran, steal is time one
// was runnable but the hypervisor ran another tenant instead.
type hostCPU struct{ busy, steal float64 }

// readHostCPU returns the zero value where /proc/stat does not exist or
// does not report steal, which makes every stolen share 0.
func readHostCPU() hostCPU {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	tick := func(i int) float64 {
		v, _ := strconv.ParseFloat(f[i], 64)
		return v
	}
	return hostCPU{busy: tick(1) + tick(2) + tick(3) + tick(6) + tick(7), steal: tick(8)}
}

// stolen is the share of the CPU time this VM asked for between two
// readings that the hypervisor gave to another tenant: steal/(busy+steal), 0
// when nothing was stolen or nothing is known.
//
// A round's rate and a set-up's time are taken over the interval less this
// share of it (finding (h) in the README): a wall-clock rate follows the
// share down - runs of fill_cold that lost 0%, 25% and 27% read 35.7, 25.2
// and 22.9 ops/s - and ten seeds of it spread by 0.32 of their median on the
// wall clock against 0.10 so. The share is relative to the time the VM was
// runnable, so the part of an interval the client spent waiting
// (churn_durable's checkpoints and fsyncs, 2.5% of a round) is scaled with
// the rest; and anything else busy in the VM dilutes the share, which can
// only leave a reading nearer the wall clock's. Latency percentiles are
// printed as the wall clock gives them.
func stolen(a, b hostCPU) float64 {
	busy, steal := b.busy-a.busy, b.steal-a.steal
	if busy <= 0 || steal <= 0 {
		return 0
	}
	return steal / (busy + steal)
}
