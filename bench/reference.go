package main

// The host this benchmark runs on changes speed by tens of percent from
// one minute to the next as its neighbours' load changes, and every
// loop slows alike. The benchmark therefore times a fixed reference loop
// just before and just after every measured phase, and rescales the
// phase's host time to a host on which that loop takes refSeconds of CPU
// time. The scaling removes the drift between phases and runs; the
// medians over trials remove the rest. The loop is part of the
// benchmark, so no change to the simulator moves it.

// refSeconds is the reference loop's CPU time on the reference host, a
// 2-core Intel Xeon virtual machine at 2.1 GHz, when it is quiet.
const refSeconds = 0.04

// refIterations sizes the loop to take about refSeconds there.
const refIterations = 5_000_000

// refTable is the loop's working set, 2 MB: larger than the simulator's
// hot state, so the loop feels the same cache and memory contention.
var refTable [1 << 18]uint64

// refSink keeps the loop's result live.
var refSink uint64

// reference runs the reference loop: a pseudo-random read-modify-write
// walk over refTable with a data-dependent branch.
func reference() {
	x := uint64(88172645463325252)
	for i := 0; i < refIterations; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		idx := (x >> 33) & (uint64(len(refTable)) - 1)
		if v := refTable[idx]; v&1 == 0 {
			refTable[idx] = v + x
		} else {
			refTable[idx] = v ^ x>>7
		}
	}
	refSink = x
}
