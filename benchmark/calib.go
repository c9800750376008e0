package main

import (
	"slices"
	"time"
)

// This machine's speed is not constant: for seconds to minutes at a time
// everything runs up to half slower, with nothing in /proc/stat to show
// for it. Taking every operation at its best over a run's passes rides out
// the short stretches; a run that falls wholly into a long one would still
// read as a regression. So the speed is measured too. calibrate times a
// fixed kernel — copy, sort and binary searches over half a megabyte,
// twelve times — before every pass, and a run's times are scaled by
// how much slower than calibNominalS the kernel ran at its best during the
// run. On a machine that runs the kernel in calibNominalS the times are
// plain wall-clock seconds; elsewhere they are the seconds such a machine
// would have taken. bench.calib_s reports the kernel's time, to undo it.

// calibNominalS is the kernel's time on the box the seed numbers were
// measured on, when quiet.
const calibNominalS = 0.150

// The kernel's data is made once and is small: a large live heap of the
// benchmark's own would make the garbage collector run less often for the
// code under test. The kernel itself allocates nothing.
var (
	calibKeys = make([]uint64, 1<<16)
	calibBuf  = make([]uint64, len(calibKeys))
	calibSink uint64
)

func init() {
	x := uint64(88172645463325252)
	for i := range calibKeys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		calibKeys[i] = x
	}
}

// calibRounds makes the kernel as long as the operations it stands for, so
// that whatever preempts them preempts it too.
const calibRounds = 12

func calibKernel() uint64 {
	var sum uint64
	for r := 0; r < calibRounds; r++ {
		copy(calibBuf, calibKeys)
		slices.Sort(calibBuf)
		for _, k := range calibKeys {
			i, _ := slices.BinarySearch(calibBuf, k)
			sum += uint64(i)
		}
	}
	return sum
}

// calibrate runs the kernel once and keeps the lowest time the run has
// seen.
func (e *runEnv) calibrate() {
	start := time.Now()
	calibSink += calibKernel()
	if d := time.Since(start).Seconds(); e.calibS == 0 || d < e.calibS {
		e.calibS = d
	}
}

// scaleTimes converts the named time metrics to the nominal machine's.
func (e *runEnv) scaleTimes(m *measure, names ...string) {
	for _, name := range names {
		m.vals[name] *= calibNominalS / e.calibS
	}
}
