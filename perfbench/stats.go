package main

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"spmap/internal/gen"
	"spmap/internal/mapping"
	"spmap/internal/model"
	"spmap/internal/platform"
)

// tailGrid is the set of percentiles a workload's tail is chosen from:
// the highest one that keeps ten or more samples beyond it at the
// workload's run length.
var tailGrid = []float64{50, 75, 80, 90, 95, 98, 99}

// rank is the nearest-rank index of percentile p among n sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	return r
}

// beyondPercentile counts the samples ranked strictly above percentile
// p among n samples.
func beyondPercentile(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, p)
}

// opsForTail is the smallest sample count with ten samples beyond
// percentile p, the floor a closed-loop run extends itself to.
func opsForTail(p float64) int {
	n := 1
	for beyondPercentile(n, p) < 10 {
		n++
	}
	return n
}

// percentile is the nearest-rank percentile p of xs (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sortedCopy(xs)[rank(len(xs), p)]
}

// median is the middle value (mean of the middle two for even counts).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// probeFixture is the host-drift probe's fixed input, independent of
// the workload seed so that every run times the same loop.
var probeFixture = sync.OnceValues(func() (*model.Evaluator, mapping.Mapping) {
	g := gen.SeriesParallel(rand.New(rand.NewSource(12345)), 80, gen.DefaultAttr())
	p := platform.Reference()
	ev := model.NewEvaluator(g, p).WithSchedules(100, 1)
	ev.Engine()
	m := mapping.Baseline(g, p)
	for v := range m {
		m[v] = v % p.NumDevices()
	}
	return ev, m.Repair(g, p)
})

// probeIters is the length of the host-drift probe loop.
const probeIters = 250

// hostProbe times a fixed single-threaded kernel loop (full
// 101-schedule makespans of one fixed mapping) and returns its mean time
// per makespan in ms. It is reported next to a run so that a run taken
// in a slow phase of the host shows; no metric is normalised by it.
func hostProbe() float64 {
	ev, m := probeFixture()
	eng := ev.Engine().WithWorkers(1)
	t0 := time.Now()
	for i := 0; i < probeIters; i++ {
		eng.Makespan(m)
	}
	return float64(time.Since(t0).Microseconds()) / 1000 / probeIters
}
