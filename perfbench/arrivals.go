package main

import (
	"math"
	"math/rand"
)

// burstRate is the serving workload's offered-load curve: a lull rate
// with smooth periodic bursts on top, in requests per second at offset
// t seconds. Its mean is lull + (peak-lull)*5/16 (the mean of cos^6).
type burstRate struct {
	lull, peak float64 // requests/s
	period     float64 // s between burst peaks
}

func (r burstRate) at(t float64) float64 {
	c := math.Cos(math.Pi * t / r.period) // |c|=1 at every multiple of the period
	return r.lull + (r.peak-r.lull)*math.Pow(c, 6)
}

func (r burstRate) mean() float64 { return r.lull + (r.peak-r.lull)*5/16 }

// arrivals draws the request offsets (s) of an inhomogeneous Poisson
// process with rate curve r over [0, d) by thinning (Lewis and
// Shedler): candidates of a homogeneous process at the peak rate are
// kept with probability r.at(t)/peak. The schedule depends only on the
// seed, so every run with a seed sends the same requests at the same
// offsets.
func arrivals(seed int64, d float64, r burstRate) []float64 {
	rng := rand.New(rand.NewSource(seed))
	var out []float64
	for t := rng.ExpFloat64() / r.peak; t < d; t += rng.ExpFloat64() / r.peak {
		if rng.Float64()*r.peak < r.at(t) {
			out = append(out, t)
		}
	}
	return out
}
