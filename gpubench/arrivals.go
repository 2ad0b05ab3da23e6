package main

import (
	"math/rand/v2"
	"sort"
	"time"
)

// newRand returns the benchmark's seeded generator; stream separates
// independent draws made from one seed.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// poissonSchedule returns n send times of an open-loop Poisson arrival
// process over [0, span): n uniform draws, sorted, which is a Poisson
// process conditioned on exactly n arrivals. Fixing n keeps the offered
// work identical from seed to seed while the gaps stay exponential.
func poissonSchedule(rng *rand.Rand, n int, span time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int64N(int64(span)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// lagsMS returns, in milliseconds, how late each request was sent
// against its due time. A request sent early would be a generator bug,
// so early sends count as zero lag rather than as negative lateness.
func lagsMS(due, sent []time.Duration) []float64 {
	out := make([]float64, len(due))
	for i := range due {
		if l := sent[i] - due[i]; l > 0 {
			out[i] = ms(l)
		}
	}
	return out
}
