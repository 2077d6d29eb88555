package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// tailPercentiles are the candidates tailPercentile chooses from,
// highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of xs that still has at
// least ten samples beyond it, and the sample at that percentile (the
// choosing-metrics rule: a tail read off fewer samples does not
// repeat). With too few samples for any candidate it returns the
// median as p50. xs is not modified.
func tailPercentile(xs []float64) (pct, value float64) {
	if len(xs) == 0 {
		return 50, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range tailPercentiles {
		// The nearest-rank index; the epsilon keeps 99.9/100×10000 from
		// rounding up to 9991.
		idx := int(math.Ceil(p/100*float64(len(s))-1e-9)) - 1
		if idx < 0 {
			idx = 0
		}
		if len(s)-1-idx >= 10 {
			return p, s[idx]
		}
	}
	return 50, median(s)
}

// refFactor is what a raw duration measured between two reference
// probes is multiplied by to get what it would have been had the probes
// taken their nominal time: nominal ÷ mean(before, after). The host's
// speed drifts in modes lasting seconds to minutes; the probe runs fixed
// work, so its duration tracks the mode the repetition ran in. The three
// arguments share one time unit.
func refFactor(before, after, nominal float64) float64 {
	mean := (before + after) / 2
	if mean <= 0 {
		return 1
	}
	return nominal / mean
}

// ratio returns num/den, 0 when den is 0: a layer that did no work on
// a workload reports 0 instead of NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
