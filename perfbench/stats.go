package main

import "sort"

// percentile returns the p-th percentile (0 to 100) of xs, interpolating
// linearly between the two closest ranks; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// mean returns the arithmetic mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	if len(xs) == 0 {
		return 0
	}
	return sum / float64(len(xs))
}

// weightedMean returns sum(v*w)/sum(w); 0 when the weights sum to 0.
func weightedMean(vals, weights []float64) float64 {
	var sum, wsum float64
	for i, v := range vals {
		sum += v * weights[i]
		wsum += weights[i]
	}
	if wsum <= 0 {
		return 0
	}
	return sum / wsum
}
