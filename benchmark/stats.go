package main

import "sort"

// quantile returns the p-quantile (0 <= p <= 1) of sorted by linear
// interpolation between the two nearest ranks; 0 for an empty sample.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// summary is the order statistics of one sample.
type summary struct {
	n              int
	q1, median, q3 float64
	p95, min       float64
}

func summarize(v []float64) summary {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	out := summary{n: len(s)}
	if len(s) == 0 {
		return out
	}
	out.q1, out.median, out.q3 = quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
	out.p95, out.min = quantile(s, 0.95), s[0]
	return out
}

func median(v []float64) float64 { return summarize(v).median }
