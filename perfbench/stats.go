package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs (0 ≤ q ≤ 1) by linear
// interpolation between closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the tail percentile the benchmark reports when one pass
// yields n latency samples: the highest percentile, at most the 90th, that
// leaves at least ten samples beyond it. It is fixed by the per-pass count,
// not the pooled one, so the percentile does not change with the number of
// passes the budget allows. With fewer than 20 samples no percentile above
// the median qualifies, and the median is reported instead.
func tailQuantile(n int) float64 {
	if n <= 0 {
		return 0.5
	}
	q := 1 - 10/float64(n)
	return math.Max(0.5, math.Min(0.9, q))
}

// geomean is the geometric mean of positive values; non-positive inputs
// make it NaN, so a broken metric cannot hide inside an aggregate.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
