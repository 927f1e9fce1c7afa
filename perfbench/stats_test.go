package main

import (
	"math"
	"testing"
)

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0.5},  // no samples: median
		{5, 0.5},  // below 20 samples no percentile above the median qualifies
		{15, 0.5}, //
		{20, 0.5}, // exactly ten beyond the median
		{34, 1 - 10.0/34},
		{50, 0.8},  // ten of fifty beyond p80
		{100, 0.9}, // the cap
		{1000, 0.9},
	} {
		if got := tailQuantile(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
		// The rule itself: at least ten samples lie beyond the percentile.
		if c.n >= 20 {
			if beyond := float64(c.n) * (1 - tailQuantile(c.n)); beyond < 10-1e-9 {
				t.Errorf("tailQuantile(%d) leaves %.2f samples beyond it", c.n, beyond)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Fatal("quantile sorted its input in place")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(1,4,16) = %v, want 4", got)
	}
	if got := geomean([]float64{7}); math.Abs(got-7) > 1e-12 {
		t.Errorf("geomean(7) = %v", got)
	}
	for _, xs := range [][]float64{nil, {1, 0}, {2, -1}} {
		if got := geomean(xs); !math.IsNaN(got) {
			t.Errorf("geomean(%v) = %v, want NaN", xs, got)
		}
	}
}

func TestQoRSame(t *testing.T) {
	a := qor{HPWL: 100, WNS: -1.5, TNS: -37.18457142857146}
	b := a
	b.TNS = -37.18457142857145 // the same slacks summed in another order
	if !a.same(b) || !a.tnsOrderDrift(b) {
		t.Fatalf("TNS reassociation rounding not accepted as the same result")
	}
	if a.tnsOrderDrift(a) {
		t.Fatal("identical results reported as drift")
	}
	for _, c := range []qor{
		{HPWL: 100.00000000000001, WNS: a.WNS, TNS: a.TNS},
		{HPWL: a.HPWL, WNS: -1.5000000000000002, TNS: a.TNS},
		{HPWL: a.HPWL, WNS: a.WNS, TNS: -37.1846},
	} {
		if a.same(c) {
			t.Errorf("%v accepted as the same as %v", c, a)
		}
	}
}

func TestDrawScript(t *testing.T) {
	const n = 24
	s := drawScript(n, 7)
	seen := make(map[int]bool)
	repeats := 0
	for i, r := range s {
		if seen[r] {
			repeats++
			// A repeat resubmits one of the four previous submissions.
			recent := false
			for k := max(0, i-4); k < i; k++ {
				recent = recent || s[k] == r
			}
			if !recent {
				t.Errorf("submission %d repeats request %d, which is not among the last four", i, r)
			}
		}
		seen[r] = true
	}
	if len(seen) != n {
		t.Fatalf("script covers %d of %d requests", len(seen), n)
	}
	if share := float64(repeats) / float64(len(s)); math.Abs(share-resubmitShare) > 0.02 {
		t.Fatalf("repeat share %.3f, want %.2f", share, resubmitShare)
	}
	if again := drawScript(n, 7); len(again) != len(s) {
		t.Fatal("script is not a function of the seed")
	} else {
		for i := range s {
			if s[i] != again[i] {
				t.Fatal("script is not a function of the seed")
			}
		}
	}
}
