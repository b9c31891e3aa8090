package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helpers must sort
	}
	return xs
}

// A tail is reported only when at least ten samples lie beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{1000, 0.99, true, 990},
		{999, 0.99, false, 0},
		{100, 0.90, true, 90},
		{99, 0.90, false, 0},
		{20, 0.50, true, 10},
		{10, 0.50, false, 0},
		{0, 0.50, false, 0},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(n=%d, p=%g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

// The steadiness mode's quartiles follow Python's
// statistics.quantiles(xs, n=4), the "exclusive" method.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},     // quantiles(range(1, 11), n=4)
		{seq(4), 1.25, 2.5, 3.75},      // quantiles([1, 2, 3, 4], n=4)
		{[]float64{3, 1}, 0.5, 2, 3.5}, // quantiles([1, 3], n=4)
		{[]float64{7, 7, 7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g; want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median(seq(5)); got != 3 {
		t.Errorf("median of 1..5 = %g", got)
	}
	if got := median(seq(4)); got != 2.5 {
		t.Errorf("median of 1..4 = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g", got)
	}
}
