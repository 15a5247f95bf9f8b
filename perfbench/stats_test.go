package main

import (
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{1, 2, 3}, 2},
		{[]float64{1, 2, 3, 10}, 2.5},
		{[]float64{1, 1, 1, 1, 100}, 1},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median(nil) = %v, want NaN", got)
	}
}

// TestQuartiles pins the quartiles to Python's
// statistics.quantiles(values, n=4), the rule the spreads are judged by.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		// statistics.quantiles(range(1, 10), n=4) == [2.5, 5.0, 7.5]
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 2.5, 5, 7.5},
		// statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},
	} {
		q1, q2, q3 := quantile(tc.in, 0.25), median(tc.in), quantile(tc.in, 0.75)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles of %v = %v %v %v, want %v %v %v", tc.in, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestQuantileClampsInsteadOfExtrapolating(t *testing.T) {
	in := []float64{1, 2, 3}
	if got := quantile(in, 0.99); got != 3 {
		t.Errorf("p99 of %v = %v, want the maximum 3", in, got)
	}
	if got := quantile(in, 0.01); got != 1 {
		t.Errorf("p1 of %v = %v, want the minimum 1", in, got)
	}
}

// TestTailPercentile checks the rule that a tail is reported at the
// highest percentile with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},
		{20, 50},
		{99, 50},
		{100, 90},
		{999, 90},
		{1000, 99},
		{10000, 99.9},
		{99999, 99.9},
		{100000, 99.99},
		{5000000, 99.99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestSamplesCountAndUnits(t *testing.T) {
	var a, b samples
	for i := 1; i <= 10; i++ {
		a.add(time.Duration(i) * time.Millisecond)
	}
	b.add(11 * time.Millisecond)
	a.merge(&b)
	if len(a.d) != 11 {
		t.Fatalf("merged sample count = %d, want 11", len(a.d))
	}
	if got := a.pct(50, time.Millisecond); got != 6 {
		t.Errorf("p50 = %v ms, want 6", got)
	}
	if got := a.pct(50, time.Microsecond); got != 6000 {
		t.Errorf("p50 = %v us, want 6000", got)
	}
	if got := a.mean(time.Millisecond); got != 6 {
		t.Errorf("mean = %v ms, want 6", got)
	}
	if got := a.sum(time.Second); math.Abs(got-0.066) > 1e-12 {
		t.Errorf("sum = %v s, want 0.066", got)
	}
	var empty samples
	if !math.IsNaN(empty.pct(50, time.Millisecond)) {
		t.Error("p50 of no samples must be NaN so that it cannot be reported")
	}
}

func TestCovered(t *testing.T) {
	ms := time.Millisecond
	iv := [][2]time.Duration{{0, 4 * ms}, {2 * ms, 6 * ms}, {8 * ms, 20 * ms}}
	if got := covered(iv, 1*ms, 10*ms); got != 7*ms {
		t.Errorf("covered = %v, want 7ms", got)
	}
	spans := []span{
		{ID: 0, Parent: -1, Name: "discover", Start: 0, End: 10 * ms},
		{ID: 1, Parent: 0, Name: "ind.export", Start: 0, End: 6 * ms},
		{ID: 2, Parent: 1, Name: "store.write", Start: 1 * ms, End: 3 * ms},
		{ID: 3, Parent: 1, Name: "store.write", Start: 2 * ms, End: 4 * ms},
		{ID: 4, Parent: 0, Name: "ind.merge", Start: 7 * ms, End: 9 * ms},
	}
	self := selfTimes(spans)
	if self["ind"] != 3*ms+2*ms || self["store"] != 4*ms {
		t.Errorf("self times = %v, want ind 5ms and store 4ms", self)
	}
	if got := childCoverage(spans, 0); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("coverage = %v, want 0.8", got)
	}
}
