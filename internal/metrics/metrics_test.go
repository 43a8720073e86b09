package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should return zeros")
	}
	if h.CDF() != nil {
		t.Fatal("empty CDF should be nil")
	}
}

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{1, 2, 3, 4, 5} {
		h.Add(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Mean() != 3 {
		t.Errorf("Mean = %v", h.Mean())
	}
	if h.Median() != 3 {
		t.Errorf("Median = %v", h.Median())
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Errorf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	if h.Sum() != 15 {
		t.Errorf("Sum = %v", h.Sum())
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	h := NewHistogram()
	h.Add(0)
	h.Add(10)
	if got := h.Quantile(0.5); got != 5 {
		t.Errorf("Quantile(0.5) = %v, want 5 (interpolated)", got)
	}
	if got := h.Quantile(0); got != 0 {
		t.Errorf("Quantile(0) = %v", got)
	}
	if got := h.Quantile(1); got != 10 {
		t.Errorf("Quantile(1) = %v", got)
	}
	if got := h.Quantile(-0.5); got != 0 {
		t.Errorf("Quantile(-0.5) = %v", got)
	}
	if got := h.Quantile(2); got != 10 {
		t.Errorf("Quantile(2) = %v", got)
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	f := func(vals []float64, qa, qb float64) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			h.Add(v)
		}
		qa, qb = math.Abs(math.Mod(qa, 1)), math.Abs(math.Mod(qb, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		return h.Quantile(qa) <= h.Quantile(qb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantileWithinRange(t *testing.T) {
	f := func(vals []float64, q float64) bool {
		h := NewHistogram()
		var clean []float64
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			h.Add(v)
			clean = append(clean, v)
		}
		if len(clean) == 0 {
			return true
		}
		sort.Float64s(clean)
		got := h.Quantile(math.Abs(math.Mod(q, 1)))
		return got >= clean[0] && got <= clean[len(clean)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCDF(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{1, 1, 2, 3} {
		h.Add(v)
	}
	cdf := h.CDF()
	want := []CDFPoint{{1, 0.5}, {2, 0.75}, {3, 1.0}}
	if len(cdf) != len(want) {
		t.Fatalf("CDF = %v", cdf)
	}
	for i := range want {
		if cdf[i] != want[i] {
			t.Errorf("CDF[%d] = %v, want %v", i, cdf[i], want[i])
		}
	}
}

func TestFractionBelow(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{1, 2, 3, 4} {
		h.Add(v)
	}
	cases := []struct {
		v    float64
		want float64
	}{
		{0, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := h.FractionBelow(c.v); got != c.want {
			t.Errorf("FractionBelow(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestDurationHistogram(t *testing.T) {
	d := NewDurationHistogram()
	for i := 1; i <= 100; i++ {
		d.Add(time.Duration(i) * time.Millisecond)
	}
	if d.Count() != 100 {
		t.Errorf("Count = %d", d.Count())
	}
	if got := d.Median(); got < 50*time.Millisecond || got > 51*time.Millisecond {
		t.Errorf("Median = %v", got)
	}
	if got := d.P90(); got < 90*time.Millisecond || got > 91*time.Millisecond {
		t.Errorf("P90 = %v", got)
	}
	if d.Max() != 100*time.Millisecond || d.Min() != time.Millisecond {
		t.Errorf("Min/Max = %v/%v", d.Min(), d.Max())
	}
	if got := d.FractionBelow(25 * time.Millisecond); got != 0.25 {
		t.Errorf("FractionBelow(25ms) = %v", got)
	}
	cdf := d.CDF()
	if len(cdf) != 100 || cdf[99].Fraction != 1 {
		t.Errorf("CDF length %d, last %v", len(cdf), cdf[len(cdf)-1])
	}
}

func TestHistogramInterleavedAddQuery(t *testing.T) {
	// Adding after a quantile query must keep results correct (the sort
	// cache must invalidate).
	h := NewHistogram()
	h.Add(5)
	if h.Median() != 5 {
		t.Fatal("median of single sample")
	}
	h.Add(1)
	h.Add(9)
	if h.Median() != 5 {
		t.Fatalf("median after re-add = %v", h.Median())
	}
	if h.Min() != 1 || h.Max() != 9 {
		t.Fatalf("min/max after re-add = %v/%v", h.Min(), h.Max())
	}
}

func TestCPUMeterUtilization(t *testing.T) {
	c := NewCPUMeter(2)
	// Charge 1 second of core-time spread over a 1-second window on a
	// 2-core machine: 50% utilization.
	for i := 0; i < 10; i++ {
		c.Charge(time.Duration(i)*100*time.Millisecond, 100*time.Millisecond)
	}
	got := c.Utilization(0, time.Second)
	if math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("Utilization = %v, want 0.5", got)
	}
	// Window with no charges.
	if u := c.Utilization(2*time.Second, 3*time.Second); u != 0 {
		t.Fatalf("idle window utilization = %v", u)
	}
	// Degenerate window.
	if u := c.Utilization(time.Second, time.Second); u != 0 {
		t.Fatalf("empty window utilization = %v", u)
	}
	if c.BusyTotal() != time.Second {
		t.Fatalf("BusyTotal = %v", c.BusyTotal())
	}
}

func TestCPUMeterOversubscribedAndClamp(t *testing.T) {
	c := NewCPUMeter(1)
	c.Charge(0, 2*time.Second) // 2s of work charged at t=0
	if u := c.Utilization(0, time.Second); u != 2 {
		t.Fatalf("oversubscribed utilization = %v, want 2", u)
	}
	if u := c.UtilizationClamped(0, time.Second); u != 1 {
		t.Fatalf("clamped = %v, want 1", u)
	}
}

func TestCPUMeterWindowing(t *testing.T) {
	c := NewCPUMeter(1)
	c.Charge(100*time.Millisecond, 10*time.Millisecond)
	c.Charge(500*time.Millisecond, 10*time.Millisecond)
	c.Charge(900*time.Millisecond, 10*time.Millisecond)
	// Window [400ms, 600ms) should see only the middle charge.
	got := c.Utilization(400*time.Millisecond, 600*time.Millisecond)
	want := 10.0 / 200.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("windowed utilization = %v, want %v", got, want)
	}
}

func TestCPUMeterReset(t *testing.T) {
	c := NewCPUMeter(1)
	c.Charge(0, time.Second)
	c.Reset()
	if c.BusyTotal() != 0 || c.Utilization(0, time.Second) != 0 {
		t.Fatal("reset did not clear meter")
	}
}

func TestCPUMeterIgnoresNonPositive(t *testing.T) {
	c := NewCPUMeter(1)
	c.Charge(0, 0)
	c.Charge(0, -time.Second)
	if c.BusyTotal() != 0 {
		t.Fatal("non-positive charges should be ignored")
	}
}

func TestRateSeries(t *testing.T) {
	r := NewRateSeries(time.Second)
	for i := 0; i < 100; i++ {
		r.Add(500*time.Millisecond, 1) // all in bucket 0
	}
	for i := 0; i < 50; i++ {
		r.Add(1500*time.Millisecond, 1) // bucket 1
	}
	if got := r.Rate(0); got != 100 {
		t.Errorf("Rate(0) = %v", got)
	}
	if got := r.Rate(1200 * time.Millisecond); got != 50 {
		t.Errorf("Rate(1.2s) = %v", got)
	}
	pts := r.Series(3 * time.Second)
	if len(pts) != 3 {
		t.Fatalf("Series length = %d", len(pts))
	}
	if pts[0].Rate != 100 || pts[1].Rate != 50 || pts[2].Rate != 0 {
		t.Fatalf("Series = %v", pts)
	}
}

func TestRateSeriesWeighted(t *testing.T) {
	r := NewRateSeries(time.Second)
	r.Add(0, 1024) // e.g. bytes
	if got := r.Rate(0); got != 1024 {
		t.Errorf("weighted Rate = %v", got)
	}
}

func TestHistogramLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := NewHistogram()
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = rng.NormFloat64()*10 + 100
		h.Add(vals[i])
	}
	sort.Float64s(vals)
	// Exact quantiles should match direct computation at the order stats.
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		pos := q * float64(len(vals)-1)
		lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
		frac := pos - float64(lo)
		want := vals[lo]*(1-frac) + vals[hi]*frac
		if got := h.Quantile(q); math.Abs(got-want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestLenHistBucketsAndStats(t *testing.T) {
	var h LenHist
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatalf("empty hist: n=%d mean=%v max=%d", h.Count(), h.Mean(), h.Max())
	}
	h.Observe(0)  // ignored
	h.Observe(-3) // ignored
	if h.Count() != 0 {
		t.Fatalf("non-positive lengths counted: n=%d", h.Count())
	}
	for i := 1; i <= 8; i++ {
		h.Observe(i)
	}
	h.Observe(9)
	h.Observe(16)
	h.Observe(1024)
	h.Observe(5000) // overflow bucket
	if h.Count() != 12 {
		t.Fatalf("Count = %d, want 12", h.Count())
	}
	if want := uint64(1 + 2 + 3 + 4 + 5 + 6 + 7 + 8 + 9 + 16 + 1024 + 5000); h.Sum() != want {
		t.Fatalf("Sum = %d, want %d", h.Sum(), want)
	}
	if h.Max() != 5000 {
		t.Fatalf("Max = %d, want 5000", h.Max())
	}
	// AtLeast is exact through n=9: buckets 1..8 are singletons.
	if got := h.AtLeast(2); got != 11 {
		t.Fatalf("AtLeast(2) = %d, want 11", got)
	}
	if got := h.AtLeast(9); got != 4 {
		t.Fatalf("AtLeast(9) = %d, want 4", got)
	}
	if got := h.AtLeast(0); got != h.Count() {
		t.Fatalf("AtLeast(0) = %d, want Count %d", got, h.Count())
	}
	// The documented overcount above n=9: AtLeast(16) counts from the
	// start of the 9-16 bucket, so the observation of 9 is included.
	if got := h.AtLeast(16); got != 4 {
		t.Fatalf("AtLeast(16) = %d, want 4 (bucket-granular above 9)", got)
	}
	if got := h.AtLeast(1025); got != 1 {
		t.Fatalf("AtLeast(1025) = %d, want 1", got)
	}
}
