package metrics

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// TestHistBoundsLogLinear pins the bucket layout: strictly ascending,
// nine linear steps per decade, from 1µs to 900s.
func TestHistBoundsLogLinear(t *testing.T) {
	b := HistBounds()
	if len(b) != histBuckets {
		t.Fatalf("%d bounds, want %d", len(b), histBuckets)
	}
	if b[0] != 1e-6 {
		t.Errorf("first bound %g, want 1e-6", b[0])
	}
	if b[len(b)-1] != 900 {
		t.Errorf("last bound %g, want 900", b[len(b)-1])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending at %d: %g <= %g", i, b[i], b[i-1])
		}
	}
	// Within a decade the steps are linear: b[i+1]-b[i] constant.
	for d := 0; d < histDecades; d++ {
		base := d * histLinear
		step := b[base+1] - b[base]
		for i := base + 1; i < base+histLinear-1; i++ {
			if diff := b[i+1] - b[i]; math.Abs(diff-step) > 1e-9*step {
				t.Fatalf("decade %d not linear: step %g vs %g", d, diff, step)
			}
		}
	}
}

// TestBucketForBoundaries: every bound maps to its own bucket (bounds
// are inclusive upper edges), and a value just past a bound maps to
// the next bucket.
func TestBucketForBoundaries(t *testing.T) {
	b := HistBounds()
	for i, bound := range b {
		if got := bucketFor(bound); got != i {
			t.Errorf("bucketFor(%g) = %d, want %d", bound, got, i)
		}
		if got := bucketFor(bound * 1.0001); got != i+1 {
			t.Errorf("bucketFor(%g+) = %d, want %d", bound, got, i+1)
		}
	}
	if got := bucketFor(0); got != 0 {
		t.Errorf("bucketFor(0) = %d", got)
	}
	if got := bucketFor(1e9); got != histBuckets {
		t.Errorf("bucketFor(1e9) = %d, want overflow %d", got, histBuckets)
	}
}

// Property: bucketFor agrees with the naive linear scan for any value.
func TestBucketForMatchesScanProperty(t *testing.T) {
	b := HistBounds()
	naive := func(v float64) int {
		for i, bound := range b {
			if v <= bound {
				return i
			}
		}
		return histBuckets
	}
	f := func(raw uint32) bool {
		// Spread raw over ~12 orders of magnitude.
		v := math.Pow(10, float64(raw%1200)/100-8)
		return bucketFor(v) == naive(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Max() != 0 || h.Snapshot().Sum != 0 {
		t.Error("empty histogram not zero")
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
}

func TestHistogramOneSample(t *testing.T) {
	var h Histogram
	h.Observe(0.0042)
	if h.Count() != 1 {
		t.Fatalf("count %d", h.Count())
	}
	if h.Max() != 0.0042 {
		t.Errorf("max %v", h.Max())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		// A single sample must be reported from its own bucket, clamped
		// to the sample: (0.003, 0.0042].
		if got <= 0.003 || got > 0.0042 {
			t.Errorf("one-sample Quantile(%v) = %v, want in (0.003, 0.0042]", q, got)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 100 samples spread evenly at exact bucket bounds 1ms..100ms.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 1e-3)
	}
	type tc struct{ q, lo, hi float64 }
	for _, c := range []tc{
		{0.5, 0.04, 0.06}, // true p50 = 50ms
		{0.9, 0.08, 0.1},  // true p90 = 90ms
		{0.99, 0.09, 0.1}, // true p99 = 99ms
		{1, 0.1, 0.1},     // p100 clamps to max
	} {
		got := h.Quantile(c.q)
		if got < c.lo || got > c.hi {
			t.Errorf("Quantile(%v) = %v, want in [%v, %v]", c.q, got, c.lo, c.hi)
		}
	}
	if got := h.Quantile(1); got != h.Max() {
		t.Errorf("Quantile(1) = %v, want max %v", got, h.Max())
	}
}

// Property: quantiles are monotone in q and bounded by [0, Max].
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		var h Histogram
		for _, r := range raw {
			h.Observe(float64(r) * 1e-5)
		}
		qs := []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
		prev := -1.0
		for _, q := range qs {
			v := h.Quantile(q)
			if v < prev || v < 0 || v > h.Max()+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramSamples: the Prometheus rendering is cumulative, ends
// at +Inf == count, and carries the extra labels on every line.
func TestHistogramSamples(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1e-5, 1e-3, 1e-3, 5, 1e4} {
		h.Observe(v)
	}
	samples := HistogramSamples("es_lat_seconds", "latency", map[string]string{"fleet": "a"}, &h)
	var infVal float64
	prevCum := -1.0
	prevLe := math.Inf(-1)
	buckets := 0
	for _, s := range samples {
		if s.Name != "es_lat_seconds" || s.Kind != PromHistogram {
			t.Fatalf("bad sample family: %+v", s)
		}
		switch s.Suffix {
		case "_bucket":
			buckets++
			if s.Labels["fleet"] != "a" {
				t.Fatalf("bucket lost label: %+v", s)
			}
			le := math.Inf(1)
			if s.Labels["le"] != "+Inf" {
				var err error
				if le, err = parseFloat(s.Labels["le"]); err != nil {
					t.Fatalf("bad le %q", s.Labels["le"])
				}
			} else {
				infVal = s.Value
			}
			if le <= prevLe {
				t.Fatalf("le not ascending: %v after %v", le, prevLe)
			}
			if s.Value < prevCum {
				t.Fatalf("bucket counts not cumulative at le=%v", le)
			}
			prevLe, prevCum = le, s.Value
		case "_count":
			if s.Value != 5 {
				t.Errorf("_count = %v", s.Value)
			}
		case "_sum":
			if math.Abs(s.Value-(1e-5+2e-3+5+1e4)) > 1e-9 {
				t.Errorf("_sum = %v", s.Value)
			}
		}
	}
	if buckets != histBuckets+1 {
		t.Errorf("%d bucket lines, want %d", buckets, histBuckets+1)
	}
	if infVal != 5 {
		t.Errorf("+Inf bucket = %v, want 5 (the 1e4 sample overflows)", infVal)
	}

	// The rendered family must survive WriteProm with one header.
	var buf strings.Builder
	if err := WriteProm(&buf, samples); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "# TYPE es_lat_seconds histogram") != 1 {
		t.Errorf("histogram header count wrong:\n%s", out)
	}
	if !strings.Contains(out, `es_lat_seconds_bucket{fleet="a",le="+Inf"} 5`) {
		t.Errorf("missing +Inf bucket line:\n%s", out)
	}
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
