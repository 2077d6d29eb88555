package metrics

import "testing"

// TestHistogramSamplesInfBucketExplicit pins the exposition contract
// consumers lean on: the bucket lines of every rendered histogram —
// empty or not — end with an explicit le="+Inf" bucket whose value
// equals _count, so PromQL's histogram_quantile never sees a family
// with a missing terminal bucket.
func TestHistogramSamplesInfBucketExplicit(t *testing.T) {
	cases := map[string]func(h *Histogram){
		"empty":    func(h *Histogram) {},
		"one":      func(h *Histogram) { h.Observe(0.5) },
		"overflow": func(h *Histogram) { h.Observe(1e9) }, // beyond the last finite bound
	}
	for name, fill := range cases {
		t.Run(name, func(t *testing.T) {
			var h Histogram
			fill(&h)
			samples := HistogramSamples("es_x_seconds", "x", nil, &h)
			var lastBucket *PromSample
			var count float64
			for i := range samples {
				switch samples[i].Suffix {
				case "_bucket":
					lastBucket = &samples[i]
				case "_count":
					count = samples[i].Value
				}
			}
			if lastBucket == nil {
				t.Fatal("no bucket lines rendered")
			}
			if le := lastBucket.Labels["le"]; le != "+Inf" {
				t.Fatalf("final bucket le = %q, want +Inf", le)
			}
			if lastBucket.Value != count {
				t.Fatalf("+Inf bucket = %v, _count = %v; must be equal", lastBucket.Value, count)
			}
			if count != float64(h.Count()) {
				t.Fatalf("_count = %v, Histogram.Count() = %d", count, h.Count())
			}
		})
	}
}
