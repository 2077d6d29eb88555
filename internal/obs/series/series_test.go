package series

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

func sampleAt(t float64) Sample {
	return Sample{T: t, Watts: 100 + t, KWh: t / 3600, Queue: int(t) % 5}
}

func TestStoreRingEviction(t *testing.T) {
	s := NewStore(4)
	for i := 0; i < 10; i++ {
		s.Add(sampleAt(float64(i * 60)))
	}
	if s.Count() != 10 {
		t.Fatalf("Count = %d, want 10 (evicted samples still counted)", s.Count())
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want the ring depth 4", s.Len())
	}
	got := s.Samples(0)
	if len(got) != 4 {
		t.Fatalf("Samples returned %d, want 4", len(got))
	}
	for i, smp := range got {
		want := float64((6 + i) * 60) // oldest retained is the 7th sample
		if smp.T != want {
			t.Fatalf("sample %d at t=%v, want %v (oldest-first order)", i, smp.T, want)
		}
	}
	if last, ok := s.Latest(); !ok || last.T != 540 {
		t.Fatalf("Latest = %+v ok=%v, want t=540", last, ok)
	}
}

// classedAt is sampleAt with an n-class breakdown whose every field
// encodes the sample time and the class index, so a breakdown read back
// can be checked for being its own sample's, whole.
func classedAt(t float64, n int) Sample {
	smp := sampleAt(t)
	for c := 0; c < n; c++ {
		smp.Classes = append(smp.Classes, ClassSample{Class: "c" + strconv.Itoa(c), Watts: t, KWh: float64(c), On: c})
	}
	return smp
}

// intact reports whether smp carries exactly the n-class breakdown
// classedAt built for its time.
func intact(smp Sample, n int) bool {
	if len(smp.Classes) != n {
		return false
	}
	for c, cs := range smp.Classes {
		if cs != classedAt(smp.T, n).Classes[c] {
			return false
		}
	}
	return true
}

// Once the ring has reached a chunk, recording into it — breakdown
// included — allocates nothing, on the first pass and on every wrap,
// and the caller's Classes slice is the caller's to reuse.
func TestStoreAddDoesNotAllocate(t *testing.T) {
	const depth = 2*chunkSlots + 5 // a partial last chunk
	s := NewStore(depth)
	smp := classedAt(0, 4)
	for i := 0; i < depth; i++ {
		s.Add(smp)
	}
	if n := testing.AllocsPerRun(3*depth, func() { s.Add(smp) }); n != 0 {
		t.Fatalf("Add into an existing chunk allocates %.0f objects per sample, want 0", n)
	}
	smp.Classes[0].Watts = -1 // the caller reuses its buffer
	if last, _ := s.Latest(); last.Classes[0].Watts != 0 {
		t.Fatal("the store kept the caller's Classes slice instead of copying it")
	}
}

// Readers get deep copies: writing to a returned breakdown, or
// appending to it, never changes what a later read returns.
func TestStoreReadsAreCopies(t *testing.T) {
	s := NewStore(8)
	for i := 0; i < 12; i++ {
		s.Add(classedAt(float64(i*60), 3))
	}
	got := s.Samples(0)
	last, _ := s.Latest()
	for i := range got {
		got[i].Classes[0].Watts = -1
		got[i].Classes = append(got[i].Classes, ClassSample{Class: "extra"})
	}
	last.Classes[2].On = -1
	for i, smp := range s.Samples(0) {
		if !intact(smp, 3) {
			t.Fatalf("sample %d after readers scribbled on their copies: %+v", i, smp.Classes)
		}
	}
	if again, _ := s.Latest(); !intact(again, 3) {
		t.Fatalf("Latest after a reader scribbled on its copy: %+v", again.Classes)
	}
}

// The fleet layout can change mid-ring (an API restore): every retained
// breakdown keeps its own class count and values, across a chunk whose
// storage had to widen and across the wrap that overwrites them.
func TestStoreClassCountChangeKeepsBreakdowns(t *testing.T) {
	const depth = chunkSlots + 10
	s := NewStore(depth)
	width := func(i int) int { return []int{2, 5, 0, 1, 7}[i/20%5] }
	for i := 0; i < 3*depth; i++ {
		s.Add(classedAt(float64(i), width(i)))
		got := s.Samples(0)
		if len(got) != min(i+1, depth) {
			t.Fatalf("after %d adds %d retained", i+1, len(got))
		}
		for _, smp := range got {
			if !intact(smp, width(int(smp.T))) {
				t.Fatalf("after %d adds, sample t=%v has breakdown %+v, want its own %d classes", i+1, smp.T, smp.Classes, width(int(smp.T)))
			}
		}
	}
}

// One writer wrapping the ring several times against concurrent
// readers: every sample a reader gets is whole — its own breakdown,
// oldest first, no torn slot. Run under -race.
func TestStoreConcurrentReadersAcrossWraps(t *testing.T) {
	const depth, adds = chunkSlots + 16, 20 * (chunkSlots + 16)
	s := NewStore(depth)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				prev := -1.0
				for _, smp := range s.Samples(0) {
					if smp.T <= prev || !intact(smp, 1+int(smp.T)%4) {
						t.Errorf("torn read: t=%v after %v, classes %+v", smp.T, prev, smp.Classes)
						return
					}
					prev = smp.T
				}
				if smp, ok := s.Latest(); ok && !intact(smp, 1+int(smp.T)%4) {
					t.Errorf("torn Latest: %+v", smp)
					return
				}
			}
		}()
	}
	buf := Sample{}
	for i := 0; i < adds; i++ {
		next := classedAt(float64(i), 1+i%4)
		buf.Classes = append(buf.Classes[:0], next.Classes...) // one reused writer buffer
		next.Classes = buf.Classes
		s.Add(next)
	}
	close(done)
	wg.Wait()
	if s.Count() != adds || s.Len() != depth {
		t.Fatalf("Count %d Len %d, want %d and %d", s.Count(), s.Len(), adds, depth)
	}
}

func TestStoreSamplesSince(t *testing.T) {
	s := NewStore(0)
	for i := 0; i < 5; i++ {
		s.Add(sampleAt(float64(i * 100)))
	}
	got := s.Samples(200)
	if len(got) != 3 || got[0].T != 200 {
		t.Fatalf("Samples(200) = %d samples starting %v, want 3 from t=200", len(got), got[0].T)
	}
}

// TestParseQueryErrors pins the structured-400 contract: every
// malformed parameter is rejected with a message naming the parameter,
// never silently defaulted.
func TestParseQueryErrors(t *testing.T) {
	cases := []struct {
		name                        string
		metric, since, step, format string
		wantErr                     string
	}{
		{"bad metric", "wattz", "", "", "", "unknown metric"},
		{"negative since", "", "-60", "", "", "non-negative"},
		{"nan since", "", "NaN", "", "", "non-negative"},
		{"garbage since", "", "yesterday", "", "", "not a number"},
		{"zero step", "", "", "0", "", "positive"},
		{"negative step", "", "", "-300", "", "positive"},
		{"nan step", "", "", "NaN", "", "positive"},
		{"garbage step", "", "", "hourly", "", "not a number"},
		{"bad format", "", "", "", "xml", "unknown format"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseQuery(tc.metric, tc.since, tc.step, tc.format)
			if err == nil {
				t.Fatalf("ParseQuery(%q,%q,%q,%q) accepted", tc.metric, tc.since, tc.step, tc.format)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseQueryDefaults(t *testing.T) {
	q, err := ParseQuery("", "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if q.Metric != "" || q.Since != 0 || q.Step != 0 || q.Format != "json" {
		t.Fatalf("defaults = %+v", q)
	}
	q, err = ParseQuery("watts", "120", "600", "csv")
	if err != nil {
		t.Fatal(err)
	}
	if q.Metric != "watts" || q.Since != 120 || q.Step != 600 || q.Format != "csv" {
		t.Fatalf("parsed = %+v", q)
	}
}

func TestValueCoversEveryMetric(t *testing.T) {
	smp := Sample{
		T: 60, Watts: 1, KWh: 2, SLA: 3, Utilization: 4, Queue: 5,
		Running: 6, On: 7, Working: 8, Off: 9, Migrations: 10, Completed: 11,
	}
	want := map[string]float64{
		"watts": 1, "kwh": 2, "sla_pct": 3, "utilization_pct": 4, "queue": 5,
		"running": 6, "nodes_on": 7, "nodes_working": 8, "nodes_off": 9,
		"migrations": 10, "completed": 11,
	}
	names := Metrics()
	if len(names) != len(want) {
		t.Fatalf("Metrics() lists %d names, want %d", len(names), len(want))
	}
	for _, name := range names {
		v, ok := Value(smp, name)
		if !ok || v != want[name] {
			t.Fatalf("Value(%q) = %v ok=%v, want %v", name, v, ok, want[name])
		}
	}
	if _, ok := Value(smp, "nope"); ok {
		t.Fatal("unknown metric resolved")
	}
}

func TestDownsampleKeepsBucketTail(t *testing.T) {
	var in []Sample
	for i := 0; i < 10; i++ {
		in = append(in, sampleAt(float64(i*60))) // 0..540 at minute ticks
	}
	out := Downsample(in, 300)
	// Buckets [0,300) and [300,600): the last sample of each survives.
	if len(out) != 2 || out[0].T != 240 || out[1].T != 540 {
		ts := make([]float64, len(out))
		for i, smp := range out {
			ts[i] = smp.T
		}
		t.Fatalf("Downsample(step=300) kept %v, want [240 540]", ts)
	}
	if got := Downsample(in, 0); len(got) != len(in) {
		t.Fatalf("zero step dropped samples: %d of %d", len(got), len(in))
	}
}

func TestPoints(t *testing.T) {
	in := []Sample{sampleAt(0), sampleAt(60)}
	pts := Points(in, "watts")
	if len(pts) != 2 || pts[0].V != 100 || pts[1].V != 160 {
		t.Fatalf("Points = %+v", pts)
	}
}

// FuzzSeriesQuery: ParseQuery must never panic, and anything it
// accepts must satisfy the query invariants the handlers rely on
// (known metric, non-negative since, positive step, known format).
func FuzzSeriesQuery(f *testing.F) {
	f.Add("watts", "0", "60", "json")
	f.Add("", "", "", "")
	f.Add("kwh", "86400", "3600", "csv")
	f.Add("wattz", "-1", "0", "xml")
	f.Add("sla_pct", "NaN", "Inf", "JSON")
	f.Add("completed", "1e308", "1e-308", "csv")
	f.Fuzz(func(t *testing.T, metric, since, step, format string) {
		q, err := ParseQuery(metric, since, step, format)
		if err != nil {
			return
		}
		if q.Metric != "" {
			if _, ok := metricsByName[q.Metric]; !ok {
				t.Fatalf("accepted unknown metric %q", q.Metric)
			}
		}
		if q.Since < 0 || q.Since != q.Since {
			t.Fatalf("accepted since %v", q.Since)
		}
		if step != "" && q.Step <= 0 {
			t.Fatalf("accepted step %v from %q", q.Step, step)
		}
		if q.Format != "json" && q.Format != "csv" {
			t.Fatalf("accepted format %q", q.Format)
		}
		// The accepted query must execute without panicking.
		in := []Sample{sampleAt(0), sampleAt(600), sampleAt(1200)}
		out := Downsample(in, q.Step)
		if q.Metric != "" {
			Points(out, q.Metric)
		}
	})
}
