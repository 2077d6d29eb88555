package workload

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.Horizon = 24 * 3600
	a := MustGenerate(cfg)
	b := MustGenerate(cfg)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job %d differs", i)
		}
	}
	cfg.Seed = 99
	c := MustGenerate(cfg)
	if c.Len() == a.Len() && len(a.Jobs) > 0 && c.Jobs[0] == a.Jobs[0] {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateCalibration(t *testing.T) {
	// The default week must land near the paper's aggregate: ≈6000
	// CPU-hours, a couple thousand jobs.
	tr := MustGenerate(DefaultGeneratorConfig())
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	cpuh := tr.TotalCPUHours()
	if cpuh < 4500 || cpuh > 7500 {
		t.Errorf("weekly CPU-hours = %.0f, want ≈6000", cpuh)
	}
	if tr.Len() < 1500 || tr.Len() > 4500 {
		t.Errorf("weekly jobs = %d, want a couple thousand", tr.Len())
	}
	s := tr.Summarize()
	if s.MeanCPU < 100 || s.MeanCPU > 250 {
		t.Errorf("mean CPU = %.0f%%, want 1–2.5 cores", s.MeanCPU)
	}
}

func TestGenerateJobInvariants(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.Horizon = 2 * 24 * 3600
	tr := MustGenerate(cfg)
	for _, j := range tr.Jobs {
		if j.Submit < 0 || j.Submit >= cfg.Horizon {
			t.Fatalf("job %d submit %.1f outside horizon", j.ID, j.Submit)
		}
		if j.Duration < cfg.MinRuntime || j.Duration > cfg.MaxRuntime {
			t.Fatalf("job %d duration %.1f outside bounds", j.ID, j.Duration)
		}
		if j.CPU != 100 && j.CPU != 200 && j.CPU != 300 && j.CPU != 400 {
			t.Fatalf("job %d CPU %.0f not 1–4 VCPUs", j.ID, j.CPU)
		}
		if j.DeadlineFactor < cfg.DeadlineMin || j.DeadlineFactor >= cfg.DeadlineMax {
			t.Fatalf("job %d deadline factor %.2f outside [%.1f, %.1f)",
				j.ID, j.DeadlineFactor, cfg.DeadlineMin, cfg.DeadlineMax)
		}
		if j.Mem < 1 {
			t.Fatalf("job %d mem %.1f below floor", j.ID, j.Mem)
		}
	}
}

func TestGenerateDiurnalShape(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.BurstProb = 0 // isolate the diurnal process
	tr := MustGenerate(cfg)
	day, night := 0, 0
	for _, j := range tr.Jobs {
		h := math.Mod(j.Submit, 86400) / 3600
		switch {
		case h >= 12 && h < 18:
			day++
		case h >= 0 && h < 6:
			night++
		}
	}
	if day <= night {
		t.Errorf("afternoon arrivals (%d) should exceed night arrivals (%d)", day, night)
	}
}

func TestGenerateWeekendDip(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.BurstProb = 0
	tr := MustGenerate(cfg)
	weekday, weekend := 0, 0
	for _, j := range tr.Jobs {
		if int(j.Submit/86400)%7 >= 5 {
			weekend++
		} else {
			weekday++
		}
	}
	// 5 weekdays vs 2 weekend days at 0.55 rate: per-day comparison.
	if float64(weekend)/2 >= float64(weekday)/5 {
		t.Errorf("weekend rate (%d/2d) should be below weekday rate (%d/5d)", weekend, weekday)
	}
}

func TestGeneratorValidation(t *testing.T) {
	bad := DefaultGeneratorConfig()
	bad.Horizon = 0
	if _, err := Generate(bad); err == nil {
		t.Error("zero horizon accepted")
	}
	bad = DefaultGeneratorConfig()
	bad.JobsPerDay = -1
	if _, err := Generate(bad); err == nil {
		t.Error("negative rate accepted")
	}
	bad = DefaultGeneratorConfig()
	bad.DeadlineMin = 0.5
	if _, err := Generate(bad); err == nil {
		t.Error("deadline factor < 1 accepted")
	}
	bad = DefaultGeneratorConfig()
	bad.CPUWeights = [4]float64{0, 0, 0, 0}
	if _, err := Generate(bad); err == nil {
		t.Error("zero CPU weights accepted")
	}
	bad = DefaultGeneratorConfig()
	bad.MinRuntime = 100
	bad.MaxRuntime = 50
	if _, err := Generate(bad); err == nil {
		t.Error("inverted runtime bounds accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.Horizon = 6 * 3600
	orig := MustGenerate(cfg)

	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != orig.Len() {
		t.Fatalf("round trip lost jobs: %d vs %d", back.Len(), orig.Len())
	}
	for i := range orig.Jobs {
		a, b := orig.Jobs[i], back.Jobs[i]
		if a.ID != b.ID || a.Name != b.Name {
			t.Fatalf("job %d identity mismatch", i)
		}
		if math.Abs(a.Submit-b.Submit) > 1e-3 || math.Abs(a.Duration-b.Duration) > 1e-3 ||
			math.Abs(a.CPU-b.CPU) > 0.1 || math.Abs(a.Mem-b.Mem) > 0.01 ||
			math.Abs(a.DeadlineFactor-b.DeadlineFactor) > 1e-4 {
			t.Fatalf("job %d fields drifted: %+v vs %+v", i, a, b)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadCSV(strings.NewReader("not,a,header\n")); err == nil {
		t.Error("missing header accepted")
	}
	hdr := "id,name,submit_s,duration_s,cpu_pct,mem_units,deadline_factor,fault_tolerance,arch,hypervisor\n"
	if _, err := ReadCSV(strings.NewReader(hdr + "x,j,0,10,100,5,1.5,0,,\n")); err == nil {
		t.Error("bad id accepted")
	}
	if _, err := ReadCSV(strings.NewReader(hdr + "1,j,0,abc,100,5,1.5,0,,\n")); err == nil {
		t.Error("bad float accepted")
	}
	// Semantically invalid job (duration 0).
	if _, err := ReadCSV(strings.NewReader(hdr + "1,j,0,0,100,5,1.5,0,,\n")); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestReadGWF(t *testing.T) {
	input := `# GWF comment
; alt comment
1 100 5 3600 2 0 0 2 3600 0 1
2 200 0 0 1 0 0 1 100 0 0
3 250 0 1800 8 0 0 8 1800 0 1
`
	tr, err := ReadGWF(strings.NewReader(input), ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Job 2 has run time 0 (cancelled) → skipped.
	if tr.Len() != 2 {
		t.Fatalf("jobs = %d, want 2", tr.Len())
	}
	j := tr.Jobs[0]
	if j.Submit != 0 { // times rebased to the first job
		t.Errorf("submit = %v, want 0", j.Submit)
	}
	if j.CPU != 200 || j.Duration != 3600 {
		t.Errorf("job 1 = %+v", j)
	}
	// Job 3: 8 procs folded into 4 VCPUs with duration stretched 2×.
	k := tr.Jobs[1]
	if k.CPU != 400 {
		t.Errorf("folded CPU = %v, want 400", k.CPU)
	}
	if k.Duration != 3600 {
		t.Errorf("folded duration = %v, want 3600 (work conserved)", k.Duration)
	}
	if k.Submit != 150 {
		t.Errorf("rebased submit = %v, want 150", k.Submit)
	}
}

func TestReadGWFDeadlineFactorsInBand(t *testing.T) {
	var sb strings.Builder
	for i := 1; i <= 200; i++ {
		sb.WriteString(strings.ReplaceAll("ID 10 0 100 1 0 0 1 100 0 1\n", "ID", strconv.Itoa(i)))
	}
	tr, err := ReadGWF(strings.NewReader(sb.String()), ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range tr.Jobs {
		if j.DeadlineFactor < 1.2 || j.DeadlineFactor > 2.0 {
			t.Fatalf("deadline factor %v outside [1.2, 2.0]", j.DeadlineFactor)
		}
	}
}

func TestReadGWFErrors(t *testing.T) {
	if _, err := ReadGWF(strings.NewReader("1 2 3\n"), ConvertOptions{}); err == nil {
		t.Error("short line accepted")
	}
	if _, err := ReadGWF(strings.NewReader("x 100 0 100 1\n"), ConvertOptions{}); err == nil {
		t.Error("bad id accepted")
	}
	if _, err := ReadGWF(strings.NewReader("1 x 0 100 1\n"), ConvertOptions{}); err == nil {
		t.Error("bad numeric accepted")
	}
}

// TestGeneratorValidationRejectsNonFinite: a NaN or infinite horizon or
// rate fails validation instead of drawing arrivals without end, and so
// does a NaN bound or weight.
func TestGeneratorValidationRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for name, set := range map[string]func(*GeneratorConfig){
		"Horizon NaN":     func(c *GeneratorConfig) { c.Horizon = nan },
		"Horizon +Inf":    func(c *GeneratorConfig) { c.Horizon = inf },
		"JobsPerDay NaN":  func(c *GeneratorConfig) { c.JobsPerDay = nan },
		"JobsPerDay +Inf": func(c *GeneratorConfig) { c.JobsPerDay = inf },
		"DeadlineMin NaN": func(c *GeneratorConfig) { c.DeadlineMin = nan },
		"DeadlineMax NaN": func(c *GeneratorConfig) { c.DeadlineMax = nan },
		"MinRuntime NaN":  func(c *GeneratorConfig) { c.MinRuntime = nan },
		"MaxRuntime NaN":  func(c *GeneratorConfig) { c.MaxRuntime = nan },
		"CPU weight NaN":  func(c *GeneratorConfig) { c.CPUWeights[0] = nan },
		"CPU weight +Inf": func(c *GeneratorConfig) { c.CPUWeights[0] = inf },
	} {
		cfg := DefaultGeneratorConfig()
		set(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestTraceValidateOrder(t *testing.T) {
	tr := &Trace{Jobs: []Job{
		{ID: 2, Submit: 50, Duration: 10, CPU: 100, DeadlineFactor: 1.5},
		{ID: 1, Submit: 10, Duration: 10, CPU: 100, DeadlineFactor: 1.5},
	}}
	if err := tr.Validate(); err == nil {
		t.Error("out-of-order trace accepted")
	}
	tr.Jobs[0], tr.Jobs[1] = tr.Jobs[1], tr.Jobs[0]
	if err := tr.Validate(); err != nil {
		t.Errorf("ordered trace rejected: %v", err)
	}
}

func TestJobDeadline(t *testing.T) {
	j := Job{Submit: 100, Duration: 60, DeadlineFactor: 1.5}
	if got := j.Deadline(); got != 190 {
		t.Errorf("deadline = %v, want 190", got)
	}
}

func TestTraceStats(t *testing.T) {
	tr := &Trace{Jobs: []Job{
		{ID: 0, Submit: 0, Duration: 3600, CPU: 200, Mem: 10, DeadlineFactor: 1.5},
		{ID: 1, Submit: 100, Duration: 7200, CPU: 100, Mem: 6, DeadlineFactor: 1.2},
	}}
	if got := tr.TotalCPUHours(); got != 2+2 {
		t.Errorf("CPU hours = %v, want 4", got)
	}
	s := tr.Summarize()
	if s.Jobs != 2 || s.MeanCPU != 150 || s.MeanMem != 8 || s.MaxRuntime != 7200 || s.Span != 100 {
		t.Errorf("stats = %+v", s)
	}
	empty := (&Trace{}).Summarize()
	if empty.Jobs != 0 {
		t.Errorf("empty stats = %+v", empty)
	}
}

// Property: CSV round-trip preserves every generated trace.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(seed int64, hours uint8) bool {
		cfg := DefaultGeneratorConfig()
		cfg.Seed = seed
		cfg.Horizon = (float64(hours%12) + 1) * 3600
		orig, err := Generate(cfg)
		if err != nil {
			return false
		}
		if orig.Len() == 0 {
			return true
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, orig); err != nil {
			return false
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		return back.Len() == orig.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Reader hardening: empty traces and out-of-order submission times
// must error instead of silently producing bad traces.
func TestReadGWFRejectsEmptyAndDisorder(t *testing.T) {
	// Comment-only file: no usable jobs.
	if _, err := ReadGWF(strings.NewReader("# just a header\n; nothing\n"), ConvertOptions{}); err == nil {
		t.Error("empty gwf trace accepted")
	}
	// All jobs cancelled (run == 0): still no usable jobs.
	if _, err := ReadGWF(strings.NewReader("1 100 0 0 2 0 0 2 0 0 0\n"), ConvertOptions{}); err == nil {
		t.Error("all-cancelled gwf trace accepted")
	}
	// Submission times regress between accepted lines.
	disorder := "1 200 0 100 1 0 0 1 100 0 1\n2 100 0 100 1 0 0 1 100 0 1\n"
	if _, err := ReadGWF(strings.NewReader(disorder), ConvertOptions{}); err == nil {
		t.Error("out-of-order gwf trace accepted")
	}
	// A cancelled job between ordered lines does not break the check.
	ok := "1 100 0 100 1 0 0 1 100 0 1\n2 150 0 0 1 0 0 1 0 0 0\n3 200 0 100 1 0 0 1 100 0 1\n"
	if _, err := ReadGWF(strings.NewReader(ok), ConvertOptions{}); err != nil {
		t.Errorf("ordered gwf trace rejected: %v", err)
	}
}

func TestReadCSVRejectsEmptyAndDisorder(t *testing.T) {
	hdr := "id,name,submit_s,duration_s,cpu_pct,mem_units,deadline_factor,fault_tolerance,arch,hypervisor\n"
	// Header-only file: no jobs.
	if _, err := ReadCSV(strings.NewReader(hdr)); err == nil {
		t.Error("header-only csv trace accepted")
	}
	// Wrong column count.
	if _, err := ReadCSV(strings.NewReader(hdr + "1,j,0,10\n")); err == nil {
		t.Error("short csv row accepted")
	}
	// Out-of-order submits.
	disorder := hdr +
		"1,a,500.000,10.000,100.0,5.00,1.5000,0.0000,,\n" +
		"2,b,100.000,10.000,100.0,5.00,1.5000,0.0000,,\n"
	if _, err := ReadCSV(strings.NewReader(disorder)); err == nil {
		t.Error("out-of-order csv trace accepted")
	}
	// Ordered trace still round-trips.
	ordered := hdr +
		"1,a,100.000,10.000,100.0,5.00,1.5000,0.0000,,\n" +
		"2,b,500.000,10.000,100.0,5.00,1.5000,0.0000,,\n"
	tr, err := ReadCSV(strings.NewReader(ordered))
	if err != nil {
		t.Fatalf("ordered csv trace rejected: %v", err)
	}
	if tr.Len() != 2 {
		t.Fatalf("jobs = %d, want 2", tr.Len())
	}
}
