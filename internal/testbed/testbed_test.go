package testbed

import (
	"math"
	"testing"
)

func quietMachine() Machine {
	m := PaperMachine()
	m.noiseStddev = 0
	m.BackgroundWatts = 0
	m.BackgroundBaseWatts = 0
	return m
}

func TestSteadyWattsMatchesTableI(t *testing.T) {
	m := quietMachine()
	cases := []struct {
		cpus []float64
		want float64
	}{
		{[]float64{0}, 230},
		{[]float64{100}, 259},
		{[]float64{200}, 273},
		{[]float64{100, 100}, 273}, // VM count does not matter
		{[]float64{100, 200}, 291},
		{[]float64{100, 100, 100, 100}, 304},
		{[]float64{400}, 304},
	}
	for _, c := range cases {
		got := m.SteadyWatts(c.cpus, 60, 1)
		if math.Abs(got-c.want) > 0.5 {
			t.Errorf("SteadyWatts(%v) = %.1f, want %.0f", c.cpus, got, c.want)
		}
	}
}

func TestRunIdleFloor(t *testing.T) {
	m := quietMachine()
	samples := m.Run(nil, 10, 1)
	if len(samples) != 10 {
		t.Fatalf("samples = %d, want 10", len(samples))
	}
	for _, s := range samples {
		if s.Watts != 230 {
			t.Fatalf("idle sample = %v, want 230", s.Watts)
		}
	}
}

func TestRunCreationSpike(t *testing.T) {
	m := quietMachine()
	task := Task{Name: "t", Start: 5, Duration: 30, CPU: 100}
	samples := m.Run([]Task{task}, 120, 1)
	// Before the task: idle.
	if samples[2].Watts != 230 {
		t.Errorf("pre-task watts = %v", samples[2].Watts)
	}
	// During creation (~40 s from t=5): dom0 burns CreationCPU.
	want := m.Power.Power(creationCPU)
	if math.Abs(samples[20].Watts-want) > 1 {
		t.Errorf("creation watts = %v, want ≈%v", samples[20].Watts, want)
	}
	// During execution (after ~45 s): task draw.
	if math.Abs(samples[60].Watts-259) > 1 {
		t.Errorf("execution watts = %v, want ≈259", samples[60].Watts)
	}
	// After completion (~75 s): idle again.
	if samples[110].Watts != 230 {
		t.Errorf("post-task watts = %v, want 230", samples[110].Watts)
	}
}

func TestRunDeterministic(t *testing.T) {
	m := PaperMachine()
	a := m.Run(PaperValidationTasks(), 100, 7)
	b := m.Run(PaperValidationTasks(), 100, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different traces")
		}
	}
}

func TestBackgroundRaisesConsumption(t *testing.T) {
	quiet := quietMachine()
	noisy := quietMachine()
	noisy.BackgroundBaseWatts = 5
	noisy.BackgroundWatts = 10
	a := TotalWh(quiet.Run(nil, 600, 1))
	b := TotalWh(noisy.Run(nil, 600, 1))
	if b <= a {
		t.Errorf("background draw did not raise energy: %v vs %v", b, a)
	}
}

func TestTotalWh(t *testing.T) {
	samples := []Sample{{0, 3600}, {1, 3600}}
	if got := TotalWh(samples); got != 2 {
		t.Errorf("TotalWh = %v, want 2", got)
	}
}

func TestResampleAt(t *testing.T) {
	times := []float64{0, 10, 20}
	watts := []float64{100, 200, 300}
	cases := []struct{ t, want float64 }{
		{-5, 100}, {0, 100}, {5, 100}, {10, 200}, {15, 200}, {20, 300}, {99, 300},
	}
	for _, c := range cases {
		if got := ResampleAt(times, watts, c.t); got != c.want {
			t.Errorf("ResampleAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if got := ResampleAt(nil, nil, 5); got != 0 {
		t.Errorf("empty resample = %v", got)
	}
}

func TestPaperValidationTasksShape(t *testing.T) {
	tasks := PaperValidationTasks()
	if len(tasks) != 7 {
		t.Fatalf("validation workload has %d tasks, want 7 (paper)", len(tasks))
	}
	for _, task := range tasks {
		if task.Start < 0 || task.Start+task.Duration > ValidationHorizon {
			t.Errorf("task %s outside the 1300 s horizon", task.Name)
		}
		if task.CPU <= 0 || task.CPU > 400 {
			t.Errorf("task %s CPU %v out of range", task.Name, task.CPU)
		}
	}
}
