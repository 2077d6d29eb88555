package vm

import (
	"strings"
	"testing"
)

func newTestVM() *VM {
	return New(7, Requirements{CPU: 200, Mem: 10}, 100, 3600, 100+1.5*3600)
}

func TestNewInitialState(t *testing.T) {
	v := newTestVM()
	if v.State != Queued {
		t.Errorf("state = %v, want queued", v.State)
	}
	if v.Host != -1 || v.MigrateTo != -1 || v.Start != -1 || v.Finish != -1 || v.LastMigrate != -1 {
		t.Error("sentinel fields not -1")
	}
	if v.Work != 200*3600 {
		t.Errorf("work = %v, want %v", v.Work, 200*3600)
	}
}

func TestRemaining(t *testing.T) {
	v := newTestVM()
	v.Progress = 200 * 3600 / 2
	if got := v.Remaining(); got != 200*3600/2 {
		t.Errorf("remaining = %v", got)
	}
	v.Progress = v.Work + 100 // overshoot clamps to zero
	if got := v.Remaining(); got != 0 {
		t.Errorf("overshot remaining = %v, want 0", got)
	}
}

func TestUserRemainingTime(t *testing.T) {
	v := newTestVM()
	if got := v.UserRemainingTime(100); got != 3600 {
		t.Errorf("Tr at submit = %v, want 3600", got)
	}
	if got := v.UserRemainingTime(100 + 1800); got != 1800 {
		t.Errorf("Tr halfway = %v, want 1800", got)
	}
	if got := v.UserRemainingTime(100 + 7200); got != 0 {
		t.Errorf("Tr past estimate = %v, want 0 (floored)", got)
	}
}

func TestStateTransitionsHelpers(t *testing.T) {
	v := newTestVM()
	cases := []struct {
		state      State
		active, op bool
	}{
		{Queued, false, false},
		{Creating, true, true},
		{Running, true, false},
		{Migrating, true, true},
		{Completed, false, false},
		{Failed, false, false},
	}
	for _, c := range cases {
		v.State = c.state
		if v.Active() != c.active {
			t.Errorf("%v: Active = %v, want %v", c.state, v.Active(), c.active)
		}
		if v.InOperation() != c.op {
			t.Errorf("%v: InOperation = %v, want %v", c.state, v.InOperation(), c.op)
		}
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		Queued: "queued", Creating: "creating", Running: "running",
		Migrating: "migrating", Completed: "completed", Failed: "failed",
		State(99): "state(99)",
	} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestExecTime(t *testing.T) {
	v := newTestVM()
	if v.ExecTime() != -1 {
		t.Error("unfinished VM should report -1")
	}
	v.Finish = 5000
	if got := v.ExecTime(); got != 4900 {
		t.Errorf("exec time = %v, want 4900", got)
	}
}

func TestVMString(t *testing.T) {
	v := newTestVM()
	s := v.String()
	if !strings.Contains(s, "vm7") || !strings.Contains(s, "queued") {
		t.Errorf("String() = %q", s)
	}
}
