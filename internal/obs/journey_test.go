package obs

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestJourneyRecordAndGet(t *testing.T) {
	s := NewJourneyStore(8, 16)
	defer s.Close()
	s.Record(3, JourneyStep{T: 0, Kind: StepSubmitted, Node: -1, Dest: -1})
	s.Record(3, JourneyStep{T: 15, Kind: StepPlaced, Node: 2, Dest: -1})
	s.Record(3, JourneyStep{T: 3615, Kind: StepCompleted, Node: 2, Dest: -1,
		Satisfaction: 100, EnergyKWh: 0.25})

	j, ok := s.Get(3)
	if !ok {
		t.Fatal("journey not recorded")
	}
	if len(j.Steps) != 3 || j.Steps[0].Kind != StepSubmitted || j.Steps[2].Kind != StepCompleted {
		t.Fatalf("steps = %+v", j.Steps)
	}
	if j.Outcome != StepCompleted || j.EnergyKWh != 0.25 || j.Satisfaction != 100 {
		t.Fatalf("terminal summary = %+v", j)
	}
	if _, ok := s.Get(99); ok {
		t.Fatal("unknown job resolved")
	}

	// Get returns a copy: mutating it must not reach the store.
	j.Steps[0].Kind = "tampered"
	if j2, _ := s.Get(3); j2.Steps[0].Kind != StepSubmitted {
		t.Fatal("Get leaked internal step slice")
	}
}

func TestJourneyFIFOEviction(t *testing.T) {
	s := NewJourneyStore(3, 8)
	defer s.Close()
	for job := 0; job < 5; job++ {
		s.Record(job, JourneyStep{Kind: StepSubmitted, Node: -1, Dest: -1})
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want the cap 3", s.Len())
	}
	for _, evicted := range []int{0, 1} {
		if _, ok := s.Get(evicted); ok {
			t.Fatalf("job %d survived past the cap", evicted)
		}
	}
	sums := s.Summaries()
	if len(sums) != 3 || sums[0].Job != 2 || sums[2].Job != 4 {
		t.Fatalf("summaries = %+v, want jobs 2..4 oldest first", sums)
	}
}

func TestJourneyStepCapTruncates(t *testing.T) {
	s := NewJourneyStore(4, 8)
	defer s.Close()
	for i := 0; i < journeyStepCap+10; i++ {
		s.Record(1, JourneyStep{T: float64(i), Kind: StepRequeued, Node: -1, Dest: -1})
	}
	j, _ := s.Get(1)
	if len(j.Steps) != journeyStepCap {
		t.Fatalf("stored %d steps, want the cap %d", len(j.Steps), journeyStepCap)
	}
	if !j.Truncated {
		t.Fatal("over-cap journey not marked truncated")
	}
	// A terminal step past the cap still lands in the summary fields.
	s.Record(1, JourneyStep{T: 9999, Kind: StepViolated, Node: 0, Dest: -1,
		Satisfaction: 40, EnergyKWh: 1.5})
	j, _ = s.Get(1)
	if j.Outcome != StepViolated || j.Satisfaction != 40 || j.EnergyKWh != 1.5 {
		t.Fatalf("terminal step past cap lost: %+v", j)
	}
}

// TestJourneyStagedWhyScores: actions staged from a round trace attach
// to the next placed/migrate steps of the matching jobs, in FIFO order
// per job, and never to other step kinds.
func TestJourneyStagedWhyScores(t *testing.T) {
	s := NewJourneyStore(8, 8)
	defer s.Close()
	s.StageActions([]ActionTrace{
		{Kind: "place", VM: 1, From: -1, To: 4, Gain: -2.5},
		{Kind: "migrate", VM: 1, From: 4, To: 7, Gain: -1.0},
		{Kind: "place", VM: 2, From: -1, To: 5, Gain: -3.0},
	})
	s.Record(1, JourneyStep{Kind: StepSubmitted, Node: -1, Dest: -1})
	s.Record(1, JourneyStep{Kind: StepPlaced, Node: 4, Dest: -1})
	s.Record(1, JourneyStep{Kind: StepMigrate, Node: 4, Dest: 7})
	s.Record(2, JourneyStep{Kind: StepPlaced, Node: 5, Dest: -1})

	j1, _ := s.Get(1)
	if j1.Steps[0].Why != nil {
		t.Fatal("submitted step got a why-score")
	}
	if w := j1.Steps[1].Why; w == nil || w.To != 4 || w.Gain != -2.5 {
		t.Fatalf("placed why = %+v", j1.Steps[1].Why)
	}
	if w := j1.Steps[2].Why; w == nil || w.Kind != "migrate" || w.To != 7 {
		t.Fatalf("migrate why = %+v", j1.Steps[2].Why)
	}
	j2, _ := s.Get(2)
	if w := j2.Steps[0].Why; w == nil || w.To != 5 {
		t.Fatalf("job 2 why = %+v", w)
	}

	// A new round's staging replaces leftovers entirely.
	s.StageActions(nil)
	s.Record(1, JourneyStep{Kind: StepMigrate, Node: 7, Dest: 9})
	j1, _ = s.Get(1)
	if j1.Steps[3].Why != nil {
		t.Fatal("stale staged action survived a new round")
	}
}

// TestJourneyFirehose: every recorded step is emitted on the firehose
// with ascending sequence numbers and the flattened wire shape, and
// Snapshot(since) resumes without gaps or duplicates.
func TestJourneyFirehose(t *testing.T) {
	s := NewJourneyStore(4, 16)
	defer s.Close()
	sub, backlog, _ := s.Subscribe(0)
	defer s.Unsubscribe(sub)
	if len(backlog) != 0 {
		t.Fatalf("fresh store has backlog of %d", len(backlog))
	}
	s.Record(7, JourneyStep{T: 1, Kind: StepSubmitted, Node: -1, Dest: -1})
	s.Record(7, JourneyStep{T: 2, Kind: StepPlaced, Node: 3, Dest: -1})

	for i, wantKind := range []string{StepSubmitted, StepPlaced} {
		ev := <-sub.Ch
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d seq = %d", i, ev.Seq)
		}
		var wire struct {
			Seq  uint64 `json:"seq"`
			Job  int    `json:"job"`
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(ev.Data, &wire); err != nil {
			t.Fatalf("firehose payload: %v", err)
		}
		if wire.Job != 7 || wire.Kind != wantKind || wire.Seq != ev.Seq {
			t.Fatalf("wire = %+v, want job 7 kind %s", wire, wantKind)
		}
	}

	if evs := s.Snapshot(1); len(evs) != 1 || evs[0].Seq != 2 {
		t.Fatalf("Snapshot(1) = %d events", len(evs))
	}
	if s.Seq() != 2 {
		t.Fatalf("Seq = %d", s.Seq())
	}
}

// A full store hands a new job the oldest record's slot: the evicted
// job is gone from every read surface, the newcomer starts with none of
// its predecessor's steps, outcome or truncation — even when those had
// outgrown the slot's inline steps — and claiming the slot, storage
// reused, allocates nothing.
func TestJourneyEvictionReusesOldestSlot(t *testing.T) {
	const depth = 3
	s := NewJourneyStore(depth, 8)
	defer s.Close()
	for i := 0; i < journeyStepCap+1; i++ { // job 0 outgrows its inline steps and the cap
		s.Record(0, JourneyStep{T: float64(i), Kind: StepRequeued, Node: -1, Dest: -1})
	}
	s.Record(0, JourneyStep{T: 100, Kind: StepViolated, Node: 1, Dest: -1, Satisfaction: 10, EnergyKWh: 2})
	for job := 1; job < depth; job++ {
		s.Record(job, JourneyStep{Kind: StepSubmitted, Node: -1, Dest: -1})
	}

	s.Record(depth, JourneyStep{T: 7, Kind: StepSubmitted, Node: -1, Dest: -1})
	if _, ok := s.Get(0); ok {
		t.Fatal("the oldest job survived a new job past the cap")
	}
	j, ok := s.Get(depth)
	if !ok || len(j.Steps) != 1 || j.Steps[0].T != 7 || j.Truncated || j.Outcome != "" || j.EnergyKWh != 0 || j.Satisfaction != 0 {
		t.Fatalf("new job in a reused slot = %+v (found %v), want one fresh step", j, ok)
	}
	if sums := s.Summaries(); len(sums) != depth || sums[0].Job != 1 || sums[depth-1].Job != depth {
		t.Fatalf("summaries = %+v, want jobs 1..%d oldest first", sums, depth)
	}

	job := depth + 1
	if n := testing.AllocsPerRun(100, func() {
		s.Record(job, JourneyStep{Kind: StepSubmitted, Node: -1, Dest: -1})
		job++
	}); n != 0 {
		t.Fatalf("a new job's first step in a full store allocates %.0f objects, want 0", n)
	}
	if s.Len() != depth {
		t.Fatalf("Len = %d, want the cap %d", s.Len(), depth)
	}
}

// One writer wrapping the slot ring several times against concurrent
// readers: every record a reader gets is one job's own, whole, and a
// copy — never a slot caught mid-reuse. Run under -race.
func TestJourneyConcurrentReadersAcrossReuse(t *testing.T) {
	const depth, jobs, steps = 70, 700, 8 // two chunks; steps outgrow the inline array
	s := NewJourneyStore(depth, 8)
	defer s.Close()
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
				for _, sum := range s.Summaries() {
					j, ok := s.Get(sum.Job)
					if !ok {
						continue // evicted since the summary
					}
					for i, st := range j.Steps {
						if st.T != float64(j.Job) || st.Node != i {
							t.Errorf("job %d step %d = %+v: not its own", j.Job, i, st)
							return
						}
					}
					if len(j.Steps) > 0 {
						j.Steps[0].T = -1 // a copy: the next read must not see this
					}
				}
			}
		}()
	}
	for job := 0; job < jobs; job++ {
		for i := 0; i < steps; i++ {
			s.Record(job, JourneyStep{T: float64(job), Kind: StepRequeued, Node: i, Dest: -1})
		}
	}
	close(done)
	wg.Wait()
	if s.Len() != depth {
		t.Fatalf("Len = %d, want %d", s.Len(), depth)
	}
}

// A step after a job's first — within the lifecycle a new record is
// sized for, no why-score attached, nobody tailing the firehose — costs
// the event loop no allocation: no marshal, no steps regrowth.
func TestJourneyRecordNonFirstStepDoesNotAllocate(t *testing.T) {
	const runs = 100
	s := NewJourneyStore(2*runs, 8)
	defer s.Close()
	for job := 0; job <= runs; job++ { // AllocsPerRun warms up with one extra call
		s.Record(job, JourneyStep{Kind: StepSubmitted, Node: -1, Dest: -1})
	}
	job := 0
	if n := testing.AllocsPerRun(runs, func() {
		s.Record(job, JourneyStep{T: 5, Kind: StepRunning, Node: 3, Dest: -1})
		job++
	}); n != 0 {
		t.Fatalf("Record of a non-first step allocates %.0f objects, want 0", n)
	}
}
