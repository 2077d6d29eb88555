package obs

import "sync"

// Job journey audit spans: one bounded, append-only lifecycle record
// per job — submitted → placed@node (with the solver's why-scores) →
// each migration → completed/violated — with simulated timestamps and
// attributed energy. Like the trace ring this is a write-only
// wall-clock side channel: the fleet's event loop records steps as the
// simulation emits lifecycle events, nothing in the scheduling path
// reads a journey back, and replayed rounds (crash recovery, restore,
// replication bootstrap) are suppressed by the caller so a record is
// never duplicated.

// Journey step kinds, in lifecycle order.
const (
	StepSubmitted = "submitted"
	StepPlaced    = "placed"
	StepRunning   = "running"
	StepMigrate   = "migrate"
	StepMigrated  = "migrated"
	StepRequeued  = "requeued"
	StepCompleted = "completed"
	StepViolated  = "violated"
)

// JourneyStep is one lifecycle transition of a job, stamped with the
// simulation's virtual time.
type JourneyStep struct {
	// T is the virtual time of the transition, in seconds.
	T float64 `json:"t"`
	// Kind is one of the Step* constants.
	Kind string `json:"kind"`
	// Node is the node involved (-1 when the step is not node-bound:
	// submitted, requeued after a failure).
	Node int `json:"node"`
	// Dest is the migration destination (-1 otherwise).
	Dest int `json:"dest"`
	// Why is the solver's score comparison that caused a placed or
	// migrate step, when decision tracing supplied one.
	Why *ActionTrace `json:"why,omitempty"`
	// Satisfaction is the SLA satisfaction percentage, terminal steps
	// only.
	Satisfaction float64 `json:"satisfaction_pct,omitempty"`
	// EnergyKWh is the energy attributed to the job so far, terminal
	// steps only.
	EnergyKWh float64 `json:"energy_kwh,omitempty"`
}

// Journey is one job's recorded lifecycle.
type Journey struct {
	Job   int           `json:"job"`
	Steps []JourneyStep `json:"steps"`
	// Truncated reports that the per-job step cap was hit and later
	// steps were dropped from the record (the firehose still carried
	// them live).
	Truncated bool `json:"truncated,omitempty"`
	// Outcome is "" while in flight, then "completed" or "violated".
	Outcome string `json:"outcome,omitempty"`
	// EnergyKWh is the host energy attributed to the job.
	EnergyKWh float64 `json:"energy_kwh"`
	// Satisfaction is the SLA satisfaction percentage after completion.
	Satisfaction float64 `json:"satisfaction_pct,omitempty"`
}

// JourneySummary is the steps-free form served by the journeys index.
type JourneySummary struct {
	Job          int     `json:"job"`
	Steps        int     `json:"steps"`
	Truncated    bool    `json:"truncated,omitempty"`
	Outcome      string  `json:"outcome,omitempty"`
	EnergyKWh    float64 `json:"energy_kwh"`
	Satisfaction float64 `json:"satisfaction_pct,omitempty"`
}

// journeyStepsHint sizes a slot's inline steps for the common
// lifecycle — submitted, placed, running, completed plus one migration
// pair — so a typical job's steps never leave the slot.
const journeyStepsHint = 6

// journeySlots is how many records one chunk of a JourneyStore holds.
const journeySlots = 64

// journeySlot is one retained record. Its Steps start in the inline
// array; a job that outgrows it moves them to the heap, and the slot
// keeps whichever capacity it has when a later job reuses it.
type journeySlot struct {
	Journey
	inline [journeyStepsHint]JourneyStep
}

// journeyStepCap bounds one job's record: a job that requeues or
// migrates more often than this keeps its live firehose stream but the
// stored record marks itself Truncated instead of growing without
// bound.
const journeyStepCap = 64

// JourneyEvent is one firehose event
// (GET /v1/fleets/{id}/journeys?follow=1): a lifecycle step flattened
// with its ring sequence number and job ID.
type JourneyEvent struct {
	Seq uint64 `json:"seq"`
	Job int    `json:"job"`
	JourneyStep
}

// EventStep is the SSE event name firehose steps are served under.
const EventStep = "step"

// JourneyStore holds the bounded per-job journey records of one fleet
// plus the SSE firehose: the embedded Ring carries one JourneyEvent
// per recorded step, marshaled only when someone reads it, and is what
// the API tails (Seq, Subscribe, Close).
// Writes come from the fleet's event loop; reads from HTTP handlers.
// Records live in a ring of slots in first-step order, kept in
// fixed-size chunks allocated the first time the ring reaches them:
// a new job takes the oldest slot once maxJobs are retained (FIFO
// eviction) and reuses its step storage, so recording allocates
// nothing but a step's why-score, and readers get deep copies. Memory
// is bounded by maxJobs × the step cap and the firehose ring depth.
type JourneyStore struct {
	*Ring[JourneyEvent]
	mu      sync.Mutex
	maxJobs int
	chunks  [][]journeySlot // slot i lives in chunks[i/journeySlots]
	next    int             // the slot the next new job takes
	n       int             // retained records
	jobs    map[int]int     // job ID → slot
	// pending is the last round's applied actions not yet claimed by a
	// placed/migrate step, in solver order; a claimed entry's VM is -1.
	pending []ActionTrace
}

// NewJourneyStore builds a store retaining the last maxJobs job
// records (default 2048 when <= 0); the firehose ring holds fireDepth
// step events (default 256).
func NewJourneyStore(maxJobs, fireDepth int) *JourneyStore {
	if maxJobs <= 0 {
		maxJobs = 2048
	}
	return &JourneyStore{
		maxJobs: maxJobs,
		chunks:  make([][]journeySlot, (maxJobs+journeySlots-1)/journeySlots),
		jobs:    make(map[int]int),
		Ring:    NewRing(fireDepth, encodeStep),
	}
}

// slotLocked returns slot i, allocating its chunk on first use.
func (s *JourneyStore) slotLocked(i int) *journeySlot {
	c := s.chunks[i/journeySlots]
	if c == nil {
		c = make([]journeySlot, min(journeySlots, s.maxJobs-i/journeySlots*journeySlots))
		s.chunks[i/journeySlots] = c
	}
	return &c[i%journeySlots]
}

// claimLocked gives job the next slot — the oldest record's once the
// store is full — and returns it emptied, its step storage kept.
func (s *JourneyStore) claimLocked(job int) *journeySlot {
	j := s.slotLocked(s.next)
	if s.n == s.maxJobs {
		delete(s.jobs, j.Job)
	} else {
		s.n++
	}
	steps := j.Steps
	if steps == nil {
		steps = j.inline[:0]
	}
	clear(steps) // drop the evicted record's why-scores
	j.Journey = Journey{Job: job, Steps: steps[:0]}
	s.jobs[job] = s.next
	s.next = (s.next + 1) % s.maxJobs
	return j
}

// encodeStep renders a firehose event under its ring sequence number.
func encodeStep(seq uint64, ev JourneyEvent) []byte {
	ev.Seq = seq
	return marshal(&ev)
}

// StageActions replaces the staged why-scores with one round's applied
// actions. The solver emits its round trace before the harness applies
// the plan, so the fleet stages the actions here and the subsequent
// placed/migrate steps consume them in order.
func (s *JourneyStore) StageActions(acts []ActionTrace) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending = append(s.pending[:0], acts...)
}

// Record appends one step to the job's journey, creating the record on
// first sight (evicting the oldest job once maxJobs is reached) and
// attaching a staged why-score to placed/migrate steps. Every step is
// also emitted on the firehose, even past the per-job step cap.
func (s *JourneyStore) Record(job int, st JourneyStep) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var j *journeySlot
	if i, ok := s.jobs[job]; ok {
		j = s.slotLocked(i)
	} else {
		j = s.claimLocked(job)
	}
	if st.Kind == StepPlaced || st.Kind == StepMigrate {
		// A round stages a handful of actions: scan for the job's first
		// unclaimed one.
		for i := range s.pending {
			if s.pending[i].VM == job {
				why := s.pending[i]
				s.pending[i].VM = -1
				st.Why = &why
				break
			}
		}
	}
	if len(j.Steps) >= journeyStepCap {
		j.Truncated = true
	} else {
		j.Steps = append(j.Steps, st)
	}
	if st.Kind == StepCompleted || st.Kind == StepViolated {
		j.Outcome = st.Kind
		j.Satisfaction = st.Satisfaction
		j.EnergyKWh = st.EnergyKWh
	}
	s.Emit(EventStep, JourneyEvent{Job: job, JourneyStep: st})
}

// Get returns a deep copy of the job's journey.
func (s *JourneyStore) Get(job int) (Journey, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.jobs[job]
	if !ok {
		return Journey{}, false
	}
	out := s.slotLocked(i).Journey
	out.Steps = append([]JourneyStep(nil), out.Steps...)
	return out, true
}

// Summaries returns the retained journeys, oldest first, without their
// steps.
func (s *JourneyStore) Summaries() []JourneySummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JourneySummary, 0, s.n)
	for k := 0; k < s.n; k++ {
		j := s.slotLocked((s.next - s.n + k + s.maxJobs) % s.maxJobs)
		out = append(out, JourneySummary{
			Job: j.Job, Steps: len(j.Steps), Truncated: j.Truncated,
			Outcome: j.Outcome, EnergyKWh: j.EnergyKWh, Satisfaction: j.Satisfaction,
		})
	}
	return out
}

// Len returns the number of retained job records.
func (s *JourneyStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}
