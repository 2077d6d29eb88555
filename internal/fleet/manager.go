package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"

	"energysched/internal/obs/slo"
)

// Manager is the process-wide fleet registry: it creates, looks up,
// lists and deletes fleets, and — when a durable root directory is
// configured — persists a manifest of fleet configurations so a
// restarted daemon recreates and recovers every fleet.
//
// Layout under the durable root (Options.Dir):
//
//	fleets.json        manifest: ids + configurations
//	<fleet-id>/
//	    wal.log        admission WAL (length-prefixed, CRC-checked)
//	    snapshot.json  last compaction snapshot
type Manager struct {
	dir  string
	max  int
	logf func(format string, args ...interface{})

	mu      sync.RWMutex
	fleets  map[string]*Fleet
	pending map[string]struct{} // ids being created (Open runs unlocked)
	closed  bool
}

// Options parameterizes the registry.
type Options struct {
	// Dir is the durable root; empty runs every fleet in-memory only.
	Dir string
	// MaxFleets caps the number of registered fleets (0 = unlimited).
	// Create returns 429 at the cap — every fleet is a full simulation
	// with its own event loop, so an unbounded registry lets any
	// network peer exhaust the process. Fleets recovered from the
	// manifest are never refused (they were admitted under an earlier
	// cap and hold durable state), but no new fleet is admitted while
	// the registry is at or above the cap.
	MaxFleets int
	// SLOs are the daemon's objectives, handed to every fleet recovered
	// from the manifest (created fleets get them in their Config).
	SLOs []slo.Objective
	// Logf receives manager and fleet log lines.
	Logf func(format string, args ...interface{})
}

// manifestFormat identifies the fleet-manifest layout.
const manifestFormat = "energyschedd-fleets/v1"

// manifestName is the registry manifest inside the durable root.
const manifestName = "fleets.json"

type manifestFile struct {
	Format string          `json:"format"`
	Fleets []manifestEntry `json:"fleets"`
}

type manifestEntry struct {
	ID     string         `json:"id"`
	Config manifestConfig `json:"config"`
}

// manifestConfig is the durable form of a fleet Config: the snapshot
// config plus the service-level knobs a snapshot does not carry. SLOs
// are not here: they are the daemon's (-slo-file) and reach recovered
// fleets through Options, so editing the file takes effect on restart.
type manifestConfig struct {
	snapshotConfig
	Pace             float64 `json:"pace,omitempty"`
	SnapshotDir      string  `json:"snapshot_dir,omitempty"`
	EventRing        int     `json:"event_ring,omitempty"`
	SnapshotInterval int     `json:"snapshot_interval,omitempty"`
	WALSync          string  `json:"wal_sync,omitempty"`
	TraceVerbosity   string  `json:"trace_verbosity,omitempty"`
	TraceDepth       int     `json:"trace_depth,omitempty"`
	SeriesDepth      int     `json:"series_depth,omitempty"`
	JourneyDepth     int     `json:"journey_depth,omitempty"`
	AdmitQueue       int     `json:"admit_queue,omitempty"`
	RateLimit        float64 `json:"rate_limit,omitempty"`
	RateBurst        int     `json:"rate_burst,omitempty"`
}

func toManifestConfig(c Config) manifestConfig {
	return manifestConfig{
		snapshotConfig:   toSnapshotConfig(c),
		Pace:             c.Pace,
		SnapshotDir:      c.SnapshotDir,
		EventRing:        c.EventRing,
		SnapshotInterval: c.SnapshotInterval,
		WALSync:          c.WALSync,
		TraceVerbosity:   c.TraceVerbosity,
		TraceDepth:       c.TraceDepth,
		SeriesDepth:      c.SeriesDepth,
		JourneyDepth:     c.JourneyDepth,
		AdmitQueue:       c.AdmitQueue,
		RateLimit:        c.RateLimit,
		RateBurst:        c.RateBurst,
	}
}

func (mc manifestConfig) config() Config {
	c := Config{
		Pace:             mc.Pace,
		SnapshotDir:      mc.SnapshotDir,
		EventRing:        mc.EventRing,
		SnapshotInterval: mc.SnapshotInterval,
		WALSync:          mc.WALSync,
		TraceVerbosity:   mc.TraceVerbosity,
		TraceDepth:       mc.TraceDepth,
		SeriesDepth:      mc.SeriesDepth,
		JourneyDepth:     mc.JourneyDepth,
		AdmitQueue:       mc.AdmitQueue,
		RateLimit:        mc.RateLimit,
		RateBurst:        mc.RateBurst,
	}
	mc.snapshotConfig.applyTo(&c)
	return c
}

// fleetIDRe constrains fleet ids: they appear in URLs and become
// directory names under the durable root.
var fleetIDRe = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

// ValidateID reports whether id is usable as a fleet identifier.
func ValidateID(id string) error {
	if !fleetIDRe.MatchString(id) || id == manifestName {
		return errf(http.StatusBadRequest,
			"bad fleet id %q: want 1-64 chars of [a-zA-Z0-9._-], starting alphanumeric", id)
	}
	return nil
}

// NewManager builds the registry and — with a durable root — recovers
// every fleet recorded in the manifest.
func NewManager(opts Options) (*Manager, error) {
	m := &Manager{
		dir: opts.Dir, max: opts.MaxFleets, logf: opts.Logf,
		fleets:  make(map[string]*Fleet),
		pending: make(map[string]struct{}),
	}
	if m.dir == "" {
		return m, nil
	}
	if err := os.MkdirAll(m.dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: creating durable root: %w", err)
	}
	manifest, err := readManifest(filepath.Join(m.dir, manifestName))
	if err != nil {
		return nil, err
	}
	for _, e := range manifest.Fleets {
		cfg := e.Config.config()
		cfg.Dir = filepath.Join(m.dir, e.ID)
		cfg.SLOs = opts.SLOs
		cfg.Logf = m.logf
		f, err := Open(e.ID, cfg)
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("fleet: recovering %s: %w", e.ID, err)
		}
		m.fleets[e.ID] = f
	}
	return m, nil
}

// SetMaxFleets installs (or clears, with 0) the registry cap. Exposed
// so the server can exempt its startup seeds: recovery and seeding run
// uncapped, then the cap gates every API-driven Create.
func (m *Manager) SetMaxFleets(n int) {
	m.mu.Lock()
	m.max = n
	m.mu.Unlock()
}

// Has reports whether a fleet with this id exists.
func (m *Manager) Has(id string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.fleets[id]
	return ok
}

// Get looks a fleet up by id.
func (m *Manager) Get(id string) (*Fleet, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	f, ok := m.fleets[id]
	if !ok {
		return nil, errf(http.StatusNotFound, "fleet %q not found", id)
	}
	return f, nil
}

// Create registers and starts a new fleet. With a durable root the
// fleet gets its own WAL directory and the manifest is rewritten
// before Create returns. Open — a potentially expensive recovery
// (snapshot load + WAL replay) — runs outside the registry lock, so
// creating a fleet never stalls lookups of the others; the id is
// reserved while it runs.
func (m *Manager) Create(id string, cfg Config) (*Fleet, error) {
	if err := ValidateID(id); err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if _, ok := m.fleets[id]; ok {
		m.mu.Unlock()
		return nil, errf(http.StatusConflict, "fleet %q already exists", id)
	}
	if _, ok := m.pending[id]; ok {
		m.mu.Unlock()
		return nil, errf(http.StatusConflict, "fleet %q is being created", id)
	}
	if m.max > 0 && len(m.fleets)+len(m.pending) >= m.max {
		m.mu.Unlock()
		// Carry a retry hint like the other 429 paths: capacity frees
		// when a fleet is drained and deleted, so a client RetryPolicy
		// that honors Retry-After backs off instead of hammering.
		return nil, &Error{
			Status: http.StatusTooManyRequests,
			Msg: fmt.Sprintf("fleet registry is full (%d of %d); delete a fleet or raise -max-fleets",
				len(m.fleets), m.max),
			RetryAfter: 1,
		}
	}
	m.pending[id] = struct{}{}
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.pending, id)
		m.mu.Unlock()
	}()

	if m.dir != "" {
		cfg.Dir = filepath.Join(m.dir, id)
	}
	if cfg.Logf == nil {
		cfg.Logf = m.logf
	}
	f, err := Open(id, cfg)
	if err != nil {
		return nil, err
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		f.Close()
		return nil, ErrClosed
	}
	m.fleets[id] = f
	err = m.saveManifestLocked()
	if err != nil {
		delete(m.fleets, id)
	}
	m.mu.Unlock()
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Delete stops a fleet and removes it from the registry, including
// its durable directory — a deleted fleet does not come back on
// restart.
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	f, ok := m.fleets[id]
	if !ok {
		m.mu.Unlock()
		return errf(http.StatusNotFound, "fleet %q not found", id)
	}
	delete(m.fleets, id)
	err := m.saveManifestLocked()
	m.mu.Unlock()
	// Close outside the lock: draining the fleet's event loop must not
	// block registry lookups of other fleets.
	f.Close()
	if m.dir != "" {
		if rerr := os.RemoveAll(filepath.Join(m.dir, id)); rerr != nil && err == nil {
			err = fmt.Errorf("fleet: removing durable dir of %s: %w", id, rerr)
		}
	}
	return err
}

// List returns every fleet, sorted by id.
func (m *Manager) List() []*Fleet {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*Fleet, 0, len(m.fleets))
	for _, f := range m.fleets {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Len returns the number of registered fleets.
func (m *Manager) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.fleets)
}

// Close stops every fleet.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	fleets := make([]*Fleet, 0, len(m.fleets))
	for _, f := range m.fleets {
		fleets = append(fleets, f)
	}
	m.mu.Unlock()
	for _, f := range fleets {
		f.Close()
	}
}

// saveManifestLocked rewrites the manifest atomically; call with
// m.mu held. A no-op without a durable root.
func (m *Manager) saveManifestLocked() error {
	if m.dir == "" {
		return nil
	}
	manifest := manifestFile{Format: manifestFormat}
	ids := make([]string, 0, len(m.fleets))
	for id := range m.fleets {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		manifest.Fleets = append(manifest.Fleets, manifestEntry{
			ID: id, Config: toManifestConfig(m.fleets[id].cfg),
		})
	}
	return publishJSON(filepath.Join(m.dir, manifestName), ".fleets-*.json", "manifest", manifest)
}

// readManifest loads the manifest; a missing file is an empty
// registry.
func readManifest(path string) (manifestFile, error) {
	var manifest manifestFile
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		manifest.Format = manifestFormat
		return manifest, nil
	}
	if err != nil {
		return manifest, fmt.Errorf("fleet: reading manifest: %w", err)
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		return manifest, fmt.Errorf("fleet: decoding manifest %s: %w", path, err)
	}
	if manifest.Format != manifestFormat {
		return manifest, fmt.Errorf("fleet: %s: unsupported manifest format %q", path, manifest.Format)
	}
	return manifest, nil
}
