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
//	    wal.log        the fleet's timeline: a snapshot frame, then the
//	                   admission records after it (length-prefixed,
//	                   CRC-checked; see wal.go)
type Manager struct {
	dir  string
	max  int
	logf func(format string, args ...interface{})

	mu      sync.RWMutex
	fleets  map[string]member
	pending map[string]struct{} // ids being created (Open runs unlocked)
	closed  bool
}

// member is one registered fleet beside the config it was opened with:
// the registry's own record of it, and what the manifest stores.
type member struct {
	f   *Fleet
	cfg Config
}

// Options parameterizes the registry.
type Options struct {
	// Dir is the durable root; empty runs every fleet in-memory only.
	Dir string
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

// manifestEntry records one fleet. Config's runtime fields are not
// stored: the durable dir follows from the id, and the SLOs are the
// daemon's (-slo-file), reaching recovered fleets through Options so
// that editing the file takes effect on restart.
type manifestEntry struct {
	ID     string `json:"id"`
	Config Config `json:"config"`
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
		dir: opts.Dir, logf: opts.Logf,
		fleets:  make(map[string]member),
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
		cfg := e.Config.withDefaults()
		cfg.Dir = filepath.Join(m.dir, e.ID)
		cfg.SLOs = opts.SLOs
		cfg.Logf = m.logf
		f, err := Open(e.ID, cfg)
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("recovering %w", Named(e.ID, err))
		}
		m.fleets[e.ID] = member{f, cfg}
	}
	return m, nil
}

// SetMaxFleets installs (or clears, with 0) the cap on the number of
// registered fleets. Create returns 429 at the cap — every fleet is a
// full simulation with its own event loop, so an unbounded registry
// lets any network peer exhaust the process. A manager starts uncapped,
// so recovery and the server's startup seeds run first; fleets already
// registered are never evicted (recovered ones hold durable state), but
// no new fleet is admitted while the registry is at or above the cap.
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
	e, ok := m.fleets[id]
	if !ok {
		return nil, errf(http.StatusNotFound, "fleet %q not found", id)
	}
	return e.f, nil
}

// Create registers and starts a new fleet. With a durable root the
// fleet gets its own WAL directory and the manifest is rewritten
// before Create returns. Open — a potentially expensive recovery
// (WAL replay) — runs outside the registry lock, so
// creating a fleet never stalls lookups of the others; the id is
// reserved while it runs. A pace or a checkpoint interval out of bounds
// is a 400 before anything touches the disk.
func (m *Manager) Create(id string, cfg Config) (*Fleet, error) {
	if err := ValidateID(id); err != nil {
		return nil, err
	}
	if err := cfg.checkBounds(); err != nil {
		return nil, errf(http.StatusBadRequest, "%v", err)
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
	cfg = cfg.withDefaults()
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
	m.fleets[id] = member{f, cfg}
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
	e, ok := m.fleets[id]
	if !ok {
		m.mu.Unlock()
		return errf(http.StatusNotFound, "fleet %q not found", id)
	}
	delete(m.fleets, id)
	err := m.saveManifestLocked()
	m.mu.Unlock()
	// Close outside the lock: draining the fleet's event loop must not
	// block registry lookups of other fleets.
	e.f.Close()
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
	for _, e := range m.fleets {
		out = append(out, e.f)
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
	for _, e := range m.fleets {
		fleets = append(fleets, e.f)
	}
	m.mu.Unlock()
	for _, f := range fleets {
		f.Close()
	}
}

// saveManifestLocked rewrites the manifest atomically; call with
// m.mu held. A no-op without a durable root. Each entry is the config
// the fleet was opened with — the registry's own record, never a read
// of the live fleet.
func (m *Manager) saveManifestLocked() error {
	if m.dir == "" {
		return nil
	}
	manifest := manifestFile{Format: manifestFormat}
	for id, e := range m.fleets {
		manifest.Fleets = append(manifest.Fleets, manifestEntry{ID: id, Config: e.cfg})
	}
	sort.Slice(manifest.Fleets, func(i, j int) bool { return manifest.Fleets[i].ID < manifest.Fleets[j].ID })
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
