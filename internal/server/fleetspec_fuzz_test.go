package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"energysched"
)

// FuzzFleetSpec: the fleet-create body is untrusted input, and a fleet
// is durable state. Whatever the body holds, handleFleetCreate never
// panics and never answers 5xx. A 201 registers the fleet and records
// its id in fleets.json; a 4xx registers nothing, creates no directory
// under the WAL root and leaves fleets.json byte for byte as it was.
// Each created fleet is deleted right away, so a fuzzed pace never gets
// to tick. The seed corpus is checked in under
// testdata/fuzz/FuzzFleetSpec.
func FuzzFleetSpec(f *testing.F) {
	root := f.TempDir()
	srv, err := New(Config{WALDir: root, WALSync: "os", SnapshotDir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	defer srv.Close()
	state := func(t *testing.T) ([]string, []byte) {
		t.Helper()
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		manifest, err := os.ReadFile(filepath.Join(root, "fleets.json"))
		if err != nil {
			t.Fatal(err)
		}
		return names, manifest
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		fleets := srv.Manager().Len()
		dirs, manifest := state(t)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/fleets", bytes.NewReader(body)))
		switch code := rec.Code; {
		case code == http.StatusCreated:
			var info energysched.FleetInfo
			if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
				t.Fatalf("201 for %q carries no fleet: %s", body, rec.Body)
			}
			if !srv.Manager().Has(info.ID) {
				t.Fatalf("201 for %q, but fleet %q is not registered", body, info.ID)
			}
			if _, after := state(t); !bytes.Contains(after, []byte(`"id": "`+info.ID+`"`)) {
				t.Fatalf("201 for %q, but fleets.json does not record %q:\n%s", body, info.ID, after)
			}
			if err := srv.Manager().Delete(info.ID); err != nil {
				t.Fatal(err)
			}
		case code >= 400 && code < 500:
			if n := srv.Manager().Len(); n != fleets {
				t.Fatalf("%d for %q, but the registry went from %d to %d fleets", code, body, fleets, n)
			}
			afterDirs, afterManifest := state(t)
			if !slices.Equal(afterDirs, dirs) {
				t.Fatalf("%d for %q, but the WAL root changed: %v -> %v", code, body, dirs, afterDirs)
			}
			if !bytes.Equal(afterManifest, manifest) {
				t.Fatalf("%d for %q, but fleets.json changed:\n%s", code, body, afterManifest)
			}
		default:
			t.Fatalf("status %d for %q: %s", code, body, rec.Body)
		}
	})
}
