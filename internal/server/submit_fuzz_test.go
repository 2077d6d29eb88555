package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzSubmitBody: the job-submit body — one JobSpec object or an array
// of them — is untrusted input. Whatever it holds, handleSubmit never
// panics and never answers 5xx; a 202 admits exactly the body's spec
// count, and a 4xx admits nothing (a batch is atomic). The fleet is
// paced (Pace 1): a max-paced fleet steps its clock to the batch's last
// submit time, so one fuzzed submit_s of 1e300 would be a run of 1e298
// ticks rather than one admission. The seed corpus is checked in under
// testdata/fuzz/FuzzSubmitBody.
func FuzzSubmitBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		srv, err := New(Config{Pace: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		fl, err := srv.Manager().Get(DefaultFleet)
		if err != nil {
			t.Fatal(err)
		}
		jobs := func() int {
			info, err := fl.Info()
			if err != nil {
				t.Fatal(err)
			}
			return info.Jobs
		}

		before := jobs()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		admitted := jobs() - before
		switch code := rec.Code; {
		case code == http.StatusAccepted:
			want := 1
			var specs []json.RawMessage
			if json.Unmarshal(body, &specs) == nil {
				want = len(specs)
			}
			if admitted != want {
				t.Fatalf("202 for %q admitted %d jobs, want the body's %d", body, admitted, want)
			}
		case code >= 400 && code < 500:
			if admitted != 0 {
				t.Fatalf("%d for %q still admitted %d jobs", code, body, admitted)
			}
		default:
			t.Fatalf("status %d for %q: %s", code, body, rec.Body)
		}
	})
}
