package workload

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// The one arrival loop — GeneratorSource, which Generate collects —
// must match the materializing Generate loop that used to sit beside
// it: these are FNV-64a digests of WriteCSV(MustGenerate(cfg)) computed
// with that loop, before it was deleted. Every byte-identity oracle
// downstream assumes this trace, so drift fails here first.
func TestGeneratorSourceMatchesGenerate(t *testing.T) {
	twoDays := func(seed int64) GeneratorConfig {
		cfg := DefaultGeneratorConfig()
		cfg.Seed = seed
		cfg.Horizon = 2 * 24 * 3600
		return cfg
	}
	for _, tc := range []struct {
		name string
		cfg  GeneratorConfig
		jobs int
		want uint64
	}{
		{"seed 1, 2 days", twoDays(1), 989, 0x453cf1154199b368},
		{"seed 7, 2 days", twoDays(7), 1036, 0x4948190b8f4a92fe},
		{"seed 42, 2 days", twoDays(42), 1294, 0x10f1d48f3b9030d},
		{"canonical week", DefaultGeneratorConfig(), 2714, 0xca05117e33474811},
	} {
		tr := MustGenerate(tc.cfg)
		h := fnv.New64a()
		if err := WriteCSV(h, tr); err != nil {
			t.Fatal(err)
		}
		if tr.Len() != tc.jobs || h.Sum64() != tc.want {
			t.Errorf("%s: %d jobs, digest %#x; want %d jobs, %#x",
				tc.name, tr.Len(), h.Sum64(), tc.jobs, tc.want)
		}
	}
}

// The reorder buffer's high-water mark is bounded by the burst
// backlog, not the horizon: a 28× longer trace must not grow it. This
// is the O(1)-memory property of streaming ingestion.
func TestGeneratorSourceMemoryBounded(t *testing.T) {
	peak := func(days float64) (maxPend, jobs int) {
		cfg := DefaultGeneratorConfig()
		cfg.Horizon = days * 24 * 3600
		src, err := NewGeneratorSource(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := src.Next(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			jobs++
		}
		return src.MaxPending(), jobs
	}
	short, shortJobs := peak(1)
	long, longJobs := peak(28)
	if longJobs < 10*shortJobs {
		t.Fatalf("28-day trace only %d jobs vs %d for one day; generator broken", longJobs, shortJobs)
	}
	// The backlog holds at most a few overlapping bursts (mean burst
	// ≈ 35 jobs spread over seconds), regardless of trace length.
	if long > 512 {
		t.Fatalf("28-day reorder backlog %d; want O(burst), not O(trace)", long)
	}
	if long > 4*short+64 {
		t.Fatalf("backlog grew with the horizon: 1-day peak %d, 28-day peak %d", short, long)
	}
	t.Logf("reorder backlog: 1 day peak %d (%d jobs), 28 days peak %d (%d jobs)",
		short, shortJobs, long, longJobs)
}

// gwfGen lazily synthesizes an arbitrarily long, submit-ordered GWF
// file so the reader-side memory test never holds the input either.
type gwfGen struct {
	rows, next int
	buf        []byte
}

func (g *gwfGen) Read(p []byte) (int, error) {
	for len(g.buf) < len(p) && g.next < g.rows {
		g.buf = append(g.buf, fmt.Sprintf("%d %d 0 %d %d 0 0 1 0 0 1\n",
			g.next, g.next*3, 600+g.next%1800, 1+g.next%4)...)
		g.next++
	}
	if len(g.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(p, g.buf)
	g.buf = g.buf[n:]
	return n, nil
}

// Streaming a 400k-row GWF trace must keep the live heap flat: the
// materialized trace alone would be tens of megabytes, so a small
// peak-delta bound distinguishes O(1) ingestion from buffering.
func TestGWFSourceConstantMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 400k rows")
	}
	const rows = 400_000
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc

	src, err := NewGWFSource(&gwfGen{rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	var peak uint64
	count := 0
	for {
		_, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		count++
		if count%100_000 == 0 {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			if d := ms.HeapAlloc - base; ms.HeapAlloc > base && d > peak {
				peak = d
			}
		}
	}
	if count != rows {
		t.Fatalf("streamed %d jobs, want %d", count, rows)
	}
	if peak > 32<<20 {
		t.Fatalf("peak live-heap delta %d MiB while streaming; ingestion is not O(1)", peak>>20)
	}
	t.Logf("streamed %d rows, peak live-heap delta %d KiB", count, peak>>10)
}

// ReadGWF is ReadAll over the source: a hand-drained GWFSource and the
// materialized trace hold the same jobs, and a file whose submit times
// regress is the same error on both, naming the line.
func TestGWFStreamingMatchesMaterializing(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# synthetic\n")
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&sb, "%d %d 0 %d %d 0 0 1 0 0 1\n", i, 50+i*7, 300+i%900, 1+i%6)
	}
	drain := func(file string) ([]Job, error) {
		src, err := NewGWFSource(strings.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		var jobs []Job
		for {
			j, err := src.Next()
			if err == io.EOF {
				return jobs, nil
			}
			if err != nil {
				return jobs, err
			}
			jobs = append(jobs, j)
		}
	}
	streamed, err := drain(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	materialized, err := ReadGWF(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != 500 || !reflect.DeepEqual(streamed, materialized.Jobs) {
		t.Fatal("streaming and materializing GWF ingestion disagree on a sorted file")
	}

	// Row 501 submits before row 500: both forms stop there.
	unsorted := sb.String() + "500 10 0 600 1 0 0 1 0 0 1\n"
	prefix, serr := drain(unsorted)
	_, merr := ReadGWF(strings.NewReader(unsorted))
	if serr == nil || merr == nil || serr.Error() != merr.Error() {
		t.Fatalf("unsorted file: streaming err %v, materializing err %v; want the same error", serr, merr)
	}
	if len(prefix) != 500 || !strings.Contains(serr.Error(), "line 502") || !strings.Contains(serr.Error(), "out of order") {
		t.Fatalf("unsorted file: %d jobs before %q; want 500 and the offending line", len(prefix), serr)
	}
}

// Satellite: the GWF/SWF readers used to skip rows with negative
// runtimes (and accepted NaN/Inf through ParseFloat), silently
// fabricating a different workload. Corruption is now an error; only
// the archives' zero-runtime/zero-width "cancelled" convention is
// skipped.
func TestGWFRejectsCorruptRows(t *testing.T) {
	good := "1 100 0 600 1 0 0 1 0 0 1\n"
	cases := []struct {
		name, row string
	}{
		{"negative runtime", "2 200 0 -1 1 0 0 1 0 0 1\n"},
		{"negative procs", "2 200 0 600 -2 0 0 1 0 0 1\n"},
		{"negative submit", "2 -50 0 600 1 0 0 1 0 0 1\n"},
		{"NaN runtime", "2 200 0 NaN 1 0 0 1 0 0 1\n"},
		{"Inf submit", "2 +Inf 0 600 1 0 0 1 0 0 1\n"},
		{"NaN procs", "2 200 0 600 nan 0 0 1 0 0 1\n"},
		{"short row", "2 200 0 600\n"},
		{"bad id", "x 200 0 600 1 0 0 1 0 0 1\n"},
	}
	for _, tc := range cases {
		if _, err := ReadGWF(strings.NewReader(good + tc.row)); err == nil {
			t.Errorf("%s: corrupt row accepted", tc.name)
		}
	}
	// Zero runtime / zero procs remain the cancelled-job skip.
	tr, err := ReadGWF(strings.NewReader(good + "2 200 0 0 1 0 0 1 0 0 0\n3 300 0 600 0 0 0 1 0 0 0\n4 400 0 600 1 0 0 1 0 0 1\n"))
	if err != nil {
		t.Fatalf("cancelled rows rejected: %v", err)
	}
	if tr.Len() != 2 {
		t.Fatalf("jobs = %d, want 2 (cancelled rows skipped)", tr.Len())
	}
}

// CSV rows with non-finite numerics parse via ParseFloat but used to
// sail through Validate (every NaN comparison fails open); they must
// be rejected now.
func TestCSVRejectsNonFinite(t *testing.T) {
	hdr := "id,name,submit_s,duration_s,cpu_pct,mem_units,deadline_factor,fault_tolerance,arch,hypervisor\n"
	for _, tc := range []struct{ name, row string }{
		{"NaN duration", "1,a,100.000,NaN,100.0,5.00,1.5000,0.0000,,\n"},
		{"Inf cpu", "1,a,100.000,10.000,+Inf,5.00,1.5000,0.0000,,\n"},
		{"NaN submit", "1,a,NaN,10.000,100.0,5.00,1.5000,0.0000,,\n"},
	} {
		if _, err := ReadCSV(strings.NewReader(hdr + tc.row)); err == nil {
			t.Errorf("%s: non-finite csv row accepted", tc.name)
		}
	}
}

// TraceSource → ReadAll is the identity on a valid trace.
func TestTraceSourceRoundTrip(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.Horizon = 6 * 3600
	orig := MustGenerate(cfg)
	back, err := ReadAll(NewTraceSource(orig))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Jobs, orig.Jobs) {
		t.Fatal("TraceSource round trip altered the trace")
	}
}

// TestJobHeapPopsInSortedOrder: ⟨Submit, ID⟩ is a total order over
// distinct IDs, so whatever the sift details the typed heap must pop
// exactly the sorted sequence — with submit ties, interleaved pushes and
// pops, and duplicates of the submit time throughout.
func TestJobHeapPopsInSortedOrder(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		jobs := make([]Job, n)
		for i, id := range rng.Perm(n) {
			// A handful of distinct submit times: most pairs tie.
			jobs[i] = Job{ID: id, Submit: float64(rng.Intn(1 + n/8)), Name: jobName("j-", id)}
		}
		want := append([]Job(nil), jobs...)
		sort.Slice(want, func(a, b int) bool {
			if want[a].Submit != want[b].Submit {
				return want[a].Submit < want[b].Submit
			}
			return want[a].ID < want[b].ID
		})

		var h jobHeap
		for _, j := range jobs {
			h.push(j)
		}
		for i := range want {
			if got := h.pop(); got != want[i] {
				t.Fatalf("seed %d: pop %d = %+v, want %+v", seed, i, got, want[i])
			}
		}
		if len(h) != 0 {
			t.Fatalf("seed %d: %d jobs left after popping all", seed, len(h))
		}

		// Interleaved, as the generator uses it: pop whatever is at or
		// before a moving clock between pushes. Everything popped so far
		// plus the drain is still the sorted sequence, because a job is
		// only pushed at or after the clock.
		sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].Submit < jobs[b].Submit })
		var popped []Job
		for _, j := range jobs {
			for len(h) > 0 && h[0].Submit < j.Submit {
				popped = append(popped, h.pop())
			}
			h.push(j)
		}
		for len(h) > 0 {
			popped = append(popped, h.pop())
		}
		for i := range want {
			if popped[i] != want[i] {
				t.Fatalf("seed %d interleaved: pop %d = %+v, want %+v", seed, i, popped[i], want[i])
			}
		}
	}
}
