package energysched

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"energysched/internal/workload"
)

// The client half of the wire fixtures. internal/server pins the bodies
// the daemon serves in internal/server/testdata/golden (wire_*.json,
// TestWireSurfacesGolden); here a fake daemon serves the same files and
// the client must decode each into the value written out below. A codec
// change breaks the side of the wire that drifted.

// goldenReply is one pinned answer: the status line's code and the body.
func goldenReply(t *testing.T, name string) (int, []byte) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("internal", "server", "testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	code, body, ok := bytes.Cut(data, []byte(" "))
	status, err := strconv.Atoi(string(code))
	if !ok || err != nil {
		t.Fatalf("%s does not start with a status", name)
	}
	return status, body
}

// fakeDaemon serves each route's golden file and returns a client for it.
func fakeDaemon(t *testing.T, routes map[string]string) *Client {
	t.Helper()
	mux := http.NewServeMux()
	for route, name := range routes {
		status, body := goldenReply(t, name)
		mux.HandleFunc(route, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			w.Write(body)
		})
	}
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return NewClient(hs.URL)
}

// escapedJob is the golden run's one job whose name needs every kind of
// escape and whose numbers take every float form.
var escapedJob = JobStatus{
	ID: 40, Name: "α&β <x> \"q\" \\ \u2028 \t\u0001\ufffd", State: "queued", Host: -1,
	Submit: 300, Duration: 600, Deadline: 6e23, Start: -1, Finish: -1,
	CPU: 100.5, Mem: 0.000001, FaultTolerance: 1e-7,
}

// job3 is the golden GET /v1/jobs/3.
var job3 = JobStatus{
	ID: 3, Name: "g5k-3", State: "running", Host: 0, Submit: 120,
	Duration: 588.300096681051, Deadline: 885.5001589007912, ProgressPct: 0.9520845530386307,
	Start: 148.0686422508024, Finish: -1, CPU: 100, Mem: 4.438229164722369,
}

func TestClientDecodesGoldenSubmits(t *testing.T) {
	ctx := context.Background()
	c := fakeDaemon(t, map[string]string{"POST /v1/jobs": "wire_submit.json"})
	if st, err := c.SubmitJob(ctx, JobSpec{CPU: 100, Duration: 600}); err != nil || st != escapedJob {
		t.Fatalf("SubmitJob decoded %+v, %v; want %+v", st, err, escapedJob)
	}

	// The batch is the first 40 jobs of the paper trace the golden run
	// posted, all submitted at 120 s and all still queued.
	gcfg := workload.DefaultGeneratorConfig()
	gcfg.Horizon = 6 * 3600
	gcfg.Seed = 7
	var want []JobStatus
	for i, j := range workload.MustGenerate(gcfg).Jobs[:40] {
		j.Submit = 120
		want = append(want, JobStatus{
			ID: i, Name: j.Name, State: "queued", Host: -1, Submit: 120, Duration: j.Duration,
			Deadline: j.Deadline(), Start: -1, Finish: -1, CPU: j.CPU, Mem: j.Mem, FaultTolerance: j.FaultTolerance,
		})
	}
	c = fakeDaemon(t, map[string]string{"POST /v1/jobs": "wire_submit_batch.json"})
	got, err := c.SubmitJobs(ctx, []JobSpec{{CPU: 100, Duration: 600}})
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("SubmitJobs decoded %+v, %v;\nwant %+v", got, err, want)
	}
}

func TestClientDecodesGoldenJobs(t *testing.T) {
	ctx := context.Background()
	c := fakeDaemon(t, map[string]string{
		"GET /v1/jobs/3": "wire_job.json",
		"GET /v1/jobs":   "wire_jobs.json",
	})
	if st, err := c.Job(ctx, 3); err != nil || st != job3 {
		t.Fatalf("Job decoded %+v, %v; want %+v", st, err, job3)
	}
	jobs, err := c.Jobs(ctx)
	if err != nil || len(jobs) != 41 {
		t.Fatalf("Jobs decoded %d jobs, %v; want 41", len(jobs), err)
	}
	for i, st := range jobs {
		if st.ID != i {
			t.Fatalf("job %d decoded with ID %d", i, st.ID)
		}
	}
	if jobs[3] != job3 || jobs[40] != escapedJob {
		t.Fatalf("Jobs decoded job 3 as %+v and job 40 as %+v", jobs[3], jobs[40])
	}
}

// goldenCluster is the golden GET /v1/cluster: the paper's 100 nodes 300 s
// into the run, the first twelve fast nodes booting for the queue and six
// nodes hosting the batch's first VMs.
func goldenCluster() ClusterStatus {
	st := ClusterStatus{
		Now: 300, NodesOn: 18, NodesWorking: 6, TotalWatts: 4994,
		Queue: []int{6, 8, 9, 10, 11, 12, 13, 15, 16, 18, 19, 20, 21, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 38, 39},
	}
	for id := 0; id < 100; id++ {
		n := NodeStatus{ID: id, Class: "slow", State: "off", Watts: 5}
		switch {
		case id < 15:
			n.Class = "fast"
		case id < 65:
			n.Class = "medium"
		}
		if 1 <= id && id <= 12 {
			n.State, n.Watts = "booting", 230
		}
		st.Nodes = append(st.Nodes, n)
	}
	for id, busy := range map[int]struct {
		vms []int
		mem float64
	}{
		0: {[]int{0, 1, 2, 3}, 19.5805506705659}, 39: {[]int{23}, 19.899270653637327},
		40: {[]int{37}, 19.831175230486046}, 41: {[]int{4, 22}, 16.654866428336597},
		42: {[]int{5, 7}, 20.121099930454093}, 43: {[]int{14, 17}, 20.839473314474148},
	} {
		n := &st.Nodes[id]
		n.State, n.VMs, n.CPUReserved, n.MemReserved, n.Occupation, n.Watts = "on", busy.vms, 400, busy.mem, 1, 304
	}
	return st
}

func TestClientDecodesGoldenCluster(t *testing.T) {
	c := fakeDaemon(t, map[string]string{"GET /v1/cluster": "wire_cluster.json"})
	got, err := c.Cluster(context.Background())
	if want := goldenCluster(); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("Cluster decoded %+v, %v;\nwant %+v", got, err, want)
	}
}

// TestGoldenClusterDecodeAllocs pins what decoding the 100-node cluster
// body costs: the node slice, one slab for every node's VM list, the
// queue, and no string — node classes and states are known values.
// json.Unmarshal spends 232 objects on it, most of them a class or a
// state string per node.
func TestGoldenClusterDecodeAllocs(t *testing.T) {
	_, body := goldenReply(t, "wire_cluster.json")
	var st ClusterStatus
	allocs := testing.AllocsPerRun(100, func() {
		st = ClusterStatus{}
		if err := st.UnmarshalJSON(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Fatalf("decoding the golden cluster allocates %.0f objects, budget 10", allocs)
	}
}

func TestClientDecodesGoldenReports(t *testing.T) {
	live := ServiceReport{
		Policy: "SB", LambdaMin: 30, LambdaMax: 90, AvgWorking: 1.3544277470438935, AvgOnline: 17.36468452447296,
		CPUHours: 0.21355554049784065, EnergyKWh: 0.37490874502385596, JobsTotal: 41, SimEnd: 300,
		Table: "SB     λ=30-90  Work/ON   1.4 / 17.4  CPU      0.2 h  Pwr     0.4 kWh  S   0.0%  delay   0.0%  mig    0",
	}
	final := ServiceReport{
		Policy: "SB", LambdaMin: 30, LambdaMax: 90, AvgWorking: 3.131179584121145, AvgOnline: 7.595388827240096,
		CPUHours: 56.56821346532739, EnergyKWh: 14.156237475441953, Satisfaction: 97.24887103120906,
		Delay: 25.6238509709671, Migrations: 12, JobsCompleted: 41, JobsTotal: 41, SimEnd: 21225.92534415621, Final: true,
		Table: "SB     λ=30-90  Work/ON   3.1 /  7.6  CPU     56.6 h  Pwr    14.2 kWh  S  97.2%  delay  25.6%  mig   12",
	}
	ctx := context.Background()
	c := fakeDaemon(t, map[string]string{"GET /v1/report": "wire_report.json", "POST /v1/drain": "wire_drain.json"})
	if got, err := c.Report(ctx); err != nil || got != live {
		t.Fatalf("Report decoded %+v, %v; want %+v", got, err, live)
	}
	if got, err := c.Drain(ctx); err != nil || got != final {
		t.Fatalf("Drain decoded %+v, %v; want %+v", got, err, final)
	}
	c = fakeDaemon(t, map[string]string{"GET /v1/report": "wire_report_final.json"})
	if got, err := c.Report(ctx); err != nil || got != final {
		t.Fatalf("Report after the drain decoded %+v, %v; want %+v", got, err, final)
	}
}

func TestClientDecodesGoldenErrors(t *testing.T) {
	ctx := context.Background()
	for name, want := range map[string]APIError{
		"wire_error_400.json": {Status: 400, Message: "job 0: workload: job 41 has non-positive duration 0.0"},
		"wire_error_400_type.json": {Status: 400,
			Message: "decoding job spec: json: cannot unmarshal string into Go struct field JobSpec.cpu_pct of type float64"},
		"wire_error_400_batch_type.json": {Status: 400,
			Message: "decoding job batch: json: cannot unmarshal string into Go struct field JobSpec.submit_s of type float64"},
		"wire_error_404.json": {Status: 404, Message: `fleet "a&b<c>" not found`},
		"wire_error_409.json": {Status: 409, Message: "job 0: submit_s 1.000 is in the virtual past (now 300.000)"},
		"wire_error_429.json": {Status: 429, Message: "fleet registry is full (1 of 1); delete a fleet or raise -max-fleets"},
	} {
		c := fakeDaemon(t, map[string]string{"GET /v1/report": name})
		_, err := c.Report(ctx)
		var got *APIError
		if !errors.As(err, &got) || *got != want {
			t.Errorf("%s: Report returned %v; want %+v", name, err, want)
		}
	}
}
