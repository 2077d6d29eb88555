package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"energysched"
	"energysched/internal/wirejson"
	"energysched/internal/workload"
)

// The wire codec against encoding/json. Every record with a codec has a
// method-less mirror below, the same fields under the same tags, which
// encoding/json decodes and encodes by reflection as the codec's
// predecessor did. FuzzWireDecode feeds one input to both: they must
// accept the same inputs, fail with the same class of error (syntax or
// type) and decode to the same values. FuzzWireEncode builds one value
// per record from the input: the codec must write json.Marshal's bytes,
// and refuse what json.Marshal refuses. Both are seeded with the golden
// bodies of internal/server/testdata/golden and the golden log records
// of testdata/golden.

type (
	mirrorJobSpec struct {
		Name           string   `json:"name,omitempty"`
		CPU            float64  `json:"cpu_pct"`
		Mem            float64  `json:"mem_units"`
		Duration       float64  `json:"duration_s"`
		Submit         *float64 `json:"submit_s,omitempty"`
		DeadlineFactor float64  `json:"deadline_factor,omitempty"`
		FaultTolerance float64  `json:"fault_tolerance,omitempty"`
		Arch           string   `json:"arch,omitempty"`
		Hypervisor     string   `json:"hypervisor,omitempty"`
	}
	mirrorJobStatus struct {
		ID             int     `json:"id"`
		Name           string  `json:"name,omitempty"`
		State          string  `json:"state"`
		Host           int     `json:"host"`
		Submit         float64 `json:"submit_s"`
		Duration       float64 `json:"duration_s"`
		Deadline       float64 `json:"deadline_s"`
		ProgressPct    float64 `json:"progress_pct"`
		Start          float64 `json:"start_s"`
		Finish         float64 `json:"finish_s"`
		Migrations     int     `json:"migrations"`
		Restarts       int     `json:"restarts"`
		CPU            float64 `json:"cpu_pct"`
		Mem            float64 `json:"mem_units"`
		FaultTolerance float64 `json:"fault_tolerance,omitempty"`
	}
	mirrorNodeStatus struct {
		ID          int     `json:"id"`
		Class       string  `json:"class"`
		State       string  `json:"state"`
		VMs         []int   `json:"vms,omitempty"`
		CPUReserved float64 `json:"cpu_reserved_pct"`
		MemReserved float64 `json:"mem_reserved_units"`
		Occupation  float64 `json:"occupation"`
		Watts       float64 `json:"watts"`
	}
	mirrorClusterStatus struct {
		Now          float64            `json:"now_s"`
		Sealed       bool               `json:"sealed"`
		Done         bool               `json:"done"`
		Queue        []int              `json:"queue,omitempty"`
		NodesOn      int                `json:"nodes_on"`
		NodesWorking int                `json:"nodes_working"`
		TotalWatts   float64            `json:"total_watts"`
		Nodes        []mirrorNodeStatus `json:"nodes"`
	}
	mirrorServiceReport struct {
		Policy        string  `json:"policy"`
		LambdaMin     float64 `json:"lambda_min_pct"`
		LambdaMax     float64 `json:"lambda_max_pct"`
		AvgWorking    float64 `json:"avg_working_nodes"`
		AvgOnline     float64 `json:"avg_online_nodes"`
		CPUHours      float64 `json:"cpu_hours"`
		EnergyKWh     float64 `json:"energy_kwh"`
		Satisfaction  float64 `json:"satisfaction_pct"`
		Delay         float64 `json:"delay_pct"`
		Migrations    int     `json:"migrations"`
		JobsCompleted int     `json:"jobs_completed"`
		JobsTotal     int     `json:"jobs_total"`
		Failures      int     `json:"failures"`
		SimEnd        float64 `json:"sim_end_s"`
		Final         bool    `json:"final"`
		Table         string  `json:"table"`
	}
	mirrorAPIError struct {
		Status  int    `json:"status"`
		Message string `json:"error"`
	}
	mirrorJob struct {
		ID             int     `json:"id"`
		Name           string  `json:"name,omitempty"`
		Submit         float64 `json:"submit_s"`
		Duration       float64 `json:"duration_s"`
		CPU            float64 `json:"cpu_pct"`
		Mem            float64 `json:"mem_units"`
		DeadlineFactor float64 `json:"deadline_factor"`
		FaultTolerance float64 `json:"fault_tolerance,omitempty"`
		Arch           string  `json:"arch,omitempty"`
		Hypervisor     string  `json:"hypervisor,omitempty"`
	}
	mirrorWALRecord struct {
		Kind string     `json:"kind"`
		Job  *mirrorJob `json:"job,omitempty"`
	}
	mirrorSnapshot struct {
		Format       string      `json:"format"`
		SavedVirtual float64     `json:"saved_virtual_s"`
		Sealed       bool        `json:"sealed"`
		Gen          int64       `json:"gen,omitempty"`
		Config       Sched       `json:"config"`
		Jobs         []mirrorJob `json:"jobs"`
	}
)

// wireCase is one record: its codec's decoder and encoder, and a fresh
// value of the record and of its mirror.
type wireCase struct {
	name           string
	record, mirror func() reflect.Value // pointers to zero values
	decode         func(data []byte, p any) error
	encode         func(p any) ([]byte, error)
}

func newCase[R, M any](name string, decode func(*R, []byte) error, encode func(R) ([]byte, error)) wireCase {
	return wireCase{
		name:   name,
		record: func() reflect.Value { return reflect.ValueOf(new(R)) },
		mirror: func() reflect.Value { return reflect.ValueOf(new(M)) },
		decode: func(data []byte, p any) error { return decode(p.(*R), data) },
		encode: func(p any) ([]byte, error) { return encode(*p.(*R)) },
	}
}

var wireCases = []wireCase{
	newCase[energysched.JobSpec, mirrorJobSpec]("JobSpec", (*energysched.JobSpec).UnmarshalJSON, energysched.JobSpec.MarshalJSON),
	newCase[energysched.JobSpecList, []mirrorJobSpec]("[]JobSpec",
		(*energysched.JobSpecList).UnmarshalJSON, energysched.JobSpecList.MarshalJSON),
	newCase[energysched.JobStatus, mirrorJobStatus]("JobStatus", (*energysched.JobStatus).UnmarshalJSON, energysched.JobStatus.MarshalJSON),
	newCase[energysched.JobStatusList, []mirrorJobStatus]("[]JobStatus",
		(*energysched.JobStatusList).UnmarshalJSON, energysched.JobStatusList.MarshalJSON),
	newCase[energysched.NodeStatus, mirrorNodeStatus]("NodeStatus", (*energysched.NodeStatus).UnmarshalJSON, energysched.NodeStatus.MarshalJSON),
	newCase[energysched.ClusterStatus, mirrorClusterStatus]("ClusterStatus",
		(*energysched.ClusterStatus).UnmarshalJSON, energysched.ClusterStatus.MarshalJSON),
	newCase[energysched.ServiceReport, mirrorServiceReport]("ServiceReport",
		(*energysched.ServiceReport).UnmarshalJSON, energysched.ServiceReport.MarshalJSON),
	newCase[energysched.APIError, mirrorAPIError]("APIError", (*energysched.APIError).UnmarshalJSON, energysched.APIError.MarshalJSON),
	newCase[workload.Job, mirrorJob]("Job", (*workload.Job).UnmarshalJSON, workload.Job.MarshalJSON),
	newCase[walRecord, mirrorWALRecord]("walRecord",
		func(rec *walRecord, data []byte) (err error) { *rec, err = decodeWALRecord(data); return err },
		func(rec walRecord) ([]byte, error) { return rec.appendJSON(nil) }),
	newCase[snapshotFile, mirrorSnapshot]("snapshotFile",
		func(s *snapshotFile, data []byte) error { return json.Unmarshal(data, s) }, snapshotFile.MarshalJSON),
}

// wireSeeds are the golden bodies, without the status the server
// goldens start with, the golden log records, and a few inputs at the
// decoder's corners: repeated and case-folded keys, nulls, escapes,
// type errors.
func wireSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	for _, pattern := range []string{"../server/testdata/golden/wire_*.json", "testdata/golden/wal_*.json", "testdata/golden/snapshot*.json"} {
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			t.Fatalf("no golden files %s: %v", pattern, err)
		}
		for _, name := range files {
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if status, body, ok := bytes.Cut(data, []byte(" ")); ok && len(status) == 3 {
				data = body
			}
			seeds = append(seeds, data)
		}
	}
	return append(seeds,
		[]byte(`{"id":1,"ID":2,"name":"a","name":null,"NAME":"b"}`),
		[]byte(`{"kind":"admit","job":{"id":1,"name":"x"},"job":{"id":2},"job":null,"job":{"arch":"a"}}`),
		[]byte(`{"nodes":[{"id":1,"class":"x","vms":[1,2]}],"nodes":[{"state":"on"}],"nodes":[],"nodes":[{"id":3}]}`),
		[]byte(`[{"submit_s":1,"submit_s":null,"submit_s":2},{"ſubmit_s":3,"cpu_pct":-0,"K":1}]`),
		[]byte(`{"name":"𐀀\ud800xé\\\/\b\f\n\r\t","state":"A"}`),
		[]byte(` {"status":1e2,"error":"x"} `),
		[]byte(`{"migrations":1.5,"cpu_pct":1e400,"vms":[1,"2"]}`),
		[]byte(`{"nodes":[{"id":1},{"vms":[1,"x"]}],"job":{"id":"x"},"unknown":{"id":"x"}}`),
		[]byte(`[{"cpu_pct":1},"x",{"submit_s":"1"}]`),
		[]byte(`{"nodes":{"id":1},"job":"x","queue":{}}`),
		[]byte(`null`),
		[]byte(`[1,[2,{}],{"a":[true,false,null]}]`),
	)
}

func FuzzWireDecode(f *testing.F) {
	for _, seed := range wireSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range wireCases {
			got, want := c.record(), c.mirror()
			errGot := c.decode(data, got.Interface())
			errWant := json.Unmarshal(data, want.Interface())
			if class(errGot) != class(errWant) {
				t.Fatalf("%s: %q: codec error %v (%s), encoding/json error %v (%s)",
					c.name, data, errGot, class(errGot), errWant, class(errWant))
			}
			var typ *json.UnmarshalTypeError
			var wireTyp *wirejson.TypeError
			// A type error names the same value and field. (The snapshot is
			// decoded by encoding/json, which stops at the first error a
			// job's decoder returns and names no outer field for it.)
			if c.name != "snapshotFile" && errors.As(errWant, &typ) && errors.As(errGot, &wireTyp) &&
				(wireTyp.Value != typ.Value || wireTyp.Field != typ.Field) {
				t.Fatalf("%s: %q: codec error %v, encoding/json error %v", c.name, data, errGot, errWant)
			}
			if errWant == nil && !sameValue(got.Elem(), want.Elem()) {
				t.Fatalf("%s: %q decodes to\n%+v\nencoding/json decodes it to\n%+v", c.name, data, got.Elem(), want.Elem())
			}
		}
	})
}

// class names the kind of a decoding error, the same for both codecs.
func class(err error) string {
	var syntax *json.SyntaxError
	var wireSyntax *wirejson.SyntaxError
	var typ *json.UnmarshalTypeError
	var wireTyp *wirejson.TypeError
	switch {
	case err == nil:
		return "none"
	case errors.As(err, &syntax), errors.As(err, &wireSyntax):
		return "syntax"
	case errors.As(err, &typ), errors.As(err, &wireTyp):
		return "type"
	}
	return "other: " + err.Error()
}

// sameValue compares a record with its mirror field by field: the
// types differ, the values must not. Slices must agree on nil too.
func sameValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return a.Interface() == b.Interface()
}

func FuzzWireEncode(f *testing.F) {
	for _, seed := range wireSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &valueSource{data: data}
		for _, c := range wireCases {
			mirror := c.mirror()
			src.fill(mirror.Elem())
			record := c.record()
			copyValue(record.Elem(), mirror.Elem())
			want, errWant := json.Marshal(mirror.Interface())
			got, errGot := c.encode(record.Interface())
			if (errGot == nil) != (errWant == nil) {
				t.Fatalf("%s: %+v: codec error %v, json.Marshal error %v", c.name, mirror.Elem(), errGot, errWant)
			}
			if errWant == nil && !bytes.Equal(got, want) {
				t.Fatalf("%s: %+v encodes to\n%s\njson.Marshal writes\n%s", c.name, mirror.Elem(), got, want)
			}
		}
	})
}

// valueSource fills values from fuzz bytes, and zeros once they run out.
type valueSource struct {
	data []byte
}

func (s *valueSource) byte() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

func (s *valueSource) uint64() uint64 {
	var buf [8]byte
	n := copy(buf[:], s.data)
	s.data = s.data[n:]
	return binary.LittleEndian.Uint64(buf[:])
}

// edgeFloats are the values at the encoder's format boundaries, and the
// ones json.Marshal refuses.
var edgeFloats = []float64{0, math.Copysign(0, -1), 1e-6, 9.999999999999999e-7, 1e-7, 1e21, 9.999999999999999e20,
	1e20, 123456789012345678901, 5e-324, math.MaxFloat64, -1e-7, 0.1, 1.5, -2,
	math.NaN(), math.Inf(1), math.Inf(-1)}

func (s *valueSource) float() float64 {
	switch sel := s.byte(); sel % 4 {
	case 0:
		return math.Float64frombits(s.uint64())
	case 1:
		return float64(int8(s.byte()))
	case 2:
		return float64(int16(s.uint64())) * math.Pow10(int(int8(s.byte()))%25)
	default:
		return edgeFloats[int(sel/4)%len(edgeFloats)]
	}
}

func (s *valueSource) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			s.fill(v.Field(i))
		}
	case reflect.String:
		n := int(s.byte() % 12)
		b := make([]byte, 0, n)
		for i := 0; i < n; i++ {
			b = append(b, s.byte())
		}
		v.SetString(string(b))
	case reflect.Float64:
		v.SetFloat(s.float())
	case reflect.Int, reflect.Int64:
		if b := s.byte(); b%2 == 0 {
			v.SetInt(int64(int8(b)))
		} else {
			v.SetInt(int64(s.uint64()))
		}
	case reflect.Bool:
		v.SetBool(s.byte()%2 == 1)
	case reflect.Pointer:
		if s.byte()%2 == 0 {
			v.SetZero()
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		s.fill(v.Elem())
	case reflect.Slice:
		b := s.byte()
		if b%5 == 0 {
			v.SetZero()
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), int(b%5-1), int(b%5-1)))
		for i := 0; i < v.Len(); i++ {
			s.fill(v.Index(i))
		}
	case reflect.Map:
		v.SetZero() // Sched's classes and the like: not part of the codec
	}
}

// copyValue copies a mirror into its record, field by field.
func copyValue(dst, src reflect.Value) {
	switch src.Kind() {
	case reflect.Struct:
		if dst.Type() == src.Type() {
			dst.Set(src)
			return
		}
		for i := 0; i < src.NumField(); i++ {
			copyValue(dst.Field(i), src.Field(i))
		}
	case reflect.Slice:
		if src.IsNil() {
			dst.SetZero()
			return
		}
		dst.Set(reflect.MakeSlice(dst.Type(), src.Len(), src.Len()))
		for i := 0; i < src.Len(); i++ {
			copyValue(dst.Index(i), src.Index(i))
		}
	case reflect.Pointer:
		if src.IsNil() {
			dst.SetZero()
			return
		}
		dst.Set(reflect.New(dst.Type().Elem()))
		copyValue(dst.Elem(), src.Elem())
	default:
		dst.Set(src.Convert(dst.Type()))
	}
}
