package workload

import (
	"bytes"
	"testing"
)

// The trace readers are the daemon's untrusted-input surface (operator
// files, but also anything piped into the CLIs), so each parser gets a
// fuzz target with the same contract: never panic, and any trace the
// parser accepts must be non-empty, pass Validate, and survive a
// serialize→reparse round trip. Seed corpora live in testdata/fuzz.

// checkAcceptedTrace enforces the parser output contract.
func checkAcceptedTrace(t *testing.T, tr *Trace) {
	t.Helper()
	if tr == nil || tr.Len() == 0 {
		t.Fatal("parser accepted an empty trace")
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("parser accepted an invalid trace: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatalf("accepted trace does not serialize: %v", err)
	}
	tr2, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("serialized trace does not reparse: %v", err)
	}
	if tr2.Len() != tr.Len() {
		t.Fatalf("round trip changed job count: %d -> %d", tr.Len(), tr2.Len())
	}
}

func FuzzReadCSV(f *testing.F) {
	f.Add([]byte("id,name,submit_s,duration_s,cpu_pct,mem_units,deadline_factor,fault_tolerance,arch,hypervisor\n" +
		"0,job-a,0.000,600.000,100.0,5.00,1.5000,0.0000,,\n" +
		"1,job-b,60.000,1200.000,200.0,10.00,2.0000,0.0500,x86_64,xen\n"))
	f.Add([]byte("id,name,submit_s,duration_s,cpu_pct,mem_units,deadline_factor,fault_tolerance,arch,hypervisor\n")) // header only
	f.Add([]byte("id,name,submit_s,duration_s,cpu_pct,mem_units,deadline_factor,fault_tolerance,arch,hypervisor\n" +
		"0,a,100.000,600.000,100.0,5.00,1.5000,0.0000,,\n" +
		"1,b,50.000,600.000,100.0,5.00,1.5000,0.0000,,\n")) // out of order
	f.Add([]byte("id,name,submit_s,duration_s,cpu_pct,mem_units,deadline_factor,fault_tolerance,arch,hypervisor\n" +
		"0,a,NaN,600.000,1e309,5.00,1.5000,0.0000,,\n")) // numeric edge cases
	f.Add([]byte(`not,a,trace`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkAcceptedTrace(t, tr)
	})
}

func FuzzReadGWF(f *testing.F) {
	f.Add([]byte("# gwf comment\n0 0 0 600 2 0 0 2 600 0 1\n1 60 0 1200 4 0 0 4 1200 0 1\n"))
	f.Add([]byte("0 100 0 600 2\n1 50 0 600 2\n"))  // out of order
	f.Add([]byte("0 0 0 -600 2\n"))                 // cancelled job only
	f.Add([]byte("0 Inf 0 600 2\n1 NaN 0 600 2\n")) // numeric edge cases
	f.Add([]byte("; swf-style comment\nx 0 0 600 2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadGWF(bytes.NewReader(data), ConvertOptions{})
		if err != nil {
			return
		}
		checkAcceptedTrace(t, tr)
	})
}

func FuzzReadSWF(f *testing.F) {
	f.Add([]byte("; SWF header\n0 0 0 600 2 0 0 2 600 0 1\n1 60 0 1200 4 0 0 4 1200 0 1\n"))
	f.Add([]byte("1 90 0 600 2\n0 10 0 600 2\n")) // unsorted: must be rejected, never reordered
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadSWF(bytes.NewReader(data), ConvertOptions{})
		if err != nil {
			return
		}
		checkAcceptedTrace(t, tr)
	})
}
