package energysched

import (
	"energysched/internal/cluster"
	"energysched/internal/vm"
	"energysched/internal/wirejson"
)

// The JSON codec of the API's job, status, cluster, report and error
// records, and of the job lists of the batch submit and GET /v1/jobs.
// Each record has an append encoder (AppendJSON) and a decoder
// (decodeJSON) written against internal/wirejson, and
// MarshalJSON/UnmarshalJSON on top of them, so encoding/json reaches
// the same codec. The bytes are exactly what encoding/json writes for
// the struct tags, and decoding accepts exactly what it accepts: the
// tags declare the format (the decoders' key tables are read from
// them), the code below implements it, and the wire fuzz tests hold the
// two together.

// Values decoded without allocating: every node state, the paper's
// node classes and every job state.
var (
	nodeStates  = []string{cluster.Off.String(), cluster.Booting.String(), cluster.On.String(), cluster.Down.String()}
	nodeClasses = func() (names []string) {
		for _, c := range cluster.PaperClasses() {
			names = append(names, c.Name)
		}
		return names
	}()
	jobStates = func() (names []string) {
		for s := vm.Queued; s <= vm.Failed; s++ {
			names = append(names, s.String())
		}
		return names
	}()
)

var (
	jobSpecKeys       = wirejson.KeysOf[JobSpec]()
	jobStatusKeys     = wirejson.KeysOf[JobStatus]()
	nodeStatusKeys    = wirejson.KeysOf[NodeStatus]()
	clusterStatusKeys = wirejson.KeysOf[ClusterStatus]()
	serviceReportKeys = wirejson.KeysOf[ServiceReport]()
	apiErrorKeys      = wirejson.KeysOf[APIError]()
)

// AppendJSON appends the spec's JSON encoding to b.
func (s JobSpec) AppendJSON(b []byte) ([]byte, error) {
	e := wirejson.Encoder{Buf: append(b, '{')}
	if s.Name != "" {
		e.Raw(`"name":`)
		e.String(s.Name)
		e.Raw(",")
	}
	e.Raw(`"cpu_pct":`)
	e.Float(s.CPU)
	e.Raw(`,"mem_units":`)
	e.Float(s.Mem)
	e.Raw(`,"duration_s":`)
	e.Float(s.Duration)
	if s.Submit != nil {
		e.Raw(`,"submit_s":`)
		e.Float(*s.Submit)
	}
	if s.DeadlineFactor != 0 {
		e.Raw(`,"deadline_factor":`)
		e.Float(s.DeadlineFactor)
	}
	if s.FaultTolerance != 0 {
		e.Raw(`,"fault_tolerance":`)
		e.Float(s.FaultTolerance)
	}
	if s.Arch != "" {
		e.Raw(`,"arch":`)
		e.String(s.Arch)
	}
	if s.Hypervisor != "" {
		e.Raw(`,"hypervisor":`)
		e.String(s.Hypervisor)
	}
	e.Raw("}")
	return e.Buf, e.Err
}

// decodeJSON decodes the value at d's cursor into s.
func (s *JobSpec) decodeJSON(d *wirejson.Decoder) {
	for more := d.Object(jobSpecKeys); more; more = d.More() {
		switch d.Key() {
		case "name":
			d.String(&s.Name, nil)
		case "cpu_pct":
			d.Float(&s.CPU)
		case "mem_units":
			d.Float(&s.Mem)
		case "duration_s":
			d.Float(&s.Duration)
		case "submit_s":
			d.FloatPtr(&s.Submit)
		case "deadline_factor":
			d.Float(&s.DeadlineFactor)
		case "fault_tolerance":
			d.Float(&s.FaultTolerance)
		case "arch":
			d.String(&s.Arch, nil)
		case "hypervisor":
			d.String(&s.Hypervisor, nil)
		default:
			d.Skip()
		}
	}
}

// MarshalJSON implements json.Marshaler.
func (s JobSpec) MarshalJSON() ([]byte, error) { return s.AppendJSON(nil) }

// UnmarshalJSON implements json.Unmarshaler.
func (s *JobSpec) UnmarshalJSON(data []byte) error { return wirejson.Unmarshal(data, s.decodeJSON) }

// AppendJSON appends the status's JSON encoding to b.
func (s JobStatus) AppendJSON(b []byte) ([]byte, error) {
	e := wirejson.Encoder{Buf: append(b, `{"id":`...)}
	e.Int(s.ID)
	if s.Name != "" {
		e.Raw(`,"name":`)
		e.String(s.Name)
	}
	e.Raw(`,"state":`)
	e.String(s.State)
	e.Raw(`,"host":`)
	e.Int(s.Host)
	e.Raw(`,"submit_s":`)
	e.Float(s.Submit)
	e.Raw(`,"duration_s":`)
	e.Float(s.Duration)
	e.Raw(`,"deadline_s":`)
	e.Float(s.Deadline)
	e.Raw(`,"progress_pct":`)
	e.Float(s.ProgressPct)
	e.Raw(`,"start_s":`)
	e.Float(s.Start)
	e.Raw(`,"finish_s":`)
	e.Float(s.Finish)
	e.Raw(`,"migrations":`)
	e.Int(s.Migrations)
	e.Raw(`,"restarts":`)
	e.Int(s.Restarts)
	e.Raw(`,"cpu_pct":`)
	e.Float(s.CPU)
	e.Raw(`,"mem_units":`)
	e.Float(s.Mem)
	if s.FaultTolerance != 0 {
		e.Raw(`,"fault_tolerance":`)
		e.Float(s.FaultTolerance)
	}
	e.Raw("}")
	return e.Buf, e.Err
}

// decodeJSON decodes the value at d's cursor into s.
func (s *JobStatus) decodeJSON(d *wirejson.Decoder) {
	for more := d.Object(jobStatusKeys); more; more = d.More() {
		switch d.Key() {
		case "id":
			d.Int(&s.ID)
		case "name":
			d.String(&s.Name, nil)
		case "state":
			d.String(&s.State, jobStates)
		case "host":
			d.Int(&s.Host)
		case "submit_s":
			d.Float(&s.Submit)
		case "duration_s":
			d.Float(&s.Duration)
		case "deadline_s":
			d.Float(&s.Deadline)
		case "progress_pct":
			d.Float(&s.ProgressPct)
		case "start_s":
			d.Float(&s.Start)
		case "finish_s":
			d.Float(&s.Finish)
		case "migrations":
			d.Int(&s.Migrations)
		case "restarts":
			d.Int(&s.Restarts)
		case "cpu_pct":
			d.Float(&s.CPU)
		case "mem_units":
			d.Float(&s.Mem)
		case "fault_tolerance":
			d.Float(&s.FaultTolerance)
		default:
			d.Skip()
		}
	}
}

// MarshalJSON implements json.Marshaler.
func (s JobStatus) MarshalJSON() ([]byte, error) { return s.AppendJSON(nil) }

// UnmarshalJSON implements json.Unmarshaler.
func (s *JobStatus) UnmarshalJSON(data []byte) error { return wirejson.Unmarshal(data, s.decodeJSON) }

// JobSpecList is a batch of job specs: the body of a batch POST
// /v1/jobs. Decoding one allocates the specs, and their submit times,
// once per batch.
type JobSpecList []JobSpec

// AppendJSON appends the batch's JSON encoding to b.
func (l JobSpecList) AppendJSON(b []byte) ([]byte, error) {
	return wirejson.AppendSlice(b, l, JobSpec.AppendJSON)
}

// MarshalJSON implements json.Marshaler.
func (l JobSpecList) MarshalJSON() ([]byte, error) { return l.AppendJSON(nil) }

// decodeJSON decodes the value at d's cursor into l.
func (l *JobSpecList) decodeJSON(d *wirejson.Decoder) {
	wirejson.Slice(d, (*[]JobSpec)(l), (*JobSpec).decodeJSON)
}

// UnmarshalJSON implements json.Unmarshaler.
func (l *JobSpecList) UnmarshalJSON(data []byte) error { return wirejson.Unmarshal(data, l.decodeJSON) }

// JobStatusList is a list of job statuses: the reply of a batch POST
// /v1/jobs and of GET /v1/jobs.
type JobStatusList []JobStatus

// AppendJSON appends the list's JSON encoding to b.
func (l JobStatusList) AppendJSON(b []byte) ([]byte, error) {
	return wirejson.AppendSlice(b, l, JobStatus.AppendJSON)
}

// MarshalJSON implements json.Marshaler.
func (l JobStatusList) MarshalJSON() ([]byte, error) { return l.AppendJSON(nil) }

// decodeJSON decodes the value at d's cursor into l.
func (l *JobStatusList) decodeJSON(d *wirejson.Decoder) {
	wirejson.Slice(d, (*[]JobStatus)(l), (*JobStatus).decodeJSON)
}

// UnmarshalJSON implements json.Unmarshaler.
func (l *JobStatusList) UnmarshalJSON(data []byte) error {
	return wirejson.Unmarshal(data, l.decodeJSON)
}

// AppendJSON appends the node's JSON encoding to b.
func (n NodeStatus) AppendJSON(b []byte) ([]byte, error) {
	e := wirejson.Encoder{Buf: append(b, `{"id":`...)}
	e.Int(n.ID)
	e.Raw(`,"class":`)
	e.String(n.Class)
	e.Raw(`,"state":`)
	e.String(n.State)
	if len(n.VMs) > 0 {
		e.Raw(`,"vms":`)
		e.Ints(n.VMs)
	}
	e.Raw(`,"cpu_reserved_pct":`)
	e.Float(n.CPUReserved)
	e.Raw(`,"mem_reserved_units":`)
	e.Float(n.MemReserved)
	e.Raw(`,"occupation":`)
	e.Float(n.Occupation)
	e.Raw(`,"watts":`)
	e.Float(n.Watts)
	e.Raw("}")
	return e.Buf, e.Err
}

// decodeJSON decodes the value at d's cursor into n.
func (n *NodeStatus) decodeJSON(d *wirejson.Decoder) {
	for more := d.Object(nodeStatusKeys); more; more = d.More() {
		switch d.Key() {
		case "id":
			d.Int(&n.ID)
		case "class":
			d.String(&n.Class, nodeClasses)
		case "state":
			d.String(&n.State, nodeStates)
		case "vms":
			d.Ints(&n.VMs)
		case "cpu_reserved_pct":
			d.Float(&n.CPUReserved)
		case "mem_reserved_units":
			d.Float(&n.MemReserved)
		case "occupation":
			d.Float(&n.Occupation)
		case "watts":
			d.Float(&n.Watts)
		default:
			d.Skip()
		}
	}
}

// MarshalJSON implements json.Marshaler.
func (n NodeStatus) MarshalJSON() ([]byte, error) { return n.AppendJSON(nil) }

// UnmarshalJSON implements json.Unmarshaler.
func (n *NodeStatus) UnmarshalJSON(data []byte) error { return wirejson.Unmarshal(data, n.decodeJSON) }

// AppendJSON appends the cluster's JSON encoding to b.
func (s ClusterStatus) AppendJSON(b []byte) ([]byte, error) {
	e := wirejson.Encoder{Buf: append(b, `{"now_s":`...)}
	e.Float(s.Now)
	e.Raw(`,"sealed":`)
	e.Bool(s.Sealed)
	e.Raw(`,"done":`)
	e.Bool(s.Done)
	if len(s.Queue) > 0 {
		e.Raw(`,"queue":`)
		e.Ints(s.Queue)
	}
	e.Raw(`,"nodes_on":`)
	e.Int(s.NodesOn)
	e.Raw(`,"nodes_working":`)
	e.Int(s.NodesWorking)
	e.Raw(`,"total_watts":`)
	e.Float(s.TotalWatts)
	e.Raw(`,"nodes":`)
	e.Add(wirejson.AppendSlice(e.Buf, s.Nodes, NodeStatus.AppendJSON))
	e.Raw("}")
	return e.Buf, e.Err
}

// decodeJSON decodes the value at d's cursor into s.
func (s *ClusterStatus) decodeJSON(d *wirejson.Decoder) {
	for more := d.Object(clusterStatusKeys); more; more = d.More() {
		switch d.Key() {
		case "now_s":
			d.Float(&s.Now)
		case "sealed":
			d.Bool(&s.Sealed)
		case "done":
			d.Bool(&s.Done)
		case "queue":
			d.Ints(&s.Queue)
		case "nodes_on":
			d.Int(&s.NodesOn)
		case "nodes_working":
			d.Int(&s.NodesWorking)
		case "total_watts":
			d.Float(&s.TotalWatts)
		case "nodes":
			wirejson.Slice(d, &s.Nodes, (*NodeStatus).decodeJSON)
		default:
			d.Skip()
		}
	}
}

// MarshalJSON implements json.Marshaler.
func (s ClusterStatus) MarshalJSON() ([]byte, error) { return s.AppendJSON(nil) }

// UnmarshalJSON implements json.Unmarshaler.
func (s *ClusterStatus) UnmarshalJSON(data []byte) error {
	return wirejson.Unmarshal(data, s.decodeJSON)
}

// AppendJSON appends the report's JSON encoding to b.
func (r ServiceReport) AppendJSON(b []byte) ([]byte, error) {
	e := wirejson.Encoder{Buf: append(b, `{"policy":`...)}
	e.String(r.Policy)
	e.Raw(`,"lambda_min_pct":`)
	e.Float(r.LambdaMin)
	e.Raw(`,"lambda_max_pct":`)
	e.Float(r.LambdaMax)
	e.Raw(`,"avg_working_nodes":`)
	e.Float(r.AvgWorking)
	e.Raw(`,"avg_online_nodes":`)
	e.Float(r.AvgOnline)
	e.Raw(`,"cpu_hours":`)
	e.Float(r.CPUHours)
	e.Raw(`,"energy_kwh":`)
	e.Float(r.EnergyKWh)
	e.Raw(`,"satisfaction_pct":`)
	e.Float(r.Satisfaction)
	e.Raw(`,"delay_pct":`)
	e.Float(r.Delay)
	e.Raw(`,"migrations":`)
	e.Int(r.Migrations)
	e.Raw(`,"jobs_completed":`)
	e.Int(r.JobsCompleted)
	e.Raw(`,"jobs_total":`)
	e.Int(r.JobsTotal)
	e.Raw(`,"failures":`)
	e.Int(r.Failures)
	e.Raw(`,"sim_end_s":`)
	e.Float(r.SimEnd)
	e.Raw(`,"final":`)
	e.Bool(r.Final)
	e.Raw(`,"table":`)
	e.String(r.Table)
	e.Raw("}")
	return e.Buf, e.Err
}

// decodeJSON decodes the value at d's cursor into r.
func (r *ServiceReport) decodeJSON(d *wirejson.Decoder) {
	for more := d.Object(serviceReportKeys); more; more = d.More() {
		switch d.Key() {
		case "policy":
			d.String(&r.Policy, nil)
		case "lambda_min_pct":
			d.Float(&r.LambdaMin)
		case "lambda_max_pct":
			d.Float(&r.LambdaMax)
		case "avg_working_nodes":
			d.Float(&r.AvgWorking)
		case "avg_online_nodes":
			d.Float(&r.AvgOnline)
		case "cpu_hours":
			d.Float(&r.CPUHours)
		case "energy_kwh":
			d.Float(&r.EnergyKWh)
		case "satisfaction_pct":
			d.Float(&r.Satisfaction)
		case "delay_pct":
			d.Float(&r.Delay)
		case "migrations":
			d.Int(&r.Migrations)
		case "jobs_completed":
			d.Int(&r.JobsCompleted)
		case "jobs_total":
			d.Int(&r.JobsTotal)
		case "failures":
			d.Int(&r.Failures)
		case "sim_end_s":
			d.Float(&r.SimEnd)
		case "final":
			d.Bool(&r.Final)
		case "table":
			d.String(&r.Table, nil)
		default:
			d.Skip()
		}
	}
}

// MarshalJSON implements json.Marshaler.
func (r ServiceReport) MarshalJSON() ([]byte, error) { return r.AppendJSON(nil) }

// UnmarshalJSON implements json.Unmarshaler.
func (r *ServiceReport) UnmarshalJSON(data []byte) error {
	return wirejson.Unmarshal(data, r.decodeJSON)
}

// AppendJSON appends the error body's JSON encoding to b.
func (e APIError) AppendJSON(b []byte) ([]byte, error) {
	enc := wirejson.Encoder{Buf: append(b, `{"status":`...)}
	enc.Int(e.Status)
	enc.Raw(`,"error":`)
	enc.String(e.Message)
	enc.Raw("}")
	return enc.Buf, enc.Err
}

// decodeJSON decodes the value at d's cursor into e.
func (e *APIError) decodeJSON(d *wirejson.Decoder) {
	for more := d.Object(apiErrorKeys); more; more = d.More() {
		switch d.Key() {
		case "status":
			d.Int(&e.Status)
		case "error":
			d.String(&e.Message, nil)
		default:
			d.Skip()
		}
	}
}

// MarshalJSON implements json.Marshaler.
func (e APIError) MarshalJSON() ([]byte, error) { return e.AppendJSON(nil) }

// UnmarshalJSON implements json.Unmarshaler.
func (e *APIError) UnmarshalJSON(data []byte) error { return wirejson.Unmarshal(data, e.decodeJSON) }
