package server

import (
	"encoding/csv"
	"net/http"
	"strconv"

	"energysched"
	"energysched/internal/fleet"
	"energysched/internal/obs/series"
)

// Accounting API: the energy/SLA time-series (GET /series), the job
// lifecycle journeys (GET /journeys, GET /jobs/{id}/journey) and the
// SLO burn-rate alerts (GET /v1/alerts). Read-only observability — no
// handler here is write-gated, because all of it is valid on a
// follower and none of it touches replicated state.

// handleSeries serves the fleet's accounting time-series
// (GET /v1/fleets/{id}/series?metric=&since=&step=&format=). Malformed
// query parameters map onto structured 400s; format=csv streams CSV
// for spreadsheet and gnuplot consumers.
func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request, f *fleet.Fleet) {
	qp := r.URL.Query()
	q, err := series.ParseQuery(qp.Get("metric"), qp.Get("since"), qp.Get("step"), qp.Get("format"))
	if err != nil {
		writeErr(w, &fleet.Error{Status: http.StatusBadRequest, Msg: err.Error()})
		return
	}
	// Coalesce on fleet + raw query: concurrent identical series GETs
	// share one store read and one downsample pass.
	samples, _ := coalesce(&s.reads, "series", f.ID()+"\x00"+r.URL.RawQuery, func() ([]series.Sample, error) {
		return f.SeriesSamples(q), nil
	})
	if q.Format == "csv" {
		writeSeriesCSV(w, q, samples)
		return
	}
	body := energysched.SeriesSnapshot{Metric: q.Metric, Count: f.SeriesCount()}
	if q.Metric != "" {
		body.Points = series.Points(samples, q.Metric)
	} else {
		body.Samples = samples
	}
	writeJSON(w, http.StatusOK, body)
}

// writeSeriesCSV renders a series query as CSV: "t,v" rows for a
// single metric, the fleet-wide columns otherwise (the per-class
// breakdown is JSON-only).
func writeSeriesCSV(w http.ResponseWriter, q series.Query, samples []series.Sample) {
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	cw := csv.NewWriter(w)
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fi := func(v int) string { return strconv.Itoa(v) }
	if q.Metric != "" {
		cw.Write([]string{"t", q.Metric})
		for _, p := range series.Points(samples, q.Metric) {
			cw.Write([]string{ff(p.T), ff(p.V)})
		}
		cw.Flush()
		return
	}
	cw.Write([]string{
		"t", "watts", "kwh", "sla_pct", "utilization_pct", "queue", "running",
		"nodes_on", "nodes_working", "nodes_off", "migrations_total", "completed_total",
	})
	for _, smp := range samples {
		cw.Write([]string{
			ff(smp.T), ff(smp.Watts), ff(smp.KWh), ff(smp.SLA), ff(smp.Utilization),
			fi(smp.Queue), fi(smp.Running), fi(smp.On), fi(smp.Working), fi(smp.Off),
			fi(smp.Migrations), fi(smp.Completed),
		})
	}
	cw.Flush()
}

// handleJourney serves one job's lifecycle audit span
// (GET /v1/fleets/{id}/jobs/{jobID}/journey). 404 when no journey was
// recorded — jobs admitted before this daemon started, or evicted from
// the bounded store.
func (s *Server) handleJourney(w http.ResponseWriter, r *http.Request, f *fleet.Fleet) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeErr(w, &fleet.Error{Status: http.StatusBadRequest, Msg: "bad job id"})
		return
	}
	j, err := f.Journey(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, j)
}

// handleJourneys serves the journey index (GET /v1/fleets/{id}/journeys)
// or, with ?follow=1, the SSE firehose of lifecycle steps as they
// commit (Last-Event-ID resumes like /events).
func (s *Server) handleJourneys(w http.ResponseWriter, r *http.Request, f *fleet.Fleet) {
	js := f.Journeys()
	if follows(r) {
		s.serveSSE(w, r, js)
		return
	}
	writeJSON(w, http.StatusOK, energysched.JourneysSnapshot{Seq: js.Seq(), Journeys: js.Summaries()})
}

// handleAlerts serves every fleet's SLO burn-rate verdicts
// (GET /v1/alerts).
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	writeAlerts(w, s.mgr.List())
}

// handleFleetAlerts serves one fleet's verdicts
// (GET /v1/fleets/{id}/alerts).
func (s *Server) handleFleetAlerts(w http.ResponseWriter, r *http.Request, f *fleet.Fleet) {
	writeAlerts(w, []*fleet.Fleet{f})
}

func writeAlerts(w http.ResponseWriter, fleets []*fleet.Fleet) {
	body := energysched.AlertsSnapshot{Alerts: []energysched.FleetAlert{}}
	for _, f := range fleets {
		for _, a := range f.Alerts() {
			if a.State == "firing" {
				body.Firing++
			}
			body.Alerts = append(body.Alerts, energysched.FleetAlert{Fleet: f.ID(), AlertStatus: a})
		}
	}
	writeJSON(w, http.StatusOK, body)
}
