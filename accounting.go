package energysched

import (
	"context"
	"net/http"
	"net/url"
	"strconv"

	"energysched/internal/obs"
	"energysched/internal/obs/series"
	"energysched/internal/obs/slo"
)

// Accounting wire types and client calls: the energy/SLA time-series
// (GET /v1/fleets/{id}/series), the per-job lifecycle journeys
// (GET .../journeys, GET .../jobs/{id}/journey) and the SLO burn-rate
// alerts (GET /v1/alerts). The payload types are aliases of the
// structs the accounting layer records and the server marshals
// (internal/obs, internal/obs/series, internal/obs/slo), where their
// fields are documented; the response envelopes declared here are the
// structs internal/server marshals.

// SeriesSample is one accounting observation at a simulated-interval
// boundary; SeriesClassSample is one node class's slice of it;
// SeriesPoint is one (time, value) pair of a single-metric query.
type (
	SeriesSample      = series.Sample
	SeriesClassSample = series.ClassSample
	SeriesPoint       = series.Point
)

// SeriesSnapshot is the response of GET /v1/fleets/{id}/series: full
// samples by default, (t, v) points when the query named a metric.
type SeriesSnapshot struct {
	// Metric echoes the query's metric selection ("" = full samples).
	Metric string `json:"metric,omitempty"`
	// Count is the number of samples ever recorded, including those
	// evicted from the daemon's bounded ring.
	Count   uint64         `json:"count"`
	Samples []SeriesSample `json:"samples,omitempty"`
	Points  []SeriesPoint  `json:"points,omitempty"`
}

// SeriesQuery selects a slice of the accounting time-series.
type SeriesQuery struct {
	// Metric selects a single metric ("" = full samples): watts, kwh,
	// sla_pct, utilization_pct, queue, running, nodes_on,
	// nodes_working, nodes_off, migrations or completed.
	Metric string
	// Since drops samples before this virtual time (seconds).
	Since float64
	// Step downsamples to one sample per step-second bucket (0 = raw).
	Step float64
}

// JobJourney is one job's recorded lifecycle audit span
// (GET /v1/fleets/{id}/jobs/{jobID}/journey) and JourneyStep one of its
// transitions; JourneySummary is the steps-free form served by the
// journeys index; JourneyEvent is one journey firehose event
// (GET /v1/fleets/{id}/journeys?follow=1): a step flattened with its
// ring sequence number and job ID.
type (
	JobJourney     = obs.Journey
	JourneyStep    = obs.JourneyStep
	JourneySummary = obs.JourneySummary
	JourneyEvent   = obs.JourneyEvent
)

// JourneysSnapshot is the response of GET /v1/fleets/{id}/journeys.
type JourneysSnapshot struct {
	// Seq is the journey firehose's head sequence number.
	Seq      uint64           `json:"seq"`
	Journeys []JourneySummary `json:"journeys"`
}

// AlertStatus is one SLO objective's burn-rate verdict.
type AlertStatus = slo.Alert

// FleetAlert is one objective's verdict tagged with its fleet.
type FleetAlert struct {
	Fleet string `json:"fleet"`
	AlertStatus
}

// AlertsSnapshot is the response of GET /v1/alerts: the number of
// objectives currently firing and every objective's verdict.
type AlertsSnapshot struct {
	Firing int          `json:"firing"`
	Alerts []FleetAlert `json:"alerts"`
}

// Series fetches the fleet's accounting time-series
// (GET /v1/series?metric=&since=&step=).
func (c *Client) Series(ctx context.Context, q SeriesQuery) (SeriesSnapshot, error) {
	params := url.Values{}
	if q.Metric != "" {
		params.Set("metric", q.Metric)
	}
	if q.Since > 0 {
		params.Set("since", strconv.FormatFloat(q.Since, 'g', -1, 64))
	}
	if q.Step > 0 {
		params.Set("step", strconv.FormatFloat(q.Step, 'g', -1, 64))
	}
	path := c.route("/series")
	if enc := params.Encode(); enc != "" {
		path += "?" + enc
	}
	var snap SeriesSnapshot
	err := c.call(ctx, http.MethodGet, path, nil, jsonReply(&snap))
	return snap, err
}

// Journeys fetches the fleet's journey index (GET /v1/journeys).
func (c *Client) Journeys(ctx context.Context) (JourneysSnapshot, error) {
	var snap JourneysSnapshot
	err := c.call(ctx, http.MethodGet, c.route("/journeys"), nil, jsonReply(&snap))
	return snap, err
}

// Journey fetches one job's lifecycle audit span
// (GET /v1/jobs/{id}/journey). 404 when the daemon recorded no journey
// for the job — it was admitted before the daemon started, or evicted
// from the bounded store.
func (c *Client) Journey(ctx context.Context, id int) (JobJourney, error) {
	var j JobJourney
	err := c.call(ctx, http.MethodGet, c.route("/jobs/"+strconv.Itoa(id)+"/journey"), nil, jsonReply(&j))
	return j, err
}

// JourneyTail subscribes to the fleet's journey firehose
// (GET /v1/journeys?follow=1, server-sent events) and calls fn for
// every lifecycle step until ctx is cancelled, the stream ends, or fn
// returns a non-nil error (which is returned). since > 0 replays the
// retained backlog from that sequence number first.
func (c *Client) JourneyTail(ctx context.Context, since uint64, fn func(ev JourneyEvent) error) error {
	return tail(ctx, c, "/journeys?follow=1&since=", since, "journey step",
		func(_ uint64, ev JourneyEvent) error { return fn(ev) })
}

// Alerts fetches the SLO burn-rate verdicts: every fleet's objectives
// on a base client (GET /v1/alerts), one fleet's on a Fleet-scoped
// client (GET /v1/fleets/{id}/alerts).
func (c *Client) Alerts(ctx context.Context) (AlertsSnapshot, error) {
	path := c.url("/v1/alerts")
	if c.prefix != "" {
		path = c.route("/alerts")
	}
	var snap AlertsSnapshot
	err := c.call(ctx, http.MethodGet, path, nil, jsonReply(&snap))
	return snap, err
}
