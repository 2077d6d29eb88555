package main

// Route patterns the daemon labels its request histogram with.
const (
	routeSubmit  = "POST /v1/fleets/{fleet}/jobs"
	routeReport  = "GET /v1/fleets/{fleet}/report"
	routeCluster = "GET /v1/fleets/{fleet}/cluster"
	routeJob     = "GET /v1/fleets/{fleet}/jobs/{id}"
)

// recordServerSide rebuilds the server-side levels of one traced
// repetition from the daemon's own counters: rep ⊃ server.http ⊃
// fleet.admit ⊃ {fleet.wal, core.solver_round}. Route histograms are
// daemon-wide, so they are deltas between the two scrapes; the fleet's
// families start at zero with the repetition's fresh fleet.
func (in *serveInstance) recordServerSide(rec *recorder, before, after promScrape) {
	root := in.root
	fleet := []string{"fleet", in.fleetID}

	n, sum := after.histDelta(before, "energysched_http_request_seconds", "route", routeSubmit)
	httpID := rec.aggregate("server.http", root, sum, int(n))
	for _, route := range []string{routeReport, routeCluster, routeJob} {
		n, sum := after.histDelta(before, "energysched_http_request_seconds", "route", route)
		rec.aggregate("server.http_read", root, sum, int(n))
	}
	n, sum = after.histDelta(before, "energysched_admit_batch_seconds", fleet...)
	admitID := rec.aggregate("fleet.admit", httpID, sum, int(n))
	n, sum = after.histDelta(before, "energysched_wal_append_seconds", fleet...)
	rec.aggregate("fleet.wal", admitID, sum, int(n))
	n, sum = after.histDelta(before, "energysched_solver_round_seconds", fleet...)
	rec.aggregate("core.solver_round", admitID, sum, int(n))

	rec.add("fleet.admit_turns", after.delta(before, seriesKey("energysched_admit_merge_turns_total", fleet...)))
	rec.add("fleet.merged_requests", after.delta(before, seriesKey("energysched_admit_merged_requests_total", fleet...)))
	for _, reason := range []string{"rate", "queue"} {
		rec.add("fleet.shed", after.delta(before, seriesKey("energysched_admit_shed_total", "fleet", in.fleetID, "reason", reason)))
	}
	for _, ep := range []string{"report", "cluster"} {
		rec.add("server.coalesce_hits", after.delta(before, seriesKey("energysched_coalesce_total", "endpoint", ep, "result", "hit")))
		rec.add("server.coalesce_misses", after.delta(before, seriesKey("energysched_coalesce_total", "endpoint", ep, "result", "miss")))
	}
}

// recordClientSide folds one traced repetition's client-observed error
// counts into the recorder (the latencies are its client.* spans).
func (in *serveInstance) recordClientSide(rec *recorder) {
	in.mu.Lock()
	defer in.mu.Unlock()
	rec.add("client.conflicts_409", float64(in.calls.conflicts409))
	rec.add("client.throttled_429", float64(in.calls.throttled))
	rec.add("serve.jobs", float64(in.spec.waves*in.spec.perWave))
}

// layers computes a daemon workload's per-layer metrics from the traced
// repetitions. The simulator's layers run inside the daemon's admission
// turns, where nothing outside the program can wrap them: their rows
// stay 0 here (core.solver_round is the part the daemon itself times).
func (in *serveInstance) layers(rec *recorder, out map[string]float64) error {
	jobs := rec.count("serve.jobs")
	perJob := func(us float64) float64 { return ratio(us, jobs) }

	httpUS, httpCalls := rec.total("server.http")
	readUS, reads := rec.total("server.http_read")
	admitUS, _ := rec.total("fleet.admit")
	walUS, walFlushes := rec.total("fleet.wal")
	solverUS, _ := rec.total("core.solver_round")
	turns := rec.count("fleet.admit_turns")

	out["fleet.admit_turns_per_job"] = ratio(turns, jobs)
	out["fleet.admit_us_per_job"] = perJob(admitUS)
	out["fleet.admit_self_us_per_job"] = perJob(admitUS - walUS - solverUS)
	out["fleet.merged_requests_per_turn"] = ratio(rec.count("fleet.merged_requests"), turns)
	out["fleet.solver_round_us_per_job"] = perJob(solverUS)
	out["fleet.shed_total"] = rec.count("fleet.shed")
	out["fleet.wal_flushes_per_job"] = ratio(float64(walFlushes), jobs)
	out["fleet.wal_us_per_job"] = perJob(walUS)
	out["fleet.wal_bytes_per_job"] = in.walBytesPerRecord
	recoverMS := median(rec.durations("fleet.recover")) / 1e3
	out["fleet.recover_ms"] = recoverMS
	out["fleet.recover_us_per_record"] = ratio(recoverMS*1e3, in.recoveredJobs)

	out["server.start_ms"] = median(rec.durations("server.start")) / 1e3
	out["server.http_submit_us_per_job"] = perJob(httpUS)
	out["server.http_submit_self_us_per_job"] = perJob(httpUS - admitUS)
	out["server.http_read_us_per_call"] = ratio(readUS, float64(reads))
	out["server.reads_per_job"] = ratio(float64(reads), jobs)
	hits, misses := rec.count("server.coalesce_hits"), rec.count("server.coalesce_misses")
	out["server.coalesce_shared_ratio"] = ratio(hits, hits+misses)

	submit, read := rec.durations("client.submit"), rec.durations("client.read")
	out["client.submit_p50_us"] = median(submit)
	_, out["client.submit_p99_us"] = tailPercentile(submit)
	out["client.read_p50_us"] = median(read)
	_, out["client.read_p99_us"] = tailPercentile(read)
	var submitSum float64
	for _, us := range submit {
		submitSum += us
	}
	out["client.overhead_us_per_submit"] = ratio(submitSum, float64(len(submit))) - ratio(httpUS, float64(httpCalls))
	out["client.conflicts_409"] = rec.count("client.conflicts_409")
	out["client.throttled_429"] = rec.count("client.throttled_429")

	out["workload.generate_ms"] = median(rec.durations("workload.generate")) / 1e3
	return nil
}
