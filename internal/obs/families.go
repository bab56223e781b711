package obs

// Canonical metric family names. Instrumented packages and the CLIs
// share these constants so the whole process exposes one coherent
// metric surface; DESIGN.md §8 documents the conventions.
//
// Naming: hetsched_<subsystem>_<quantity>[_total]. Labels:
//   - rung:      fallback-ladder rung ("fresh", "stale", "degraded")
//   - from, to:  ladder transition endpoints
//   - algorithm: scheduler Name() that produced a schedule
//   - op:        directory protocol operation ("query", "snapshot", ...)
const (
	// Resilient directory client (internal/directory.ResilientClient).
	MetricDirectoryRequests    = "hetsched_directory_requests_total"
	MetricDirectoryRetries     = "hetsched_directory_retries_total"
	MetricDirectoryRedials     = "hetsched_directory_redials_total"
	MetricDirectoryStaleServes = "hetsched_directory_stale_serves_total"

	// Directory server (internal/directory.Server).
	MetricDirectoryServerConns    = "hetsched_directory_server_connections_total"
	MetricDirectoryServerRequests = "hetsched_directory_server_requests_total"
	MetricDirectoryStoreVersion   = "hetsched_directory_store_version"

	// Communicator fallback ladder (internal/comm).
	MetricLadderServed      = "hetsched_ladder_served_total"
	MetricLadderTransitions = "hetsched_ladder_transitions_total"

	// Communicator planning (internal/comm).
	MetricCommPlans   = "hetsched_comm_plans_total"
	MetricPlanSeconds = "hetsched_plan_seconds"

	// Schedule quality: t_max/t_lb per produced schedule, by algorithm.
	MetricScheduleQuality = "hetsched_schedule_quality_ratio"

	// Data-plane exchange executor (internal/exec). Labels:
	//   - outcome: how bytes resolved ("delivered", "rerouted",
	//     "abandoned")
	MetricExecTransfers  = "hetsched_exec_transfers_total"
	MetricExecAttempts   = "hetsched_exec_attempts_total"
	MetricExecRetries    = "hetsched_exec_retries_total"
	MetricExecBytes      = "hetsched_exec_bytes_total"
	MetricExecPeerDeaths = "hetsched_exec_peer_deaths_total"
	MetricExecReplans    = "hetsched_exec_replans_total"
	MetricExecWallRatio  = "hetsched_exec_wall_to_modeled_ratio"

	// Closed-loop network calibration (internal/calib). Labels:
	//   - outcome: "accepted" (samples admitted into the fit)
	//   - reason:  why a sample was rejected ("retry", "outcome",
	//     "bounds", "outlier")
	MetricCalibBatches      = "hetsched_calib_batches_total"
	MetricCalibSamples      = "hetsched_calib_samples_total"
	MetricCalibRejects      = "hetsched_calib_rejects_total"
	MetricCalibResets       = "hetsched_calib_resets_total"
	MetricCalibUpdates      = "hetsched_calib_updates_total"
	MetricCalibTrustedPairs = "hetsched_calib_trusted_pairs"
	MetricCalibAdjust       = "hetsched_calib_adjust_ratio"

	// Plan-serving daemon (internal/serve). Labels:
	//   - outcome: request resolution ("served", "shed", "expired",
	//     "draining", "rejected")
	//   - rung:    ladder rung that produced a served plan
	MetricServeConns      = "hetsched_serve_connections_total"
	MetricServeRequests   = "hetsched_serve_requests_total"
	MetricServeCoalesced  = "hetsched_serve_coalesced_total"
	MetricServeCacheHits  = "hetsched_serve_cache_hits_total"
	MetricServeQueueDepth = "hetsched_serve_queue_depth"
	MetricServeInFlight   = "hetsched_serve_inflight"
	MetricServeQueueWait  = "hetsched_serve_queue_wait_seconds"
	MetricServeLatency    = "hetsched_serve_latency_seconds"

	// Tail-sampled request traces (internal/serve + internal/obs).
	// Labels:
	//   - reason: why a span tree was retained ("slow", "shed",
	//     "expired", "error", "draining", "all")
	MetricServeTailRetained = "hetsched_serve_tail_retained_total"
	MetricServeTailDropped  = "hetsched_serve_tail_dropped_total"

	// Flight recorder (internal/obs.FlightRecorder). Unlabeled: the
	// record path must stay allocation-free.
	MetricFlightEvents = "hetsched_flight_events_total"
	MetricFlightDumps  = "hetsched_flight_dumps_total"
)

// standardFamilies lists every canonical family with its metadata.
var standardFamilies = []struct {
	name, help, typ string
	bounds          []float64
}{
	{MetricDirectoryRequests, "Requests made through resilient directory clients.", TypeCounter, nil},
	{MetricDirectoryRetries, "Extra directory attempts after transient failures.", TypeCounter, nil},
	{MetricDirectoryRedials, "Fresh directory connections dialed after the first.", TypeCounter, nil},
	{MetricDirectoryStaleServes, "Directory reads answered from the last-known-good cache.", TypeCounter, nil},
	{MetricDirectoryServerConns, "Connections accepted by the directory server.", TypeCounter, nil},
	{MetricDirectoryServerRequests, "Requests handled by the directory server, by op; a snapshot answered not_modified counts as snapshot_unchanged, not snapshot.", TypeCounter, nil},
	{MetricDirectoryStoreVersion, "Current version of the directory store.", TypeGauge, nil},
	{MetricLadderServed, "Exchanges served, by fallback-ladder rung.", TypeCounter, nil},
	{MetricLadderTransitions, "Fallback-ladder rung changes, by from/to rung.", TypeCounter, nil},
	{MetricCommPlans, "Schedules computed from scratch.", TypeCounter, nil},
	{MetricPlanSeconds, "Wall-clock time spent planning one exchange.", TypeHistogram, nil},
	{MetricScheduleQuality, "Schedule quality t_max/t_lb, by algorithm.", TypeHistogram, nil},
	{MetricExecTransfers, "Executed transfers, by outcome.", TypeCounter, nil},
	{MetricExecAttempts, "Transfer attempts made by the exchange executor.", TypeCounter, nil},
	{MetricExecRetries, "Extra transfer attempts after transient failures.", TypeCounter, nil},
	{MetricExecBytes, "Bytes moved (or abandoned) by the executor, by outcome.", TypeCounter, nil},
	{MetricExecPeerDeaths, "Nodes declared dead mid-exchange.", TypeCounter, nil},
	{MetricExecReplans, "Residual replans performed mid-exchange.", TypeCounter, nil},
	{MetricExecWallRatio, "Measured wall clock over modeled t_max per exchange.", TypeHistogram, nil},
	{MetricCalibBatches, "Sample batches observed by the calibrator.", TypeCounter, nil},
	{MetricCalibSamples, "Transfer samples accepted into the calibration fit.", TypeCounter, nil},
	{MetricCalibRejects, "Transfer samples rejected by the calibration gauntlet, by reason.", TypeCounter, nil},
	{MetricCalibResets, "Per-pair evidence resets after a sustained outlier streak (regime change).", TypeCounter, nil},
	{MetricCalibUpdates, "Trusted pair estimates drained for publication.", TypeCounter, nil},
	{MetricCalibTrustedPairs, "Pairs currently above the trust threshold.", TypeGauge, nil},
	{MetricCalibAdjust, "Published bandwidth estimate over the static prior, per drained update.", TypeHistogram, nil},
	{MetricServeConns, "Connections accepted by the plan-serving daemon.", TypeCounter, nil},
	{MetricServeRequests, "Plan requests resolved, by outcome.", TypeCounter, nil},
	{MetricServeCoalesced, "Plan requests coalesced onto an identical in-flight request.", TypeCounter, nil},
	{MetricServeCacheHits, "Plan requests answered from the versioned plan cache.", TypeCounter, nil},
	{MetricServeQueueDepth, "Plan requests waiting in the admission queue.", TypeGauge, nil},
	{MetricServeInFlight, "Plan requests currently being planned.", TypeGauge, nil},
	{MetricServeQueueWait, "Time plan requests spent queued before a worker picked them up.", TypeHistogram, nil},
	{MetricServeLatency, "End-to-end latency of served plan requests.", TypeHistogram, nil},
	{MetricServeTailRetained, "Request span trees retained by the tail sampler, by reason.", TypeCounter, nil},
	{MetricServeTailDropped, "Request span trees dropped by the tail sampler as uninteresting.", TypeCounter, nil},
	{MetricFlightEvents, "Events recorded by the flight recorder.", TypeCounter, nil},
	{MetricFlightDumps, "Flight-recorder dumps written to disk.", TypeCounter, nil},
}

// DeclareStandard registers metadata for every canonical family so a
// scrape shows the full metric surface — directory, ladder, planning,
// schedule-quality, and simulator families — even before the process
// has exercised them. The CLIs call this when exposing metrics.
func DeclareStandard(r *Registry) {
	if r == nil {
		return
	}
	for _, f := range standardFamilies {
		bounds := f.bounds
		if f.typ == TypeHistogram && bounds == nil {
			bounds = DurationBuckets
			if f.name == MetricScheduleQuality || f.name == MetricExecWallRatio || f.name == MetricCalibAdjust {
				bounds = RatioBuckets
			}
		}
		r.Declare(f.name, f.help, f.typ, bounds)
	}
}
