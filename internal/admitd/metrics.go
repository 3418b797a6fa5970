package admitd

import (
	"repro/internal/analysis"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// serverMetrics is the daemon's telemetry plane: every instrument
// the transport, the session actors, the read path, the store and
// the analysis collectors report into, owned by one per-server
// registry (GET /metrics). Hot-path instruments are one-atomic
// counters/histograms — pure atomic adds, no allocation — so the
// lock-free read path stays 0 allocs/op with telemetry enabled;
// occupancy-style values are computed at scrape time from the same
// atomics the handlers already maintain.
type serverMetrics struct {
	reg *telemetry.Registry

	// Transport: per-route request counters (created per route at
	// registration), one latency histogram per path class, and the
	// in-flight gauge.
	inflight *telemetry.Gauge
	latRead  *telemetry.Histogram
	latActor *telemetry.Histogram

	// Actor plane: group-commit drain sizes and snapshot activity.
	drainSize *telemetry.Histogram
	publishes *telemetry.Counter
	forks     *telemetry.Counter

	// stateReadBytes' per-snapshot rendered-body memo (server-wide
	// totals; the per-session split rides the session stats
	// response).
	stateHits   *telemetry.Counter
	stateMisses *telemetry.Counter

	// Fixed-point iteration distribution, observed per read-path
	// probe via the analysis Collector hook (group grain: exact
	// sum/count, buckets at the per-probe mean).
	fpIters *telemetry.Histogram

	// Durability plane: commit-log activity. The counters/histograms
	// are registered unconditionally (zero without -data-dir) so the
	// exposition schema does not depend on configuration; the rates
	// and occupancy series read the wal plane at scrape time.
	walFsyncLat     *telemetry.Histogram
	walRecsPerDrain *telemetry.Histogram
	walPayloadBytes *telemetry.Counter
	walErrors       *telemetry.Counter
	walCheckpoints  *telemetry.Counter

	// Scrape-time aggregate of admission stats: collector totals
	// flushed by closed sessions plus every live session's view.
	agg analysis.AdmissionStats
}

// Histogram shapes. Latencies span 256ns–2.1s in powers of two;
// drain sizes 1–32 (maxDrain); fixed-point iterations 1–4096.
const (
	latMinShift  = 8
	latMaxShift  = 31
	drainMaxLog2 = 5
	fpMaxLog2    = 12
	// Commit-log records staged per drain: a single batch call can
	// append far more than maxDrain records.
	walRecsMaxLog2 = 12
)

func newServerMetrics(store *Store) *serverMetrics {
	reg := telemetry.NewRegistry()
	m := &serverMetrics{reg: reg}

	m.inflight = reg.NewGauge("admitd_http_inflight",
		"Requests currently being served.")
	m.latRead = reg.NewHistogram("admitd_http_request_duration_seconds",
		"Request latency by path class: read is the lock-free snapshot path (try/state/stats/batch try-only), actor the serialized write path.",
		telemetry.UnitSeconds, latMinShift, latMaxShift, telemetry.Label{Key: "path", Value: "read"})
	m.latActor = reg.NewHistogram("admitd_http_request_duration_seconds",
		"Request latency by path class: read is the lock-free snapshot path (try/state/stats/batch try-only), actor the serialized write path.",
		telemetry.UnitSeconds, latMinShift, latMaxShift, telemetry.Label{Key: "path", Value: "actor"})

	m.drainSize = reg.NewHistogram("admitd_group_commit_drain_size",
		"Mailbox calls coalesced per actor drain (one snapshot publish each).",
		telemetry.UnitCount, 0, drainMaxLog2)
	m.publishes = reg.NewCounter("admitd_snapshot_publishes_total",
		"Snapshot publications (drains that committed at least one mutation).")
	m.forks = reg.NewCounter("admitd_snapshot_forks_total",
		"Snapshot forks taken by the lock-free read path.")

	m.stateHits = reg.NewCounter("admitd_state_cache_hits_total",
		"State reads served from the per-snapshot rendered-body memo.")
	m.stateMisses = reg.NewCounter("admitd_state_cache_misses_total",
		"State reads that re-rendered the committed assignment (fresh snapshot sequence).")

	m.fpIters = reg.NewHistogram("admitd_fp_iterations",
		"Fixed-point iterations per solve on the read path (bucketed at per-probe mean; sum and count exact).",
		telemetry.UnitCount, 0, fpMaxLog2)

	// Admission-stats aggregate: refreshed once per scrape so the
	// series below are mutually consistent.
	reg.OnScrape(func() {
		agg := store.coll.Snapshot()
		store.Range(func(sess *Session) {
			if st, err := sess.statsRead(); err == nil {
				agg = agg.Add(st)
			}
		})
		m.agg = agg
	})
	admission := func(name, help string, f func() float64) {
		reg.NewCounterFunc(name, help, f)
	}
	admission("admitd_admission_probes_total",
		"TryPlace/TrySplit probes across all sessions (live and flushed).",
		func() float64 { return float64(m.agg.Probes) })
	admission("admitd_admission_full_tests_total",
		"Full schedulability tests across all sessions.",
		func() float64 { return float64(m.agg.FullTests) })
	admission("admitd_admission_core_tests_total",
		"Single-core admission evaluations requested.",
		func() float64 { return float64(m.agg.CoreTests) })
	admission("admitd_admission_verdict_hits_total",
		"Core tests served from the per-core verdict memo.",
		func() float64 { return float64(m.agg.VerdictHits) })
	admission("admitd_admission_fp_solves_total",
		"Response-time fixed points solved.",
		func() float64 { return float64(m.agg.FPSolves) })
	admission("admitd_admission_fp_iterations_total",
		"Iterations those solves took.",
		func() float64 { return float64(m.agg.FPIterations) })
	admission("admitd_admission_warm_starts_total",
		"Solves a closed-form screen started above zero.",
		func() float64 { return float64(m.agg.WarmStarts) })
	admission("admitd_admission_edf_demand_tests_total",
		"EDF processor-demand tests run.",
		func() float64 { return float64(m.agg.DemandTests) })
	admission("admitd_admission_edf_demand_points_total",
		"Absolute deadlines those tests evaluated the demand at.",
		func() float64 { return float64(m.agg.DemandPoints) })

	// Durability plane (zero-valued without -data-dir).
	m.walFsyncLat = reg.NewHistogram("admitd_wal_fsync_duration_seconds",
		"Commit-log fsync latency (background committer under the group policy, ack-path batches under always).",
		telemetry.UnitSeconds, latMinShift, latMaxShift)
	m.walRecsPerDrain = reg.NewHistogram("admitd_wal_records_per_drain",
		"Commit-log records staged by one actor drain (one commit boundary).",
		telemetry.UnitCount, 0, walRecsMaxLog2)
	m.walPayloadBytes = reg.NewCounter("admitd_wal_payload_bytes_total",
		"Commit-log record payload bytes appended by session mutations.")
	m.walErrors = reg.NewCounter("admitd_wal_errors_total",
		"Commit-log append/fsync/compaction failures (durability degraded, admission unaffected), undecodable checkpoint records and files, and streams recovery refused (bad payload, sequence gap).")
	m.walCheckpoints = reg.NewCounter("admitd_wal_checkpoints_total",
		"Streams a checkpoint round left with their latest checkpoint record in the fresh segment (appended or carried).")
	plane := store.plane
	planeStat := func(f func(*walPlane) float64) func() float64 {
		return func() float64 {
			if plane == nil {
				return 0
			}
			return f(plane)
		}
	}
	walStat := func(f func(wal.Stats) float64) func() float64 {
		return planeStat(func(p *walPlane) float64 { return f(p.stats()) })
	}
	reg.NewCounterFunc("admitd_wal_appends_total",
		"Records appended to the commit logs since open (create/admit/split/remove/delete/checkpoint).",
		walStat(func(s wal.Stats) float64 { return float64(s.Appends) }))
	reg.NewCounterFunc("admitd_wal_fsyncs_total",
		"Commit-log fsyncs since open.",
		walStat(func(s wal.Stats) float64 { return float64(s.Fsyncs) }))
	reg.NewGaugeFunc("admitd_wal_segments",
		"Live commit-log segments across all shards (shrinks as compaction truncates).",
		walStat(func(s wal.Stats) float64 { return float64(s.Segments) }))
	reg.NewGaugeFunc("admitd_wal_bytes",
		"Bytes held by the commit-log segments across all shards.",
		walStat(func(s wal.Stats) float64 { return float64(s.Bytes) }))
	reg.NewCounterFunc("admitd_wal_read_bytes_total",
		"Commit-log segment bytes read back since open: the recovery scan (each segment once) plus audit and restore replays.",
		walStat(func(s wal.Stats) float64 { return float64(s.ReadBytes) }))
	reg.NewGaugeFunc("admitd_wal_recovered_records",
		"Commit-log records the open-time recovery scan verified and kept.",
		planeStat(func(p *walPlane) float64 { return float64(p.recoveredRecords) }))
	reg.NewGaugeFunc("admitd_wal_recovery_truncated_segments",
		"Commit-log segment files the open-time recovery cut at a torn record or dropped whole.",
		planeStat(func(p *walPlane) float64 { return float64(p.truncatedSegments) }))
	reg.NewGaugeFunc("admitd_wal_recovery_dropped_bytes",
		"Commit-log bytes the open-time recovery discarded at and after the first anomaly.",
		planeStat(func(p *walPlane) float64 { return float64(p.droppedBytes) }))
	reg.NewGaugeFunc("admitd_wal_recovered_checkpoints",
		"Checkpoint records among those the open-time recovery scan kept.",
		planeStat(func(p *walPlane) float64 { return float64(p.recoveredCkpts) }))
	reg.NewCounterFunc("admitd_wal_checkpoint_records_total",
		"Checkpoint records appended since open: checkpoint rounds, evictions, shutdown, the checkpoint-file import, and carries.",
		planeStat(func(p *walPlane) float64 { return float64(p.ckptRecords.Load()) }))
	reg.NewCounterFunc("admitd_wal_checkpoints_carried_total",
		"Checkpoint records re-appended unchanged so compaction can drop the segment they sat in.",
		planeStat(func(p *walPlane) float64 { return float64(p.carried.Load()) }))
	reg.NewGaugeFunc("admitd_wal_streams",
		"Live (non-deleted) durable session streams.",
		planeStat(func(p *walPlane) float64 { live, _ := p.streamCounts(); return float64(live) }))
	reg.NewGaugeFunc("admitd_wal_checkpointed_sessions",
		"Durable session streams with a checkpoint record bounding their replay.",
		planeStat(func(p *walPlane) float64 { _, ckpt := p.streamCounts(); return float64(ckpt) }))

	// Store occupancy: live counts from the registry's atomics, plus
	// per-shard map sizes sampled once per scrape.
	reg.NewGaugeFunc("admitd_sessions_live",
		"Live sessions in the store.",
		func() float64 { return float64(store.count.Load()) })
	reg.NewCounterFunc("admitd_sessions_created_total",
		"Sessions ever created.",
		func() float64 { return float64(store.created.Load()) })
	reg.NewCounterFunc("admitd_sessions_evicted_total",
		"Sessions evicted by the LRU cap.",
		func() float64 { return float64(store.evicted.Load()) })
	reg.NewCounterFunc("admitd_sessions_restored_total",
		"Sessions restored from snapshots.",
		func() float64 { return float64(store.restored.Load()) })
	reg.NewCounterFunc("admitd_sessions_deleted_total",
		"Sessions explicitly deleted.",
		func() float64 { return float64(store.deleted.Load()) })
	reg.NewGaugeFunc("admitd_session_tasks",
		"Committed tasks across live sessions (ID-set occupancy).",
		func() float64 {
			var n int64
			store.Range(func(sess *Session) { n += sess.nTasks.Load() })
			return float64(n)
		})
	reg.NewGaugeFunc("admitd_state_memo_sessions",
		"Live sessions holding a rendered state memo.",
		func() float64 {
			var n int64
			store.Range(func(sess *Session) {
				if sess.stateCache.Load() != nil {
					n++
				}
			})
			return float64(n)
		})
	var shardSizes [numShards]int
	reg.OnScrape(func() { store.shardSizes(&shardSizes) })
	for i := range shardSizes {
		i := i
		reg.NewGaugeFunc("admitd_store_shard_sessions",
			"Sessions per store shard (map striping balance).",
			func() float64 { return float64(shardSizes[i]) },
			telemetry.Label{Key: "shard", Value: shardLabel(i)})
	}

	telemetry.RegisterRuntime(reg)
	if plane != nil {
		// What the plane counted while opening, before it had a registry.
		m.walErrors.Add(plane.walErrors.Load())
		plane.met.Store(m)
	}
	return m
}

// routeCounter registers one per-route series of the request-count
// family (called once per route at server construction).
func (m *serverMetrics) routeCounter(route string) *telemetry.Counter {
	return m.reg.NewCounter("admitd_http_requests_total",
		"Requests served, by route.",
		telemetry.Label{Key: "route", Value: route})
}

// fpObserver is the Collector hook attached to every session's
// read-stats collector (allocation-free: one closure per server).
func (m *serverMetrics) fpObserver() func(iterations, solves int64) {
	h := m.fpIters
	return func(iterations, solves int64) { h.ObserveGroup(iterations, solves) }
}

func shardLabel(i int) string {
	// Two digits keep lexical and numeric order identical in scrape
	// output (00..15).
	return string([]byte{'0' + byte(i/10), '0' + byte(i%10)})
}
