package main

// layerDef declares one per-layer metric and, written down before
// anything was measured, which end-to-end metric it should move on
// which workload (README "Metric dictionary" prints this column).
type layerDef struct {
	Name, Unit, Better string
	Moves              string
}

// perLayer lists every per-layer metric a -trace 1 run reports, in
// the order BENCHMARK.json declares them. Layers are the repo's
// modules; nethttp is the stdlib transport, proc the Go runtime,
// trace the benchmark's own tracing. A metric whose layer takes no
// part in a workload reads 0 there.
var perLayer = []layerDef{
	{"client.self_ns", "ns", "lower", "ops_per_s, op_p50_us on read_light_inproc; nothing on probe_heavy_inproc"},
	{"client.read_p50_us", "us", "lower", "the read half of op_p50_us (issue: read_p50_us) on every serve workload"},
	{"client.read_p99_us", "us", "lower", "issue: read_p99_us; the read tail behind op_p90_us"},
	{"client.write_p50_us", "us", "lower", "the write half of op_p50_us (issue: write_p50_us); write_durable_inproc"},
	{"client.write_p99_us", "us", "lower", "issue: write_p99_us; shows the 5 ms fsync and 2 s checkpoint spikes on write_durable_inproc that write_p50 hides"},
	{"client.p99_us", "us", "lower", "the tail op_p90_us stands in for: does not repeat within a quarter across runs on a shared host"},
	{"client.p999_us", "us", "lower", "off-headline tail; does not repeat within a tenth on a shared host"},
	{"client.open_p50_us", "us", "lower", "open loop at 3000 req/s from due time (median of slices), mixed_tcp_open; drifts ±15 % with the host's wake-up latency"},
	{"client.open_p90_us", "us", "lower", "as client.open_p50_us"},
	{"client.open_p99_us", "us", "lower", "as client.open_p50_us; one 20–50 ms host stall moves it tenfold"},
	{"client.open_read_p50_us", "us", "lower", "issue: read_p50_us on mixed_tcp_open"},
	{"client.open_read_p99_us", "us", "lower", "issue: read_p99_us on mixed_tcp_open"},
	{"client.open_write_p50_us", "us", "lower", "issue: write_p50_us on mixed_tcp_open"},
	{"client.open_write_p99_us", "us", "lower", "issue: write_p99_us on mixed_tcp_open"},
	{"client.open_cpu_us_per_op", "us", "lower", "issue: cpu_us_per_req at the fixed 3000 req/s: the cost that still moves when the rate is fixed"},
	{"client.p99_us_at_1500", "us", "lower", "off-headline rate on mixed_tcp_open"},
	{"client.p99_us_at_3000", "us", "lower", "first slice of the headline rate on mixed_tcp_open"},
	{"client.p99_us_at_6000", "us", "lower", "off-headline rate on mixed_tcp_open"},
	{"client.p99_us_at_12000", "us", "lower", "off-headline rate on mixed_tcp_open"},
	{"client.p99_us_at_24000", "us", "lower", "near capacity on the reference host: moves before client.max_rate_ok_per_s does"},
	{"client.p99_us_at_48000", "us", "lower", "beyond capacity: the queue the closed loop hides, on mixed_tcp_open"},
	{"client.max_rate_ok_per_s", "1/s", "higher", "issue: max_rate_ok_per_s; moves last, on mixed_tcp_open"},
	{"client.sched_late_p50_us", "us", "lower", "how late the generator's nanosleep wakes, at the headline rate"},
	{"client.sched_late_p99_us", "us", "lower", "validity gauge (median of slices): over the 5 ms latency limit voids the open-loop figures"},
	{"client.open_void", "count", "lower", "1 when generator lateness voided this run's open-loop figures; expect 0"},
	{"nethttp.roundtrip_self_ns", "ns", "lower", "op_p50_us, cpu_us_per_op, ops_per_s on mixed_tcp_open; absent elsewhere"},
	{"nethttp.conns_opened", "count", "lower", "must equal clients + 1 scraper; growth predicts op_p99_us on mixed_tcp_open"},
	{"admitd.handler_read_ns", "ns", "lower", "read half of op_p50_us on every serve workload"},
	{"admitd.handler_write_ns", "ns", "lower", "write half of op_p50_us on every serve workload"},
	{"admitd.handler_unattributed_ns", "ns", "lower", "the part of ops_per_s on read_light_inproc no layer explains yet"},
	{"admitd.store_get_ns", "ns", "lower", "op_p50_us on read_light_inproc"},
	{"admitd.drain_size_mean", "ops", "higher", "op_p50_us, ops_per_s on write_durable_inproc (≈1 says group commit idles)"},
	{"admitd.publishes_per_write", "ratio", "lower", "op_p50_us, ops_per_s on write_durable_inproc"},
	{"admitd.state_cache_hit_ratio", "ratio", "higher", "op_p50_us on read_light_inproc"},
	{"admitd.reject_ratio", "ratio", "lower", "workload-shape gauge: repeats exactly, moves nothing"},
	{"admitd.resident_tasks_mean", "count", "lower", "workload-shape gauge: repeats exactly, moves nothing"},
	{"admitd.scaling_1_to_n", "ratio", "higher", "ops_per_s on read_light_inproc and probe_heavy_inproc (base: 1 client)"},
	{"api.parse_admit_ns", "ns", "lower", "ops_per_s, cpu_us_per_op on read_light_inproc (share ≤ 5 %); nothing elsewhere"},
	{"api.append_admit_ns", "ns", "lower", "as api.parse_admit_ns"},
	{"api.append_verdict_ns", "ns", "lower", "as api.parse_admit_ns"},
	{"api.parse_verdict_ns", "ns", "lower", "as api.parse_admit_ns"},
	{"api.parse_state_ns", "ns", "lower", "as api.parse_admit_ns (state is 18 % of read_light_inproc)"},
	{"api.req_bytes_mean", "bytes", "lower", "cpu_us_per_op on mixed_tcp_open"},
	{"api.resp_bytes_mean", "bytes", "lower", "cpu_us_per_op on mixed_tcp_open"},
	{"api.fast_decline_ratio", "ratio", "lower", "expect 0; a decline sends the request to encoding/json"},
	{"analysis.probes_per_req", "ratio", "lower", "op_p50_us on probe_heavy_inproc; exact"},
	{"analysis.core_tests_per_probe", "ratio", "lower", "op_p50_us on probe_heavy_inproc; exact"},
	{"analysis.verdict_hit_ratio", "ratio", "higher", "high on read_light_inproc's catalog, ≈0 on probe_heavy_inproc by construction"},
	{"analysis.fp_iters_per_solve", "ratio", "lower", "op_p50_us on probe_heavy_inproc; exact"},
	{"analysis.warm_start_ratio", "ratio", "higher", "op_p50_us on probe_heavy_inproc; exact"},
	{"analysis.snap_probe_ns", "ns", "lower", "op_p50_us, ops_per_s on probe_heavy_inproc; ≤ 10 % on read_light_inproc; nothing on mixed_tcp_open"},
	{"analysis.ctx_probe_ns", "ns", "lower", "writer context TryPlace + Rollback: op_p50_us on write_durable_inproc (the sweep's writer contexts are gauged by analysis.sweep_probe_ns)"},
	{"analysis.ctx_commit_ns", "ns", "lower", "writer context first-fit TryPlace + Commit + the Fork publish: op_p50_us on write_durable_inproc"},
	{"wal.append_ns", "ns", "lower", "op_p50_us, ops_per_s on write_durable_inproc; 0 on the four WAL-off workloads"},
	{"wal.appends_per_write", "ratio", "lower", "expect 1.0 on write_durable_inproc"},
	{"wal.payload_bytes_mean", "bytes", "lower", "wal.append_ns, wal.disk_bytes_per_write"},
	{"wal.disk_bytes_per_write", "bytes", "lower", "write amplification: op_p99_us, cpu_us_per_op on write_durable_inproc"},
	{"wal.records_per_drain_mean", "ratio", "higher", "op_p99_us on write_durable_inproc"},
	{"wal.fsyncs_per_s", "1/s", "lower", "cpu_us_per_op on write_durable_inproc"},
	{"wal.fsync_p50_us", "us", "lower", "bucket bound; the sandbox's virtio, not a device claim"},
	{"wal.fsync_p99_us", "us", "lower", "op_p99_us on write_durable_inproc"},
	{"wal.checkpoints", "count", "higher", "several per run: the 2 s checkpoint cycle is inside the measurement, not zero-or-one as at the 30 s default"},
	{"wal.errors", "count", "lower", "expect 0"},
	{"wal.recover_s", "s", "lower", "issue: recover_s; the median restart of recover_durable (its op_p50_us, in seconds)"},
	{"wal.replay_records", "count", "lower", "records in recover_durable's crash image; the base of the two per-record figures"},
	{"wal.replay_ns_per_record", "ns", "lower", "op_p50_us on recover_durable"},
	{"wal.scan_ns_per_record", "ns", "lower", "the wal layer's share of a restart (open, verify and scan the logs, timed directly): op_p50_us on recover_durable"},
	{"telemetry.observe_ns", "ns", "lower", "ops_per_s on read_light_inproc (the Blocking histogram fix removes one atomic per observe)"},
	{"telemetry.scrape_ns", "ns", "lower", "op_p99_us on mixed_tcp_open (the scraped workload)"},
	{"telemetry.scrape_bytes", "bytes", "lower", "telemetry.scrape_ns"},
	{"telemetry.scrapes", "count", "higher", "1 Hz scrapes that landed in mixed_tcp_open"},
	{"telemetry.scrape_torn", "count", "lower", "scrapes that hit the known +Inf/_count tear (ROADMAP Blocking); 0 once fixed"},
	{"proc.allocs_per_req", "count", "lower", "cpu_us_per_op and op_p99_us on every serve workload"},
	{"proc.gc_cycles", "count", "lower", "op_p99_us on every workload"},
	{"proc.gc_pause_ms", "ms", "lower", "op_p99_us on every workload"},
	{"taskgen.set_ns", "ns", "lower", "ops_per_s on sweep_section4"},
	{"partition.set_ns.fpts", "ns", "lower", "ops_per_s on sweep_section4"},
	{"partition.set_ns.ffd", "ns", "lower", "ops_per_s on sweep_section4"},
	{"partition.set_ns.wfd", "ns", "lower", "ops_per_s on sweep_section4"},
	{"partition.set_ns.bfd", "ns", "lower", "ops_per_s on sweep_section4"},
	{"partition.set_ns.spa1", "ns", "lower", "ops_per_s on sweep_section4"},
	{"partition.set_ns.spa2", "ns", "lower", "ops_per_s on sweep_section4"},
	{"partition.set_ns.edfwm", "ns", "lower", "ops_per_s on sweep_section4; the EDF kernel's only gauge"},
	{"partition.set_ns.edfffd", "ns", "lower", "ops_per_s on sweep_section4; the EDF kernel's only gauge"},
	{"partition.set_ns.edfwfd", "ns", "lower", "ops_per_s on sweep_section4; the EDF kernel's only gauge"},
	{"analysis.sweep_probes_per_set", "ratio", "lower", "ops_per_s on sweep_section4; exact"},
	{"analysis.sweep_verdict_hit_ratio", "ratio", "higher", "ops_per_s on sweep_section4; exact"},
	{"analysis.sweep_fp_iters_per_solve", "ratio", "lower", "ops_per_s on sweep_section4; exact"},
	{"analysis.sweep_probe_ns", "ns", "lower", "ops_per_s on sweep_section4"},
	{"analysis.sweep_allocs_per_probe", "ratio", "lower", "ops_per_s on sweep_section4"},
	{"experiment.orchestration_frac", "ratio", "lower", "ops_per_s on sweep_section4; grows with clients (the slowest worker's tail shard sets the wall)"},
	{"experiment.speedup_1_to_n", "ratio", "higher", "ops_per_s on sweep_section4 (base: Workers=1 wall)"},
	{"trace.overhead_frac", "ratio", "lower", "1 − traced/untraced throughput; what the spans cost"},
	{"trace.table_gap_frac", "ratio", "lower", "(sum of layer-table rows − untraced median) / untraced median; within ±0.10"},
	{"trace.spans_dropped", "count", "lower", "expect 0: the span buffer is sized for the traced pass"},
}

// layerUnit looks a per-layer metric's unit up by name.
func layerUnit(name string) string {
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// workloadDef names a workload and says why it exists.
type workloadDef struct {
	Name, Why string
}

// The durable workloads come last: the kernel is still writing back and
// unlinking their WAL directories for seconds afterwards, and a workload
// run in that window (the open loop most of all) measures the stalls.
var workloads = []workloadDef{
	{"read_light_inproc", "closed loop, in-process, 90/10 reads on small sessions: fixed per-request cost (SDK, codecs, mux, store, telemetry) dominates and the probe kernel is about a tenth"},
	{"probe_heavy_inproc", "closed loop, in-process, 95 % try with unique tasks on 8-core/96-task sessions: the snapshot probe kernel dominates and shape-keyed memos cannot hit"},
	{"mixed_tcp_open", "open loop at fixed rates over real loopback TCP with a 1 Hz scraper: net/http and sockets are ~95 % of a request, and queueing the closed loop hides shows"},
	{"sweep_section4", "the paper's Section-4 acceptance sweep (4 cores, 16 tasks, nine algorithms, zero and paper overheads): taskgen, partition and writer contexts, the only EDF coverage"},
	{"recover_durable", "restarts on a crash image of the durable workload (a checkpoint plus a 15 000-request tail): checkpoint load and WAL replay through the kernel, the cost of a daemon restart"},
	{"write_durable_inproc", "closed loop, in-process, 90 % writes with the WAL on (group fsync, 2 s checkpoints): actor mailbox, writer context, snapshot publish and WAL append dominate"},
}

// runSeconds is BENCHMARK.json's run_seconds: the -seconds the driver
// passes, and the default when the flag is absent.
const runSeconds = 11

// Regression bounds per end-to-end metric (share of the parent's
// median), set from the calibration in CALIBRATION.md.
var bounds = map[string]float64{
	"setup_s":       0.25,
	"ops_per_s":     0.25,
	"op_p50_us":     0.25,
	"op_p90_us":     0.25,
	"cpu_us_per_op": 0.25,
	"peak_rss_mb":   0.25,
}
