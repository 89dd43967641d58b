//! The metric catalogue and the per-layer metrics derived from spans.

use crate::common::Report;
use crate::repro::Ladder;
use crate::spans::Recorder;

/// End-to-end metrics: every workload reports each one (see README.md
/// for what "primary" and "secondary" operation mean per workload).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("success_rate", "ratio"),
    ("primary_p50_ms", "ms"),
    ("secondary_p50_ms", "ms"),
    ("capacity_per_s", "1/s"),
];

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reports 0. The two `e2e.*` tails ride here, without a
/// bound: on a small shared host they swing with host hiccups far more
/// than any bound could allow (see README.md).
pub const PER_LAYER: [(&str, &str); 50] = [
    ("emu.capture_ms", "ms"),
    ("emu.minst_per_s", "Minst/s"),
    ("emu.plan_build_ms", "ms"),
    ("emu.trace_mib", "MiB"),
    ("emu.plan_mib", "MiB"),
    ("multiscalar.replay_4st_ms", "ms"),
    ("multiscalar.replay_8st_ms", "ms"),
    ("multiscalar.kinst_per_ms", "kinst/ms"),
    ("ooo.window_ms", "ms"),
    ("ooo.timing_ms", "ms"),
    ("runner.utilization", "ratio"),
    ("runner.idle_s", "s"),
    ("runner.steals", "count"),
    ("runner.critical_job_ms", "ms"),
    ("runner.trace_misses", "count"),
    ("runner.trace_reuses", "count"),
    ("runner.peak_trace_mib", "MiB"),
    ("runner.wire_encode_us", "us"),
    ("runner.wire_decode_us", "us"),
    ("bench.render_ms", "ms"),
    ("bench.merge_ms", "ms"),
    ("bench.cells", "count"),
    ("serve.queue_wait_us", "us"),
    ("serve.compute_us", "us"),
    ("serve.result_hits", "count"),
    ("serve.result_misses", "count"),
    ("serve.sheds", "count"),
    ("serve.parse_ns", "ns"),
    ("serve.cache_get_ns", "ns"),
    ("store.open_ms", "ms"),
    ("store.append_us", "us"),
    ("store.log_mib", "MiB"),
    ("cluster.proxy_us", "us"),
    ("cluster.upstream_us", "us"),
    ("cluster.proxy_overhead_us", "us"),
    ("cluster.grid_cells", "count"),
    ("cluster.work_balance", "ratio"),
    ("cluster.retries", "count"),
    ("cluster.cell_failures", "count"),
    ("cluster.local_recomputes", "count"),
    ("load.late_p99_us", "us"),
    ("load.offered", "count"),
    ("load.sent", "count"),
    ("account.residual_share", "ratio"),
    ("account.client_p50_us", "us"),
    ("account.server_us", "us"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
    ("e2e.primary_tail_ms", "ms"),
    ("e2e.secondary_tail_ms", "ms"),
];

/// The spans of the layer ladder whose self times, summed, are the
/// serial work of one reproduction.
pub const LADDER_SPANS: [&str; 10] = [
    "workloads.build",
    "emu.capture",
    "emu.plan_build",
    "emu.summary",
    "multiscalar.replay_4st",
    "multiscalar.replay_8st",
    "ooo.window",
    "ooo.timing",
    "runner.wire_encode",
    "runner.wire_decode",
];

/// The share of `nproc × reproduce_s` the layer ladder may leave
/// unexplained. The ladder runs each cell alone, so the residual holds
/// what only the parallel run pays: runner scheduling, trace-cache
/// locking, fused replay groups, and two workers sharing caches and
/// memory bandwidth.
pub const RESIDUAL_BOUND: f64 = 0.25;

/// Sets the emulator, Multiscalar, superscalar and wire metrics from the
/// ladder's spans.
pub fn ladder_metrics(report: &mut Report, rec: &Recorder, l: &Ladder) {
    let layers = rec.layers();
    let self_s = |name: &str| layers.get(name).map_or(0.0, |t| t.self_s);
    let count = |name: &str| layers.get(name).map_or(0, |t| t.count);
    let mib = |b: usize| b as f64 / (1024.0 * 1024.0);
    let capture = self_s("emu.capture");
    report.set("emu.capture_ms", capture * 1e3, "ms");
    report.set(
        "emu.minst_per_s",
        if capture > 0.0 {
            l.emulated as f64 / capture / 1e6
        } else {
            0.0
        },
        "Minst/s",
    );
    report.set("emu.plan_build_ms", self_s("emu.plan_build") * 1e3, "ms");
    report.set("emu.trace_mib", mib(l.trace_bytes), "MiB");
    report.set("emu.plan_mib", mib(l.plan_bytes), "MiB");
    let r4 = self_s("multiscalar.replay_4st");
    let r8 = self_s("multiscalar.replay_8st");
    report.set("multiscalar.replay_4st_ms", r4 * 1e3, "ms");
    report.set("multiscalar.replay_8st_ms", r8 * 1e3, "ms");
    report.set(
        "multiscalar.kinst_per_ms",
        if r4 + r8 > 0.0 {
            l.replayed as f64 / ((r4 + r8) * 1e3) / 1e3
        } else {
            0.0
        },
        "kinst/ms",
    );
    report.set("ooo.window_ms", self_s("ooo.window") * 1e3, "ms");
    report.set("ooo.timing_ms", self_s("ooo.timing") * 1e3, "ms");
    let per_cell_us = |name: &str| {
        let n = count(name);
        if n == 0 {
            0.0
        } else {
            self_s(name) * 1e6 / n as f64
        }
    };
    report.set(
        "runner.wire_encode_us",
        per_cell_us("runner.wire_encode"),
        "us",
    );
    report.set(
        "runner.wire_decode_us",
        per_cell_us("runner.wire_decode"),
        "us",
    );
}
