//! The `reproduce` workload: every paper experiment and ablation at
//! small scale on a runner with `nproc` workers, each iteration from a
//! cold trace cache, plus the same at tiny scale.
//!
//! The traced run adds a *layer ladder*: the same cells executed one at
//! a time through each layer's public entry point (capture, plan build,
//! planned Multiscalar replay, window analysis, superscalar timing, the
//! wire codec), so each layer's self time is measured directly.

use crate::common::{peak_rss_mib, Ctx, Report};
use crate::expect::Expected;
use crate::spans::{Recorder, ROOT};
use crate::stats::{median, Fnv, Latency};
use mds_bench::grid::{cells, merged_doc, Cell};
use mds_bench::{Harness, EXPERIMENT_IDS};
use mds_emu::Trace;
use mds_harness::json::{Json, ToJson};
use mds_ooo::{OooSim, WindowAnalyzer};
use mds_runner::{wire, Grid, JobKind, JobOutput, RunStats, Runner};
use mds_workloads::Scale;
use std::path::Path;
use std::time::Instant;

/// Digest of every Multiscalar and superscalar statistic of one
/// small-scale reproduction at the commit this benchmark was written
/// against. A change that moves it changed a simulated result.
const SMALL_STATS_DIGEST: u64 = 0x3de6_9b0c_3cbe_6dbd;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Full small-scale reproductions per run, at least.
const MIN_ITERATIONS: usize = 3;

/// Tiny-scale reproductions after each small one.
const TINY_PER_ITERATION: usize = 6;

/// Every experiment id, in canonical order.
pub fn all_ids() -> Vec<String> {
    EXPERIMENT_IDS.iter().map(|s| s.to_string()).collect()
}

/// One full reproduction.
pub struct Reproduction {
    /// Wall time, seconds.
    pub wall_s: f64,
    /// Documents rendered and checked.
    pub docs: u64,
    /// Documents that did not match their reference.
    pub bad_docs: u64,
    /// Digest over every Multiscalar/superscalar statistic.
    pub stats_digest: u64,
    /// Simulated instructions replayed by Multiscalar, window-analysis
    /// and superscalar jobs.
    pub sim_instructions: u64,
    /// Runner observability.
    pub stats: RunStats,
    /// Longest job, nanoseconds.
    pub critical_job_ns: u128,
    /// `Harness::insert` of every output, seconds.
    pub merge_s: f64,
    /// `merged_doc` of every experiment plus its check, seconds.
    pub render_s: f64,
    /// Cells in the grid.
    pub cells: usize,
    /// The job outputs, in cell order (kept for the ladder's check).
    pub outputs: Vec<JobOutput>,
}

/// Runs the experiments `ids` at `scale` as one grid from a cold trace
/// cache and checks every document.
pub fn reproduce(ctx: &Ctx, ids: &[String], scale: Scale, parent: u32, op: u64) -> Reproduction {
    let rec = &ctx.rec;
    let started = Instant::now();
    let root = rec.span("reproduce", parent, op);
    let cs = cells(ids, scale);
    let mut grid = Grid::new(scale);
    for c in &cs {
        grid.push(c.job.clone());
    }
    let outcome = {
        let _s = rec.span("runner.run", root.id(), op);
        Runner::new(ctx.nproc).run(&grid)
    };
    let mut digest = Fnv::default();
    let mut sim_instructions = 0u64;
    let mut critical_job_ns = 0u128;
    for r in &outcome.results {
        critical_job_ns = critical_job_ns.max(r.wall_ns);
        match &r.output {
            JobOutput::Multiscalar(m) => {
                sim_instructions += m.instructions;
                fold(&mut digest, &r.id, &r.output.to_json());
            }
            JobOutput::Superscalar(o) => {
                sim_instructions += o.instructions;
                fold(&mut digest, &r.id, &r.output.to_json());
            }
            JobOutput::Window(w) => sim_instructions += w.instructions,
            JobOutput::Summary(_) => {}
        }
    }
    let outputs: Vec<JobOutput> = outcome.results.iter().map(|r| r.output.clone()).collect();
    let merge_started = Instant::now();
    let mut h = Harness::with_runner(scale, Runner::new(1));
    {
        let _s = rec.span("bench.merge", root.id(), op);
        for (c, out) in cs.iter().zip(&outputs) {
            h.insert(&c.demand, out.clone());
        }
    }
    let merge_s = merge_started.elapsed().as_secs_f64();
    let render_started = Instant::now();
    let mut bad_docs = 0;
    {
        let _s = rec.span("bench.render", root.id(), op);
        for id in ids {
            let ok = merged_doc(&mut h, std::slice::from_ref(id))
                .map(|doc| ctx.expected.matches(id, scale, doc.as_bytes()))
                .unwrap_or(false);
            bad_docs += u64::from(!ok);
        }
    }
    let render_s = render_started.elapsed().as_secs_f64();
    drop(root);
    Reproduction {
        wall_s: started.elapsed().as_secs_f64(),
        docs: ids.len() as u64,
        bad_docs,
        stats_digest: digest.finish(),
        sim_instructions,
        stats: outcome.stats,
        critical_job_ns,
        merge_s,
        render_s,
        cells: cs.len(),
        outputs,
    }
}

fn fold(digest: &mut Fnv, id: &str, stats: &Json) {
    digest.write(id.as_bytes());
    digest.write(stats.to_string().as_bytes());
}

/// Per-layer results of the layer ladder.
#[derive(Default)]
pub struct Ladder {
    /// Instructions emulated.
    pub emulated: u64,
    /// Largest trace's records, bytes.
    pub trace_bytes: usize,
    /// Largest replay plan, bytes.
    pub plan_bytes: usize,
    /// Instructions replayed by planned Multiscalar runs.
    pub replayed: u64,
    /// Cells whose ladder output differs from the runner's.
    pub mismatches: u64,
    /// Cells whose wire round trip changed the output.
    pub wire_mismatches: u64,
}

/// Executes `cs` one cell at a time through each layer's entry point,
/// recording one span per call, and compares every output with the
/// runner's (`expected`, in cell order).
pub fn ladder(rec: &Recorder, cs: &[Cell], expected: &[JobOutput], parent: u32) -> Ladder {
    let mut out = Ladder::default();
    let mut order: Vec<&'static str> = Vec::new();
    for c in cs {
        if !order.contains(&c.job.workload.name) {
            order.push(c.job.workload.name);
        }
    }
    for (op, name) in order.iter().enumerate() {
        let op = op as u64;
        let members: Vec<usize> = (0..cs.len())
            .filter(|&i| cs[i].job.workload.name == *name)
            .collect();
        let first = &cs[members[0]].job;
        let program = {
            let _s = rec.span("workloads.build", parent, op);
            first.workload.build(first.scale)
        };
        let trace = {
            let _s = rec.span("emu.capture", parent, op);
            Trace::capture(&program).expect("every registered workload emulates")
        };
        out.emulated += trace.len() as u64;
        out.trace_bytes = out.trace_bytes.max(trace.resident_bytes());
        for &i in &members {
            let output = match &cs[i].job.kind {
                JobKind::Multiscalar(config) => {
                    if trace_plan_unbuilt(&trace) {
                        let _s = rec.span("emu.plan_build", parent, op);
                        let plan = trace.replay_plan();
                        out.plan_bytes = out.plan_bytes.max(plan.resident_bytes());
                    }
                    let name = if config.stages == 4 {
                        "multiscalar.replay_4st"
                    } else {
                        "multiscalar.replay_8st"
                    };
                    let _s = rec.span(name, parent, op);
                    out.replayed += trace.len() as u64;
                    JobOutput::Multiscalar(mds_multiscalar::run_planned(&trace, config))
                }
                JobKind::Window(config) => {
                    let _s = rec.span("ooo.window", parent, op);
                    let mut analyzer = WindowAnalyzer::new(config.clone());
                    for d in trace.records() {
                        analyzer.observe(d);
                    }
                    JobOutput::Window(analyzer.finish())
                }
                JobKind::Superscalar(config) => {
                    let _s = rec.span("ooo.timing", parent, op);
                    let mut sim = OooSim::new(*config);
                    for d in trace.records() {
                        sim.observe(d);
                    }
                    JobOutput::Superscalar(sim.finish())
                }
                JobKind::Summary => {
                    let _s = rec.span("emu.summary", parent, op);
                    JobOutput::Summary(trace.summary())
                }
            };
            let encoded = {
                let _s = rec.span("runner.wire_encode", parent, op);
                wire::encode_output(&output).to_string()
            };
            let decoded = {
                let _s = rec.span("runner.wire_decode", parent, op);
                Json::parse(&encoded)
                    .ok()
                    .and_then(|doc| wire::decode_output(&doc).ok())
            };
            let mine = output.to_json().to_string();
            if decoded.map(|d| d.to_json().to_string()).as_deref() != Some(mine.as_str()) {
                out.wire_mismatches += 1;
            }
            if expected.get(i).map(|e| e.to_json().to_string()).as_deref() != Some(mine.as_str()) {
                out.mismatches += 1;
            }
        }
    }
    out
}

/// Whether `trace` has yet to build its replay plan: the plan is cached
/// on the trace, so only a workload's first Multiscalar cell pays for it.
fn trace_plan_unbuilt(trace: &Trace) -> bool {
    // `resident_bytes` counts the plan only once it is built.
    trace.resident_bytes() == trace.len() * std::mem::size_of::<mds_emu::DynInst>()
}

/// One set-up, everything before the first measured reproduction: load
/// the reference documents, run a whole tiny-scale reproduction checked
/// against them (it loads every code path and lets lazy initialization
/// finish), and emulate every small-scale workload once, dropping each
/// trace, as a first `repro` call would. Measured iterations still start
/// from a cold trace cache.
fn set_up(ctx: &Ctx, ids: &[String], op: u64, report: &mut Report) -> Result<(), String> {
    drop(Expected::load(Path::new("."))?);
    let r = reproduce(ctx, ids, Scale::Tiny, ROOT, op);
    report.count(r.docs, r.bad_docs);
    let mut done: Vec<&'static str> = Vec::new();
    for c in cells(ids, Scale::Small) {
        let wl = c.job.workload;
        if done.contains(&wl.name) {
            continue;
        }
        done.push(wl.name);
        let trace = Trace::capture(&wl.build(Scale::Small))
            .map_err(|e| format!("{} failed to emulate: {e}", wl.name))?;
        std::hint::black_box(trace.len());
    }
    Ok(())
}

/// The `reproduce` workload.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let rec = &ctx.rec;
    let ids = all_ids();
    let mut setups = Vec::new();
    for i in 0..SETUPS {
        let t = Instant::now();
        set_up(ctx, &ids, 1000 + i as u64, &mut report)?;
        setups.push(t.elapsed().as_secs_f64());
    }
    let setup_s = median(&setups);

    let mut small = Vec::new();
    let mut tiny = Vec::new();
    let started = Instant::now();
    let mut digests = Vec::new();
    let mut last: Option<Reproduction> = None;
    let traced = rec.enabled();
    let mut traced_walls = Vec::new();
    let mut untraced_walls = Vec::new();
    while small.len() < MIN_ITERATIONS || started.elapsed() < ctx.duration() {
        let op = small.len() as u64;
        // A traced run records spans on every other iteration, so the
        // tracing overhead is measured rather than assumed.
        let on = traced && op.is_multiple_of(2);
        rec.set_enabled(on);
        let r = reproduce(ctx, &ids, Scale::Small, ROOT, op);
        rec.set_enabled(traced);
        if on {
            traced_walls.push(r.wall_s);
        } else {
            untraced_walls.push(r.wall_s);
        }
        report.count(
            r.docs + 1,
            r.bad_docs + u64::from(!digest_ok(r.stats_digest)),
        );
        digests.push(r.stats_digest);
        small.push(r.wall_s);
        for _ in 0..TINY_PER_ITERATION {
            let t = reproduce(ctx, &ids, Scale::Tiny, ROOT, op);
            report.count(t.docs, t.bad_docs);
            tiny.push(t.wall_s);
        }
        last = Some(r);
    }
    let last = last.expect("at least one iteration ran");
    let small_lat = Latency::of(&small.iter().map(|s| s * 1e3).collect::<Vec<_>>());
    let tiny_lat = Latency::of(&tiny.iter().map(|s| s * 1e3).collect::<Vec<_>>());
    let rate = median(
        &small
            .iter()
            .map(|s| last.sim_instructions as f64 / s)
            .collect::<Vec<_>>(),
    );
    report.set("setup_s", setup_s, "s");
    report.set("primary_p50_ms", small_lat.p50, "ms");
    report.set("e2e.primary_tail_ms", small_lat.tail, "ms");
    report.set("secondary_p50_ms", tiny_lat.p50, "ms");
    report.set("e2e.secondary_tail_ms", tiny_lat.tail, "ms");
    report.set("capacity_per_s", rate, "1/s");
    report.note(format!(
        "reproduce_s (small, all 16 experiments, cold): {}",
        small_lat.describe("ms")
    ));
    report.note(format!("tiny reproduction: {}", tiny_lat.describe("ms")));
    report.note(format!(
        "sim_minst_per_s: {:.2} ({} simulated instructions per reproduction)",
        rate / 1e6,
        last.sim_instructions
    ));
    report.note(format!(
        "stats digest {:016x} over {} iterations ({})",
        last.stats_digest,
        digests.len(),
        if digests.iter().all(|&d| digest_ok(d)) {
            "matches the recorded digest"
        } else {
            "MISMATCH"
        }
    ));

    if traced {
        runner_metrics(&mut report, &last);
        let overhead = median(&traced_walls) / median(&untraced_walls) - 1.0;
        report.set("trace.overhead_share", overhead, "ratio");
        report.note(format!(
            "tracing overhead: traced iterations {:+.1}% vs untraced",
            overhead * 100.0
        ));
        traced_extras(ctx, &mut report, &last);
    }
    report.set("peak_rss_mib", peak_rss_mib(), "MiB");
    Ok(report)
}

fn digest_ok(d: u64) -> bool {
    d == SMALL_STATS_DIGEST
}

/// Runner idle time of one reproduction: workers × wall − busy, seconds.
fn idle_s(r: &Reproduction) -> f64 {
    let s = &r.stats;
    let wall = s.wall_ns as f64 / 1e9;
    (s.workers as f64 * wall - s.pool.total_busy_ns() as f64 / 1e9).max(0.0)
}

/// The runner and harness metrics of one reproduction.
pub fn runner_metrics(report: &mut Report, last: &Reproduction) {
    let s = &last.stats;
    let mib = |b: usize| b as f64 / (1024.0 * 1024.0);
    let idle_s = idle_s(last);
    report.set("runner.utilization", s.utilization(), "ratio");
    report.set("runner.idle_s", idle_s, "s");
    report.set("runner.steals", s.pool.steals as f64, "count");
    report.set(
        "runner.critical_job_ms",
        last.critical_job_ns as f64 / 1e6,
        "ms",
    );
    report.set("runner.trace_misses", s.cache_misses as f64, "count");
    report.set("runner.trace_reuses", s.cache_hits as f64, "count");
    report.set("runner.peak_trace_mib", mib(s.peak_trace_bytes), "MiB");
    report.set("bench.render_ms", last.render_s * 1e3, "ms");
    report.set("bench.merge_ms", last.merge_s * 1e3, "ms");
    report.set("bench.cells", last.cells as f64, "count");
}

/// Runs the layer ladder over `ids` at `scale`, checked against the
/// runner's outputs in `last`, and sets the per-layer metrics.
pub fn run_ladder(
    ctx: &Ctx,
    report: &mut Report,
    ids: &[String],
    scale: Scale,
    last: &Reproduction,
) {
    let rec = &ctx.rec;
    // The layer ladder over the same cells, one call at a time.
    let cs = cells(ids, scale);
    let ladder_root = rec.span("ladder", ROOT, u64::MAX);
    let ladder_started = Instant::now();
    let l = ladder(rec, &cs, &last.outputs, ladder_root.id());
    let ladder_s = ladder_started.elapsed().as_secs_f64();
    drop(ladder_root);
    report.count(cs.len() as u64, l.mismatches + l.wire_mismatches);
    crate::layers::ladder_metrics(report, rec, &l);
    report.note(format!(
        "layer ladder: {} cells in {ladder_s:.2}s serial, {} differ from the runner, {} changed by the wire round trip",
        cs.len(),
        l.mismatches,
        l.wire_mismatches
    ));
}

/// Per-layer metrics and the accounting check of a traced run.
fn traced_extras(ctx: &Ctx, report: &mut Report, last: &Reproduction) {
    let rec = &ctx.rec;
    let idle_s = idle_s(last);
    run_ladder(ctx, report, &all_ids(), Scale::Small, last);
    // Accounting: nproc × reproduce_s = layer self times (work, run one
    // at a time in the ladder) + runner idle + cores idle while the main
    // thread merges and renders + residual.
    let layers = rec.layers();
    let ladder_self: f64 = crate::layers::LADDER_SPANS
        .iter()
        .filter_map(|n| layers.get(n))
        .map(|t| t.self_s)
        .sum();
    let serial = last.merge_s + last.render_s;
    let capacity = ctx.nproc as f64 * last.wall_s;
    let explained = ladder_self + idle_s + serial + (ctx.nproc as f64 - 1.0) * serial;
    let residual = (capacity - explained) / capacity;
    report.set("account.residual_share", residual, "ratio");
    report.note(format!(
        "accounting: nproc x reproduce_s = {capacity:.3}s; layer self {ladder_self:.3}s + runner idle {idle_s:.3}s + serial merge/render {:.3}s x nproc; residual {:+.1}% (declared bound ±{:.0}%)",
        serial,
        residual * 100.0,
        crate::layers::RESIDUAL_BOUND * 100.0
    ));
}
