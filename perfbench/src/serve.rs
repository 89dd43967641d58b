//! The `serve_hot` workload: an in-process, store-backed `mds-serve`,
//! prewarmed during set-up, answering warm `POST /v1/experiments` reads
//! over a seeded mix of every experiment at tiny and small scale. Slices
//! at a fixed base rate alternate with slices of a closed loop that
//! measures the highest rate the server answers reads at.

use crate::common::{delta, hist_mean, peak_rss_mib, scrape, Ctx, Report, Rng};
use crate::load::{self, of_class, Planned, Sample};
use crate::stats::{median, percentile, Latency};
use mds_bench::{scale_name, EXPERIMENT_IDS};
use mds_serve::http::{Limits, RequestReader};
use mds_serve::{LogTarget, ResultCache, Server, ServerConfig};
use mds_store::{Store, StoreConfig};
use mds_workloads::Scale;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Warm reads per second at the base rate.
const BASE_RATE: f64 = 8000.0;
/// Slices the base-rate window is driven in (see `load::drive_in_parts`).
pub const PARTS: usize = 5;
/// Untimed traffic at the base rate before the first timed window.
pub const WARMUP_S: f64 = 1.0;
/// Share of `--seconds` spent at the base rate; the capacity window has
/// the rest.
const BASE_SHARE: f64 = 0.5;
/// Requests each connection keeps written and unanswered while capacity
/// is measured, so the server never waits on the generator.
const DEPTH: usize = 8;
/// Rounds of a run: each drives one slice of the base-rate window, then
/// one slice of the capacity window, each on fresh connections, so both
/// windows sample the whole run rather than one half of it each.
const ROUNDS: usize = 10;

/// The request class of a read.
pub const READ: u8 = 0;

/// The 32 read keys: every experiment at tiny (0..16) and small (16..32).
pub fn read_key(k: u32) -> (&'static str, Scale) {
    let id = EXPERIMENT_IDS[k as usize % EXPERIMENT_IDS.len()];
    let scale = if (k as usize) < EXPERIMENT_IDS.len() {
        Scale::Tiny
    } else {
        Scale::Small
    };
    (id, scale)
}

/// The request body of a read.
pub fn read_body(id: &str, scale: Scale) -> String {
    format!(
        "{{\"experiment\":\"{id}\",\"scale\":\"{}\"}}",
        scale_name(scale)
    )
}

/// Evenly spaced due times: `rate` per second for `secs`, from `offset_ns`.
pub fn due_times(rate: f64, secs: f64, offset_ns: u64) -> impl Iterator<Item = u64> {
    let n = (rate * secs).round() as u64;
    let gap = 1e9 / rate;
    (0..n).map(move |k| offset_ns + (k as f64 * gap) as u64)
}

fn server_config(ctx: &Ctx, dir: &Path) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: ctx.nproc,
        jobs: Some(ctx.nproc),
        store_dir: Some(dir.to_path_buf()),
        log: LogTarget::Discard,
        ..ServerConfig::default()
    }
}

/// Reads every key once on one connection; returns how many were wrong.
fn read_all(addr: SocketAddr, ctx: &Ctx) -> Result<u64, String> {
    let mut bad = 0;
    for k in 0..2 * EXPERIMENT_IDS.len() as u32 {
        let (id, scale) = read_key(k);
        let (status, body) =
            load::request(addr, &load::post("/v1/experiments", &read_body(id, scale)))?;
        bad += u64::from(status != 200 || !ctx.expected.matches(id, scale, &body));
    }
    Ok(bad)
}

/// One set-up: boot on an empty store, compute and persist every key
/// (the prewarm), stop, reopen the store, boot from it and check every
/// key is served warm. Returns the warm server and the store's open time.
fn set_up(ctx: &Ctx, i: usize, report: &mut Report) -> Result<(Server, f64), String> {
    let dir = ctx.work.join(format!("serve-store-{i}"));
    let cold = Server::start(server_config(ctx, &dir))?;
    let bad = read_all(cold.local_addr(), ctx)?;
    report.count(32, bad);
    cold.shutdown();
    let t = Instant::now();
    let store = Store::open(
        &dir,
        StoreConfig {
            epoch: mds_serve::persist::effective_epoch(),
            ..StoreConfig::default()
        },
    )
    .map_err(|e| format!("cannot open {}: {e}", dir.display()))?;
    drop(store);
    let open_s = t.elapsed().as_secs_f64();
    let warm = Server::start(server_config(ctx, &dir))?;
    if warm.prewarmed() != 2 * EXPERIMENT_IDS.len() {
        return Err(format!(
            "store recovery prewarmed {} of {} keys",
            warm.prewarmed(),
            2 * EXPERIMENT_IDS.len()
        ));
    }
    let bad = read_all(warm.local_addr(), ctx)?;
    report.count(32, bad);
    Ok((warm, open_s))
}

/// Seeded reads at `rate` for `secs`, spread over every connection.
fn reads_schedule(ctx: &Ctx, rate: f64, secs: f64, stream: u64) -> Vec<Planned> {
    let mut rng = Rng::new(ctx.seed, stream);
    due_times(rate, secs, 0)
        .enumerate()
        .map(|(n, at)| {
            let k = rng.below(2 * EXPERIMENT_IDS.len()) as u32;
            let (id, scale) = read_key(k);
            Planned {
                at_ns: at,
                conn: n % ctx.nproc,
                class: READ,
                key: k,
                wire: load::post("/v1/experiments", &read_body(id, scale)),
            }
        })
        .collect()
}

/// `read_max_rps`, measured in slices: a closed loop of warm reads over
/// every connection, `DEPTH` in flight on each. A slice's rate is the
/// correct responses that arrived within it per second; the result is
/// the median slice.
struct Capacity {
    wires: Vec<Arc<[u8]>>,
    secs: f64,
    rates: Vec<f64>,
    latencies: Vec<f64>,
}

impl Capacity {
    fn new(ctx: &Ctx) -> Capacity {
        Capacity {
            wires: (0..2 * EXPERIMENT_IDS.len() as u32)
                .map(|k| {
                    let (id, scale) = read_key(k);
                    load::post("/v1/experiments", &read_body(id, scale))
                })
                .collect(),
            secs: ctx.seconds * (1.0 - BASE_SHARE) / ROUNDS as f64,
            rates: Vec::with_capacity(ROUNDS),
            latencies: Vec::new(),
        }
    }

    /// Drives slice `k` on fresh connections.
    fn slice(
        &mut self,
        ctx: &Ctx,
        addr: SocketAddr,
        check: &load::Check<'_>,
        report: &mut Report,
        k: usize,
    ) -> Result<(), String> {
        let wires = &self.wires;
        let pick = |conn: usize, n: u64| -> (u8, u32, Arc<[u8]>) {
            let stream = ((1000 + k as u64 * 64 + conn as u64) << 32) | n;
            let key = Rng::new(ctx.seed, stream).below(wires.len());
            (READ, key as u32, Arc::clone(&wires[key]))
        };
        let s = load::drive_closed(addr, ctx.nproc, DEPTH, self.secs, &pick, check, &ctx.rec)?;
        report.count(s.len() as u64, s.iter().filter(|x| !x.ok).count() as u64);
        let stop_ns = (self.secs * 1e9) as u64;
        let done = s
            .iter()
            .filter(|x| x.ok && x.due_ns + x.latency_ns <= stop_ns)
            .count();
        self.rates.push(done as f64 / self.secs);
        self.latencies.extend(load::latencies_us(&s));
        Ok(())
    }

    /// The median slice, with a report line.
    fn finish(self, ctx: &Ctx, report: &mut Report) -> f64 {
        let best = median(&self.rates);
        let mut rates = self.rates;
        rates.sort_by(f64::total_cmp);
        let shown: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
        report.note(format!(
            "read_max_rps: {best:.0} (closed loop, {} connections x {DEPTH} in flight, median of {ROUNDS} slices of {:.2}s: {}); read at capacity: {}",
            ctx.nproc,
            self.secs,
            shown.join(" "),
            Latency::of(&self.latencies).describe("us")
        ));
        best
    }
}

/// The late p99 of a window, µs.
pub fn late_p99_us(samples: &[Sample]) -> f64 {
    let mut v: Vec<f64> = samples.iter().map(|s| s.late_ns as f64 / 1e3).collect();
    v.sort_by(f64::total_cmp);
    percentile(&v, 99.0)
}

/// The `serve_hot` workload.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let traced = ctx.rec.enabled();
    // The traced run reports no set-up time, so it sets up once.
    let setup_count = if traced { 1 } else { SETUPS };
    let mut setups = Vec::new();
    let mut opens = Vec::new();
    let mut server = None;
    for i in 0..setup_count {
        let t = Instant::now();
        let (s, open_s) = set_up(ctx, i, &mut report)?;
        setups.push(t.elapsed().as_secs_f64());
        opens.push(open_s);
        if let Some(previous) = server.replace(s) {
            Server::shutdown(previous);
        }
    }
    let server = server.expect("at least one set-up");
    let addr = server.local_addr();
    report.set("setup_s", median(&setups), "s");

    let expected = &ctx.expected;
    let base = reads_schedule(ctx, BASE_RATE, ctx.seconds * BASE_SHARE, 1);
    let check = |_class: u8, key: u32, _status: u16, body: &[u8]| -> bool {
        let (id, scale) = read_key(key);
        expected.matches(id, scale, body)
    };
    let warmup = reads_schedule(ctx, BASE_RATE, WARMUP_S, 2);
    ctx.rec.set_enabled(false);
    let warm = load::drive(addr, ctx.nproc, &warmup, &check, &ctx.rec)?;
    report.count(
        warm.len() as u64,
        warm.iter().filter(|s| !s.ok).count() as u64,
    );
    // A traced run measures the base rate twice, untraced then traced,
    // so the tracing overhead is measured rather than assumed. It skips
    // the capacity window: no per-layer metric comes from it.
    let mut capacity = (!traced).then(|| Capacity::new(ctx));
    let before = scrape(addr)?;
    let mut samples = Vec::with_capacity(base.len());
    for k in 0..ROUNDS {
        samples.extend(load::drive_part(
            addr, ctx.nproc, &base, ROUNDS, k, &check, &ctx.rec,
        )?);
        if let Some(c) = capacity.as_mut() {
            c.slice(ctx, addr, &check, &mut report, k)?;
        }
    }
    ctx.rec.set_enabled(traced);
    let after = scrape(addr)?;
    report.count(
        samples.len() as u64,
        samples.iter().filter(|s| !s.ok).count() as u64,
    );
    let of_scale = |scale: Scale| -> Vec<Sample> {
        samples
            .iter()
            .filter(|s| read_key(s.key).1 == scale)
            .copied()
            .collect()
    };
    let all_lat = Latency::of(&load::latencies_us(&samples));
    let tiny_lat = Latency::of(&load::latencies_us(&of_scale(Scale::Tiny)));
    let small_lat = Latency::of(&load::latencies_us(&of_scale(Scale::Small)));
    report.set("primary_p50_ms", tiny_lat.p50 / 1e3, "ms");
    report.set("e2e.primary_tail_ms", tiny_lat.tail / 1e3, "ms");
    report.set("secondary_p50_ms", small_lat.p50 / 1e3, "ms");
    report.set("e2e.secondary_tail_ms", small_lat.tail / 1e3, "ms");
    report.note(format!(
        "read at {BASE_RATE}/s (read_p50_us / read_tail_us): {}",
        all_lat.describe("us")
    ));
    report.note(format!("  tiny-scale keys: {}", tiny_lat.describe("us")));
    report.note(format!("  small-scale keys: {}", small_lat.describe("us")));

    if traced {
        let server_us = server_metrics(&mut report, &before, &after);
        load_metrics(&mut report, &samples, base.len());
        let log_bytes = server.store().map_or(0, Store::log_bytes);
        report.set("store.log_mib", log_bytes as f64 / (1024.0 * 1024.0), "MiB");
        report.set("store.open_ms", median(&opens) * 1e3, "ms");
        let untraced_p50 = median(&load::latencies_us(&samples));
        accounting(&mut report, untraced_p50, server_us);
        let traced = load::drive_in_parts(addr, ctx.nproc, &base, PARTS, &check, &ctx.rec)?;
        trace_overhead(&mut report, &traced, untraced_p50);
        micro_parse_and_cache(ctx, &mut report);
        micro_append(ctx, &mut report)?;
    }
    if let Some(c) = capacity {
        let best = c.finish(ctx, &mut report);
        report.set("capacity_per_s", best, "1/s");
    }
    server.shutdown();
    report.set("peak_rss_mib", peak_rss_mib(), "MiB");
    Ok(report)
}

/// The `mds-serve` metrics over one window, from `/metrics` scrapes
/// before and after it; returns the mean queue wait plus compute time,
/// µs.
pub fn server_metrics(
    report: &mut Report,
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) -> f64 {
    let queue_us = hist_mean(before, after, "mds_queue_wait_microseconds");
    let compute_us = hist_mean(before, after, "mds_compute_microseconds");
    report.set("serve.queue_wait_us", queue_us, "us");
    report.set("serve.compute_us", compute_us, "us");
    let count = |name: &str| delta(before, after, name);
    report.set(
        "serve.result_hits",
        count("mds_result_cache_hits_total"),
        "count",
    );
    report.set(
        "serve.result_misses",
        count("mds_result_cache_misses_total"),
        "count",
    );
    report.set("serve.sheds", count("mds_rejected_total"), "count");
    queue_us + compute_us
}

/// The generator's own numbers over one window: how late it wrote, and
/// how many requests were offered and written.
pub fn load_metrics(report: &mut Report, samples: &[Sample], offered: usize) {
    report.set("load.late_p99_us", late_p99_us(samples), "us");
    report.set("load.offered", offered as f64, "count");
    let sent = samples.iter().filter(|s| s.status != 0).count();
    report.set("load.sent", sent as f64, "count");
}

/// Counts a traced repeat of a window and records the tracing overhead:
/// its read p50 against the untraced window's.
pub fn trace_overhead(report: &mut Report, traced: &[Sample], untraced_p50: f64) {
    let failed = traced.iter().filter(|s| !s.ok).count() as u64;
    report.count(traced.len() as u64, failed);
    let traced_p50 = median(&load::latencies_us(&of_class(traced, READ)));
    report.set(
        "trace.overhead_share",
        traced_p50 / untraced_p50 - 1.0,
        "ratio",
    );
}

/// Records the serving accounting check: client p50 against the time
/// the server itself accounts for.
pub fn accounting(report: &mut Report, client_p50_us: f64, server_us: f64) {
    let residual = (client_p50_us - server_us) / client_p50_us;
    report.set("account.client_p50_us", client_p50_us, "us");
    report.set("account.server_us", server_us, "us");
    report.set("account.residual_share", residual, "ratio");
    report.note(format!(
        "accounting: client read p50 {client_p50_us:.1}us vs server-accounted {server_us:.1}us; residual {:.1}% (network stack, reactor hand-off, client parse)",
        residual * 100.0
    ));
}

/// `RequestReader::try_parse` and `ResultCache::get`, timed directly.
fn micro_parse_and_cache(ctx: &Ctx, report: &mut Report) {
    const N: usize = 20_000;
    // One request at a time, as a keep-alive connection delivers them:
    // each iteration buffers one request's bytes and parses it.
    let wire = load::post("/v1/experiments", &read_body("fig5", Scale::Small));
    let mut reader = RequestReader::new();
    let mut parsed = 0usize;
    let t = Instant::now();
    for _ in 0..N {
        let mut src: &[u8] = &wire;
        while !src.is_empty() {
            let _ = reader.fill_from(&mut src);
        }
        if let Ok(Some(req)) = reader.try_parse(Limits::default()) {
            parsed += std::hint::black_box(req).body.len().min(1);
        }
    }
    let parse_ns = t.elapsed().as_nanos() as f64 / parsed.max(1) as f64;
    report.set("serve.parse_ns", parse_ns, "ns");

    let cache = ResultCache::new(16 * 1024 * 1024);
    let keys: Vec<String> = (0..2 * EXPERIMENT_IDS.len() as u32)
        .map(|k| {
            let (id, scale) = read_key(k);
            format!("{id}@{}", scale_name(scale))
        })
        .collect();
    for k in &keys {
        cache.put(k, Arc::from("x".repeat(1500).as_str()));
    }
    let mut rng = Rng::new(ctx.seed, 7);
    let order: Vec<usize> = (0..N).map(|_| rng.below(keys.len())).collect();
    let t = Instant::now();
    for &i in &order {
        std::hint::black_box(cache.get(&keys[i]));
    }
    report.set(
        "serve.cache_get_ns",
        t.elapsed().as_nanos() as f64 / N as f64,
        "ns",
    );
}

/// `Store::append` of every document-sized record to a fresh store.
pub fn micro_append(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let dir = ctx.work.join("append-store");
    let store = Store::open(
        &dir,
        StoreConfig {
            epoch: 1,
            ..StoreConfig::default()
        },
    )
    .map_err(|e| format!("cannot open {}: {e}", dir.display()))?;
    let body = "x".repeat(1500);
    let t = Instant::now();
    const N: usize = 64;
    for i in 0..N {
        store
            .append(&format!("key-{i}"), &body)
            .map_err(|e| format!("append: {e}"))?;
    }
    report.set(
        "store.append_us",
        t.elapsed().as_secs_f64() * 1e6 / N as f64,
        "us",
    );
    Ok(())
}
