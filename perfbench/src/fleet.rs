//! The `fleet_mixed` workload: a gateway over `nproc` in-process,
//! store-backed backends with one simulation thread each. One open-loop
//! schedule interleaves warm proxied `POST /v1/experiments` reads with
//! fresh scatter-gather `POST /v1/grids`, each grid a seeded subset of
//! the experiments pinned in `ci/pinned`, at tiny scale.

use crate::common::{delta, hist_mean, peak_rss_mib, scrape, Ctx, Report, Rng};
use crate::load::{self, of_class, Planned, Sample};
use crate::repro::{reproduce, run_ladder, runner_metrics};
use crate::serve::{
    accounting, due_times, load_metrics, micro_append, read_body, server_metrics, trace_overhead,
    PARTS, WARMUP_S,
};
use crate::stats::{median, Latency};
use mds_bench::grid::cells;
use mds_bench::{scale_name, EXPERIMENT_IDS, PAPER_IDS};
use mds_cluster::grid::balanced_assignments;
use mds_cluster::{FleetConfig, Gateway, GatewayConfig, HashRing};
use mds_emu::Trace;
use mds_serve::{LogTarget, Server, ServerConfig};
use mds_store::{Store, StoreConfig};
use mds_workloads::Scale;
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Warm proxied reads per second.
const READ_RATE: f64 = 1000.0;
/// Fresh grids per second.
const GRID_RATE: f64 = 4.0;
/// The gateway's virtual nodes per backend (its default), for computing
/// placement from outside.
const VNODES: usize = 64;
/// Backends listen on fixed ports, below the usual ephemeral range: the
/// gateway's hash ring is keyed by backend address, so ephemeral ports
/// would place read keys and grid cells differently in every run. Block
/// `k` is ports `PORT_BASE + k * nproc ..`; set-ups alternate between
/// even and odd blocks (two tiers are up at once while one replaces the
/// other) and move on to the next block of their parity if a port is
/// taken.
const PORT_BASE: u16 = 23_100;
const PORT_BLOCKS: u16 = 16;

const READ: u8 = 0;
const GRID: u8 = 1;

/// The running system under test: the backends and the gateway over
/// them.
struct Tier {
    backends: Vec<Server>,
    gateway: Gateway,
}

impl Tier {
    fn addr(&self) -> SocketAddr {
        self.gateway.local_addr()
    }

    /// Backend addresses, as the gateway's ring names them.
    fn names(&self) -> Vec<String> {
        self.backends
            .iter()
            .map(|s| s.local_addr().to_string())
            .collect()
    }

    fn shutdown(self) {
        self.gateway.shutdown();
        for s in self.backends {
            s.shutdown();
        }
    }
}

/// Starts `nproc` backends, each configured as `Fleet::spawn` configures
/// a fleet's backends (one simulation thread, a store under
/// `dir/backend-<i>`), on the first free port block of `parity`.
fn spawn_backends(ctx: &Ctx, dir: &Path, parity: u16) -> Result<Vec<Server>, String> {
    let defaults = FleetConfig::default();
    let mut last_err = String::new();
    for block in (parity..PORT_BLOCKS).step_by(2) {
        let mut started = Vec::with_capacity(ctx.nproc);
        for i in 0..ctx.nproc {
            let port = usize::from(PORT_BASE) + usize::from(block) * ctx.nproc + i;
            match Server::start(ServerConfig {
                addr: format!("127.0.0.1:{port}"),
                workers: defaults.workers,
                queue_depth: defaults.queue_depth,
                jobs: Some(1),
                store_dir: Some(dir.join(format!("backend-{i}"))),
                log: LogTarget::Discard,
                io: defaults.io,
                ..ServerConfig::default()
            }) {
                Ok(server) => started.push(server),
                Err(e) => {
                    last_err = e;
                    break;
                }
            }
        }
        if started.len() == ctx.nproc {
            return Ok(started);
        }
        for server in started {
            server.shutdown();
        }
    }
    Err(format!("no free port block for the backends: {last_err}"))
}

fn start(ctx: &Ctx, dir: &Path, parity: u16) -> Result<Tier, String> {
    let backends = spawn_backends(ctx, dir, parity)?;
    let gateway = Gateway::start(GatewayConfig {
        addr: "127.0.0.1:0".to_string(),
        backends: backends
            .iter()
            .map(|s| s.local_addr().to_string())
            .collect(),
        log: LogTarget::Discard,
        ..GatewayConfig::default()
    });
    match gateway {
        Ok(gateway) => Ok(Tier { backends, gateway }),
        Err(e) => {
            for server in backends {
                server.shutdown();
            }
            Err(e)
        }
    }
}

/// A grid request body.
fn grid_body(ids: &[&str], scale: Scale) -> String {
    let list: Vec<String> = ids.iter().map(|id| format!("\"{id}\"")).collect();
    format!(
        "{{\"experiments\":[{}],\"scale\":\"{}\"}}",
        list.join(","),
        scale_name(scale)
    )
}

/// A seeded subset of `pool`: two to four distinct ids, in pool order.
fn subset(rng: &mut Rng, pool: &[&'static str]) -> Vec<&'static str> {
    let want = 2 + rng.below(3);
    let mut picked: Vec<usize> = Vec::new();
    while picked.len() < want {
        let i = rng.below(pool.len());
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked.sort_unstable();
    picked.into_iter().map(|i| pool[i]).collect()
}

/// The pinned experiment ids grids draw from.
fn pinned() -> Vec<&'static str> {
    PAPER_IDS.to_vec()
}

/// One set-up: spawn the fleet and gateway on empty stores, then warm
/// every read key and every workload's trace through the gateway.
fn set_up(ctx: &Ctx, i: usize, report: &mut Report) -> Result<Tier, String> {
    let tier = start(ctx, &ctx.work.join(format!("fleet-{i}")), (i % 2) as u16)?;
    let addr = tier.addr();
    let mut bad = 0;
    for id in EXPERIMENT_IDS {
        let (status, body) = load::request(
            addr,
            &load::post("/v1/experiments", &read_body(id, Scale::Tiny)),
        )?;
        bad += u64::from(status != 200 || !ctx.expected.matches(id, Scale::Tiny, &body));
    }
    let all = pinned();
    let (status, body) = load::request(
        addr,
        &load::post("/v1/grids", &grid_body(&all, Scale::Tiny)),
    )?;
    bad += u64::from(status != 200 || !ctx.expected.matches_concat(&all, Scale::Tiny, &body));
    report.count(EXPERIMENT_IDS.len() as u64 + 1, bad);
    Ok(tier)
}

/// Trace instructions of every tiny workload a pinned grid can touch:
/// the work unit of `cluster.work_balance` and `capacity_per_s`.
fn workload_instructions() -> Result<HashMap<&'static str, u64>, String> {
    let ids: Vec<String> = pinned().iter().map(|s| s.to_string()).collect();
    let mut out = HashMap::new();
    for c in cells(&ids, Scale::Tiny) {
        let wl = c.job.workload;
        if let std::collections::hash_map::Entry::Vacant(e) = out.entry(wl.name) {
            let trace = Trace::capture(&wl.build(Scale::Tiny))
                .map_err(|e| format!("{} failed to emulate: {e}", wl.name))?;
            e.insert(trace.len() as u64);
        }
    }
    Ok(out)
}

/// Simulated work of one grid: each cell's workload trace length.
fn grid_work(ids: &[&str], work: &HashMap<&'static str, u64>) -> u64 {
    let ids: Vec<String> = ids.iter().map(|s| s.to_string()).collect();
    cells(&ids, Scale::Tiny)
        .iter()
        .map(|c| work.get(c.job.workload.name).copied().unwrap_or(0))
        .sum()
}

/// Placement balance of one grid, computed with the gateway's own
/// `balanced_assignments` over the ring's replica order: total work ÷
/// (backends × the largest backend's work).
fn work_balance(
    ids: &[&str],
    ring: &HashRing,
    backends: usize,
    work: &HashMap<&'static str, u64>,
) -> f64 {
    let ids: Vec<String> = ids.iter().map(|s| s.to_string()).collect();
    let cs = cells(&ids, Scale::Tiny);
    let mut candidates: Vec<(String, Vec<usize>)> = Vec::new();
    for c in &cs {
        let key = c.route_key();
        if !candidates.iter().any(|(k, _)| *k == key) {
            let order = ring.replicas(&key, backends);
            candidates.push((key, order));
        }
    }
    let owners = balanced_assignments(&candidates, backends);
    let mut per_backend = vec![0u64; backends];
    for c in &cs {
        if let Some(&b) = owners.get(&c.route_key()) {
            per_backend[b] += work.get(c.job.workload.name).copied().unwrap_or(0);
        }
    }
    let total: u64 = per_backend.iter().sum();
    let max = per_backend.iter().copied().max().unwrap_or(0);
    if max == 0 {
        return 1.0;
    }
    total as f64 / (backends as f64 * max as f64)
}

/// The mixed schedule: reads on every connection but the last, grids on
/// the last (a 30 ms grid would otherwise hold up pipelined reads behind
/// it on the same connection).
fn mixed_schedule(ctx: &Ctx, secs: f64, grids: &mut Vec<Vec<&'static str>>) -> Vec<Planned> {
    let read_conns = ctx.nproc.saturating_sub(1).max(1);
    let mut plan = reads_schedule(ctx, secs, &EXPERIMENT_IDS, read_conns);
    let mut rng = Rng::new(ctx.seed, 11);
    let pool = pinned();
    for at in due_times(GRID_RATE, secs, (0.5e9 / GRID_RATE) as u64) {
        let ids = subset(&mut rng, &pool);
        plan.push(Planned {
            at_ns: at,
            conn: ctx.nproc - 1,
            class: GRID,
            key: grids.len() as u32,
            wire: load::post("/v1/grids", &grid_body(&ids, Scale::Tiny)),
        });
        grids.push(ids);
    }
    plan.sort_by_key(|p| p.at_ns);
    plan
}

/// Reads only, at the read rate, over `keys`, on `conns` connections.
fn reads_schedule(ctx: &Ctx, secs: f64, keys: &[&'static str], conns: usize) -> Vec<Planned> {
    let mut rng = Rng::new(ctx.seed, 12);
    due_times(READ_RATE, secs, 0)
        .enumerate()
        .map(|(n, at)| {
            let id = keys[rng.below(keys.len())];
            Planned {
                at_ns: at,
                conn: n % conns,
                class: READ,
                key: EXPERIMENT_IDS.iter().position(|x| *x == id).unwrap_or(0) as u32,
                wire: load::post("/v1/experiments", &read_body(id, Scale::Tiny)),
            }
        })
        .collect()
}

/// The `fleet_mixed` workload.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let traced = ctx.rec.enabled();
    let work = workload_instructions()?;
    let mut setups = Vec::new();
    let mut opens = Vec::new();
    let mut tier: Option<Tier> = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let next = set_up(ctx, i, &mut report)?;
        setups.push(t.elapsed().as_secs_f64());
        if let Some(previous) = tier.replace(next) {
            previous.shutdown();
            let t = Instant::now();
            let store = Store::open(
                ctx.work.join(format!("fleet-{}", i - 1)).join("backend-0"),
                StoreConfig {
                    epoch: mds_serve::persist::effective_epoch(),
                    ..StoreConfig::default()
                },
            )
            .map_err(|e| format!("cannot reopen a backend store: {e}"))?;
            drop(store);
            opens.push(t.elapsed().as_secs_f64());
        }
    }
    let tier = tier.expect("at least one set-up");
    report.set("setup_s", median(&setups), "s");
    report.note(format!("backends: {}", tier.names().join(" ")));
    let addr = tier.addr();
    let expected = &ctx.expected;

    let mut grids: Vec<Vec<&'static str>> = Vec::new();
    let plan = mixed_schedule(ctx, ctx.seconds, &mut grids);
    let check = |class: u8, key: u32, _status: u16, body: &[u8]| -> bool {
        if class == READ {
            expected.matches(EXPERIMENT_IDS[key as usize], Scale::Tiny, body)
        } else {
            expected.matches_concat(&grids[key as usize], Scale::Tiny, body)
        }
    };
    let backends: Vec<SocketAddr> = tier.backends.iter().map(Server::local_addr).collect();
    ctx.rec.set_enabled(false);
    let mut warm_grids: Vec<Vec<&'static str>> = Vec::new();
    let warmup = mixed_schedule(ctx, WARMUP_S, &mut warm_grids);
    let warm_check = |class: u8, key: u32, _status: u16, body: &[u8]| -> bool {
        if class == READ {
            expected.matches(EXPERIMENT_IDS[key as usize], Scale::Tiny, body)
        } else {
            expected.matches_concat(&warm_grids[key as usize], Scale::Tiny, body)
        }
    };
    let warm = load::drive(addr, ctx.nproc, &warmup, &warm_check, &ctx.rec)?;
    report.count(
        warm.len() as u64,
        warm.iter().filter(|s| !s.ok).count() as u64,
    );
    let gw_before = scrape(addr)?;
    let samples = load::drive_in_parts(addr, ctx.nproc, &plan, PARTS, &check, &ctx.rec)?;
    ctx.rec.set_enabled(traced);
    let gw_after = scrape(addr)?;
    report.count(
        samples.len() as u64,
        samples.iter().filter(|s| !s.ok).count() as u64,
    );
    let reads = of_class(&samples, READ);
    let grid_samples = of_class(&samples, GRID);
    let read_lat = Latency::of(&load::latencies_us(&reads));
    let grid_lat = Latency::of(&load::latencies_us(&grid_samples));
    report.set("primary_p50_ms", read_lat.p50 / 1e3, "ms");
    report.set("e2e.primary_tail_ms", read_lat.tail / 1e3, "ms");
    report.set("secondary_p50_ms", grid_lat.p50 / 1e3, "ms");
    report.set("e2e.secondary_tail_ms", grid_lat.tail / 1e3, "ms");
    let grid_rates: Vec<f64> = grid_samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| {
            let ids = &grids[s.key as usize];
            grid_work(ids, &work) as f64 / (s.latency_ns as f64 / 1e9)
        })
        .collect();
    report.set("capacity_per_s", median(&grid_rates), "1/s");
    report.note(format!(
        "proxied read at {READ_RATE}/s (read_p50_us / read_tail_us): {}",
        read_lat.describe("us")
    ));
    report.note(format!(
        "fresh grid at {GRID_RATE}/s (grid_p50_ms / grid_tail_ms): {}",
        Latency::of(
            &grid_samples
                .iter()
                .filter(|s| s.ok)
                .map(|s| s.latency_ns as f64 / 1e6)
                .collect::<Vec<_>>()
        )
        .describe("ms")
    ));
    report.note(format!(
        "grid throughput: {:.2} M simulated instructions per grid-second (median)",
        median(&grid_rates) / 1e6
    ));

    if traced {
        let ring = HashRing::new(&tier.names(), VNODES);
        let balance: Vec<f64> = grids
            .iter()
            .map(|ids| work_balance(ids, &ring, ctx.nproc, &work))
            .collect();
        report.set(
            "cluster.work_balance",
            balance.iter().sum::<f64>() / balance.len().max(1) as f64,
            "ratio",
        );
        report.set(
            "cluster.grid_cells",
            delta(&gw_before, &gw_after, "mds_gateway_grid_cells_total"),
            "count",
        );
        report.set(
            "cluster.retries",
            delta(&gw_before, &gw_after, "mds_gateway_retries_total"),
            "count",
        );
        let failures = delta(
            &gw_before,
            &gw_after,
            "mds_gateway_grid_cell_failures_total",
        );
        report.set("cluster.cell_failures", failures, "count");
        // The gateway's merger recomputes every failed cell locally.
        report.set("cluster.local_recomputes", failures, "count");
        load_metrics(&mut report, &samples, plan.len());
        report.set("store.open_ms", median(&opens) * 1e3, "ms");
        let log_bytes: u64 = tier
            .backends
            .iter()
            .filter_map(|s| s.store().map(Store::log_bytes))
            .sum();
        report.set("store.log_mib", log_bytes as f64 / (1024.0 * 1024.0), "MiB");
        traced_extras(
            ctx,
            &mut report,
            &tier,
            &backends,
            &plan,
            &check,
            &reads,
            &ring,
        )?;
    }
    tier.shutdown();
    report.set("peak_rss_mib", peak_rss_mib(), "MiB");
    Ok(report)
}

/// One `/metrics` scrape of every backend, summed per sample name.
fn scrape_fleet(backends: &[SocketAddr]) -> Result<BTreeMap<String, f64>, String> {
    let mut sum = BTreeMap::new();
    for &b in backends {
        for (name, value) in scrape(b)? {
            *sum.entry(name).or_insert(0.0) += value;
        }
    }
    Ok(sum)
}

#[allow(clippy::too_many_arguments)]
fn traced_extras(
    ctx: &Ctx,
    report: &mut Report,
    tier: &Tier,
    backends: &[SocketAddr],
    plan: &[Planned],
    check: &load::Check<'_>,
    untraced_reads: &[Sample],
    ring: &HashRing,
) -> Result<(), String> {
    let addr = tier.addr();
    // A traced repeat of the mixed schedule's first half, for the tracing
    // overhead.
    let half = plan.last().map_or(0, |p| p.at_ns / 2);
    let first_half: Vec<Planned> = plan.iter().filter(|p| p.at_ns <= half).cloned().collect();
    let traced = load::drive_in_parts(addr, ctx.nproc, &first_half, PARTS, check, &ctx.rec)?;
    trace_overhead(report, &traced, median(&load::latencies_us(untraced_reads)));

    // Reads only, for the keys backend 0 owns: first straight to
    // backend 0, then through the gateway — the difference is what the
    // proxy hop costs.
    let addrs = tier.names();
    let owned: Vec<&'static str> = EXPERIMENT_IDS
        .iter()
        .copied()
        .filter(|id| ring.primary(&format!("{id}@tiny")) == Some(0))
        .collect();
    if owned.is_empty() || addrs.is_empty() {
        return Err("backend 0 owns no read key".to_string());
    }
    let secs = (ctx.seconds / 8.0).max(1.0);
    let direct_plan = reads_schedule(ctx, secs, &owned, ctx.nproc);
    let direct = load::drive(backends[0], ctx.nproc, &direct_plan, check, &ctx.rec)?;
    report.count(
        direct.len() as u64,
        direct.iter().filter(|s| !s.ok).count() as u64,
    );
    let direct_p50 = median(&load::latencies_us(&direct));

    let gw_before = scrape(addr)?;
    let be_before = scrape_fleet(backends)?;
    let proxied = load::drive(addr, ctx.nproc, &direct_plan, check, &ctx.rec)?;
    let gw_after = scrape(addr)?;
    let be_after = scrape_fleet(backends)?;
    let failed = proxied.iter().filter(|s| !s.ok).count() as u64;
    report.count(proxied.len() as u64, failed);
    let proxied_p50 = median(&load::latencies_us(&proxied));
    report.set("cluster.proxy_overhead_us", proxied_p50 - direct_p50, "us");
    let proxy_us = hist_mean(&gw_before, &gw_after, "mds_gateway_proxy_microseconds");
    let upstream_us = hist_mean(&gw_before, &gw_after, "mds_gateway_upstream_microseconds");
    report.set("cluster.proxy_us", proxy_us, "us");
    report.set("cluster.upstream_us", upstream_us, "us");
    let backend_us = server_metrics(report, &be_before, &be_after);
    // The gateway's own share of a read is its proxy time minus the
    // upstream round trip it waited on.
    accounting(
        report,
        proxied_p50,
        backend_us + (proxy_us - upstream_us).max(0.0),
    );
    report.note(format!(
        "proxy hop: gateway read p50 {proxied_p50:.1}us vs direct {direct_p50:.1}us over {} keys owned by backend 0",
        owned.len()
    ));

    // The compute a grid scatters, run in-process: the runner over every
    // pinned experiment, then the layer ladder over the same cells.
    let ids: Vec<String> = pinned().iter().map(|s| s.to_string()).collect();
    let r = reproduce(ctx, &ids, Scale::Tiny, crate::spans::ROOT, 0);
    report.count(r.docs, r.bad_docs);
    runner_metrics(report, &r);
    run_ladder(ctx, report, &ids, Scale::Tiny, &r);
    micro_append(ctx, report)
}
