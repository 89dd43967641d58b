//! Benchmarks for the planned replay engine against the reference walk.
//!
//! Run with `cargo bench --bench replay -- --scale small`; results are
//! written to `BENCH_replay.json` at the workspace root. The suite
//! measures:
//!
//! - `capture` — one emulation of the workload streamed into the plan's
//!   columns ([`mds_emu::Trace::capture`]), the trace cache's miss cost;
//! - `plan_build` — the one-time dependence pass over those columns
//!   ([`mds_emu::Dependences::resolve`]), which the first Multiscalar
//!   replay of a trace pays;
//! - per-policy `reference` vs `planned` replay — the SoA walk with
//!   pre-resolved dependences against the record-stream reference walk
//!   ([`mds_multiscalar::reference`]), which reads the emulator's own
//!   records;
//! - `reference_x6` vs `planned_x6` — the paper's actual workload shape:
//!   all six speculation policies over one trace, replayed one after
//!   another by each engine. The CI bench gate enforces `planned_x6` ≥ 2×
//!   `reference_x6` at 8 stages.

use mds_core::Policy;
use mds_emu::{Dependences, Emulator, Trace};
use mds_harness::bench::Harness;
use mds_multiscalar::{reference, run_planned, MsConfig, MsResult};
use mds_workloads::{by_name, Scale};
use std::hint::black_box;

/// One replay engine, bound to its input.
type Replay<'a> = &'a dyn Fn(&MsConfig) -> MsResult;

fn main() {
    let mut h = Harness::new("replay");
    let (scale, tag) = match h.scale() {
        "small" => (Scale::Small, "small"),
        "full" => (Scale::Full, "full"),
        _ => (Scale::Tiny, "tiny"),
    };
    let p = by_name("compress").unwrap().build(scale);
    let trace = Trace::capture(&p).unwrap();
    let n = trace.summary().instructions;

    h.bench_with_throughput(&format!("replay/capture_compress_{tag}"), n, |b| {
        b.iter(|| black_box(Trace::capture(&p).unwrap().len()));
    });

    h.bench_with_throughput(&format!("replay/plan_build_compress_{tag}"), n, |b| {
        b.iter(|| {
            // Resolve afresh each iteration; the index cached on `trace`
            // would make this a no-op.
            black_box(Dependences::resolve(trace.replay_plan()).loads())
        });
    });

    // Warm the shared plan once so every replay measurement below sees
    // the steady state (index resolved, trace resident) the runner sees.
    let _ = trace.replay_plan();

    let records = Emulator::new(&p).run().unwrap();
    let reference = |c: &MsConfig| reference::run(&records, c);
    let planned = |c: &MsConfig| run_planned(&trace, c);
    let engines: [(&str, Replay); 2] = [("reference", &reference), ("planned", &planned)];
    for stages in [4usize, 8] {
        let configs: Vec<MsConfig> = Policy::ALL
            .iter()
            .map(|&policy| MsConfig::paper(stages, policy))
            .collect();

        for (engine, replay) in engines {
            h.bench_with_throughput(
                &format!("multiscalar/compress_{tag}_{stages}st_{engine}_x6"),
                n * configs.len() as u64,
                |b| {
                    b.iter(|| {
                        let cycles: u64 = configs.iter().map(|c| replay(c).cycles).sum();
                        black_box(cycles)
                    });
                },
            );
        }

        for policy in [Policy::Always, Policy::Esync] {
            let config = MsConfig::paper(stages, policy);
            for (engine, replay) in engines {
                h.bench_with_throughput(
                    &format!("multiscalar/compress_{tag}_{stages}st_{policy}_{engine}"),
                    n,
                    |b| {
                        b.iter(|| black_box(replay(&config).cycles));
                    },
                );
            }
        }
    }

    h.finish();
}
