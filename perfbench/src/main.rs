//! The mds benchmark: one command per workload, every output checked
//! byte for byte, end-to-end metrics from untraced runs and per-layer
//! metrics from traced ones.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload reproduce|serve_hot|fleet_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root: it reads the pinned reference
//! documents under `ci/pinned/` and keeps its scratch files (stores,
//! span dumps) under `$CARGO_TARGET_DIR` (default `target/`). The last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it are the
//! human-readable report, including the host fingerprint.

mod common;
mod expect;
mod fleet;
mod layers;
mod load;
mod repro;
mod serve;
mod spans;
mod stats;

use common::{Ctx, Report};
use expect::Expected;
use spans::Recorder;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workloads and the one-line reason each was chosen.
const WORKLOADS: [(&str, &str); 3] = [
    (
        "reproduce",
        "every paper experiment and ablation cold at small scale: emulator, simulators and runner with no HTTP; moves on simulator changes, flat on serving changes",
    ),
    (
        "serve_hot",
        "warm store-backed mds-serve at a fixed rate, then at capacity in a closed loop: reactor, HTTP and result cache with zero simulation; the bypass workload for simulator changes",
    ),
    (
        "fleet_mixed",
        "gateway over nproc backends: warm proxied reads beside fresh scatter-gather grids on shared cores; shows a grid change that takes capacity from reads",
    ),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Where scratch files go: under the cargo target directory.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The final result line.
fn result_json(report: &Report, names: &[(&str, &str)]) -> String {
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = report.metrics.get(*name).map_or(0.0, |&(v, _)| v);
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(
            metrics,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload reproduce|serve_hot|fleet_mixed --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let expected = match Expected::load(Path::new(".")) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e} (run from the repository root)");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work = target_dir()
        .join("perfbench-work")
        .join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        nproc,
        expected,
        rec: Recorder::new(args.trace),
        work: work.clone(),
    };
    let why = WORKLOADS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .map_or("", |(_, why)| why);
    println!(
        "host: nproc={nproc} cpu={:?} rustc={:?} profile={} seed={} seconds={} trace={}",
        cpu_model(),
        rustc_version(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("workload: {} ({why})", args.workload);
    let outcome = match args.workload.as_str() {
        "reproduce" => repro::run(&ctx),
        "serve_hot" => serve::run(&ctx),
        _ => fleet::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&work);
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let success = if report.attempted == 0 {
        0.0
    } else {
        1.0 - report.failed as f64 / report.attempted as f64
    };
    report.set("success_rate", success, "ratio");
    if args.trace {
        let spans = ctx.rec.layers().values().map(|t| t.count).sum::<u64>();
        report.set("trace.spans", spans as f64, "count");
        let dir = target_dir().join("perfbench-spans");
        let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
        if std::fs::create_dir_all(&dir).is_ok() && std::fs::write(&path, ctx.rec.to_json()).is_ok()
        {
            report.note(format!("spans written to {}", path.display()));
        }
        report.zero_missing(&layers::PER_LAYER);
    }
    for line in &report.notes {
        println!("{line}");
    }
    println!(
        "operations: {} attempted, {} failed (error_rate {:.6})",
        report.attempted,
        report.failed,
        1.0 - success
    );
    for (name, (value, unit)) in &report.metrics {
        println!("  {name} = {value} {unit}");
    }
    let names: &[(&str, &str)] = if args.trace {
        &layers::PER_LAYER
    } else {
        &layers::END_TO_END
    };
    println!("{}", result_json(&report, names));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_harness::json::Json;

    /// `BENCHMARK.json` declares exactly the workloads and metrics this
    /// program reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let pairs = |key: &str, second: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("array")
                .iter()
                .map(|m| {
                    let field =
                        |k: &str| m.get(k).and_then(Json::as_str).expect("string").to_string();
                    (field("name"), field(second))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(pairs("workloads", "why"), own(&WORKLOADS));
        assert_eq!(pairs("end_to_end", "unit"), own(&layers::END_TO_END));
        assert_eq!(pairs("per_layer", "unit"), own(&layers::PER_LAYER));
    }
}
