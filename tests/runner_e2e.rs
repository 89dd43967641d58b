//! End-to-end test of the experiment runner: push the figure-5 grid
//! (the int92 suite under every figure-5 policy at 4 and 8 stages)
//! through `mds::runner` and check that the parallel path reproduces the
//! same policy-ordering shapes the serial integration tests assert, while
//! emulating each workload exactly once.

use mds::core::Policy;
use mds::multiscalar::{MsConfig, MsResult};
use mds::runner::{Grid, RunOutcome, Runner};
use mds::workloads::{int92_suite, Scale};
use mds_harness::json::ToJson;

const STAGES: [usize; 2] = [4, 8];
const POLICIES: [Policy; 4] = [Policy::Never, Policy::Always, Policy::Wait, Policy::PSync];

fn fig5_grid() -> Grid {
    let mut grid = Grid::new(Scale::Tiny);
    for wl in int92_suite() {
        for stages in STAGES {
            for policy in POLICIES {
                grid.multiscalar(&wl, MsConfig::paper(stages, policy));
            }
        }
    }
    grid
}

fn cell<'a>(outcome: &'a RunOutcome, name: &str, stages: usize, policy: Policy) -> &'a MsResult {
    let id = format!("{name}/ms/s{stages}/{policy}");
    outcome
        .get(&id)
        .unwrap_or_else(|| panic!("missing cell {id}"))
        .output
        .as_multiscalar()
        .expect("multiscalar cell")
}

#[test]
fn fig5_grid_through_the_runner_matches_serial_shapes() {
    let grid = fig5_grid();
    // 5 workloads x 2 stage counts x 4 policies.
    assert_eq!(grid.len(), 40);
    assert_eq!(grid.distinct_workloads(), 5);

    let outcome = Runner::from_env(None).run(&grid);
    assert_eq!(outcome.results.len(), 40);

    // Each workload was emulated exactly once; every other cell replayed
    // the cached trace.
    assert_eq!(outcome.stats.cache_misses, 5);
    assert_eq!(outcome.stats.cache_hits, 40 - 5);

    for wl in int92_suite() {
        for stages in STAGES {
            let never = cell(&outcome, wl.name, stages, Policy::Never);
            let always = cell(&outcome, wl.name, stages, Policy::Always);
            let psync = cell(&outcome, wl.name, stages, Policy::PSync);

            // The paper's central figure-5 observation: blind speculation
            // beats no speculation (gcc is allowed to tie).
            let speedup = always.speedup_over(never);
            assert!(
                speedup > -8.0,
                "{} at {stages} stages: ALWAYS {speedup:.1}% vs NEVER",
                wl.name
            );

            // The selective oracle never mis-speculates and never loses
            // to blind speculation.
            assert_eq!(psync.misspeculations, 0, "{}", wl.name);
            assert!(
                psync.cycles <= always.cycles + always.cycles / 50,
                "{} at {stages} stages: PSYNC {} vs ALWAYS {}",
                wl.name,
                psync.cycles,
                always.cycles
            );
        }
    }
}

#[test]
fn runner_cells_match_direct_serial_simulation() {
    // One cell cross-checked against running the simulator by hand: the
    // runner's trace-replay path is the same computation.
    let wl = mds::workloads::by_name("espresso").unwrap();
    let mut grid = Grid::new(Scale::Tiny);
    grid.multiscalar(&wl, MsConfig::paper(8, Policy::Esync));
    let outcome = Runner::from_env(None).run(&grid);
    let via_runner = cell(&outcome, "espresso", 8, Policy::Esync);

    let direct = mds::multiscalar::Multiscalar::new(MsConfig::paper(8, Policy::Esync))
        .run(&wl.build(Scale::Tiny))
        .unwrap();
    assert_eq!(via_runner.cycles, direct.cycles);
    assert_eq!(via_runner.misspeculations, direct.misspeculations);
    assert_eq!(via_runner.instructions, direct.instructions);
}

#[test]
fn the_all_experiments_grid_runs_each_distinct_cell_once() {
    let ids: Vec<String> = mds_bench::EXPERIMENT_IDS
        .iter()
        .map(|id| id.to_string())
        .collect();
    let mut grid = Grid::new(Scale::Tiny);
    for cell in mds_bench::grid::cells(&ids, Scale::Tiny) {
        grid.push(cell.job);
    }
    assert_eq!(grid.len(), 187);

    let outcome = Runner::new(2).run(&grid);
    let stats = &outcome.stats;
    assert_eq!(stats.jobs, 187);
    assert_eq!(stats.duplicates, 9);
    assert_eq!(stats.pool.executed.iter().sum::<u64>(), 178);
    assert_eq!(outcome.results.len(), 187);

    // Each duplicate takes the output of the earlier, identical cell,
    // and reports no wall time of its own.
    for (dup, first) in [
        ("custom/tagging/compress/distance", "ms/compress/8/SYNC"),
        ("custom/counter/3/3", "ms/compress/8/SYNC"),
        ("custom/mdpt/gcc/64", "ms/gcc/8/ESYNC"),
    ] {
        let dup = outcome.get(dup).expect("duplicate cell");
        let first = outcome.get(first).expect("first cell");
        assert_eq!(
            dup.output.to_json().to_string(),
            first.output.to_json().to_string()
        );
        assert_eq!(dup.wall_ns, 0);
        assert!(first.wall_ns > 0);
    }
}
