//! Property test: runner output is a pure function of the grid — for any
//! random small grid, a fully serial run (`jobs = 1`) and a 4-worker run
//! produce byte-identical result JSON, and the trace cache emulates each
//! distinct workload exactly once regardless of schedule.
//!
//! The grids draw cells from a small space, so some repeat a cell under
//! a new id; the runner runs those once.

use mds_core::Policy;
use mds_harness::prelude::*;
use mds_multiscalar::MsConfig;
use mds_ooo::{OooConfig, WindowConfig};
use mds_runner::{Grid, Job, JobKind, Runner};
use mds_workloads::{int92_suite, Scale};

/// One randomly chosen grid cell: `(workload index, kind selector)`.
///
/// Kind 0 is a trace summary, 1 a window analysis, 2 a superscalar run,
/// and 3.. a Multiscalar run whose stage count and policy are also drawn
/// from the selector.
fn build_grid(cells: &[(usize, usize)]) -> Grid {
    let suite = int92_suite();
    let mut grid = Grid::new(Scale::Tiny);
    for (i, &(wl_idx, kind)) in cells.iter().enumerate() {
        let wl = suite[wl_idx % suite.len()];
        let policy = Policy::ALL[kind % Policy::ALL.len()];
        let job_kind = match kind % 6 {
            0 => JobKind::Summary,
            1 => JobKind::Window(WindowConfig {
                window_sizes: vec![16, 64],
                ddc_sizes: vec![32],
            }),
            2 => JobKind::Superscalar(OooConfig {
                policy,
                ..Default::default()
            }),
            k => JobKind::Multiscalar(MsConfig::paper(if k % 2 == 0 { 4 } else { 8 }, policy)),
        };
        grid.push(Job {
            id: format!("{i}/{}/{}", wl.name, kind % 6),
            workload: wl,
            scale: Scale::Tiny,
            kind: job_kind,
        });
    }
    grid
}

properties! {
    #![config(PropConfig { cases: 6, ..PropConfig::default() })]

    /// Serial and 4-worker runs of the same random grid serialize to the
    /// same bytes, and both emulate each distinct workload exactly once.
    #[test]
    fn parallel_results_are_byte_identical_to_serial(
        cells in vec_of((0usize..5, 0usize..12), 1..12),
    ) {
        let grid = build_grid(&cells);
        let serial = Runner::new(1).run(&grid);
        let parallel = Runner::new(4).run(&grid);

        prop_assert_eq!(
            serial.results_json().pretty(),
            parallel.results_json().pretty()
        );

        // Cells identical but for their id run once: only the others
        // fetch a trace.
        let distinct = grid.distinct_workloads() as u64;
        for outcome in [&serial, &parallel] {
            let fetches = (grid.len() - outcome.stats.duplicates) as u64;
            prop_assert_eq!(outcome.stats.cache_misses, distinct);
            prop_assert_eq!(outcome.stats.cache_hits, fetches - distinct);
        }
    }
}
