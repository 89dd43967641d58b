//! Every Multiscalar cell of `repro all --scale tiny` — the cells behind
//! the pinned documents in `ci/pinned` — must replay byte-identically on
//! the planned engine and on the reference walk, and must pass the
//! dependence auditor.
//!
//! The pinned documents prove the planned engine reproduces the recorded
//! cycles; this test proves it cell by cell against the oracle and
//! against the paper's definitions, so a divergence names its cell.

use mds::emu::{DynInst, Emulator, Trace};
use mds::multiscalar::{audit, reference, run_planned};
use mds::runner::JobKind;
use mds::workloads::Scale;
use mds_harness::json::ToJson;
use std::collections::HashMap;

#[test]
fn every_pinned_multiscalar_cell_matches_the_reference_and_passes_the_audit() {
    let ids: Vec<String> = mds_bench::PAPER_IDS
        .iter()
        .map(|id| id.to_string())
        .collect();
    // Each workload's trace, and the emulator's own records for the
    // reference walk, so a decode bug cannot hide behind a shared input.
    let mut traces: HashMap<&str, (Trace, Vec<DynInst>)> = HashMap::new();
    let mut checked = 0;
    for cell in mds_bench::grid::cells(&ids, Scale::Tiny) {
        let JobKind::Multiscalar(config) = &cell.job.kind else {
            continue;
        };
        let workload = cell.job.workload;
        let (trace, records) = traces.entry(workload.name).or_insert_with(|| {
            let program = workload.build(Scale::Tiny);
            let records = Emulator::new(&program).run().expect("workload emulates");
            (
                Trace::capture(&program).expect("workload emulates"),
                records,
            )
        });
        let id = &cell.job.id;
        let planned = run_planned(trace, config);
        let oracle = reference::run(records, config);
        assert_eq!(
            planned.to_json().to_string(),
            oracle.to_json().to_string(),
            "{id}: planned engine diverges from the reference walk"
        );
        audit(trace.replay_plan(), config, &planned).unwrap_or_else(|e| panic!("{id}: {e}"));
        checked += 1;
    }
    // Tables 6–9 and figures 5–7 over the 23 workloads.
    assert!(checked >= 100, "only {checked} Multiscalar cells");
    eprintln!("{checked} Multiscalar cells identical and audited");
}
