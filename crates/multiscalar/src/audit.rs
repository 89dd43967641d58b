//! The dependence auditor: checks one replay result against the paper's
//! definitions, using nothing but the trace's [`ReplayPlan`].
//!
//! Comparing the planned engine with the
//! [reference walk](mod@crate::reference) shows that two engines agree;
//! it cannot show that they agree on the right answer. [`audit`] asserts facts that hold for any correct
//! Multiscalar replay, whatever its timing:
//!
//! - the committed counts (tasks, instructions, loads, stores) are the
//!   plan's, under every policy — squashes never change what commits;
//! - NEVER and PSYNC never mis-speculate: one never issues a load ahead
//!   of an unresolved store, the other waits for every true producer;
//! - with one stage, or when no load's producer store sits in one of the
//!   `stages − 1` tasks before it (no *in-window RAW pair*), there is
//!   nothing to violate, so no policy mis-speculates;
//! - every DDC observes every mis-speculation exactly once: hits + misses
//!   equals the squash count for each configured size;
//! - SYNC and ESYNC record one table 8 breakdown entry per committed load
//!   plus one per squashed load, and the other policies record none.

use crate::config::MsConfig;
use crate::result::MsResult;
use mds_core::Policy;
use mds_emu::plan::{ReplayPlan, NONE};

/// The definitions one result broke, one line each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditError {
    /// Every failed check, in check order.
    pub failures: Vec<String>,
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "audit failed: {}", self.failures.join("; "))
    }
}

impl std::error::Error for AuditError {}

/// Whether some load's inter-task producer store sits in one of the
/// `stages − 1` tasks before the load's own: the only store→load pairs a
/// `stages`-unit machine holds in flight together, and so the only ones
/// it can violate.
fn has_in_window_raw(plan: &ReplayPlan, stages: usize) -> bool {
    let deps = plan.deps();
    (0..plan.tasks()).any(|k| {
        let loads = deps.task_load_start[k] as usize..deps.task_load_start[k + 1] as usize;
        deps.load_inter[loads]
            .iter()
            .any(|&s| s != NONE && k - (deps.store_task[s as usize] as usize) < stages)
    })
}

/// Checks `result`, a replay of `plan` under `config`, against the
/// definitions listed in the [module docs](self).
///
/// # Errors
///
/// Returns every violated definition when any check fails.
pub fn audit(plan: &ReplayPlan, config: &MsConfig, result: &MsResult) -> Result<(), AuditError> {
    let policy = config.policy;
    let squashes = result.misspeculations;
    let deps = plan.deps();
    // `(definition, got, expected)`, one per check.
    let mut checks: Vec<(String, u64, u64)> = vec![
        ("tasks".into(), result.tasks, plan.tasks() as u64),
        (
            "instructions".into(),
            result.instructions,
            plan.len() as u64,
        ),
        (
            "committed loads".into(),
            result.committed_loads,
            deps.loads() as u64,
        ),
        (
            "committed stores".into(),
            result.committed_stores,
            deps.stores() as u64,
        ),
    ];
    if matches!(policy, Policy::Never | Policy::PSync) {
        checks.push((format!("{policy} mis-speculations"), squashes, 0));
    }
    if config.stages <= 1 || !has_in_window_raw(plan, config.stages) {
        let what = "mis-speculations without an in-window RAW pair";
        checks.push((what.into(), squashes, 0));
    }
    let ddcs = (result.ddc.len() as u64, config.ddc_sizes.len() as u64);
    checks.push(("DDC sizes".into(), ddcs.0, ddcs.1));
    for (&(size, hits, misses), &want) in result.ddc.iter().zip(&config.ddc_sizes) {
        checks.push(("DDC size".into(), size as u64, want as u64));
        checks.push((format!("DDC-{size} hits + misses"), hits + misses, squashes));
    }
    let breakdown = result.breakdown.total();
    if policy.uses_predictor() {
        let want = result.committed_loads + squashes;
        checks.push(("breakdown total".into(), breakdown, want));
    } else {
        checks.push((format!("{policy} breakdown total"), breakdown, 0));
    }

    let failures: Vec<String> = checks
        .into_iter()
        .filter(|(_, got, want)| got != want)
        .map(|(what, got, want)| format!("{what}: got {got}, expected {want}"))
        .collect();
    if failures.is_empty() {
        Ok(())
    } else {
        Err(AuditError { failures })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::run_planned;
    use mds_emu::Trace;
    use mds_isa::{Program, ProgramBuilder, Reg};

    /// Every task loads what the previous one stored: an in-window RAW
    /// pair at distance 1.
    fn recurrence(iters: i32) -> Program {
        let mut b = ProgramBuilder::new();
        b.alloc("cell", 1);
        b.la(Reg::S0, "cell");
        b.li(Reg::T0, iters);
        b.label("loop");
        b.task();
        b.ld(Reg::T1, Reg::S0, 0);
        b.mul(Reg::T1, Reg::T1, Reg::T1);
        b.addi(Reg::T1, Reg::T1, 1);
        b.sd(Reg::T1, Reg::S0, 0);
        b.addi(Reg::T0, Reg::T0, -1);
        b.bne(Reg::T0, Reg::ZERO, "loop");
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn real_replays_pass_under_every_policy() {
        let trace = Trace::capture(&recurrence(60)).unwrap();
        let plan = trace.replay_plan();
        assert!(has_in_window_raw(plan, 4));
        assert!(!has_in_window_raw(plan, 1));
        for stages in [1, 4, 8] {
            for policy in Policy::ALL {
                let config = MsConfig::paper(stages, policy).with_ddc_sizes(&[16, 64]);
                let result = run_planned(&trace, &config);
                audit(plan, &config, &result).unwrap_or_else(|e| panic!("{policy}: {e}"));
            }
        }
    }

    #[test]
    fn tampered_results_fail_with_every_broken_definition() {
        let trace = Trace::capture(&recurrence(60)).unwrap();
        let plan = trace.replay_plan();
        let config = MsConfig::paper(4, Policy::Never).with_ddc_sizes(&[16]);
        let mut result = run_planned(&trace, &config);
        result.misspeculations += 1;
        result.committed_loads += 1;
        result.breakdown.record(false, false);
        let err = audit(plan, &config, &result).unwrap_err();
        let text = err.to_string();
        assert_eq!(err.failures.len(), 4, "{text}");
        for what in [
            "committed loads",
            "NEVER mis-speculations",
            "DDC-16",
            "breakdown",
        ] {
            assert!(text.contains(what), "{what} missing from {text}");
        }
    }

    #[test]
    fn squashes_without_an_in_window_pair_are_rejected() {
        let trace = Trace::capture(&recurrence(20)).unwrap();
        let config = MsConfig::paper(1, Policy::Always);
        let mut result = run_planned(&trace, &config);
        assert_eq!(result.misspeculations, 0);
        result.misspeculations = 1;
        let err = audit(trace.replay_plan(), &config, &result).unwrap_err();
        assert!(err.to_string().contains("in-window RAW"), "{err}");
    }
}
