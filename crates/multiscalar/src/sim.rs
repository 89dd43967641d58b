//! The Multiscalar simulator's program-level entry points: emulate, then
//! replay the committed stream on the planned engine.

use crate::config::MsConfig;
use crate::replay::replay;
use crate::result::MsResult;
use mds_emu::{EmuError, Emulator, PlanBuilder};
use mds_isa::Program;

/// A configured Multiscalar processor model.
///
/// `Multiscalar` is stateless between runs: [`Multiscalar::run`] executes
/// a program functionally (via `mds-emu`) and replays the committed
/// stream on a fresh timing state with the planned engine (the engine
/// behind [`run_planned`](crate::run_planned)), so results are
/// deterministic and runs are independent. Records stream straight from
/// the emulator into a [`PlanBuilder`]'s columns; none is kept. Callers
/// holding a [`Trace`](mds_emu::Trace) call
/// [`run_planned`](crate::run_planned) instead, which resolves the
/// trace's dependence index once for every configuration.
///
/// See the [crate documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct Multiscalar {
    config: MsConfig,
}

impl Multiscalar {
    /// Creates a simulator with the given configuration.
    pub fn new(config: MsConfig) -> Self {
        Multiscalar { config }
    }

    /// The configuration.
    pub fn config(&self) -> &MsConfig {
        &self.config
    }

    /// Runs `program` to completion and returns the timing result.
    ///
    /// # Errors
    ///
    /// Propagates functional-execution errors ([`EmuError`]) — wild PCs or
    /// the instruction budget.
    pub fn run(&self, program: &Program) -> Result<MsResult, EmuError> {
        self.run_limited(program, u64::MAX)
    }

    /// Like [`Multiscalar::run`] with an explicit instruction budget.
    ///
    /// # Errors
    ///
    /// Propagates functional-execution errors ([`EmuError`]).
    pub fn run_limited(&self, program: &Program, limit: u64) -> Result<MsResult, EmuError> {
        let mut emu = Emulator::new(program);
        if limit != u64::MAX {
            emu = emu.with_limit(limit);
        }
        let mut plan = PlanBuilder::for_program(program);
        match emu.run_with(|d| plan.push(d)) {
            Ok(_) => {}
            // A budget-limited run is still a valid (truncated) sample.
            Err(EmuError::InstructionLimit { .. }) if limit != u64::MAX => {}
            Err(e) => return Err(e),
        }
        Ok(replay(&plan.finish(), &self.config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_core::Policy;
    use mds_isa::{ProgramBuilder, Reg};

    /// Iterations-as-tasks loop whose loads never conflict with its
    /// stores, but whose store addresses resolve slowly (through a
    /// divide). Blind speculation sails through; refusing to speculate
    /// (NEVER) stalls every load behind older tasks' unresolved stores.
    fn independent_tasks(iters: i32) -> Program {
        let mut b = ProgramBuilder::new();
        b.alloc("arr", 8192);
        b.alloc("dst", 1024);
        b.la(Reg::S0, "arr");
        b.la(Reg::S1, "dst");
        b.li(Reg::T0, iters);
        b.li(Reg::T6, 1);
        b.label("loop");
        b.task();
        b.ld(Reg::T1, Reg::S0, 0);
        b.mul(Reg::T2, Reg::T1, Reg::T1);
        b.addi(Reg::T2, Reg::T2, 3);
        b.div(Reg::T4, Reg::T0, Reg::T6); // 12-cycle store-address compute
        b.andi(Reg::T4, Reg::T4, 0xff8);
        b.add(Reg::T4, Reg::S1, Reg::T4);
        b.sd(Reg::T2, Reg::T4, 0);
        b.addi(Reg::S0, Reg::S0, 8);
        b.addi(Reg::T0, Reg::T0, -1);
        b.bne(Reg::T0, Reg::ZERO, "loop");
        b.halt();
        b.build().unwrap()
    }

    /// A recurrence at task distance 5 through a 5-cell ring buffer: task
    /// k loads what task k-5 stored. A 4-stage window (3 older tasks)
    /// never sees the producer; an 8-stage window (7 older tasks) does —
    /// the table 6 "bigger window, more mis-speculation" effect.
    fn distant_recurrence_tasks(iters: i32) -> Program {
        let mut b = ProgramBuilder::new();
        b.alloc("ring", 5);
        b.la(Reg::S2, "ring");
        b.la(Reg::S3, "ring");
        b.li(Reg::T5, 0); // ring index
        b.li(Reg::T6, 5);
        b.li(Reg::T0, iters);
        b.label("loop");
        b.task();
        b.ld(Reg::T1, Reg::S2, 0); // written by task k-5
        b.mul(Reg::T3, Reg::T1, Reg::T1);
        b.addi(Reg::T1, Reg::T1, 1);
        b.sd(Reg::T1, Reg::S2, 0);
        b.addi(Reg::S2, Reg::S2, 8);
        b.addi(Reg::T5, Reg::T5, 1);
        b.bne(Reg::T5, Reg::T6, "noreset");
        b.mv(Reg::S2, Reg::S3);
        b.mv(Reg::T5, Reg::ZERO);
        b.label("noreset");
        b.addi(Reg::T0, Reg::T0, -1);
        b.bne(Reg::T0, Reg::ZERO, "loop");
        b.halt();
        b.build().unwrap()
    }

    /// Iterations-as-tasks loop with a cross-task recurrence through one
    /// memory cell (every iteration loads what the previous one stored).
    fn recurrence_tasks(iters: i32) -> Program {
        let mut b = ProgramBuilder::new();
        b.alloc("cell", 1);
        b.alloc("pad", 64);
        b.la(Reg::S0, "cell");
        b.la(Reg::S1, "pad");
        b.li(Reg::T0, iters);
        b.label("loop");
        b.task();
        b.ld(Reg::T1, Reg::S0, 0); // depends on previous task's store
        b.addi(Reg::T1, Reg::T1, 1);
        // Filler work so tasks overlap and the store lands late.
        b.mul(Reg::T3, Reg::T1, Reg::T1);
        b.mul(Reg::T3, Reg::T3, Reg::T1);
        b.sd(Reg::T3, Reg::S1, 0);
        b.sd(Reg::T1, Reg::S0, 0); // the recurrence store
        b.addi(Reg::T0, Reg::T0, -1);
        b.bne(Reg::T0, Reg::ZERO, "loop");
        b.halt();
        b.build().unwrap()
    }

    fn run(p: &Program, stages: usize, policy: Policy) -> MsResult {
        Multiscalar::new(MsConfig::paper(stages, policy))
            .run(p)
            .unwrap()
    }

    #[test]
    fn committed_instructions_match_trace_for_every_policy() {
        let p = recurrence_tasks(50);
        let expected = {
            let mut e = Emulator::new(&p);
            e.run_with(|_| {}).unwrap().instructions
        };
        for policy in Policy::ALL {
            let r = run(&p, 4, policy);
            assert_eq!(r.instructions, expected, "{policy}");
        }
    }

    #[test]
    fn parallel_tasks_give_superscalar_ipc() {
        let p = independent_tasks(400);
        let r = run(&p, 4, Policy::Always);
        assert!(r.ipc() > 1.2, "ipc = {}", r.ipc());
        assert_eq!(r.misspeculations, 0);
    }

    #[test]
    fn always_beats_never_on_independent_tasks() {
        let p = independent_tasks(400);
        let never = run(&p, 4, Policy::Never);
        let always = run(&p, 4, Policy::Always);
        assert!(
            always.cycles < never.cycles,
            "ALWAYS {} vs NEVER {}",
            always.cycles,
            never.cycles
        );
    }

    #[test]
    fn blind_speculation_misspeculates_on_recurrences() {
        let p = recurrence_tasks(300);
        let r = run(&p, 4, Policy::Always);
        assert!(r.misspeculations > 50, "got {}", r.misspeculations);
    }

    #[test]
    fn psync_eliminates_misspeculation_and_beats_blind() {
        let p = recurrence_tasks(300);
        let always = run(&p, 4, Policy::Always);
        let psync = run(&p, 4, Policy::PSync);
        assert_eq!(psync.misspeculations, 0);
        assert!(
            psync.cycles <= always.cycles,
            "PSYNC {} vs ALWAYS {}",
            psync.cycles,
            always.cycles
        );
    }

    #[test]
    fn sync_cuts_misspeculations_by_an_order_of_magnitude() {
        let p = recurrence_tasks(500);
        let always = run(&p, 4, Policy::Always);
        let sync = run(&p, 4, Policy::Sync);
        assert!(
            sync.misspeculations * 10 <= always.misspeculations,
            "SYNC {} vs ALWAYS {}",
            sync.misspeculations,
            always.misspeculations
        );
        assert!(sync.synchronized_loads > 0);
    }

    #[test]
    fn esync_matches_or_beats_sync_here() {
        let p = recurrence_tasks(500);
        let sync = run(&p, 4, Policy::Sync);
        let esync = run(&p, 4, Policy::Esync);
        assert!(
            esync.misspeculations <= sync.misspeculations + 5,
            "ESYNC {} vs SYNC {}",
            esync.misspeculations,
            sync.misspeculations
        );
    }

    #[test]
    fn more_stages_mean_more_misspeculations_under_blind() {
        // Table 6's shape: a larger window exposes more violations. The
        // recurrence sits at task distance 5 — invisible to a 4-stage
        // window, violated constantly in an 8-stage one.
        let p = distant_recurrence_tasks(400);
        let four = run(&p, 4, Policy::Always);
        let eight = run(&p, 8, Policy::Always);
        assert!(
            eight.misspeculations > four.misspeculations + 50,
            "8-stage {} vs 4-stage {}",
            eight.misspeculations,
            four.misspeculations
        );
    }

    #[test]
    fn determinism() {
        let p = recurrence_tasks(100);
        let a = run(&p, 4, Policy::Esync);
        let b = run(&p, 4, Policy::Esync);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.misspeculations, b.misspeculations);
        assert_eq!(a.breakdown, b.breakdown);
    }

    #[test]
    fn ddc_measurement_reports_rates() {
        let p = recurrence_tasks(300);
        let cfg = MsConfig::paper(4, Policy::Always).with_ddc_sizes(&[16, 64]);
        let r = Multiscalar::new(cfg).run(&p).unwrap();
        let small = r.ddc_miss_rate(16).unwrap();
        let large = r.ddc_miss_rate(64).unwrap();
        assert!(large.value() <= small.value() + 1e-9);
        // One hot edge: nearly everything hits.
        assert!(large.value() < 50.0);
    }

    #[test]
    fn control_predictor_learns_the_loop() {
        let p = independent_tasks(400);
        let r = run(&p, 4, Policy::Always);
        assert!(
            r.control_accuracy().value() > 90.0,
            "accuracy {}",
            r.control_accuracy()
        );
    }

    #[test]
    fn single_stage_degenerates_to_serial_execution() {
        let p = recurrence_tasks(50);
        let r = run(&p, 1, Policy::Always);
        assert_eq!(r.misspeculations, 0); // no cross-task window at all
        assert!(r.ipc() <= 2.0 + 1e-9);
    }

    #[test]
    fn breakdown_populated_only_for_predictor_policies() {
        let p = recurrence_tasks(100);
        assert_eq!(run(&p, 4, Policy::Always).breakdown.total(), 0);
        let sync = run(&p, 4, Policy::Sync);
        assert!(sync.breakdown.total() > 0);
    }

    #[test]
    fn address_tagging_synchronizes_variable_distance_edges() {
        // A recurrence whose distance alternates between 1 and 2: the
        // distance-tagged scheme keeps guessing the wrong producer task,
        // while address tagging identifies it exactly.
        let mut b = ProgramBuilder::new();
        b.alloc("cell", 1);
        b.alloc("other", 1);
        b.la(Reg::S0, "cell");
        b.la(Reg::S1, "other");
        b.li(Reg::T6, 3);
        b.li(Reg::A3, 0);
        b.li(Reg::T0, 400);
        b.label("loop");
        b.task();
        b.ld(Reg::T1, Reg::S0, 0);
        b.mul(Reg::T2, Reg::T1, Reg::T1);
        b.addi(Reg::T1, Reg::T1, 1);
        // Two of every three tasks write the cell; one writes elsewhere,
        // so the consumer's true distance alternates 1, 1, 2, 1, 1, 2…
        b.addi(Reg::A3, Reg::A3, 1);
        b.bne(Reg::A3, Reg::T6, "write_cell");
        b.mv(Reg::A3, Reg::ZERO);
        b.sd(Reg::T1, Reg::S1, 0);
        b.j("next");
        b.label("write_cell");
        b.sd(Reg::T1, Reg::S0, 0);
        b.label("next");
        b.addi(Reg::T0, Reg::T0, -1);
        b.bne(Reg::T0, Reg::ZERO, "loop");
        b.halt();
        let p = b.build().unwrap();

        let mut dist_cfg = MsConfig::paper(8, Policy::Sync);
        dist_cfg.tagging = mds_core::TagScheme::DependenceDistance;
        let dist = Multiscalar::new(dist_cfg).run(&p).unwrap();
        let mut addr_cfg = MsConfig::paper(8, Policy::Sync);
        addr_cfg.tagging = mds_core::TagScheme::DataAddress;
        let addr = Multiscalar::new(addr_cfg).run(&p).unwrap();
        assert!(
            addr.misspeculations <= dist.misspeculations,
            "address {} vs distance {}",
            addr.misspeculations,
            dist.misspeculations
        );
        assert!(addr.misspeculations < 20, "got {}", addr.misspeculations);
    }

    #[test]
    fn run_limited_truncates_gracefully() {
        let p = independent_tasks(1000);
        let sim = Multiscalar::new(MsConfig::paper(4, Policy::Always));
        let r = sim.run_limited(&p, 500).unwrap();
        assert!(r.instructions <= 500);
        assert!(r.instructions > 0);
    }
}
