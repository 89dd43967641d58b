//! Captured committed instruction streams, and their human-readable
//! rendering.
//!
//! [`Trace`] is the machine-facing half: a fully-captured committed
//! stream, held as the columns of its [`ReplayPlan`], that downstream
//! simulators replay read-only. It is `Send + Sync` by construction, so
//! one emulation can be shared across threads behind an `Arc` — the
//! substrate of `mds-runner`'s shared trace cache, where every
//! (workload × policy × config) grid cell replays the same stream.
//!
//! The rendering half is for humans: debugging a dependence-speculation
//! study means staring at traces, so [`format_dyninst`] renders records
//! the way an architect would annotate them — disassembly plus resolved
//! addresses, branch outcomes, and task boundaries.

use crate::dyninst::DynInst;
use crate::machine::{EmuError, Emulator, TraceSummary};
use crate::plan::{PlanBuilder, Records, ReplayPlan};
use mds_isa::Program;
use std::borrow::Borrow;
use std::fmt::Write as _;

/// A fully-captured committed instruction stream plus its aggregate
/// counts.
///
/// The stream is held once, as the columns of its [`ReplayPlan`]: the
/// emulator writes them while it runs, and no `DynInst` record is kept.
/// [`Trace::records`] decodes the records back on demand, and
/// [`Trace::replay_plan`] resolves the Multiscalar dependence index on
/// first use. The [`TraceSummary`] is kept alongside, so consumers that
/// only need counts (e.g. table 1 of the paper) never walk the stream.
/// The type is immutable after capture (the index is derived state) and
/// `Send + Sync`, so it can be shared across worker threads behind an
/// `Arc`.
///
/// # Examples
///
/// ```
/// use mds_isa::{ProgramBuilder, Reg};
/// use mds_emu::Trace;
///
/// let mut b = ProgramBuilder::new();
/// b.li(Reg::T0, 3);
/// b.label("loop");
/// b.addi(Reg::T0, Reg::T0, -1);
/// b.bne(Reg::T0, Reg::ZERO, "loop");
/// b.halt();
/// let p = b.build()?;
///
/// let trace = Trace::capture(&p)?;
/// assert_eq!(trace.len() as u64, trace.summary().instructions);
/// assert_eq!(trace.summary().taken_branches, 2);
/// assert_eq!(trace.records().filter(|d| d.branch.is_some()).count(), 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    plan: ReplayPlan,
    summary: TraceSummary,
}

// The whole point of `Trace` is cross-thread sharing; keep that property
// checked at compile time.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Trace>();
};

impl Trace {
    /// Runs `program` to completion on a fresh [`Emulator`] and captures
    /// the full committed stream.
    ///
    /// # Errors
    ///
    /// Propagates any [`EmuError`] from execution (wild PCs, the
    /// instruction budget).
    pub fn capture(program: &Program) -> Result<Trace, EmuError> {
        Self::capture_limited(program, None)
    }

    /// Like [`Trace::capture`] with an explicit instruction budget.
    ///
    /// # Errors
    ///
    /// Propagates any [`EmuError`] from execution.
    pub fn capture_limited(program: &Program, limit: Option<u64>) -> Result<Trace, EmuError> {
        let mut emu = Emulator::new(program);
        if let Some(limit) = limit {
            emu = emu.with_limit(limit);
        }
        let mut builder = PlanBuilder::for_program(program);
        let summary = emu.run_with(|d| builder.push(d))?;
        Ok(Trace {
            plan: builder.finish(),
            summary,
        })
    }

    /// Captures an already-collected committed stream, counting its
    /// summary the way the emulator does.
    ///
    /// [`Trace::records`] yields each record with `seq` set to its
    /// position; see [`PlanBuilder`] for the static-instruction table.
    pub fn from_records(records: impl IntoIterator<Item = impl Borrow<DynInst>>) -> Trace {
        let mut builder = PlanBuilder::default();
        let mut summary = TraceSummary::default();
        for d in records {
            let d = d.borrow();
            summary.count(d);
            builder.push(d);
        }
        Trace {
            plan: builder.finish(),
            summary,
        }
    }

    /// The replay plan for this trace, with its dependence index resolved
    /// on the first call. Subsequent calls (from any thread) return the
    /// same plan and index.
    pub fn replay_plan(&self) -> &ReplayPlan {
        self.plan.deps();
        &self.plan
    }

    /// The committed records in sequential order, decoded from the
    /// plan's columns.
    pub fn records(&self) -> Records<'_> {
        self.plan.records()
    }

    /// Aggregate counts over the whole stream.
    pub fn summary(&self) -> TraceSummary {
        self.summary
    }

    /// Number of committed instructions.
    pub fn len(&self) -> usize {
        self.plan.len()
    }

    /// `true` when the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.plan.is_empty()
    }

    /// Approximate resident size of the trace in bytes (the plan's
    /// columns, plus its dependence index once resolved) — the number a
    /// trace cache budgets against.
    pub fn resident_bytes(&self) -> usize {
        self.plan.resident_bytes()
    }
}

/// Formats one committed instruction as a single annotated line.
///
/// # Examples
///
/// ```
/// use mds_isa::{ProgramBuilder, Reg};
/// use mds_emu::{format_dyninst, Emulator};
///
/// let mut b = ProgramBuilder::new();
/// b.alloc("x", 1);
/// b.la(Reg::S0, "x");
/// b.ld(Reg::T0, Reg::S0, 0);
/// b.halt();
/// let p = b.build()?;
/// let trace = Emulator::new(&p).run()?;
/// let line = format_dyninst(&trace[1]);
/// assert!(line.contains("ld t0, 0(s0)"));
/// assert!(line.contains("[load @0x10000000]"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn format_dyninst(d: &DynInst) -> String {
    let mut line = String::new();
    if d.new_task {
        line.push_str("==task== ");
    }
    let _ = write!(
        line,
        "{:>8}  pc={:<5} {:<28}",
        d.seq,
        d.pc,
        d.inst.to_string()
    );
    if let Some(m) = d.mem {
        let kind = if m.is_store { "store" } else { "load" };
        let _ = write!(line, " [{kind} @{:#x}", m.addr);
        if m.size != 8 {
            let _ = write!(line, " x{}", m.size);
        }
        line.push(']');
    }
    if let Some(b) = d.branch {
        if b.taken {
            let _ = write!(line, " [taken -> {}]", b.next_pc);
        } else {
            line.push_str(" [not taken]");
        }
    }
    line
}

/// Renders a whole trace (or a window of one) with one line per record.
///
/// Intended for short traces and debugging sessions; for long workloads,
/// pass a window (`trace.records().skip(n).take(m)`).
pub fn format_trace(records: impl IntoIterator<Item = impl Borrow<DynInst>>) -> String {
    let mut out = String::new();
    for d in records {
        out.push_str(&format_dyninst(d.borrow()));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Emulator;
    use mds_isa::{ProgramBuilder, Reg};

    fn sample_trace() -> Trace {
        Trace::capture(&sample_program()).unwrap()
    }

    #[test]
    fn annotates_memory_and_branches() {
        let text = format_trace(sample_trace().records());
        assert!(text.contains("[load @0x10000000]"));
        assert!(text.contains("x1]"), "byte store shows its size: {text}");
        assert!(text.contains("[taken -> 2]"));
        assert!(text.contains("[not taken]"));
    }

    #[test]
    fn marks_task_boundaries() {
        let boundaries = format_trace(sample_trace().records())
            .lines()
            .filter(|l| l.starts_with("==task=="))
            .count();
        // seq 0 plus two loop iterations.
        assert_eq!(boundaries, 3);
    }

    #[test]
    fn plain_alu_lines_have_no_annotations() {
        let line = format_dyninst(&sample_trace().records().nth(1).unwrap()); // li t0, 2
        assert!(!line.contains('['));
        assert!(line.contains("li t0, 2"));
    }

    fn sample_program() -> mds_isa::Program {
        let mut b = ProgramBuilder::new();
        b.alloc("buf", 2);
        b.la(Reg::S0, "buf");
        b.li(Reg::T0, 2);
        b.label("loop");
        b.task();
        b.ld(Reg::T1, Reg::S0, 0);
        b.addi(Reg::T1, Reg::T1, 1);
        b.sb(Reg::T1, Reg::S0, 8);
        b.addi(Reg::T0, Reg::T0, -1);
        b.bne(Reg::T0, Reg::ZERO, "loop");
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn capture_matches_streaming_run() {
        let p = sample_program();
        let trace = Trace::capture(&p).unwrap();
        let mut emu = Emulator::new(&p);
        let records = emu.run().unwrap();
        assert!(trace.records().eq(records.iter().copied()));
        assert_eq!(trace.records().len(), records.len());
        assert_eq!(trace.summary(), emu.summary());
        assert_eq!(trace.len(), records.len());
        assert!(!trace.is_empty());
        assert!(trace.resident_bytes() >= records.len());
    }

    #[test]
    fn capture_limited_propagates_budget_errors() {
        let mut b = ProgramBuilder::new();
        b.label("spin");
        b.j("spin");
        let p = b.build().unwrap();
        let err = Trace::capture_limited(&p, Some(10)).unwrap_err();
        assert_eq!(err, EmuError::InstructionLimit { executed: 10 });
    }

    #[test]
    fn traces_share_across_threads() {
        let p = sample_program();
        let trace = std::sync::Arc::new(Trace::capture(&p).unwrap());
        let counts: Vec<u64> = std::thread::scope(|s| {
            (0..2)
                .map(|_| {
                    let t = std::sync::Arc::clone(&trace);
                    s.spawn(move || t.records().filter(|d| d.is_load()).count() as u64)
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[0], trace.summary().loads);
    }

    #[test]
    fn from_records_round_trips_and_counts_like_the_emulator() {
        let p = sample_program();
        let mut emu = Emulator::new(&p);
        let records = emu.run().unwrap();
        let t = Trace::from_records(&records);
        assert!(t.records().eq(records.iter().copied()));
        assert_eq!(t.summary(), emu.summary());
        assert_eq!(t, Trace::capture(&p).unwrap());
    }

    #[test]
    fn the_dependence_index_is_resolved_on_first_replay_plan() {
        let trace = Trace::capture(&sample_program()).unwrap();
        let columns = trace.resident_bytes();
        let plan = trace.replay_plan();
        assert_eq!(plan.deps().loads() as u64, trace.summary().loads);
        assert!(trace.resident_bytes() > columns);
        assert!(std::ptr::eq(plan, trace.replay_plan()));
    }
}
