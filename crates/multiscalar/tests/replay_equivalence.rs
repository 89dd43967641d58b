//! Property test: the planned engine is observationally identical to the
//! reference walk, and both obey the paper's definitions.
//!
//! For any randomized committed instruction stream — random task
//! boundaries, mixed word/byte loads and stores over a small colliding
//! address pool, ALU/FP/branch filler, recycled PCs so the MDPT actually
//! trains — every speculation policy at 1, 4 and 8 stages must produce a
//! [`run_planned`] result byte-identical to [`reference::run`]: cycles,
//! violation counts, synchronization counts, and the full serialized
//! result document. Each result must also pass [`audit`].

use mds_core::Policy;
use mds_emu::{BranchOutcome, DynInst, MemAccess, Trace};
use mds_harness::json::ToJson;
use mds_harness::prelude::*;
use mds_isa::{Instruction, Opcode, Pc, Reg};
use mds_multiscalar::{audit, reference, run_planned, MsConfig};

/// Synthesizes one committed record from a `(kind, sel)` pair.
///
/// The stream is deliberately adversarial for the replay plan: addresses
/// come from a 24-byte pool so word and byte accesses partially overlap
/// across tasks, PCs recycle every 40 slots so dependence predictors see
/// repeated static instructions, and task boundaries arrive at irregular
/// intervals.
fn record(i: usize, kind: usize, sel: u16) -> DynInst {
    let sel = sel as usize;
    let pc = ((i * 7 + sel) % 40) as Pc;
    let base = 0x1000_0000u64;
    let addr = base + (sel % 24) as u64;
    let size = if sel.is_multiple_of(3) { 1 } else { 8 };
    let xr = |n: usize| Reg::x((n % 32) as u8);
    let fr = |n: usize| Reg::f((n % 32) as u8);
    let (inst, mem, branch) = match kind {
        0 => (
            Instruction::rrr(Opcode::Add, xr(sel), xr(sel / 3), xr(sel / 7)),
            None,
            None,
        ),
        1 => (
            Instruction::rri(Opcode::Addi, xr(sel), xr(sel / 5), sel as i32),
            None,
            None,
        ),
        2 => (
            Instruction::rrr(Opcode::Mul, xr(sel), xr(sel / 3), xr(sel / 7)),
            None,
            None,
        ),
        3 => (
            Instruction::rrr(Opcode::FAdd, fr(sel), fr(sel / 3), fr(sel / 7)),
            None,
            None,
        ),
        4 => (
            Instruction::branch(Opcode::Bne, xr(sel), xr(sel / 3), (sel % 40) as i32),
            None,
            Some(BranchOutcome {
                taken: sel.is_multiple_of(2),
                next_pc: ((sel * 3) % 40) as Pc,
            }),
        ),
        5 | 6 => (
            Instruction::load(
                if size == 1 { Opcode::Lb } else { Opcode::Ld },
                xr(sel),
                xr(sel / 3),
                0,
            ),
            Some(MemAccess {
                addr,
                size,
                is_store: false,
            }),
            None,
        ),
        _ => (
            Instruction::store(
                if size == 1 { Opcode::Sb } else { Opcode::Sd },
                xr(sel),
                xr(sel / 3),
                0,
            ),
            Some(MemAccess {
                addr,
                size,
                is_store: true,
            }),
            None,
        ),
    };
    DynInst {
        seq: i as u64,
        pc,
        inst,
        mem,
        branch,
        new_task: sel.is_multiple_of(9),
    }
}

properties! {
    #![config(PropConfig { cases: 12, ..PropConfig::default() })]

    /// The planned engine equals the reference walk for every policy at
    /// 1, 4 and 8 stages, and every result passes the auditor.
    #[test]
    fn planned_replay_equals_reference_and_passes_the_audit(
        cells in vec_of((0usize..9, any::<u16>()), 20..250),
    ) {
        let records: Vec<DynInst> = cells
            .iter()
            .enumerate()
            .map(|(i, &(kind, sel))| record(i, kind, sel))
            .collect();
        let trace = Trace::from_records(&records);

        for stages in [1usize, 4, 8] {
            for policy in Policy::ALL {
                let config = MsConfig::paper(stages, policy).with_ddc_sizes(&[4, 16]);
                let planned = run_planned(&trace, &config);
                let oracle = reference::run(&records, &config);
                prop_assert_eq!(oracle.cycles, planned.cycles);
                prop_assert_eq!(oracle.misspeculations, planned.misspeculations);
                prop_assert_eq!(oracle.synchronized_loads, planned.synchronized_loads);
                prop_assert_eq!(
                    oracle.to_json().to_string(),
                    planned.to_json().to_string()
                );
                let verdict = audit(trace.replay_plan(), &config, &planned);
                prop_assert!(verdict.is_ok(), "{stages} stages, {policy}: {verdict:?}");
            }
        }
    }
}
