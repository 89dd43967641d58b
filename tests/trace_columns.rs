//! A captured trace keeps its committed stream once, as the replay
//! plan's columns, and decodes records from them on demand. These tests
//! hold that representation to the emulator's own records:
//!
//! - decoding is lossless, record for record, on random programs that
//!   make byte and unaligned accesses, call and return, and take
//!   branches whose target is the next PC, and on every registered
//!   workload;
//! - a trace counts its summary exactly as the emulator does;
//! - once its dependence index is resolved, a trace stays within 32
//!   resident bytes per record, so a second, record-per-instruction copy
//!   of the stream (48 bytes a record) cannot come back unnoticed.

use mds::emu::{DynInst, Emulator, Trace};
use mds::isa::{Program, ProgramBuilder, Reg};
use mds::workloads::{self, Scale};
use mds_harness::prelude::*;

/// One random loop-body operation.
#[derive(Debug, Clone)]
enum Op {
    /// Word load at a byte offset (unaligned unless a multiple of 8).
    Load { off: u8 },
    /// Word store at a byte offset.
    Store { off: u8 },
    /// Byte load.
    LoadByte { off: u8 },
    /// Byte store.
    StoreByte { off: u8 },
    /// A branch that is taken and lands on the next PC anyway.
    TakenToNext,
    /// A branch that is never taken.
    NotTaken,
    /// A call to a subroutine that returns at once.
    Call,
    /// Floating-point work fed from the accumulator.
    Fp,
    /// A task boundary inside the loop body.
    Task,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..120).prop_map(|off| Op::Load { off }),
        (0u8..120).prop_map(|off| Op::Store { off }),
        (0u8..128).prop_map(|off| Op::LoadByte { off }),
        (0u8..128).prop_map(|off| Op::StoreByte { off }),
        Just(Op::TakenToNext),
        Just(Op::NotTaken),
        Just(Op::Call),
        Just(Op::Fp),
        Just(Op::Task),
    ]
}

/// A counted loop over `ops`, each iteration a task.
fn build_program(ops: &[Op], iters: u8) -> Program {
    let mut b = ProgramBuilder::new();
    b.alloc("buf", 17);
    b.la(Reg::S0, "buf");
    b.li(Reg::A0, 0x5a5a);
    b.li(Reg::T0, iters as i32 + 1);
    b.label("loop");
    b.task();
    for op in ops {
        match *op {
            Op::Load { off } => b.ld(Reg::A0, Reg::S0, off as i32),
            Op::Store { off } => b.sd(Reg::A0, Reg::S0, off as i32),
            Op::LoadByte { off } => b.lb(Reg::A1, Reg::S0, off as i32),
            Op::StoreByte { off } => b.sb(Reg::A0, Reg::S0, off as i32),
            Op::TakenToNext => {
                let next = b.here() + 1;
                b.beq(Reg::ZERO, Reg::ZERO, next)
            }
            Op::NotTaken => {
                let next = b.here() + 1;
                b.bne(Reg::ZERO, Reg::ZERO, next)
            }
            Op::Call => b.call("sub"),
            Op::Fp => {
                b.fcvt_d_l(Reg::f(1), Reg::A0);
                b.fadd(Reg::f(2), Reg::f(1), Reg::f(2))
            }
            Op::Task => b.task(),
        };
        b.addi(Reg::A0, Reg::A0, 3);
    }
    b.addi(Reg::T0, Reg::T0, -1);
    b.bne(Reg::T0, Reg::ZERO, "loop");
    b.halt();
    b.label("sub");
    b.addi(Reg::A2, Reg::A2, 1);
    b.ret();
    b.build().expect("generated program builds")
}

/// Captures `program` and checks the decoded trace against the
/// emulator's own records and summary.
fn check_round_trip(program: &Program) -> Result<(), String> {
    let mut emu = Emulator::new(program);
    let records: Vec<DynInst> = emu.run().map_err(|e| e.to_string())?;
    let trace = Trace::capture(program).map_err(|e| e.to_string())?;
    if trace.len() != records.len() {
        return Err(format!(
            "{} records, expected {}",
            trace.len(),
            records.len()
        ));
    }
    for (i, (got, want)) in trace.records().zip(&records).enumerate() {
        if got != *want {
            return Err(format!("record {i}: decoded {got:?}, emulated {want:?}"));
        }
    }
    if trace.summary() != emu.summary() {
        return Err(format!(
            "summary {:?}, emulator {:?}",
            trace.summary(),
            emu.summary()
        ));
    }
    let rebuilt = Trace::from_records(&records);
    if !rebuilt.records().eq(records.iter().copied()) || rebuilt.summary() != trace.summary() {
        return Err("a trace built from the records decodes differently".into());
    }
    Ok(())
}

properties! {
    #![config(PropConfig { cases: 48, ..PropConfig::default() })]

    /// Decoding a captured random program gives back the emulator's
    /// records and summary exactly.
    #[test]
    fn decoded_records_equal_the_emulated_stream(
        ops in vec_of(arb_op(), 1..16),
        iters in 1u8..12,
    ) {
        let program = build_program(&ops, iters);
        let checked = check_round_trip(&program);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}

fn registered() -> Vec<workloads::Workload> {
    let mut all = workloads::all();
    all.extend(workloads::generated());
    all
}

#[test]
fn every_registered_workload_decodes_losslessly_at_tiny_scale() {
    for wl in registered() {
        check_round_trip(&wl.build(Scale::Tiny)).unwrap_or_else(|e| panic!("{}: {e}", wl.name));
    }
}

#[test]
fn a_resolved_trace_stays_within_32_bytes_per_record() {
    for wl in registered() {
        let trace = Trace::capture(&wl.build(Scale::Tiny)).expect("workload emulates");
        let _ = trace.replay_plan();
        let per_record = trace.resident_bytes() as f64 / trace.len() as f64;
        assert!(
            per_record <= 32.0,
            "{}: {per_record:.1} resident bytes per record",
            wl.name
        );
    }
}
