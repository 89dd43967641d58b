//! Structure-of-arrays replay plan: the committed stream as dense
//! parallel columns — the one resident representation of a trace — plus
//! a lazily resolved store→load dependence index.
//!
//! Replaying a stream of [`DynInst`] records is expensive: every pass
//! re-decodes operands (`Instruction::reads`/`writes` are `match`es over
//! the format), re-splits tasks, and re-discovers store→load overlaps
//! through per-task hash maps. None of that depends on timing: operands,
//! task boundaries, and which earlier store a load overlaps are pure
//! functions of the committed stream.
//!
//! [`ReplayPlan`] hoists all of it out of the replay loop, and is the
//! only copy of the stream a [`crate::Trace`] keeps:
//!
//! - per-record columns, written while the emulator runs (see
//!   [`PlanBuilder`]): PC, opcode, flags and dense operand indices;
//! - per-memory-operation addresses and per-control-transfer next PCs,
//!   in stream order, so records that have neither store nothing;
//! - per-task columns: record start and start PC;
//! - a PC-indexed static-instruction table, from which
//!   [`ReplayPlan::records`] decodes the stream back into [`DynInst`]s
//!   losslessly;
//! - the [`Dependences`] index, which only the Multiscalar replay needs.
//!   It is resolved from the columns on the first [`ReplayPlan::deps`]
//!   call, kept beside them behind a `OnceLock`, and never copies them.
//!
//! A record's position among the memory operations (its index into
//! `mem_addr`) and among the loads or stores (its ordinal in the index)
//! are running counts, so no column stores them: a consumer walking task
//! `k` starts its counters at [`Dependences::task_mem_start`] and
//! `task_load_start[k]` / `task_store_start[k]`.
//!
//! # Dependence pre-resolution
//!
//! For each load the index records two store ordinals:
//!
//! - `load_intra`: the youngest earlier store **in the same task** whose
//!   byte range overlaps the load (the never-speculated forwarding
//!   source), or [`NONE`];
//! - `load_inter`: the youngest earlier store **in any earlier task**
//!   overlapping the load, or [`NONE`]. Because dynamic task indices are
//!   monotone along the committed stream, the youngest such store by
//!   stream position is also the youngest by (task, within-task index) —
//!   exactly the store a windowed producer search would find. A consumer
//!   with a bounded task window checks `store_task[load_inter]` against
//!   its window: if the globally youngest overlapping store has already
//!   left the window, *no* overlapping store is in the window, so the one
//!   pre-resolved ordinal answers the producer query for every window
//!   size.

use crate::dyninst::{BranchOutcome, DynInst, MemAccess};
use mds_harness::hash::FxHashMap;
use mds_isa::{Addr, Instruction, Opcode, Pc, Program};
use std::iter::FusedIterator;
use std::sync::OnceLock;

/// Sentinel ordinal: "no such store".
pub const NONE: u32 = u32::MAX;

/// Sentinel dense register index: "no operand in this slot".
pub const NO_REG: u8 = u8::MAX;

/// Record flag: the instruction is a memory operation.
pub const F_MEM: u8 = 1 << 0;
/// Record flag: the memory operation is a store.
pub const F_STORE: u8 = 1 << 1;
/// Record flag: the instruction is a control transfer.
pub const F_CONTROL: u8 = 1 << 2;
/// Record flag: the control transfer redirected the PC (its direction;
/// a taken branch may still land on `pc + 1`).
pub const F_TAKEN: u8 = 1 << 3;
/// Record flag: the memory access is a single byte (otherwise a word).
pub const F_BYTE: u8 = 1 << 4;
/// Record flag: the record carries the new-task marker.
pub const F_TASK: u8 = 1 << 5;

/// The youngest store seen so far for one address key, plus the youngest
/// store from any strictly earlier task (see module docs).
struct KeyState {
    youngest_task: u32,
    youngest_ord: u32,
    /// Youngest store in a task earlier than `youngest_task`; `NONE` ord
    /// when no such store exists.
    prev_ord: u32,
}

/// The columnar view of one committed trace (see module docs).
///
/// `task_start` has one entry per dynamic task **plus a trailing
/// sentinel**, so `task_start[k]..task_start[k + 1]` is always a valid
/// half-open range.
#[derive(Debug, Clone, Default)]
pub struct ReplayPlan {
    /// Per record: the instruction's PC.
    pub pc: Vec<Pc>,
    /// Per record: the opcode (latency and functional-unit class).
    pub op: Vec<Opcode>,
    /// Per record: [`F_MEM`] / [`F_STORE`] / [`F_CONTROL`] / [`F_TAKEN`] /
    /// [`F_BYTE`] / [`F_TASK`] bits.
    pub flags: Vec<u8>,
    /// Per record: dense index of read slot 0 (the base register for
    /// memory operations), or [`NO_REG`].
    pub src1: Vec<u8>,
    /// Per record: dense index of read slot 1, or [`NO_REG`].
    pub src2: Vec<u8>,
    /// Per record: dense index of the written register, or [`NO_REG`].
    pub dst: Vec<u8>,
    /// Per memory operation, in stream order: its effective byte address.
    pub mem_addr: Vec<Addr>,
    /// Per control transfer, in stream order: the PC the machine
    /// continued at.
    pub next_pc: Vec<Pc>,
    /// Record index where each task begins, plus sentinel.
    pub task_start: Vec<u32>,
    /// Per task: its start PC (no sentinel).
    pub task_start_pc: Vec<Pc>,
    /// The static instruction at each PC.
    pub statics: Vec<Instruction>,
    deps: OnceLock<Dependences>,
}

impl PartialEq for ReplayPlan {
    fn eq(&self, other: &ReplayPlan) -> bool {
        // The dependence index is a pure function of the columns.
        self.pc == other.pc
            && self.op == other.op
            && self.flags == other.flags
            && self.src1 == other.src1
            && self.src2 == other.src2
            && self.dst == other.dst
            && self.mem_addr == other.mem_addr
            && self.next_pc == other.next_pc
            && self.task_start == other.task_start
            && self.task_start_pc == other.task_start_pc
            && self.statics == other.statics
    }
}

/// The store→load dependence index of one [`ReplayPlan`] (see module
/// docs). The `task_` columns have one entry per task plus a trailing
/// sentinel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dependences {
    /// First global store ordinal of each task, plus sentinel.
    pub task_store_start: Vec<u32>,
    /// First global load ordinal of each task, plus sentinel.
    pub task_load_start: Vec<u32>,
    /// Per store: the record index it came from.
    pub store_rec: Vec<u32>,
    /// Per store: the dynamic task it belongs to.
    pub store_task: Vec<u32>,
    /// Per load: same-task forwarding source (global store ordinal), or
    /// [`NONE`].
    pub load_intra: Vec<u32>,
    /// Per load: youngest earlier-task overlapping store (global store
    /// ordinal), or [`NONE`].
    pub load_inter: Vec<u32>,
}

/// The per-PC part of a record: everything decoded from the static
/// instruction alone.
#[derive(Clone, Copy)]
struct StaticOps {
    src1: u8,
    src2: u8,
    dst: u8,
    flags: u8,
}

impl StaticOps {
    fn of(inst: &Instruction) -> StaticOps {
        let [r1, r2] = inst.reads();
        let dense = |r: Option<mds_isa::RegRef>| r.map_or(NO_REG, |r| r.dense_index() as u8);
        StaticOps {
            src1: dense(r1),
            src2: dense(r2),
            dst: dense(inst.writes()),
            flags: if inst.op.is_control() { F_CONTROL } else { 0 },
        }
    }
}

/// Writes a [`ReplayPlan`]'s columns from committed records, so the
/// emulator streams straight into them and no record is kept.
///
/// Task boundaries follow the task splitter's semantics: the first
/// record always begins task 0, and a later record begins a new task
/// exactly when its `new_task` marker is set.
///
/// The static-instruction table is the program's when the builder is made
/// with [`PlanBuilder::for_program`]; otherwise it is learned from the
/// records. A stream that gives one PC two different instructions (no
/// program does) replays as pushed, but [`ReplayPlan::records`] decodes
/// that PC with the last instruction pushed there.
#[derive(Default)]
pub struct PlanBuilder {
    plan: ReplayPlan,
    /// Per PC: the decoded operands of `plan.statics[pc]`.
    ops: Vec<StaticOps>,
}

impl PlanBuilder {
    /// A builder whose static-instruction table is `program`'s.
    pub fn for_program(program: &Program) -> PlanBuilder {
        let statics = program.instructions().to_vec();
        PlanBuilder {
            ops: statics.iter().map(StaticOps::of).collect(),
            plan: ReplayPlan {
                statics,
                ..ReplayPlan::default()
            },
        }
    }

    /// The per-PC operands of `d`, learning its instruction when the
    /// table does not hold it yet.
    #[inline]
    fn ops(&mut self, d: &DynInst) -> StaticOps {
        let pc = d.pc as usize;
        if let (Some(&ops), Some(inst)) = (self.ops.get(pc), self.plan.statics.get(pc)) {
            if *inst == d.inst {
                return ops;
            }
        }
        self.learn(d)
    }

    #[cold]
    fn learn(&mut self, d: &DynInst) -> StaticOps {
        let pc = d.pc as usize;
        if pc >= self.plan.statics.len() {
            self.plan.statics.resize(pc + 1, Instruction::NOP);
            self.ops.resize(pc + 1, StaticOps::of(&Instruction::NOP));
        }
        let ops = StaticOps::of(&d.inst);
        self.plan.statics[pc] = d.inst;
        self.ops[pc] = ops;
        ops
    }

    /// Appends the next committed record.
    #[inline]
    pub fn push(&mut self, d: &DynInst) {
        let ops = self.ops(d);
        let plan = &mut self.plan;
        let i = plan.pc.len();
        if d.new_task || i == 0 {
            plan.task_start.push(i as u32);
            plan.task_start_pc.push(d.pc);
        }
        let mut flags = ops.flags;
        if d.new_task {
            flags |= F_TASK;
        }
        // Exactly the records flagged `F_MEM`, or else `F_CONTROL`, get an
        // entry, so a decoder's running counts stay aligned.
        if let Some(mem) = d.mem {
            plan.mem_addr.push(mem.addr);
            flags |= F_MEM;
            if mem.is_store {
                flags |= F_STORE;
            }
            if mem.size == 1 {
                flags |= F_BYTE;
            }
        } else if ops.flags & F_CONTROL != 0 {
            plan.next_pc.push(d.branch.map_or(d.pc + 1, |b| b.next_pc));
            if d.branch.is_some_and(|b| b.taken) {
                flags |= F_TAKEN;
            }
        }
        plan.pc.push(d.pc);
        plan.op.push(d.inst.op);
        plan.flags.push(flags);
        plan.src1.push(ops.src1);
        plan.src2.push(ops.src2);
        plan.dst.push(ops.dst);
    }

    /// Closes the last task and returns the plan, trimmed to its length.
    pub fn finish(self) -> ReplayPlan {
        let mut plan = self.plan;
        plan.task_start.push(plan.pc.len() as u32);
        plan.pc.shrink_to_fit();
        plan.op.shrink_to_fit();
        plan.flags.shrink_to_fit();
        plan.src1.shrink_to_fit();
        plan.src2.shrink_to_fit();
        plan.dst.shrink_to_fit();
        plan.mem_addr.shrink_to_fit();
        plan.next_pc.shrink_to_fit();
        plan.task_start.shrink_to_fit();
        plan.task_start_pc.shrink_to_fit();
        plan
    }
}

impl Dependences {
    /// Resolves the index in one pass over `plan`'s columns.
    /// [`ReplayPlan::deps`] calls this once and keeps the result.
    pub fn resolve(plan: &ReplayPlan) -> Dependences {
        let stores = plan.flags.iter().filter(|&&f| f & F_STORE != 0).count();
        let loads = plan.mem_addr.len() - stores;
        let tasks = plan.tasks();
        let mut deps = Dependences {
            task_store_start: Vec::with_capacity(tasks + 1),
            task_load_start: Vec::with_capacity(tasks + 1),
            store_rec: Vec::with_capacity(stores),
            store_task: Vec::with_capacity(stores),
            load_intra: Vec::with_capacity(loads),
            load_inter: Vec::with_capacity(loads),
        };
        let mut word: FxHashMap<Addr, KeyState> = FxHashMap::default();
        let mut byte: FxHashMap<Addr, KeyState> = FxHashMap::default();
        let mut addrs = plan.mem_addr.iter();
        for k in 0..tasks {
            let task = k as u32;
            deps.task_store_start.push(deps.store_rec.len() as u32);
            deps.task_load_start.push(deps.load_intra.len() as u32);
            for i in plan.task_range(k) {
                let flags = plan.flags[i];
                if flags & F_MEM == 0 {
                    continue;
                }
                let addr = *addrs.next().expect("one address per memory operation");
                let is_byte = flags & F_BYTE != 0;
                if flags & F_STORE != 0 {
                    let ord = deps.store_rec.len() as u32;
                    deps.store_rec.push(i as u32);
                    deps.store_task.push(task);
                    let (map, key) = if is_byte {
                        (&mut byte, addr)
                    } else {
                        (&mut word, addr & !7)
                    };
                    map.entry(key)
                        .and_modify(|st| {
                            if st.youngest_task < task {
                                st.prev_ord = st.youngest_ord;
                            }
                            st.youngest_task = task;
                            st.youngest_ord = ord;
                        })
                        .or_insert(KeyState {
                            youngest_task: task,
                            youngest_ord: ord,
                            prev_ord: NONE,
                        });
                    continue;
                }
                // Store ordinals grow with stream position, so "the
                // youngest candidate" is simply the largest ordinal —
                // both within the task and across earlier tasks.
                let mut intra = NONE;
                let mut inter = NONE;
                let mut consider = |st: Option<&KeyState>| {
                    if let Some(st) = st {
                        if st.youngest_task == task {
                            if intra == NONE || st.youngest_ord > intra {
                                intra = st.youngest_ord;
                            }
                            if st.prev_ord != NONE && (inter == NONE || st.prev_ord > inter) {
                                inter = st.prev_ord;
                            }
                        } else if inter == NONE || st.youngest_ord > inter {
                            inter = st.youngest_ord;
                        }
                    }
                };
                consider(word.get(&(addr & !7)));
                // Until the first byte store the byte map is empty, and a
                // word load skips its eight byte probes.
                if is_byte {
                    consider(byte.get(&addr));
                } else if !byte.is_empty() {
                    for b in 0..8 {
                        consider(byte.get(&(addr + b)));
                    }
                }
                deps.load_intra.push(intra);
                deps.load_inter.push(inter);
            }
        }
        deps.task_store_start.push(deps.store_rec.len() as u32);
        deps.task_load_start.push(deps.load_intra.len() as u32);
        deps
    }

    /// Number of loads in the stream.
    pub fn loads(&self) -> usize {
        self.load_intra.len()
    }

    /// Number of stores in the stream.
    pub fn stores(&self) -> usize {
        self.store_rec.len()
    }

    /// Number of stores in task `k`.
    pub fn task_stores(&self, k: usize) -> u32 {
        self.task_store_start[k + 1] - self.task_store_start[k]
    }

    /// Number of loads in task `k`.
    pub fn task_loads(&self, k: usize) -> u32 {
        self.task_load_start[k + 1] - self.task_load_start[k]
    }

    /// Index into [`ReplayPlan::mem_addr`] of task `k`'s first memory
    /// operation: every load and store before it.
    pub fn task_mem_start(&self, k: usize) -> usize {
        (self.task_store_start[k] + self.task_load_start[k]) as usize
    }

    fn resident_bytes(&self) -> usize {
        (self.task_store_start.capacity()
            + self.task_load_start.capacity()
            + self.store_rec.capacity()
            + self.store_task.capacity()
            + self.load_intra.capacity()
            + self.load_inter.capacity())
            * 4
    }
}

impl ReplayPlan {
    /// Number of committed records.
    pub fn len(&self) -> usize {
        self.pc.len()
    }

    /// `true` when the plan holds no records.
    pub fn is_empty(&self) -> bool {
        self.pc.is_empty()
    }

    /// Number of dynamic tasks in the plan.
    pub fn tasks(&self) -> usize {
        self.task_start.len().saturating_sub(1)
    }

    /// The record-index range of task `k`.
    pub fn task_range(&self, k: usize) -> std::ops::Range<usize> {
        self.task_start[k] as usize..self.task_start[k + 1] as usize
    }

    /// The store→load dependence index, resolved from the columns on the
    /// first call (from any thread) and shared by every later one.
    pub fn deps(&self) -> &Dependences {
        self.deps.get_or_init(|| Dependences::resolve(self))
    }

    /// The records in stream order, decoded back into the [`DynInst`]s
    /// they were written from (`seq` is the record's position).
    pub fn records(&self) -> Records<'_> {
        Records {
            pc: self.pc.iter(),
            flags: self.flags.iter(),
            mem_addr: self.mem_addr.iter(),
            next_pc: self.next_pc.iter(),
            statics: &self.statics,
            seq: 0,
        }
    }

    /// Approximate resident size of the plan in bytes (for trace-cache
    /// budgeting): every column's allocation, plus the dependence index
    /// once it is resolved.
    pub fn resident_bytes(&self) -> usize {
        self.pc.capacity() * std::mem::size_of::<Pc>()
            + self.op.capacity() * std::mem::size_of::<Opcode>()
            + self.flags.capacity()
            + self.src1.capacity()
            + self.src2.capacity()
            + self.dst.capacity()
            + self.mem_addr.capacity() * std::mem::size_of::<Addr>()
            + self.next_pc.capacity() * std::mem::size_of::<Pc>()
            + self.task_start.capacity() * 4
            + self.task_start_pc.capacity() * std::mem::size_of::<Pc>()
            + self.statics.capacity() * std::mem::size_of::<Instruction>()
            + self.deps.get().map_or(0, Dependences::resident_bytes)
    }
}

/// The decoding iterator behind [`ReplayPlan::records`]: the per-record
/// columns walked in step, plus the address and next-PC columns, each
/// advanced by the records that own an entry in it.
#[derive(Debug, Clone)]
pub struct Records<'a> {
    pc: std::slice::Iter<'a, Pc>,
    flags: std::slice::Iter<'a, u8>,
    mem_addr: std::slice::Iter<'a, Addr>,
    next_pc: std::slice::Iter<'a, Pc>,
    statics: &'a [Instruction],
    seq: u64,
}

impl Iterator for Records<'_> {
    type Item = DynInst;

    #[inline]
    fn next(&mut self) -> Option<DynInst> {
        let (&pc, &flags) = (self.pc.next()?, self.flags.next()?);
        let seq = self.seq;
        self.seq += 1;
        let mut mem = None;
        let mut branch = None;
        if flags & F_MEM != 0 {
            mem = self.mem_addr.next().map(|&addr| MemAccess {
                addr,
                size: if flags & F_BYTE != 0 { 1 } else { 8 },
                is_store: flags & F_STORE != 0,
            });
        } else if flags & F_CONTROL != 0 {
            branch = self.next_pc.next().map(|&next_pc| BranchOutcome {
                taken: flags & F_TAKEN != 0,
                next_pc,
            });
        }
        Some(DynInst {
            seq,
            pc,
            inst: self.statics[pc as usize],
            mem,
            branch,
            new_task: flags & F_TASK != 0,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.pc.size_hint()
    }
}

impl ExactSizeIterator for Records<'_> {}

impl FusedIterator for Records<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Emulator;
    use mds_isa::{ProgramBuilder, Reg};

    fn build(records: &[DynInst]) -> ReplayPlan {
        let mut builder = PlanBuilder::default();
        for d in records {
            builder.push(d);
        }
        builder.finish()
    }

    fn trace(build: impl FnOnce(&mut ProgramBuilder)) -> Vec<DynInst> {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        Emulator::new(&b.build().unwrap()).run().unwrap()
    }

    fn recurrence(iters: i32) -> Vec<DynInst> {
        trace(|b| {
            b.alloc("cell", 1);
            b.la(Reg::S0, "cell");
            b.li(Reg::T0, iters);
            b.label("loop");
            b.task();
            b.ld(Reg::T1, Reg::S0, 0);
            b.addi(Reg::T1, Reg::T1, 1);
            b.sd(Reg::T1, Reg::S0, 0);
            b.addi(Reg::T0, Reg::T0, -1);
            b.bne(Reg::T0, Reg::ZERO, "loop");
            b.halt();
        })
    }

    #[test]
    fn arrays_are_parallel_and_tasks_cover_the_stream() {
        let records = recurrence(5);
        let plan = build(&records);
        let n = records.len();
        assert_eq!(plan.len(), n);
        assert_eq!(plan.flags.len(), n);
        assert_eq!(plan.src1.len(), n);
        assert_eq!(
            plan.mem_addr.len(),
            records.iter().filter(|d| d.mem.is_some()).count()
        );
        assert_eq!(*plan.task_start.last().unwrap() as usize, n);
        let mut covered = 0;
        for k in 0..plan.tasks() {
            let r = plan.task_range(k);
            assert_eq!(r.start, covered);
            covered = r.end;
            assert_eq!(plan.task_start_pc[k], records[r.start].pc);
        }
        assert_eq!(covered, n);
        let deps = plan.deps();
        assert_eq!(
            deps.stores() + deps.loads(),
            records.iter().filter(|d| d.mem.is_some()).count()
        );
    }

    #[test]
    fn records_decode_losslessly() {
        let records = recurrence(4);
        let plan = build(&records);
        let decoded: Vec<DynInst> = plan.records().collect();
        assert_eq!(decoded, records);
    }

    /// Brute-force reference for the per-load dependence pre-resolution:
    /// scan all earlier records for overlapping stores.
    fn check_against_reference(records: &[DynInst]) {
        let plan = build(records);
        let deps = plan.deps();
        let mut task_of = Vec::with_capacity(records.len());
        let mut t = 0usize;
        for (i, d) in records.iter().enumerate() {
            if i > 0 && d.new_task {
                t += 1;
            }
            task_of.push(t);
        }
        // Each record's load or store ordinal, counted in stream order.
        let mut ord_of = vec![NONE; records.len()];
        let (mut loads, mut stores) = (0, 0);
        for (i, d) in records.iter().enumerate() {
            match d.mem {
                Some(m) if m.is_store => {
                    ord_of[i] = stores;
                    stores += 1;
                }
                Some(_) => {
                    ord_of[i] = loads;
                    loads += 1;
                }
                None => {}
            }
        }
        assert_eq!(loads as usize, deps.loads());
        assert_eq!(stores as usize, deps.stores());
        for (i, d) in records.iter().enumerate() {
            let Some(load) = d.mem.filter(|m| !m.is_store) else {
                continue;
            };
            let lo = ord_of[i] as usize;
            let lt = task_of[i];
            let mut intra: Option<u32> = None;
            let mut inter: Option<u32> = None;
            for (j, d) in records[..i].iter().enumerate() {
                let Some(m) = d.mem else { continue };
                if !m.is_store || !m.overlaps(&load) {
                    continue;
                }
                if task_of[j] == lt {
                    intra = Some(ord_of[j]); // later stream position wins
                } else {
                    inter = Some(ord_of[j]);
                }
            }
            assert_eq!(deps.load_intra[lo], intra.unwrap_or(NONE), "load {lo}");
            assert_eq!(deps.load_inter[lo], inter.unwrap_or(NONE), "load {lo}");
        }
    }

    #[test]
    fn dependence_resolution_matches_brute_force_on_a_recurrence() {
        check_against_reference(&recurrence(8));
    }

    #[test]
    fn dependence_resolution_handles_mixed_byte_and_word_stores() {
        let records = trace(|b| {
            b.alloc("buf", 4);
            b.la(Reg::S0, "buf");
            b.li(Reg::T0, 6);
            b.label("loop");
            b.task();
            b.sd(Reg::T0, Reg::S0, 0);
            b.sb(Reg::T0, Reg::S0, 3); // byte inside the word above
            b.ld(Reg::T1, Reg::S0, 0); // overlaps both; byte store younger
            b.lb(Reg::T2, Reg::S0, 3); // overlaps both
            b.sb(Reg::T0, Reg::S0, 11);
            b.ld(Reg::T3, Reg::S0, 8); // word load over a byte-only store
            b.addi(Reg::T0, Reg::T0, -1);
            b.bne(Reg::T0, Reg::ZERO, "loop");
            b.halt();
        });
        check_against_reference(&records);
    }

    #[test]
    fn dependence_resolution_sees_a_byte_store_that_follows_word_loads() {
        // Word loads of the same word run before any byte store (the byte
        // map is still empty), then a later task's byte store must be
        // found by every word load after it.
        let records = trace(|b| {
            b.alloc("buf", 2);
            b.la(Reg::S0, "buf");
            b.task();
            b.sd(Reg::T0, Reg::S0, 0);
            b.ld(Reg::T1, Reg::S0, 0);
            b.task();
            b.ld(Reg::T2, Reg::S0, 0);
            b.ld(Reg::T2, Reg::S0, 4); // unaligned word load
            b.task();
            b.li(Reg::T3, 7);
            b.sb(Reg::T3, Reg::S0, 5);
            b.ld(Reg::T4, Reg::S0, 0); // same task as the byte store
            b.task();
            b.ld(Reg::T5, Reg::S0, 0); // earlier-task byte store is younger
            b.ld(Reg::T5, Reg::S0, 8); // reaches byte 5 through byte 12: no
            b.ld(Reg::T5, Reg::S0, 1); // unaligned, covers byte 5
            b.halt();
        });
        check_against_reference(&records);
        let plan = build(&records);
        let deps = plan.deps();
        // The last task's first load sees the byte store, not the word.
        let byte_store = deps.stores() as u32 - 1;
        assert_eq!(deps.load_inter[deps.loads() - 3], byte_store);
    }

    #[test]
    fn inter_task_producer_is_the_youngest_earlier_task_store() {
        let records = recurrence(6);
        let plan = build(&records);
        let deps = plan.deps();
        // Every loop-task load (task >= 1) depends on the previous task's
        // store — distance exactly 1.
        let loads = (0..plan.len()).filter(|&i| plan.flags[i] & (F_MEM | F_STORE) == F_MEM);
        for (lo, i) in loads.enumerate() {
            let inter = deps.load_inter[lo];
            let lt = plan
                .task_start
                .partition_point(|&s| (s as usize) <= i)
                .saturating_sub(1);
            if lt >= 1 && inter != NONE {
                assert_eq!(deps.store_task[inter as usize] as usize, lt - 1);
            }
        }
    }

    #[test]
    fn empty_and_storeless_streams_have_no_producers() {
        let plan = build(&[]);
        assert_eq!(plan.tasks(), 0);
        assert_eq!(plan.deps().loads(), 0);
        let records = trace(|b| {
            b.alloc("x", 1);
            b.la(Reg::S0, "x");
            b.task();
            b.ld(Reg::T0, Reg::S0, 0);
            b.task();
            b.ld(Reg::T1, Reg::S0, 0);
            b.halt();
        });
        let plan = build(&records);
        assert!(plan.deps().load_inter.iter().all(|&x| x == NONE));
    }

    #[test]
    fn resident_bytes_tracks_length_and_the_index() {
        let small = build(&recurrence(2));
        let big = build(&recurrence(20));
        assert!(big.resident_bytes() > small.resident_bytes());
        let before = big.resident_bytes();
        big.deps();
        assert!(big.resident_bytes() > before);
    }
}
