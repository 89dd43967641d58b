//! The planned replay engine: branch-light Multiscalar replay over a
//! [`ReplayPlan`]. It is the only engine the library, the runner and the
//! binaries run.
//!
//! The paper's figures replay one committed trace under six speculation
//! policies per grid cell. Operands, task boundaries, functional-unit
//! classes and store→load overlaps are pure functions of the trace, not
//! of the policy or the timing, so the [`ReplayPlan`] resolves them once
//! into dense arrays and an attempt here is a sequential scan with array
//! indexing. Each policy replays the whole plan on its own: no state is
//! shared between policies.
//!
//! Cycle exactness is checked against [`reference`](mod@crate::reference),
//! the legacy record-stream walk kept as the oracle: unit tests here, a
//! random-trace property test, and a test over every Multiscalar cell of
//! the pinned experiments require byte-identical results.
//! [`audit`](crate::audit()) checks each result against the paper's
//! definitions as well, so the two engines cannot agree on a shared
//! mistake unnoticed.

use crate::config::MsConfig;
use crate::result::MsResult;
use mds_core::{Ddc, DepEdge, Policy, SyncUnit, SyncUnitConfig, TagScheme};
use mds_emu::plan::{Dependences, ReplayPlan, F_CONTROL, F_MEM, F_STORE, NONE, NO_REG};
use mds_emu::Trace;
use mds_harness::hash::FxHashSet;
use mds_isa::{FuClass, Opcode, Pc};
use mds_mem::{BankedCache, Bus, Cache};
use mds_predict::{LruTable, PathHistory, PathPredictor};
use std::collections::VecDeque;

/// Dense architectural register file size (see `RegRef::dense_index`).
pub(crate) const REGS: usize = 64;

/// A detected cross-task memory dependence violation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Violation {
    pub edge: DepEdge,
    pub producer_task: u64,
    pub producer_task_pc: Pc,
    /// Cycle at which the older store executed (violation detection time).
    pub detect: u64,
    /// Whether the violated load had a (wrong) synchronization prediction.
    pub predicted: bool,
}

/// Per-load prediction/synchronization record used for training and the
/// table 8 breakdown.
#[derive(Debug, Clone)]
pub(crate) struct LoadEvent {
    /// `(edge, signal_found, caused_wait)` per predicted dependence.
    pub edges: Vec<(DepEdge, bool, bool)>,
    /// Whether any prediction matched this load.
    pub predicted: bool,
    /// For predicted loads: the load had to wait for a signal. For
    /// unpredicted loads: a violation occurred (filled by the caller for
    /// aborted attempts).
    pub actual_dependence: bool,
}

/// Mutable processor-wide state an attempt executes against.
pub(crate) struct Shared<'a> {
    pub config: &'a MsConfig,
    pub dcache: &'a mut BankedCache,
    pub bus: &'a mut Bus,
    pub icache: &'a mut Cache,
    pub unit: Option<&'a mut SyncUnit>,
}

/// A "K issues per cycle" resource (fully pipelined units: occupancy is
/// one cycle). Claims may arrive in any order relative to simulated time —
/// an out-of-order core issues whatever is ready — so this counts usage
/// per cycle instead of keeping a monotonic busy-until clock.
///
/// The ledger is a dense vector indexed by `cycle - base`: every claim in
/// an attempt happens at or after the attempt's start cycle, so the
/// offset stays small. Slots are epoch-tagged rather than zeroed: `reset`
/// bumps the epoch in O(1), and a slot whose tag is stale counts as
/// empty. This keeps `claim` — called twice per simulated instruction in
/// both replay engines — to a load, a compare, and a store in the common
/// case, with no per-attempt clearing or one-element-at-a-time growth.
#[derive(Debug, Clone, Copy, Default)]
struct PortSlot {
    epoch: u32,
    used: u32,
}

#[derive(Debug, Default)]
pub(crate) struct Ports {
    width: u32,
    base: u64,
    epoch: u32,
    slots: Vec<PortSlot>,
}

impl Ports {
    pub(crate) fn reset(&mut self, width: u32, t0: u64) {
        self.width = width.max(1);
        self.base = t0;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped (after 2^32 attempts): stale tags could alias
            // the new epoch, so hard-clear once and restart from 1.
            self.slots.fill(PortSlot::default());
            self.epoch = 1;
        }
    }

    /// Claims the earliest cycle at or after `ready` with a free slot.
    pub(crate) fn claim(&mut self, ready: u64, _occupy: u64) -> u64 {
        // Claims before the base cannot happen in an attempt (readiness is
        // bounded below by the start cycle), but stay correct if one does.
        if ready < self.base {
            let shift = (self.base - ready) as usize;
            // Tag 0 is never the live epoch (reset skips it), so these
            // slots read as empty.
            self.slots
                .splice(0..0, std::iter::repeat_n(PortSlot::default(), shift));
            self.base = ready;
        }
        let mut idx = (ready - self.base) as usize;
        loop {
            if idx >= self.slots.len() {
                // Grow in chunks so the resize amortizes away.
                self.slots.resize(idx + 64, PortSlot::default());
            }
            let slot = &mut self.slots[idx];
            if slot.epoch != self.epoch {
                *slot = PortSlot {
                    epoch: self.epoch,
                    used: 1,
                };
                return self.base + idx as u64;
            }
            if slot.used < self.width {
                slot.used += 1;
                return self.base + idx as u64;
            }
            idx += 1;
        }
    }
}

/// The finalized timing state of a window task, planned-engine edition.
///
/// Everything the reference walk's `TaskRecord` keeps in hash maps lives
/// in the [`ReplayPlan`] instead; the record only carries what depends
/// on timing: final register write times, per-store completion times (in
/// task store order), and the store address-ready bound. Task identity,
/// stage, and start PC are recovered from the record's window position.
#[derive(Debug)]
struct PRecord {
    /// Final write time per dense register index, or [`NO_TIME`].
    last_write: [u64; REGS],
    /// Completion time per store, indexed by within-task store ordinal.
    store_complete: Vec<u64>,
    max_store_addr_ready: u64,
}

/// Sentinel for "this register was never written" / "not yet computed".
/// Real completion times are cycle counts and never reach `u64::MAX`;
/// a plain sentinel keeps the per-attempt register arrays half the size
/// of `[Option<u64>; REGS]`, and these arrays are copied per task.
const NO_TIME: u64 = u64::MAX;

/// Sentinel for "no fetch block yet". Real blocks are `(pc * 4) & !63`
/// with a 32-bit `pc`, far below `u64::MAX`.
const NO_BLOCK: u64 = u64::MAX;

/// Availability time of operand `di`: the intra-task write if this
/// attempt produced one, else the memoized cross-task resolution.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn operand_avail(
    di: usize,
    epoch: u32,
    local_write: &[u64; REGS],
    write_epoch: &[u32; REGS],
    cross_cache: &mut [u64; REGS],
    cross_epoch: &mut [u32; REGS],
    window: &VecDeque<PRecord>,
    win_base: usize,
    stage: usize,
    stages: usize,
    ring_latency: u64,
) -> u64 {
    if write_epoch[di] == epoch {
        local_write[di]
    } else {
        if cross_epoch[di] != epoch {
            cross_epoch[di] = epoch;
            cross_cache[di] = resolve_cross(window, di, win_base, stage, stages, ring_latency);
        }
        cross_cache[di]
    }
}

/// Reusable attempt-local state.
#[derive(Debug)]
struct PScratch {
    issue: Ports,
    simple: Ports,
    complex: Ports,
    fp: Ports,
    branch: Ports,
    mem: Ports,
    retire: RetireRing,
    synced_edges: FxHashSet<DepEdge>,
    violations: Vec<Violation>,
    /// Register write times of the most recent attempt (copied into the
    /// committed `PRecord`; living here avoids moving 512 B through the
    /// attempt's return value on every task). An entry is valid only when
    /// its `write_epoch` tag matches `reg_epoch` — epoch-tagging lets an
    /// attempt start without zeroing a kilobyte of register arrays.
    last_write: [u64; REGS],
    write_epoch: [u32; REGS],
    /// Memoized cross-task resolution for the current attempt, tagged by
    /// `cross_epoch` the same way.
    cross_cache: [u64; REGS],
    cross_epoch: [u32; REGS],
    /// Live epoch for the register arrays; bumped once per attempt.
    reg_epoch: u32,
    /// Pool backing `PRecord::store_complete`.
    store_vecs: Vec<Vec<u64>>,
    /// Pool backing `PAttempt::load_events`.
    event_vecs: Vec<Vec<LoadEvent>>,
}

impl Default for PScratch {
    fn default() -> PScratch {
        PScratch {
            issue: Ports::default(),
            simple: Ports::default(),
            complex: Ports::default(),
            fp: Ports::default(),
            branch: Ports::default(),
            mem: Ports::default(),
            retire: RetireRing::default(),
            synced_edges: FxHashSet::default(),
            violations: Vec::new(),
            last_write: [NO_TIME; REGS],
            write_epoch: [0; REGS],
            cross_cache: [NO_TIME; REGS],
            cross_epoch: [0; REGS],
            reg_epoch: 0,
            store_vecs: Vec::new(),
            event_vecs: Vec::new(),
        }
    }
}

/// Sliding instruction-window occupancy: a fixed-capacity ring of retire
/// times. Replaces a `VecDeque` on the hottest per-record path — no
/// growth checks, no branchy modulo.
#[derive(Debug, Default)]
struct RetireRing {
    buf: Vec<u64>,
    cap: usize,
    head: usize,
    len: usize,
}

impl RetireRing {
    fn reset(&mut self, cap: usize) {
        if self.buf.len() < cap {
            self.buf.resize(cap, 0);
        }
        self.cap = cap;
        self.head = 0;
        self.len = 0;
    }

    /// At dispatch: when the window is full, frees the oldest slot and
    /// returns its retire time (the dispatch lower bound).
    #[inline]
    fn free_oldest_if_full(&mut self) -> Option<u64> {
        if self.len >= self.cap {
            let freed = self.buf[self.head];
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
            self.len -= 1;
            Some(freed)
        } else {
            None
        }
    }

    #[inline]
    fn push(&mut self, complete: u64) {
        let mut tail = self.head + self.len;
        if tail >= self.cap {
            tail -= self.cap;
        }
        self.buf[tail] = complete;
        self.len += 1;
    }
}

impl PScratch {
    fn take_store_vec(&mut self) -> Vec<u64> {
        self.store_vecs.pop().unwrap_or_default()
    }

    fn put_store_vec(&mut self, mut v: Vec<u64>) {
        v.clear();
        self.store_vecs.push(v);
    }

    fn take_event_vec(&mut self) -> Vec<LoadEvent> {
        self.event_vecs.pop().unwrap_or_default()
    }

    fn put_event_vec(&mut self, mut v: Vec<LoadEvent>) {
        v.clear();
        self.event_vecs.push(v);
    }
}

/// The result of one planned execution attempt.
/// Register write times stay behind in [`PScratch::last_write`].
struct PAttempt {
    max_completion: u64,
    last_branch_completion: u64,
    store_complete: Vec<u64>,
    max_store_addr_ready: u64,
    violation: Option<Violation>,
    load_events: Vec<LoadEvent>,
    synchronized_loads: u64,
    false_dep_releases: u64,
}

/// Cross-task register resolution over planned window records. The
/// producer's stage is derived from its window position (task indices in
/// the window are consecutive, ending at `win_base + window.len()`).
fn resolve_cross(
    window: &VecDeque<PRecord>,
    dense: usize,
    win_base: usize,
    consumer_stage: usize,
    stages: usize,
    ring_latency: u64,
) -> u64 {
    for (j, rec) in window.iter().enumerate().rev() {
        let t = rec.last_write[dense];
        if t != NO_TIME {
            let producer_stage = (win_base + j) % stages;
            let hops = (consumer_stage + stages - producer_stage) % stages;
            return t + hops as u64 * ring_latency;
        }
    }
    0
}

/// One timing attempt of task `k`, scheduled over the plan's arrays.
/// Takes the same decisions as the reference walk's attempt
/// (`reference::exec`), which carries the architectural commentary.
#[allow(clippy::too_many_arguments)]
fn planned_attempt(
    plan: &ReplayPlan,
    deps: &Dependences,
    k: usize,
    t0: u64,
    stage: usize,
    window: &VecDeque<PRecord>,
    shared: &mut Shared<'_>,
    scratch: &mut PScratch,
    lat: &[u64],
) -> PAttempt {
    let config = shared.config;
    let stages = config.stages;
    let win_base = k - window.len();

    scratch.issue.reset(config.issue_width, t0);
    scratch.simple.reset(config.simple_int_units, t0);
    scratch.complex.reset(config.complex_int_units, t0);
    scratch.fp.reset(config.fp_units, t0);
    scratch.branch.reset(config.branch_units, t0);
    scratch.mem.reset(config.mem_units, t0);
    scratch.retire.reset(config.window);
    scratch.synced_edges.clear();
    scratch.violations.clear();
    scratch.reg_epoch = scratch.reg_epoch.wrapping_add(1);
    if scratch.reg_epoch == 0 {
        // Epoch wrapped (after 2^32 attempts): stale tags could alias the
        // new epoch, so hard-clear once and restart from 1.
        scratch.write_epoch = [0; REGS];
        scratch.cross_epoch = [0; REGS];
        scratch.reg_epoch = 1;
    }
    let mut store_complete = scratch.take_store_vec();
    let mut load_events = scratch.take_event_vec();
    let PScratch {
        issue: issue_ports,
        simple: simple_ports,
        complex: complex_ports,
        fp: fp_ports,
        branch: branch_ports,
        mem: mem_ports,
        retire,
        synced_edges,
        violations,
        last_write: local_write,
        write_epoch,
        cross_cache,
        cross_epoch,
        reg_epoch,
        ..
    } = scratch;
    let epoch = *reg_epoch;

    let mut fetch_clock = t0;
    let mut cur_block: u64 = NO_BLOCK;
    let mut in_group: u32 = 0;

    let mut intra_addr_ready: u64 = 0;
    let store_base = deps.task_store_start[k] as usize;
    let mut max_store_addr_ready: u64 = 0;

    let window_addr_ready = window
        .iter()
        .map(|r| r.max_store_addr_ready)
        .max()
        .unwrap_or(0);

    let mut max_completion = t0;
    let mut last_branch_completion = t0;
    let mut synchronized_loads = 0u64;
    let mut false_dep_releases = 0u64;

    // Hoist the task's slice of every plan array once; indexing by the
    // local offset `j` lets the per-record loop run bounds-check-free.
    let range = plan.task_range(k);
    let n = range.len();
    let flags_a = &plan.flags[range.clone()];
    let pc_a = &plan.pc[range.clone()];
    let op_a = &plan.op[range.clone()];
    let src1_a = &plan.src1[range.clone()];
    let src2_a = &plan.src2[range.clone()];
    let dst_a = &plan.dst[range];
    assert!(
        pc_a.len() == n
            && op_a.len() == n
            && src1_a.len() == n
            && src2_a.len() == n
            && dst_a.len() == n
    );
    // Addresses and load ordinals are running counts from the task's
    // first memory operation and first load.
    let mut addrs = plan.mem_addr[deps.task_mem_start(k)..].iter();
    let mut lo = deps.task_load_start[k] as usize;

    for j in 0..n {
        let flags = flags_a[j];

        // ---- Fetch through the per-unit I-cache ------------------------
        let block = ((pc_a[j] as u64) * 4) & !63;
        if cur_block != block || in_group >= config.fetch_width {
            if cur_block != NO_BLOCK {
                fetch_clock += 1;
            }
            if !shared.icache.access(block, false) {
                fetch_clock = shared.bus.request(fetch_clock, 16);
            }
            cur_block = block;
            in_group = 0;
        }
        in_group += 1;
        let mut dispatch = fetch_clock;

        // ---- Instruction window occupancy ------------------------------
        if let Some(freed) = retire.free_oldest_if_full() {
            dispatch = dispatch.max(freed);
        }

        // ---- Operand readiness (intra-task dataflow + ring) ------------
        let mut ready = dispatch;
        let mut base_ready = dispatch; // address operand only (for stores)
        let s1 = src1_a[j];
        if s1 != NO_REG {
            let avail = operand_avail(
                s1 as usize,
                epoch,
                local_write,
                write_epoch,
                cross_cache,
                cross_epoch,
                window,
                win_base,
                stage,
                stages,
                config.ring_latency,
            );
            ready = ready.max(avail);
            base_ready = base_ready.max(avail);
        }
        let s2 = src2_a[j];
        if s2 != NO_REG {
            let avail = operand_avail(
                s2 as usize,
                epoch,
                local_write,
                write_epoch,
                cross_cache,
                cross_epoch,
                window,
                win_base,
                stage,
                stages,
                config.ring_latency,
            );
            ready = ready.max(avail);
        }

        // ---- Schedule on the functional units --------------------------
        let complete = if flags & F_MEM != 0 {
            let addr = *addrs.next().expect("one address per memory operation");
            if flags & F_STORE != 0 {
                intra_addr_ready = intra_addr_ready.max(base_ready);
                max_store_addr_ready = max_store_addr_ready.max(base_ready);
                let start = mem_ports.claim(issue_ports.claim(ready, 1), 1);
                let complete = shared.dcache.access(start, addr, true, shared.bus).done_at;
                store_complete.push(complete);
                complete
            } else {
                // ---- Load: pre-resolved intra forwarding ---------------
                let mut ready_mem = ready.max(intra_addr_ready);
                let intra = deps.load_intra[lo];
                if intra != NONE {
                    ready_mem = ready_mem.max(store_complete[intra as usize - store_base]);
                }

                // Pre-resolved inter-task producer, if still in window:
                // `(task index, store completion, store pc)`.
                let inter = deps.load_inter[lo];
                lo += 1;
                let producer: Option<(usize, u64, Pc)> = if inter != NONE {
                    let pt = deps.store_task[inter as usize] as usize;
                    if pt >= win_base {
                        let rec = &window[pt - win_base];
                        let local = (inter - deps.task_store_start[pt]) as usize;
                        Some((
                            pt,
                            rec.store_complete[local],
                            plan.pc[deps.store_rec[inter as usize] as usize],
                        ))
                    } else {
                        None
                    }
                } else {
                    None
                };

                let ready_before_sync = ready_mem;
                let mut event: Option<LoadEvent> = None;
                let mut may_violate = false;

                match config.policy {
                    Policy::Never => {
                        ready_mem = ready_mem.max(window_addr_ready);
                        if let Some((_, c, _)) = producer {
                            ready_mem = ready_mem.max(c);
                        }
                    }
                    Policy::Wait => {
                        if let Some((_, c, _)) = producer {
                            ready_mem = ready_mem.max(window_addr_ready).max(c);
                        }
                    }
                    Policy::PSync => {
                        if let Some((_, c, _)) = producer {
                            ready_mem = ready_mem.max(c);
                        }
                    }
                    Policy::Always => {
                        may_violate = true;
                    }
                    Policy::Sync | Policy::Esync => {
                        let lookup = move |seq: u64| {
                            (seq >= win_base as u64 && seq < k as u64)
                                .then(|| plan.task_start_pc[seq as usize])
                        };
                        let unit = shared.unit.as_mut().expect("sync policy has a unit");
                        let mut entries =
                            unit.predicted_entries_for_load(pc_a[j], k as u64, Some(&lookup));
                        entries.retain(|e| synced_edges.insert(e.edge));
                        if entries.is_empty() {
                            may_violate = true;
                        } else {
                            let mut edges = Vec::with_capacity(entries.len());
                            let mut wait_until = ready_mem;
                            let mut any_missing = false;
                            for e in &entries {
                                let producer_seq = (k as u64).checked_sub(e.dist as u64);
                                let signal = match config.tagging {
                                    TagScheme::DependenceDistance => producer_seq.and_then(|ps| {
                                        let ps = ps as usize;
                                        if ps < win_base || ps >= k {
                                            return None;
                                        }
                                        let rec = &window[ps - win_base];
                                        let s0 = deps.task_store_start[ps] as usize;
                                        let s1 = deps.task_store_start[ps + 1] as usize;
                                        let mut best: Option<u64> = None;
                                        for s in s0..s1 {
                                            if plan.pc[deps.store_rec[s] as usize]
                                                == e.edge.store_pc
                                            {
                                                let c = rec.store_complete[s - s0];
                                                best = Some(best.map_or(c, |b| b.max(c)));
                                            }
                                        }
                                        best
                                    }),
                                    TagScheme::DataAddress => producer
                                        .filter(|&(_, _, pc)| pc == e.edge.store_pc)
                                        .map(|(_, c, _)| c),
                                };
                                let is_producer = match config.tagging {
                                    TagScheme::DependenceDistance => {
                                        producer.is_some_and(|(pt, _, pc)| {
                                            pc == e.edge.store_pc && Some(pt as u64) == producer_seq
                                        })
                                    }
                                    TagScheme::DataAddress => signal.is_some(),
                                };
                                match signal {
                                    Some(t) => {
                                        let wake = t + config.signal_latency;
                                        edges.push((e.edge, true, is_producer));
                                        wait_until = wait_until.max(wake);
                                    }
                                    None => {
                                        any_missing = true;
                                        edges.push((e.edge, false, false));
                                    }
                                }
                            }
                            if any_missing {
                                wait_until = wait_until.max(window_addr_ready);
                                false_dep_releases += 1;
                            }
                            if wait_until > ready_before_sync {
                                synchronized_loads += 1;
                            }
                            event = Some(LoadEvent {
                                edges,
                                predicted: true,
                                actual_dependence: wait_until > ready_before_sync,
                            });
                            ready_mem = wait_until;
                            may_violate = true;
                        }
                    }
                }

                let start = mem_ports.claim(issue_ports.claim(ready_mem, 1), 1);
                let complete = shared.dcache.access(start, addr, false, shared.bus).done_at;

                if may_violate {
                    if let Some((pt, pcomplete, ppc)) = producer {
                        if pcomplete > start {
                            violations.push(Violation {
                                edge: DepEdge {
                                    load_pc: pc_a[j],
                                    store_pc: ppc,
                                },
                                producer_task: pt as u64,
                                producer_task_pc: plan.task_start_pc[pt],
                                detect: pcomplete,
                                predicted: event.as_ref().is_some_and(|e| e.predicted),
                            });
                            if let Some(ev) = &mut event {
                                ev.actual_dependence = true;
                            } else if config.policy.uses_predictor() {
                                event = Some(LoadEvent {
                                    edges: Vec::new(),
                                    predicted: false,
                                    actual_dependence: true,
                                });
                            }
                        }
                    }
                }
                if event.is_none() && config.policy.uses_predictor() {
                    event = Some(LoadEvent {
                        edges: Vec::new(),
                        predicted: false,
                        actual_dependence: false,
                    });
                }
                if let Some(e) = event {
                    load_events.push(e);
                }
                complete
            }
        } else {
            let latency = lat[op_a[j] as usize];
            let class_ports = match op_a[j].fu_class() {
                FuClass::ComplexInt => &mut *complex_ports,
                FuClass::Fp => &mut *fp_ports,
                FuClass::Branch => &mut *branch_ports,
                FuClass::SimpleInt | FuClass::Mem => &mut *simple_ports,
            };
            let start = class_ports.claim(issue_ports.claim(ready, 1), 1);
            start + latency
        };

        if flags & F_CONTROL != 0 {
            last_branch_completion = last_branch_completion.max(complete);
        }
        let dst = dst_a[j];
        if dst != NO_REG {
            local_write[dst as usize] = complete;
            write_epoch[dst as usize] = epoch;
        }
        retire.push(complete);
        max_completion = max_completion.max(complete);
    }

    let violation = violations.iter().copied().min_by_key(|v| v.detect);
    PAttempt {
        max_completion,
        last_branch_completion,
        store_complete,
        max_store_addr_ready,
        violation,
        load_events,
        synchronized_loads,
        false_dep_releases,
    }
}

/// The planned engine's simulator state: sequencer, memory system,
/// prediction unit and window, plus a pre-expanded opcode→latency table.
struct PSim {
    config: MsConfig,
    lat: Vec<u64>,
    dcache: BankedCache,
    bus: Bus,
    icaches: Vec<Cache>,
    unit: Option<SyncUnit>,
    predictor: PathPredictor,
    history: PathHistory,
    descriptor_cache: LruTable<Pc, ()>,
    window: VecDeque<PRecord>,
    scratch: PScratch,
    stage_free: Vec<u64>,
    prev_assign: u64,
    prev_commit: u64,
    prev_task_pc: Option<Pc>,
    prev_last_branch: u64,
    ddcs: Vec<(usize, Ddc)>,
    result: MsResult,
}

impl PSim {
    fn new(config: MsConfig) -> PSim {
        let mut lat = vec![0u64; 256];
        for &op in Opcode::ALL {
            lat[op as usize] = config.latencies.of(op);
        }
        let unit = config.policy.uses_predictor().then(|| {
            SyncUnit::new(SyncUnitConfig {
                stages: config.stages,
                mdpt: config.mdpt,
                esync: config.policy == Policy::Esync,
                tagging: config.tagging,
            })
        });
        PSim {
            lat,
            dcache: BankedCache::new(config.dcache),
            bus: Bus::paper_default(),
            icaches: (0..config.stages)
                .map(|_| Cache::new(config.icache))
                .collect(),
            unit,
            predictor: PathPredictor::new(4096, config.path_depth),
            history: PathHistory::new(config.path_depth),
            descriptor_cache: LruTable::new(config.descriptor_cache),
            window: VecDeque::with_capacity(config.stages),
            scratch: PScratch::default(),
            stage_free: vec![0; config.stages],
            prev_assign: 0,
            prev_commit: 0,
            prev_task_pc: None,
            prev_last_branch: 0,
            ddcs: config.ddc_sizes.iter().map(|&s| (s, Ddc::new(s))).collect(),
            result: MsResult::default(),
            config,
        }
    }

    fn on_task(&mut self, plan: &ReplayPlan, deps: &Dependences, k: usize) {
        let stage = k % self.config.stages;
        let start_pc = plan.task_start_pc[k];

        // --- Sequencer: next-task prediction and descriptor fetch -------
        let mut mispredicted = false;
        if let Some(prev_pc) = self.prev_task_pc {
            self.result.control_predictions += 1;
            let predicted = self.predictor.predict(prev_pc, self.history.hash());
            if predicted != Some(start_pc) {
                self.result.control_mispredicts += 1;
                mispredicted = true;
            }
            self.predictor
                .update(prev_pc, self.history.hash(), start_pc);
        }
        self.history.push(start_pc);
        let descriptor_hit = self.descriptor_cache.get(&start_pc).is_some();
        self.descriptor_cache.insert(start_pc, ());

        // --- Task start time ---------------------------------------------
        let mut t0 = self.stage_free[stage].max(self.prev_assign + 1);
        if mispredicted {
            t0 = t0.max(self.prev_last_branch + self.config.mispredict_penalty);
        }
        if !descriptor_hit {
            t0 += self.config.descriptor_miss_penalty;
        }

        // --- Execute, squashing and replaying on violations --------------
        let mut violated_edges: Vec<DepEdge> = Vec::new();
        let outcome = loop {
            let mut shared = Shared {
                config: &self.config,
                dcache: &mut self.dcache,
                bus: &mut self.bus,
                icache: &mut self.icaches[stage],
                unit: self.unit.as_mut(),
            };
            let outcome = planned_attempt(
                plan,
                deps,
                k,
                t0,
                stage,
                &self.window,
                &mut shared,
                &mut self.scratch,
                &self.lat,
            );
            let Some(v) = outcome.violation else {
                break outcome;
            };
            self.scratch.put_store_vec(outcome.store_complete);
            self.scratch.put_event_vec(outcome.load_events);
            violated_edges.push(v.edge);
            self.result.misspeculations += 1;
            for (_, ddc) in &mut self.ddcs {
                ddc.observe(v.edge);
            }
            if let Some(unit) = &mut self.unit {
                let dist = (k as u64 - v.producer_task).max(1) as u32;
                unit.record_misspeculation(v.edge, dist, Some(v.producer_task_pc));
                self.result.breakdown.record(v.predicted, true);
            }
            t0 = v.detect + self.config.squash_penalty;
        };

        // --- Commit (in order) -------------------------------------------
        let commit = outcome.max_completion.max(self.prev_commit + 1);
        self.prev_commit = commit;
        self.stage_free[stage] = commit + 1;
        self.prev_assign = t0;
        self.prev_last_branch = outcome.last_branch_completion;
        self.prev_task_pc = Some(start_pc);

        // --- Non-speculative prediction updates at commit ----------------
        if let Some(unit) = &mut self.unit {
            for ev in &outcome.load_events {
                self.result
                    .breakdown
                    .record(ev.predicted, ev.actual_dependence);
                for &(edge, found, waited) in &ev.edges {
                    let had_dependence = (found && waited) || violated_edges.contains(&edge);
                    unit.train(edge, had_dependence);
                }
            }
        }
        self.scratch.put_event_vec(outcome.load_events);
        self.result.synchronized_loads += outcome.synchronized_loads;
        self.result.false_dep_releases += outcome.false_dep_releases;

        // --- Bookkeeping ---------------------------------------------------
        self.result.tasks += 1;
        self.result.instructions += plan.task_range(k).len() as u64;
        self.result.committed_loads += deps.task_loads(k) as u64;
        self.result.committed_stores += deps.task_stores(k) as u64;
        let mut last_write = [NO_TIME; REGS];
        for (di, slot) in last_write.iter_mut().enumerate() {
            if self.scratch.write_epoch[di] == self.scratch.reg_epoch {
                *slot = self.scratch.last_write[di];
            }
        }
        self.window.push_back(PRecord {
            last_write,
            store_complete: outcome.store_complete,
            max_store_addr_ready: outcome.max_store_addr_ready,
        });
        while self.window.len() >= self.config.stages.max(1) {
            if let Some(evicted) = self.window.pop_front() {
                self.scratch.put_store_vec(evicted.store_complete);
            }
        }
    }

    fn finish(mut self) -> MsResult {
        self.result.cycles = self.prev_commit;
        self.result.dcache = self.dcache.stats();
        let mut ic = mds_mem::CacheStats::default();
        for c in &self.icaches {
            ic.hits += c.stats().hits;
            ic.misses += c.stats().misses;
        }
        self.result.icache = ic;
        self.result.bus_transactions = self.bus.transactions();
        self.result.ddc = self
            .ddcs
            .into_iter()
            .map(|(s, d)| (s, d.hits(), d.misses()))
            .collect();
        self.result
    }
}

/// Replays `trace` under `config` on the planned engine.
///
/// The trace is its [`ReplayPlan`]'s columns; their dependence index is
/// resolved on the first replay and cached on the plan, so every
/// configuration replaying the same trace shares it.
/// The result is byte-identical to [`reference::run`](crate::reference::run)
/// over the same records.
pub fn run_planned(trace: &Trace, config: &MsConfig) -> MsResult {
    replay(trace.replay_plan(), config)
}

/// Replays `plan` under `config`: the engine behind [`run_planned`] and
/// the [`Multiscalar`](crate::Multiscalar) entry points.
pub(crate) fn replay(plan: &ReplayPlan, config: &MsConfig) -> MsResult {
    let deps = plan.deps();
    let mut sim = PSim::new(config.clone());
    for k in 0..plan.tasks() {
        sim.on_task(plan, deps, k);
    }
    sim.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use mds_harness::json::ToJson;
    use mds_isa::{Program, ProgramBuilder, Reg};

    /// The captured trace, and the emulator's own records for the
    /// reference walk (so a decode bug cannot hide behind a shared input).
    fn capture(p: &Program) -> (Trace, Vec<mds_emu::DynInst>) {
        let records = mds_emu::Emulator::new(p).run().unwrap();
        (Trace::capture(p).unwrap(), records)
    }

    fn ports(width: u32, t0: u64) -> Ports {
        let mut p = Ports::default();
        p.reset(width, t0);
        p
    }

    #[test]
    fn ports_allow_width_per_cycle() {
        let mut p = ports(2, 0);
        assert_eq!(p.claim(10, 1), 10);
        assert_eq!(p.claim(10, 1), 10);
        assert_eq!(p.claim(10, 1), 11); // third claim spills to the next cycle
        assert_eq!(p.claim(11, 1), 11); // cycle 11 has one free slot left
        assert_eq!(p.claim(11, 1), 12); // now it is full
    }

    #[test]
    fn ports_are_order_insensitive() {
        // A late-ready claim must not block an earlier-ready one issued
        // after it — the OOO property the busy-until model got wrong.
        let mut p = ports(1, 0);
        assert_eq!(p.claim(100, 1), 100);
        assert_eq!(p.claim(5, 1), 5);
        assert_eq!(p.claim(5, 1), 6);
    }

    #[test]
    fn ports_tolerate_claims_before_the_base() {
        // Cannot happen in an attempt, but the ledger must stay correct.
        let mut p = ports(1, 50);
        assert_eq!(p.claim(50, 1), 50);
        assert_eq!(p.claim(10, 1), 10);
        assert_eq!(p.claim(10, 1), 11);
        assert_eq!(p.claim(50, 1), 51); // cycle 50 already claimed above
    }

    #[test]
    fn ports_reset_clears_the_ledger() {
        let mut p = ports(1, 0);
        assert_eq!(p.claim(3, 1), 3);
        p.reset(1, 3);
        assert_eq!(p.claim(3, 1), 3); // claimable again after reset
    }

    fn assert_same(a: &MsResult, b: &MsResult, label: &str) {
        assert_eq!(
            a.to_json().to_string(),
            b.to_json().to_string(),
            "engines diverge: {label}"
        );
    }

    /// Cross-task recurrence through one cell (from the sim tests).
    fn recurrence_tasks(iters: i32) -> Program {
        let mut b = ProgramBuilder::new();
        b.alloc("cell", 1);
        b.alloc("pad", 64);
        b.la(Reg::S0, "cell");
        b.la(Reg::S1, "pad");
        b.li(Reg::T0, iters);
        b.label("loop");
        b.task();
        b.ld(Reg::T1, Reg::S0, 0);
        b.addi(Reg::T1, Reg::T1, 1);
        b.mul(Reg::T3, Reg::T1, Reg::T1);
        b.mul(Reg::T3, Reg::T3, Reg::T1);
        b.sd(Reg::T3, Reg::S1, 0);
        b.sd(Reg::T1, Reg::S0, 0);
        b.addi(Reg::T0, Reg::T0, -1);
        b.bne(Reg::T0, Reg::ZERO, "loop");
        b.halt();
        b.build().unwrap()
    }

    /// Independent tasks with slow store addresses (from the sim tests).
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
        b.div(Reg::T4, Reg::T0, Reg::T6);
        b.andi(Reg::T4, Reg::T4, 0xff8);
        b.add(Reg::T4, Reg::S1, Reg::T4);
        b.sd(Reg::T2, Reg::T4, 0);
        b.addi(Reg::S0, Reg::S0, 8);
        b.addi(Reg::T0, Reg::T0, -1);
        b.bne(Reg::T0, Reg::ZERO, "loop");
        b.halt();
        b.build().unwrap()
    }

    /// Distance-5 recurrence through a ring buffer (from the sim tests).
    fn distant_recurrence_tasks(iters: i32) -> Program {
        let mut b = ProgramBuilder::new();
        b.alloc("ring", 5);
        b.la(Reg::S2, "ring");
        b.la(Reg::S3, "ring");
        b.li(Reg::T5, 0);
        b.li(Reg::T6, 5);
        b.li(Reg::T0, iters);
        b.label("loop");
        b.task();
        b.ld(Reg::T1, Reg::S2, 0);
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

    /// Byte/word store mix so the planned dependence arrays face partial
    /// overlaps.
    fn byte_store_tasks(iters: i32) -> Program {
        let mut b = ProgramBuilder::new();
        b.alloc("buf", 4);
        b.la(Reg::S0, "buf");
        b.li(Reg::T0, iters);
        b.label("loop");
        b.task();
        b.ld(Reg::T1, Reg::S0, 0);
        b.addi(Reg::T1, Reg::T1, 1);
        b.sb(Reg::T1, Reg::S0, 3);
        b.lb(Reg::T2, Reg::S0, 3);
        b.sd(Reg::T1, Reg::S0, 8);
        b.addi(Reg::T0, Reg::T0, -1);
        b.bne(Reg::T0, Reg::ZERO, "loop");
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn planned_engine_matches_reference_for_every_policy_and_stage_count() {
        let programs = [
            recurrence_tasks(60),
            independent_tasks(60),
            distant_recurrence_tasks(60),
            byte_store_tasks(40),
        ];
        for (pi, p) in programs.iter().enumerate() {
            let (trace, records) = capture(p);
            for stages in [1, 4, 8] {
                for policy in Policy::ALL {
                    let config = MsConfig::paper(stages, policy);
                    let a = reference::run(&records, &config);
                    let b = run_planned(&trace, &config);
                    assert_same(&a, &b, &format!("program {pi}, {stages} stages, {policy}"));
                }
            }
        }
    }

    #[test]
    fn planned_engine_matches_reference_with_ddcs_and_address_tagging() {
        let (trace, records) = capture(&recurrence_tasks(80));
        let mut config = MsConfig::paper(4, Policy::Always).with_ddc_sizes(&[16, 64]);
        assert_same(
            &reference::run(&records, &config),
            &run_planned(&trace, &config),
            "ddc",
        );
        config = MsConfig::paper(8, Policy::Sync);
        config.tagging = TagScheme::DataAddress;
        assert_same(
            &reference::run(&records, &config),
            &run_planned(&trace, &config),
            "address tagging",
        );
    }

    #[test]
    fn empty_trace_replays_to_an_empty_result() {
        let trace = Trace::from_records(std::iter::empty::<mds_emu::DynInst>());
        let config = MsConfig::paper(4, Policy::Always);
        let r = run_planned(&trace, &config);
        assert_eq!(r.cycles, 0);
        assert_eq!(r.tasks, 0);
    }
}
