//! The reference walk: the original record-stream Multiscalar simulator,
//! kept as the cycle-exact oracle for the planned engine.
//!
//! [`run`] splits the committed [`DynInst`] stream into
//! [`Task`]s and times each attempt by re-decoding operands and
//! re-discovering store→load overlaps through per-task hash maps. It
//! shares no scheduling code with
//! [`run_planned`](crate::run_planned) beyond the functional-unit port
//! ledger and the memory system, so agreement between the two is
//! evidence that the plan's pre-resolved dependences are right.
//!
//! No library or binary path runs this walk; it takes about twice as long
//! as the planned engine. Tests compare the two byte for byte
//! (unit tests, a random-trace property test, every Multiscalar cell of
//! the pinned experiments), and the replay bench measures both.

mod exec;

use crate::config::MsConfig;
use crate::replay::Shared;
use crate::result::MsResult;
use crate::task::{Task, TaskSplitter};
use exec::{execute_attempt, ExecScratch, TaskRecord};
use mds_core::{Ddc, SyncUnit, SyncUnitConfig};
use mds_emu::DynInst;
use mds_isa::Pc;
use mds_mem::{BankedCache, Bus, Cache};
use mds_predict::{LruTable, PathHistory, PathPredictor};
use std::collections::VecDeque;

/// Replays the committed `records` under `config` on the reference walk.
///
/// The result is byte-identical to [`run_planned`](crate::run_planned)
/// over a trace of the same records; any difference is a bug in one of
/// the engines. The walk reads the records themselves, not a trace's
/// decoded columns, so it shares no input path with the planned engine.
pub fn run(records: &[DynInst], config: &MsConfig) -> MsResult {
    let mut state = SimState::new(config);
    let mut splitter = TaskSplitter::new(None);
    for &d in records {
        if let Some(task) = splitter.push(d) {
            state.on_task(task);
        }
    }
    if let Some(task) = splitter.finish() {
        state.on_task(task);
    }
    state.finish()
}

struct SimState<'c> {
    config: &'c MsConfig,
    dcache: BankedCache,
    bus: Bus,
    icaches: Vec<Cache>,
    unit: Option<SyncUnit>,
    predictor: PathPredictor,
    history: PathHistory,
    descriptor_cache: LruTable<Pc, ()>,
    window: VecDeque<TaskRecord>,
    scratch: ExecScratch,
    stage_free: Vec<u64>,
    prev_assign: u64,
    prev_commit: u64,
    prev_task_pc: Option<Pc>,
    prev_last_branch: u64,
    ddcs: Vec<(usize, Ddc)>,
    result: MsResult,
}

impl<'c> SimState<'c> {
    fn new(config: &'c MsConfig) -> Self {
        let unit = config.policy.uses_predictor().then(|| {
            SyncUnit::new(SyncUnitConfig {
                stages: config.stages,
                mdpt: config.mdpt,
                esync: config.policy == mds_core::Policy::Esync,
                tagging: config.tagging,
            })
        });
        SimState {
            config,
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
            scratch: ExecScratch::new(),
            stage_free: vec![0; config.stages],
            prev_assign: 0,
            prev_commit: 0,
            prev_task_pc: None,
            prev_last_branch: 0,
            ddcs: config.ddc_sizes.iter().map(|&s| (s, Ddc::new(s))).collect(),
            result: MsResult::default(),
        }
    }

    fn on_task(&mut self, task: Task) {
        let stage = (task.seq as usize) % self.config.stages;

        // --- Sequencer: next-task prediction and descriptor fetch -------
        let mut mispredicted = false;
        if let Some(prev_pc) = self.prev_task_pc {
            self.result.control_predictions += 1;
            let predicted = self.predictor.predict(prev_pc, self.history.hash());
            if predicted != Some(task.start_pc) {
                self.result.control_mispredicts += 1;
                mispredicted = true;
            }
            self.predictor
                .update(prev_pc, self.history.hash(), task.start_pc);
        }
        self.history.push(task.start_pc);
        let descriptor_hit = self.descriptor_cache.get(&task.start_pc).is_some();
        self.descriptor_cache.insert(task.start_pc, ());

        // --- Task start time ---------------------------------------------
        let mut t0 = self.stage_free[stage].max(self.prev_assign + 1);
        if mispredicted {
            // The wrong task was fetched; the right one starts only after
            // the previous task's last branch resolves, plus the penalty.
            t0 = t0.max(self.prev_last_branch + self.config.mispredict_penalty);
        }
        if !descriptor_hit {
            t0 += self.config.descriptor_miss_penalty;
        }

        // --- Execute, squashing and replaying on violations --------------
        let mut violated_edges: Vec<mds_core::DepEdge> = Vec::new();
        let outcome = loop {
            let mut shared = Shared {
                config: self.config,
                dcache: &mut self.dcache,
                bus: &mut self.bus,
                icache: &mut self.icaches[stage],
                unit: self.unit.as_mut(),
            };
            let outcome = execute_attempt(
                &task,
                t0,
                stage,
                &self.window,
                &mut shared,
                &mut self.scratch,
            );
            let Some(v) = outcome.violation else {
                break outcome;
            };
            // The squashed attempt's record is discarded — reclaim its maps
            // so the replay reuses the allocations.
            self.scratch.recycle(outcome.record);
            violated_edges.push(v.edge);
            self.result.misspeculations += 1;
            for (_, ddc) in &mut self.ddcs {
                ddc.observe(v.edge);
            }
            if let Some(unit) = &mut self.unit {
                let dist = (task.seq - v.producer_task).max(1) as u32;
                unit.record_misspeculation(v.edge, dist, Some(v.producer_task_pc));
                // The squashed load's prediction is counted once, as the
                // paper does for loads issued from squashed tasks.
                self.result.breakdown.record(v.predicted, true);
            }
            t0 = v.detect + self.config.squash_penalty;
        };

        // --- Commit (in order) -------------------------------------------
        let mut record = outcome.record;
        let commit = record.max_completion.max(self.prev_commit + 1);
        record.commit = commit;
        self.prev_commit = commit;
        self.stage_free[stage] = commit + 1;
        self.prev_assign = t0;
        self.prev_last_branch = record.last_branch_completion;
        self.prev_task_pc = Some(task.start_pc);

        // --- Non-speculative prediction updates at commit ----------------
        if let Some(unit) = &mut self.unit {
            for ev in &outcome.load_events {
                self.result
                    .breakdown
                    .record(ev.predicted, ev.actual_dependence);
                for &(edge, found, waited) in &ev.edges {
                    // An edge that violated during any attempt of this task
                    // definitely carried a dependence — the committed
                    // (post-replay) attempt just re-issued the load after
                    // the store and saw no wait, which must not weaken the
                    // prediction.
                    let had_dependence = (found && waited) || violated_edges.contains(&edge);
                    unit.train(edge, had_dependence);
                }
            }
        }
        self.result.synchronized_loads += outcome.synchronized_loads;
        self.result.false_dep_releases += outcome.false_dep_releases;

        // --- Bookkeeping ---------------------------------------------------
        self.result.tasks += 1;
        self.result.instructions += task.len() as u64;
        for d in &task.insts {
            if d.is_load() {
                self.result.committed_loads += 1;
            } else if d.is_store() {
                self.result.committed_stores += 1;
            }
        }
        self.window.push_back(record);
        while self.window.len() >= self.config.stages.max(1) {
            if let Some(evicted) = self.window.pop_front() {
                self.scratch.recycle(evicted);
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
