//! The shared trace cache: one emulation per (workload, scale) per run.
//!
//! Every grid cell over the same workload replays the same committed
//! stream, so the cache materializes each stream exactly once — the first
//! job to ask performs the emulation inside a [`OnceLock`] initializer
//! (blocking any concurrent askers for the same key), and everyone else
//! clones the `Arc`. Reference counts are seeded from the job list up
//! front, so a trace is evicted the moment its last job releases it:
//! peak residency is bounded by the number of workloads *in flight*, not
//! the number in the grid.

use crate::job::Job;
use crate::pool::lock;
use mds_emu::Trace;
use mds_workloads::{Scale, Workload};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

type Key = (&'static str, Scale);

struct Slot {
    /// The memoized trace. `OnceLock` gives exactly-once initialization
    /// even under concurrent fetches for the same workload.
    trace: Arc<OnceLock<Arc<Trace>>>,
    /// Jobs that still intend to fetch or hold this trace. `usize::MAX`
    /// means "unregistered key, never evict".
    remaining: usize,
}

/// A concurrency-safe, reference-counted cache of committed traces.
///
/// # Examples
///
/// ```
/// use mds_runner::{Grid, TraceCache};
/// use mds_workloads::{by_name, Scale};
///
/// let compress = by_name("compress").unwrap();
/// let mut grid = Grid::new(Scale::Tiny);
/// grid.summary(&compress).summary(&compress);
///
/// let cache = TraceCache::new(grid.jobs());
/// let a = cache.fetch(&compress, Scale::Tiny);
/// cache.release(&compress, Scale::Tiny);
/// let b = cache.fetch(&compress, Scale::Tiny);
/// cache.release(&compress, Scale::Tiny);
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!(cache.misses(), 1);
/// assert_eq!(cache.hits(), 1);
/// assert_eq!(cache.resident(), 0); // last release evicted the slot
/// ```
pub struct TraceCache {
    /// Keyed slots; `Debug` summarizes rather than dumping trace data.
    slots: Mutex<HashMap<Key, Slot>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// High-water mark of simultaneously resident trace bytes.
    peak_bytes: AtomicUsize,
}

impl std::fmt::Debug for TraceCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCache")
            .field("resident", &self.resident())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("peak_bytes", &self.peak_bytes())
            .finish()
    }
}

impl TraceCache {
    /// Builds a cache whose reference counts are seeded from `jobs`: each
    /// job contributes one fetch/release pair for its trace key.
    pub fn new<'a>(jobs: impl IntoIterator<Item = &'a Job>) -> TraceCache {
        let mut slots: HashMap<Key, Slot> = HashMap::new();
        for job in jobs {
            slots
                .entry(job.trace_key())
                .or_insert_with(|| Slot {
                    trace: Arc::new(OnceLock::new()),
                    remaining: 0,
                })
                .remaining += 1;
        }
        TraceCache {
            slots: Mutex::new(slots),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            peak_bytes: AtomicUsize::new(0),
        }
    }

    /// A persistent cache with no registered job list: every fetched
    /// trace is pinned resident until the cache is dropped.
    ///
    /// This is the long-lived serving configuration — a shared cache that
    /// amortizes emulation across many independent [`crate::Runner::run`]
    /// calls (the key space is the finite workload registry × three
    /// scales, so residency is naturally bounded).
    pub fn persistent() -> TraceCache {
        TraceCache::new(&[])
    }

    /// The committed trace for `workload` at `scale`, emulating it if no
    /// other job has yet.
    ///
    /// The per-key `OnceLock` serializes only askers of the *same*
    /// workload; distinct workloads emulate concurrently.
    ///
    /// # Panics
    ///
    /// Panics if the workload's program fails to run to completion —
    /// registered workloads are total by construction, so a failure here
    /// is a workload bug, not an operational condition.
    pub fn fetch(&self, workload: &Workload, scale: Scale) -> Arc<Trace> {
        let slot_cell = {
            let mut slots = lock(&self.slots);
            let slot = slots.entry((workload.name, scale)).or_insert_with(|| Slot {
                trace: Arc::new(OnceLock::new()),
                remaining: usize::MAX,
            });
            Arc::clone(&slot.trace)
        };
        let mut initialized_here = false;
        let trace = slot_cell.get_or_init(|| {
            initialized_here = true;
            let program = workload.build(scale);
            let trace = Trace::capture(&program)
                .unwrap_or_else(|e| panic!("workload '{}' failed to emulate: {e}", workload.name));
            Arc::new(trace)
        });
        if initialized_here {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.note_resident();
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        Arc::clone(trace)
    }

    /// Releases one job's claim on a trace; the slot is evicted when the
    /// last registered claim is released.
    pub fn release(&self, workload: &Workload, scale: Scale) {
        let mut slots = lock(&self.slots);
        if let Some(slot) = slots.get_mut(&(workload.name, scale)) {
            if slot.remaining != usize::MAX {
                slot.remaining = slot.remaining.saturating_sub(1);
                if slot.remaining == 0 {
                    slots.remove(&(workload.name, scale));
                }
            }
        }
    }

    fn note_resident(&self) {
        let resident: usize = {
            let slots = lock(&self.slots);
            slots
                .values()
                .filter_map(|s| s.trace.get())
                .map(|t| t.resident_bytes())
                .sum()
        };
        self.peak_bytes.fetch_max(resident, Ordering::Relaxed);
    }

    /// Fetches that reused an already-captured trace.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Fetches that had to run the emulator (== emulations performed).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of traces currently materialized and not yet evicted.
    pub fn resident(&self) -> usize {
        let slots = lock(&self.slots);
        slots.values().filter(|s| s.trace.get().is_some()).count()
    }

    /// High-water mark of simultaneously resident trace bytes.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes.load(Ordering::Relaxed)
    }

    /// Bytes of trace data currently resident (for serving metrics).
    pub fn resident_bytes(&self) -> usize {
        let slots = lock(&self.slots);
        slots
            .values()
            .filter_map(|s| s.trace.get())
            .map(|t| t.resident_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobKind;
    use mds_workloads::by_name;

    fn summary_job(workload: &Workload, scale: Scale, n: usize) -> Job {
        Job {
            id: format!("{}/{n}", workload.name),
            workload: *workload,
            scale,
            kind: JobKind::Summary,
        }
    }

    #[test]
    fn one_emulation_per_key_under_concurrency() {
        let compress = by_name("compress").unwrap();
        let jobs: Vec<Job> = (0..8)
            .map(|n| summary_job(&compress, Scale::Tiny, n))
            .collect();
        let cache = TraceCache::new(&jobs);
        let traces: Vec<Arc<Trace>> = std::thread::scope(|s| {
            (0..8)
                .map(|_| s.spawn(|| cache.fetch(&compress, Scale::Tiny)))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(cache.misses(), 1, "exactly one emulation");
        assert_eq!(cache.hits(), 7);
        for t in &traces[1..] {
            assert!(Arc::ptr_eq(&traces[0], t), "all fetches share one Arc");
        }
        assert!(cache.peak_bytes() >= traces[0].resident_bytes());
    }

    #[test]
    fn eviction_waits_for_the_last_release() {
        let compress = by_name("compress").unwrap();
        let jobs: Vec<Job> = (0..2)
            .map(|n| summary_job(&compress, Scale::Tiny, n))
            .collect();
        let cache = TraceCache::new(&jobs);
        let _t = cache.fetch(&compress, Scale::Tiny);
        cache.release(&compress, Scale::Tiny);
        assert_eq!(cache.resident(), 1, "one claim still outstanding");
        cache.release(&compress, Scale::Tiny);
        assert_eq!(cache.resident(), 0, "last release evicts");
    }

    #[test]
    fn distinct_keys_are_distinct_traces() {
        let compress = by_name("compress").unwrap();
        let sc = by_name("sc").unwrap();
        let jobs = vec![
            summary_job(&compress, Scale::Tiny, 0),
            summary_job(&compress, Scale::Tiny, 1),
        ];
        let cache = TraceCache::new(&jobs);
        let a = cache.fetch(&compress, Scale::Tiny);
        // `sc` is not registered in the job list: cached but never evicted.
        let b = cache.fetch(&sc, Scale::Tiny);
        assert_eq!(cache.misses(), 2);
        assert!(!Arc::ptr_eq(&a, &b));
        cache.release(&sc, Scale::Tiny);
        assert_eq!(cache.resident(), 2, "unregistered keys are pinned");
    }

    #[test]
    fn refetch_after_eviction_re_emulates() {
        let compress = by_name("compress").unwrap();
        let jobs = vec![summary_job(&compress, Scale::Tiny, 0)];
        let cache = TraceCache::new(&jobs);
        let _ = cache.fetch(&compress, Scale::Tiny);
        cache.release(&compress, Scale::Tiny);
        // The slot is gone; a late fetch re-emulates under a fresh pin.
        let _ = cache.fetch(&compress, Scale::Tiny);
        assert_eq!(cache.misses(), 2);
    }
}
