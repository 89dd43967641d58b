//! In-memory spans recorded around the benchmark's own calls into each
//! layer.
//!
//! A span has a name, a start and end (nanoseconds since the recorder
//! was created), the id of the span that caused it, and the id of the
//! operation (iteration or request) it belongs to. Spans stay in memory
//! and are written out once, when the run ends. A layer's self time is
//! its spans' durations minus the part of each interval that child spans
//! cover.
//!
//! A disabled recorder hands out inert guards, so untraced runs pay one
//! branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The parent id of a root span.
pub const ROOT: u32 = 0;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    id: u32,
    parent: u32,
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Collects spans from any thread.
pub struct Recorder {
    on: AtomicBool,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// Time spent in one layer, summed over its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations, seconds.
    pub total_s: f64,
    /// Sum of self times (duration minus child coverage), seconds.
    pub self_s: f64,
}

impl Recorder {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on: AtomicBool::new(on),
            epoch: Instant::now(),
            next: AtomicU32::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Turns recording on or off; spans already open still record.
    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Opens a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str, parent: u32, op: u64) -> Guard<'_> {
        if !self.enabled() {
            return Guard {
                rec: self,
                name,
                id: ROOT,
                parent,
                op,
                start_ns: 0,
            };
        }
        Guard {
            rec: self,
            name,
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            op,
            start_ns: self.now_ns(),
        }
    }

    /// Records a span measured elsewhere (e.g. a request timed by the
    /// load generator from its due time).
    pub fn record(&self, name: &'static str, parent: u32, op: u64, start: Instant, end: Instant) {
        if !self.enabled() {
            return;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.push(Span {
            name,
            id,
            parent,
            op,
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking recorder")
            .push(span);
    }

    fn snapshot(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking recorder")
            .clone()
    }

    /// Per-name totals and self times over every recorded span.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.snapshot();
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if s.parent != ROOT {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for s in &spans {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += dur as f64 / 1e9;
            t.self_s += dur.saturating_sub(covered) as f64 / 1e9;
        }
        out
    }

    /// Every span as one JSON document (for offline inspection).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.snapshot().iter().enumerate() {
            let _ = writeln!(
                out,
                "{}{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.id,
                s.parent,
                s.op,
                s.start_ns,
                s.end_ns
            );
        }
        out.push(']');
        out
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered_ns(intervals: &[(u64, u64)], start: u64, end: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(start), b.min(end)))
        .filter(|&(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for (a, b) in v {
        let a = a.max(cursor);
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// An open span; records itself on drop.
pub struct Guard<'a> {
    rec: &'a Recorder,
    name: &'static str,
    id: u32,
    parent: u32,
    op: u64,
    start_ns: u64,
}

impl Guard<'_> {
    /// This span's id, the parent for spans it causes.
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if self.id == ROOT {
            return;
        }
        let end_ns = self.rec.now_ns();
        self.rec.push(Span {
            name: self.name,
            id: self.id,
            parent: self.parent,
            op: self.op,
            start_ns: self.start_ns,
            end_ns,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(covered_ns(&[(10, 20), (15, 30), (40, 50)], 0, 45), 25);
        assert_eq!(covered_ns(&[], 0, 10), 0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::new(false);
        drop(r.span("x", ROOT, 0));
        assert!(r.layers().is_empty());
    }

    #[test]
    fn nested_spans_split_self_time() {
        let r = Recorder::new(true);
        {
            let outer = r.span("outer", ROOT, 1);
            let _inner = r.span("inner", outer.id(), 1);
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let layers = r.layers();
        assert!(layers["outer"].self_s < layers["inner"].self_s);
        assert_eq!(layers["inner"].count, 1);
    }
}
