//! Spans recorded from outside the program, around calls into its public
//! layers: a delegating [`ThroughputOracle`] decorator ([`TracedOracle`])
//! and a wrapping event iterator ([`Feed`]). Nothing inside the program is
//! instrumented; spans are kept in memory and written out at the end.

use crate::proc_stats::{OpTimes, Stamp};
use rankmap_core::oracle::ThroughputOracle;
use rankmap_sim::{Mapping, Workload};
use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Span names: the layer boundaries the benchmark records.
pub mod name {
    pub const MAP: &str = "manager.map";
    pub const EVENT: &str = "fleet.event";
    pub const LOAD_NEXT: &str = "load.next";
    pub const PREDICT: &str = "oracle.predict";
    pub const PREDICT_BATCH: &str = "oracle.predict_batch";
    pub const PREDICT_GROUPED: &str = "oracle.predict_grouped";
    pub const ORACLE: [&str; 3] = [PREDICT, PREDICT_BATCH, PREDICT_GROUPED];
}

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 = none).
    pub parent: u64,
    pub name: &'static str,
    /// Small per-process thread number (0 = the first thread that traced).
    pub thread: u64,
    pub start: u64,
    pub end: u64,
    /// Work items the call carried: mappings for oracle calls, 1 otherwise.
    pub items: u64,
}

impl Span {
    pub fn interval(&self) -> (u64, u64) {
        (self.start, self.end)
    }

    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// Spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// In-memory span recorder shared by every thread of one traced pass.
///
/// A span's parent is the innermost span open on its own thread or, on a
/// thread with none open (a worker of the program's own fan-out), the
/// operation in flight: operations are issued one at a time, so every call
/// made while one is open belongs to it.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    current_op: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            current_op: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn alloc(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    fn record(&self, id: u64, parent: u64, name: &'static str, start: u64, end: u64, items: u64) {
        let thread = THREAD.with(|t| *t);
        self.push(Span {
            id,
            parent,
            name,
            thread,
            start,
            end,
            items,
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn in_span<R>(&self, name: &'static str, items: u64, f: impl FnOnce() -> R) -> R {
        let id = self.alloc();
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open
                .last()
                .copied()
                .unwrap_or_else(|| self.current_op.load(Ordering::Relaxed));
            open.push(id);
            parent
        });
        let start = self.ns(Instant::now());
        let out = f();
        let end = self.ns(Instant::now());
        OPEN.with(|open| open.borrow_mut().pop());
        self.record(id, parent, name, start, end, items);
        out
    }

    /// Runs one operation `f` as a root span that calls on other threads
    /// attach to.
    pub fn op<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.alloc();
        self.current_op.store(id, Ordering::Relaxed);
        OPEN.with(|open| open.borrow_mut().push(id));
        let start = self.ns(Instant::now());
        let out = f();
        let end = self.ns(Instant::now());
        OPEN.with(|open| open.borrow_mut().pop());
        self.current_op.store(0, Ordering::Relaxed);
        self.record(id, 0, name, start, end, 1);
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Writes one pass's spans as JSON Lines.
    pub fn write_jsonl(pass: usize, spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
        for s in spans {
            writeln!(
                out,
                "{{\"pass\":{pass},\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"items\":{}}}",
                s.id, s.parent, s.name, s.thread, s.start, s.end, s.items
            )?;
        }
        Ok(())
    }
}

/// Delegates all three [`ThroughputOracle`] entry points to `inner`, so
/// the inner oracle's fused overrides still run, and records one span per
/// call with the number of mappings it priced.
pub struct TracedOracle<'a, O> {
    inner: &'a O,
    tracer: &'a Tracer,
}

impl<'a, O: ThroughputOracle> TracedOracle<'a, O> {
    pub fn new(inner: &'a O, tracer: &'a Tracer) -> Self {
        Self { inner, tracer }
    }
}

impl<O: ThroughputOracle> ThroughputOracle for TracedOracle<'_, O> {
    fn predict(&self, workload: &Workload, mapping: &Mapping) -> Vec<f64> {
        self.tracer
            .in_span(name::PREDICT, 1, || self.inner.predict(workload, mapping))
    }

    fn predict_batch(&self, workload: &Workload, mappings: &[Mapping]) -> Vec<Vec<f64>> {
        self.tracer
            .in_span(name::PREDICT_BATCH, mappings.len() as u64, || {
                self.inner.predict_batch(workload, mappings)
            })
    }

    fn predict_grouped(&self, queries: &[(&Workload, &[Mapping])]) -> Vec<Vec<Vec<f64>>> {
        let items = queries.iter().map(|(_, ms)| ms.len() as u64).sum();
        self.tracer.in_span(name::PREDICT_GROUPED, items, || {
            self.inner.predict_grouped(queries)
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Wraps the fleet's event source: records the feed stall (the gap
/// between the starts of successive pulls — everything the executor did
/// with the previous event) and, when traced, one [`name::EVENT`] span
/// per event with a [`name::LOAD_NEXT`] child around the pull itself.
pub struct Feed<'a, I> {
    inner: I,
    stalls: &'a mut OpTimes,
    tracer: Option<&'a Tracer>,
    last_pull: Option<Stamp>,
    /// The traced event in flight: `(span id, start)`.
    open: Option<(u64, u64)>,
}

impl<'a, I: Iterator> Feed<'a, I> {
    pub fn new(inner: I, stalls: &'a mut OpTimes, tracer: Option<&'a Tracer>) -> Self {
        Self {
            inner,
            stalls,
            tracer,
            last_pull: None,
            open: None,
        }
    }
}

impl<I: Iterator> Iterator for Feed<'_, I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let stamp = Stamp::now();
        if let Some(prev) = self.last_pull.replace(stamp) {
            self.stalls.push(&prev, &stamp);
        }
        let now = stamp.wall();
        let Some(tracer) = self.tracer else {
            return self.inner.next();
        };
        let start = tracer.ns(now);
        if let Some((id, began)) = self.open.take() {
            tracer.record(id, 0, name::EVENT, began, start, 1);
        }
        let id = tracer.alloc();
        tracer.current_op.store(id, Ordering::Relaxed);
        let pulled = self.inner.next();
        let end = tracer.ns(Instant::now());
        if pulled.is_some() {
            self.open = Some((id, start));
            tracer.record(tracer.alloc(), id, name::LOAD_NEXT, start, end, 1);
        } else {
            // The final, empty pull belongs to no event.
            tracer.current_op.store(0, Ordering::Relaxed);
            tracer.record(tracer.alloc(), 0, name::LOAD_NEXT, start, end, 1);
        }
        pulled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rankmap_core::oracle::AnalyticalOracle;
    use rankmap_models::ModelId;
    use rankmap_platform::{ComponentId, Platform};

    #[test]
    fn decorator_delegates_bit_identically_and_counts_mappings() {
        let platform = Platform::orange_pi_5();
        let bare = AnalyticalOracle::new(&platform);
        let tracer = Tracer::new();
        let traced = TracedOracle::new(&bare, &tracer);
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::ResNet50]);
        let ms: Vec<Mapping> = (0..3)
            .map(|c| Mapping::uniform(&w, ComponentId::new(c)))
            .collect();
        assert_eq!(traced.predict(&w, &ms[0]), bare.predict(&w, &ms[0]));
        assert_eq!(traced.predict_batch(&w, &ms), bare.predict_batch(&w, &ms));
        let queries: Vec<(&Workload, &[Mapping])> = vec![(&w, &ms), (&w, &ms[..1])];
        assert_eq!(
            traced.predict_grouped(&queries),
            bare.predict_grouped(&queries)
        );
        assert_eq!(traced.name(), bare.name());
        let spans = tracer.spans();
        let items: Vec<(&str, u64)> = spans.iter().map(|s| (s.name, s.items)).collect();
        assert_eq!(
            items,
            [
                (name::PREDICT, 1),
                (name::PREDICT_BATCH, 3),
                (name::PREDICT_GROUPED, 4)
            ]
        );
        assert!(spans.iter().all(|s| s.parent == 0 && s.end >= s.start));
    }

    #[test]
    fn spans_nest_under_the_open_operation() {
        let tracer = Tracer::new();
        tracer.op(name::MAP, || {
            tracer.in_span(name::PREDICT, 1, || ());
            std::thread::scope(|s| {
                s.spawn(|| tracer.in_span(name::PREDICT_BATCH, 2, || ()));
            });
        });
        let spans = tracer.spans();
        let op = spans.iter().find(|s| s.name == name::MAP).expect("op span");
        assert_eq!(op.parent, 0);
        for s in spans.iter().filter(|s| s.name != name::MAP) {
            assert_eq!(s.parent, op.id, "{} attaches to the op", s.name);
            assert!(op.start <= s.start && s.end <= op.end);
        }
        let threads: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.thread).collect();
        assert_eq!(threads.len(), 2);
    }

    #[test]
    fn feed_records_one_stall_and_one_event_per_item() {
        let tracer = Tracer::new();
        let mut stalls = OpTimes::default();
        let pulled: Vec<u32> = Feed::new(0..3u32, &mut stalls, Some(&tracer)).collect();
        assert_eq!(pulled, [0, 1, 2]);
        assert_eq!(stalls.len(), 3);
        let spans = tracer.spans();
        let events: Vec<&Span> = spans.iter().filter(|s| s.name == name::EVENT).collect();
        let nexts: Vec<&Span> = spans.iter().filter(|s| s.name == name::LOAD_NEXT).collect();
        assert_eq!((events.len(), nexts.len()), (3, 4));
        for e in &events {
            assert_eq!(nexts.iter().filter(|n| n.parent == e.id).count(), 1);
        }
        assert_eq!(
            nexts.iter().filter(|n| n.parent == 0).count(),
            1,
            "the final pull"
        );

        let mut untraced = OpTimes::default();
        assert_eq!(Feed::new(0..5u32, &mut untraced, None).count(), 5);
        assert_eq!(untraced.len(), 5);
    }
}
