//! Timing wrappers the traced run puts around a built job's layers.
//!
//! [`TimedDataset`] replaces `TrainingJob::dataset` and [`TimedTracer`]
//! replaces `TrainingJob::tracer`. Both forward every call unchanged and
//! only count calls and the wall time spent inside them, so a wrapped
//! run delivers the same samples and emits the same trace as an
//! unwrapped one (checked by `tests/transparency.rs`).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lotus::dataflow::{Dataset, Tracer};
use lotus::sim::{ReadOutcome, Span, Time};
use lotus::transforms::{PipelineError, Sample, TransformCtx, TransformObserver};

/// A call count and the wall nanoseconds spent in those calls. Relaxed
/// atomics: the totals are statistics that publish no other data, read
/// after the run has joined every thread.
#[derive(Debug, Default)]
pub struct CallTotals {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl CallTotals {
    fn add(&self, started: Instant) {
        let ns = crate::nanos(started.elapsed());
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Number of calls recorded.
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Wall nanoseconds spent inside the recorded calls.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

thread_local! {
    static ON_MAIN: Cell<bool> = const { Cell::new(false) };
    static IN_GET_ITEM: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread as the training loop's thread. The native
/// backend runs its main loop on the thread that calls `run`, so hook
/// time seen there is main-thread time; every other thread is a worker.
pub fn mark_main_thread() {
    ON_MAIN.with(|m| m.set(true));
}

/// Wraps a dataset and times every `get_item`.
pub struct TimedDataset {
    inner: Arc<dyn Dataset>,
    /// `get_item` calls and their wall time.
    pub get_item: CallTotals,
}

impl TimedDataset {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: Arc<dyn Dataset>) -> TimedDataset {
        TimedDataset {
            inner,
            get_item: CallTotals::default(),
        }
    }
}

impl Dataset for TimedDataset {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn get_item(
        &self,
        index: u64,
        ctx: &mut TransformCtx<'_>,
        observer: &mut dyn TransformObserver,
    ) -> Result<Sample, PipelineError> {
        let started = Instant::now();
        IN_GET_ITEM.with(|g| g.set(true));
        let out = self.inner.get_item(index, ctx, observer);
        IN_GET_ITEM.with(|g| g.set(false));
        self.get_item.add(started);
        out
    }

    fn cost_hint(&self, index: u64) -> Option<u64> {
        self.inner.cost_hint(index)
    }
}

/// Wraps a tracer, forwards all 13 hooks, and times each one, split
/// between the training loop's thread and every other thread.
pub struct TimedTracer {
    inner: Arc<dyn Tracer>,
    /// Hook calls made on the thread marked by [`mark_main_thread`].
    pub main: CallTotals,
    /// Hook calls made on any other thread.
    pub other: CallTotals,
    /// The subset of all hook calls made from inside a
    /// [`TimedDataset::get_item`] (the dataset reporting its ops).
    pub in_get_item: CallTotals,
    dispatches: Mutex<Vec<(u64, Time)>>,
    main_log: Mutex<Vec<(Time, u64)>>,
}

impl TimedTracer {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: Arc<dyn Tracer>) -> TimedTracer {
        TimedTracer {
            inner,
            main: CallTotals::default(),
            other: CallTotals::default(),
            in_get_item: CallTotals::default(),
            dispatches: Mutex::new(Vec::new()),
            main_log: Mutex::new(Vec::new()),
        }
    }

    /// All hook calls, on any thread.
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.main.calls() + self.other.calls()
    }

    /// Wall nanoseconds inside all hook calls.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.main.ns() + self.other.ns()
    }

    /// Every `(batch_id, at)` the engine reported dispatching, in call
    /// order.
    #[must_use]
    pub fn dispatches(&self) -> Vec<(u64, Time)> {
        self.dispatches
            .lock()
            .expect("dispatch log poisoned")
            .clone()
    }

    /// Every hook call on the training loop's thread as `(at, ns)`: the
    /// engine time the hook reports (its instant, or its span's end,
    /// which is when the engine calls it) and the wall ns inside it. The
    /// traced run uses it to tell hook time inside a \[T2\] wait from hook
    /// time outside one.
    #[must_use]
    pub fn main_log(&self) -> Vec<(Time, u64)> {
        self.main_log.lock().expect("hook log poisoned").clone()
    }

    fn timed<T>(&self, at: Time, call: impl FnOnce(&dyn Tracer) -> T) -> T {
        let started = Instant::now();
        let out = call(&*self.inner);
        if ON_MAIN.with(Cell::get) {
            self.main.add(started);
            let ns = crate::nanos(started.elapsed());
            self.main_log
                .lock()
                .expect("hook log poisoned")
                .push((at, ns));
        } else {
            self.other.add(started);
        }
        if IN_GET_ITEM.with(Cell::get) {
            self.in_get_item.add(started);
        }
        out
    }
}

impl Tracer for TimedTracer {
    fn on_op(&self, pid: u32, batch_id: u64, name: &str, start: Time, dur: Span) -> Span {
        self.timed(start + dur, |t| t.on_op(pid, batch_id, name, start, dur))
    }

    fn on_batch_preprocessed(&self, pid: u32, batch_id: u64, start: Time, dur: Span) -> Span {
        self.timed(start + dur, |t| {
            t.on_batch_preprocessed(pid, batch_id, start, dur)
        })
    }

    fn on_batch_dispatched(
        &self,
        batch_id: u64,
        to_pid: u32,
        indices: &[u64],
        redispatch: bool,
        at: Time,
    ) -> Span {
        self.timed(at, |t| {
            self.dispatches
                .lock()
                .expect("dispatch log poisoned")
                .push((batch_id, at));
            t.on_batch_dispatched(batch_id, to_pid, indices, redispatch, at)
        })
    }

    fn on_batch_wait(
        &self,
        pid: u32,
        batch_id: u64,
        start: Time,
        dur: Span,
        out_of_order: bool,
        queue_delay: Span,
    ) -> Span {
        self.timed(start + dur, |t| {
            t.on_batch_wait(pid, batch_id, start, dur, out_of_order, queue_delay)
        })
    }

    fn on_batch_consumed(
        &self,
        pid: u32,
        batch_id: u64,
        start: Time,
        dur: Span,
        batch_len: usize,
    ) -> Span {
        self.timed(start + dur, |t| {
            t.on_batch_consumed(pid, batch_id, start, dur, batch_len)
        })
    }

    fn on_storage_read(&self, pid: u32, batch_id: u64, start: Time, read: &ReadOutcome) -> Span {
        self.timed(start, |t| t.on_storage_read(pid, batch_id, start, read))
    }

    fn on_fault_injected(&self, pid: u32, batch_id: u64, op: &str, at: Time) -> Span {
        self.timed(at, |t| t.on_fault_injected(pid, batch_id, op, at))
    }

    fn on_worker_died(&self, pid: u32, at: Time) -> Span {
        self.timed(at, |t| t.on_worker_died(pid, at))
    }

    fn on_batch_redispatched(&self, batch_id: u64, from_pid: u32, to_pid: u32, at: Time) -> Span {
        self.timed(at, |t| {
            t.on_batch_redispatched(batch_id, from_pid, to_pid, at)
        })
    }

    fn on_batch_stolen(&self, batch_id: u64, from_pid: u32, to_pid: u32, at: Time) -> Span {
        self.timed(at, |t| t.on_batch_stolen(batch_id, from_pid, to_pid, at))
    }

    fn on_lane_assigned(&self, batch_id: u64, lane: &str, to_pid: u32, at: Time) -> Span {
        self.timed(at, |t| t.on_lane_assigned(batch_id, lane, to_pid, at))
    }

    fn on_prefetch_resized(&self, target: usize, at: Time) -> Span {
        self.timed(at, |t| t.on_prefetch_resized(target, at))
    }

    fn on_gauge(&self, name: &str, value: f64, at: Time) -> Span {
        self.timed(at, |t| t.on_gauge(name, value, at))
    }

    fn compute_dilation(&self) -> f64 {
        self.inner.compute_dilation()
    }
}
