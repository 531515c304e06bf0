//! Streaming trace sinks: incremental event delivery with per-sink
//! virtual-time overhead accounting.
//!
//! The pre-metrics design buffered a `Vec<TraceRecord>` and analyzed it
//! after the run. Here the data flow is inverted: the engine's
//! [`Tracer`] hooks are fanned out through a [`MultiSink`] to any number
//! of [`TraceSink`]s, each of which consumes events *as they happen* —
//! the log backend keeps recording, the Chrome/viz backends stream into
//! their buffers, and the [`MetricsSink`] folds events into live
//! counters, gauge time-series and latency histograms.
//!
//! Every sink self-accounts the virtual-time overhead it charges to the
//! traced program ([`TraceSink::overhead`]), so Table III-style
//! profiler-overhead comparisons can attribute cost sink by sink, and a
//! run with **no** sinks charges exactly zero (NullTracer parity).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use lotus_dataflow::Tracer;
use lotus_sim::{ReadOutcome, Span, Time};

use super::registry::MetricsRegistry;
use crate::trace::{LotusTrace, SpanKind, TraceRecord};

/// Well-known metric names recorded by [`MetricsSink`].
pub mod names {
    /// Batches fully preprocessed by workers (\[T1\] completions).
    pub const BATCHES_PRODUCED: &str = "batches_produced_total";
    /// Batches consumed by the main process.
    pub const BATCHES_CONSUMED: &str = "batches_consumed_total";
    /// Samples consumed by the main process.
    pub const SAMPLES_CONSUMED: &str = "samples_consumed_total";
    /// Per-item preprocessing operations executed (\[T3\] events).
    pub const OPS: &str = "ops_total";
    /// Per-sample errors injected by the fault plan.
    pub const FAULTS_INJECTED: &str = "faults_injected_total";
    /// Worker deaths observed by the main process.
    pub const WORKER_DEATHS: &str = "worker_deaths_total";
    /// Orphaned batches re-sent to surviving workers.
    pub const REDISPATCHES: &str = "redispatches_total";
    /// Waits satisfied from the out-of-order pinned cache.
    pub const OOO_CACHE_HITS: &str = "ooo_cache_hits_total";
    /// Cumulative main-process wait, nanoseconds.
    pub const MAIN_WAIT_NS: &str = "main_wait_ns_total";

    /// Gauge: live DataLoader workers.
    pub const LIVE_WORKERS: &str = "live_workers";
    /// Gauge: fraction of elapsed virtual time the main process spent
    /// blocked waiting for a batch.
    pub const MAIN_WAIT_FRACTION: &str = "main_wait_fraction";
    /// Gauge: dispatched-but-unreturned batches (fed by the engine).
    pub const IN_FLIGHT: &str = "in_flight_batches";
    /// Gauge: out-of-order batches pinned in the main-process cache
    /// (fed by the engine).
    pub const PINNED_CACHE: &str = "pinned_cache_batches";
    /// Gauge: cumulative consumed batches over virtual time (the
    /// dashboard differentiates this series into throughput).
    pub const BATCHES_CONSUMED_SERIES: &str = "batches_consumed";
    /// Prefix of the per-queue depth gauges fed by the engine
    /// (`queue_depth.data_queue`, `queue_depth.index_queue_0`, …).
    pub const QUEUE_DEPTH_PREFIX: &str = "queue_depth.";

    /// Histogram: per-read storage fetch latency (\[T0\]).
    pub const T0_STORAGE: &str = "t0_storage_read_ns";
    /// Histogram: per-batch fetch latency (\[T1\]).
    pub const T1_FETCH: &str = "t1_batch_fetch_ns";
    /// Histogram: main-process wait latency (\[T2\]).
    pub const T2_WAIT: &str = "t2_batch_wait_ns";
    /// Histogram: per-operation latency (\[T3\]).
    pub const T3_OP: &str = "t3_op_ns";
    /// Histogram: shared-queue residency of delivered batches.
    pub const QUEUE_DELAY: &str = "queue_delay_ns";

    /// Counter: storage reads that required a device seek.
    pub const STORAGE_SEEKS: &str = "storage_seeks_total";

    /// Counter: batches a scheduling policy stole off their round-robin
    /// target worker.
    pub const STEALS: &str = "steals_total";
    /// Counter: batches a lane-aware policy classified into the slow lane.
    pub const LANE_SLOW: &str = "lane_slow_total";
    /// Counter: prefetch-window resizes by an adaptive policy.
    pub const PREFETCH_RESIZES: &str = "prefetch_resizes_total";
    /// Gauge: the adaptive policy's current per-worker prefetch target.
    pub const PREFETCH_TARGET: &str = "prefetch_target";

    /// Counter name for a worker's cumulative busy (fetch) nanoseconds.
    #[must_use]
    pub fn worker_busy(pid: u32) -> String {
        format!("worker_busy_ns.{pid}")
    }

    /// Counter name for reads served by a storage tier
    /// (`storage_reads_total.page-cache`, …).
    #[must_use]
    pub fn storage_reads(tier: &str) -> String {
        format!("storage_reads_total.{tier}")
    }

    /// Counter name for bytes served by a storage tier
    /// (`storage_bytes_total.object-store`, …).
    #[must_use]
    pub fn storage_bytes(tier: &str) -> String {
        format!("storage_bytes_total.{tier}")
    }

    /// Gauge name for a backing device's observed queue depth
    /// (`storage_queue_depth.local-disk`, …).
    #[must_use]
    pub fn storage_queue_depth(tier: &str) -> String {
        format!("storage_queue_depth.{tier}")
    }
}

/// One data-flow event, as delivered incrementally to every sink.
///
/// This is the streaming union of the [`Tracer`] hooks: span completions
/// (\[T1\]/\[T2\]/\[T3\] and consumption), the zero-duration fault marks,
/// and the engine's gauge feed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent<'a> {
    /// One preprocessing operation finished on a worker (\[T3\]).
    Op {
        /// Emitting worker pid.
        pid: u32,
        /// Batch the item belongs to.
        batch_id: u64,
        /// Operation name.
        name: &'a str,
        /// Span start.
        start: Time,
        /// Span duration.
        dur: Span,
    },
    /// A dataset storage read completed on a worker (\[T0\]).
    StorageRead {
        /// Emitting worker pid.
        pid: u32,
        /// Batch being fetched.
        batch_id: u64,
        /// Read start (request issue).
        start: Time,
        /// The storage hierarchy's full account of the read (tier, span,
        /// bytes, seek, observed queue depth).
        read: ReadOutcome,
    },
    /// A worker finished fetching a whole batch (\[T1\]).
    BatchPreprocessed {
        /// Emitting worker pid.
        pid: u32,
        /// Batch id.
        batch_id: u64,
        /// Span start.
        start: Time,
        /// Span duration.
        dur: Span,
    },
    /// The main process finished waiting for a batch (\[T2\]).
    BatchWait {
        /// Main-process pid.
        pid: u32,
        /// Batch id.
        batch_id: u64,
        /// Span start.
        start: Time,
        /// Span duration.
        dur: Span,
        /// Served from the pinned out-of-order cache.
        out_of_order: bool,
        /// Shared-queue residency of the delivered batch.
        queue_delay: Span,
    },
    /// The main process consumed a batch.
    BatchConsumed {
        /// Main-process pid.
        pid: u32,
        /// Batch id.
        batch_id: u64,
        /// Span start.
        start: Time,
        /// Span duration.
        dur: Span,
        /// Samples in the batch.
        batch_len: usize,
    },
    /// A fault plan injected an error into sample fetching.
    FaultInjected {
        /// Emitting worker pid.
        pid: u32,
        /// Batch being fetched.
        batch_id: u64,
        /// Operation the injected error reports.
        op: &'a str,
        /// Injection instant.
        at: Time,
    },
    /// The main process observed a worker's death.
    WorkerDied {
        /// The dead worker's pid.
        pid: u32,
        /// Observation instant.
        at: Time,
    },
    /// An orphaned batch was re-sent to a survivor.
    BatchRedispatched {
        /// Batch id.
        batch_id: u64,
        /// The dead owner's pid.
        from_pid: u32,
        /// The receiving survivor's pid.
        to_pid: u32,
        /// Redispatch instant.
        at: Time,
    },
    /// A scheduling policy stole a batch off its round-robin target.
    BatchStolen {
        /// Batch id.
        batch_id: u64,
        /// The round-robin target the batch was taken from.
        from_pid: u32,
        /// The worker that received it instead.
        to_pid: u32,
        /// Steal instant.
        at: Time,
    },
    /// A lane-aware policy classified a batch into a fast/slow lane.
    LaneAssigned {
        /// Batch id.
        batch_id: u64,
        /// Lane name (`"fast"` or `"slow"`).
        lane: &'a str,
        /// The worker that received the batch.
        to_pid: u32,
        /// Assignment instant.
        at: Time,
    },
    /// An adaptive policy resized the per-worker prefetch window.
    PrefetchResized {
        /// New per-worker prefetch target.
        target: usize,
        /// Resize instant.
        at: Time,
    },
    /// A named scalar sampled by the engine (queue depths, in-flight
    /// inventory).
    Gauge {
        /// Gauge name.
        name: &'a str,
        /// Sampled value.
        value: f64,
        /// Sampling instant.
        at: Time,
    },
}

impl TraceEvent<'_> {
    /// Converts a span/instant event to the log-record form; gauge
    /// samples have no record representation and return `None`.
    #[must_use]
    pub fn to_record(&self) -> Option<TraceRecord> {
        let (kind, pid, batch_id, start, duration, out_of_order, queue_delay) = match *self {
            TraceEvent::Op {
                pid,
                batch_id,
                name,
                start,
                dur,
            } => (
                SpanKind::Op(name.to_string()),
                pid,
                batch_id,
                start,
                dur,
                false,
                Span::ZERO,
            ),
            TraceEvent::StorageRead {
                pid,
                batch_id,
                start,
                read,
            } => (
                SpanKind::StorageRead(read.tier.as_str().to_string()),
                pid,
                batch_id,
                start,
                read.span,
                false,
                Span::ZERO,
            ),
            TraceEvent::BatchPreprocessed {
                pid,
                batch_id,
                start,
                dur,
            } => (
                SpanKind::BatchPreprocessed,
                pid,
                batch_id,
                start,
                dur,
                false,
                Span::ZERO,
            ),
            TraceEvent::BatchWait {
                pid,
                batch_id,
                start,
                dur,
                out_of_order,
                queue_delay,
            } => (
                SpanKind::BatchWait,
                pid,
                batch_id,
                start,
                dur,
                out_of_order,
                queue_delay,
            ),
            TraceEvent::BatchConsumed {
                pid,
                batch_id,
                start,
                dur,
                ..
            } => (
                SpanKind::BatchConsumed,
                pid,
                batch_id,
                start,
                dur,
                false,
                Span::ZERO,
            ),
            TraceEvent::FaultInjected {
                pid,
                batch_id,
                op,
                at,
            } => (
                SpanKind::FaultInjected(op.to_string()),
                pid,
                batch_id,
                at,
                Span::ZERO,
                false,
                Span::ZERO,
            ),
            TraceEvent::WorkerDied { pid, at } => (
                SpanKind::WorkerDied,
                pid,
                0,
                at,
                Span::ZERO,
                false,
                Span::ZERO,
            ),
            TraceEvent::BatchRedispatched {
                batch_id,
                to_pid,
                at,
                ..
            } => (
                SpanKind::BatchRedispatched,
                to_pid,
                batch_id,
                at,
                Span::ZERO,
                false,
                Span::ZERO,
            ),
            TraceEvent::BatchStolen {
                batch_id,
                to_pid,
                at,
                ..
            } => (
                SpanKind::BatchStolen,
                to_pid,
                batch_id,
                at,
                Span::ZERO,
                false,
                Span::ZERO,
            ),
            TraceEvent::LaneAssigned {
                batch_id,
                lane,
                to_pid,
                at,
            } => (
                SpanKind::LaneAssigned(lane.to_string()),
                to_pid,
                batch_id,
                at,
                Span::ZERO,
                false,
                Span::ZERO,
            ),
            // The resize target rides the batch-id slot (the label
            // notation is `SPrefetchResized_{target}`); the emitter is
            // always the main process.
            TraceEvent::PrefetchResized { target, at } => (
                SpanKind::PrefetchResized,
                4242,
                target as u64,
                at,
                Span::ZERO,
                false,
                Span::ZERO,
            ),
            TraceEvent::Gauge { .. } => return None,
        };
        Some(TraceRecord {
            kind,
            pid,
            batch_id,
            start,
            duration,
            out_of_order,
            queue_delay,
        })
    }
}

/// An incremental consumer of data-flow events.
///
/// `on_event` returns the virtual-time overhead the sink charges the
/// traced program for this event; implementations must also accumulate
/// everything they return so [`TraceSink::overhead`] reports their total
/// self-accounted cost (how Table III attributes overhead per backend).
pub trait TraceSink: Send + Sync {
    /// Stable sink name for overhead reports.
    fn name(&self) -> &str;

    /// Consumes one event, returning the overhead charged for it.
    fn on_event(&self, event: &TraceEvent<'_>) -> Span;

    /// Total virtual-time overhead this sink has charged so far.
    fn overhead(&self) -> Span;
}

/// The log backend is a sink: every span/instant event is appended to the
/// LotusTrace record log exactly as the direct [`Tracer`] wiring would,
/// and gauge samples are ignored (the paper's log format has no gauge
/// rows). Overhead is the tracer's own per-record charge.
impl TraceSink for LotusTrace {
    fn name(&self) -> &str {
        "lotus-trace"
    }

    fn on_event(&self, event: &TraceEvent<'_>) -> Span {
        match *event {
            TraceEvent::Op {
                pid,
                batch_id,
                name,
                start,
                dur,
            } => self.on_op(pid, batch_id, name, start, dur),
            TraceEvent::StorageRead {
                pid,
                batch_id,
                start,
                ref read,
            } => self.on_storage_read(pid, batch_id, start, read),
            TraceEvent::BatchPreprocessed {
                pid,
                batch_id,
                start,
                dur,
            } => self.on_batch_preprocessed(pid, batch_id, start, dur),
            TraceEvent::BatchWait {
                pid,
                batch_id,
                start,
                dur,
                out_of_order,
                queue_delay,
            } => self.on_batch_wait(pid, batch_id, start, dur, out_of_order, queue_delay),
            TraceEvent::BatchConsumed {
                pid,
                batch_id,
                start,
                dur,
                batch_len,
            } => self.on_batch_consumed(pid, batch_id, start, dur, batch_len),
            TraceEvent::FaultInjected {
                pid,
                batch_id,
                op,
                at,
            } => self.on_fault_injected(pid, batch_id, op, at),
            TraceEvent::WorkerDied { pid, at } => self.on_worker_died(pid, at),
            TraceEvent::BatchRedispatched {
                batch_id,
                from_pid,
                to_pid,
                at,
            } => self.on_batch_redispatched(batch_id, from_pid, to_pid, at),
            TraceEvent::BatchStolen {
                batch_id,
                from_pid,
                to_pid,
                at,
            } => self.on_batch_stolen(batch_id, from_pid, to_pid, at),
            TraceEvent::LaneAssigned {
                batch_id,
                lane,
                to_pid,
                at,
            } => self.on_lane_assigned(batch_id, lane, to_pid, at),
            TraceEvent::PrefetchResized { target, at } => self.on_prefetch_resized(target, at),
            TraceEvent::Gauge { .. } => Span::ZERO,
        }
    }

    fn overhead(&self) -> Span {
        self.charged_overhead()
    }
}

/// Streams events into the live metrics registry: counters, gauge
/// time-series (sampled in virtual time) and latency histograms.
#[derive(Debug)]
pub struct MetricsSink {
    registry: Arc<MetricsRegistry>,
    per_event_overhead: Span,
    charged_ns: AtomicU64,
    state: Mutex<MetricsState>,
}

#[derive(Debug)]
struct MetricsState {
    live_workers: usize,
    wait_ns_total: u64,
}

impl MetricsSink {
    /// Virtual-time cost charged per consumed event: two atomic bumps
    /// and a bucket increment — cheaper than formatting a log line.
    pub const DEFAULT_PER_EVENT_OVERHEAD: Span = Span::from_nanos(250);

    /// Creates a sink feeding `registry`, for a job with `workers`
    /// DataLoader workers (seeds the `live_workers` gauge).
    #[must_use]
    pub fn new(registry: Arc<MetricsRegistry>, workers: usize) -> MetricsSink {
        MetricsSink::with_overhead(registry, workers, MetricsSink::DEFAULT_PER_EVENT_OVERHEAD)
    }

    /// Creates a sink with an explicit per-event overhead (zero makes the
    /// metrics layer free, for overhead-ablation runs).
    #[must_use]
    pub fn with_overhead(
        registry: Arc<MetricsRegistry>,
        workers: usize,
        per_event_overhead: Span,
    ) -> MetricsSink {
        registry.set_gauge(names::LIVE_WORKERS, Time::ZERO, workers as f64);
        MetricsSink {
            registry,
            per_event_overhead,
            charged_ns: AtomicU64::new(0),
            state: Mutex::new(MetricsState {
                live_workers: workers,
                wait_ns_total: 0,
            }),
        }
    }

    /// The registry this sink feeds.
    #[must_use]
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    fn charge(&self) -> Span {
        self.charged_ns
            .fetch_add(self.per_event_overhead.as_nanos(), Ordering::Relaxed);
        self.per_event_overhead
    }
}

impl TraceSink for MetricsSink {
    fn name(&self) -> &str {
        "metrics"
    }

    fn on_event(&self, event: &TraceEvent<'_>) -> Span {
        // One registry lock per event, however many metrics it updates.
        let mut r = self.registry.lock();
        match *event {
            TraceEvent::Op { dur, .. } => {
                r.inc_counter(names::OPS, 1);
                r.record_latency(names::T3_OP, dur);
            }
            TraceEvent::StorageRead {
                start, ref read, ..
            } => {
                let tier = read.tier.as_str();
                r.inc_counter(&names::storage_reads(tier), 1);
                r.inc_counter(&names::storage_bytes(tier), read.bytes);
                if read.seek {
                    r.inc_counter(names::STORAGE_SEEKS, 1);
                }
                r.record_latency(names::T0_STORAGE, read.span);
                r.set_gauge(
                    &names::storage_queue_depth(tier),
                    start + read.span,
                    f64::from(read.queue_depth),
                );
            }
            TraceEvent::BatchPreprocessed { pid, dur, .. } => {
                r.inc_counter(names::BATCHES_PRODUCED, 1);
                r.inc_counter(&names::worker_busy(pid), dur.as_nanos());
                r.record_latency(names::T1_FETCH, dur);
            }
            TraceEvent::BatchWait {
                start,
                dur,
                out_of_order,
                queue_delay,
                ..
            } => {
                r.record_latency(names::T2_WAIT, dur);
                r.record_latency(names::QUEUE_DELAY, queue_delay);
                r.inc_counter(names::MAIN_WAIT_NS, dur.as_nanos());
                if out_of_order {
                    r.inc_counter(names::OOO_CACHE_HITS, 1);
                }
                let mut state = self.state.lock().expect("metrics sink poisoned");
                state.wait_ns_total += dur.as_nanos();
                let now = start + dur;
                // A zero-duration wait completing at t=0 would divide by
                // zero; always publish a finite fraction in [0, 1] so the
                // dashboard never renders NaN.
                let fraction = if now > Time::ZERO {
                    (state.wait_ns_total as f64 / now.as_nanos() as f64).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                r.set_gauge(names::MAIN_WAIT_FRACTION, now, fraction);
            }
            TraceEvent::BatchConsumed {
                start,
                dur,
                batch_len,
                ..
            } => {
                r.inc_counter(names::BATCHES_CONSUMED, 1);
                r.inc_counter(names::SAMPLES_CONSUMED, batch_len as u64);
                let consumed = r.counter(names::BATCHES_CONSUMED) as f64;
                r.set_gauge(names::BATCHES_CONSUMED_SERIES, start + dur, consumed);
            }
            TraceEvent::FaultInjected { .. } => r.inc_counter(names::FAULTS_INJECTED, 1),
            TraceEvent::WorkerDied { at, .. } => {
                r.inc_counter(names::WORKER_DEATHS, 1);
                let mut state = self.state.lock().expect("metrics sink poisoned");
                state.live_workers = state.live_workers.saturating_sub(1);
                r.set_gauge(names::LIVE_WORKERS, at, state.live_workers as f64);
            }
            TraceEvent::BatchRedispatched { .. } => r.inc_counter(names::REDISPATCHES, 1),
            TraceEvent::BatchStolen { .. } => r.inc_counter(names::STEALS, 1),
            TraceEvent::LaneAssigned { lane, .. } => {
                if lane == "slow" {
                    r.inc_counter(names::LANE_SLOW, 1);
                }
            }
            TraceEvent::PrefetchResized { target, at } => {
                r.inc_counter(names::PREFETCH_RESIZES, 1);
                r.set_gauge(names::PREFETCH_TARGET, at, target as f64);
            }
            TraceEvent::Gauge { name, value, at } => {
                // Engine-internal samples piggyback on queue transitions
                // the engine already paid for; only span/instant events
                // carry the per-event fold cost.
                r.set_gauge(name, at, value);
                return Span::ZERO;
            }
        }
        self.charge()
    }

    fn overhead(&self) -> Span {
        Span::from_nanos(self.charged_ns.load(Ordering::Relaxed))
    }
}

/// A record-buffering sink core shared by the Chrome and viz backends.
#[derive(Debug, Default)]
struct RecordBuffer {
    records: Mutex<Vec<TraceRecord>>,
    charged_ns: AtomicU64,
}

impl RecordBuffer {
    fn consume(&self, event: &TraceEvent<'_>, per_event: Span) -> Span {
        let Some(record) = event.to_record() else {
            return Span::ZERO; // gauges have no span representation
        };
        self.records.lock().expect("sink poisoned").push(record);
        self.charged_ns
            .fetch_add(per_event.as_nanos(), Ordering::Relaxed);
        per_event
    }

    fn records(&self) -> Vec<TraceRecord> {
        self.records.lock().expect("sink poisoned").clone()
    }

    fn overhead(&self) -> Span {
        Span::from_nanos(self.charged_ns.load(Ordering::Relaxed))
    }
}

/// Streams events into a buffer for Chrome-trace export
/// ([`crate::trace::chrome::to_chrome_trace`]). Charges a heavier
/// per-event cost than the plain log: each event is held as a structured
/// JSON candidate, the torch-profiler failure mode of Table III.
#[derive(Debug, Default)]
pub struct ChromeSink {
    buffer: RecordBuffer,
}

impl ChromeSink {
    /// Per-event virtual-time cost of structured-trace collection.
    pub const PER_EVENT_OVERHEAD: Span = Span::from_nanos(2_500);

    /// Creates an empty Chrome sink.
    #[must_use]
    pub fn new() -> ChromeSink {
        ChromeSink::default()
    }

    /// The records collected so far.
    #[must_use]
    pub fn records(&self) -> Vec<TraceRecord> {
        self.buffer.records()
    }

    /// Exports the collected stream as a Chrome Trace Viewer document.
    #[must_use]
    pub fn to_chrome_trace(
        &self,
        options: crate::trace::chrome::ChromeTraceOptions,
    ) -> serde_json::Value {
        crate::trace::chrome::to_chrome_trace(&self.records(), options)
    }
}

impl TraceSink for ChromeSink {
    fn name(&self) -> &str {
        "chrome"
    }

    fn on_event(&self, event: &TraceEvent<'_>) -> Span {
        self.buffer.consume(event, ChromeSink::PER_EVENT_OVERHEAD)
    }

    fn overhead(&self) -> Span {
        self.buffer.overhead()
    }
}

/// Streams events into a buffer for ASCII-timeline rendering
/// ([`crate::trace::viz::render_timeline`]).
#[derive(Debug, Default)]
pub struct VizSink {
    buffer: RecordBuffer,
}

impl VizSink {
    /// Per-event virtual-time cost of timeline collection.
    pub const PER_EVENT_OVERHEAD: Span = Span::from_nanos(500);

    /// Creates an empty viz sink.
    #[must_use]
    pub fn new() -> VizSink {
        VizSink::default()
    }

    /// The records collected so far.
    #[must_use]
    pub fn records(&self) -> Vec<TraceRecord> {
        self.buffer.records()
    }

    /// Renders the collected stream as an ASCII timeline.
    #[must_use]
    pub fn render(&self, options: crate::trace::viz::TimelineOptions) -> String {
        crate::trace::viz::render_timeline(&self.records(), options)
    }
}

impl TraceSink for VizSink {
    fn name(&self) -> &str {
        "viz"
    }

    fn on_event(&self, event: &TraceEvent<'_>) -> Span {
        self.buffer.consume(event, VizSink::PER_EVENT_OVERHEAD)
    }

    fn overhead(&self) -> Span {
        self.buffer.overhead()
    }
}

/// Fan-out [`Tracer`]: converts every engine hook into a [`TraceEvent`]
/// and delivers it to each registered sink in registration order,
/// charging the traced program the *sum* of the sinks' overheads.
///
/// An empty `MultiSink` is the no-sink configuration and charges exactly
/// zero everywhere — identical to [`lotus_dataflow::NullTracer`].
#[derive(Default)]
pub struct MultiSink {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl MultiSink {
    /// Creates a sink-less fan-out (charges zero, captures nothing).
    #[must_use]
    pub fn new() -> MultiSink {
        MultiSink::default()
    }

    /// Adds a sink (builder style).
    #[must_use]
    pub fn with(mut self, sink: Arc<dyn TraceSink>) -> MultiSink {
        self.sinks.push(sink);
        self
    }

    /// Adds a sink.
    pub fn push(&mut self, sink: Arc<dyn TraceSink>) {
        self.sinks.push(sink);
    }

    /// The registered sinks, in delivery order.
    #[must_use]
    pub fn sinks(&self) -> &[Arc<dyn TraceSink>] {
        &self.sinks
    }

    /// Per-sink self-accounted overhead totals, in delivery order.
    #[must_use]
    pub fn overheads(&self) -> Vec<(String, Span)> {
        self.sinks
            .iter()
            .map(|s| (s.name().to_string(), s.overhead()))
            .collect()
    }

    fn fan_out(&self, event: &TraceEvent<'_>) -> Span {
        self.sinks.iter().map(|s| s.on_event(event)).sum()
    }
}

impl std::fmt::Debug for MultiSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiSink")
            .field(
                "sinks",
                &self.sinks.iter().map(|s| s.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Tracer for MultiSink {
    fn on_op(&self, pid: u32, batch_id: u64, name: &str, start: Time, dur: Span) -> Span {
        self.fan_out(&TraceEvent::Op {
            pid,
            batch_id,
            name,
            start,
            dur,
        })
    }

    fn on_storage_read(&self, pid: u32, batch_id: u64, start: Time, read: &ReadOutcome) -> Span {
        self.fan_out(&TraceEvent::StorageRead {
            pid,
            batch_id,
            start,
            read: *read,
        })
    }

    fn on_batch_preprocessed(&self, pid: u32, batch_id: u64, start: Time, dur: Span) -> Span {
        self.fan_out(&TraceEvent::BatchPreprocessed {
            pid,
            batch_id,
            start,
            dur,
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
        self.fan_out(&TraceEvent::BatchWait {
            pid,
            batch_id,
            start,
            dur,
            out_of_order,
            queue_delay,
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
        self.fan_out(&TraceEvent::BatchConsumed {
            pid,
            batch_id,
            start,
            dur,
            batch_len,
        })
    }

    fn on_fault_injected(&self, pid: u32, batch_id: u64, op: &str, at: Time) -> Span {
        self.fan_out(&TraceEvent::FaultInjected {
            pid,
            batch_id,
            op,
            at,
        })
    }

    fn on_worker_died(&self, pid: u32, at: Time) -> Span {
        self.fan_out(&TraceEvent::WorkerDied { pid, at })
    }

    fn on_batch_redispatched(&self, batch_id: u64, from_pid: u32, to_pid: u32, at: Time) -> Span {
        self.fan_out(&TraceEvent::BatchRedispatched {
            batch_id,
            from_pid,
            to_pid,
            at,
        })
    }

    fn on_batch_stolen(&self, batch_id: u64, from_pid: u32, to_pid: u32, at: Time) -> Span {
        self.fan_out(&TraceEvent::BatchStolen {
            batch_id,
            from_pid,
            to_pid,
            at,
        })
    }

    fn on_lane_assigned(&self, batch_id: u64, lane: &str, to_pid: u32, at: Time) -> Span {
        self.fan_out(&TraceEvent::LaneAssigned {
            batch_id,
            lane,
            to_pid,
            at,
        })
    }

    fn on_prefetch_resized(&self, target: usize, at: Time) -> Span {
        self.fan_out(&TraceEvent::PrefetchResized { target, at })
    }

    fn on_gauge(&self, name: &str, value: f64, at: Time) -> Span {
        self.fan_out(&TraceEvent::Gauge { name, value, at })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(sink: &dyn TraceSink) -> Span {
        let mut total = Span::ZERO;
        total += sink.on_event(&TraceEvent::Op {
            pid: 4243,
            batch_id: 0,
            name: "Loader",
            start: Time::ZERO,
            dur: Span::from_millis(2),
        });
        total += sink.on_event(&TraceEvent::BatchPreprocessed {
            pid: 4243,
            batch_id: 0,
            start: Time::ZERO,
            dur: Span::from_millis(5),
        });
        total += sink.on_event(&TraceEvent::BatchWait {
            pid: 4242,
            batch_id: 0,
            start: Time::from_nanos(1_000),
            dur: Span::from_millis(1),
            out_of_order: false,
            queue_delay: Span::from_micros(40),
        });
        total += sink.on_event(&TraceEvent::BatchConsumed {
            pid: 4242,
            batch_id: 0,
            start: Time::from_nanos(2_000_000),
            dur: Span::from_millis(1),
            batch_len: 8,
        });
        total += sink.on_event(&TraceEvent::Gauge {
            name: "queue_depth.data_queue",
            value: 2.0,
            at: Time::from_nanos(500),
        });
        total
    }

    #[test]
    fn lotus_trace_sink_matches_direct_tracer_wiring() {
        let direct = LotusTrace::new();
        let _ = direct.on_op(4243, 0, "Loader", Time::ZERO, Span::from_millis(2));
        let _ = direct.on_batch_preprocessed(4243, 0, Time::ZERO, Span::from_millis(5));
        let _ = direct.on_batch_wait(
            4242,
            0,
            Time::from_nanos(1_000),
            Span::from_millis(1),
            false,
            Span::from_micros(40),
        );
        let _ = direct.on_batch_consumed(
            4242,
            0,
            Time::from_nanos(2_000_000),
            Span::from_millis(1),
            8,
        );

        let streamed = LotusTrace::new();
        let charged = feed(&streamed);
        assert_eq!(streamed.records(), direct.records());
        // The gauge sample costs nothing and records nothing.
        assert_eq!(charged, streamed.charged_overhead());
        assert_eq!(charged, TraceSink::overhead(&streamed));
    }

    #[test]
    fn metrics_sink_folds_events_into_the_registry() {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = MetricsSink::new(Arc::clone(&registry), 4);
        let charged = feed(&sink);
        assert_eq!(registry.counter(names::OPS), 1);
        assert_eq!(registry.counter(names::BATCHES_PRODUCED), 1);
        assert_eq!(registry.counter(names::BATCHES_CONSUMED), 1);
        assert_eq!(registry.counter(names::SAMPLES_CONSUMED), 8);
        assert_eq!(
            registry.counter(&names::worker_busy(4243)),
            Span::from_millis(5).as_nanos()
        );
        assert_eq!(registry.latency_summary_ms(names::T1_FETCH).count, 1);
        assert_eq!(registry.latency_summary_ms(names::T2_WAIT).count, 1);
        assert_eq!(
            registry.gauge("queue_depth.data_queue").unwrap().last(),
            Some(2.0)
        );
        assert_eq!(
            registry.gauge(names::LIVE_WORKERS).unwrap().last(),
            Some(4.0)
        );
        // 4 span events at the default per-event cost (the gauge sample
        // is free), all self-accounted.
        assert_eq!(charged, MetricsSink::DEFAULT_PER_EVENT_OVERHEAD * 4);
        assert_eq!(sink.overhead(), charged);
    }

    #[test]
    fn storage_reads_fold_into_per_tier_metrics_and_records() {
        let event = TraceEvent::StorageRead {
            pid: 4243,
            batch_id: 2,
            start: Time::from_nanos(1_000),
            read: ReadOutcome {
                tier: lotus_sim::StorageTier::LocalDisk,
                span: Span::from_micros(700),
                bytes: 131_072,
                seek: true,
                queue_depth: 3,
            },
        };

        let registry = Arc::new(MetricsRegistry::new());
        let sink = MetricsSink::new(Arc::clone(&registry), 2);
        let _ = sink.on_event(&event);
        assert_eq!(registry.counter(&names::storage_reads("local-disk")), 1);
        assert_eq!(
            registry.counter(&names::storage_bytes("local-disk")),
            131_072
        );
        assert_eq!(registry.counter(names::STORAGE_SEEKS), 1);
        assert_eq!(registry.latency_summary_ms(names::T0_STORAGE).count, 1);
        assert_eq!(
            registry
                .gauge(&names::storage_queue_depth("local-disk"))
                .unwrap()
                .last(),
            Some(3.0)
        );

        let record = event.to_record().unwrap();
        assert_eq!(record.kind, SpanKind::StorageRead("local-disk".into()));
        assert_eq!(record.duration, Span::from_micros(700));
        assert_eq!(record.batch_id, 2);

        // The fan-out delivers the hook to log sinks too.
        let trace = Arc::new(LotusTrace::new());
        let multi = MultiSink::new().with(Arc::clone(&trace) as Arc<dyn TraceSink>);
        let read = ReadOutcome {
            tier: lotus_sim::StorageTier::PageCache,
            span: Span::from_micros(2),
            bytes: 4_096,
            seek: false,
            queue_depth: 0,
        };
        let _ = multi.on_storage_read(4243, 0, Time::ZERO, &read);
        assert_eq!(
            trace.records()[0].kind,
            SpanKind::StorageRead("page-cache".into())
        );
    }

    #[test]
    fn worker_death_decrements_live_workers_and_counts() {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = MetricsSink::new(Arc::clone(&registry), 2);
        let _ = sink.on_event(&TraceEvent::WorkerDied {
            pid: 4244,
            at: Time::from_nanos(50),
        });
        let _ = sink.on_event(&TraceEvent::FaultInjected {
            pid: 4243,
            batch_id: 3,
            op: "Decode",
            at: Time::from_nanos(60),
        });
        let _ = sink.on_event(&TraceEvent::BatchRedispatched {
            batch_id: 3,
            from_pid: 4244,
            to_pid: 4243,
            at: Time::from_nanos(70),
        });
        assert_eq!(registry.counter(names::WORKER_DEATHS), 1);
        assert_eq!(registry.counter(names::FAULTS_INJECTED), 1);
        assert_eq!(registry.counter(names::REDISPATCHES), 1);
        let live = registry.gauge(names::LIVE_WORKERS).unwrap();
        assert_eq!(
            live.samples(),
            &[(Time::ZERO, 2.0), (Time::from_nanos(50), 1.0)]
        );
    }

    #[test]
    fn chrome_and_viz_sinks_buffer_spans_but_not_gauges() {
        let chrome = ChromeSink::new();
        let viz = VizSink::new();
        let chrome_charge = feed(&chrome);
        let viz_charge = feed(&viz);
        // 4 span events, 1 gauge: the gauge is dropped and costs nothing.
        assert_eq!(chrome.records().len(), 4);
        assert_eq!(viz.records().len(), 4);
        assert_eq!(chrome_charge, ChromeSink::PER_EVENT_OVERHEAD * 4);
        assert_eq!(viz_charge, VizSink::PER_EVENT_OVERHEAD * 4);
        assert_eq!(chrome.overhead(), chrome_charge);
        assert_eq!(viz.overhead(), viz_charge);
        let doc = chrome.to_chrome_trace(crate::trace::chrome::ChromeTraceOptions { coarse: true });
        assert!(doc["traceEvents"].as_array().is_some());
        let timeline = viz.render(crate::trace::viz::TimelineOptions::default());
        assert!(timeline.contains("main 4242"));
    }

    #[test]
    fn multi_sink_sums_overheads_and_empty_is_free() {
        let empty = MultiSink::new();
        assert_eq!(
            empty.on_batch_preprocessed(1, 0, Time::ZERO, Span::from_millis(1)),
            Span::ZERO
        );
        assert_eq!(
            empty.on_gauge("queue_depth.data_queue", 1.0, Time::ZERO),
            Span::ZERO
        );
        assert!(empty.overheads().is_empty());

        let registry = Arc::new(MetricsRegistry::new());
        let trace = Arc::new(LotusTrace::new());
        let metrics = Arc::new(MetricsSink::new(Arc::clone(&registry), 1));
        let multi = MultiSink::new()
            .with(Arc::clone(&trace) as Arc<dyn TraceSink>)
            .with(Arc::clone(&metrics) as Arc<dyn TraceSink>);
        let oh = multi.on_batch_preprocessed(4243, 0, Time::ZERO, Span::from_millis(1));
        assert_eq!(
            oh,
            trace.charged_overhead() + metrics.overhead(),
            "fan-out charges the sum of sink overheads"
        );
        assert_eq!(trace.len(), 1);
        assert_eq!(registry.counter(names::BATCHES_PRODUCED), 1);
        let overheads = multi.overheads();
        assert_eq!(overheads[0].0, "lotus-trace");
        assert_eq!(overheads[1].0, "metrics");
    }

    #[test]
    fn scheduling_events_fold_into_counters_and_records() {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = MetricsSink::new(Arc::clone(&registry), 2);
        let _ = sink.on_event(&TraceEvent::BatchStolen {
            batch_id: 7,
            from_pid: 4243,
            to_pid: 4244,
            at: Time::from_nanos(10),
        });
        let _ = sink.on_event(&TraceEvent::LaneAssigned {
            batch_id: 7,
            lane: "slow",
            to_pid: 4244,
            at: Time::from_nanos(10),
        });
        let _ = sink.on_event(&TraceEvent::LaneAssigned {
            batch_id: 8,
            lane: "fast",
            to_pid: 4243,
            at: Time::from_nanos(20),
        });
        let _ = sink.on_event(&TraceEvent::PrefetchResized {
            target: 3,
            at: Time::from_nanos(30),
        });
        assert_eq!(registry.counter(names::STEALS), 1);
        assert_eq!(
            registry.counter(names::LANE_SLOW),
            1,
            "fast lane not counted"
        );
        assert_eq!(registry.counter(names::PREFETCH_RESIZES), 1);
        assert_eq!(
            registry.gauge(names::PREFETCH_TARGET).unwrap().last(),
            Some(3.0)
        );

        let stolen = TraceEvent::BatchStolen {
            batch_id: 7,
            from_pid: 4243,
            to_pid: 4244,
            at: Time::from_nanos(10),
        }
        .to_record()
        .unwrap();
        assert_eq!(stolen.kind, SpanKind::BatchStolen);
        assert_eq!(stolen.pid, 4244, "steal records the receiving worker");
        let lane = TraceEvent::LaneAssigned {
            batch_id: 7,
            lane: "slow",
            to_pid: 4244,
            at: Time::from_nanos(10),
        }
        .to_record()
        .unwrap();
        assert_eq!(lane.kind, SpanKind::LaneAssigned("slow".into()));
        let resized = TraceEvent::PrefetchResized {
            target: 3,
            at: Time::from_nanos(30),
        }
        .to_record()
        .unwrap();
        assert_eq!(resized.kind, SpanKind::PrefetchResized);
        assert_eq!(resized.batch_id, 3, "target rides the batch-id slot");
        assert_eq!(resized.pid, 4242, "resize is a main-process event");
    }

    #[test]
    fn wait_fraction_gauge_is_always_finite_and_clamped() {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = MetricsSink::new(Arc::clone(&registry), 1);
        // A zero-duration wait completing at t=0 must not divide by zero.
        let _ = sink.on_event(&TraceEvent::BatchWait {
            pid: 4242,
            batch_id: 0,
            start: Time::ZERO,
            dur: Span::ZERO,
            out_of_order: false,
            queue_delay: Span::ZERO,
        });
        assert_eq!(
            registry.gauge(names::MAIN_WAIT_FRACTION).unwrap().last(),
            Some(0.0)
        );
        // Waiting for the whole elapsed window pins the fraction at 1.
        let _ = sink.on_event(&TraceEvent::BatchWait {
            pid: 4242,
            batch_id: 1,
            start: Time::ZERO,
            dur: Span::from_millis(1),
            out_of_order: false,
            queue_delay: Span::ZERO,
        });
        let samples = registry.gauge(names::MAIN_WAIT_FRACTION).unwrap();
        let last = samples.last().unwrap();
        assert!(last.is_finite());
        assert!((0.0..=1.0).contains(&last));
        assert_eq!(last, 1.0);
    }

    #[test]
    fn instant_events_round_trip_to_records() {
        let e = TraceEvent::BatchRedispatched {
            batch_id: 9,
            from_pid: 4244,
            to_pid: 4245,
            at: Time::from_nanos(30),
        };
        let r = e.to_record().unwrap();
        assert_eq!(r.kind, SpanKind::BatchRedispatched);
        assert_eq!(r.pid, 4245, "redispatch records the receiving worker");
        assert!(TraceEvent::Gauge {
            name: "x",
            value: 1.0,
            at: Time::ZERO
        }
        .to_record()
        .is_none());
    }
}
