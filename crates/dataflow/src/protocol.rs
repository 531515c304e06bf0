//! The DataLoader protocol (§II-B, §V-C of the paper), written once for
//! both execution backends.
//!
//! The main process pre-fills per-worker index queues, then consumes
//! batches **in order** from one shared data queue: an early arrival is
//! pinned and parked in a reorder buffer, each returned batch refills the
//! index queues, a timed-out wait checks worker liveness and re-sends a
//! dead worker's batches, and a worker's exception travels in-band.
//! [`run_main_loop`] is that loop. [`Dispatcher`] decides placement
//! through the [`SchedulingPolicy`] without doing any I/O. Both engines'
//! workers fetch through a [`Fetcher`].
//!
//! The loop is generic over a [`Driver`], which supplies what differs
//! between substrates: the clock, the queues, death detection, and what
//! receiving and consuming a batch cost. The simulated engine's driver
//! (`loader.rs`) turns tracer overhead and framework kernels into virtual
//! time; the native backend's (`native.rs`) reads a wall clock, rechecks
//! liveness under a lock and records synchronization events for
//! `lotus audit`.

use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use lotus_data::mix_seed;
use lotus_sim::{FaultPlan, Span, Time};
use lotus_transforms::{Batch, Collate, PipelineError, TransformCtx, TransformObserver};
use lotus_uarch::{CpuThread, HwProfiler, Machine};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::audit::SyncOp;
use crate::config::DataLoaderConfig;
use crate::dataset::{BatchSampler, Dataset};
use crate::error::JobError;
use crate::loader::{JobReport, LoaderMutation, TrainingJob};
use crate::policy::{BatchRef, DispatchContext, Placement, Refill, SchedulingPolicy};
use crate::tracer::Tracer;

/// Simulated OS pid of the main process (the paper logs real pids via
/// `psutil`; we use stable synthetic ones).
pub const MAIN_OS_PID: u32 = 4242;

/// Simulated OS pid of DataLoader worker `w`.
#[must_use]
pub fn worker_os_pid(worker: usize) -> u32 {
    MAIN_OS_PID + 1 + worker as u32
}

/// Name of the gauge sampling worker `w`'s index-queue depth. Built once
/// per worker by each emitter, not per batch.
pub(crate) fn index_queue_gauge(worker: usize) -> String {
    format!("queue_depth.index_queue_{worker}")
}

/// Serialized size of an error envelope: a pickled `ExceptionWrapper`
/// (traceback string), not tensor storage.
const EXCEPTION_WRAPPER_BYTES: u64 = 512;

/// The wait recorded for a batch served from the reorder buffer: the
/// paper's 1 µs marker for "no waiting".
const CACHE_MARKER: Span = Span::from_micros(1);

/// Audit object name of the dispatcher (owns redispatch decisions).
const DISPATCHER_OBJ: &str = "dispatcher";

/// Message on a per-worker index queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WorkerMsg {
    /// Preprocess these dataset indices as batch `id`.
    Batch { id: u64, indices: Vec<u64> },
    /// Exit the worker loop (PyTorch's `None` sentinel).
    Shutdown,
}

/// The successful contents of an [`Envelope`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BatchPayload {
    pub(crate) bytes: u64,
    pub(crate) len: usize,
}

/// A preprocessed batch — or the error its fetch raised — travelling
/// through the shared data queue. Carrying the `Result` in-band is
/// PyTorch's `ExceptionWrapper` protocol: a worker never crashes on a
/// sample error, it ships the exception to the main process instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Envelope {
    pub(crate) batch_id: u64,
    pub(crate) payload: Result<BatchPayload, PipelineError>,
    /// When the fetch finished (the `[T1]` record's end).
    pub(crate) produced_at: Time,
    /// Duration of the whole fetch — fed back to cost-aware scheduling
    /// policies; never observable through the tracer.
    pub(crate) fetch: Span,
    pub(crate) worker: usize,
    pub(crate) pinned: bool,
}

impl Envelope {
    /// Serialized size on the queue.
    pub(crate) fn bytes(&self) -> u64 {
        match &self.payload {
            Ok(p) => p.bytes,
            Err(_) => EXCEPTION_WRAPPER_BYTES,
        }
    }
}

/// Everything a job consumes, planned before any worker starts: every
/// epoch's batches in order (batch ids keep counting across epochs) and
/// their per-batch cost hints.
pub(crate) struct EpochPlan {
    pub(crate) batches: Vec<Vec<u64>>,
    pub(crate) hints: Vec<Option<f64>>,
    /// The report of the completed run, with `elapsed` still zero. It is
    /// the whole report when there are no batches.
    pub(crate) report: JobReport,
}

impl EpochPlan {
    /// Validates the job's loader configuration and plans its epochs
    /// (zero epochs count as one).
    pub(crate) fn new(job: &TrainingJob) -> Result<EpochPlan, JobError> {
        let loader = &job.loader;
        loader.validate().map_err(JobError::InvalidConfig)?;
        let batch_sampler = BatchSampler {
            batch_size: loader.batch_size,
            drop_last: loader.drop_last,
        };
        let mut batches = Vec::new();
        for epoch in 0..job.epochs.max(1) as u64 {
            let order = loader.sampler.epoch_order(job.dataset.len(), epoch);
            batches.extend(batch_sampler.batches(&order));
        }
        let report = JobReport {
            elapsed: Span::ZERO,
            batches: batches.len() as u64,
            samples: batches.iter().map(|b| b.len() as u64).sum(),
        };
        let hints = batch_cost_hints(&*job.dataset, loader, &batches);
        Ok(EpochPlan {
            batches,
            hints,
            report,
        })
    }
}

/// Per-batch mean dataset cost hints for cost-aware policies; an empty
/// vector (every lookup misses) when the configured policy ignores cost.
fn batch_cost_hints(
    dataset: &dyn Dataset,
    loader: &DataLoaderConfig,
    batches: &[Vec<u64>],
) -> Vec<Option<f64>> {
    if !loader.policy.is_cost_aware() {
        return Vec::new();
    }
    batches
        .iter()
        .map(|indices| {
            let known: Vec<u64> = indices
                .iter()
                .filter_map(|&i| dataset.cost_hint(i))
                .collect();
            (!known.is_empty()).then(|| known.iter().sum::<u64>() as f64 / known.len() as f64)
        })
        .collect()
}

/// When each worker's fault plan kills it (`dataloader{w}`), if ever.
pub(crate) fn kill_times(faults: &FaultPlan, workers: usize) -> Vec<Option<Time>> {
    (0..workers)
        .map(|w| faults.kill_time(&format!("dataloader{w}")))
        .collect()
}

/// How a worker's substrate observes a fetch: the simulated engine reads
/// the modeled CPU's cursor, the native backend its wall clock.
pub(crate) trait FetchObserver: TransformObserver {
    /// The current instant.
    fn mark(&self, cpu: &CpuThread) -> Time;

    /// The fault plan injected an error into `op`.
    fn fault_injected(&mut self, op: &str, cpu: &CpuThread);

    /// Stretches a straggler sample that began at `start` to `factor`×
    /// its time.
    fn straggle(&mut self, cpu: &mut CpuThread, start: Time, factor: f64);
}

/// A worker's preprocessing state: its CPU thread (the cost model, whose
/// cursor is also the simulated worker's clock), its seeded randomness
/// and the collate op.
pub(crate) struct Fetcher {
    pub(crate) cpu: CpuThread,
    rng: StdRng,
    collate: Collate,
}

impl Fetcher {
    pub(crate) fn new(
        machine: &Arc<Machine>,
        hw_profiler: Option<Arc<HwProfiler>>,
        seed: u64,
        worker: usize,
    ) -> Fetcher {
        let mut cpu = CpuThread::new(Arc::clone(machine));
        if let Some(p) = hw_profiler {
            cpu.attach_profiler(p);
        }
        Fetcher {
            cpu,
            rng: StdRng::seed_from_u64(mix_seed(seed, 1_000 + worker as u64)),
            collate: Collate::new(machine),
        }
    }

    /// Fetches one batch: load and transform every sample, then collate.
    /// The first error — injected by the fault plan or raised by the
    /// dataset — abandons the rest of the batch, as PyTorch's worker does
    /// before it wraps the exception; the worker itself keeps running.
    pub(crate) fn fetch(
        &mut self,
        dataset: &dyn Dataset,
        faults: &FaultPlan,
        observer: &mut impl FetchObserver,
        indices: &[u64],
    ) -> Result<Batch, PipelineError> {
        let (cpu, rng, collate) = (&mut self.cpu, &mut self.rng, &self.collate);
        let mut samples = Vec::with_capacity(indices.len());
        for &i in indices {
            if let Some(op) = faults.sample_error(i) {
                observer.fault_injected(op, cpu);
                return Err(PipelineError::Injected {
                    op: op.to_string(),
                    index: i,
                });
            }
            let start = observer.mark(cpu);
            samples.push(dataset.get_item(i, &mut TransformCtx { cpu, rng }, observer)?);
            // A slow-sample fault plan dilates this item's cost (a
            // straggler record, a cold cache).
            let slowdown = faults.sample_slowdown(i);
            if slowdown > 1.0 {
                observer.straggle(cpu, start, slowdown);
            }
        }
        let (name, start) = (Collate::display_name(samples.len()), cpu.cursor());
        let batch = collate.apply(samples, &mut TransformCtx { cpu, rng })?;
        observer.on_transform(&name, start, cpu.cursor().since(start));
        Ok(batch)
    }
}

/// One dispatch decision: batch `id` goes to `placement.worker`.
#[derive(Debug)]
struct Sent {
    id: u64,
    /// The batch's indices, for the index-queue message.
    indices: Vec<u64>,
    /// True when the batch is a dead worker's orphan being re-sent.
    redispatch: bool,
    placement: Placement,
}

/// Queue depths as a scheduling policy sees them: per-worker index-queue
/// depths and the data-queue depth.
pub(crate) type Depths = (Vec<usize>, usize);

/// Index-batch dispatch state: the pluggable scheduling policy, the set
/// of batches dispatched but not yet returned, and which workers are
/// known dead.
///
/// The *protocol* lives here — orphan redispatch in id order before
/// fresh batches, a truthful in-flight inventory, a hard
/// `prefetch_factor * num_workers` in-flight bound — while the *choice*
/// of worker (and refill quota) is delegated to the
/// [`SchedulingPolicy`]. The default [round-robin] policy reproduces
/// PyTorch's strict `_worker_queue_idx_cycle`, regardless of which
/// worker just returned data: a momentarily slow worker falls behind
/// while its siblings run ahead — the root cause of the out-of-order
/// arrivals in §V-C of the paper. When a worker dies, the rotation
/// continues over the live workers only (PyTorch marks the slot
/// unavailable in `_workers_status`).
///
/// The dispatcher only decides; [`run_main_loop`] sends and traces.
/// Queue depths are sampled through a closure, only when needed.
///
/// [round-robin]: crate::policy::SchedulingPolicyKind::RoundRobin
struct Dispatcher {
    batch_iter: std::iter::Enumerate<std::vec::IntoIter<Vec<u64>>>,
    /// Orphaned batches from dead workers, re-sent before fresh ones.
    redispatch: VecDeque<(u64, Vec<u64>)>,
    policy: Box<dyn SchedulingPolicy>,
    /// Per-batch mean dataset cost hints (indexed by batch id), present
    /// only when the policy is cost-aware.
    hints: Vec<Option<f64>>,
    prefetch_factor: usize,
    dead: Vec<bool>,
    /// Dispatched-but-not-returned batches: id → (worker, indices).
    in_flight: HashMap<u64, (usize, Vec<u64>)>,
}

impl Dispatcher {
    fn new(
        batches: Vec<Vec<u64>>,
        workers: usize,
        loader: &DataLoaderConfig,
        hints: Vec<Option<f64>>,
    ) -> Dispatcher {
        Dispatcher {
            batch_iter: batches.into_iter().enumerate(),
            redispatch: VecDeque::new(),
            policy: loader.policy.build(workers, loader.prefetch_factor),
            hints,
            prefetch_factor: loader.prefetch_factor,
            dead: vec![false; workers],
            in_flight: HashMap::new(),
        }
    }

    fn alive(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }

    /// Batches not yet returned: in flight or waiting to be re-sent.
    fn outstanding(&self) -> usize {
        self.in_flight.len() + self.redispatch.len()
    }

    /// Takes the next batch — a pending redispatch first, else the next
    /// fresh batch — places it with the scheduling policy and records it
    /// as in flight. `None` when no batch is left, or when no worker is
    /// alive to take it (the batch then stays queued, so
    /// [`Self::outstanding`] stays truthful).
    fn send_next(&mut self, depths: impl FnOnce() -> Depths) -> Option<Sent> {
        let (id, indices, redispatch) = match self.redispatch.pop_front() {
            Some((id, indices)) => (id, indices, true),
            None => {
                let (id, indices) = self.batch_iter.next()?;
                (id as u64, indices, false)
            }
        };
        if self.alive() == 0 {
            self.redispatch.push_front((id, indices));
            return None;
        }
        let (queue_depths, data_queue_depth) = depths();
        let placement = self.policy.place(
            &BatchRef {
                id,
                indices: &indices,
                hint: self.hints.get(id as usize).copied().flatten(),
            },
            &DispatchContext {
                queue_depths: &queue_depths,
                dead: &self.dead,
                in_flight: self.in_flight.len(),
                data_queue_depth,
                prefetch_factor: self.prefetch_factor,
                redispatch,
            },
        );
        let w = placement.worker;
        assert!(
            !self.dead[w],
            "scheduling policy placed batch {id} on dead worker {w}"
        );
        self.in_flight.insert(id, (w, indices.clone()));
        Some(Sent {
            id,
            indices,
            redispatch,
            placement,
        })
    }

    /// A returned batch was taken off the data queue: update the
    /// inventory and feed the observed fetch time back to the policy,
    /// credited to the worker the batch was last sent to.
    fn batch_returned(&mut self, batch_id: u64, fetch: Span) {
        if let Some((worker, indices)) = self.in_flight.remove(&batch_id) {
            self.policy
                .on_batch_returned(worker, &indices, fetch.as_nanos());
        }
    }

    /// Asks the policy for the refill quota after a returned batch,
    /// clamped to the protocol's hard in-flight bound.
    fn refill_quota(&mut self, depths: impl FnOnce() -> Depths) -> Refill {
        let (queue_depths, data_queue_depth) = depths();
        let mut refill = self.policy.refill(&DispatchContext {
            queue_depths: &queue_depths,
            dead: &self.dead,
            in_flight: self.in_flight.len(),
            data_queue_depth,
            prefetch_factor: self.prefetch_factor,
            redispatch: false,
        });
        let bound = self.prefetch_factor * self.dead.len();
        refill.count = refill.count.min(bound.saturating_sub(self.in_flight.len()));
        refill
    }

    /// Marks `worker` dead and queues its in-flight batches (in id order)
    /// for redispatch. Returns the orphaned batch ids.
    fn mark_dead(&mut self, worker: usize) -> Vec<u64> {
        self.dead[worker] = true;
        self.policy.on_worker_died(worker);
        let mut orphans: Vec<u64> = self
            .in_flight
            .iter()
            .filter(|(_, (w, _))| *w == worker)
            .map(|(&id, _)| id)
            .collect();
        orphans.sort_unstable();
        for &id in &orphans {
            // The ids were collected from `in_flight` just above, with no
            // intervening removal.
            #[allow(clippy::expect_used)]
            let (_, indices) = self.in_flight.remove(&id).expect("orphan is in flight");
            self.redispatch.push_back((id, indices));
        }
        orphans
    }

    /// The [`LoaderMutation::RedispatchLive`] bug body: queues `batch_id`
    /// (or, if it is no longer outstanding, the newest outstanding batch)
    /// for redispatch although its owner is alive. Returns the batch and
    /// that owner.
    fn requeue_live(&mut self, batch_id: u64) -> Option<(u64, usize)> {
        let id = if self.in_flight.contains_key(&batch_id) {
            batch_id
        } else {
            self.in_flight.keys().max().copied()?
        };
        let (owner, indices) = self.in_flight[&id].clone();
        self.redispatch.push_front((id, indices));
        Some((id, owner))
    }
}

/// What the shared main loop needs from its substrate. Implemented by the
/// simulated engine (`loader.rs`) and the native backend (`native.rs`).
pub(crate) trait Driver {
    /// The main process's clock.
    fn now(&self) -> Time;

    /// Accounts for the overhead a tracer hook reports.
    fn overhead(&mut self, overhead: Span);

    /// Queue depths for a scheduling decision.
    fn depths(&self) -> Depths;

    /// The depth of worker `w`'s index queue (`Some(w)`) or of the data
    /// queue (`None`), sampled for the gauge `name`.
    fn gauge_depth(&self, queue: Option<usize>, name: &str) -> usize;

    /// Pushes `msg` onto worker `w`'s index queue.
    fn send(&mut self, w: usize, msg: WorkerMsg);

    /// Waits one liveness-check interval to take an envelope off the data
    /// queue. On a timeout, returns the workers newly found dead (possibly
    /// none); `dead` marks those already known.
    fn poll(&mut self, dead: &[bool]) -> Result<Envelope, Vec<usize>>;

    /// Pins an early arrival before it is parked in the reorder buffer.
    fn pin(&mut self, _env: &Envelope) {}

    /// Runs the training step on a delivered batch.
    fn consume(&mut self, batch: &BatchPayload, pinned: bool);

    /// The main process is leaving the loop; called before any shutdown
    /// sentinel is sent.
    fn stop(&mut self) {}

    /// Records a synchronization event for `lotus audit`.
    fn audit(&self, _obj: &str, _op: SyncOp) {}
}

/// Runs the main process over `batches` until every batch is consumed,
/// then shuts the workers down.
///
/// # Errors
///
/// [`JobError::Sample`] when a worker ships a preprocessing error, and
/// [`JobError::AllWorkersDied`] when no worker survives.
pub(crate) fn run_main_loop<D: Driver>(
    driver: D,
    tracer: &dyn Tracer,
    loader: &DataLoaderConfig,
    batches: Vec<Vec<u64>>,
    hints: Vec<Option<f64>>,
    mutation: LoaderMutation,
) -> Result<(), JobError> {
    let workers = loader.num_workers;
    let num_batches = batches.len() as u64;
    let mut main = MainLoop {
        driver,
        tracer,
        dispatcher: Dispatcher::new(batches, workers, loader, hints),
        index_gauges: (0..workers).map(index_queue_gauge).collect(),
        marker: None,
    };
    // Initial prefetch: `prefetch_factor` index batches per worker.
    for _ in 0..loader.prefetch_factor * workers {
        main.dispatch();
    }

    let mut cache: HashMap<u64, Envelope> = HashMap::new();
    for rcvd in 0..num_batches {
        if rcvd == 1 {
            if let LoaderMutation::RedispatchLive { batch_id } = mutation {
                // Seeded bug: re-send an outstanding batch whose owner
                // was never observed dead.
                main.redispatch_live(batch_id);
            }
        }
        let wait_start = main.now();
        let env = if let Some(env) = cache.remove(&rcvd) {
            // Already pinned and cached: the paper marks these waits
            // with a 1 µs duration to denote "no waiting", with the
            // queue delay measured to the moment the wait began.
            let oh = tracer.on_batch_wait(
                MAIN_OS_PID,
                rcvd,
                wait_start,
                CACHE_MARKER,
                true,
                wait_start.saturating_since(env.produced_at),
            );
            main.driver.overhead(oh);
            main.marker = Some(wait_start);
            main.audited_gauge("pinned_cache_batches", cache.len());
            env
        } else {
            main.receive(rcvd, wait_start, &mut cache)?
        };

        // Refill per *returned* batch — PyTorch's `_process_data`
        // calls `_try_put_index` before it re-raises. The policy
        // decides the quota (the protocol default is exactly one);
        // the dispatcher clamps it so the in-flight inventory never
        // exceeds `prefetch_factor * num_workers`, even while
        // out-of-order envelopes accumulate in the pinned cache.
        let refill = main.dispatcher.refill_quota(|| main.driver.depths());
        if let Some(target) = refill.resized_to {
            let oh = tracer.on_prefetch_resized(target, main.now());
            main.driver.overhead(oh);
        }
        for _ in 0..refill.count {
            main.dispatch();
        }

        let batch = match env.payload {
            Ok(batch) => batch,
            Err(error) => {
                // `_process_data` re-raises the shipped exception in
                // the main process; the job fails with a typed error
                // instead of a crash.
                main.shut_down(true);
                return Err(JobError::Sample {
                    batch_id: env.batch_id,
                    worker: env.worker,
                    error,
                });
            }
        };
        let consume_start = main.now();
        main.driver.consume(&batch, env.pinned);
        let oh = tracer.on_batch_consumed(
            MAIN_OS_PID,
            rcvd,
            consume_start,
            main.now().since(consume_start),
            batch.len,
        );
        main.driver.overhead(oh);
    }
    main.shut_down(false);
    Ok(())
}

/// The main process's state while [`run_main_loop`] runs.
struct MainLoop<'a, D> {
    driver: D,
    tracer: &'a dyn Tracer,
    dispatcher: Dispatcher,
    /// Each worker's [`index_queue_gauge`] name, shared so one can be
    /// borrowed across a `&mut self` call.
    index_gauges: Rc<[String]>,
    /// Start of the latest cache-served wait marker.
    marker: Option<Time>,
}

impl<D: Driver> MainLoop<'_, D> {
    /// The main process's clock, kept out of the latest cache-served
    /// marker: the trace gives that microsecond to the wait, so a read
    /// strictly inside it (a fast native loop gets there in well under
    /// 1 µs) is moved to the marker's end. A read at the marker's start —
    /// where a simulated loop that has not advanced its clock still is —
    /// stands.
    fn now(&self) -> Time {
        let now = self.driver.now();
        match self.marker {
            Some(start) if now > start && now < start + CACHE_MARKER => start + CACHE_MARKER,
            _ => now,
        }
    }

    /// Takes envelopes off the data queue until batch `rcvd` arrives,
    /// parking early arrivals in the reorder buffer and handling worker
    /// deaths on every liveness-check timeout (PyTorch's `_try_get_data`
    /// / `MP_STATUS_CHECK_INTERVAL` loop).
    fn receive(
        &mut self,
        rcvd: u64,
        wait_start: Time,
        cache: &mut HashMap<u64, Envelope>,
    ) -> Result<Envelope, JobError> {
        loop {
            let mut env = match self.driver.poll(&self.dispatcher.dead) {
                Ok(env) => env,
                Err(newly_dead) => {
                    self.bury(newly_dead)?;
                    continue;
                }
            };
            self.gauge_depth(None, "queue_depth.data_queue");
            self.dispatcher.batch_returned(env.batch_id, env.fetch);
            self.audited_gauge("in_flight_batches", self.dispatcher.in_flight.len());
            if env.batch_id == rcvd {
                // One clock read serves as both the wait's end and the
                // delivery point, making the linter's queue-delay
                // identity exact.
                let delivered_at = self.now();
                let oh = self.tracer.on_batch_wait(
                    MAIN_OS_PID,
                    rcvd,
                    wait_start,
                    delivered_at.since(wait_start),
                    false,
                    delivered_at.saturating_since(env.produced_at),
                );
                self.driver.overhead(oh);
                return Ok(env);
            }
            // Out-of-order arrival: pin to CPU memory and stash.
            self.driver.pin(&env);
            env.pinned = true;
            cache.insert(env.batch_id, env);
            self.audited_gauge("pinned_cache_batches", cache.len());
        }
    }

    /// Retires newly dead workers and re-sends their in-flight batches to
    /// the survivors, preserving id order.
    fn bury(&mut self, newly_dead: Vec<usize>) -> Result<(), JobError> {
        for w in newly_dead {
            let orphans = self.dispatcher.mark_dead(w);
            let oh = self.tracer.on_worker_died(worker_os_pid(w), self.now());
            self.driver.overhead(oh);
            if self.dispatcher.alive() == 0 {
                self.driver.stop();
                return Err(JobError::AllWorkersDied {
                    workers: self.dispatcher.dead.len(),
                    outstanding: self.dispatcher.outstanding(),
                });
            }
            for id in orphans {
                self.driver
                    .audit(DISPATCHER_OBJ, SyncOp::Redispatch { batch: id, from: w });
                self.dispatch();
                self.trace_redispatch(id, w);
            }
        }
        Ok(())
    }

    /// The [`LoaderMutation::RedispatchLive`] bug: re-sends an outstanding
    /// batch without any observed death — exactly the premature-redispatch
    /// violation `lotus check` exists to catch.
    fn redispatch_live(&mut self, batch_id: u64) {
        if let Some((id, owner)) = self.dispatcher.requeue_live(batch_id) {
            self.dispatch();
            self.trace_redispatch(id, owner);
        }
    }

    /// Announces that batch `id`, taken from worker `from`, went to its
    /// current owner.
    fn trace_redispatch(&mut self, id: u64, from: usize) {
        if let Some(&(to, _)) = self.dispatcher.in_flight.get(&id) {
            let oh = self.tracer.on_batch_redispatched(
                id,
                worker_os_pid(from),
                worker_os_pid(to),
                self.now(),
            );
            self.driver.overhead(oh);
        }
    }

    /// Sends the next index batch, announcing the dispatch — and any
    /// steal or lane assignment the policy made — to the tracer, then
    /// samples the receiving queue's depth and the in-flight inventory.
    /// Does nothing when the dispatcher has nothing to send.
    fn dispatch(&mut self) {
        let Some(sent) = self.dispatcher.send_next(|| self.driver.depths()) else {
            return;
        };
        let (w, now) = (sent.placement.worker, self.now());
        let to = worker_os_pid(w);
        let mut oh =
            self.tracer
                .on_batch_dispatched(sent.id, to, &sent.indices, sent.redispatch, now);
        if let Some(from) = sent.placement.stolen_from.filter(|&from| from != w) {
            oh += self
                .tracer
                .on_batch_stolen(sent.id, worker_os_pid(from), to, now);
        }
        if let Some(lane) = sent.placement.lane {
            oh += self
                .tracer
                .on_lane_assigned(sent.id, lane.as_str(), to, now);
        }
        self.driver.send(
            w,
            WorkerMsg::Batch {
                id: sent.id,
                indices: sent.indices,
            },
        );
        self.driver.overhead(oh);
        let names = Rc::clone(&self.index_gauges);
        self.gauge_depth(Some(w), &names[w]);
        self.audited_gauge("in_flight_batches", self.dispatcher.in_flight.len());
    }

    /// Leaves the loop: stops the driver, then sends the shutdown
    /// sentinel to every worker, or only to those not known dead.
    fn shut_down(&mut self, live_only: bool) {
        self.driver.stop();
        for w in 0..self.dispatcher.dead.len() {
            if !(live_only && self.dispatcher.dead[w]) {
                self.driver.send(w, WorkerMsg::Shutdown);
            }
        }
    }

    /// Emits one gauge sample and accounts for its overhead.
    fn gauge(&mut self, name: &str, value: f64) {
        let oh = self.tracer.on_gauge(name, value, self.now());
        self.driver.overhead(oh);
    }

    /// Samples a queue's depth (see [`Driver::gauge_depth`]) as gauge
    /// `name`.
    fn gauge_depth(&mut self, queue: Option<usize>, name: &str) {
        let depth = self.driver.gauge_depth(queue, name);
        self.gauge(name, depth as f64);
    }

    /// Emits a main-process gauge, recording it for the auditor too.
    fn audited_gauge(&mut self, name: &str, value: usize) {
        let value = value as f64;
        self.driver.audit(name, SyncOp::Gauge { value });
        self.gauge(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Sampler;
    use crate::policy::SchedulingPolicyKind;

    /// A dispatcher over `batches` four-sample batches; every fifth batch
    /// carries a high cost hint so the slow-lane policy has lanes to
    /// assign.
    fn dispatcher(
        workers: usize,
        prefetch_factor: usize,
        policy: SchedulingPolicyKind,
        batches: u64,
    ) -> Dispatcher {
        let loader = DataLoaderConfig {
            batch_size: 4,
            num_workers: workers,
            prefetch_factor,
            data_queue_cap: None,
            pin_memory: false,
            sampler: Sampler::Sequential,
            drop_last: true,
            policy,
        };
        let hints = (0..batches)
            .map(|b| Some(if b % 5 == 0 { 100.0 } else { 1.0 }))
            .collect();
        let batches = (0..batches).map(|b| (4 * b..4 * b + 4).collect()).collect();
        Dispatcher::new(batches, workers, &loader, hints)
    }

    fn oldest_in_flight(d: &Dispatcher) -> u64 {
        *d.in_flight.keys().min().unwrap()
    }

    #[test]
    fn orphans_are_resent_in_id_order_before_any_fresh_batch() {
        for kind in SchedulingPolicyKind::ALL {
            let mut d = dispatcher(3, 2, kind, 20);
            let sent: Vec<Sent> = (0..6)
                .map(|_| d.send_next(|| (vec![0; 3], 0)).unwrap())
                .collect();
            let victim = sent[0].placement.worker;
            let owned: Vec<u64> = sent
                .iter()
                .filter(|s| s.placement.worker == victim)
                .map(|s| s.id)
                .collect();
            assert_eq!(d.mark_dead(victim), owned, "{kind}");
            for &id in &owned {
                let s = d.send_next(|| (vec![0; 3], 0)).unwrap();
                assert_eq!((s.id, s.redispatch), (id, true), "{kind}");
                assert_ne!(s.placement.worker, victim, "{kind}");
            }
            let fresh = d.send_next(|| (vec![0; 3], 0)).unwrap();
            assert_eq!((fresh.id, fresh.redispatch), (6, false), "{kind}");
        }
    }

    #[test]
    fn every_policys_refill_is_clamped_to_the_in_flight_bound() {
        let (workers, prefetch) = (3, 2);
        let bound = workers * prefetch;
        for kind in SchedulingPolicyKind::ALL {
            let mut d = dispatcher(workers, prefetch, kind, 64);
            for _ in 0..bound {
                d.send_next(|| (vec![0; workers], 0)).unwrap();
            }
            // A full window leaves no room, whatever the policy asks for.
            let quota = d.refill_quota(|| (vec![0; workers], 0));
            assert_eq!(quota.count, 0, "{kind}: refill into a full window");
            for step in 0..40u64 {
                let id = oldest_in_flight(&d);
                d.batch_returned(id, Span::from_micros(100 + 37 * (step % 5)));
                // Skewed depths tempt load-aware policies to ask for more.
                let quota = d.refill_quota(|| (vec![0, 3, 1], 2));
                let room = bound - d.in_flight.len();
                assert!(quota.count <= room, "{kind}: quota {quota:?} > {room}");
                for _ in 0..quota.count {
                    d.send_next(|| (vec![0; workers], 0));
                }
                assert!(d.in_flight.len() <= bound, "{kind}");
            }
        }
    }

    #[test]
    fn with_no_live_worker_the_next_batch_stays_outstanding() {
        // Orphans of the last worker to die stay queued.
        let mut d = dispatcher(2, 2, SchedulingPolicyKind::RoundRobin, 8);
        d.send_next(|| (vec![0; 2], 0)).unwrap();
        d.send_next(|| (vec![0; 2], 0)).unwrap();
        d.mark_dead(0);
        d.mark_dead(1);
        assert!(d
            .send_next(|| unreachable!("no placement without a live worker"))
            .is_none());
        assert_eq!(d.outstanding(), 2);
        // So does a fresh batch drawn after every worker died.
        let mut d = dispatcher(2, 2, SchedulingPolicyKind::RoundRobin, 8);
        d.mark_dead(0);
        d.mark_dead(1);
        assert!(d.send_next(|| (vec![0; 2], 0)).is_none());
        assert_eq!(d.outstanding(), 1, "the drawn batch is counted, not lost");
    }

    #[test]
    fn no_policy_places_a_batch_on_a_dead_worker() {
        for kind in SchedulingPolicyKind::ALL {
            let mut d = dispatcher(4, 2, kind, 200);
            let mut depths = vec![0usize; 4];
            for step in 0..150usize {
                if step == 10 {
                    d.mark_dead(1);
                }
                if step == 60 {
                    d.mark_dead(3);
                }
                let sent = d.send_next(|| (depths.clone(), step % 3));
                let Some(sent) = sent else { break };
                let w = sent.placement.worker;
                assert!(!d.dead[w], "{kind} placed batch {} on dead {w}", sent.id);
                depths[w] += 1;
                if d.in_flight.len() >= 6 {
                    let id = oldest_in_flight(&d);
                    let owner = d.in_flight[&id].0;
                    depths[owner] = depths[owner].saturating_sub(1);
                    d.batch_returned(id, Span::from_micros(50 * (owner as u64 + 1)));
                }
            }
        }
    }
}
