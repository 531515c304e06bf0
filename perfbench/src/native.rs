//! The two native workloads: `native-ic` (real pixels) and
//! `native-ic-meta` (cost-only samples), both one closed-loop training
//! consumer with no emulated GPU over the IC pipeline on the native
//! backend.
//!
//! The timed run calls `lotus::running::run_experiment` as a user would.
//! The traced run performs the same steps itself (build, run, fold) so it
//! can time each one and put [`TimedDataset`]/[`TimedTracer`] around the
//! built job's dataset and tracer and attach a [`KernelSpanFeed`].

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use lotus::core::check::{lint_records, ReportFacts};
use lotus::core::metrics::{MetricsRegistry, MetricsSink, MultiSink};
use lotus::core::trace::analysis::op_class_totals;
use lotus::core::trace::{LotusTrace, LotusTraceConfig, OpLogMode, SpanKind, TraceRecord};
use lotus::core::tune::{Scorecard, TrialConfig, TrialMeasurement};
use lotus::data::mix_seed;
use lotus::dataflow::{ExecutionBackend, FaultPlan, JobReport, NativeBackend, NativeOptions};
use lotus::running::{run_experiment, verdict_family, RunOptions};
use lotus::sim::{Span, Time};
use lotus::uarch::{KernelSpanFeed, Machine, MachineConfig};
use lotus::workloads::{ExperimentConfig, PipelineKind};

use crate::output::{peak_rss_kb, reset_peak_rss, Outcome};
use crate::stats::{median, min_samples_for, percentile};
use crate::wrap::{mark_main_thread, TimedDataset, TimedTracer};
use crate::{nanos, Budget};

/// Samples per batch.
pub const BATCH: usize = 16;
/// DataLoader worker threads.
pub const WORKERS: usize = 2;
/// The decode kernels `Codec::decode` reports to the kernel feed, in
/// pipeline order. Any other kernel seen under the `Loader` op is summed
/// into `codec.other_ms_per_image`.
pub const DECODE_KERNELS: [&str; 5] = [
    "decode_mcu",
    "jpeg_idct_islow",
    "jpeg_idct_16x16",
    "ycc_rgb_convert",
    "ImagingUnpackRGB",
];
/// The IC transform chain, in order.
pub const IC_OPS: [&str; 4] = [
    "RandomResizedCrop",
    "RandomHorizontalFlip",
    "ToTensor",
    "Normalize",
];

/// One native workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct NativeWorkload {
    /// Real pixels (`native-ic`) or cost-only samples (`native-ic-meta`).
    pub materialize: bool,
    /// Items per `run_experiment` call (one epoch); a multiple of
    /// [`BATCH`].
    pub items: u64,
    /// Items of the warm-up call made during set-up.
    pub warmup_items: u64,
}

impl NativeWorkload {
    /// The experiment of call `k` in a run seeded with `seed`: every call
    /// draws a fresh, seed-determined set of images, so a run averages
    /// over many image sizes.
    #[must_use]
    pub fn experiment(&self, seed: u64, k: u64) -> ExperimentConfig {
        experiment(mix_seed(seed, k), self.items)
    }

    /// Options for the timed call.
    #[must_use]
    pub fn options(&self) -> RunOptions {
        let mut options = RunOptions::native();
        options.emulate_gpu = false;
        options.materialize = self.materialize;
        options
    }

    /// Batches in flight at most: `prefetch_factor × workers`.
    #[must_use]
    pub fn window(&self) -> usize {
        let loader = experiment(0, self.items).loader_defaults();
        loader.prefetch_factor * loader.num_workers
    }

    /// Parameters for the provenance block.
    #[must_use]
    pub fn params(&self) -> Vec<(&'static str, String)> {
        let loader = experiment(0, self.items).loader_defaults();
        vec![
            ("pipeline", "IC".to_string()),
            ("backend", "native".to_string()),
            ("materialize", self.materialize.to_string()),
            ("emulate_gpu", "false".to_string()),
            ("items_per_call", self.items.to_string()),
            ("batch_size", loader.batch_size.to_string()),
            ("workers", loader.num_workers.to_string()),
            ("prefetch_factor", loader.prefetch_factor.to_string()),
            ("policy", loader.policy.as_str().to_string()),
            ("min_batches", min_samples_for(0.9).to_string()),
            ("warmup_items", self.warmup_items.to_string()),
        ]
    }
}

/// The IC experiment the native workloads run: paper-default IC with
/// batch [`BATCH`] and [`WORKERS`] workers, `items` items, seed `seed`.
#[must_use]
pub fn experiment(seed: u64, items: u64) -> ExperimentConfig {
    let mut e = ExperimentConfig::paper_default(PipelineKind::ImageClassification).scaled_to(items);
    e.batch_size = BATCH;
    e.num_workers = WORKERS;
    e.seed = seed;
    e
}

/// What one call's own LotusTrace says, per batch and per op.
#[derive(Debug, Default)]
pub struct TraceFacts {
    /// Dispatch-to-delivery time of each batch, in ms (see
    /// [`trace_facts`]).
    pub latency_ms: Vec<f64>,
    /// The dispatch instant each latency was measured from, by batch id.
    pub derived_dispatch: Vec<Time>,
    /// \[T1\] fetch durations, ms.
    pub fetch_ms: Vec<f64>,
    /// \[T2\] wait durations, ms.
    pub wait_ms: Vec<f64>,
    /// Shared-queue residency of each delivered batch, ms.
    pub queue_delay_ms: Vec<f64>,
    /// Batches served from the reorder buffer.
    pub out_of_order: u64,
    /// Batches re-sent after a worker death.
    pub redispatched: u64,
    /// Per op name: (records, total ns) of its \[T3\] spans.
    pub ops: BTreeMap<String, (u64, u64)>,
    /// Sum of \[T1\] durations, ns.
    pub t1_ns: u64,
    /// Sum of \[T2\] durations, ns.
    pub t2_ns: u64,
    /// Every \[T2\] span as `(start, end)`, by start.
    pub waits: Vec<(Time, Time)>,
}

fn ms(span: Span) -> f64 {
    span.as_nanos() as f64 / 1e6
}

/// Reads one call's trace. A batch's latency runs from the dispatch of
/// its indices to its delivery to the training loop (the end of its
/// \[T2\] record). The trace records no dispatch, so it is taken from the
/// protocol: the first `window` batches are dispatched before the loop
/// starts waiting for batch 0, and under round-robin refill batch
/// `b ≥ window` is dispatched right after batch `b − window` is
/// delivered. The traced run checks this against the dispatch instants
/// the engine reports to the tracer (`dataflow.dispatch_lag_us_p50`).
///
/// # Errors
///
/// Fails when some batch in `0..batches` has no \[T2\] record.
pub fn trace_facts(
    records: &[TraceRecord],
    batches: u64,
    window: usize,
) -> Result<TraceFacts, String> {
    let mut facts = TraceFacts::default();
    let mut delivered: Vec<Option<(Time, Time)>> = vec![None; batches as usize];
    for r in records {
        match &r.kind {
            SpanKind::BatchPreprocessed => {
                facts.fetch_ms.push(ms(r.duration));
                facts.t1_ns += r.duration.as_nanos();
            }
            SpanKind::BatchWait => {
                facts.wait_ms.push(ms(r.duration));
                facts.queue_delay_ms.push(ms(r.queue_delay));
                facts.t2_ns += r.duration.as_nanos();
                facts.out_of_order += u64::from(r.out_of_order);
                facts.waits.push((r.start, r.end()));
                if let Some(slot) = delivered.get_mut(r.batch_id as usize) {
                    *slot = Some((r.start, r.end()));
                }
            }
            SpanKind::BatchRedispatched => facts.redispatched += 1,
            SpanKind::Op(name) => {
                let entry = facts.ops.entry(name.clone()).or_default();
                entry.0 += 1;
                entry.1 += r.duration.as_nanos();
            }
            _ => {}
        }
    }
    let delivered: Vec<(Time, Time)> = delivered
        .into_iter()
        .enumerate()
        .map(|(b, d)| d.ok_or_else(|| format!("batch {b} has no [T2] wait record")))
        .collect::<Result<_, _>>()?;
    facts.waits.sort();
    let first_wait = delivered.first().map_or(Time::ZERO, |d| d.0);
    for (b, &(_, end)) in delivered.iter().enumerate() {
        let dispatched = if b < window {
            first_wait
        } else {
            delivered[b - window].1
        };
        facts.derived_dispatch.push(dispatched);
        facts.latency_ms.push(ms(end.saturating_since(dispatched)));
    }
    Ok(facts)
}

/// Applies the native correctness gates to one call.
pub fn check_call(
    out: &mut Outcome,
    items: u64,
    report: &JobReport,
    records: &[TraceRecord],
    scorecard: &Scorecard,
    facts: &TraceFacts,
) {
    let batches = items.div_ceil(BATCH as u64);
    out.gate(report.samples == items, || {
        format!("delivered {} samples, expected {items}", report.samples)
    });
    out.gate(report.batches == batches, || {
        format!("delivered {} batches, expected {batches}", report.batches)
    });
    let findings = lint_records(
        records,
        Some(&ReportFacts {
            elapsed: report.elapsed,
            batches: report.batches,
        }),
    );
    out.gate(findings.is_empty(), || {
        format!(
            "trace lint: {} findings, first: {:?}",
            findings.len(),
            findings.first()
        )
    });
    let family = verdict_family(scorecard);
    out.gate(family == "input-bound", || {
        format!("verdict family is {family}, expected input-bound")
    });
    out.gate(facts.redispatched == 0, || {
        format!("{} batches were redispatched", facts.redispatched)
    });
}

/// The timed calls of one run, folded.
#[derive(Debug, Default)]
pub struct Timed {
    /// Wall time of each `run_experiment` call, ns.
    pub call_ns: Vec<u64>,
    /// Samples delivered over all calls.
    pub samples: u64,
    /// Dispatch-to-delivery latency of every batch, ms.
    pub latency_ms: Vec<f64>,
    /// Peak resident set of each call, kB.
    pub peak_kb: Vec<u64>,
}

impl Timed {
    /// Samples per wall second of the timed calls.
    #[must_use]
    pub fn samples_per_s(&self) -> f64 {
        self.samples as f64 / self.measured_s()
    }

    fn measured_s(&self) -> f64 {
        self.call_ns.iter().sum::<u64>() as f64 / 1e9
    }
}

/// Runs `run_experiment` calls until `seconds` of calls are measured and
/// enough batches exist for a p90, or until `deadline`.
pub fn timed(
    w: &NativeWorkload,
    seed: u64,
    seconds: f64,
    deadline: Instant,
    out: &mut Outcome,
) -> Timed {
    let mut t = Timed::default();
    let options = w.options();
    let need = min_samples_for(0.9);
    for k in 0.. {
        if (t.measured_s() >= seconds && t.latency_ms.len() >= need) || Instant::now() >= deadline {
            break;
        }
        let experiment = w.experiment(seed, k);
        out.attempted += w.items;
        reset_peak_rss();
        let started = Instant::now();
        let result = run_experiment(&experiment, &options);
        let elapsed = started.elapsed();
        t.peak_kb.push(peak_rss_kb().unwrap_or(0));
        out.details.push(format!(
            "call {k}: {:.3} s, peak {:.1} MB",
            elapsed.as_secs_f64(),
            t.peak_kb.last().copied().unwrap_or(0) as f64 / 1024.0
        ));
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(e) => {
                out.failed += w.items;
                out.gate(false, || format!("call {k}: run_experiment failed: {e}"));
                break;
            }
        };
        t.call_ns.push(nanos(elapsed));
        t.samples += outcome.report.samples;
        out.failed += w.items.saturating_sub(outcome.report.samples);
        let records = outcome.trace.records();
        match trace_facts(&records, outcome.report.batches, w.window()) {
            Ok(facts) => {
                check_call(
                    out,
                    w.items,
                    &outcome.report,
                    &records,
                    &outcome.scorecard,
                    &facts,
                );
                t.latency_ms.extend(facts.latency_ms);
            }
            Err(e) => out.gate(false, || format!("call {k}: {e}")),
        }
    }
    t
}

/// End-to-end metrics of a timed native run.
pub fn report_timed(t: &Timed, setup_s: f64, out: &mut Outcome) {
    let calls = t.call_ns.len();
    out.push(
        "samples_per_s",
        t.samples_per_s(),
        "1/s",
        format!(
            "{} samples in {calls} calls, {:.2} s",
            t.samples,
            t.measured_s()
        ),
    );
    let n = t.latency_ms.len();
    for (name, q) in [("batch_p50_ms", 0.5), ("batch_p90_ms", 0.9)] {
        match percentile(&t.latency_ms, q) {
            Ok(v) => out.push(name, v, "ms", format!("n={n} batches")),
            Err(e) => {
                out.gate(false, || format!("{name}: {e}"));
                out.push(name, f64::NAN, "ms", format!("n={n} batches"));
            }
        }
    }
    let peaks: Vec<f64> = t.peak_kb.iter().map(|&kb| kb as f64 / 1024.0).collect();
    out.push(
        "peak_rss_mb",
        median(&peaks).unwrap_or(f64::NAN),
        "MB",
        format!("median over {} calls of each call's peak", peaks.len()),
    );
    out.push(
        "setup_s",
        setup_s,
        "s",
        "median of the set-up repeats".to_string(),
    );
}

/// One traced call: the steps of `run_experiment`, each timed, with the
/// job's dataset and tracer wrapped and a kernel feed attached.
#[derive(Debug, Default)]
pub struct TracedCall {
    /// Wall of the whole call, ns.
    pub wall_ns: u64,
    /// `ExperimentConfig::build_*`, ns.
    pub build_ns: u64,
    /// `NativeBackend::run`, ns.
    pub epoch_ns: u64,
    /// Snapshot + `op_class_totals` + `Scorecard`, ns.
    pub fold_ns: u64,
    /// Samples delivered.
    pub samples: u64,
    /// Batches delivered.
    pub batches: u64,
    /// `get_item` calls and ns.
    pub get_item: (u64, u64),
    /// Tracer hook calls and ns on the training loop's thread.
    pub hooks_main: (u64, u64),
    /// Of those ns, the part spent inside a \[T2\] wait.
    pub hooks_main_in_wait_ns: u64,
    /// Tracer hook calls and ns on worker threads.
    pub hooks_workers: (u64, u64),
    /// Kernel feed: ns per decode kernel observed under `Loader`.
    pub loader_kernels_ns: BTreeMap<String, u64>,
    /// Kernel feed self-accounted overhead, ns.
    pub feed_overhead_ns: u64,
    /// Trace records.
    pub records: u64,
    /// Serialized LotusTrace log bytes.
    pub log_bytes: u64,
    /// What the trace says.
    pub facts: TraceFacts,
    /// Observed minus derived dispatch instant of each batch, µs.
    pub dispatch_lag_us: Vec<f64>,
}

/// Performs one traced call and gates it like a timed one.
///
/// # Errors
///
/// Returns the loader-validation or job error.
pub fn traced_call(
    w: &NativeWorkload,
    experiment: &ExperimentConfig,
    out: &mut Outcome,
) -> Result<TracedCall, String> {
    let options = w.options();
    let started = Instant::now();
    let loader = experiment.loader_defaults();
    loader.validate()?;
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let trace = Arc::new(LotusTrace::with_config(LotusTraceConfig {
        per_log_overhead: Span::ZERO,
        op_mode: OpLogMode::Full,
    }));
    let registry = Arc::new(MetricsRegistry::new());
    let metrics = Arc::new(MetricsSink::with_overhead(
        Arc::clone(&registry),
        loader.num_workers,
        Span::ZERO,
    ));
    let sinks = Arc::new(
        MultiSink::new()
            .with(Arc::clone(&trace) as _)
            .with(Arc::clone(&metrics) as _),
    );
    let trial = TrialConfig {
        num_workers: loader.num_workers,
        prefetch_factor: loader.prefetch_factor,
        data_queue_cap: loader.data_queue_cap,
        pin_memory: loader.pin_memory,
    };
    let build_started = Instant::now();
    let mut job = if options.materialize {
        experiment.build_materialized_with(&machine, sinks as _, None, loader, FaultPlan::default())
    } else {
        experiment.build_with(&machine, sinks as _, None, loader, FaultPlan::default())
    };
    let build_ns = nanos(build_started.elapsed());
    let dataset = Arc::new(TimedDataset::new(Arc::clone(&job.dataset)));
    let tracer = Arc::new(TimedTracer::new(Arc::clone(&job.tracer)));
    job.dataset = Arc::clone(&dataset) as _;
    job.tracer = Arc::clone(&tracer) as _;
    let feed = Arc::new(KernelSpanFeed::new());
    let backend = NativeBackend::new(NativeOptions {
        status_check: options.status_check,
        emulate_gpu: options.emulate_gpu,
    })
    .with_feed(Arc::clone(&feed));
    mark_main_thread();
    let epoch_started = Instant::now();
    let report = backend.run(job).map_err(|e| e.to_string())?;
    let epoch_ns = nanos(epoch_started.elapsed());
    let fold_started = Instant::now();
    let records = trace.records();
    let measurement = TrialMeasurement {
        elapsed: report.elapsed,
        batches: report.batches,
        samples: report.samples,
        snapshot: registry.snapshot(),
        op_classes: op_class_totals(&records),
    };
    let scorecard = Scorecard::from_measurement(trial, &measurement);
    let fold_ns = nanos(fold_started.elapsed());
    let wall_ns = nanos(started.elapsed());

    let facts = trace_facts(&records, report.batches, w.window())?;
    check_call(out, w.items, &report, &records, &scorecard, &facts);
    let observed: BTreeMap<u64, Time> = tracer.dispatches().into_iter().collect();
    let dispatch_lag_us = facts
        .derived_dispatch
        .iter()
        .enumerate()
        .filter_map(|(b, &derived)| {
            let at = *observed.get(&(b as u64))?;
            Some((at.as_nanos() as f64 - derived.as_nanos() as f64) / 1e3)
        })
        .collect();
    let hooks_main_in_wait_ns = tracer
        .main_log()
        .into_iter()
        .filter(|&(at, _)| {
            let i = facts.waits.partition_point(|w| w.0 <= at);
            i > 0 && at < facts.waits[i - 1].1
        })
        .map(|(_, ns)| ns)
        .sum();
    let loader_kernels_ns = feed
        .per_op_function_totals(&machine)
        .remove("Loader")
        .unwrap_or_default()
        .into_iter()
        .map(|f| (f.name.to_string(), f.stats.cpu_time.as_nanos()))
        .collect();
    Ok(TracedCall {
        wall_ns,
        build_ns,
        epoch_ns,
        fold_ns,
        samples: report.samples,
        batches: report.batches,
        get_item: (dataset.get_item.calls(), dataset.get_item.ns()),
        hooks_main: (tracer.main.calls(), tracer.main.ns()),
        hooks_main_in_wait_ns,
        hooks_workers: (tracer.other.calls(), tracer.other.ns()),
        loader_kernels_ns,
        feed_overhead_ns: feed.overhead().as_nanos(),
        records: records.len() as u64,
        log_bytes: trace.log_storage_bytes(),
        facts,
        dispatch_lag_us,
    })
}

/// Runs traced calls until `seconds` of calls are measured and enough
/// batches exist for a p90, or until `deadline`.
pub fn traced(
    w: &NativeWorkload,
    seed: u64,
    seconds: f64,
    deadline: Instant,
    out: &mut Outcome,
) -> Vec<TracedCall> {
    let mut calls: Vec<TracedCall> = Vec::new();
    let need = min_samples_for(0.9) as u64;
    for k in 0.. {
        let measured: u64 = calls.iter().map(|c| c.wall_ns).sum();
        let batches: u64 = calls.iter().map(|c| c.batches).sum();
        if (measured as f64 / 1e9 >= seconds && batches >= need) || Instant::now() >= deadline {
            break;
        }
        out.attempted += w.items;
        match traced_call(w, &w.experiment(seed, k), out) {
            Ok(call) => {
                out.failed += w.items.saturating_sub(call.samples);
                calls.push(call);
            }
            Err(e) => {
                out.failed += w.items;
                out.gate(false, || format!("traced call {k} failed: {e}"));
                break;
            }
        }
    }
    calls
}

/// Per-layer metrics of a traced native run. `untraced_sps` is the same
/// invocation's timed samples/s, the base of `trace_overhead_frac`.
pub fn report_traced(calls: &[TracedCall], untraced_sps: f64, out: &mut Outcome) {
    let sum = |f: &dyn Fn(&TracedCall) -> u64| -> f64 { calls.iter().map(f).sum::<u64>() as f64 };
    let n_calls = calls.len() as f64;
    let images = sum(&|c| c.samples);
    let batches = sum(&|c| c.batches);
    let wall = sum(&|c| c.wall_ns);
    let epoch = sum(&|c| c.epoch_ns);
    let build = sum(&|c| c.build_ns);
    let fold = sum(&|c| c.fold_ns);
    let get_item_calls = sum(&|c| c.get_item.0);
    let get_item = sum(&|c| c.get_item.1);
    let hooks_main = sum(&|c| c.hooks_main.1);
    // Main-thread hook time not already inside a [T2] span.
    let hooks_main_outside = hooks_main - sum(&|c| c.hooks_main_in_wait_ns);
    let hooks_workers = sum(&|c| c.hooks_workers.1);
    let hook_calls = sum(&|c| c.hooks_main.0 + c.hooks_workers.0);
    let t1 = sum(&|c| c.facts.t1_ns);
    let t2 = sum(&|c| c.facts.t2_ns);
    let op = |name: &str| -> f64 {
        calls
            .iter()
            .map(|c| c.facts.ops.get(name).map_or(0, |o| o.1))
            .sum::<u64>() as f64
    };
    let collate: f64 = calls
        .iter()
        .flat_map(|c| c.facts.ops.iter())
        .filter(|(name, _)| name.starts_with("C("))
        .map(|(_, o)| o.1 as f64)
        .sum();
    let all_t3: f64 = calls
        .iter()
        .flat_map(|c| c.facts.ops.values())
        .map(|o| o.1 as f64)
        .sum();
    let kernel = |name: &str| -> f64 {
        calls
            .iter()
            .map(|c| c.loader_kernels_ns.get(name).copied().unwrap_or(0))
            .sum::<u64>() as f64
    };
    let codec = sum(&|c| c.loader_kernels_ns.values().sum());
    let loader = op("Loader");
    let transforms_ops: f64 = IC_OPS.iter().map(|o| op(o)).sum();
    let per_image_ms = |v: f64| v / images / 1e6;
    let samples_note = || format!("{images} images, {batches} batches, {n_calls} calls");

    out.push(
        "workloads.get_item_us",
        get_item / get_item_calls / 1e3,
        "us",
        format!("{get_item_calls} calls"),
    );
    out.push(
        "workloads.loader_unattributed_ms_per_image",
        per_image_ms(loader - codec),
        "ms",
        "Loader [T3] minus its decode kernel spans".to_string(),
    );
    out.push(
        "workloads.build_ms",
        build / n_calls / 1e6,
        "ms",
        format!("{n_calls} builds"),
    );
    out.push(
        "codec.decode_ms_per_image",
        per_image_ms(codec),
        "ms",
        samples_note(),
    );
    for (name, metric) in DECODE_KERNELS.iter().zip(crate::DECODE_KERNEL_METRICS) {
        out.push(metric, per_image_ms(kernel(name)), "ms", samples_note());
    }
    let named: f64 = DECODE_KERNELS.iter().map(|k| kernel(k)).sum();
    out.push(
        "codec.other_ms_per_image",
        per_image_ms(codec - named),
        "ms",
        samples_note(),
    );
    for (name, metric) in IC_OPS.iter().zip(crate::OP_METRICS) {
        out.push(metric, per_image_ms(op(name)), "ms", samples_note());
    }
    out.push(
        "transforms.collate_ms_per_batch",
        collate / batches / 1e6,
        "ms",
        samples_note(),
    );

    let pooled = |f: &dyn Fn(&TraceFacts) -> &Vec<f64>| -> Vec<f64> {
        calls
            .iter()
            .flat_map(|c| f(&c.facts).iter().copied())
            .collect()
    };
    let fetch = pooled(&|f| &f.fetch_ms);
    let wait = pooled(&|f| &f.wait_ms);
    let delay = pooled(&|f| &f.queue_delay_ms);
    let lag: Vec<f64> = calls
        .iter()
        .flat_map(|c| c.dispatch_lag_us.iter().copied())
        .collect();
    for (name, values, q, unit) in [
        ("dataflow.fetch_p50_ms", &fetch, 0.5, "ms"),
        ("dataflow.fetch_p90_ms", &fetch, 0.9, "ms"),
        ("dataflow.wait_p50_ms", &wait, 0.5, "ms"),
        ("dataflow.queue_delay_p50_ms", &delay, 0.5, "ms"),
        ("dataflow.dispatch_lag_us_p50", &lag, 0.5, "us"),
    ] {
        let value = percentile(values, q).unwrap_or_else(|e| {
            out.gate(false, || format!("{name}: {e}"));
            f64::NAN
        });
        out.push(name, value, unit, format!("n={}", values.len()));
    }
    out.push(
        "dataflow.worker_busy_frac",
        get_item / (WORKERS as f64 * epoch),
        "fraction",
        "get_item wall / (workers x epoch wall)".to_string(),
    );
    out.push(
        "dataflow.worker_overhead_us_per_batch",
        (t1 - get_item - collate) / batches / 1e3,
        "us",
        "[T1] minus get_item minus collate".to_string(),
    );
    out.push(
        "dataflow.main_busy_us_per_batch",
        (epoch - t2 - hooks_main_outside) / batches / 1e3,
        "us",
        "epoch wall minus [T2] minus main-thread hooks".to_string(),
    );
    out.push(
        "dataflow.out_of_order_batches",
        sum(&|c| c.facts.out_of_order),
        "count",
        samples_note(),
    );
    out.push(
        "dataflow.redispatched_batches",
        sum(&|c| c.facts.redispatched),
        "count",
        samples_note(),
    );
    out.push(
        "sim.run_ms_per_trial",
        0.0,
        "ms",
        "no simulation on this workload".to_string(),
    );
    out.push(
        "sim.host_ns_per_sample",
        0.0,
        "ns",
        "no simulation on this workload".to_string(),
    );
    out.push(
        "core.tracer_calls_per_sample",
        hook_calls / images,
        "count",
        samples_note(),
    );
    out.push(
        "core.tracer_ns_per_call",
        (hooks_main + hooks_workers) / hook_calls,
        "ns",
        format!("{hook_calls} hook calls"),
    );
    out.push(
        "core.trace_records_per_sample",
        sum(&|c| c.records) / images,
        "count",
        samples_note(),
    );
    out.push(
        "core.trace_bytes_per_sample",
        sum(&|c| c.log_bytes) / images,
        "B",
        samples_note(),
    );
    out.push(
        "core.fold_ms",
        fold / n_calls / 1e6,
        "ms",
        format!("one fold per call, {n_calls} calls"),
    );
    out.push(
        "core.tune_self_ms",
        0.0,
        "ms",
        "no tuner on this workload".to_string(),
    );
    out.push(
        "core.exec_parallel_eff",
        0.0,
        "fraction",
        "no tuner on this workload".to_string(),
    );
    out.push(
        "uarch.feed_overhead_frac",
        sum(&|c| c.feed_overhead_ns) / epoch,
        "fraction",
        "KernelSpanFeed::overhead / epoch wall".to_string(),
    );
    let traced_sps = images / (wall / 1e9);
    out.push(
        "trace_overhead_frac",
        1.0 - traced_sps / untraced_sps,
        "fraction",
        format!("traced {traced_sps:.3} vs untraced {untraced_sps:.3} samples/s"),
    );

    // Thread-time budget per call: the training loop's thread for the
    // whole call, plus every worker for the epoch.
    let workers = WORKERS as f64;
    let mut budget = Budget::new(n_calls, wall + workers * epoch);
    budget.add("workloads", "build", build);
    budget.add(
        "workloads",
        "Loader minus decode kernels (workers)",
        loader - codec,
    );
    budget.add("codec", "decode kernels (workers)", codec);
    budget.add("transforms", "ops (workers)", transforms_ops);
    budget.add("transforms", "collate (workers)", collate);
    budget.add("dataflow", "[T2] wait (main)", t2);
    budget.add(
        "dataflow",
        "main busy: epoch minus [T2] minus hooks (main)",
        epoch - t2 - hooks_main_outside,
    );
    budget.add(
        "dataflow",
        "[T1] tail after the last op (workers)",
        t1 - all_t3,
    );
    budget.add(
        "dataflow",
        "worker idle: epoch minus [T1] (workers)",
        workers * epoch - t1,
    );
    budget.add(
        "core",
        "tracer hooks outside [T2] (main)",
        hooks_main_outside,
    );
    budget.add("core", "fold (main)", fold);
    budget.note(format!(
        "of which inside worker spans: tracer hooks {:.3} ms, feed overhead {:.3} ms, get_item {:.3} ms",
        hooks_workers / n_calls / 1e6,
        sum(&|c| c.feed_overhead_ns) / n_calls / 1e6,
        get_item / n_calls / 1e6
    ));
    budget.note(format!(
        "[T1] closes: get_item {:.3} + collate {:.3} + worker overhead {:.3} = [T1] {:.3} ms per call",
        get_item / n_calls / 1e6,
        collate / n_calls / 1e6,
        (t1 - get_item - collate) / n_calls / 1e6,
        t1 / n_calls / 1e6
    ));
    budget.note(format!(
        "get_item closes: decode {:.3} + Loader rest {:.3} + ops {:.3} + remainder {:.3} = get_item {:.3} ms per call",
        codec / n_calls / 1e6,
        (loader - codec) / n_calls / 1e6,
        transforms_ops / n_calls / 1e6,
        (get_item - loader - transforms_ops) / n_calls / 1e6,
        get_item / n_calls / 1e6
    ));
    budget.report(out);
}
