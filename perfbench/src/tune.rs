//! The `sim-tune-ic` workload: a `tune_experiment` grid sweep over
//! `SearchSpace::default()` of simulated IC, `jobs = 2`, trial cache off.
//!
//! The timed run calls `lotus::tuning::tune_experiment`. The traced run
//! drives `Tuner::run_with` itself with a timing oracle that performs the
//! steps of `lotus::tuning::run_trial` (build, simulate, fold), each
//! timed, with the job's dataset and tracer wrapped. Its report must be
//! byte-identical to the untraced one.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use lotus::core::exec::fnv1a64;
use lotus::core::metrics::{MetricsRegistry, MetricsSink, MultiSink};
use lotus::core::trace::analysis::op_class_totals;
use lotus::core::trace::{LotusTrace, LotusTraceConfig, OpLogMode, SpanKind};
use lotus::core::tune::{SearchSpace, Strategy, TrialConfig, TrialMeasurement, TuneReport, Tuner};
use lotus::dataflow::FaultPlan;
use lotus::sim::Span;
use lotus::tuning::{baseline_trial, tune_experiment, TuneOptions};
use lotus::uarch::{Machine, MachineConfig};
use lotus::workloads::{ExperimentConfig, PipelineKind};

use crate::output::{peak_rss_kb, reset_peak_rss, Outcome};
use crate::stats::{median, min_samples_for, percentile};
use crate::wrap::{TimedDataset, TimedTracer};
use crate::{nanos, Budget, DEFAULT_SEED, HELD_OUT_SEED};

/// Items of the simulated IC dataset each trial runs one epoch over.
pub const ITEMS: u64 = 4_096;
/// Items of the warm-up sweep made during set-up.
pub const WARMUP_ITEMS: u64 = 1_024;
/// Parallel measurement threads.
pub const JOBS: usize = 2;

/// `fnv1a64(TuneReport::to_json())` recorded for the default and the
/// held-out seed. Any change to a simulated statistic — including one
/// caused by a host-speed change leaking into the simulation — changes
/// the hash.
pub const RECORDED_REPORT_HASHES: [(u64, u64); 2] = [
    (DEFAULT_SEED, 0x20a0_2a61_63ce_6a02),
    (HELD_OUT_SEED, 0xbc45_3c21_cea2_3b63),
];

/// The simulated IC experiment: paper-default IC (batch 128) over
/// `items` items with seed `seed`.
#[must_use]
pub fn experiment(seed: u64, items: u64) -> ExperimentConfig {
    let mut e = ExperimentConfig::paper_default(PipelineKind::ImageClassification).scaled_to(items);
    e.seed = seed;
    e
}

/// The sweep's options: default grid, no faults, [`JOBS`] threads, no
/// trial cache (a cache hit would make every repeat meaningless).
#[must_use]
pub fn options() -> TuneOptions {
    TuneOptions {
        space: SearchSpace::default(),
        strategy: Strategy::Grid,
        faults: FaultPlan::default(),
        jobs: JOBS,
        cache_dir: None,
    }
}

/// Trials in one sweep.
#[must_use]
pub fn grid_size() -> usize {
    SearchSpace::default().grid().len()
}

/// Parameters for the provenance block.
#[must_use]
pub fn params() -> Vec<(&'static str, String)> {
    let e = experiment(0, ITEMS);
    vec![
        ("pipeline", "IC".to_string()),
        ("backend", "sim".to_string()),
        ("items", ITEMS.to_string()),
        ("batch_size", e.batch_size.to_string()),
        ("strategy", "grid".to_string()),
        ("trials", grid_size().to_string()),
        ("jobs", JOBS.to_string()),
        ("cache", "off".to_string()),
        ("min_sweeps", min_samples_for(0.9).to_string()),
        ("warmup_items", WARMUP_ITEMS.to_string()),
    ]
}

/// The sweep gates: every trial ran live and succeeded, and the report
/// matches `expected` (the first sweep of the run) and, for a seed with a
/// recorded hash, that hash.
pub fn check_report(
    out: &mut Outcome,
    seed: u64,
    report: &TuneReport,
    expected: &mut Option<String>,
) {
    let trials = grid_size();
    out.attempted += trials as u64;
    let failed = report.cards.iter().filter(|c| !c.is_ok()).count();
    out.failed += failed as u64;
    out.gate(failed == 0, || format!("{failed} trials failed"));
    out.gate(
        report.trials_live == trials && report.trials_cached == 0,
        || {
            format!(
                "{} live and {} cached trials, expected {trials} live",
                report.trials_live, report.trials_cached
            )
        },
    );
    let json = report.to_json();
    match expected {
        Some(first) => out.gate(*first == json, || {
            "sweep reports differ within one run".to_string()
        }),
        None => {
            let hash = fnv1a64(json.as_bytes());
            if let Some(&(_, recorded)) = RECORDED_REPORT_HASHES.iter().find(|(s, _)| *s == seed) {
                out.gate(hash == recorded, || {
                    format!("report hash {hash:#018x} differs from the recorded {recorded:#018x}")
                });
            }
            out.details
                .push(format!("report hash {hash:#018x} (seed {seed})"));
            *expected = Some(json);
        }
    }
}

/// Simulated samples and batches over a report's trials.
fn simulated(report: &TuneReport) -> (u64, u64) {
    report
        .cards
        .iter()
        .fold((0, 0), |(s, b), c| (s + c.samples, b + c.batches))
}

/// The timed sweeps of one run.
#[derive(Debug, Default)]
pub struct Timed {
    /// Wall of each sweep, ns.
    pub sweep_ns: Vec<u64>,
    /// Simulated samples over all sweeps.
    pub samples: u64,
    /// Host ms per simulated batch, one value per sweep.
    pub ms_per_batch: Vec<f64>,
    /// Peak resident set of each sweep, kB.
    pub peak_kb: Vec<u64>,
    /// The run's report, for the traced run to compare against.
    pub json: Option<String>,
}

impl Timed {
    fn measured_s(&self) -> f64 {
        self.sweep_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Simulated samples per wall second of the timed sweeps.
    #[must_use]
    pub fn samples_per_s(&self) -> f64 {
        self.samples as f64 / self.measured_s()
    }
}

/// Runs `tune_experiment` sweeps until `seconds` are measured and enough
/// sweeps exist for a p90, or until `deadline`.
pub fn timed(seed: u64, seconds: f64, deadline: Instant, out: &mut Outcome) -> Timed {
    let mut t = Timed::default();
    let experiment = experiment(seed, ITEMS);
    let options = options();
    let need = min_samples_for(0.9);
    while !((t.measured_s() >= seconds && t.sweep_ns.len() >= need) || Instant::now() >= deadline) {
        reset_peak_rss();
        let started = Instant::now();
        let result = tune_experiment(&experiment, &options);
        let elapsed = nanos(started.elapsed());
        t.peak_kb.push(peak_rss_kb().unwrap_or(0));
        match result {
            Ok(report) => {
                check_report(out, seed, &report, &mut t.json);
                let (samples, batches) = simulated(&report);
                t.sweep_ns.push(elapsed);
                t.samples += samples;
                t.ms_per_batch.push(elapsed as f64 / 1e6 / batches as f64);
            }
            Err(e) => {
                out.attempted += grid_size() as u64;
                out.failed += grid_size() as u64;
                out.gate(false, || format!("tune_experiment failed: {e}"));
                break;
            }
        }
    }
    t
}

/// End-to-end metrics of a timed sweep run.
pub fn report_timed(t: &Timed, setup_s: f64, out: &mut Outcome) {
    let sweeps = t.sweep_ns.len();
    out.push(
        "samples_per_s",
        t.samples_per_s(),
        "1/s",
        format!(
            "{} simulated samples in {sweeps} sweeps, {:.2} s",
            t.samples,
            t.measured_s()
        ),
    );
    for (name, q) in [("batch_p50_ms", 0.5), ("batch_p90_ms", 0.9)] {
        match percentile(&t.ms_per_batch, q) {
            Ok(v) => out.push(
                name,
                v,
                "ms",
                format!("host ms per simulated batch, n={sweeps} sweeps"),
            ),
            Err(e) => {
                out.gate(false, || format!("{name}: {e}"));
                out.push(name, f64::NAN, "ms", format!("n={sweeps} sweeps"));
            }
        }
    }
    let peaks: Vec<f64> = t.peak_kb.iter().map(|&kb| kb as f64 / 1024.0).collect();
    out.push(
        "peak_rss_mb",
        median(&peaks).unwrap_or(f64::NAN),
        "MB",
        format!("median over {} sweeps of each sweep's peak", peaks.len()),
    );
    out.push(
        "setup_s",
        setup_s,
        "s",
        "median of the set-up repeats".to_string(),
    );
}

/// One traced trial.
#[derive(Debug)]
pub struct TrialTrace {
    /// Start and end of the oracle call.
    pub span: (Instant, Instant),
    /// `ExperimentConfig::build_with`, ns.
    pub build_ns: u64,
    /// `TrainingJob::run`, ns.
    pub run_ns: u64,
    /// Snapshot + `op_class_totals`, ns.
    pub fold_ns: u64,
    /// `get_item` calls and ns.
    pub get_item: (u64, u64),
    /// All tracer hook calls and ns.
    pub hooks: (u64, u64),
    /// Hook ns spent inside `get_item`.
    pub hooks_in_get_item_ns: u64,
    /// Simulated samples.
    pub samples: u64,
    /// Trace records.
    pub records: u64,
    /// Serialized LotusTrace log bytes.
    pub log_bytes: u64,
    /// Batches served from the reorder buffer in the simulated trace.
    pub out_of_order: u64,
    /// Batches re-sent after a worker death.
    pub redispatched: u64,
}

/// The steps of `lotus::tuning::run_trial`, each timed, with the job's
/// dataset and tracer wrapped.
///
/// # Errors
///
/// Returns the loader-validation or job error, as `run_trial` does.
pub fn traced_trial(
    experiment: &ExperimentConfig,
    trial: &TrialConfig,
) -> Result<(TrialMeasurement, TrialTrace), String> {
    let started = Instant::now();
    let loader = trial.apply(experiment.loader_defaults());
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
    let build_started = Instant::now();
    let mut job = experiment.build_with(&machine, sinks as _, None, loader, FaultPlan::default());
    let build_ns = nanos(build_started.elapsed());
    let dataset = Arc::new(TimedDataset::new(Arc::clone(&job.dataset)));
    let tracer = Arc::new(TimedTracer::new(Arc::clone(&job.tracer)));
    job.dataset = Arc::clone(&dataset) as _;
    job.tracer = Arc::clone(&tracer) as _;
    let run_started = Instant::now();
    let report = job.run().map_err(|e| e.to_string())?;
    let run_ns = nanos(run_started.elapsed());
    let fold_started = Instant::now();
    let records = trace.records();
    let measurement = TrialMeasurement {
        elapsed: report.elapsed,
        batches: report.batches,
        samples: report.samples,
        snapshot: registry.snapshot(),
        op_classes: op_class_totals(&records),
    };
    let fold_ns = nanos(fold_started.elapsed());
    let count = |f: &dyn Fn(&lotus::core::trace::TraceRecord) -> bool| {
        records.iter().filter(|r| f(r)).count() as u64
    };
    let trace_row = TrialTrace {
        span: (started, Instant::now()),
        build_ns,
        run_ns,
        fold_ns,
        get_item: (dataset.get_item.calls(), dataset.get_item.ns()),
        hooks: (tracer.calls(), tracer.ns()),
        hooks_in_get_item_ns: tracer.in_get_item.ns(),
        samples: report.samples,
        records: records.len() as u64,
        log_bytes: trace.log_storage_bytes(),
        out_of_order: count(&|r| r.kind == SpanKind::BatchWait && r.out_of_order),
        redispatched: count(&|r| r.kind == SpanKind::BatchRedispatched),
    };
    Ok((measurement, trace_row))
}

/// One traced sweep.
#[derive(Debug)]
pub struct SweepTrace {
    /// Wall of the sweep, ns.
    pub wall_ns: u64,
    /// Its trials.
    pub trials: Vec<TrialTrace>,
}

impl SweepTrace {
    /// Wall ns during which at least one trial ran.
    #[must_use]
    pub fn covered_ns(&self) -> u64 {
        let mut spans: Vec<(Instant, Instant)> = self.trials.iter().map(|t| t.span).collect();
        spans.sort();
        let mut covered = 0;
        let mut current: Option<(Instant, Instant)> = None;
        for (s, e) in spans {
            current = match current {
                Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    covered += nanos(ce - cs);
                    Some((s, e))
                }
                None => Some((s, e)),
            };
        }
        covered + current.map_or(0, |(s, e)| nanos(e - s))
    }
}

/// Runs traced sweeps until `seconds` are measured, or until `deadline`,
/// gating each report against the untraced one.
pub fn traced(
    seed: u64,
    seconds: f64,
    deadline: Instant,
    expected: &mut Option<String>,
    out: &mut Outcome,
) -> Vec<SweepTrace> {
    let experiment = experiment(seed, ITEMS);
    let options = options();
    let tuner = Tuner {
        space: options.space.clone(),
        strategy: options.strategy,
    };
    let mut sweeps: Vec<SweepTrace> = Vec::new();
    while !(sweeps.iter().map(|s| s.wall_ns).sum::<u64>() as f64 / 1e9 >= seconds
        || Instant::now() >= deadline)
    {
        let trials: Mutex<Vec<TrialTrace>> = Mutex::new(Vec::new());
        let started = Instant::now();
        let result = tuner.run_with(
            baseline_trial(&experiment),
            |trial| {
                traced_trial(&experiment, trial).map(|(measurement, row)| {
                    trials.lock().expect("trial log poisoned").push(row);
                    measurement
                })
            },
            options.jobs,
            None,
        );
        let wall_ns = nanos(started.elapsed());
        match result {
            Ok(report) => check_report(out, seed, &report, expected),
            Err(e) => {
                out.attempted += grid_size() as u64;
                out.failed += grid_size() as u64;
                out.gate(false, || format!("traced sweep failed: {e}"));
                break;
            }
        }
        sweeps.push(SweepTrace {
            wall_ns,
            trials: trials.into_inner().expect("trial log poisoned"),
        });
    }
    sweeps
}

/// Per-layer metrics of a traced sweep run. `untraced_sps` is the same
/// invocation's timed samples/s, the base of `trace_overhead_frac`.
pub fn report_traced(sweeps: &[SweepTrace], untraced_sps: f64, out: &mut Outcome) {
    let trials: Vec<&TrialTrace> = sweeps.iter().flat_map(|s| s.trials.iter()).collect();
    let sum =
        |f: &dyn Fn(&TrialTrace) -> u64| -> f64 { trials.iter().map(|t| f(t)).sum::<u64>() as f64 };
    let n_sweeps = sweeps.len() as f64;
    let n_trials = trials.len() as f64;
    let wall: f64 = sweeps.iter().map(|s| s.wall_ns as f64).sum();
    let covered: f64 = sweeps.iter().map(|s| s.covered_ns() as f64).sum();
    let samples = sum(&|t| t.samples);
    let build = sum(&|t| t.build_ns);
    let run = sum(&|t| t.run_ns);
    let fold = sum(&|t| t.fold_ns);
    let get_item = sum(&|t| t.get_item.1);
    let get_item_calls = sum(&|t| t.get_item.0);
    let hooks = sum(&|t| t.hooks.1);
    let hook_calls = sum(&|t| t.hooks.0);
    let hooks_in_get_item = sum(&|t| t.hooks_in_get_item_ns);
    let trial_wall = sum(&|t| nanos(t.span.1 - t.span.0));
    let note = || format!("{samples} simulated samples, {n_trials} trials, {n_sweeps} sweeps");
    let zero = |out: &mut Outcome, name: &'static str, unit: &'static str| {
        out.push(
            name,
            0.0,
            unit,
            "not exercised: simulated time only".to_string(),
        );
    };

    out.push(
        "workloads.get_item_us",
        get_item / get_item_calls / 1e3,
        "us",
        format!("{get_item_calls} calls"),
    );
    zero(out, "workloads.loader_unattributed_ms_per_image", "ms");
    out.push(
        "workloads.build_ms",
        build / n_trials / 1e6,
        "ms",
        format!("per trial, {n_trials} builds"),
    );
    zero(out, "codec.decode_ms_per_image", "ms");
    for metric in crate::DECODE_KERNEL_METRICS {
        zero(out, metric, "ms");
    }
    zero(out, "codec.other_ms_per_image", "ms");
    for metric in crate::OP_METRICS {
        zero(out, metric, "ms");
    }
    zero(out, "transforms.collate_ms_per_batch", "ms");
    for name in [
        "dataflow.fetch_p50_ms",
        "dataflow.fetch_p90_ms",
        "dataflow.wait_p50_ms",
        "dataflow.queue_delay_p50_ms",
    ] {
        zero(out, name, "ms");
    }
    zero(out, "dataflow.dispatch_lag_us_p50", "us");
    zero(out, "dataflow.worker_busy_frac", "fraction");
    zero(out, "dataflow.worker_overhead_us_per_batch", "us");
    zero(out, "dataflow.main_busy_us_per_batch", "us");
    out.push(
        "dataflow.out_of_order_batches",
        sum(&|t| t.out_of_order),
        "count",
        note(),
    );
    out.push(
        "dataflow.redispatched_batches",
        sum(&|t| t.redispatched),
        "count",
        note(),
    );
    out.push(
        "sim.run_ms_per_trial",
        (run - hooks) / n_trials / 1e6,
        "ms",
        "TrainingJob::run minus tracer hooks".to_string(),
    );
    out.push(
        "sim.host_ns_per_sample",
        (run - hooks) / samples,
        "ns",
        note(),
    );
    out.push(
        "core.tracer_calls_per_sample",
        hook_calls / samples,
        "count",
        note(),
    );
    out.push(
        "core.tracer_ns_per_call",
        hooks / hook_calls,
        "ns",
        format!("{hook_calls} hook calls"),
    );
    out.push(
        "core.trace_records_per_sample",
        sum(&|t| t.records) / samples,
        "count",
        note(),
    );
    out.push(
        "core.trace_bytes_per_sample",
        sum(&|t| t.log_bytes) / samples,
        "B",
        note(),
    );
    out.push(
        "core.fold_ms",
        fold / n_sweeps / 1e6,
        "ms",
        "all trial folds of one sweep".to_string(),
    );
    out.push(
        "core.tune_self_ms",
        (wall - covered) / n_sweeps / 1e6,
        "ms",
        "sweep wall with no trial running".to_string(),
    );
    out.push(
        "core.exec_parallel_eff",
        trial_wall / (JOBS as f64 * wall),
        "fraction",
        format!("summed trial wall / ({JOBS} jobs x sweep wall)"),
    );
    zero(out, "uarch.feed_overhead_frac", "fraction");
    let traced_sps = samples / (wall / 1e9);
    out.push(
        "trace_overhead_frac",
        1.0 - traced_sps / untraced_sps,
        "fraction",
        format!("traced {traced_sps:.1} vs untraced {untraced_sps:.1} samples/s"),
    );

    // Thread-time budget per sweep: JOBS measurement threads for the
    // whole sweep.
    let mut budget = Budget::new(n_sweeps, JOBS as f64 * wall);
    budget.add("workloads", "build (per trial)", build);
    budget.add(
        "workloads",
        "get_item minus hooks inside it",
        get_item - hooks_in_get_item,
    );
    budget.add(
        "sim",
        "run minus hooks minus get_item",
        run - (hooks - hooks_in_get_item) - get_item,
    );
    budget.add("core", "tracer hooks", hooks);
    budget.add("core", "fold (per trial)", fold);
    budget.add("core", "tuner with no trial running", wall - covered);
    budget.note(format!(
        "unattributed includes measurement threads left idle while the slowest trial of the wave runs (parallel efficiency {:.3})",
        trial_wall / (JOBS as f64 * wall)
    ));
    budget.note(format!(
        "trial wall not in build/run/fold (machine, sinks): {:.3} ms per sweep",
        (trial_wall - build - run - fold) / n_sweeps / 1e6
    ));
    budget.report(out);
}
