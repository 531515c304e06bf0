//! The traced run's wrappers must not change what they measure: a
//! wrapped dataset returns the same samples, a wrapped job emits the same
//! trace (byte for byte on the simulator), and a wrapped native run lints
//! exactly as clean as an unwrapped one.

use std::sync::Arc;

use lotus::core::check::{lint_records, LintFinding, ReportFacts};
use lotus::core::trace::LotusTrace;
use lotus::dataflow::{Dataset, ExecutionBackend, NativeBackend, NativeOptions, TrainingJob};
use lotus::transforms::{NullObserver, TransformCtx};
use lotus::uarch::{CpuThread, Machine, MachineConfig};
use lotus::workloads::{ExperimentConfig, PipelineKind};
use lotus_perfbench::native::trace_facts;
use lotus_perfbench::wrap::{mark_main_thread, TimedDataset, TimedTracer};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_ic(items: u64) -> ExperimentConfig {
    let mut e = ExperimentConfig::paper_default(PipelineKind::ImageClassification).scaled_to(items);
    e.batch_size = 8;
    e.num_workers = 2;
    e
}

fn job(experiment: &ExperimentConfig, trace: &Arc<LotusTrace>, materialize: bool) -> TrainingJob {
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let tracer = Arc::clone(trace) as _;
    let loader = experiment.loader_defaults();
    let faults = lotus::dataflow::FaultPlan::default();
    if materialize {
        experiment.build_materialized_with(&machine, tracer, None, loader, faults)
    } else {
        experiment.build_with(&machine, tracer, None, loader, faults)
    }
}

fn wrap(mut job: TrainingJob) -> (TrainingJob, Arc<TimedDataset>, Arc<TimedTracer>) {
    let dataset = Arc::new(TimedDataset::new(Arc::clone(&job.dataset)));
    let tracer = Arc::new(TimedTracer::new(Arc::clone(&job.tracer)));
    job.dataset = Arc::clone(&dataset) as _;
    job.tracer = Arc::clone(&tracer) as _;
    (job, dataset, tracer)
}

fn lint(trace: &LotusTrace, report: &lotus::dataflow::JobReport) -> Vec<LintFinding> {
    lint_records(
        &trace.records(),
        Some(&ReportFacts {
            elapsed: report.elapsed,
            batches: report.batches,
        }),
    )
}

#[test]
fn wrapped_dataset_returns_the_same_samples() {
    let experiment = small_ic(8);
    let trace = Arc::new(LotusTrace::new());
    let built = job(&experiment, &trace, true);
    let (plain, machine) = (built.dataset, built.machine);
    let wrapped = TimedDataset::new(Arc::clone(&plain));
    assert_eq!(wrapped.len(), plain.len());
    for index in 0..plain.len() {
        let get = |dataset: &dyn Dataset| {
            let mut cpu = CpuThread::new(Arc::clone(&machine));
            let mut rng = StdRng::seed_from_u64(index);
            let mut ctx = TransformCtx {
                cpu: &mut cpu,
                rng: &mut rng,
            };
            dataset.get_item(index, &mut ctx, &mut NullObserver)
        };
        let a = get(&*plain).expect("plain get_item");
        let b = get(&wrapped).expect("wrapped get_item");
        assert_eq!(a, b, "item {index} differs through the wrapper");
        assert_eq!(wrapped.cost_hint(index), plain.cost_hint(index));
    }
    assert_eq!(wrapped.get_item.calls(), plain.len());
    assert!(wrapped.get_item.ns() > 0);
}

#[test]
fn wrapped_sim_run_emits_the_identical_trace() {
    let experiment = small_ic(256);
    let plain_trace = Arc::new(LotusTrace::new());
    let plain = job(&experiment, &plain_trace, false)
        .run()
        .expect("plain run");
    let wrapped_trace = Arc::new(LotusTrace::new());
    let (wrapped_job, dataset, tracer) = wrap(job(&experiment, &wrapped_trace, false));
    let wrapped = wrapped_job.run().expect("wrapped run");
    assert_eq!(wrapped.samples, plain.samples);
    assert_eq!(wrapped.batches, plain.batches);
    assert_eq!(wrapped.elapsed, plain.elapsed);
    assert_eq!(wrapped_trace.to_log_string(), plain_trace.to_log_string());
    assert!(lint(&plain_trace, &plain).is_empty());
    assert!(lint(&wrapped_trace, &wrapped).is_empty());
    assert_eq!(dataset.get_item.calls(), plain.samples);
    assert!(tracer.calls() > 0);
    assert!(tracer.in_get_item.calls() <= tracer.calls());
}

#[test]
fn wrapped_native_run_delivers_everything_and_lints_clean_like_an_unwrapped_one() {
    let experiment = small_ic(48);
    let backend = || NativeBackend::new(NativeOptions::default());
    let plain_trace = Arc::new(LotusTrace::new());
    let plain = backend()
        .run(job(&experiment, &plain_trace, true))
        .expect("plain native run");
    let wrapped_trace = Arc::new(LotusTrace::new());
    let (wrapped_job, dataset, tracer) = wrap(job(&experiment, &wrapped_trace, true));
    mark_main_thread();
    let wrapped = backend().run(wrapped_job).expect("wrapped native run");
    assert_eq!(
        (wrapped.samples, wrapped.batches),
        (plain.samples, plain.batches)
    );
    assert_eq!((wrapped.samples, wrapped.batches), (48, 6));
    assert_eq!(lint(&wrapped_trace, &wrapped), lint(&plain_trace, &plain));
    assert!(lint(&wrapped_trace, &wrapped).is_empty());
    assert_eq!(wrapped_trace.records().len(), plain_trace.records().len());
    assert_eq!(dataset.get_item.calls(), 48);
    // Worker hooks (ops, fetches) run off the marked thread, the wait and
    // consume hooks on it.
    assert!(tracer.main.calls() > 0 && tracer.other.calls() > 0);

    // Every batch is dispatched once, and the latency derivation's
    // dispatch instants match the ones the engine reports: after the
    // delivery they are derived from, and within a few ms of it.
    let dispatches = tracer.dispatches();
    let mut ids: Vec<u64> = dispatches.iter().map(|d| d.0).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..6).collect::<Vec<_>>());
    let window = 2 * 2;
    let facts = trace_facts(&wrapped_trace.records(), wrapped.batches, window).expect("facts");
    assert_eq!(facts.latency_ms.len(), 6);
    for (id, at) in dispatches {
        let derived = facts.derived_dispatch[id as usize];
        let lag_ms = (at.as_nanos() as f64 - derived.as_nanos() as f64) / 1e6;
        if id as usize >= window {
            assert!(lag_ms >= 0.0, "batch {id} dispatched before its slot freed");
        }
        assert!(
            lag_ms.abs() < 50.0,
            "batch {id}: derived dispatch off by {lag_ms} ms"
        );
    }
}
