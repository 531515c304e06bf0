//! Criterion micro-benchmarks of the substrates themselves: simulation
//! queue throughput, codec decode, kernel cost evaluation, histogram
//! ingestion, and the per-event trace and metrics hot path.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use lotus_codec::Codec;
use lotus_core::metrics::{names, MetricsRegistry, MetricsSink, MultiSink};
use lotus_core::trace::hist::LogHistogram;
use lotus_core::trace::{LotusTrace, LotusTraceConfig, OpLogMode};
use lotus_data::Image;
use lotus_dataflow::Tracer;
use lotus_sim::{Simulation, Span, Time};
use lotus_uarch::{CostCoeffs, CpuThread, Machine, MachineConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_sim_queue(c: &mut Criterion) {
    c.bench_function("sim_queue_1000_messages", |b| {
        b.iter(|| {
            let mut sim = Simulation::new();
            let q = sim.queue::<u64>("bench", Some(16));
            let tx = q.clone();
            sim.spawn("producer", move |ctx| {
                for i in 0..1000 {
                    tx.push(&ctx, i);
                }
            });
            sim.spawn("consumer", move |ctx| {
                for _ in 0..1000 {
                    let _ = q.pop(&ctx);
                }
            });
            sim.run().unwrap()
        });
    });
}

fn bench_codec_decode(c: &mut Criterion) {
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let codec = Codec::new(&machine);
    let mut cpu = CpuThread::new(Arc::clone(&machine));
    let image = Image::synthetic(128, 128, &mut StdRng::seed_from_u64(1));
    let encoded = codec.encode(&image, 85, &mut cpu);
    c.bench_function("codec_decode_128x128", |b| {
        b.iter(|| codec.decode(&encoded, &mut cpu).unwrap());
    });
}

fn bench_cost_model(c: &mut Criterion) {
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let kernel = machine.kernel("bench_kernel", "lib", CostCoeffs::compute_default());
    let mut cpu = CpuThread::new(Arc::clone(&machine));
    c.bench_function("kernel_cost_evaluation", |b| {
        b.iter(|| cpu.exec(kernel, 10_000.0));
    });
}

fn bench_histogram(c: &mut Criterion) {
    c.bench_function("log_histogram_record", |b| {
        let mut h = LogHistogram::new();
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(7919);
            h.record(Span::from_nanos(1 + i % 10_000_000));
        });
    });
}

/// Events per iteration of the trace and metrics rows: enough that one
/// iteration is a trial-sized burst rather than a timer read.
const EVENTS: u64 = 10_000;

fn bench_trace_sinks(c: &mut Criterion) {
    // Wired as `lotus::tuning::run_trial` wires its sinks: a full-mode,
    // zero-overhead LotusTrace and a zero-overhead MetricsSink behind one
    // MultiSink, fresh for every burst.
    c.bench_function("trace_multisink_on_op", |b| {
        b.iter(|| {
            let trace = Arc::new(LotusTrace::with_config(LotusTraceConfig {
                per_log_overhead: Span::ZERO,
                op_mode: OpLogMode::Full,
            }));
            let registry = Arc::new(MetricsRegistry::new());
            let metrics = Arc::new(MetricsSink::with_overhead(registry, 2, Span::ZERO));
            let sinks = MultiSink::new().with(trace as _).with(metrics as _);
            for i in 0..EVENTS {
                let _ = sinks.on_op(
                    4243,
                    i / 128,
                    "Normalize",
                    Time::from_nanos(i * 1_000),
                    Span::from_nanos(750),
                );
            }
            sinks
        });
    });
}

fn bench_registry(c: &mut Criterion) {
    let registry = MetricsRegistry::new();
    registry.inc_counter(names::OPS, 1);
    registry.set_gauge(names::IN_FLIGHT, Time::ZERO, 0.0);
    registry.record_latency(names::T3_OP, Span::from_nanos(1));
    c.bench_function("metrics_registry_update_existing_key", |b| {
        b.iter(|| {
            for i in 0..EVENTS {
                registry.inc_counter(names::OPS, 1);
                registry.set_gauge(names::IN_FLIGHT, Time::from_nanos(i), (i % 4) as f64);
                registry.record_latency(names::T3_OP, Span::from_nanos(1 + i));
            }
        });
    });
}

criterion_group!(
    benches,
    bench_sim_queue,
    bench_codec_decode,
    bench_cost_model,
    bench_histogram,
    bench_trace_sinks,
    bench_registry
);
criterion_main!(benches);
