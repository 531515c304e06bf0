//! The real-compute path: a small epoch where every image is actually
//! synthesized, SJPG-encoded, decoded and transformed — pixels and all —
//! through exactly the same public API the cost-only simulations use.
//!
//! ```sh
//! cargo run --release --example real_decode
//! ```
//!
//! The example validates itself: it re-decodes every record of the
//! dataset and compares an FNV-1a hash of the decoded pixels against a
//! pinned value, printing `DECODE OK` only on a match. A kernel rewrite
//! that changes one decoded byte fails here.

use std::error::Error;
use std::sync::Arc;

use lotus::codec::Codec;
use lotus::core::trace::LotusTrace;
use lotus::data::dist::LogNormal;
use lotus::data::ImageDatasetModel;
use lotus::dataflow::{DataLoaderConfig, FaultPlan, GpuConfig, LoaderMutation, TrainingJob};
use lotus::sim::Span;
use lotus::transforms::{Normalize, RandomHorizontalFlip, RandomResizedCrop, ToTensor};
use lotus::uarch::{CpuThread, Machine, MachineConfig};
use lotus::workloads::{ImageFolderDataset, IoModel};

/// FNV-1a over the decoded pixels of every record, in index order.
const DECODED_PIXELS_FNV: u64 = 0x3948_e163_8c46_ecde;

fn main() -> Result<(), Box<dyn Error>> {
    let machine = Machine::new(MachineConfig::cloudlab_c4130());

    // A tiny dataset of small images (materialization decodes real pixels,
    // so keep this modest).
    let model = ImageDatasetModel::custom(
        "tiny-imagenet",
        64,
        42,
        LogNormal::from_mean_std(9_000.0, 4_000.0),
        (96, 160),
        0.55,
    );
    let transforms = lotus::transforms::Compose::new(
        &machine,
        vec![
            Box::new(RandomResizedCrop::new(&machine, 64)),
            Box::new(RandomHorizontalFlip::new(&machine, 0.5)),
            Box::new(ToTensor::new(&machine)),
            Box::new(Normalize::imagenet(&machine)),
        ],
    );
    let dataset =
        ImageFolderDataset::new(&machine, model.clone(), IoModel::local_nvme(), transforms)
            .materialized(); // ← real pixels: synthesize → encode → decode

    let trace = Arc::new(LotusTrace::new());
    let report = TrainingJob {
        machine: Arc::clone(&machine),
        dataset: Arc::new(dataset),
        storage: None,
        loader: DataLoaderConfig {
            batch_size: 8,
            num_workers: 2,
            ..DataLoaderConfig::default()
        },
        gpu: GpuConfig::v100(1, Span::from_micros(500)),
        tracer: Arc::clone(&trace) as _,
        hw_profiler: None,
        seed: 7,
        epochs: 1,
        faults: FaultPlan::default(),
        controller: None,
        mutation: LoaderMutation::None,
    }
    .run()?;

    println!(
        "real-decode epoch: {} batches / {} images, {:.1} ms of virtual time",
        report.batches,
        report.samples,
        report.elapsed.as_millis_f64()
    );
    println!("\nper-op elapsed time over real pixel data:");
    for op in trace.op_stats() {
        println!(
            "  {:<24} avg {:>8.3} ms over {} executions",
            op.name, op.summary.mean, op.count
        );
    }
    println!(
        "\nEvery image above went through the full SJPG decode (entropy decode, \
         IDCT, chroma upsample, YCbCr→RGB) and real bilinear resampling."
    );

    // Self-check: the decoder's output bytes are pinned.
    let codec = Codec::new(&machine);
    let mut cpu = CpuThread::new(Arc::clone(&machine));
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for index in 0..model.len() {
        let encoded = codec.encode(&model.record(index).materialize(), 85, &mut cpu);
        for &b in codec.decode(&encoded, &mut cpu)?.pixels() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    if hash != DECODED_PIXELS_FNV {
        return Err(format!(
            "decoded pixels hash to {hash:#018x}, expected {DECODED_PIXELS_FNV:#018x}"
        )
        .into());
    }
    println!(
        "DECODE OK: {} records, pixels hash {hash:#018x}",
        model.len()
    );
    Ok(())
}
