//! Bit-identity of the real-pixel IC path.
//!
//! The synthesizer, the SJPG encoder and decoder, and the IC transform
//! chain are tuned for speed, but every fast path must produce the same
//! bytes as the straightforward code it replaced. These FNV-1a hashes
//! pin four stages per image: the synthetic pixels, the encoded payload,
//! the decoded pixels and the post-`ic_transforms` tensor. They were
//! recorded from the implementation that predates the fast paths
//! (`f64::round` stores, per-pixel colour conversion, bit-by-bit I/O,
//! 128-bit integer sampling), so a mismatch means an optimization changed
//! an output byte, not that the hashes need re-recording.

use std::sync::Arc;

use lotus::codec::Codec;
use lotus::data::{Image, ImageDatasetModel};
use lotus::transforms::{Sample, TransformCtx};
use lotus::uarch::{CpuThread, Machine, MachineConfig};
use lotus::workloads::ic_transforms;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The quality the materialized `ImageFolderDataset` encodes at.
const LOADER_QUALITY: u8 = 85;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `[synthetic, encoded, decoded, tensor]` hashes for one image.
fn stage_hashes(image: &Image, quality: u8, transform_seed: u64) -> [u64; 4] {
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let codec = Codec::new(&machine);
    let mut cpu = CpuThread::new(Arc::clone(&machine));
    let encoded = codec.encode(image, quality, &mut cpu);
    let decoded = codec.decode(&encoded, &mut cpu).expect("decode");
    let decoded_hash = fnv1a(decoded.pixels().iter().copied());
    let mut rng = StdRng::seed_from_u64(transform_seed);
    let mut ctx = TransformCtx {
        cpu: &mut cpu,
        rng: &mut rng,
    };
    let out = ic_transforms(&machine)
        .apply(Sample::image(decoded), &mut ctx)
        .expect("transforms");
    let Sample::Tensor {
        data: Some(tensor), ..
    } = out
    else {
        panic!("ic_transforms must yield a materialized tensor");
    };
    let values = tensor.try_as_f32().expect("f32 tensor");
    [
        fnv1a(image.pixels().iter().copied()),
        fnv1a(encoded.payload().iter().copied()),
        decoded_hash,
        fnv1a(values.iter().flat_map(|v| v.to_bits().to_le_bytes())),
    ]
}

#[test]
fn imagenet_records_are_bit_identical() {
    let model = ImageDatasetModel::imagenet(263);
    let got: Vec<[u64; 4]> = (0..6)
        .map(|i| stage_hashes(&model.record(i).materialize(), LOADER_QUALITY, 263 + i))
        .collect();
    let want: [[u64; 4]; 6] = [
        [
            0x48047ae7214e713e,
            0x863095a7e6ebd293,
            0xd392307174ab05d8,
            0x0a67387797b62c78,
        ],
        [
            0xc6c973f6637a585d,
            0xf5326eb3cd76cc89,
            0x11a7da3ce603a689,
            0x6fa781538081a880,
        ],
        [
            0xa00886fd6373d4a5,
            0xfc480c9d4830cd26,
            0x6399db80ab126bfb,
            0x9976ba722ecb63ca,
        ],
        [
            0xb5a83f689b130d20,
            0xe1b85e916f11dcb3,
            0x0558aa296dcf345d,
            0x4ae25bbd1d7258c6,
        ],
        [
            0xa6fcf63c88939719,
            0xadb46493a16b6e57,
            0x9587619a5c1d563c,
            0xbfe9eb9f746675d0,
        ],
        [
            0x009748fb12ce4933,
            0x0b546c7bcf8462c3,
            0x1ebcc9f69df49610,
            0xd2de57649c4cae30,
        ],
    ];
    assert_eq!(got, want);
}

#[test]
fn odd_sizes_are_bit_identical() {
    let cases: [(usize, usize, u8); 5] = [
        (17, 23, 85),
        (1, 1, 85),
        (8, 4200, 50),
        (31, 9, 1),
        (40, 56, 100),
    ];
    let got: Vec<[u64; 4]> = cases
        .iter()
        .enumerate()
        .map(|(i, &(h, w, q))| {
            let image = Image::synthetic(h, w, &mut StdRng::seed_from_u64(0x51 + i as u64));
            stage_hashes(&image, q, i as u64)
        })
        .collect();
    let want: [[u64; 4]; 5] = [
        [
            0xe2de6e16a231db71,
            0x0f232477943ee94e,
            0x78424ff1c2eecddb,
            0xdc23f364ab17457b,
        ],
        [
            0xe1e91b1870ebe250,
            0x120c1ea692350069,
            0xe1e91b1870ebe250,
            0x6181f83059a3d325,
        ],
        [
            0x450d3d1162e59e14,
            0x8b79824ccc5af84f,
            0x9779e43d228c5b4d,
            0x35b7a6b332463b88,
        ],
        [
            0xaec287b7a6d66c74,
            0x7064a628ab8ca45b,
            0x908ed50c12cfc4dd,
            0xd655aebc48397406,
        ],
        [
            0xeddf922dd9ee6a80,
            0x767decd6ccb04fc6,
            0x9703b67a608b8676,
            0x56ed9237beb32eb6,
        ],
    ];
    assert_eq!(got, want);
}
