//! Before/after benchmarks of the hot preprocessing kernels the native
//! backend actually runs, each optimized version against the reference
//! it replaced: the 8×8 DCT/IDCT pair in `lotus-codec` (separable +
//! cosine LUT vs. the O(8⁴) textbook reference), the bilinear resize in
//! `lotus-transforms` (separable two-pass vs. the naive per-pixel
//! gather), 4:2:0 colour conversion in both directions (table-driven,
//! row-wise vs. per-pixel f64 with libm `round`), the entropy coder's bit
//! I/O (64-bit word vs. bit by bit) and `Image::synthetic` (hoisted
//! products into a pre-sized buffer vs. per-pixel pushes). Every
//! optimized version is differentially tested against its reference in
//! its home crate; this file tracks the speedup.

use criterion::{criterion_group, criterion_main, Criterion};
use lotus_codec::bits::{BitReader, BitReaderRef, BitWriter, BitWriterRef};
use lotus_codec::color::{
    planar_420_to_rgb, planar_420_to_rgb_ref, rgb_to_planar_420, rgb_to_planar_420_ref,
};
use lotus_codec::dct::{fdct8x8, fdct8x8_ref, idct8x8, idct8x8_ref, BLOCK_LEN};
use lotus_codec::Codec;
use lotus_data::Image;
use lotus_transforms::{resize_bilinear, resize_bilinear_ref};
use lotus_uarch::{CpuThread, Machine, MachineConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sample_block() -> [f64; BLOCK_LEN] {
    let mut block = [0.0; BLOCK_LEN];
    for (i, b) in block.iter_mut().enumerate() {
        *b = ((i * 37) % 256) as f64 - 128.0;
    }
    block
}

fn bench_dct(c: &mut Criterion) {
    let block = sample_block();
    let coeffs = fdct8x8(&block);
    c.bench_function("dct8x8/fdct_separable", |b| b.iter(|| fdct8x8(&block)));
    c.bench_function("dct8x8/fdct_reference", |b| b.iter(|| fdct8x8_ref(&block)));
    c.bench_function("dct8x8/idct_separable", |b| b.iter(|| idct8x8(&coeffs)));
    c.bench_function("dct8x8/idct_reference", |b| b.iter(|| idct8x8_ref(&coeffs)));
}

fn bench_resize(c: &mut Criterion) {
    let img = Image::synthetic(500, 375, &mut StdRng::seed_from_u64(0x0107));
    c.bench_function("resize_bilinear/separable_500x375_to_224", |b| {
        b.iter(|| resize_bilinear(&img, 224, 224));
    });
    c.bench_function("resize_bilinear/reference_500x375_to_224", |b| {
        b.iter(|| resize_bilinear_ref(&img, 224, 224));
    });
}

fn bench_color(c: &mut Criterion) {
    let img = Image::synthetic(500, 375, &mut StdRng::seed_from_u64(0x0107));
    let (h, w) = (img.height(), img.width());
    let planar = rgb_to_planar_420(img.pixels(), h, w);
    c.bench_function("color/rgb_to_planar_420_table_500x375", |b| {
        b.iter(|| rgb_to_planar_420(img.pixels(), h, w));
    });
    c.bench_function("color/rgb_to_planar_420_reference_500x375", |b| {
        b.iter(|| rgb_to_planar_420_ref(img.pixels(), h, w));
    });
    c.bench_function("color/planar_420_to_rgb_fused_500x375", |b| {
        b.iter(|| planar_420_to_rgb(&planar));
    });
    c.bench_function("color/planar_420_to_rgb_reference_500x375", |b| {
        b.iter(|| planar_420_to_rgb_ref(&planar));
    });
}

/// The entropy payload of a 500×375 image, cut into a mixed-width
/// `(value, count)` write sequence shaped like the coder's symbols.
fn payload_writes() -> Vec<(u32, u8)> {
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let mut cpu = CpuThread::new(std::sync::Arc::clone(&machine));
    let img = Image::synthetic(500, 375, &mut StdRng::seed_from_u64(0x0107));
    let encoded = Codec::new(&machine).encode(&img, 85, &mut cpu);
    let mut reader = BitReaderRef::new(encoded.payload());
    let mut writes = Vec::new();
    for &count in [4u8, 3, 8, 6, 8, 1, 12, 8, 2].iter().cycle() {
        match reader.read_bits(count) {
            Ok(value) => writes.push((value, count)),
            Err(_) => break,
        }
    }
    writes
}

fn bench_bits(c: &mut Criterion) {
    let writes = payload_writes();
    let mut w = BitWriter::new();
    for &(v, n) in &writes {
        w.write_bits(v, n);
    }
    let bytes = w.finish();
    c.bench_function("bits/write_word_500x375_payload", |b| {
        b.iter(|| {
            let mut w = BitWriter::new();
            for &(v, n) in &writes {
                w.write_bits(v, n);
            }
            w.finish()
        });
    });
    c.bench_function("bits/write_per_bit_500x375_payload", |b| {
        b.iter(|| {
            let mut w = BitWriterRef::new();
            for &(v, n) in &writes {
                w.write_bits(v, n);
            }
            w.finish()
        });
    });
    c.bench_function("bits/read_word_500x375_payload", |b| {
        b.iter(|| {
            let mut r = BitReader::new(&bytes);
            writes
                .iter()
                .fold(0u32, |acc, &(_, n)| acc ^ r.read_bits(n).unwrap_or(0))
        });
    });
    c.bench_function("bits/read_per_bit_500x375_payload", |b| {
        b.iter(|| {
            let mut r = BitReaderRef::new(&bytes);
            writes
                .iter()
                .fold(0u32, |acc, &(_, n)| acc ^ r.read_bits(n).unwrap_or(0))
        });
    });
}

fn bench_synthetic(c: &mut Criterion) {
    c.bench_function("synthetic/hoisted_500x375", |b| {
        b.iter(|| Image::synthetic(500, 375, &mut StdRng::seed_from_u64(0x0107)));
    });
    c.bench_function("synthetic/reference_500x375", |b| {
        b.iter(|| Image::synthetic_ref(500, 375, &mut StdRng::seed_from_u64(0x0107)));
    });
}

criterion_group!(
    benches,
    bench_dct,
    bench_resize,
    bench_color,
    bench_bits,
    bench_synthetic
);
criterion_main!(benches);
