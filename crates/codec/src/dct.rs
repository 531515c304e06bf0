//! 8×8 forward/inverse DCT, quantization tables and zig-zag scan.

use std::f64::consts::PI;

use lotus_data::round::round_clamp;

/// Blocks are 8×8 samples, as in JPEG.
pub const BLOCK: usize = 8;
/// Samples per block.
pub const BLOCK_LEN: usize = BLOCK * BLOCK;

/// The JPEG Annex K luminance quantization table.
pub const LUMA_QUANT: [u16; BLOCK_LEN] = [
    16, 11, 10, 16, 24, 40, 51, 61, //
    12, 12, 14, 19, 26, 58, 60, 55, //
    14, 13, 16, 24, 40, 57, 69, 56, //
    14, 17, 22, 29, 51, 87, 80, 62, //
    18, 22, 37, 56, 68, 109, 103, 77, //
    24, 35, 55, 64, 81, 104, 113, 92, //
    49, 64, 78, 87, 103, 121, 120, 101, //
    72, 92, 95, 98, 112, 100, 103, 99,
];

/// The JPEG Annex K chrominance quantization table.
pub const CHROMA_QUANT: [u16; BLOCK_LEN] = [
    17, 18, 24, 47, 99, 99, 99, 99, //
    18, 21, 26, 66, 99, 99, 99, 99, //
    24, 26, 56, 99, 99, 99, 99, 99, //
    47, 66, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99,
];

/// The JPEG zig-zag scan order (index `i` of the scan reads flat position
/// `ZIGZAG[i]`).
pub const ZIGZAG: [usize; BLOCK_LEN] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12, 19, 26, 33, 40, 48, 41, 34, 27, 20,
    13, 6, 7, 14, 21, 28, 35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, 58, 59,
    52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

/// Scales a base quantization table by JPEG quality (1–100).
///
/// # Panics
///
/// Panics if `quality` is 0 or greater than 100.
#[must_use]
pub fn scale_quant_table(base: &[u16; BLOCK_LEN], quality: u8) -> [u16; BLOCK_LEN] {
    assert!((1..=100).contains(&quality), "quality must be 1..=100");
    let scale: i64 = if quality < 50 {
        5000 / i64::from(quality)
    } else {
        200 - 2 * i64::from(quality)
    };
    let mut out = [0u16; BLOCK_LEN];
    for (o, &b) in out.iter_mut().zip(base.iter()) {
        let v = (i64::from(b) * scale + 50) / 100;
        *o = v.clamp(1, 255) as u16;
    }
    out
}

/// `cos_table()[u][x] = c(u)/2 · cos((2x+1)·u·π/16)` — one row per
/// frequency, so each 1-D DCT pass is an 8×8 matrix product with fixed
/// coefficients the optimizer can keep in registers and vectorize.
/// (`cos` is not const-evaluable, hence the lazy init.)
fn cos_table() -> &'static [[f64; BLOCK]; BLOCK] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[[f64; BLOCK]; BLOCK]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [[0.0; BLOCK]; BLOCK];
        for (u, row) in t.iter_mut().enumerate() {
            let cu = if u == 0 { 1.0 / 2f64.sqrt() } else { 1.0 };
            for (x, cell) in row.iter_mut().enumerate() {
                *cell = 0.5 * cu * ((2 * x + 1) as f64 * u as f64 * PI / 16.0).cos();
            }
        }
        t
    })
}

/// One separable 1-D DCT pass over the rows of `input`, writing the
/// result transposed. Two passes therefore yield the full 2-D transform
/// with the output back in row-major order. The inner loop is a fixed
/// 8-element dot product over precomputed cosines — no trigonometry, no
/// bounds checks after the chunk split — which autovectorizes cleanly.
#[inline]
fn dct_pass(input: &[f64; BLOCK_LEN], basis: &[[f64; BLOCK]; BLOCK]) -> [f64; BLOCK_LEN] {
    let mut out = [0.0; BLOCK_LEN];
    for (y, row) in input.chunks_exact(BLOCK).enumerate() {
        for (u, coeffs) in basis.iter().enumerate() {
            let mut sum = 0.0;
            for x in 0..BLOCK {
                sum += row[x] * coeffs[x];
            }
            out[u * BLOCK + y] = sum;
        }
    }
    out
}

/// The transposed pass for the inverse transform: reconstructs sample
/// `x` of each row from its 8 frequency coefficients.
#[inline]
fn idct_pass(input: &[f64; BLOCK_LEN], basis: &[[f64; BLOCK]; BLOCK]) -> [f64; BLOCK_LEN] {
    let mut out = [0.0; BLOCK_LEN];
    for (y, row) in input.chunks_exact(BLOCK).enumerate() {
        for x in 0..BLOCK {
            let mut sum = 0.0;
            for (u, coeffs) in basis.iter().enumerate() {
                sum += row[u] * coeffs[x];
            }
            out[x * BLOCK + y] = sum;
        }
    }
    out
}

/// Forward 8×8 DCT-II of one block of centered samples (`sample - 128`).
///
/// Computed as two separable 1-D passes over a precomputed cosine basis
/// (rows, then columns) — O(8³) multiplies instead of the direct O(8⁴)
/// definition, with vectorizable fixed-length inner loops.
#[must_use]
pub fn fdct8x8(block: &[f64; BLOCK_LEN]) -> [f64; BLOCK_LEN] {
    let basis = cos_table();
    dct_pass(&dct_pass(block, basis), basis)
}

/// Inverse 8×8 DCT (DCT-III), producing centered samples. Separable,
/// like [`fdct8x8`].
#[must_use]
pub fn idct8x8(coeffs: &[f64; BLOCK_LEN]) -> [f64; BLOCK_LEN] {
    let basis = cos_table();
    idct_pass(&idct_pass(coeffs, basis), basis)
}

/// Forward DCT by the O(8⁴) textbook definition — the reference the
/// separable implementation is tested (and benchmarked) against.
#[must_use]
pub fn fdct8x8_ref(block: &[f64; BLOCK_LEN]) -> [f64; BLOCK_LEN] {
    let mut out = [0.0; BLOCK_LEN];
    for v in 0..BLOCK {
        for u in 0..BLOCK {
            let cu = if u == 0 { 1.0 / 2f64.sqrt() } else { 1.0 };
            let cv = if v == 0 { 1.0 / 2f64.sqrt() } else { 1.0 };
            let mut sum = 0.0;
            for y in 0..BLOCK {
                for x in 0..BLOCK {
                    sum += block[y * BLOCK + x]
                        * ((2 * x + 1) as f64 * u as f64 * PI / 16.0).cos()
                        * ((2 * y + 1) as f64 * v as f64 * PI / 16.0).cos();
                }
            }
            out[v * BLOCK + u] = 0.25 * cu * cv * sum;
        }
    }
    out
}

/// Inverse DCT by the O(8⁴) textbook definition — see [`fdct8x8_ref`].
#[must_use]
pub fn idct8x8_ref(coeffs: &[f64; BLOCK_LEN]) -> [f64; BLOCK_LEN] {
    let mut out = [0.0; BLOCK_LEN];
    for y in 0..BLOCK {
        for x in 0..BLOCK {
            let mut sum = 0.0;
            for v in 0..BLOCK {
                for u in 0..BLOCK {
                    let cu = if u == 0 { 1.0 / 2f64.sqrt() } else { 1.0 };
                    let cv = if v == 0 { 1.0 / 2f64.sqrt() } else { 1.0 };
                    sum += cu
                        * cv
                        * coeffs[v * BLOCK + u]
                        * ((2 * x + 1) as f64 * u as f64 * PI / 16.0).cos()
                        * ((2 * y + 1) as f64 * v as f64 * PI / 16.0).cos();
                }
            }
            out[y * BLOCK + x] = 0.25 * sum;
        }
    }
    out
}

/// Quantizes DCT coefficients to integers (round half away from zero,
/// clamped to ±2047). Bit-identical to [`quantize_ref`] without its
/// libm `round` calls.
#[must_use]
pub fn quantize(coeffs: &[f64; BLOCK_LEN], table: &[u16; BLOCK_LEN]) -> [i16; BLOCK_LEN] {
    let mut out = [0i16; BLOCK_LEN];
    for i in 0..BLOCK_LEN {
        out[i] = round_clamp(coeffs[i] / f64::from(table[i]), -2047.0, 2047.0) as i16;
    }
    out
}

/// The `f64::round` quantizer [`quantize`] is tested against.
#[must_use]
pub fn quantize_ref(coeffs: &[f64; BLOCK_LEN], table: &[u16; BLOCK_LEN]) -> [i16; BLOCK_LEN] {
    let mut out = [0i16; BLOCK_LEN];
    for i in 0..BLOCK_LEN {
        out[i] = (coeffs[i] / f64::from(table[i]))
            .round()
            .clamp(-2047.0, 2047.0) as i16;
    }
    out
}

/// Dequantizes integer coefficients back to DCT magnitudes.
#[must_use]
pub fn dequantize(quant: &[i16; BLOCK_LEN], table: &[u16; BLOCK_LEN]) -> [f64; BLOCK_LEN] {
    let mut out = [0.0; BLOCK_LEN];
    for i in 0..BLOCK_LEN {
        out[i] = f64::from(quant[i]) * f64::from(table[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_is_a_permutation() {
        let mut seen = [false; BLOCK_LEN];
        for &i in &ZIGZAG {
            assert!(!seen[i], "duplicate zig-zag index {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // DC first, then the two nearest AC coefficients.
        assert_eq!(&ZIGZAG[..3], &[0, 1, 8]);
    }

    #[test]
    fn dct_round_trips_to_within_epsilon() {
        let mut block = [0.0; BLOCK_LEN];
        for (i, b) in block.iter_mut().enumerate() {
            *b = ((i * 37) % 256) as f64 - 128.0;
        }
        let coeffs = fdct8x8(&block);
        let back = idct8x8(&coeffs);
        for i in 0..BLOCK_LEN {
            assert!((block[i] - back[i]).abs() < 1e-6, "sample {i} drifted");
        }
    }

    #[test]
    fn flat_block_has_only_dc_energy() {
        let block = [42.0; BLOCK_LEN];
        let coeffs = fdct8x8(&block);
        assert!((coeffs[0] - 42.0 * 8.0).abs() < 1e-9);
        for (i, &c) in coeffs.iter().enumerate().skip(1) {
            assert!(c.abs() < 1e-9, "AC coefficient {i} should be zero, was {c}");
        }
    }

    #[test]
    fn separable_dct_matches_the_textbook_reference() {
        // A handful of structured and pseudo-random blocks.
        let mut blocks: Vec<[f64; BLOCK_LEN]> = vec![[0.0; BLOCK_LEN], [127.0; BLOCK_LEN]];
        let mut ramp = [0.0; BLOCK_LEN];
        for (i, r) in ramp.iter_mut().enumerate() {
            *r = i as f64 - 32.0;
        }
        blocks.push(ramp);
        let mut lcg: u64 = 0x0107;
        let mut noisy = [0.0; BLOCK_LEN];
        for n in noisy.iter_mut() {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *n = ((lcg >> 33) % 256) as f64 - 128.0;
        }
        blocks.push(noisy);
        for block in &blocks {
            let fast = fdct8x8(block);
            let slow = fdct8x8_ref(block);
            for i in 0..BLOCK_LEN {
                assert!((fast[i] - slow[i]).abs() < 1e-9, "fdct diverges at {i}");
            }
            let fast_back = idct8x8(&fast);
            let slow_back = idct8x8_ref(&slow);
            for i in 0..BLOCK_LEN {
                assert!(
                    (fast_back[i] - slow_back[i]).abs() < 1e-9,
                    "idct diverges at {i}"
                );
            }
        }
    }

    #[test]
    fn quality_scaling_is_monotone() {
        let q10 = scale_quant_table(&LUMA_QUANT, 10);
        let q50 = scale_quant_table(&LUMA_QUANT, 50);
        let q95 = scale_quant_table(&LUMA_QUANT, 95);
        for i in 0..BLOCK_LEN {
            assert!(q10[i] >= q50[i]);
            assert!(q50[i] >= q95[i]);
            assert!(q95[i] >= 1);
        }
        // Quality 50 is the base table.
        assert_eq!(q50, LUMA_QUANT);
    }

    #[test]
    fn quantize_matches_the_f64_round_reference() {
        let mut lcg = 0x9e37_79b9_7f4a_7c15u64;
        for quality in [1, 10, 50, 85, 100] {
            let table = scale_quant_table(&LUMA_QUANT, quality);
            for _ in 0..200 {
                let mut coeffs = [0.0; BLOCK_LEN];
                for (i, c) in coeffs.iter_mut().enumerate() {
                    lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    // Exact half-steps of the table, then arbitrary values
                    // up to past the ±2047 clamp.
                    *c = if i % 2 == 0 {
                        ((lcg >> 51) as i32 - 4096) as f64 * 0.5 * f64::from(table[i])
                    } else {
                        ((lcg >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2.0e6
                    };
                }
                assert_eq!(quantize(&coeffs, &table), quantize_ref(&coeffs, &table));
            }
        }
    }

    #[test]
    fn quantize_dequantize_bounds_error_by_table_step() {
        let mut coeffs = [0.0; BLOCK_LEN];
        for (i, c) in coeffs.iter_mut().enumerate() {
            *c = (i as f64 - 32.0) * 7.3;
        }
        let table = scale_quant_table(&LUMA_QUANT, 75);
        let q = quantize(&coeffs, &table);
        let back = dequantize(&q, &table);
        for i in 0..BLOCK_LEN {
            assert!(
                (coeffs[i] - back[i]).abs() <= f64::from(table[i]) / 2.0 + 1e-9,
                "error at {i} exceeds half a quant step"
            );
        }
    }
}
