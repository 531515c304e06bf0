//! RGB ↔ YCbCr conversion and 4:2:0 chroma resampling.

use lotus_data::round::round_u8;

/// A planar YCbCr image with 4:2:0 chroma subsampling.
///
/// Luma is full resolution; Cb/Cr are half resolution in both axes
/// (rounded up).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanarYcc {
    /// Luma height (pixels).
    pub height: usize,
    /// Luma width (pixels).
    pub width: usize,
    /// Full-resolution luma plane.
    pub y: Vec<u8>,
    /// Quarter-resolution blue-difference plane.
    pub cb: Vec<u8>,
    /// Quarter-resolution red-difference plane.
    pub cr: Vec<u8>,
}

impl PlanarYcc {
    /// Chroma plane width.
    #[must_use]
    pub fn chroma_width(&self) -> usize {
        self.width.div_ceil(2)
    }

    /// Chroma plane height.
    #[must_use]
    pub fn chroma_height(&self) -> usize {
        self.height.div_ceil(2)
    }
}

/// `coef · (c − offset)` for every 8-bit `c`, computed once at compile
/// time with the same f64 multiply the per-pixel expression would do.
const fn product_table(coef: f64, offset: f64) -> [f64; 256] {
    let mut table = [0.0; 256];
    let mut c = 0;
    while c < 256 {
        table[c] = coef * (c as f64 - offset);
        c += 1;
    }
    table
}

// Forward (encoder) products, `coef · c`.
static Y_R: [f64; 256] = product_table(0.299, 0.0);
static Y_G: [f64; 256] = product_table(0.587, 0.0);
static Y_B: [f64; 256] = product_table(0.114, 0.0);
static CB_R: [f64; 256] = product_table(-0.168_736, 0.0);
static CB_G: [f64; 256] = product_table(0.331_264, 0.0);
/// `0.5 · c`: the blue weight of Cb and the red weight of Cr.
static HALF: [f64; 256] = product_table(0.5, 0.0);
static CR_G: [f64; 256] = product_table(0.418_688, 0.0);
static CR_B: [f64; 256] = product_table(0.081_312, 0.0);

// Inverse (decoder) products, `coef · (c − 128)`.
static R_CR: [f64; 256] = product_table(1.402, 128.0);
static G_CB: [f64; 256] = product_table(0.344_136, 128.0);
static G_CR: [f64; 256] = product_table(0.714_136, 128.0);
static B_CB: [f64; 256] = product_table(1.772, 128.0);

/// Converts one RGB pixel to YCbCr (BT.601 full range, as libjpeg's
/// `rgb_ycc_convert`).
///
/// Each product comes from a 256-entry table; the sums are those of
/// [`rgb_to_ycc_ref`] in the same order, so the result is bit-identical.
#[inline]
#[must_use]
pub fn rgb_to_ycc(rgb: [u8; 3]) -> [u8; 3] {
    let [r, g, b] = rgb.map(usize::from);
    let y = Y_R[r] + Y_G[g] + Y_B[b];
    let cb = CB_R[r] - CB_G[g] + HALF[b] + 128.0;
    let cr = HALF[r] - CR_G[g] - CR_B[b] + 128.0;
    [round_u8(y), round_u8(cb), round_u8(cr)]
}

/// Converts one YCbCr pixel back to RGB (libjpeg's `ycc_rgb_convert`).
///
/// Table-driven like [`rgb_to_ycc`]; bit-identical to [`ycc_to_rgb_ref`].
#[inline]
#[must_use]
pub fn ycc_to_rgb(ycc: [u8; 3]) -> [u8; 3] {
    ycc_to_rgb_with(ycc[0], chroma_terms(ycc[1], ycc[2]))
}

/// The four chroma products one (Cb, Cr) pair contributes: red from Cr,
/// green from Cb and Cr, blue from Cb.
#[inline]
fn chroma_terms(cb: u8, cr: u8) -> [f64; 4] {
    let (cb, cr) = (usize::from(cb), usize::from(cr));
    [R_CR[cr], G_CB[cb], G_CR[cr], B_CB[cb]]
}

#[inline]
fn ycc_to_rgb_with(y: u8, [r_cr, g_cb, g_cr, b_cb]: [f64; 4]) -> [u8; 3] {
    let y = f64::from(y);
    [
        round_u8(y + r_cr),
        round_u8(y - g_cb - g_cr),
        round_u8(y + b_cb),
    ]
}

/// The per-pixel f64 conversion [`rgb_to_ycc`] is tested (and
/// benchmarked) against.
#[must_use]
pub fn rgb_to_ycc_ref(rgb: [u8; 3]) -> [u8; 3] {
    let (r, g, b) = (f64::from(rgb[0]), f64::from(rgb[1]), f64::from(rgb[2]));
    let y = 0.299 * r + 0.587 * g + 0.114 * b;
    let cb = -0.168_736 * r - 0.331_264 * g + 0.5 * b + 128.0;
    let cr = 0.5 * r - 0.418_688 * g - 0.081_312 * b + 128.0;
    [clamp_u8_ref(y), clamp_u8_ref(cb), clamp_u8_ref(cr)]
}

/// The per-pixel f64 conversion [`ycc_to_rgb`] is tested (and
/// benchmarked) against.
#[must_use]
pub fn ycc_to_rgb_ref(ycc: [u8; 3]) -> [u8; 3] {
    let (y, cb, cr) = (
        f64::from(ycc[0]),
        f64::from(ycc[1]) - 128.0,
        f64::from(ycc[2]) - 128.0,
    );
    let r = y + 1.402 * cr;
    let g = y - 0.344_136 * cb - 0.714_136 * cr;
    let b = y + 1.772 * cb;
    [clamp_u8_ref(r), clamp_u8_ref(g), clamp_u8_ref(b)]
}

fn clamp_u8_ref(v: f64) -> u8 {
    v.round().clamp(0.0, 255.0) as u8
}

/// Converts an interleaved RGB buffer to planar 4:2:0 YCbCr, averaging
/// each 2×2 chroma neighbourhood (the encoder's downsample).
///
/// Walks one chroma row (two luma rows) at a time, summing chroma into a
/// row-sized accumulator; the integer averages equal those of
/// [`rgb_to_planar_420_ref`].
///
/// # Panics
///
/// Panics if `rgb.len() != height * width * 3`.
#[must_use]
pub fn rgb_to_planar_420(rgb: &[u8], height: usize, width: usize) -> PlanarYcc {
    assert_eq!(rgb.len(), height * width * 3, "rgb buffer size mismatch");
    let (cw, ch) = (width.div_ceil(2), height.div_ceil(2));
    let mut y_plane = vec![0u8; height * width];
    let mut cb = vec![0u8; ch * cw];
    let mut cr = vec![0u8; ch * cw];
    if width == 0 {
        return PlanarYcc {
            height,
            width,
            y: y_plane,
            cb,
            cr,
        };
    }
    let mut cb_acc = vec![0u32; cw];
    let mut cr_acc = vec![0u32; cw];
    let chroma_rows = cb.chunks_exact_mut(cw).zip(cr.chunks_exact_mut(cw));
    let luma_rows = rgb.chunks(2 * width * 3).zip(y_plane.chunks_mut(2 * width));
    for ((rgb_rows, y_rows), (cb_row, cr_row)) in luma_rows.zip(chroma_rows) {
        cb_acc.fill(0);
        cr_acc.fill(0);
        for (row, y_row) in rgb_rows
            .chunks_exact(width * 3)
            .zip(y_rows.chunks_exact_mut(width))
        {
            let pairs = row.chunks(6).zip(y_row.chunks_mut(2));
            for ((pair, ys), (cb_sum, cr_sum)) in pairs.zip(cb_acc.iter_mut().zip(&mut cr_acc)) {
                for (p, y) in pair.chunks_exact(3).zip(ys) {
                    let [luma, b, r] = rgb_to_ycc([p[0], p[1], p[2]]);
                    *y = luma;
                    *cb_sum += u32::from(b);
                    *cr_sum += u32::from(r);
                }
            }
        }
        let rows = (rgb_rows.len() / (width * 3)) as u32;
        for (cx, (b, r)) in cb_row.iter_mut().zip(cr_row.iter_mut()).enumerate() {
            let n = rows * (width - 2 * cx).min(2) as u32;
            *b = (cb_acc[cx] / n) as u8;
            *r = (cr_acc[cx] / n) as u8;
        }
    }
    PlanarYcc {
        height,
        width,
        y: y_plane,
        cb,
        cr,
    }
}

/// Upsamples the chroma planes (nearest-neighbour, libjpeg's
/// `sep_upsample` in its simplest mode) and converts to interleaved RGB.
///
/// Fused upsample and convert: each (Cb, Cr) sample's products are
/// looked up once for the two pixels of a row that share it, and rows
/// are written into one pre-sized buffer. Bit-identical to
/// [`planar_420_to_rgb_ref`].
#[must_use]
pub fn planar_420_to_rgb(ycc: &PlanarYcc) -> Vec<u8> {
    let (w, cw) = (ycc.width, ycc.chroma_width());
    let mut rgb = vec![0u8; ycc.height * w * 3];
    if w == 0 {
        return rgb;
    }
    let rows = rgb.chunks_exact_mut(w * 3).zip(ycc.y.chunks_exact(w));
    for (py, (out, y_row)) in rows.enumerate() {
        let c0 = (py / 2) * cw;
        let chroma = ycc.cb[c0..c0 + cw].iter().zip(&ycc.cr[c0..c0 + cw]);
        for ((pair, ys), (&cb, &cr)) in out.chunks_mut(6).zip(y_row.chunks(2)).zip(chroma) {
            let terms = chroma_terms(cb, cr);
            for (p, &y) in pair.chunks_exact_mut(3).zip(ys) {
                p.copy_from_slice(&ycc_to_rgb_with(y, terms));
            }
        }
    }
    rgb
}

/// The per-pixel downsample [`rgb_to_planar_420`] is tested (and
/// benchmarked) against.
///
/// # Panics
///
/// Panics if `rgb.len() != height * width * 3`.
#[must_use]
pub fn rgb_to_planar_420_ref(rgb: &[u8], height: usize, width: usize) -> PlanarYcc {
    assert_eq!(rgb.len(), height * width * 3, "rgb buffer size mismatch");
    let mut y_plane = vec![0u8; height * width];
    let cw = width.div_ceil(2);
    let ch = height.div_ceil(2);
    let mut cb_acc = vec![0u32; ch * cw];
    let mut cr_acc = vec![0u32; ch * cw];
    let mut counts = vec![0u32; ch * cw];
    for py in 0..height {
        for px in 0..width {
            let base = (py * width + px) * 3;
            let [y, cb, cr] = rgb_to_ycc_ref([rgb[base], rgb[base + 1], rgb[base + 2]]);
            y_plane[py * width + px] = y;
            let ci = (py / 2) * cw + px / 2;
            cb_acc[ci] += u32::from(cb);
            cr_acc[ci] += u32::from(cr);
            counts[ci] += 1;
        }
    }
    let cb = cb_acc
        .iter()
        .zip(&counts)
        .map(|(&a, &n)| (a / n.max(1)) as u8)
        .collect();
    let cr = cr_acc
        .iter()
        .zip(&counts)
        .map(|(&a, &n)| (a / n.max(1)) as u8)
        .collect();
    PlanarYcc {
        height,
        width,
        y: y_plane,
        cb,
        cr,
    }
}

/// The per-pixel upsample [`planar_420_to_rgb`] is tested (and
/// benchmarked) against.
#[must_use]
pub fn planar_420_to_rgb_ref(ycc: &PlanarYcc) -> Vec<u8> {
    let cw = ycc.chroma_width();
    let mut rgb = Vec::with_capacity(ycc.height * ycc.width * 3);
    for py in 0..ycc.height {
        for px in 0..ycc.width {
            let y = ycc.y[py * ycc.width + px];
            let ci = (py / 2) * cw + px / 2;
            let pixel = ycc_to_rgb_ref([y, ycc.cb[ci], ycc.cr[ci]]);
            rgb.extend_from_slice(&pixel);
        }
    }
    rgb
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primaries_round_trip_approximately() {
        for rgb in [
            [255, 0, 0],
            [0, 255, 0],
            [0, 0, 255],
            [128, 64, 200],
            [0, 0, 0],
            [255, 255, 255],
        ] {
            let back = ycc_to_rgb(rgb_to_ycc(rgb));
            for c in 0..3 {
                assert!(
                    (i32::from(back[c]) - i32::from(rgb[c])).abs() <= 2,
                    "channel {c} of {rgb:?} became {back:?}"
                );
            }
        }
    }

    #[test]
    fn grey_has_neutral_chroma() {
        let [_, cb, cr] = rgb_to_ycc([100, 100, 100]);
        assert_eq!(cb, 128);
        assert_eq!(cr, 128);
    }

    #[test]
    fn planar_round_trip_on_flat_image() {
        let rgb = vec![200u8; 6 * 10 * 3];
        let planar = rgb_to_planar_420(&rgb, 6, 10);
        assert_eq!(planar.cb.len(), 3 * 5);
        let back = planar_420_to_rgb(&planar);
        assert_eq!(back.len(), rgb.len());
        for (a, b) in rgb.iter().zip(&back) {
            assert!((i32::from(*a) - i32::from(*b)).abs() <= 2);
        }
    }

    #[test]
    fn table_conversions_match_the_reference_on_every_input() {
        for v in 0..1u32 << 24 {
            let [a, b, c, _] = v.to_le_bytes();
            assert_eq!(
                rgb_to_ycc([a, b, c]),
                rgb_to_ycc_ref([a, b, c]),
                "rgb {v:#08x}"
            );
            assert_eq!(
                ycc_to_rgb([a, b, c]),
                ycc_to_rgb_ref([a, b, c]),
                "ycc {v:#08x}"
            );
        }
    }

    #[test]
    fn row_wise_planar_conversions_match_the_reference() {
        let mut lcg = 0x2545_f491_4f6c_dd1du64;
        for (h, w) in [
            (1, 1),
            (1, 2),
            (2, 1),
            (5, 7),
            (6, 10),
            (17, 23),
            (8, 421),
            (3, 0),
            (0, 3),
        ] {
            let rgb: Vec<u8> = (0..h * w * 3)
                .map(|_| {
                    lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    (lcg >> 56) as u8
                })
                .collect();
            let planar = rgb_to_planar_420(&rgb, h, w);
            assert_eq!(planar, rgb_to_planar_420_ref(&rgb, h, w), "{h}x{w} forward");
            assert_eq!(
                planar_420_to_rgb(&planar),
                planar_420_to_rgb_ref(&planar),
                "{h}x{w} inverse"
            );
        }
    }

    #[test]
    fn odd_dimensions_are_handled() {
        let rgb = vec![90u8; 5 * 7 * 3];
        let planar = rgb_to_planar_420(&rgb, 5, 7);
        assert_eq!(planar.chroma_height(), 3);
        assert_eq!(planar.chroma_width(), 4);
        let back = planar_420_to_rgb(&planar);
        assert_eq!(back.len(), 5 * 7 * 3);
    }
}
