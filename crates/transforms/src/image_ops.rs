//! Image-domain transforms: the IC/OD pipeline operations.

use lotus_data::round::round_u8;
use lotus_data::{DType, Image, Tensor};
use lotus_uarch::{CostCoeffs, KernelId, Machine, Vendor};
use rand::Rng;

use crate::error::PipelineError;
use crate::sample::Sample;
use crate::transform::{Transform, TransformCtx};

const LIBTORCH: &str = "libtorch_cpu.so";
const PILLOW: &str = "_imaging.cpython-310-x86_64-linux-gnu.so";

fn pillow_resample_cost() -> CostCoeffs {
    CostCoeffs {
        base_insts: 400.0,
        insts_per_unit: 7.5, // per output-sample × tap
        uops_per_inst: 1.1,
        ipc_base: 2.7,
        l1_miss_per_unit: 0.02,
        l2_miss_per_unit: 0.005,
        llc_miss_per_unit: 0.0015,
        branches_per_unit: 0.5,
        mispredict_rate: 0.008,
        frontend_sensitivity: 0.25,
    }
}

/// Shared kernel ids for the Pillow-style resample path, used by both
/// [`RandomResizedCrop`] and [`Resize`].
#[derive(Debug, Clone, Copy)]
struct ResampleKernels {
    precompute_coeffs: KernelId,
    horizontal: KernelId,
    vertical: KernelId,
    bulk_move: KernelId,
    int_free: KernelId,
}

impl ResampleKernels {
    fn register(machine: &Machine) -> ResampleKernels {
        // glibc resolves different bulk-move entry points per machine —
        // the paper's Table I shows `__memmove_avx_unaligned_erms` on the
        // Intel box and `__memcpy_avx_unaligned_erms` on the AMD box for
        // the same Pillow resize.
        let bulk_move_name = match machine.config().vendor {
            Vendor::Intel => "__memmove_avx_unaligned_erms",
            Vendor::Amd => "__memcpy_avx_unaligned_erms",
        };
        let libc = match machine.config().vendor {
            Vendor::Intel => "libc.so.6",
            Vendor::Amd => "libc-2.31.so",
        };
        ResampleKernels {
            // Tiny per-call functions: captured reliably by uProf's 1 ms
            // sampling, usually missed by VTune's 10 ms sampling — which
            // is why Table I lists them as AMD-specific.
            precompute_coeffs: machine.kernel(
                "precompute_coeffs",
                PILLOW,
                CostCoeffs {
                    base_insts: 150.0,
                    // Normalized filter weights: one division + rounding
                    // per tap-window entry.
                    insts_per_unit: 120.0,
                    l1_miss_per_unit: 0.004,
                    l2_miss_per_unit: 0.001,
                    llc_miss_per_unit: 0.0005,
                    ..CostCoeffs::compute_default()
                },
            ),
            horizontal: machine.kernel(
                "ImagingResampleHorizontal_8bpc",
                PILLOW,
                pillow_resample_cost(),
            ),
            vertical: machine.kernel(
                "ImagingResampleVertical_8bpc",
                PILLOW,
                pillow_resample_cost(),
            ),
            bulk_move: machine.kernel(bulk_move_name, libc, CostCoeffs::streaming_default()),
            int_free: machine.kernel(
                "_int_free",
                libc,
                // Arena bookkeeping when the decoded crop is released:
                // cost is per free, not per byte.
                CostCoeffs {
                    base_insts: 140_000.0,
                    insts_per_unit: 0.0,
                    l1_miss_per_unit: 0.0,
                    l2_miss_per_unit: 0.0,
                    llc_miss_per_unit: 0.0,
                    ..CostCoeffs::compute_default()
                },
            ),
        }
    }

    /// Charges the two-pass resample of a `src_h × src_w` region to
    /// `out_h × out_w` (Pillow-style: horizontal pass then vertical pass,
    /// with tap counts growing with the downscale factor).
    fn charge(
        &self,
        ctx: &mut TransformCtx<'_>,
        src_h: usize,
        src_w: usize,
        out_h: usize,
        out_w: usize,
    ) {
        let taps_h = (src_w as f64 / out_w as f64).max(1.0) * 2.0;
        let taps_v = (src_h as f64 / out_h as f64).max(1.0) * 2.0;
        // Coefficient precomputation scales with output extent × filter
        // support (Pillow allocates one tap window per output column/row).
        ctx.cpu.exec(
            self.precompute_coeffs,
            (out_w as f64).mul_add(taps_h, out_h as f64 * taps_v),
        );
        ctx.cpu.exec(
            self.horizontal,
            (src_h * out_w * Image::CHANNELS) as f64 * taps_h,
        );
        ctx.cpu.exec(
            self.vertical,
            (out_h * out_w * Image::CHANNELS) as f64 * taps_v,
        );
        // Pillow moves the horizontal pass's intermediate buffer
        // (src_h × out_w) plus the final output.
        let moved_bytes = ((src_h * out_w + out_h * out_w) * Image::CHANNELS) as f64;
        ctx.cpu.exec(self.bulk_move, moved_bytes);
        ctx.cpu.exec(self.int_free, 1.0);
    }
}

/// Source taps for one output coordinate: the two neighbor indices and
/// the fractional weight of the second (Pillow's half-pixel convention).
fn bilinear_taps(src_len: usize, out_len: usize) -> Vec<(usize, usize, f64)> {
    let scale = src_len as f64 / out_len as f64;
    (0..out_len)
        .map(|o| {
            let s = ((o as f64 + 0.5) * scale - 0.5).max(0.0);
            let i0 = (s as usize).min(src_len - 1);
            let i1 = (i0 + 1).min(src_len - 1);
            (i0, i1, s - i0 as f64)
        })
        .collect()
}

/// Bilinear resize of an image region (real-compute path).
///
/// Separable two-pass implementation, the shape Pillow's
/// `ImagingResampleHorizontal/Vertical` pair uses: the horizontal pass
/// filters a source row through precomputed taps into an f64 row
/// buffer, and the vertical pass blends two such rows per output row,
/// so the intermediate is two rows, not a whole image. Both inner loops
/// stream over flat buffers with
/// loop-invariant weights, so they autovectorize; per-pixel coordinate
/// math and the 4-neighbor gather of the naive version
/// ([`resize_bilinear_ref`]) are gone. The f64 expression tree per
/// output sample is identical to the reference, so results match it
/// bitwise.
#[must_use]
pub fn resize_bilinear(src: &Image, out_h: usize, out_w: usize) -> Image {
    const C: usize = Image::CHANNELS;
    let src_w = src.width();
    let taps_x = bilinear_taps(src_w, out_w);
    let taps_y = bilinear_taps(src.height(), out_h);
    let pixels = src.pixels();

    // Horizontal pass of source row `y` into `mid`, kept in f64 for
    // exactness.
    let stride = out_w * C;
    let horizontal = |y: usize, mid: &mut [f64]| {
        let row = &pixels[y * src_w * C..(y + 1) * src_w * C];
        for (m, &(x0, x1, fx)) in mid.chunks_exact_mut(C).zip(&taps_x) {
            let (a, b) = (&row[x0 * C..x0 * C + C], &row[x1 * C..x1 * C + C]);
            for c in 0..C {
                m[c] = f64::from(a[c]) * (1.0 - fx) + f64::from(b[c]) * fx;
            }
        }
    };

    // Vertical pass: blend two intermediate rows per output row. The
    // taps never move backwards, so two row buffers suffice: each source
    // row the output needs is filtered once, and rows it skips are not
    // filtered at all.
    let (mut top, mut bot) = (vec![0.0; stride], vec![0.0; stride]);
    let (mut top_y, mut bot_y) = (usize::MAX, usize::MAX);
    let mut out = vec![0u8; out_h * stride];
    for (out_row, &(y0, y1, fy)) in out.chunks_exact_mut(stride).zip(&taps_y) {
        if y0 == bot_y {
            std::mem::swap(&mut top, &mut bot);
            std::mem::swap(&mut top_y, &mut bot_y);
        }
        if y0 != top_y {
            horizontal(y0, &mut top);
            top_y = y0;
        }
        if y1 != bot_y {
            horizontal(y1, &mut bot);
            bot_y = y1;
        }
        for ((o, t), b) in out_row.iter_mut().zip(&top).zip(&bot) {
            *o = round_u8(t * (1.0 - fy) + b * fy);
        }
    }
    Image::from_pixels(out_h, out_w, out)
}

/// The naive per-pixel bilinear resize — the reference
/// [`resize_bilinear`] is tested (and benchmarked) against.
#[must_use]
pub fn resize_bilinear_ref(src: &Image, out_h: usize, out_w: usize) -> Image {
    let mut out = Vec::with_capacity(out_h * out_w * Image::CHANNELS);
    let scale_y = src.height() as f64 / out_h as f64;
    let scale_x = src.width() as f64 / out_w as f64;
    for oy in 0..out_h {
        let sy = ((oy as f64 + 0.5) * scale_y - 0.5).max(0.0);
        let y0 = (sy as usize).min(src.height() - 1);
        let y1 = (y0 + 1).min(src.height() - 1);
        let fy = sy - y0 as f64;
        for ox in 0..out_w {
            let sx = ((ox as f64 + 0.5) * scale_x - 0.5).max(0.0);
            let x0 = (sx as usize).min(src.width() - 1);
            let x1 = (x0 + 1).min(src.width() - 1);
            let fx = sx - x0 as f64;
            let p00 = src.pixel(y0, x0);
            let p01 = src.pixel(y0, x1);
            let p10 = src.pixel(y1, x0);
            let p11 = src.pixel(y1, x1);
            for c in 0..Image::CHANNELS {
                let top = f64::from(p00[c]) * (1.0 - fx) + f64::from(p01[c]) * fx;
                let bot = f64::from(p10[c]) * (1.0 - fx) + f64::from(p11[c]) * fx;
                out.push((top * (1.0 - fy) + bot * fy).round().clamp(0.0, 255.0) as u8);
            }
        }
    }
    Image::from_pixels(out_h, out_w, out)
}

/// Copies the `h × w` region at `(top, left)`, one row slice at a time.
///
/// # Panics
///
/// Panics if the region is not inside `src`.
fn crop(src: &Image, top: usize, left: usize, h: usize, w: usize) -> Image {
    const C: usize = Image::CHANNELS;
    assert!(
        top + h <= src.height() && left + w <= src.width(),
        "crop ({top},{left}) {h}x{w} out of bounds"
    );
    let stride = src.width() * C;
    let mut out = Vec::with_capacity(h * w * C);
    for y in top..top + h {
        out.extend_from_slice(&src.pixels()[y * stride + left * C..y * stride + (left + w) * C]);
    }
    Image::from_pixels(h, w, out)
}

/// `torchvision.transforms.RandomResizedCrop`: crop a random area/aspect
/// region and resize it to a square target.
pub struct RandomResizedCrop {
    size: usize,
    scale: (f64, f64),
    ratio: (f64, f64),
    kernels: ResampleKernels,
}

impl std::fmt::Debug for RandomResizedCrop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RandomResizedCrop")
            .field("size", &self.size)
            .finish()
    }
}

impl RandomResizedCrop {
    /// Creates the transform with torchvision's default scale `(0.08, 1.0)`
    /// and ratio `(3/4, 4/3)`.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    #[must_use]
    pub fn new(machine: &Machine, size: usize) -> RandomResizedCrop {
        assert!(size > 0, "crop size must be positive");
        RandomResizedCrop {
            size,
            scale: (0.08, 1.0),
            ratio: (0.75, 4.0 / 3.0),
            kernels: ResampleKernels::register(machine),
        }
    }

    /// Picks the crop rectangle `(top, left, h, w)` for an input of
    /// `height × width`, following torchvision's 10-attempt algorithm with
    /// a center-crop fallback.
    fn pick_region(
        &self,
        height: usize,
        width: usize,
        rng: &mut impl Rng,
    ) -> (usize, usize, usize, usize) {
        let area = (height * width) as f64;
        for _ in 0..10 {
            let target_area = rng.gen_range(self.scale.0..=self.scale.1) * area;
            let log_ratio = (self.ratio.0.ln(), self.ratio.1.ln());
            let aspect = rng.gen_range(log_ratio.0..=log_ratio.1).exp();
            let w = (target_area * aspect).sqrt().round() as usize;
            let h = (target_area / aspect).sqrt().round() as usize;
            if w > 0 && h > 0 && w <= width && h <= height {
                let top = rng.gen_range(0..=height - h);
                let left = rng.gen_range(0..=width - w);
                return (top, left, h, w);
            }
        }
        // Fallback: central crop at the clamped aspect ratio.
        let in_ratio = width as f64 / height as f64;
        let (h, w) = if in_ratio < self.ratio.0 {
            let w = width;
            (((w as f64) / self.ratio.0).round() as usize, w)
        } else if in_ratio > self.ratio.1 {
            let h = height;
            (h, ((h as f64) * self.ratio.1).round() as usize)
        } else {
            (height, width)
        };
        ((height - h) / 2, (width - w) / 2, h.max(1), w.max(1))
    }
}

impl Transform for RandomResizedCrop {
    fn name(&self) -> &str {
        "RandomResizedCrop"
    }

    fn apply(&self, sample: Sample, ctx: &mut TransformCtx<'_>) -> Result<Sample, PipelineError> {
        let (height, width, data) = match sample {
            Sample::Image {
                height,
                width,
                data,
            } => (height, width, data),
            other => {
                return Err(PipelineError::type_mismatch(
                    self.name(),
                    "an image sample",
                    &other,
                ))
            }
        };
        let (top, left, h, w) = self.pick_region(height, width, ctx.rng);
        self.kernels.charge(ctx, h, w, self.size, self.size);
        let out = data.map(|img| {
            let cropped = ctx
                .cpu
                .observe_native(self.kernels.bulk_move, || crop(&img, top, left, h, w));
            ctx.cpu.observe_native(self.kernels.horizontal, || {
                resize_bilinear(&cropped, self.size, self.size)
            })
        });
        Ok(Sample::Image {
            height: self.size,
            width: self.size,
            data: out,
        })
    }
}

/// `torchvision.transforms.Resize` to a fixed (height, width) — the OD
/// pipeline's replacement for crop+resize.
pub struct Resize {
    out_h: usize,
    out_w: usize,
    kernels: ResampleKernels,
}

impl std::fmt::Debug for Resize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Resize")
            .field("out", &(self.out_h, self.out_w))
            .finish()
    }
}

impl Resize {
    /// Creates a resize to `out_h × out_w`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(machine: &Machine, out_h: usize, out_w: usize) -> Resize {
        assert!(out_h > 0 && out_w > 0, "resize target must be positive");
        Resize {
            out_h,
            out_w,
            kernels: ResampleKernels::register(machine),
        }
    }
}

impl Transform for Resize {
    fn name(&self) -> &str {
        "Resize"
    }

    fn apply(&self, sample: Sample, ctx: &mut TransformCtx<'_>) -> Result<Sample, PipelineError> {
        let (height, width, data) = match sample {
            Sample::Image {
                height,
                width,
                data,
            } => (height, width, data),
            other => {
                return Err(PipelineError::type_mismatch(
                    self.name(),
                    "an image sample",
                    &other,
                ))
            }
        };
        self.kernels
            .charge(ctx, height, width, self.out_h, self.out_w);
        let out = data.map(|img| {
            ctx.cpu.observe_native(self.kernels.horizontal, || {
                resize_bilinear(&img, self.out_h, self.out_w)
            })
        });
        Ok(Sample::Image {
            height: self.out_h,
            width: self.out_w,
            data: out,
        })
    }
}

/// `torchvision.transforms.RandomHorizontalFlip`.
pub struct RandomHorizontalFlip {
    p: f64,
    flip_kernel: KernelId,
}

impl std::fmt::Debug for RandomHorizontalFlip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RandomHorizontalFlip")
            .field("p", &self.p)
            .finish()
    }
}

impl RandomHorizontalFlip {
    /// Creates the transform with flip probability `p` (0.5 by default in
    /// torchvision).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn new(machine: &Machine, p: f64) -> RandomHorizontalFlip {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        RandomHorizontalFlip {
            p,
            flip_kernel: machine.kernel(
                "ImagingFlipLeftRight",
                PILLOW,
                CostCoeffs {
                    base_insts: 200.0,
                    insts_per_unit: 1.4, // per byte moved
                    uops_per_inst: 1.05,
                    ipc_base: 2.8,
                    l1_miss_per_unit: 2.0 / 64.0,
                    l2_miss_per_unit: 0.02,
                    llc_miss_per_unit: 0.012,
                    branches_per_unit: 0.15,
                    mispredict_rate: 0.003,
                    frontend_sensitivity: 0.08,
                },
            ),
        }
    }
}

impl Transform for RandomHorizontalFlip {
    fn name(&self) -> &str {
        "RandomHorizontalFlip"
    }

    fn apply(&self, sample: Sample, ctx: &mut TransformCtx<'_>) -> Result<Sample, PipelineError> {
        let (height, width, data) = match sample {
            Sample::Image {
                height,
                width,
                data,
            } => (height, width, data),
            other => {
                return Err(PipelineError::type_mismatch(
                    self.name(),
                    "an image sample",
                    &other,
                ))
            }
        };
        if !ctx.rng.gen_bool(self.p) {
            return Ok(Sample::Image {
                height,
                width,
                data,
            });
        }
        ctx.cpu
            .exec(self.flip_kernel, (height * width * Image::CHANNELS) as f64);
        let out = data.map(|img| {
            ctx.cpu.observe_native(self.flip_kernel, || {
                let mut flipped = img.clone();
                for y in 0..height {
                    for x in 0..width {
                        flipped.set_pixel(y, x, img.pixel(y, width - 1 - x));
                    }
                }
                flipped
            })
        });
        Ok(Sample::Image {
            height,
            width,
            data: out,
        })
    }
}

/// `torchvision.transforms.ToTensor`: HWC u8 → CHW f32 in `[0, 1]`.
pub struct ToTensor {
    copy_kernel: KernelId,
    convert_kernel: KernelId,
}

impl std::fmt::Debug for ToTensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ToTensor")
    }
}

impl ToTensor {
    /// Creates the transform.
    #[must_use]
    pub fn new(machine: &Machine) -> ToTensor {
        ToTensor {
            copy_kernel: machine.kernel(
                "at_native_copy_kernel",
                LIBTORCH,
                CostCoeffs::streaming_default(),
            ),
            convert_kernel: machine.kernel(
                "at_native_convert_u8_f32",
                LIBTORCH,
                CostCoeffs {
                    base_insts: 300.0,
                    insts_per_unit: 1.1, // per element
                    uops_per_inst: 1.05,
                    ipc_base: 2.9,
                    l1_miss_per_unit: 5.0 / 64.0,
                    l2_miss_per_unit: 0.06,
                    llc_miss_per_unit: 0.05,
                    branches_per_unit: 0.05,
                    mispredict_rate: 0.002,
                    frontend_sensitivity: 0.06,
                },
            ),
        }
    }
}

impl Transform for ToTensor {
    fn name(&self) -> &str {
        "ToTensor"
    }

    fn apply(&self, sample: Sample, ctx: &mut TransformCtx<'_>) -> Result<Sample, PipelineError> {
        let (height, width, data) = match sample {
            Sample::Image {
                height,
                width,
                data,
            } => (height, width, data),
            other => {
                return Err(PipelineError::type_mismatch(
                    self.name(),
                    "an image sample",
                    &other,
                ))
            }
        };
        let elements = (height * width * Image::CHANNELS) as f64;
        ctx.cpu.exec(self.convert_kernel, elements);
        ctx.cpu.exec(self.copy_kernel, elements * 4.0); // f32 output bytes
        let shape = vec![Image::CHANNELS, height, width];
        let out = data.map(|img| {
            ctx.cpu.observe_native(self.convert_kernel, || {
                let mut chw = vec![0.0f32; img.len_bytes()];
                let plane = height * width;
                for y in 0..height {
                    for x in 0..width {
                        let p = img.pixel(y, x);
                        for c in 0..Image::CHANNELS {
                            chw[c * plane + y * width + x] = f32::from(p[c]) / 255.0;
                        }
                    }
                }
                Tensor::from_f32(&shape, chw)
            })
        });
        Ok(Sample::Tensor {
            shape,
            dtype: DType::F32,
            data: out,
        })
    }
}

/// `torchvision.transforms.Normalize`: per-channel `(x - mean) / std`.
pub struct Normalize {
    mean: [f32; 3],
    std: [f32; 3],
    sub_kernel: KernelId,
    div_kernel: KernelId,
}

impl std::fmt::Debug for Normalize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Normalize")
            .field("mean", &self.mean)
            .field("std", &self.std)
            .finish()
    }
}

impl Normalize {
    /// Creates the transform with the given per-channel statistics.
    ///
    /// # Panics
    ///
    /// Panics if any `std` entry is zero.
    #[must_use]
    pub fn new(machine: &Machine, mean: [f32; 3], std: [f32; 3]) -> Normalize {
        assert!(std.iter().all(|&s| s != 0.0), "std must be non-zero");
        let elementwise = CostCoeffs {
            base_insts: 250.0,
            insts_per_unit: 0.8,
            uops_per_inst: 1.05,
            ipc_base: 2.9,
            l1_miss_per_unit: 4.0 / 64.0,
            l2_miss_per_unit: 0.05,
            llc_miss_per_unit: 0.04,
            branches_per_unit: 0.04,
            mispredict_rate: 0.002,
            frontend_sensitivity: 0.05,
        };
        Normalize {
            mean,
            std,
            sub_kernel: machine.kernel("at_native_sub_kernel", LIBTORCH, elementwise),
            div_kernel: machine.kernel("at_native_div_kernel", LIBTORCH, elementwise),
        }
    }

    /// ImageNet's standard normalization constants.
    #[must_use]
    pub fn imagenet(machine: &Machine) -> Normalize {
        Normalize::new(machine, [0.485, 0.456, 0.406], [0.229, 0.224, 0.225])
    }
}

impl Transform for Normalize {
    fn name(&self) -> &str {
        "Normalize"
    }

    fn apply(&self, sample: Sample, ctx: &mut TransformCtx<'_>) -> Result<Sample, PipelineError> {
        let (shape, dtype, data) = match sample {
            Sample::Tensor { shape, dtype, data } => (shape, dtype, data),
            other => {
                return Err(PipelineError::type_mismatch(
                    self.name(),
                    "a tensor sample",
                    &other,
                ))
            }
        };
        if dtype != DType::F32 {
            return Err(PipelineError::ShapeMismatch {
                op: self.name().to_string(),
                expected: "an f32 tensor (apply ToTensor first)".to_string(),
                got: format!("{dtype:?}"),
            });
        }
        let elements: usize = shape.iter().product();
        ctx.cpu.exec(self.sub_kernel, elements as f64);
        ctx.cpu.exec(self.div_kernel, elements as f64);
        let out = data.map(|mut t| {
            ctx.cpu.observe_native(self.sub_kernel, || {
                let plane: usize = shape[1..].iter().product();
                let values = t.as_f32_mut();
                for (i, v) in values.iter_mut().enumerate() {
                    let c = (i / plane).min(2);
                    *v = (*v - self.mean[c]) / self.std[c];
                }
                t
            })
        });
        Ok(Sample::Tensor {
            shape,
            dtype,
            data: out,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_uarch::{CpuThread, MachineConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn ctx_parts() -> (Arc<Machine>, CpuThread, StdRng) {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let cpu = CpuThread::new(Arc::clone(&machine));
        (machine, cpu, StdRng::seed_from_u64(7))
    }

    #[test]
    fn rrc_outputs_requested_size_with_and_without_data() {
        let (machine, mut cpu, mut rng) = ctx_parts();
        let rrc = RandomResizedCrop::new(&machine, 224);
        let mut ctx = TransformCtx {
            cpu: &mut cpu,
            rng: &mut rng,
        };

        let meta_out = rrc.apply(Sample::image_meta(500, 400), &mut ctx).unwrap();
        assert!(matches!(
            meta_out,
            Sample::Image {
                height: 224,
                width: 224,
                data: None
            }
        ));

        let img = Image::synthetic(120, 90, &mut StdRng::seed_from_u64(1));
        let real_out = rrc.apply(Sample::image(img), &mut ctx).unwrap();
        let Sample::Image {
            height,
            width,
            data,
        } = real_out
        else {
            unreachable!()
        };
        assert_eq!((height, width), (224, 224));
        assert_eq!(data.unwrap().len_bytes(), 224 * 224 * 3);
    }

    #[test]
    fn rrc_charges_more_for_larger_inputs() {
        let (machine, _, _) = ctx_parts();
        let rrc = RandomResizedCrop::new(&machine, 224);
        let time_for = |h: usize, w: usize| {
            let mut cpu = CpuThread::new(Arc::clone(&machine));
            let mut rng = StdRng::seed_from_u64(3);
            let mut ctx = TransformCtx {
                cpu: &mut cpu,
                rng: &mut rng,
            };
            let _ = rrc.apply(Sample::image_meta(h, w), &mut ctx);
            cpu.cursor().as_nanos()
        };
        assert!(time_for(2000, 2000) > time_for(300, 300));
    }

    #[test]
    fn flip_reverses_pixels_horizontally() {
        let (machine, mut cpu, mut rng) = ctx_parts();
        let flip = RandomHorizontalFlip::new(&machine, 1.0);
        let mut img = Image::filled(2, 3, [0, 0, 0]);
        img.set_pixel(0, 0, [9, 9, 9]);
        let mut ctx = TransformCtx {
            cpu: &mut cpu,
            rng: &mut rng,
        };
        let out = flip.apply(Sample::image(img), &mut ctx).unwrap();
        let Sample::Image {
            data: Some(flipped),
            ..
        } = out
        else {
            unreachable!()
        };
        assert_eq!(flipped.pixel(0, 2), [9, 9, 9]);
        assert_eq!(flipped.pixel(0, 0), [0, 0, 0]);
    }

    #[test]
    fn flip_probability_zero_is_free_and_identity() {
        let (machine, mut cpu, mut rng) = ctx_parts();
        let flip = RandomHorizontalFlip::new(&machine, 0.0);
        let mut ctx = TransformCtx {
            cpu: &mut cpu,
            rng: &mut rng,
        };
        let before = ctx.cpu.cursor();
        let _ = flip.apply(Sample::image_meta(224, 224), &mut ctx);
        assert_eq!(ctx.cpu.cursor(), before, "skipped flip must charge nothing");
    }

    #[test]
    fn to_tensor_produces_chw_f32_in_unit_range() {
        let (machine, mut cpu, mut rng) = ctx_parts();
        let tt = ToTensor::new(&machine);
        let mut img = Image::filled(2, 2, [255, 0, 128]);
        img.set_pixel(1, 1, [0, 255, 0]);
        let mut ctx = TransformCtx {
            cpu: &mut cpu,
            rng: &mut rng,
        };
        let out = tt.apply(Sample::image(img), &mut ctx).unwrap();
        let Sample::Tensor {
            shape,
            dtype,
            data: Some(t),
        } = out
        else {
            unreachable!()
        };
        assert_eq!(shape, vec![3, 2, 2]);
        assert_eq!(dtype, DType::F32);
        let v = t.as_f32();
        assert_eq!(v[0], 1.0); // R plane, (0,0)
        assert_eq!(v[3], 0.0); // R plane, (1,1)
        assert_eq!(v[4 + 3], 1.0); // G plane, (1,1)
    }

    #[test]
    fn normalize_applies_channel_statistics() {
        let (machine, mut cpu, mut rng) = ctx_parts();
        let norm = Normalize::new(&machine, [0.5, 0.0, 0.0], [0.5, 1.0, 1.0]);
        let t = Tensor::from_f32(&[3, 1, 1], vec![1.0, 1.0, 1.0]);
        let mut ctx = TransformCtx {
            cpu: &mut cpu,
            rng: &mut rng,
        };
        let out = norm.apply(Sample::tensor(t), &mut ctx).unwrap();
        let Sample::Tensor { data: Some(t), .. } = out else {
            unreachable!()
        };
        // channel 0: (1 - 0.5) / 0.5 = 1; channels 1, 2: (1 - 0) / 1 = 1.
        assert_eq!(t.as_f32(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn resize_hits_exact_target() {
        let (machine, mut cpu, mut rng) = ctx_parts();
        let rs = Resize::new(&machine, 800, 1333);
        let mut ctx = TransformCtx {
            cpu: &mut cpu,
            rng: &mut rng,
        };
        let out = rs.apply(Sample::image_meta(480, 640), &mut ctx).unwrap();
        assert!(matches!(
            out,
            Sample::Image {
                height: 800,
                width: 1333,
                ..
            }
        ));
    }

    #[test]
    fn wrong_sample_variant_yields_typed_errors() {
        let (machine, mut cpu, mut rng) = ctx_parts();
        let tt = ToTensor::new(&machine);
        let norm = Normalize::imagenet(&machine);
        let mut ctx = TransformCtx {
            cpu: &mut cpu,
            rng: &mut rng,
        };

        // An image transform fed a tensor: TypeMismatch naming the op.
        let tensor = Sample::tensor_meta(&[3, 8, 8], DType::F32);
        let err = tt.apply(tensor, &mut ctx).unwrap_err();
        assert!(matches!(err, PipelineError::TypeMismatch { ref op, .. } if op == "ToTensor"));

        // Normalize on a u8 tensor: ShapeMismatch (wrong dtype).
        let u8_tensor = Sample::tensor_meta(&[3, 8, 8], DType::U8);
        let err = norm.apply(u8_tensor, &mut ctx).unwrap_err();
        assert!(matches!(err, PipelineError::ShapeMismatch { ref op, .. } if op == "Normalize"));

        // Normalize fed an image: TypeMismatch.
        let err = norm.apply(Sample::image_meta(4, 4), &mut ctx).unwrap_err();
        assert!(matches!(err, PipelineError::TypeMismatch { ref op, .. } if op == "Normalize"));
    }

    #[test]
    fn bilinear_resize_preserves_flat_content() {
        let img = Image::filled(10, 10, [100, 150, 200]);
        let out = resize_bilinear(&img, 4, 7);
        for y in 0..4 {
            for x in 0..7 {
                assert_eq!(out.pixel(y, x), [100, 150, 200]);
            }
        }
    }

    #[test]
    fn separable_resize_matches_the_naive_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(0x0107);
        for (src_h, src_w, out_h, out_w) in [
            (37, 53, 224, 224),
            (480, 640, 100, 75),
            (8, 8, 8, 8),
            (1, 1, 3, 5),
            (375, 500, 224, 224),
            (300, 17, 7, 224),
            (2, 200, 224, 3),
        ] {
            let img = Image::synthetic(src_h, src_w, &mut rng);
            let fast = resize_bilinear(&img, out_h, out_w);
            let slow = resize_bilinear_ref(&img, out_h, out_w);
            assert_eq!(
                fast.pixels(),
                slow.pixels(),
                "{src_h}x{src_w} -> {out_h}x{out_w} diverged"
            );
        }
    }

    #[test]
    fn crop_extracts_the_right_region() {
        let mut img = Image::filled(5, 5, [0, 0, 0]);
        img.set_pixel(2, 3, [7, 7, 7]);
        let c = crop(&img, 2, 3, 2, 2);
        assert_eq!(c.pixel(0, 0), [7, 7, 7]);
        assert_eq!(c.pixel(1, 1), [0, 0, 0]);
    }

    #[test]
    fn row_wise_crop_matches_a_per_pixel_gather() {
        let img = Image::synthetic(19, 27, &mut StdRng::seed_from_u64(3));
        for (top, left, h, w) in [(0, 0, 19, 27), (2, 3, 5, 7), (18, 26, 1, 1), (4, 0, 10, 27)] {
            let c = crop(&img, top, left, h, w);
            assert_eq!((c.height(), c.width()), (h, w));
            for y in 0..h {
                for x in 0..w {
                    assert_eq!(c.pixel(y, x), img.pixel(top + y, left + x));
                }
            }
        }
    }

    #[test]
    fn pick_region_always_fits() {
        let (machine, _, mut rng) = ctx_parts();
        let rrc = RandomResizedCrop::new(&machine, 224);
        for _ in 0..500 {
            let (h, w) = (rng.gen_range(50..2000), rng.gen_range(50..2000));
            let (top, left, ch, cw) = rrc.pick_region(h, w, &mut rng);
            assert!(top + ch <= h, "crop escapes vertically: {top}+{ch} > {h}");
            assert!(
                left + cw <= w,
                "crop escapes horizontally: {left}+{cw} > {w}"
            );
            assert!(ch > 0 && cw > 0);
        }
    }
}
