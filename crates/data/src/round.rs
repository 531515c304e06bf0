//! Exact, libm-free rounding for 8-bit pixel stores.
//!
//! `f64::round` lowers to a `roundsd` instruction only when SSE4.1 is
//! enabled; on the baseline x86-64 target it is a call into libm's
//! `round`. The pixel kernels (colour conversion, IDCT stores,
//! quantization, bilinear resampling) round once per output sample, so
//! that call dominates their inner loops. [`round_clamp`] gives the same
//! answer with a clamp, one addition and a tie fix-up.

/// `1.5 · 2^52`: adding it to any `|v| < 2^51` lands in `[2^52, 2^53)`,
/// where the spacing of f64 values is exactly 1, so the addition itself
/// rounds `v` to an integer (half to even, the IEEE default).
const ROUNDER: f64 = 6_755_399_441_055_744.0;

/// Rounds half away from zero and clamps to `lo..=hi`, exactly like
/// `v.round().clamp(lo, hi) as i32` (NaN maps to 0).
///
/// Clamps first (rounding is monotone and fixes the integral bounds, so
/// the order does not matter). Adding `1.5 · 2^52` rounds half to even in
/// one instruction, and the integer can be read straight from the sum's
/// bits. The two rounding modes differ only on exact ties, which the
/// exact remainder `v - rounded` exposes as ±0.5: a positive tie left
/// below `v`, or a negative tie left above it, moves one step away from
/// zero. No conversion instruction and no libm call; branch-free after
/// inlining (the NaN case is a select).
///
/// Not `(v + 0.5) as i32`: that form rounds `0.49999999999999994` up
/// (the sum rounds to 1.0), and near some half-integers the sum rounds
/// to the next integer too.
///
/// ```
/// use lotus_data::round::round_clamp;
///
/// assert_eq!(round_clamp(2.5, -10.0, 10.0), 3);
/// assert_eq!(round_clamp(-2.5, -10.0, 10.0), -3);
/// assert_eq!(round_clamp(-1.5, -10.0, 10.0), -2);
/// assert_eq!(round_clamp(0.499_999_999_999_999_94, -10.0, 10.0), 0);
/// assert_eq!(round_clamp(1e9, -10.0, 10.0), 10);
/// ```
///
/// `lo` and `hi` must be integers with `lo <= 0 <= hi`, within `i32`.
#[inline]
#[must_use]
pub fn round_clamp(v: f64, lo: f64, hi: f64) -> i32 {
    debug_assert!(lo <= 0.0 && 0.0 <= hi && lo.fract() == 0.0 && hi.fract() == 0.0);
    debug_assert!(lo >= f64::from(i32::MIN) && hi <= f64::from(i32::MAX));
    let c = v.clamp(lo, hi);
    let sum = c + ROUNDER;
    // Same exponent, so the bit patterns differ by the integer itself.
    let even = (sum.to_bits() as i64 - ROUNDER.to_bits() as i64) as i32;
    // Exact: `c` and the integer it rounded to are within 0.5.
    let rest = c - (sum - ROUNDER);
    let away = i32::from(rest == 0.5 && c > 0.0) - i32::from(rest == -0.5 && c < 0.0);
    if v.is_nan() {
        0
    } else {
        even + away
    }
}

/// Rounds half away from zero into a pixel, exactly like
/// `v.round().clamp(0.0, 255.0) as u8` (NaN maps to 0).
#[inline]
#[must_use]
pub fn round_u8(v: f64) -> u8 {
    round_clamp(v, 0.0, 255.0) as u8
}

/// The full-`i32` case: must equal `v.round() as i32`, which saturates.
#[cfg(test)]
fn round_i32(v: f64) -> i32 {
    round_clamp(v, f64::from(i32::MIN), f64::from(i32::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;

    const EDGES: [f64; 24] = [
        0.0,
        -0.0,
        0.5,
        -0.5,
        1.5,
        -1.5,
        2.5,
        -3.5,
        4.5,
        -2.5,
        0.499_999_999_999_999_94,
        -0.499_999_999_999_999_94,
        2047.5,
        -2047.5,
        2_147_483_647.0,
        -2_147_483_647.0,
        2_147_483_647.5,
        -2_147_483_648.5,
        4_503_599_627_370_495.5,
        1e300,
        -1e300,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];

    #[test]
    fn matches_f64_round_on_edge_values() {
        for v in EDGES {
            assert_eq!(round_i32(v), v.round() as i32, "round_i32({v:e})");
            assert_eq!(
                round_u8(v),
                v.round().clamp(0.0, 255.0) as u8,
                "round_u8({v:e})"
            );
        }
    }

    #[test]
    fn clamped_rounding_matches_round_then_clamp() {
        for v in EDGES {
            assert_eq!(
                round_clamp(v, -2047.0, 2047.0),
                v.round().clamp(-2047.0, 2047.0) as i32,
                "round_clamp({v:e})"
            );
        }
    }

    #[test]
    fn matches_f64_round_on_every_pixel_half_step() {
        for i in -1024..=1024 {
            for v in [f64::from(i) * 0.5, f64::from(i) * 0.5 + 1e-9] {
                assert_eq!(round_i32(v), v.round() as i32, "round_i32({v})");
                assert_eq!(round_u8(v), v.round().clamp(0.0, 255.0) as u8);
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn matches_f64_round_on_arbitrary_values(
            v in -3.0e9f64..3.0e9,
            bits in 0u64..=u64::MAX,
        ) {
            prop_assert_eq!(round_i32(v), v.round() as i32);
            prop_assert_eq!(round_u8(v), v.round().clamp(0.0, 255.0) as u8);
            let q = v * 1e-6;
            prop_assert_eq!(round_clamp(q, -2047.0, 2047.0), q.round().clamp(-2047.0, 2047.0) as i32);
            // Every bit pattern: subnormals, huge magnitudes, NaNs.
            let w = f64::from_bits(bits);
            prop_assert_eq!(round_i32(w), w.round() as i32);
            prop_assert_eq!(round_u8(w), w.round().clamp(0.0, 255.0) as u8);
        }
    }
}
