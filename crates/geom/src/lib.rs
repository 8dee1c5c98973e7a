#![warn(missing_docs)]

//! Geometry primitives shared across the diffuplace workspace.
//!
//! This crate provides the small set of planar-geometry types that every other
//! crate in the workspace builds on: [`Point`], [`Vector`], and axis-aligned
//! [`Rect`]angles, together with the overlap/area arithmetic that placement
//! density computation needs.
//!
//! All coordinates are `f64` in an arbitrary but consistent unit (the
//! placement crates use "tracks", i.e. multiples of the routing pitch).
//!
//! # Examples
//!
//! ```
//! use dpm_geom::{Point, Rect};
//!
//! let die = Rect::new(0.0, 0.0, 100.0, 50.0);
//! let cell = Rect::new(10.0, 10.0, 14.0, 12.0);
//! assert!(die.contains_rect(&cell));
//! assert_eq!(cell.area(), 8.0);
//! assert_eq!(die.overlap_area(&cell), 8.0);
//! assert_eq!(cell.center(), Point::new(12.0, 11.0));
//! ```

mod point;
mod point3;
mod rect;

pub use point::{Point, Vector};
pub use point3::{Point3, Vector3};
pub use rect::Rect;

/// Clamps `v` into `[lo, hi]`.
///
/// # Examples
///
/// ```
/// assert_eq!(dpm_geom::clamp(5.0, 0.0, 3.0), 3.0);
/// assert_eq!(dpm_geom::clamp(-1.0, 0.0, 3.0), 0.0);
/// assert_eq!(dpm_geom::clamp(1.5, 0.0, 3.0), 1.5);
/// ```
///
/// # Panics
///
/// Panics (in debug builds) if `lo > hi`.
#[inline]
pub fn clamp(v: f64, lo: f64, hi: f64) -> f64 {
    debug_assert!(lo <= hi, "clamp: lo {lo} > hi {hi}");
    v.max(lo).min(hi)
}

/// Largest integer not greater than `x`, bit-equal to [`f64::floor`]
/// (including `-0.0`, NaN, ±∞ and every |x| ≥ 2⁵²).
///
/// `f64::floor` lowers to a `roundsd` only when SSE4.1 is enabled; on
/// the baseline x86-64 target the workspace builds for, it is a call
/// into an out-of-line software routine, which the advect kernel used
/// to make several times per cell. This version inlines through the
/// SSE2 integer conversions instead: values with |x| ≥ 2⁵² (and NaN)
/// are already integral and pass through, truncation rounds toward
/// zero so negative non-integers step down by one, and `copysign`
/// keeps the sign of a zero result (`floor(-0.0) = -0.0`).
///
/// # Examples
///
/// ```
/// assert_eq!(dpm_geom::floor(2.7), 2.0);
/// assert_eq!(dpm_geom::floor(-2.5), -3.0);
/// assert_eq!(dpm_geom::floor(-0.0).to_bits(), (-0.0f64).to_bits());
/// assert!(dpm_geom::floor(f64::NAN).is_nan());
/// ```
#[inline]
pub fn floor(x: f64) -> f64 {
    // 2⁵²: from here on every f64 is an integer.
    const EXACT: f64 = 4_503_599_627_370_496.0;
    if x.abs() < EXACT {
        let t = x as i64 as f64;
        let f = if t > x { t - 1.0 } else { t };
        f.copysign(x)
    } else {
        // Integral, infinite or NaN: already its own floor.
        x
    }
}

/// The index of the unit cell `[i, i+1)` containing `v`, clamped to
/// `[0, n)`: exactly `(floor(v).max(0.0) as usize).min(n - 1)`.
///
/// The `floor` cancels in the integer domain — for `v ≥ 0` it equals
/// the truncation `as usize` performs, and every `v < 0` (and NaN)
/// clamps to 0 either way — so the lookup is one `max` and one
/// conversion. This is the bin, row and tier lookup of the whole
/// workspace.
///
/// # Examples
///
/// ```
/// assert_eq!(dpm_geom::floor_index(2.7, 4), 2);
/// assert_eq!(dpm_geom::floor_index(-0.5, 4), 0);
/// assert_eq!(dpm_geom::floor_index(9.0, 4), 3);
/// ```
///
/// # Panics
///
/// Panics (in debug builds) if `n` is zero.
#[inline]
pub fn floor_index(v: f64, n: usize) -> usize {
    debug_assert!(n > 0, "floor_index: empty range");
    // Through i64: the signed conversion is a single `cvttsd2si`, and
    // saturating at i64::MAX instead of usize::MAX still clamps to n - 1.
    (v.max(0.0) as i64 as usize).min(n - 1)
}

/// Returns `true` if two floats are equal within `eps`.
///
/// # Examples
///
/// ```
/// assert!(dpm_geom::approx_eq(0.1 + 0.2, 0.3, 1e-12));
/// assert!(!dpm_geom::approx_eq(0.1, 0.2, 1e-12));
/// ```
#[inline]
pub fn approx_eq(a: f64, b: f64, eps: f64) -> bool {
    (a - b).abs() <= eps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_inside_range_is_identity() {
        assert_eq!(clamp(2.0, 1.0, 3.0), 2.0);
    }

    #[test]
    fn clamp_at_bounds() {
        assert_eq!(clamp(1.0, 1.0, 3.0), 1.0);
        assert_eq!(clamp(3.0, 1.0, 3.0), 3.0);
    }

    /// Bit-equality with `f64::floor` on the edge cases: signed zeros,
    /// halves, -1 and its neighbouring ulps, the 2⁵² boundary, huge
    /// values, subnormals, NaN and infinities.
    #[test]
    fn floor_is_bit_equal_to_std_on_edge_cases() {
        let two52 = 4_503_599_627_370_496.0f64;
        let mut cases = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            -1.0,
            f64::from_bits((-1.0f64).to_bits() + 1),
            f64::from_bits((-1.0f64).to_bits() - 1),
            two52 - 0.5,
            -(two52 - 0.5),
            two52,
            -two52,
            2.0f64.powi(63),
            -(2.0f64.powi(63)),
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for x in cases.clone() {
            cases.push(f64::from_bits(x.to_bits().wrapping_add(1)));
            cases.push(f64::from_bits(x.to_bits().wrapping_sub(1)));
        }
        for x in cases {
            let (got, want) = (floor(x), x.floor());
            if want.is_nan() {
                assert!(got.is_nan(), "floor({x:e}) = {got:e}, want NaN");
            } else {
                assert_eq!(got.to_bits(), want.to_bits(), "floor({x:e})");
            }
        }
    }

    #[test]
    fn floor_is_bit_equal_to_std_on_random_values() {
        let mut rng = dpm_rng::Rng::seed_from_u64(0xf100);
        for _ in 0..1_000_000 {
            let x = (rng.random_f64() * 2.0 - 1.0) * 1e6;
            assert_eq!(floor(x).to_bits(), x.floor().to_bits(), "floor({x:e})");
        }
    }

    #[test]
    fn floor_index_is_the_clamped_floor() {
        let mut rng = dpm_rng::Rng::seed_from_u64(0x1d);
        let specials = [
            -0.0,
            0.0,
            -0.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            7.0,
            8.0,
            1e300,
        ];
        let randoms = (0..10_000).map(|_| (rng.random_f64() * 2.0 - 1.0) * 20.0);
        for v in specials.into_iter().chain(randoms) {
            for n in [1, 8] {
                let want = (v.floor().max(0.0) as usize).min(n - 1);
                assert_eq!(floor_index(v, n), want, "floor_index({v}, {n})");
            }
        }
    }

    #[test]
    fn approx_eq_symmetric() {
        assert!(approx_eq(1.0, 1.0 + 1e-13, 1e-12));
        assert!(approx_eq(1.0 + 1e-13, 1.0, 1e-12));
    }
}
