//! A totally ordered `f32` wrapper.
//!
//! Single-precision counterpart of [`crate::ordf64`]: the REQ sketch only
//! needs a total order, and [`OrdF32`] supplies the IEEE-754 `totalOrder`
//! ordering (`f32::total_cmp`), under which
//! `-NaN < -∞ < … < -0.0 < +0.0 < … < +∞ < +NaN`.
//!
//! `OrdF32` is a 4-byte `Copy` type, so it halves the memory traffic of
//! the `f64` lane in the arena's branchless merge kernels — the natural item type for high-volume telemetry streams
//! where `f32` precision suffices. Use [`crate::ReqSketch`]`::<OrdF32>`
//! (alias [`crate::ReqF32`]); convenience methods accepting/returning plain
//! `f32` are provided on that alias:
//!
//! ```
//! use req_core::ReqF32;
//! use sketch_traits::QuantileSketch;
//!
//! let mut s = ReqF32::builder().k(16).seed(7).build_f32().unwrap();
//! for i in 0..10_000 {
//!     s.update_f32(i as f32 / 100.0);
//! }
//! let median = s.quantile_f32(0.5).unwrap();
//! assert!((median - 50.0).abs() < 5.0);
//! ```

use std::cmp::Ordering;
use std::fmt;

/// `f32` with the IEEE-754 total order, usable as a sketch item type.
///
/// With `--features serde` it serializes transparently as a plain `f32`
/// (manual impls in [`crate::serde_impl`]; the offline serde stand-in has
/// no derive macro).
#[derive(Debug, Clone, Copy, Default)]
pub struct OrdF32(pub f32);

impl OrdF32 {
    /// Wrap a raw `f32`.
    pub fn new(v: f32) -> Self {
        OrdF32(v)
    }

    /// Unwrap to a raw `f32`.
    pub fn get(self) -> f32 {
        self.0
    }
}

impl PartialEq for OrdF32 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}

impl Eq for OrdF32 {}

impl PartialOrd for OrdF32 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF32 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl From<f32> for OrdF32 {
    fn from(v: f32) -> Self {
        OrdF32(v)
    }
}

impl From<OrdF32> for f32 {
    fn from(v: OrdF32) -> Self {
        v.0
    }
}

impl fmt::Display for OrdF32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order_handles_special_values() {
        let mut v = [
            OrdF32(f32::NAN),
            OrdF32(1.0),
            OrdF32(f32::NEG_INFINITY),
            OrdF32(-0.0),
            OrdF32(0.0),
            OrdF32(f32::INFINITY),
            OrdF32(-3.5),
        ];
        v.sort();
        let raw: Vec<f32> = v.iter().map(|x| x.0).collect();
        assert_eq!(raw[0], f32::NEG_INFINITY);
        assert_eq!(raw[1], -3.5);
        assert!(raw[2] == 0.0 && raw[2].is_sign_negative());
        assert!(raw[3] == 0.0 && raw[3].is_sign_positive());
        assert_eq!(raw[4], 1.0);
        assert_eq!(raw[5], f32::INFINITY);
        assert!(raw[6].is_nan());
    }

    #[test]
    fn eq_is_total_cmp_eq() {
        assert_ne!(OrdF32(-0.0), OrdF32(0.0)); // total order distinguishes them
        assert_eq!(OrdF32(2.5), OrdF32(2.5));
        assert_eq!(OrdF32(f32::NAN), OrdF32(f32::NAN)); // same-sign NaN equal
    }

    #[test]
    fn conversions_roundtrip() {
        let x: OrdF32 = 7.25f32.into();
        let y: f32 = x.into();
        assert_eq!(y, 7.25);
        assert_eq!(OrdF32::new(1.5).get(), 1.5);
        assert_eq!(OrdF32::default().get(), 0.0);
    }

    #[test]
    fn display_matches_f32() {
        assert_eq!(OrdF32(3.5).to_string(), "3.5");
    }
}
