//! Property tests for the polynomial vector math (`vp_tensor::mathx`),
//! with libm as the oracle.
//!
//! The approximations stay inside their documented error bounds against
//! libm: [`mathx::exp`] within [`mathx::EXP_MAX_ULP`] units in the last
//! place over a dense bit-level sweep of the input range, [`mathx::tanh`]
//! within [`mathx::TANH_MAX_ABS_ERROR`] absolute error with `|tanh| ≤ 1`
//! and NaN propagated; and the softmax built on [`mathx::exp`] stays
//! within 1e-6 of the libm softmax.

use vp_tensor::init::{normal, seeded_rng};
use vp_tensor::mathx;
use vp_tensor::ops::local_softmax;

/// Maps a float onto the monotone integer line so that adjacent
/// representable values (including subnormals and ±∞) differ by 1.
fn ordered(x: f32) -> i64 {
    let b = i64::from(x.to_bits());
    if b & 0x8000_0000 != 0 {
        0x8000_0000 - b
    } else {
        b
    }
}

/// Distance in representable-value steps ("ULPs" in bit space).
fn ulp_dist(a: f32, b: f32) -> u64 {
    (ordered(a) - ordered(b)).unsigned_abs()
}

/// Deterministic 64-bit LCG for randomized inputs (no external deps).
struct Lcg(u64);

impl Lcg {
    fn next_f32_in(&mut self, lo: f32, hi: f32) -> f32 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        let unit = ((self.0 >> 40) as f32) / (1u64 << 24) as f32;
        lo + (hi - lo) * unit
    }
}

#[test]
fn exp_stays_within_documented_ulp_bound() {
    // Dense bit-level sweep of both signs out past the overflow/underflow
    // clamps (the prime stride visits every exponent and a spread of
    // mantissas), plus randomized inputs concentrated in the live range.
    let check = |x: f32| {
        let got = mathx::exp(x);
        let want = x.exp();
        assert!(
            ulp_dist(got, want) <= u64::from(mathx::EXP_MAX_ULP),
            "exp({x}) = {got:e} vs libm {want:e} ({} ulp apart)",
            ulp_dist(got, want)
        );
    };
    let mut bits = 0u32;
    while bits <= 0x42e0_0000 {
        // 0.0 ..= 112.0, every value of the exponent field
        check(f32::from_bits(bits));
        check(-f32::from_bits(bits));
        bits += 104_729; // prime stride ≪ one exponent step (2²³)
    }
    let mut rng = Lcg(0x9e37_79b9_7f4a_7c15);
    for _ in 0..200_000 {
        check(rng.next_f32_in(-110.0, 95.0));
    }
    for _ in 0..50_000 {
        check(rng.next_f32_in(-2.0, 2.0));
    }
}

#[test]
fn tanh_stays_within_documented_abs_error_and_saturation() {
    let check = |x: f32| {
        let got = mathx::tanh(x);
        let want = x.tanh();
        assert!(got.abs() <= 1.0, "tanh({x}) = {got} escapes [-1, 1]");
        assert!(
            (got - want).abs() <= mathx::TANH_MAX_ABS_ERROR,
            "tanh({x}) = {got} vs libm {want} (err {:e})",
            (got - want).abs()
        );
    };
    let mut bits = 0u32;
    while bits <= 0x41a0_0000 {
        // 0.0 ..= 20.0 (deep saturation), every exponent field value
        check(f32::from_bits(bits));
        check(-f32::from_bits(bits));
        bits += 104_729;
    }
    let mut rng = Lcg(0x2545_f491_4f6c_dd1d);
    for _ in 0..200_000 {
        check(rng.next_f32_in(-10.0, 10.0));
    }
    // Saturation and propagation at the extremes.
    assert_eq!(mathx::tanh(f32::INFINITY), 1.0);
    assert_eq!(mathx::tanh(f32::NEG_INFINITY), -1.0);
    assert_eq!(mathx::tanh(1e30), 1.0);
    assert!(mathx::tanh(f32::NAN).is_nan());
}

#[test]
fn fast_policy_keeps_softmax_rows_normalized_and_close_to_reference() {
    let t = normal(&mut seeded_rng(43), 9, 65, 4.0);
    let (fast, _) = local_softmax(&t);

    for r in 0..9 {
        let sum: f64 = fast.row(r).iter().map(|&v| f64::from(v)).sum();
        assert!(
            (sum - 1.0).abs() < 1e-5,
            "fast softmax row {r} sums to {sum}"
        );
        // The libm softmax: max → exp(v − m) via libm → sequential sum →
        // multiply by the reciprocal.
        let src = t.row(r);
        let m = src.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let exps: Vec<f32> = src.iter().map(|&v| (v - m).exp()).collect();
        let inv = 1.0 / exps.iter().fold(0.0f32, |s, &e| s + e);
        for (f, e) in fast.row(r).iter().zip(&exps) {
            // Probabilities live in [0, 1]; the 4-ULP exp bound plus one
            // rounding in the normalization keeps the paths this close.
            let g = e * inv;
            assert!((f - g).abs() <= 1e-6, "row {r}: {f} vs {g}");
        }
    }
}
