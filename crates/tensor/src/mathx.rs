//! Polynomial vector math (`exp`, `tanh`): the one definition of every
//! elementwise transcendental in the kernels.
//!
//! The transcendental kernels (GELU's `tanh`, softmax's `exp`) used to call
//! libm once per element — the kernel bench measured GELU at 0.37 GFLOP/s
//! with scalar `tanh` taking ~25 ns/element, 4× slower than a 256³ matmul.
//! This module provides branch-free polynomial approximations that the
//! compiler auto-vectorizes (the workspace builds with `target-cpu=native`).
//!
//! # Numerics
//!
//! The approximations are bounded against libm, which is their test oracle
//! only (`crates/tensor/tests/mathx.rs`): [`exp`] within [`EXP_MAX_ULP`]
//! ULP over the full finite range (exact at `0`, `−∞`, `∞`, `NaN`),
//! [`tanh`] within [`TANH_MAX_ABS_ERROR`] absolute error with
//! `|tanh(x)| ≤ 1` everywhere and NaN propagated.
//!
//! Both are plain f32 arithmetic, which rustc neither contracts into FMA
//! nor reassociates, so their bits are a property of the source, not of
//! the host's libm or of the register tile. They are **deterministic and
//! elementwise**, so threaded kernels stay bitwise identical to serial
//! kernels, and a forward cache (GELU's tanh term) is bitwise what the
//! backward pass would recompute.

/// Documented bound for [`exp`] vs `f32::exp`, in units in the last place.
///
/// Property-tested over a dense sweep of the finite range plus randomized
/// inputs in `crates/tensor/tests/mathx.rs`.
pub const EXP_MAX_ULP: u32 = 4;

/// Documented bound for [`tanh`] vs `f32::tanh`, as absolute error.
///
/// `tanh` saturates in `[-1, 1]`, so an absolute bound (4 ULP of 1.0) is
/// the meaningful one; property-tested alongside [`EXP_MAX_ULP`].
pub const TANH_MAX_ABS_ERROR: f32 = 5e-7;

/// Always `true`: the kernels have one numeric path, [`exp`] and [`tanh`].
///
/// Kept only because the frozen benchmark's environment record
/// (`benchmark/src/env.rs`) reads it; ROADMAP item 1a retires it.
pub const fn fast_math() -> bool {
    true
}

// Cody–Waite split of ln 2 for the range reduction `x = n·ln2 + r`:
// the high part is exactly representable, so `x − n·LN2_HI` is exact for
// the |n| ≤ 151 that survive the clamp, and only the tiny LO term rounds.
const LOG2E: f32 = std::f32::consts::LOG2_E;
// Written with the digits of the exact f32 value (0x3F31_8000) so the split
// is auditable; clippy would round the literal to fewer digits.
#[allow(clippy::excessive_precision)]
const LN2_HI: f32 = 0.693_359_375;
const LN2_LO: f32 = -2.121_944_4e-4;

// Degree-5 minimax polynomial for e^r on r ∈ [−½ln2, ½ln2] (Cephes expf
// coefficients); c0 = c1 = 1 keeps exp(0) == 1 exactly.
const EXP_C2: f32 = 0.5;
const EXP_C3: f32 = 1.666_665_7e-1;
const EXP_C4: f32 = 4.166_695_4e-2;
const EXP_C5: f32 = 8.333_452e-3;
const EXP_C6: f32 = 1.398_10e-3;

/// `1.5·2²³`: adding it rounds any `|v| < 2²²` to an integer held in the
/// low mantissa bits.
const EXP_MAGIC: f32 = 12_582_912.0;
/// `EXP_MAGIC.to_bits()`.
const EXP_MAGIC_BITS: i32 = 0x4B40_0000;

/// Inputs below this underflow to `0.0` even through denormals.
const EXP_LO: f32 = -103.972_08;
/// Inputs above this overflow to `∞`.
const EXP_HI: f32 = 88.722_84;

/// Fast polynomial `e^x` (within [`EXP_MAX_ULP`] ULP of `f32::exp`).
///
/// Branch-free (clamp + arithmetic selects), so slices mapped through it
/// auto-vectorize. Special values match libm exactly: `exp(0) = 1`,
/// `exp(−∞) = 0`, `exp(∞) = ∞`, `exp(NaN) = NaN`.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    let xc = x.clamp(EXP_LO, EXP_HI);
    // Round-to-nearest via the 1.5·2²³ magic constant (valid because the
    // clamp bounds |x·log2e| ≤ 151 ≪ 2²²): `t` is `1.5·2²³ + n` exactly.
    let t = xc * LOG2E + EXP_MAGIC;
    let nf = t - EXP_MAGIC;
    let r = (xc - nf * LN2_HI) - nf * LN2_LO;
    let p = EXP_C6;
    let p = p * r + EXP_C5;
    let p = p * r + EXP_C4;
    let p = p * r + EXP_C3;
    let p = p * r + EXP_C2;
    let p = p * r + 1.0;
    let p = p * r + 1.0;
    // 2^n via exponent-field construction, split as 2^⌊n/2⌋·2^⌈n/2⌉ so the
    // clamp's n ∈ [−151, 129] scales through two normal-range multiplies
    // (a single 2^n would need a denormal exponent below n = −126). `n`
    // comes from `t`'s mantissa bits, where it sits as an integer: the same
    // value as `nf as i32`, but that cast saturates, and its clamping
    // selects kept LLVM from vectorizing the whole function.
    let n = (t.to_bits() as i32) - EXP_MAGIC_BITS;
    let n_hi = n >> 1;
    let n_lo = n - n_hi;
    let s_hi = f32::from_bits(((n_hi + 127) as u32) << 23);
    let s_lo = f32::from_bits(((n_lo + 127) as u32) << 23);
    let v = (p * s_hi) * s_lo;
    // Arithmetic selects (compile to vector blends, not branches).
    let v = if x < EXP_LO { 0.0 } else { v };
    let v = if x > EXP_HI { f32::INFINITY } else { v };
    if x.is_nan() {
        x
    } else {
        v
    }
}

// Eigen-style rational approximation of tanh on the non-saturated range:
// tanh(x) ≈ x·P(x²) / Q(x²), clamped to |x| ≤ 7.90531 beyond which the
// f32 value of tanh is ±1 to well under a ULP.
const TANH_CLAMP: f32 = 7.905_311;
const TANH_A1: f32 = 4.893_525e-3;
const TANH_A3: f32 = 6.372_619_3e-4;
const TANH_A5: f32 = 1.485_722_4e-5;
const TANH_A7: f32 = 5.122_297e-8;
const TANH_A9: f32 = -8.604_672e-11;
const TANH_A11: f32 = 2.000_188e-13;
const TANH_A13: f32 = -2.760_768_5e-16;
// Keeps the published coefficient's digits (rounds to the same f32).
#[allow(clippy::excessive_precision)]
const TANH_B0: f32 = 4.893_525_2e-3;
const TANH_B2: f32 = 2.268_434_6e-3;
const TANH_B4: f32 = 1.185_347e-4;
const TANH_B6: f32 = 1.198_258_4e-6;

/// Fast rational `tanh x` (within [`TANH_MAX_ABS_ERROR`] of `f32::tanh`,
/// `|result| ≤ 1`, NaN propagated).
///
/// Branch-free, so slices mapped through it auto-vectorize.
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    // `clamp` propagates NaN, so poisoned activations stay poisoned.
    let xc = x.clamp(-TANH_CLAMP, TANH_CLAMP);
    let x2 = xc * xc;
    let p = TANH_A13;
    let p = p * x2 + TANH_A11;
    let p = p * x2 + TANH_A9;
    let p = p * x2 + TANH_A7;
    let p = p * x2 + TANH_A5;
    let p = p * x2 + TANH_A3;
    let p = p * x2 + TANH_A1;
    let p = p * xc;
    let q = TANH_B6;
    let q = q * x2 + TANH_B4;
    let q = q * x2 + TANH_B2;
    let q = q * x2 + TANH_B0;
    let v = p / q;
    // The rational form stays inside (−1, 1) on the clamped range, but pin
    // the saturation contract against coefficient drift anyway.
    v.clamp(-1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_special_values_match_libm() {
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(f32::NEG_INFINITY), 0.0);
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert!(exp(f32::NAN).is_nan());
        assert_eq!(exp(-1000.0), 0.0);
        assert_eq!(exp(1000.0), f32::INFINITY);
    }

    /// [`exp`] as it was before `n` came from the bits of the rounded sum:
    /// `n` by the saturating `nf as i32` cast. The oracle the bit trick is
    /// pinned against.
    fn exp_with_cast(x: f32) -> f32 {
        let xc = x.clamp(EXP_LO, EXP_HI);
        let nf = (xc * LOG2E + 12_582_912.0) - 12_582_912.0;
        let r = (xc - nf * LN2_HI) - nf * LN2_LO;
        let p = EXP_C6;
        let p = p * r + EXP_C5;
        let p = p * r + EXP_C4;
        let p = p * r + EXP_C3;
        let p = p * r + EXP_C2;
        let p = p * r + 1.0;
        let p = p * r + 1.0;
        let n = nf as i32;
        let n_hi = n >> 1;
        let n_lo = n - n_hi;
        let s_hi = f32::from_bits(((n_hi + 127) as u32) << 23);
        let s_lo = f32::from_bits(((n_lo + 127) as u32) << 23);
        let v = (p * s_hi) * s_lo;
        let v = if x < EXP_LO { 0.0 } else { v };
        let v = if x > EXP_HI { f32::INFINITY } else { v };
        if x.is_nan() {
            x
        } else {
            v
        }
    }

    #[test]
    fn exp_bit_trick_is_bitwise_the_cast_formula() {
        let same = |x: f32| {
            assert_eq!(
                exp(x).to_bits(),
                exp_with_cast(x).to_bits(),
                "exp({x:e}) drifted from the cast formula"
            );
        };
        // 2 M evenly spaced points over the clamp window and one past it
        // on each side, which crosses every rounding boundary of `n`.
        let (lo, hi) = (EXP_LO - 1.0, EXP_HI + 1.0);
        let steps = 2_000_000;
        for i in 0..=steps {
            same(lo + (hi - lo) * (i as f32 / steps as f32));
        }
        // Every exponent field near zero (subnormals included), both signs.
        let mut bits = 0u32;
        while bits < 0x3f80_0000 {
            same(f32::from_bits(bits));
            same(-f32::from_bits(bits));
            bits += 7_919;
        }
        let specials = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MAX,
            f32::MIN,
            EXP_LO,
            EXP_HI,
        ];
        for x in specials {
            same(x);
        }
    }

    #[test]
    fn tanh_special_values() {
        assert_eq!(tanh(0.0), 0.0);
        assert_eq!(tanh(f32::INFINITY), tanh(100.0));
        assert!(tanh(f32::NAN).is_nan());
        assert!(tanh(50.0) <= 1.0 && tanh(50.0) > 0.999_999);
        assert!(tanh(-50.0) >= -1.0 && tanh(-50.0) < -0.999_999);
    }
}
