//! Seeded parameter initializers.
//!
//! All randomness in the workspace flows through explicit [`Rng`]
//! instances so that the pipeline-parallel runtime and the single-device
//! reference build *bit-identical* initial weights (a precondition for the
//! paper's convergence-equivalence evaluation, Appendix E).

use crate::rng::{Rng, StdRng};
use crate::Tensor;

/// Returns a deterministic RNG for the given seed.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Samples a `rows×cols` tensor from `N(0, std²)` using the Box–Muller
/// transform (keeps us independent of `rand_distr`).
pub fn normal(rng: &mut impl Rng, rows: usize, cols: usize, std: f32) -> Tensor {
    let mut t = Tensor::zeros(rows, cols);
    for v in t.data_mut() {
        *v = std * sample_standard_normal(rng);
    }
    t
}

/// GPT-2 style initialization: `N(0, 0.02²)`.
pub fn gpt(rng: &mut impl Rng, rows: usize, cols: usize) -> Tensor {
    normal(rng, rows, cols, 0.02)
}

fn sample_standard_normal(rng: &mut impl Rng) -> f32 {
    // Box–Muller; discard the second variate for simplicity.
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_deterministic() {
        let a = normal(&mut seeded_rng(7), 4, 4, 1.0);
        let b = normal(&mut seeded_rng(7), 4, 4, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = normal(&mut seeded_rng(1), 4, 4, 1.0);
        let b = normal(&mut seeded_rng(2), 4, 4, 1.0);
        assert!(a.max_abs_diff(&b).unwrap() > 0.0);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let t = normal(&mut seeded_rng(3), 100, 100, 1.0);
        let n = t.len() as f64;
        let mean = t.sum() / n;
        let var = t
            .data()
            .iter()
            .map(|&v| (v as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
