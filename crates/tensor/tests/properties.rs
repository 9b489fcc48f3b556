//! Randomized-property tests for the tensor substrate, driven by a
//! deterministic seed sweep (no external property-testing framework).
//!
//! These pin down the algebraic identities the Vocabulary Parallelism
//! algorithms rely on: linearity of matmul, the transpose laws behind the
//! `nt`/`tn` kernels, shift-invariance of safe softmax and — most
//! importantly — that an arbitrarily sharded softmax rescaled with global
//! statistics (the paper's Eq. 5) reproduces the full softmax.

use vp_tensor::init::{normal, seeded_rng};
use vp_tensor::ops::{local_softmax, softmax_corrections, softmax_rows};
use vp_tensor::rng::Rng;
use vp_tensor::Tensor;

fn random_tensor(rng: &mut impl Rng, rows: usize, cols: usize) -> Tensor {
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| rng.gen_range(-50.0f32..50.0))
        .collect();
    Tensor::from_vec(rows, cols, data).unwrap()
}

fn random_dims(rng: &mut impl Rng) -> (usize, usize, usize) {
    (
        rng.gen_range(1..6usize),
        rng.gen_range(1..6usize),
        rng.gen_range(1..6usize),
    )
}

#[test]
fn matmul_nt_equals_matmul_with_transpose() {
    for seed in 0..64u64 {
        let mut rng = seeded_rng(seed);
        let (m, k, n) = random_dims(&mut rng);
        let a = normal(&mut rng, m, k, 1.0);
        let b = normal(&mut rng, n, k, 1.0);
        let via_nt = a.matmul_nt(&b).unwrap();
        let via_t = a.matmul(&b.transpose()).unwrap();
        assert!(via_nt.max_abs_diff(&via_t).unwrap() < 1e-4, "seed {seed}");
        let c = normal(&mut rng, m, n, 1.0);
        let via_tn = a.matmul_tn(&c).unwrap();
        let via_t2 = a.transpose().matmul(&c).unwrap();
        assert!(via_tn.max_abs_diff(&via_t2).unwrap() < 1e-4, "seed {seed}");
    }
}

#[test]
fn matmul_is_linear_in_lhs() {
    for seed in 100..164u64 {
        let mut rng = seeded_rng(seed);
        let (m, k, n) = random_dims(&mut rng);
        let a1 = normal(&mut rng, m, k, 1.0);
        let a2 = normal(&mut rng, m, k, 1.0);
        let b = normal(&mut rng, k, n, 1.0);
        let lhs = a1.add(&a2).unwrap().matmul(&b).unwrap();
        let rhs = a1.matmul(&b).unwrap().add(&a2.matmul(&b).unwrap()).unwrap();
        assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-3, "seed {seed}");
    }
}

#[test]
fn softmax_rows_are_probability_distributions() {
    for seed in 200..264u64 {
        let mut rng = seeded_rng(seed);
        let t = random_tensor(&mut rng, 3, 7);
        let s = softmax_rows(&t);
        for r in 0..3 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "seed {seed} row {r}");
            assert!(
                s.row(r).iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn softmax_is_shift_invariant() {
    for seed in 300..364u64 {
        let mut rng = seeded_rng(seed);
        let t = random_tensor(&mut rng, 2, 5);
        let shift = rng.gen_range(-100.0f32..100.0);
        let a = softmax_rows(&t);
        let b = softmax_rows(&t.map(|v| v + shift));
        assert!(
            a.max_abs_diff(&b).unwrap() < 1e-4,
            "seed {seed} shift {shift}"
        );
    }
}

/// The core identity of the paper (Eq. 5): shard the columns at an
/// arbitrary split point, softmax each shard locally, merge statistics
/// as the all-reduce would, rescale by each row's
/// [`softmax_corrections`] factor (the one `S`/`T` apply) — and recover the
/// full softmax.
#[test]
fn sharded_softmax_matches_full() {
    for seed in 400..464u64 {
        let mut rng = seeded_rng(seed);
        let t = random_tensor(&mut rng, 3, 8);
        let split = rng.gen_range(0..9usize);
        let full = softmax_rows(&t);
        let a = t.slice_cols(0, split).unwrap();
        let b = t.slice_cols(split, 8).unwrap();
        let (mut sa, st_a) = local_softmax(&a);
        let (mut sb, st_b) = local_softmax(&b);
        let rows = t.rows();
        let gmax: Vec<f32> = (0..rows).map(|r| st_a.max[r].max(st_b.max[r])).collect();
        let gsum: Vec<f32> = (0..rows)
            .map(|r| {
                let fix = |m: f32, s: f32| {
                    if s == 0.0 {
                        0.0
                    } else {
                        s * (m - gmax[r]).exp()
                    }
                };
                fix(st_a.max[r], st_a.sum[r]) + fix(st_b.max[r], st_b.sum[r])
            })
            .collect();
        for (shard, stats) in [(&mut sa, &st_a), (&mut sb, &st_b)] {
            let factors = softmax_corrections(stats, &gmax, &gsum).unwrap();
            for (r, f) in factors.into_iter().enumerate() {
                shard.row_mut(r).iter_mut().for_each(|v| *v *= f);
            }
        }
        for r in 0..rows {
            for c in 0..split {
                assert!((sa.at(r, c) - full.at(r, c)).abs() < 1e-5, "seed {seed}");
            }
            for c in split..8 {
                assert!(
                    (sb.at(r, c - split) - full.at(r, c)).abs() < 1e-5,
                    "seed {seed}"
                );
            }
        }
    }
}

#[test]
fn transpose_involution_and_slice_concat() {
    for seed in 500..564u64 {
        let mut rng = seeded_rng(seed);
        let t = random_tensor(&mut rng, 4, 5);
        let cut = rng.gen_range(0..5usize);
        assert_eq!(t.transpose().transpose(), t.clone());
        let top = t.slice_rows(0, cut).unwrap();
        let bottom = t.slice_rows(cut, 4).unwrap();
        let glued = Tensor::concat_rows(&[&top, &bottom]).unwrap();
        assert_eq!(glued, t);
    }
}
