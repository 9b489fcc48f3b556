//! Property tests of the packed GEMM against a naive triple-loop reference.
//!
//! The packed microkernel (`crates/tensor/src/gemm.rs`) re-tiles and packs
//! operands but must accumulate every output element in ascending-`k`
//! order from `0.0` — exactly the naive `i-k-j` loop. These tests pin that
//! down **bitwise** for every layout on edge shapes: empty dimensions,
//! 1×1, sizes straddling the 64-wide blocking and the 4×8 register tile,
//! and NaN/∞ propagation through zero-padded pack panels. The unpacked row
//! kernel that takes `Nn` products below one register tile is pinned
//! against the packed path the same way, and so is the product against a
//! right operand packed once beforehand (`Tensor::matmul_nt_packed`).
//! The output layer's `dy` operand (`ops::SoftmaxGrad`), formed while
//! packing, is pinned against the staged tensor it replaces, and an FMA
//! tripwire fails the moment any path fuses a multiply into its add.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use vp_tensor::init::{normal, seeded_rng};
use vp_tensor::ops::{self, SoftmaxGrad};
use vp_tensor::{pool, set_num_threads, PackedB, Tensor};

/// `(m, k, n)` shapes chosen to hit every tiling edge: zero dims, single
/// elements, sub-tile sizes, exact block multiples, and off-by-one block
/// straddles (65 = 64+1, 129 = 2·64+1, 9 = MR·2+1, 17 = NR·2+1,
/// 131 = MC+3 spans the 128-row block boundary).
const SHAPES: &[(usize, usize, usize)] = &[
    (0, 5, 3),
    (5, 0, 3),
    (5, 3, 0),
    (0, 0, 0),
    (1, 1, 1),
    (1, 64, 1),
    (3, 5, 2),
    (4, 8, 8),
    (9, 17, 5),
    (17, 9, 33),
    (64, 64, 64),
    (65, 129, 66),
    (2, 200, 70),
    (131, 37, 19),
];

/// Naive `i-k-j` reference: one running accumulator per output element,
/// `p` strictly ascending — the order the packed kernel must preserve.
fn naive_nn(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Tensor::zeros(m, n);
    for i in 0..m {
        for p in 0..k {
            let av = a.at(i, p);
            for j in 0..n {
                *out.at_mut(i, j) += av * b.at(p, j);
            }
        }
    }
    out
}

fn naive_nt(a: &Tensor, bt: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let n = bt.rows();
    let mut out = Tensor::zeros(m, n);
    for i in 0..m {
        for p in 0..k {
            let av = a.at(i, p);
            for j in 0..n {
                *out.at_mut(i, j) += av * bt.at(j, p);
            }
        }
    }
    out
}

fn naive_tn(at: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = at.shape();
    let n = b.cols();
    let mut out = Tensor::zeros(m, n);
    for i in 0..m {
        for p in 0..k {
            let av = at.at(p, i);
            for j in 0..n {
                *out.at_mut(i, j) += av * b.at(p, j);
            }
        }
    }
    out
}

fn assert_bits_eq(actual: &Tensor, reference: &Tensor, what: &str) {
    assert_eq!(actual.shape(), reference.shape(), "{what}: shape");
    for (i, (x, y)) in actual.data().iter().zip(reference.data()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} diverged ({x} vs {y})"
        );
    }
}

#[test]
fn packed_gemm_matches_naive_reference_on_edge_shapes() {
    let mut rng = seeded_rng(2025);
    for &(m, k, n) in SHAPES {
        let a = normal(&mut rng, m, k, 1.0);
        let b = normal(&mut rng, k, n, 1.0);
        let bt = normal(&mut rng, n, k, 1.0);
        let at = normal(&mut rng, k, m, 1.0);
        assert_bits_eq(
            &a.matmul(&b).unwrap(),
            &naive_nn(&a, &b),
            &format!("nn {m}x{k}x{n}"),
        );
        assert_bits_eq(
            &a.matmul_nt(&bt).unwrap(),
            &naive_nt(&a, &bt),
            &format!("nt {m}x{k}x{n}"),
        );
        assert_bits_eq(
            &at.matmul_tn(&b).unwrap(),
            &naive_tn(&at, &b),
            &format!("tn {m}x{k}x{n}"),
        );
    }
}

#[test]
fn fused_bias_matches_naive_matmul_plus_bias() {
    let mut rng = seeded_rng(7);
    for &(m, k, n) in SHAPES {
        let a = normal(&mut rng, m, k, 1.0);
        let b = normal(&mut rng, k, n, 1.0);
        let bias = normal(&mut rng, 1, n, 0.7);
        let fused = a.matmul_bias(&b, &bias).unwrap();
        let mut reference = naive_nn(&a, &b);
        for i in 0..m {
            for j in 0..n {
                *reference.at_mut(i, j) += bias.at(0, j);
            }
        }
        assert_bits_eq(&fused, &reference, &format!("bias {m}x{k}x{n}"));
    }
}

#[test]
fn k_zero_yields_all_zero_output() {
    let a = Tensor::zeros(7, 0);
    let b = Tensor::zeros(0, 13);
    let out = a.matmul(&b).unwrap();
    assert_eq!(out.shape(), (7, 13));
    assert!(out.data().iter().all(|&v| v.to_bits() == 0.0f32.to_bits()));
    // With a bias, k=0 must still produce exactly the bias rows.
    let bias = Tensor::from_vec(1, 13, (0..13).map(|i| i as f32 - 6.0).collect()).unwrap();
    let biased = a.matmul_bias(&b, &bias).unwrap();
    for r in 0..7 {
        for (j, &bv) in bias.row(0).iter().enumerate() {
            // 0.0 + bv, the same order as the unfused path.
            assert_eq!(biased.at(r, j).to_bits(), (0.0f32 + bv).to_bits());
        }
    }
}

#[test]
fn nan_and_inf_propagate_through_packed_panels() {
    // Poison values land inside (and outside) zero-padded edge tiles of a
    // non-block-multiple shape; padding lanes must never leak into real
    // outputs, and real NaN/∞ terms must never be skipped.
    let (m, k, n) = (13, 66, 21);
    let mut rng = seeded_rng(99);
    let mut a = normal(&mut rng, m, k, 1.0);
    let mut b = normal(&mut rng, k, n, 1.0);
    *a.at_mut(12, 65) = f32::NAN; // last row/col: inside the ragged tile
    *a.at_mut(0, 0) = f32::INFINITY;
    *a.at_mut(5, 7) = 0.0;
    *b.at_mut(7, 20) = f32::NAN; // 0 · NaN must stay NaN
    *b.at_mut(65, 0) = f32::NEG_INFINITY;
    assert_bits_eq(&a.matmul(&b).unwrap(), &naive_nn(&a, &b), "nn poison");

    let mut bt = normal(&mut rng, n, k, 1.0);
    *bt.at_mut(20, 65) = f32::NAN;
    *bt.at_mut(0, 7) = f32::INFINITY;
    assert_bits_eq(&a.matmul_nt(&bt).unwrap(), &naive_nt(&a, &bt), "nt poison");

    let mut at = normal(&mut rng, k, m, 1.0);
    *at.at_mut(65, 12) = f32::NAN;
    *at.at_mut(3, 0) = 0.0;
    assert_bits_eq(&at.matmul_tn(&b).unwrap(), &naive_tn(&at, &b), "tn poison");
}

#[test]
fn tiles_never_spill_past_the_row_block_boundary() {
    // Regression: the compute loop clamped each tile to the *chunk* row
    // count instead of the packed 128-row block, so whenever MC % MR != 0
    // (the 6-row AVX2 tile) the last tile of a non-final block spilled
    // into the next block's rows, adding `0·b` terms from the zero
    // padding — x + 0·∞ = NaN and -0.0 + 0.0 = +0.0, silently breaking
    // bitwise identity and ∞ propagation for every m > 128. Poison `b`
    // with infinities in every column block so any spilled lane turns a
    // row ≥ 128 into NaN; the naive reference keeps it ±∞.
    let (m, k, n) = (131, 37, 19);
    let mut rng = seeded_rng(41);
    let a = normal(&mut rng, m, k, 1.0);
    let mut b = normal(&mut rng, k, n, 1.0);
    for j in 0..n {
        *b.at_mut(j % k, j) = if j % 2 == 0 {
            f32::INFINITY
        } else {
            f32::NEG_INFINITY
        };
    }
    assert_bits_eq(&a.matmul(&b).unwrap(), &naive_nn(&a, &b), "nn spill");

    let bt = b.transpose();
    assert_bits_eq(&a.matmul_nt(&bt).unwrap(), &naive_nt(&a, &bt), "nt spill");

    let at = a.transpose();
    assert_bits_eq(&at.matmul_tn(&b).unwrap(), &naive_tn(&at, &b), "tn spill");
}

#[test]
fn layouts_agree_with_explicit_transpose_bitwise() {
    // matmul_nt(a, b) and matmul(a, bᵀ) share per-element accumulation
    // order under the packed kernel, so they agree bitwise (a stronger
    // statement than the old approximate-equality test in tensor.rs).
    let mut rng = seeded_rng(31);
    let a = normal(&mut rng, 9, 70, 1.0);
    let bt = normal(&mut rng, 23, 70, 1.0);
    assert_bits_eq(
        &a.matmul_nt(&bt).unwrap(),
        &a.matmul(&bt.transpose()).unwrap(),
        "nt vs explicit transpose",
    );
    let at = normal(&mut rng, 70, 9, 1.0);
    let b = normal(&mut rng, 70, 23, 1.0);
    assert_bits_eq(
        &at.matmul_tn(&b).unwrap(),
        &at.transpose().matmul(&b).unwrap(),
        "tn vs explicit transpose",
    );
}

/// The register tile height `gemm.rs` picks for this target: an `Nn`
/// product with fewer rows runs the unpacked row kernel.
const MR: usize = if cfg!(all(target_arch = "x86_64", target_feature = "avx512f")) {
    8
} else if cfg!(all(target_arch = "x86_64", target_feature = "avx2")) {
    6
} else {
    4
};

/// The register tile width `gemm.rs` picks for this target.
const NR: usize = if cfg!(all(target_arch = "x86_64", target_feature = "avx512f")) {
    32
} else if cfg!(all(target_arch = "x86_64", target_feature = "avx2")) {
    16
} else {
    8
};

/// Serializes the tests that change the pool's process-wide configuration
/// (no result depends on it, but each restores what it found).
fn pool_config_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn prepacked_nt_is_bitwise_matmul_nt() {
    // Shapes straddle the register tile (MR rows, NR columns), the KC = 128
    // panel depth and the NC = 512 column block; thread counts cover the
    // serial path, the column-panel split and the row split.
    let _guard = pool_config_lock();
    let threads_before = vp_tensor::num_threads();
    pool::set_assumed_cores(16);
    let mut rng = seeded_rng(2029);
    let poison = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
    for k in [1, 127, 128, 129, 300] {
        for n in [1, NR - 1, NR, NR + 1, 512, 513, 1100] {
            let mut w = normal(&mut rng, n, k, 1.0);
            for (i, &v) in poison.iter().enumerate() {
                *w.at_mut((i * 37 + 5) % n, (i * 29 + 3) % k) = v;
            }
            let packed = PackedB::pack_nt(&w);
            assert_eq!((packed.n(), packed.k()), (n, k));
            for m in [1, MR - 1, MR, 17, 130] {
                let mut a = normal(&mut rng, m, k, 1.0);
                if m > 1 {
                    // Leave row 0 clean so poison never covers every row.
                    for (i, &v) in poison.iter().enumerate() {
                        *a.at_mut(1 + (i * 7) % (m - 1), (i * 41) % k) = v;
                    }
                }
                for threads in [1, 2, 7] {
                    set_num_threads(threads);
                    assert_bits_eq(
                        &a.matmul_nt_packed(&packed).unwrap(),
                        &a.matmul_nt(&w).unwrap(),
                        &format!("packed nt {m}x{k}x{n} threads={threads}"),
                    );
                }
            }
        }
    }
    set_num_threads(threads_before);
    pool::set_assumed_cores(0);
    let packed = PackedB::pack_nt(&Tensor::zeros(3, 5));
    assert!(Tensor::zeros(2, 4).matmul_nt_packed(&packed).is_err());
}

#[test]
fn row_kernel_is_bitwise_the_packed_path_and_never_dispatches() {
    // The packed path for the same rows: pad `a` with zero rows up to 8
    // (at least one full tile on every target). Output rows are
    // independent, so the first `m` rows of that product are what the
    // packed path computes for `a`.
    let _guard = pool_config_lock();
    let threads_before = vp_tensor::num_threads();
    pool::set_assumed_cores(16);
    let mut rng = seeded_rng(2027);
    for threads in [1, 2, 7] {
        set_num_threads(threads);
        for m in 1..8 {
            for k in [1, 127, 128, 129, 513] {
                for n in [1, 31, 128, 130, 512] {
                    let mut a = normal(&mut rng, m, k, 1.0);
                    let mut b = normal(&mut rng, k, n, 1.0);
                    let bias = normal(&mut rng, 1, n, 0.7);
                    let poison = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0];
                    for (i, &v) in poison.iter().enumerate() {
                        *a.at_mut((i * 3) % m, (i * 37) % k) = v;
                        *b.at_mut((i * 41 + 7) % k, (i * 29 + 3) % n) = v;
                    }
                    let mut padded = Tensor::zeros(8, k);
                    padded.data_mut()[..m * k].copy_from_slice(a.data());
                    let what = format!("{m}x{k}x{n} threads={threads}");

                    let enqueued = pool::tasks_enqueued();
                    let plain = a.matmul(&b).unwrap();
                    let biased = a.matmul_bias(&b, &bias).unwrap();
                    if m < MR {
                        assert_eq!(pool::tasks_enqueued(), enqueued, "{what}: dispatched");
                    }
                    let packed = padded.matmul(&b).unwrap();
                    let packed_biased = padded.matmul_bias(&b, &bias).unwrap();
                    assert_bits_eq(&plain, &packed.slice_rows(0, m).unwrap(), &what);
                    assert_bits_eq(&biased, &packed_biased.slice_rows(0, m).unwrap(), &what);
                    assert_bits_eq(&plain, &naive_nn(&a, &b), &format!("{what} vs naive"));
                }
            }
        }
    }
    set_num_threads(threads_before);
    pool::set_assumed_cores(0);
}

#[test]
fn no_path_fuses_multiply_and_add() {
    // Every element's running total reaches −(1+2⁻¹¹), then takes the term
    // (1+2⁻¹²)·(1+2⁻¹²) = 1 + 2⁻¹¹ + 2⁻²⁴. Mul-then-add rounds the product
    // first (a tie, to even: 1 + 2⁻¹¹) and the sum is exactly 0; a fused
    // multiply-add keeps the product exact and leaves 2⁻²⁴. The shape is
    // whole register tiles on every target (24 rows, 32 columns).
    let (m, n) = (24, 32);
    let acc = -(1.0 + 2f32.powi(-11));
    let term = 1.0 + 2f32.powi(-12);
    let zeros = |t: &Tensor, what: &str| {
        assert_eq!(t.shape(), (m, n), "{what}");
        for &v in t.data() {
            assert_eq!(v, 0.0, "{what}: {v:e} — a multiply was fused into its add");
        }
    };
    // A'[i] = [acc, term] and B'[·][j] = [1, term]: p = 0 sets the total,
    // p = 1 is the tripwire term.
    let a = Tensor::from_vec(m, 2, [acc, term].repeat(m)).unwrap();
    let b = Tensor::from_vec(2, n, [vec![1.0; n], vec![term; n]].concat()).unwrap();
    let bt = Tensor::from_vec(n, 2, [1.0, term].repeat(n)).unwrap();
    let at = Tensor::from_vec(2, m, [vec![acc; m], vec![term; m]].concat()).unwrap();
    zeros(&a.matmul(&b).unwrap(), "nn");
    zeros(&a.matmul_nt(&bt).unwrap(), "nt");
    zeros(&at.matmul_tn(&b).unwrap(), "tn");
    zeros(
        &a.matmul_nt_packed(&PackedB::pack_nt(&bt)).unwrap(),
        "nt packed",
    );
    // The accumulate epilogue: the running total is `into` itself and the
    // one-row product adds the tripwire term (dy = ((v·1)·1)·1 = v).
    let exps = Tensor::full(1, m, term);
    let dy = SoftmaxGrad::new(&exps, &[1.0], &[1.0], &[None], 1.0).unwrap();
    let mut into = Tensor::full(m, n, acc);
    dy.matmul_tn_accumulate(&Tensor::full(1, n, term), &mut into)
        .unwrap();
    zeros(&into, "accumulate epilogue");
}

#[test]
fn softmax_grad_products_are_bitwise_the_staged_ones() {
    // `dy` formed while packing against `dy` built first: both products,
    // on shapes that straddle the tile, the KC = 128 panel (the fused
    // write-back's limit) and the 128-row block, with labels inside and
    // outside the shard and a zero correction.
    let _guard = pool_config_lock();
    let threads_before = vp_tensor::num_threads();
    pool::set_assumed_cores(16);
    let mut rng = seeded_rng(2031);
    for (rows, width, h) in [
        (1, 5, 3),
        (3, 40, 7),
        (9, 130, 33),
        (128, 64, 5),
        (129, 70, 9),
    ] {
        let mut exps = normal(&mut rng, rows, width, 1.0);
        *exps.at_mut(rows / 2, width / 3) = f32::NAN;
        let norm: Vec<f32> = (0..rows).map(|r| [0.37, 1.0, 2.9, 1.0][r % 4]).collect();
        let corr: Vec<f32> = (0..rows).map(|r| [0.75, 0.0, 1.3][r % 3]).collect();
        let labels: Vec<Option<usize>> = (0..rows)
            .map(|r| (r % 4 != 1).then_some((r * 7) % width))
            .collect();
        let inv_n = 1.0 / rows as f32;
        let dy = SoftmaxGrad::new(&exps, &norm, &corr, &labels, inv_n).unwrap();
        let staged = dy.to_tensor();
        let w = normal(&mut rng, width, h, 1.0);
        let x = normal(&mut rng, rows, h, 1.0);
        let grad0 = normal(&mut rng, width, h, 1.0);
        for threads in [1, 2, 7] {
            set_num_threads(threads);
            let what = format!("{rows}x{width}x{h} threads={threads}");
            assert_bits_eq(&dy.matmul(&w).unwrap(), &staged.matmul(&w).unwrap(), &what);
            let mut fused = grad0.clone();
            dy.matmul_tn_accumulate(&x, &mut fused).unwrap();
            let mut reference = grad0.clone();
            reference
                .add_assign(&staged.matmul_tn(&x).unwrap())
                .unwrap();
            assert_bits_eq(&fused, &reference, &what);
        }
        // The staged tensor is the documented element formula.
        for r in 0..rows {
            for c in 0..width {
                let mut v = ((exps.at(r, c) * norm[r]) * corr[r]) * inv_n;
                if labels[r] == Some(c) {
                    v -= inv_n;
                }
                assert_eq!(staged.at(r, c).to_bits(), v.to_bits(), "({r}, {c})");
            }
        }
        let mut wrong = Tensor::zeros(width + 1, h);
        assert!(dy.matmul_tn_accumulate(&x, &mut wrong).is_err());
    }
    set_num_threads(threads_before);
    pool::set_assumed_cores(0);
    let exps = Tensor::zeros(2, 3);
    let ones = [1.0; 2];
    assert!(SoftmaxGrad::new(&exps, &ones, &[1.0], &[None, None], 1.0).is_err());
    assert!(SoftmaxGrad::new(&exps, &[1.0], &ones, &[None, None], 1.0).is_err());
    assert!(SoftmaxGrad::new(&exps, &ones, &ones, &[None, Some(3)], 1.0).is_err());
}

#[test]
fn normalized_matmul_is_bitwise_scale_then_matmul() {
    // `e · norm` formed while packing against the rows scaled first, on
    // shapes below one register tile (the row kernel), straddling it, past
    // one KC = 128 panel and past the 128-row block; a `NaN` and a `−0.0`
    // pass the `1.0` norm of a degenerate row unchanged.
    let _guard = pool_config_lock();
    let threads_before = vp_tensor::num_threads();
    pool::set_assumed_cores(16);
    let mut rng = seeded_rng(2032);
    for (rows, width, h) in [(1, 5, 3), (3, 40, 7), (9, 130, 33), (129, 70, 9)] {
        let mut exps = normal(&mut rng, rows, width, 1.0);
        *exps.at_mut(rows / 2, width / 3) = f32::NAN;
        *exps.at_mut(rows - 1, 0) = -0.0;
        let norm: Vec<f32> = (0..rows).map(|r| [0.37, 1.0, 2.9][r % 3]).collect();
        let mut scaled = exps.clone();
        for (r, &f) in norm.iter().enumerate() {
            scaled.row_mut(r).iter_mut().for_each(|v| *v *= f);
        }
        let w = normal(&mut rng, width, h, 1.0);
        for threads in [1, 2, 7] {
            set_num_threads(threads);
            let what = format!("{rows}x{width}x{h} threads={threads}");
            let fused = ops::normalized_matmul(&exps, &norm, &w).unwrap();
            assert_bits_eq(&fused, &scaled.matmul(&w).unwrap(), &what);
        }
    }
    set_num_threads(threads_before);
    pool::set_assumed_cores(0);
    let exps = Tensor::zeros(2, 3);
    assert!(ops::normalized_matmul(&exps, &[1.0], &Tensor::zeros(3, 2)).is_err());
    assert!(ops::normalized_matmul(&exps, &[1.0; 2], &Tensor::zeros(4, 2)).is_err());
}
