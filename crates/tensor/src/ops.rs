//! Reductions and the (safe / online) softmax family.
//!
//! These free functions are the numerical primitives that the paper's
//! partitioned output layer is built from: per-row maxima, shifted
//! exponential sums, locally-normalized softmax and the rescaling identity
//! (Equation 5)
//!
//! ```text
//! softmax(Y)_ij = softmax'(Y)_ij × (sum'_i · e^{m'_i − m_i}) / sum_i
//! ```
//!
//! that lets each vocabulary shard normalize with *local* statistics first
//! and correct with *global* statistics after the all-reduce.

use crate::{mathx, pool, Result, Tensor, TensorError};

/// Per-row maximum. Returns a vector of length `t.rows()`.
///
/// Rows of an empty-width tensor yield `f32::NEG_INFINITY`, matching the
/// identity element of `max` (an empty vocabulary shard contributes nothing
/// to the global maximum).
pub fn row_max(t: &Tensor) -> Vec<f32> {
    let rows = t.rows();
    let mut max = vec![f32::NEG_INFINITY; rows];
    pool::par_rows_mut(rows, t.len(), &mut max, |r0, _r1, chunk| {
        for (li, m) in chunk.iter_mut().enumerate() {
            *m = t
                .row(r0 + li)
                .iter()
                .fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        }
    });
    max
}

/// Per-row `Σ e^{x − m_r}` for the provided per-row shift `m`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] if `m.len() != t.rows()`.
pub fn row_sum_exp(t: &Tensor, m: &[f32]) -> Result<Vec<f32>> {
    if m.len() != t.rows() {
        return Err(TensorError::InvalidArgument(format!(
            "row_sum_exp: {} shifts for {} rows",
            m.len(),
            t.rows()
        )));
    }
    Ok((0..t.rows())
        .map(|r| t.row(r).iter().map(|&v| (v - m[r]).exp()).sum())
        .collect())
}

/// Per-row statistics of a *local* (shard) softmax.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftmaxStats {
    /// Per-row maximum `m'_i` over the local columns.
    pub max: Vec<f32>,
    /// Per-row `sum'_i = Σ_k e^{Y_ik − m'_i}` over the local columns.
    pub sum: Vec<f32>,
}

/// Writes `dst[j] = e^{src[j] − m}` and returns the sum of the results.
///
/// Exponentiate first, sum second: a running `s += e` inside the exp loop
/// is a loop-carried dependence that would serialize it, so a fused single
/// pass cannot vectorize. Two passes add the identical `e` values in the
/// identical ascending index order — same bits — while the exp loop is
/// free to run a full vector wide. The exponential follows the process
/// accuracy policy ([`crate::mathx`]): the reference path calls `f32::exp`,
/// the fast path the bounded polynomial [`mathx::exp`].
///
/// # Panics
///
/// Panics if `src` and `dst` differ in length.
pub fn exp_sum(src: &[f32], m: f32, dst: &mut [f32]) -> f32 {
    assert_eq!(src.len(), dst.len(), "exp_sum: row length mismatch");
    if mathx::fast_math() {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = mathx::exp(v - m);
        }
    } else {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = (v - m).exp();
        }
    }
    // From `−0.0`, the additive identity: any first term `e` gives exactly
    // `e` (as a start of `+0.0` does for every `e` an exp can return), and
    // an empty row sums to what `Iterator::sum` gives it.
    let mut s = -0.0f32;
    for &e in dst.iter() {
        s += e;
    }
    s
}

/// The safe softmax of one row, `src` into `dst`; returns the row's
/// `(max, sum)`.
///
/// This is the one implementation of "max, policy exp, ascending sum,
/// scale by the reciprocal": [`local_softmax`] runs it on every row and
/// the paged decode attention on every score row. An empty or all-`−∞`
/// row gets the identity statistics `(−∞, 0)` and a *defined zero row*
/// rather than `NaN` from `e^{−∞ − (−∞)}`; a `NaN` anywhere in such a row
/// (the max ignores `NaN`) still poisons the row and its sum.
pub(crate) fn softmax_row(src: &[f32], dst: &mut [f32]) -> (f32, f32) {
    let m = src.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    if m == f32::NEG_INFINITY {
        let s = if src.iter().any(|v| v.is_nan()) {
            f32::NAN
        } else {
            0.0
        };
        dst.fill(s);
        return (m, s);
    }
    let s = exp_sum(src, m, dst);
    if s > 0.0 {
        let inv = 1.0 / s;
        for d in dst.iter_mut() {
            *d *= inv;
        }
    }
    (m, s)
}

/// Computes the locally-normalized softmax and its per-row statistics.
///
/// This is the `S`-pass kernel of Algorithms 1 and 2: each device computes
/// `softmax'(Y)` using only its own vocabulary shard, deferring global
/// normalization to the communication barrier.
///
/// For a zero-width shard the statistics are `(−∞, 0)`, the identity
/// elements of the max / sum reductions; a fully-masked (all-`−∞`) row
/// gets the same statistics and a zero row (see `softmax_row`, which
/// every row goes through — the per-row maximum is computed *inside* the
/// same parallel region as the exponentials, one pool dispatch in all).
pub fn local_softmax(t: &Tensor) -> (Tensor, SoftmaxStats) {
    let (rows, cols) = t.shape();
    let mut out = Tensor::zeros(rows, cols);
    let mut sum = vec![0.0f32; rows];
    let mut max = vec![f32::NEG_INFINITY; rows];
    let work = t.len().saturating_mul(8);
    pool::par_rows_mut3(
        rows,
        work,
        out.data_mut(),
        &mut sum,
        &mut max,
        |r0, _r1, out_chunk, sum_chunk, max_chunk| {
            // A zero-width shard has no rows to visit and keeps the
            // identity statistics the vectors were filled with.
            let stats = sum_chunk.iter_mut().zip(max_chunk.iter_mut());
            let dsts = out_chunk.chunks_exact_mut(cols.max(1));
            for (li, (dst, (s, m))) in dsts.zip(stats).enumerate() {
                (*m, *s) = softmax_row(t.row(r0 + li), dst);
            }
        },
    );
    (out, SoftmaxStats { max, sum })
}

/// Rescales a local softmax into the global softmax (the paper's Eq. 5).
///
/// `local` holds `softmax'(Y)` for one shard with statistics
/// (`local_max`, `local_sum`); (`global_max`, `global_sum`) are the
/// all-reduced statistics. The correction factor per row is
/// `local_sum · e^{local_max − global_max} / global_sum`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] if any statistics vector has a
/// length different from `local.rows()`, or if any global statistic is
/// invalid (`NaN`, or a negative sum) — dividing by such a `global_sum`
/// would manufacture `NaN` probabilities out of finite inputs. A global sum
/// of exactly `0` (every shard of the row was empty or fully masked) is
/// *valid* and yields a defined zero row, matching [`local_softmax`].
pub fn rescale_softmax(
    local: &mut Tensor,
    local_stats: &SoftmaxStats,
    global_max: &[f32],
    global_sum: &[f32],
) -> Result<()> {
    let rows = local.rows();
    if local_stats.max.len() != rows
        || local_stats.sum.len() != rows
        || global_max.len() != rows
        || global_sum.len() != rows
    {
        return Err(TensorError::InvalidArgument(
            "rescale_softmax: statistics length mismatch".into(),
        ));
    }
    let mut factors = vec![0.0f32; rows];
    for (r, factor) in factors.iter_mut().enumerate() {
        let (gm, gs) = (global_max[r], global_sum[r]);
        if gm.is_nan() || gs.is_nan() || gs < 0.0 {
            return Err(TensorError::InvalidArgument(format!(
                "rescale_softmax: invalid global statistics at row {r} (max {gm}, sum {gs})"
            )));
        }
        *factor = softmax_correction(local_stats.max[r], local_stats.sum[r], gm, gs);
    }
    let cols = local.cols();
    let factors_ref = &factors;
    pool::par_rows_mut(
        rows,
        rows.saturating_mul(cols),
        local.data_mut(),
        |r0, _r1, chunk| {
            for (li, row) in chunk.chunks_mut(cols.max(1)).enumerate() {
                let factor = factors_ref[r0 + li];
                for v in row {
                    *v *= factor;
                }
            }
        },
    );
    Ok(())
}

/// The per-row correction factor of Eq. 5:
/// `sum' · e^{m' − m} / sum`, with 0 for empty or fully-masked shards.
///
/// Guarded against degenerate statistics: a non-positive (or `NaN`) local
/// or global sum yields a factor of exactly `0` instead of dividing by zero
/// — an all-`−∞` logits row (global sum 0) therefore rescales to a defined
/// zero row rather than `NaN` probabilities.
#[inline]
pub fn softmax_correction(local_max: f32, local_sum: f32, global_max: f32, global_sum: f32) -> f32 {
    let degenerate = |v: f32| v <= 0.0 || v.is_nan();
    if degenerate(local_sum) || degenerate(global_sum) {
        return 0.0;
    }
    local_sum * (local_max - global_max).exp() / global_sum
}

/// Numerically-safe softmax over every row, returning a new tensor.
pub fn softmax_rows(t: &Tensor) -> Tensor {
    let (out, _) = local_softmax(t);
    out
}

/// Per-row `log Σ e^{x}` computed stably.
pub fn log_sum_exp_rows(t: &Tensor) -> Vec<f32> {
    let max = row_max(t);
    (0..t.rows())
        .map(|r| {
            let m = max[r];
            if m == f32::NEG_INFINITY {
                return f32::NEG_INFINITY;
            }
            let s: f32 = t.row(r).iter().map(|&v| (v - m).exp()).sum();
            m + s.ln()
        })
        .collect()
}

/// Mean negative log-likelihood of `labels` under row-wise softmax of
/// `logits` (the standard language-modelling loss).
///
/// # Errors
///
/// Returns [`TensorError::OutOfBounds`] if any label is `>= logits.cols()`
/// or [`TensorError::InvalidArgument`] if `labels.len() != logits.rows()`.
pub fn cross_entropy_mean(logits: &Tensor, labels: &[usize]) -> Result<f64> {
    if labels.len() != logits.rows() {
        return Err(TensorError::InvalidArgument(format!(
            "cross_entropy: {} labels for {} rows",
            labels.len(),
            logits.rows()
        )));
    }
    let lse = log_sum_exp_rows(logits);
    let mut total = 0.0f64;
    for (r, &label) in labels.iter().enumerate() {
        if label >= logits.cols() {
            return Err(TensorError::OutOfBounds {
                op: "cross_entropy",
                index: label,
                bound: logits.cols(),
            });
        }
        total += (lse[r] - logits.at(r, label)) as f64;
    }
    Ok(total / labels.len() as f64)
}

/// Per-row index of the maximum element (first on ties).
///
/// # Panics
///
/// Panics if the tensor has zero columns (no maximum exists).
pub fn argmax_rows(t: &Tensor) -> Vec<usize> {
    assert!(t.cols() > 0, "argmax of an empty row");
    (0..t.rows())
        .map(|r| {
            let row = t.row(r);
            let mut best = 0;
            for (i, &v) in row.iter().enumerate().skip(1) {
                // Strict comparison keeps the first maximum on ties.
                if v > row[best] {
                    best = i;
                }
            }
            best
        })
        .collect()
}

/// Builds the one-hot ground-truth matrix `G` (`G[i, g_i] = 1`) used in the
/// paper's backward formulas.
///
/// # Errors
///
/// Returns [`TensorError::OutOfBounds`] if any label is `>= cols`.
pub fn one_hot(labels: &[usize], cols: usize) -> Result<Tensor> {
    let mut g = Tensor::zeros(labels.len(), cols);
    for (r, &label) in labels.iter().enumerate() {
        if label >= cols {
            return Err(TensorError::OutOfBounds {
                op: "one_hot",
                index: label,
                bound: cols,
            });
        }
        *g.at_mut(r, label) = 1.0;
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Tensor {
        Tensor::from_vec(2, 4, vec![1.0, 2.0, 3.0, 4.0, -1.0, 0.0, 100.0, 100.0]).unwrap()
    }

    #[test]
    fn softmax_rows_sum_to_one_and_are_stable() {
        let s = softmax_rows(&toy());
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(s.row(r).iter().all(|v| v.is_finite() && *v >= 0.0));
        }
        // The two tied large logits split the mass evenly.
        assert!((s.at(1, 2) - 0.5).abs() < 1e-6);
        assert!((s.at(1, 3) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn sharded_softmax_rescaled_matches_full() {
        let t = toy();
        let full = softmax_rows(&t);
        // Split columns into two shards, compute local softmax, then merge
        // statistics as the all-reduce would and rescale.
        let a = t.slice_cols(0, 1).unwrap();
        let b = t.slice_cols(1, 4).unwrap();
        let (mut sa, st_a) = local_softmax(&a);
        let (mut sb, st_b) = local_softmax(&b);
        let gmax: Vec<f32> = st_a
            .max
            .iter()
            .zip(&st_b.max)
            .map(|(&x, &y)| x.max(y))
            .collect();
        let gsum: Vec<f32> = (0..2)
            .map(|r| {
                st_a.sum[r] * (st_a.max[r] - gmax[r]).exp()
                    + st_b.sum[r] * (st_b.max[r] - gmax[r]).exp()
            })
            .collect();
        rescale_softmax(&mut sa, &st_a, &gmax, &gsum).unwrap();
        rescale_softmax(&mut sb, &st_b, &gmax, &gsum).unwrap();
        for r in 0..2 {
            assert!((sa.at(r, 0) - full.at(r, 0)).abs() < 1e-6);
            for c in 0..3 {
                assert!((sb.at(r, c) - full.at(r, c + 1)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn empty_shard_has_identity_stats() {
        let empty = Tensor::zeros(3, 0);
        let (_, stats) = local_softmax(&empty);
        assert!(stats.max.iter().all(|&m| m == f32::NEG_INFINITY));
        assert!(stats.sum.iter().all(|&s| s == 0.0));
        assert_eq!(softmax_correction(f32::NEG_INFINITY, 0.0, 5.0, 2.0), 0.0);
    }

    #[test]
    fn all_neg_inf_row_yields_defined_zero_row() {
        // Regression: `e^{−∞ − (−∞)}` is NaN, so a fully-masked logits row
        // used to produce NaN probabilities and NaN statistics, which then
        // poisoned the Eq.-5 rescale of *every* shard via the global sum.
        let t = Tensor::from_vec(2, 3, vec![f32::NEG_INFINITY; 6]).unwrap();
        let (probs, stats) = local_softmax(&t);
        assert!(probs.data().iter().all(|&v| v == 0.0));
        assert!(stats.max.iter().all(|&m| m == f32::NEG_INFINITY));
        assert!(stats.sum.iter().all(|&s| s == 0.0));
        // The zero global sum rescales to a defined zero row, not NaN.
        let mut local = probs;
        rescale_softmax(&mut local, &stats, &stats.max, &stats.sum).unwrap();
        assert!(local.data().iter().all(|&v| v == 0.0));
        assert_eq!(
            softmax_correction(f32::NEG_INFINITY, 0.0, f32::NEG_INFINITY, 0.0),
            0.0
        );
    }

    #[test]
    fn nan_logits_still_poison_local_softmax() {
        let t = Tensor::from_vec(2, 2, vec![f32::NAN, f32::NEG_INFINITY, 1.0, 2.0]).unwrap();
        let (probs, stats) = local_softmax(&t);
        // Row 0 is poisoned (max ignores NaN, so it must be re-detected).
        assert!(probs.at(0, 0).is_nan() && probs.at(0, 1).is_nan());
        assert!(stats.sum[0].is_nan());
        // Row 1 is unaffected.
        assert!((probs.row(1).iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rescale_rejects_invalid_global_statistics() {
        let t = Tensor::from_vec(1, 2, vec![1.0, 2.0]).unwrap();
        let (mut probs, stats) = local_softmax(&t);
        let err = rescale_softmax(&mut probs, &stats, &[2.0], &[f32::NAN]);
        assert!(matches!(err, Err(TensorError::InvalidArgument(_))));
        let err = rescale_softmax(&mut probs, &stats, &[f32::NAN], &[1.0]);
        assert!(matches!(err, Err(TensorError::InvalidArgument(_))));
        let err = rescale_softmax(&mut probs, &stats, &[2.0], &[-1.0]);
        assert!(matches!(err, Err(TensorError::InvalidArgument(_))));
    }

    #[test]
    fn zero_width_shard_rescales_without_error() {
        // The zero-width-shard path: rows exist but the shard owns no
        // columns. Stats are the (−∞, 0) identities and rescaling against
        // any valid global statistics is a no-op.
        let empty = Tensor::zeros(3, 0);
        let (mut probs, stats) = local_softmax(&empty);
        rescale_softmax(&mut probs, &stats, &[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]).unwrap();
        assert_eq!(probs.shape(), (3, 0));
        // Correction for an empty shard against a live global row is 0.
        assert_eq!(softmax_correction(f32::NEG_INFINITY, 0.0, 1.0, 4.0), 0.0);
    }

    #[test]
    fn cross_entropy_matches_manual() {
        let logits = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap();
        let p = softmax_rows(&logits);
        let expected = -(p.at(0, 1) as f64).ln();
        let got = cross_entropy_mean(&logits, &[1]).unwrap();
        assert!((got - expected).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_validates_inputs() {
        let logits = Tensor::zeros(2, 3);
        assert!(cross_entropy_mean(&logits, &[0]).is_err());
        assert!(cross_entropy_mean(&logits, &[0, 3]).is_err());
    }

    #[test]
    fn one_hot_basic() {
        let g = one_hot(&[2, 0], 3).unwrap();
        assert_eq!(g.data(), &[0., 0., 1., 1., 0., 0.]);
        assert!(one_hot(&[3], 3).is_err());
    }

    #[test]
    fn log_sum_exp_is_shift_invariant() {
        let t = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap();
        let shifted = t.map(|v| v + 1000.0);
        let a = log_sum_exp_rows(&t)[0];
        let b = log_sum_exp_rows(&shifted)[0];
        assert!((b - a - 1000.0).abs() < 1e-3);
        assert!(b.is_finite());
    }

    #[test]
    fn argmax_rows_picks_first_maximum() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 5.0, 5.0, -1.0, -3.0, -2.0]).unwrap();
        assert_eq!(argmax_rows(&t), vec![1, 0]);
    }

    #[test]
    fn row_sum_exp_validates_shift_length() {
        let t = Tensor::zeros(2, 2);
        assert!(row_sum_exp(&t, &[0.0]).is_err());
    }
}
