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

use crate::gemm::{self, Gemm, Layout, Lhs, Rhs};
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

/// Per-row statistics of a *local* (shard) softmax.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftmaxStats {
    /// Per-row maximum `m'_i` over the local columns.
    pub max: Vec<f32>,
    /// Per-row `sum'_i = Σ_k e^{Y_ik − m'_i}` over the local columns.
    pub sum: Vec<f32>,
}

/// Rows whose ascending sums [`exp_sum_rows`] runs side by side: that
/// many independent add chains, where one row's sum is one chain of
/// dependent adds that leaves the adder waiting on its own latency. A
/// property of the loop, not a tuning knob: the bits never depend on it.
pub const EXP_SUM_ROWS: usize = 8;

/// The exp-sum of every row of `data`: row `r` starts at `r · stride` and
/// is `width(r) ≤ stride` wide (a uniform `cols`-wide tensor passes
/// `stride = cols`, `|_| cols`; the causal score rows of chunk attention
/// grow by one position per row). Row `r` gets its maximum `max[r] = m`,
/// every element `v` of its width replaced in place by `e^{v − m}`, and
/// `sum[r]`, the sum of those `e` in ascending column order; what lies
/// past a row's width is not touched. The exponential is the bounded
/// polynomial [`mathx::exp`].
///
/// An empty or all-`−∞` row gets the identity statistics `(−∞, 0)` and a
/// *defined zero row* rather than `NaN` from `e^{−∞ − (−∞)}`; a `NaN`
/// anywhere in such a row (the max ignores `NaN`) still poisons the row
/// and its sum.
///
/// Each row is exponentiated first and summed second: a running `s += e`
/// inside the exp loop is a loop-carried dependence that would serialize
/// it, so the exp loop runs a full vector wide on its own. The sums of
/// [`EXP_SUM_ROWS`] rows then advance together, one column at a time, as
/// that many independent chains, over the columns every row of the group
/// has; each longer row then finishes its own columns alone. Every chain
/// adds its own row's `e` one at a time in ascending order, exactly the
/// single-row loop's order, so the grouping changes no bit: only the wait
/// between dependent adds goes.
///
/// # Panics
///
/// Panics unless `max` and `sum` have one entry per row, `data` holds
/// `stride` values per row and every width fits its row.
pub fn exp_sum_rows(
    data: &mut [f32],
    stride: usize,
    width: impl Fn(usize) -> usize,
    max: &mut [f32],
    sum: &mut [f32],
) {
    let rows = max.len();
    assert!(
        sum.len() == rows && data.len() == rows * stride && (0..rows).all(|r| width(r) <= stride),
        "exp_sum_rows: {} values for {rows} rows of stride {stride}",
        data.len(),
    );
    if stride == 0 {
        max.fill(f32::NEG_INFINITY);
        sum.fill(0.0);
        return;
    }
    let groups = data.chunks_mut(EXP_SUM_ROWS * stride).zip(
        max.chunks_mut(EXP_SUM_ROWS)
            .zip(sum.chunks_mut(EXP_SUM_ROWS)),
    );
    for (g, (rows, (max, sum))) in groups.enumerate() {
        let width = |i: usize| width(g * EXP_SUM_ROWS + i);
        for (i, (row, m)) in rows
            .chunks_exact_mut(stride)
            .zip(max.iter_mut())
            .enumerate()
        {
            let row = &mut row[..width(i)];
            *m = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
            if *m != f32::NEG_INFINITY {
                exp_in_place(row, *m);
            }
        }
        if sum.len() == EXP_SUM_ROWS {
            sum.copy_from_slice(&sum_chains::<EXP_SUM_ROWS>(rows, stride, width));
        } else {
            for (i, (row, s)) in rows.chunks_exact(stride).zip(sum.iter_mut()).enumerate() {
                *s = sum_chains::<1>(row, stride, |_| width(i))[0];
            }
        }
        // The degenerate rows were left as they came; give them the
        // identity statistics (or their `NaN`) and the matching row.
        for (i, ((row, &m), s)) in rows
            .chunks_exact_mut(stride)
            .zip(max.iter())
            .zip(sum.iter_mut())
            .enumerate()
        {
            if m == f32::NEG_INFINITY {
                let row = &mut row[..width(i)];
                *s = if row.iter().any(|v| v.is_nan()) {
                    f32::NAN
                } else {
                    0.0
                };
                row.fill(*s);
            }
        }
    }
}

/// `v ← e^{v − m}` for every element, through the polynomial [`mathx::exp`].
fn exp_in_place(row: &mut [f32], m: f32) {
    for v in row.iter_mut() {
        *v = mathx::exp(*v - m);
    }
}

/// The ascending sums of the `N` rows of `rows` (row `i` starts at
/// `i · stride` and is `width(i)` wide), as `N` interleaved chains. Each
/// starts from `+0.0`, which the first term `e` of a live row (an
/// exponential: `+0.0`, positive or `NaN`) turns into exactly `e` — what
/// the `−0.0` additive identity gives it too.
///
/// Over the columns every row has, the rows are read in 8-column blocks:
/// every row's block is loaded whole, then its columns are added in order,
/// one term per chain per column. The loads are vectors, the adds stay one
/// chain per row. A longer row then adds the rest of its own columns, in
/// order, on its own chain.
#[inline(always)]
fn sum_chains<const N: usize>(
    rows: &[f32],
    stride: usize,
    width: impl Fn(usize) -> usize,
) -> [f32; N] {
    const BLOCK: usize = 8;
    let rows: [&[f32]; N] = std::array::from_fn(|i| &rows[i * stride..][..width(i)]);
    let common = rows.iter().map(|r| r.len()).min().unwrap_or(0);
    let mut acc = [0.0f32; N];
    let full = common - common % BLOCK;
    for j0 in (0..full).step_by(BLOCK) {
        let block: [[f32; BLOCK]; N] =
            std::array::from_fn(|i| rows[i][j0..j0 + BLOCK].try_into().expect("BLOCK wide"));
        for j in 0..BLOCK {
            for (a, b) in acc.iter_mut().zip(&block) {
                *a += b[j];
            }
        }
    }
    for j in full..common {
        for (a, row) in acc.iter_mut().zip(&rows) {
            *a += row[j];
        }
    }
    for (a, row) in acc.iter_mut().zip(&rows) {
        for &v in &row[common..] {
            *a += v;
        }
    }
    acc
}

/// The factor a row of exponentials is normalized by: `1/sum` for a
/// positive sum, else `1.0`. Multiplying by `1.0` is exact for every value,
/// `NaN` and `−0.0` included, so an empty, fully-masked or poisoned row
/// (sum `0` or `NaN`) passes through a normalization unchanged — the rule
/// the softmax has always applied by skipping such rows.
#[inline]
pub fn softmax_norm(sum: f32) -> f32 {
    if sum > 0.0 {
        1.0 / sum
    } else {
        1.0
    }
}

/// Computes the locally-normalized softmax and its per-row statistics into
/// a new tensor (see [`local_softmax_in_place`]).
pub fn local_softmax(t: &Tensor) -> (Tensor, SoftmaxStats) {
    let mut out = t.clone();
    let stats = local_softmax_in_place(&mut out);
    (out, stats)
}

/// Overwrites `t` with its row exponentials `e = e^{Y − m'}` and returns
/// the per-row statistics `(m', sum')`: [`exp_sum_rows`] over every row,
/// on the worker pool when it pays. The locally-normalized softmax is then
/// `e · softmax_norm(sum')` per row, which the output layer forms where it
/// reads it instead of storing it.
///
/// For a zero-width shard the statistics are `(−∞, 0)`, the identity
/// elements of the max / sum reductions; a fully-masked (all-`−∞`) row
/// gets the same statistics and a zero row.
pub fn local_exp_sum_in_place(t: &mut Tensor) -> SoftmaxStats {
    exp_sum_par(t, false)
}

/// Overwrites `t` with its locally-normalized softmax and returns the
/// per-row statistics: [`local_exp_sum_in_place`], then every row scaled
/// by its [`softmax_norm`] while its group is still in cache. This is the
/// one safe softmax — max, polynomial exp, ascending sum, scale by the
/// reciprocal — which the paged attention applies to its causal score
/// rows through the same two functions.
///
/// This is the `S`-pass kernel of Algorithms 1 and 2 as the paper states
/// it: each device computes `softmax'(Y)` using only its own vocabulary
/// shard, deferring global normalization to the communication barrier.
pub fn local_softmax_in_place(t: &mut Tensor) -> SoftmaxStats {
    exp_sum_par(t, true)
}

/// [`exp_sum_rows`] over `t`'s rows in one pool dispatch, each group of
/// rows then normalized when `normalize`.
fn exp_sum_par(t: &mut Tensor, normalize: bool) -> SoftmaxStats {
    let (rows, cols) = t.shape();
    let mut sum = vec![0.0f32; rows];
    let mut max = vec![f32::NEG_INFINITY; rows];
    let work = t.len().saturating_mul(8);
    pool::par_rows_mut3(
        rows,
        work,
        t.data_mut(),
        &mut sum,
        &mut max,
        |_r0, _r1, chunk, sum_chunk, max_chunk| {
            let groups = chunk.chunks_mut(EXP_SUM_ROWS * cols.max(1)).zip(
                max_chunk
                    .chunks_mut(EXP_SUM_ROWS)
                    .zip(sum_chunk.chunks_mut(EXP_SUM_ROWS)),
            );
            for (rows, (max, sum)) in groups {
                exp_sum_rows(rows, cols, |_| cols, max, sum);
                if normalize {
                    for (row, &s) in rows.chunks_exact_mut(cols.max(1)).zip(sum.iter()) {
                        let norm = softmax_norm(s);
                        row.iter_mut().for_each(|d| *d *= norm);
                    }
                }
            }
        },
    );
    SoftmaxStats { max, sum }
}

/// Every row's Eq.-5 correction factor ([`softmax_correction`]), after
/// checking the global statistics: the factors that rescale a local
/// softmax into the global one, which the output layer's `T` pass applies
/// while packing ([`SoftmaxGrad`]).
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] if any statistics vector has a
/// length different from `local_stats.max`, or if any global statistic is
/// invalid (`NaN`, or a negative sum) — dividing by such a `global_sum`
/// would manufacture `NaN` probabilities out of finite inputs. A global sum
/// of exactly `0` (every shard of the row was empty or fully masked) is
/// *valid* and yields a factor of 0, so a defined zero row, matching
/// [`local_softmax`].
pub fn softmax_corrections(
    local_stats: &SoftmaxStats,
    global_max: &[f32],
    global_sum: &[f32],
) -> Result<Vec<f32>> {
    let rows = local_stats.max.len();
    if local_stats.sum.len() != rows || global_max.len() != rows || global_sum.len() != rows {
        return Err(TensorError::InvalidArgument(
            "softmax_corrections: statistics length mismatch".into(),
        ));
    }
    (0..rows)
        .map(|r| {
            let (gm, gs) = (global_max[r], global_sum[r]);
            if gm.is_nan() || gs.is_nan() || gs < 0.0 {
                return Err(TensorError::InvalidArgument(format!(
                    "softmax_corrections: invalid global statistics at row {r} (max {gm}, sum {gs})"
                )));
            }
            Ok(softmax_correction(
                local_stats.max[r],
                local_stats.sum[r],
                gm,
                gs,
            ))
        })
        .collect()
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

/// The output layer's cross-entropy gradient over one vocabulary shard,
/// `dy = (softmax − G)/N`, described rather than built.
///
/// `exps` holds the shard's row exponentials `e = e^{Y − m'}` (`[N, V/p]`,
/// see [`local_exp_sum_in_place`]), `norm` each row's [`softmax_norm`]
/// (so that `e · norm` is the local softmax `softmax'`), `corr` each row's
/// Eq.-5 factor ([`softmax_corrections`]) and `labels` each row's label as
/// a shard-local column (`None` when another shard owns it). Element
/// `(r, c)` of `dy` is
///
/// ```text
/// (((e[r][c] · norm[r]) · corr[r]) · inv_n) − [c = labels[r]] · inv_n
/// ```
///
/// per element exactly the staged path it replaces: normalize, rescale by
/// the factor, scale by `1/N`, subtract `1/N` at the label. The products
/// ([`Self::matmul`], [`Self::matmul_tn_accumulate`]) form these values
/// while the GEMM packs its left operand, so neither the softmax nor `dy`
/// is ever stored.
#[derive(Debug, Clone, Copy)]
pub struct SoftmaxGrad<'a> {
    exps: &'a Tensor,
    norm: &'a [f32],
    corr: &'a [f32],
    labels: &'a [Option<usize>],
    inv_n: f32,
}

impl<'a> SoftmaxGrad<'a> {
    /// Describes `dy` over `exps` (see the type docs).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] unless `norm`, `corr` and
    /// `labels` have one entry per row of `exps`, or
    /// [`TensorError::OutOfBounds`] for a label past the shard's width.
    pub fn new(
        exps: &'a Tensor,
        norm: &'a [f32],
        corr: &'a [f32],
        labels: &'a [Option<usize>],
        inv_n: f32,
    ) -> Result<Self> {
        let rows = exps.rows();
        if norm.len() != rows || corr.len() != rows || labels.len() != rows {
            return Err(TensorError::InvalidArgument(format!(
                "softmax grad: {} norms, {} corrections and {} labels for {rows} rows",
                norm.len(),
                corr.len(),
                labels.len(),
            )));
        }
        if let Some(&index) = labels.iter().flatten().find(|&&c| c >= exps.cols()) {
            return Err(TensorError::OutOfBounds {
                op: "softmax_grad",
                index,
                bound: exps.cols(),
            });
        }
        Ok(SoftmaxGrad {
            exps,
            norm,
            corr,
            labels,
            inv_n,
        })
    }

    /// `(N, V/p)`, the shape of `dy`.
    fn shape(&self) -> (usize, usize) {
        self.exps.shape()
    }

    /// Writes `dy[row][col0 .. col0 + dst.len()]` into `dst`.
    pub(crate) fn fill(&self, row: usize, col0: usize, dst: &mut [f32]) {
        let src = &self.exps.row(row)[col0..col0 + dst.len()];
        let (norm, corr, inv_n) = (self.norm[row], self.corr[row], self.inv_n);
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = ((v * norm) * corr) * inv_n;
        }
        if let Some(label) = self.labels[row] {
            if let Some(d) = label.checked_sub(col0).and_then(|c| dst.get_mut(c)) {
                *d -= inv_n;
            }
        }
    }

    /// `dy`, built: what the products read without storing it.
    pub fn to_tensor(&self) -> Tensor {
        let (rows, cols) = self.shape();
        let mut dy = Tensor::zeros(rows, cols);
        for r in 0..rows {
            self.fill(r, 0, dy.row_mut(r));
        }
        dy
    }

    /// `dy · rhs` — bitwise `self.to_tensor().matmul(rhs)` (Algorithm 1's
    /// partial input gradient `dy · W`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `rhs` does not have
    /// `V/p` rows.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        let (m, k) = self.shape();
        if rhs.rows() != k {
            return Err(TensorError::ShapeMismatch {
                op: "softmax_grad_matmul",
                lhs: (m, k),
                rhs: rhs.shape(),
            });
        }
        let g = Gemm {
            a: Lhs::SoftmaxGrad(self),
            b: Rhs::Rows(rhs.data()),
            k,
            n: rhs.cols(),
            m,
            layout: Layout::Nn,
            accumulate: false,
        };
        let mut out = Tensor::zeros(m, rhs.cols());
        gemm::run(&g, out.data_mut(), None);
        Ok(out)
    }

    /// `into += dyᵀ · rhs` — bitwise
    /// `into.add_assign(&self.to_tensor().matmul_tn(rhs))` (the weight
    /// gradient `∇W += dyᵀ · X`).
    ///
    /// With at most 128 rows (the GEMM's one `k` panel, `KC`) each output tile
    /// is the whole fresh product, and its write-back adds it into `into`
    /// — per element the same single `into + dW` addition, with no `dW`
    /// tensor. Deeper products (or none) compute `dW` fresh and add it.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `rhs` does not have `N`
    /// rows or `into` is not `[V/p, rhs.cols()]`.
    pub fn matmul_tn_accumulate(&self, rhs: &Tensor, into: &mut Tensor) -> Result<()> {
        let (k, m) = self.shape();
        let n = rhs.cols();
        if rhs.rows() != k || into.shape() != (m, n) {
            return Err(TensorError::ShapeMismatch {
                op: "softmax_grad_matmul_tn_accumulate",
                lhs: (k, m),
                rhs: rhs.shape(),
            });
        }
        let g = Gemm {
            a: Lhs::SoftmaxGrad(self),
            b: Rhs::Rows(rhs.data()),
            k,
            n,
            m,
            layout: Layout::Tn,
            accumulate: (1..=gemm::KC).contains(&k),
        };
        if g.accumulate {
            gemm::run(&g, into.data_mut(), None);
            return Ok(());
        }
        let mut dw = Tensor::zeros(m, n);
        gemm::run(&g, dw.data_mut(), None);
        into.add_assign(&dw)
    }
}

/// `(e · norm) · rhs`: the local softmax `softmax' = e · norm` ([`SoftmaxGrad`]'s
/// first factor, row `r` of `exps` scaled by `norm[r]`) times `rhs`, formed
/// while the GEMM packs its left operand — bitwise scaling the rows first
/// and then [`Tensor::matmul`], with no softmax tensor. Algorithm 2's
/// pre-barrier `A = softmax'(Y)·W`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] unless `norm` has one entry
/// per row of `exps`, or [`TensorError::ShapeMismatch`] unless `rhs` has
/// `exps.cols()` rows.
pub fn normalized_matmul(exps: &Tensor, norm: &[f32], rhs: &Tensor) -> Result<Tensor> {
    let (m, k) = exps.shape();
    if norm.len() != m {
        return Err(TensorError::InvalidArgument(format!(
            "normalized matmul: {} norms for {m} rows",
            norm.len()
        )));
    }
    if rhs.rows() != k {
        return Err(TensorError::ShapeMismatch {
            op: "normalized_matmul",
            lhs: (m, k),
            rhs: rhs.shape(),
        });
    }
    let g = Gemm {
        a: Lhs::ScaledRows(exps.data(), norm),
        b: Rhs::Rows(rhs.data()),
        k,
        n: rhs.cols(),
        m,
        layout: Layout::Nn,
        accumulate: false,
    };
    let mut out = Tensor::zeros(m, rhs.cols());
    gemm::run(&g, out.data_mut(), None);
    Ok(out)
}

/// Numerically-safe softmax over every row, returning a new tensor.
pub fn softmax_rows(t: &Tensor) -> Tensor {
    let (out, _) = local_softmax(t);
    out
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
    let max = row_max(logits);
    let mut total = 0.0f64;
    for (r, &label) in labels.iter().enumerate() {
        if label >= logits.cols() {
            return Err(TensorError::OutOfBounds {
                op: "cross_entropy",
                index: label,
                bound: logits.cols(),
            });
        }
        // log Σ e^{x}, computed stably.
        let m = max[r];
        let lse = if m == f32::NEG_INFINITY {
            f32::NEG_INFINITY
        } else {
            m + logits
                .row(r)
                .iter()
                .map(|&v| (v - m).exp())
                .sum::<f32>()
                .ln()
        };
        total += (lse - logits.at(r, label)) as f64;
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

/// The embedding backward (Appendix C's "purely local scatter-add"):
/// adds each row of `dy` into the row of `grad` its id names, touching
/// only those rows.
///
/// `grad` holds the gradient rows of ids `start .. start + grad.rows()` (a
/// vocabulary shard; `start = 0` for a whole table) and `dy` one row per
/// entry of `ids`. An id outside the shard is another shard's and skipped;
/// callers that must reject out-of-vocabulary ids check them first.
///
/// Bitwise the dense scatter it replaces, which zeroed a `dW` of the
/// gradient's shape, added the `dy` rows into it in position order and
/// then added all of `dW` into `grad`. Here the owned ids are grouped by a
/// stable sort, so each id's `dy` rows are summed in position order
/// starting from `+0.0` — the dense `dW` row, to the bit — and that sum is
/// added into the id's gradient row once. The rows no id names would only
/// have received `+0.0`, which changes no gradient value: `x + 0.0` is `x`
/// for every `x` but `−0.0`, and no gradient element is ever `−0.0`,
/// because every gradient writer starts from `+0.0` and adds (a sum of
/// `+0.0` and anything is `−0.0` only if both terms are).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `dy` is
/// `[ids.len(), grad.cols()]`; `grad` is then untouched.
pub fn scatter_add_rows(grad: &mut Tensor, start: usize, ids: &[usize], dy: &Tensor) -> Result<()> {
    if dy.shape() != (ids.len(), grad.cols()) {
        return Err(TensorError::ShapeMismatch {
            op: "scatter_add_rows",
            lhs: dy.shape(),
            rhs: (ids.len(), grad.cols()),
        });
    }
    let width = grad.rows();
    let mut owned: Vec<(usize, usize)> = ids
        .iter()
        .enumerate()
        .filter_map(|(pos, &id)| {
            let row = id.checked_sub(start).filter(|&row| row < width)?;
            Some((row, pos))
        })
        .collect();
    // Stable: an id's rows keep their position order.
    owned.sort_by_key(|&(row, _)| row);
    let mut sum = vec![0.0f32; grad.cols()];
    for group in owned.chunk_by(|a, b| a.0 == b.0) {
        sum.fill(0.0);
        for &(_, pos) in group {
            for (s, &g) in sum.iter_mut().zip(dy.row(pos)) {
                *s += g;
            }
        }
        for (o, &s) in grad.row_mut(group[0].0).iter_mut().zip(&sum) {
            *o += s;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Tensor {
        Tensor::from_vec(2, 4, vec![1.0, 2.0, 3.0, 4.0, -1.0, 0.0, 100.0, 100.0]).unwrap()
    }

    /// Rescales a local softmax into the global one by its
    /// [`softmax_corrections`] (the paper's Eq. 5).
    fn rescale(local: &mut Tensor, stats: &SoftmaxStats, gmax: &[f32], gsum: &[f32]) -> Result<()> {
        let factors = softmax_corrections(stats, gmax, gsum)?;
        for (r, f) in factors.into_iter().enumerate() {
            local.row_mut(r).iter_mut().for_each(|v| *v *= f);
        }
        Ok(())
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
        rescale(&mut sa, &st_a, &gmax, &gsum).unwrap();
        rescale(&mut sb, &st_b, &gmax, &gsum).unwrap();
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
        rescale(&mut local, &stats, &stats.max, &stats.sum).unwrap();
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
        let err = rescale(&mut probs, &stats, &[2.0], &[f32::NAN]);
        assert!(matches!(err, Err(TensorError::InvalidArgument(_))));
        let err = rescale(&mut probs, &stats, &[f32::NAN], &[1.0]);
        assert!(matches!(err, Err(TensorError::InvalidArgument(_))));
        let err = rescale(&mut probs, &stats, &[2.0], &[-1.0]);
        assert!(matches!(err, Err(TensorError::InvalidArgument(_))));
    }

    #[test]
    fn zero_width_shard_rescales_without_error() {
        // The zero-width-shard path: rows exist but the shard owns no
        // columns. Stats are the (−∞, 0) identities and rescaling against
        // any valid global statistics is a no-op.
        let empty = Tensor::zeros(3, 0);
        let (mut probs, stats) = local_softmax(&empty);
        rescale(&mut probs, &stats, &[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]).unwrap();
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
    fn cross_entropy_is_shift_invariant() {
        let t = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap();
        let shifted = t.map(|v| v + 1000.0);
        let a = cross_entropy_mean(&t, &[2]).unwrap();
        let b = cross_entropy_mean(&shifted, &[2]).unwrap();
        assert!((b - a).abs() < 1e-3 && b.is_finite());
    }

    #[test]
    fn argmax_rows_picks_first_maximum() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 5.0, 5.0, -1.0, -3.0, -2.0]).unwrap();
        assert_eq!(argmax_rows(&t), vec![1, 0]);
    }
}
