//! The partitioned output layer (§4): logits, safe softmax and
//! cross-entropy over one `V/p` vocabulary shard, grouped into pipeline
//! passes with 3 (naive), 2 (Algorithm 1) or 1 (Algorithm 2) communication
//! barriers.
//!
//! Notation follows the paper: `X ∈ [N, h]` is the last transformer
//! layer's output for one microbatch (`N = b·s` tokens), `W ∈ [V, h]` the
//! output embedding, `Y = XWᵀ` the logits, `G` the one-hot labels, and
//!
//! ```text
//! softmax(Y)_ij = softmax'(Y)_ij · sum'_i · e^{m'_i − m_i} / sum_i   (Eq. 5)
//! ∇X = (softmax(Y) − G)·W        ∇W = (softmax(Y) − G)ᵀ·X
//! ```
//!
//! Gradients use *mean* reduction over the `N` tokens, matching the
//! reference [`vp_tensor::nn::softmax_cross_entropy`].

use crate::input::check_ids;
use vp_collectives::{Collective, ReduceOp};
use vp_model::cost::VocabAlgo;
use vp_model::partition::VocabPartition;
use vp_tensor::ops::{
    exp_sum_rows, local_exp_sum_in_place, normalized_matmul, softmax_correction,
    softmax_corrections, softmax_norm, SoftmaxGrad, SoftmaxStats, EXP_SUM_ROWS,
};
use vp_tensor::optim::Param;
use vp_tensor::{PackedB, Result, Tensor, TensorError};

/// One device's shard of the output vocabulary layer.
///
/// The shard stores only its *real* (unpadded) vocabulary rows; the paper's
/// `2p` padding affects memory alignment, not numerics, and is accounted
/// for by the cost model.
///
/// # Example
///
/// A single shard (`p = 1`) degenerates to the full output layer:
///
/// ```
/// use vp_collectives::CollectiveGroup;
/// use vp_core::{OutputShard, VocabAlgo};
/// use vp_model::partition::VocabPartition;
/// use vp_tensor::init::{normal, seeded_rng};
///
/// # fn main() -> vp_tensor::Result<()> {
/// let mut rng = seeded_rng(0);
/// let weight = normal(&mut rng, 16, 4, 0.5); // [V, h]
/// let x = normal(&mut rng, 3, 4, 1.0);       // [b·s, h]
/// let part = VocabPartition::new(16, 1);
/// let mut shard = OutputShard::from_full(&weight, part, 0)?;
/// let comm = CollectiveGroup::new(1).pop().expect("one rank");
/// let (loss, dx) = shard.forward_backward(VocabAlgo::Alg2, &comm, &x, &[1, 5, 9])?;
/// assert!(loss.is_finite() && dx.shape() == (3, 4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OutputShard {
    /// The shard `W`. Its pack ([`Param::packed_nt`]) is the `Bᵀ` operand
    /// of the logits GEMM `X·Wᵀ`, made by the first `S` pass and dropped by
    /// every write to the value, so a pack never outlives the value it was
    /// packed from.
    weight: Param,
    partition: VocabPartition,
    rank: usize,
}

/// State carried between the `S` pass, the communication barrier(s) and
/// the `T` pass for one microbatch.
///
/// The one `[rows, V/p]` buffer is written by the logits GEMM, swept once
/// into the row exponentials `e = exp(Y − m')`, and never rewritten: the
/// local softmax `softmax' = e · norm` is formed by the GEMMs that read it
/// (`A`'s, and `T`'s through [`SoftmaxGrad`]). The barrier reduces the
/// statistics and stores each row's Eq.-5 correction, which the `T` pass
/// applies while its GEMMs pack `dy`.
#[derive(Debug, Clone)]
pub struct SState {
    /// The row exponentials `e`, computed in the logits buffer.
    exps: Tensor,
    /// Per row `softmax_norm(sum')`: `1/sum'`, or `1.0` for an empty,
    /// fully-masked or poisoned row.
    norm: Vec<f32>,
    /// Local statistics `(m', sum')`.
    stats: SoftmaxStats,
    /// Each row's label as a shard-local column (`None` when another
    /// shard owns it).
    labels: Vec<Option<usize>>,
    /// This shard's label logits (`Y_{i,g_i}` for owned rows, 0 elsewhere),
    /// captured exactly in the `S` pass for the loss computation.
    label_logit: Vec<f32>,
    /// Algorithm 2 only: `A = softmax'(Y)·W`, pre-computed before the
    /// barrier.
    a: Option<Tensor>,
    /// Algorithm 2 only: `B = G·W / N` (a row gather of `W`).
    b: Option<Tensor>,
    /// Per-row `softmax / softmax'` (Eq. 5), set once the barrier has run.
    correction: Option<Vec<f32>>,
}

impl SState {
    /// Approximate bytes held by this state (the transient vocabulary
    /// buffer the schedules budget between `S` and `T`).
    pub fn bytes(&self) -> usize {
        let f = std::mem::size_of::<f32>();
        let mut total = self.exps.len() * f + 3 * self.norm.len() * f;
        if let Some(a) = &self.a {
            total += a.len() * f;
        }
        if let Some(b) = &self.b {
            total += b.len() * f;
        }
        if let Some(c) = &self.correction {
            total += c.len() * f;
        }
        total
    }

    /// `dy = (softmax − G)/N` as the `T` pass's GEMM operand.
    fn dy(&self) -> Result<SoftmaxGrad<'_>> {
        let corr = self.correction.as_deref().ok_or_else(|| {
            TensorError::InvalidArgument("T pass requires the barrier to have run".into())
        })?;
        let n = self.labels.len() as f32;
        SoftmaxGrad::new(&self.exps, &self.norm, corr, &self.labels, 1.0 / n)
    }

    /// The local softmax `e · norm`, built (what the GEMMs form on read).
    #[cfg(test)]
    fn softmax(&self) -> Tensor {
        let mut softmax = self.exps.clone();
        for (r, &norm) in self.norm.iter().enumerate() {
            softmax.row_mut(r).iter_mut().for_each(|v| *v *= norm);
        }
        softmax
    }

    /// All-reduces the softmax statistics (`m`, then `sum`) and computes
    /// the global mean loss. Returns `(global_max, global_sum, loss)`.
    fn reduce_stats(&self, comm: &Collective) -> Result<(Vec<f32>, Vec<f32>, f64)> {
        let n = self.labels.len();
        let mut gmax = self.stats.max.clone();
        comm.all_reduce(&mut gmax, ReduceOp::Max)
            .map_err(|e| comm_err(&e))?;
        let mut gsum: Vec<f32> = (0..n)
            .map(|i| {
                if self.stats.sum[i] == 0.0 {
                    0.0
                } else {
                    self.stats.sum[i] * (self.stats.max[i] - gmax[i]).exp()
                }
            })
            .collect();
        comm.all_reduce(&mut gsum, ReduceOp::Sum)
            .map_err(|e| comm_err(&e))?;
        // Loss: mean_i (m_i + ln(sum_i) − y_{i,label}), with the label
        // logit captured exactly during the S pass.
        let mut label_logit = self.label_logit.clone();
        comm.all_reduce(&mut label_logit, ReduceOp::Sum)
            .map_err(|e| comm_err(&e))?;
        let loss = (0..n)
            .map(|i| (gmax[i] + gsum[i].ln() - label_logit[i]) as f64)
            .sum::<f64>()
            / n as f64;
        Ok((gmax, gsum, loss))
    }

    /// Stores the corrections against the global statistics.
    fn correct(&mut self, gmax: &[f32], gsum: &[f32]) -> Result<()> {
        self.correction = Some(softmax_corrections(&self.stats, gmax, gsum)?);
        Ok(())
    }

    /// Algorithm 1's `C1` barrier, self-contained (runs anywhere a
    /// [`Collective`] handle for the barrier group is available — e.g. on a
    /// per-device communication stream, as the paper overlaps it).
    ///
    /// # Errors
    ///
    /// Returns an error if a collective fails.
    pub fn barrier_alg1(&mut self, comm: &Collective) -> Result<BarrierOutput> {
        let (gmax, gsum, loss) = self.reduce_stats(comm)?;
        self.correct(&gmax, &gsum)?;
        Ok(BarrierOutput { loss, dx: None })
    }

    /// Completes the barrier phase *without* communication, treating the
    /// local statistics as global — correct only on a single shard
    /// (`p = 1`) and used by single-thread kernel benchmarking, where the
    /// collective cost is excluded as the paper excludes overlapped
    /// communication (§6.5).
    pub fn barrier_local(&mut self) {
        let gmax = self.stats.max.clone();
        let gsum = self.stats.sum.clone();
        self.correct(&gmax, &gsum)
            .expect("matching lengths by construction");
    }

    /// Algorithm 2's single `C1` barrier, self-contained (see
    /// [`Self::barrier_alg1`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the state was not
    /// produced by an Algorithm-2 `S` pass, or a collective error.
    pub fn barrier_alg2(&mut self, comm: &Collective) -> Result<BarrierOutput> {
        if self.a.is_none() || self.b.is_none() {
            return Err(TensorError::InvalidArgument(
                "barrier_alg2 requires an Algorithm-2 S state".into(),
            ));
        }
        let (gmax, gsum, loss) = self.reduce_stats(comm)?;
        let (a, b) = (
            self.a.as_ref().expect("checked"),
            self.b.as_ref().expect("checked"),
        );
        let n = self.labels.len() as f32;
        let mut dx = Tensor::zeros(a.rows(), a.cols());
        for row in 0..a.rows() {
            // ∇X_row = corr·A_row/N − B_row (Eq. 6, with B pre-divided by N).
            let corr = softmax_correction(
                self.stats.max[row],
                self.stats.sum[row],
                gmax[row],
                gsum[row],
            ) / n;
            for ((o, &av), &bv) in dx.row_mut(row).iter_mut().zip(a.row(row)).zip(b.row(row)) {
                *o = corr * av - bv;
            }
        }
        comm.all_reduce(dx.data_mut(), ReduceOp::Sum)
            .map_err(|e| comm_err(&e))?;
        self.correct(&gmax, &gsum)?;
        Ok(BarrierOutput { loss, dx: Some(dx) })
    }
}

/// Result of completing the barrier phase: the global mean loss and, for
/// Algorithm 2 and the naive path, the fully-reduced input gradient.
#[derive(Debug, Clone)]
pub struct BarrierOutput {
    /// Mean cross-entropy over the microbatch (identical on every rank).
    pub loss: f64,
    /// `∇X`, present when the algorithm produces it in this phase
    /// (Algorithm 2's single barrier; naive's final reduce).
    pub dx: Option<Tensor>,
}

impl OutputShard {
    /// Creates a shard from this rank's slice of the full `[V, h]` weight.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the slice's row count
    /// does not equal the partition's real width for `rank`.
    pub fn new(weight: Tensor, partition: VocabPartition, rank: usize) -> Result<Self> {
        if weight.rows() != partition.real_width(rank) {
            return Err(TensorError::InvalidArgument(format!(
                "shard weight has {} rows, partition expects {}",
                weight.rows(),
                partition.real_width(rank)
            )));
        }
        Ok(OutputShard {
            weight: Param::new(weight),
            partition,
            rank,
        })
    }

    /// Slices this rank's shard out of the full `[V, h]` weight matrix.
    ///
    /// # Errors
    ///
    /// Propagates slicing errors if `full` has fewer than `V` rows.
    pub fn from_full(full: &Tensor, partition: VocabPartition, rank: usize) -> Result<Self> {
        let rows = partition.real_range(rank);
        OutputShard::new(full.slice_rows(rows.start, rows.end)?, partition, rank)
    }

    /// This rank's shard of the partition.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The vocabulary partition.
    pub fn partition(&self) -> VocabPartition {
        self.partition
    }

    /// The shard's weight parameter (rows = this shard's vocabulary ids).
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Mutable access to the weight parameter (the optimizer step, gradient
    /// sync, checkpoint load). A write to the value drops the packed `Wᵀ`
    /// (see [`Param`]), so the next `S` pass packs it afresh.
    pub fn weight_mut(&mut self) -> &mut Param {
        &mut self.weight
    }

    /// Mutable access to the weight *gradient* only — the value, and so
    /// the packed `Wᵀ`, is untouched (the tied embedding's input backward).
    pub fn grad_mut(&mut self) -> &mut Tensor {
        self.weight.grad_mut()
    }

    /// The logits `Y = X·Wᵀ` against the packed shard, packing it on first
    /// use — bitwise `x.matmul_nt(W)`.
    fn logits(&self, x: &Tensor) -> Result<Tensor> {
        x.matmul_packed(self.weight.packed_nt(), None)
    }

    /// Address of the packed `Wᵀ`, if one is held (tests tell a reused
    /// pack from a rebuilt one by it).
    #[cfg(test)]
    pub(crate) fn pack_addr(&self) -> Option<*const f32> {
        self.weight.pack_held().map(vp_tensor::PackedB::as_ptr)
    }

    /// Global start index of this shard's vocabulary range.
    fn shard_start(&self) -> usize {
        self.partition.shard_range(self.rank).0
    }

    /// One-hot rows of `G` restricted to this shard: each row's label as a
    /// local column, `None` where another shard owns it.
    fn local_labels(&self, labels: &[usize]) -> Vec<Option<usize>> {
        let start = self.shard_start();
        let owned = start..start + self.weight.value().rows();
        labels
            .iter()
            .map(|&label| owned.contains(&label).then(|| label - start))
            .collect()
    }

    /// Algorithm 2's `B = G·W/N`: row `i` is the weight row of its label
    /// over `N` where this shard owns the label, zeros elsewhere.
    fn b(&self, local: &[Option<usize>]) -> Tensor {
        let w = self.weight.value();
        let n = local.len() as f32;
        let mut b = Tensor::zeros(local.len(), w.cols());
        for (row, c) in local.iter().enumerate() {
            if let Some(c) = *c {
                for (dst, &src) in b.row_mut(row).iter_mut().zip(w.row(c)) {
                    *dst = src / n;
                }
            }
        }
        b
    }

    // ---------------------------------------------------------------------
    // S pass
    // ---------------------------------------------------------------------

    /// The `S` pass: logits + local softmax, in one `[rows, V/p]` buffer
    /// (and, for Algorithm 2, the pre-barrier matmuls `A = softmax'(Y)·W`
    /// and `B = G·W/N`). The buffer is swept once after the GEMM writes it
    /// ([`local_exp_sum_in_place`]: per row the max, the exponentials in
    /// place, the sums of row groups as interleaved chains) and left
    /// unnormalized; `A`'s GEMM forms `softmax' = e · norm` while packing
    /// it ([`normalized_matmul`]). Bitwise the staged pass that normalized
    /// in place first.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` does not match the weight's hidden
    /// width, or [`TensorError::OutOfBounds`] for an out-of-vocabulary
    /// label.
    pub fn s_pass(&self, algo: VocabAlgo, x: &Tensor, labels: &[usize]) -> Result<SState> {
        if labels.len() != x.rows() {
            return Err(TensorError::InvalidArgument(format!(
                "{} labels for {} rows",
                labels.len(),
                x.rows()
            )));
        }
        check_ids(labels, self.partition.vocab(), "output_s_pass")?;
        let local = self.local_labels(labels);
        let mut y = self.logits(x)?;
        let label_logit = local
            .iter()
            .enumerate()
            .map(|(row, c)| c.map_or(0.0, |c| y.at(row, c)))
            .collect();
        let stats = local_exp_sum_in_place(&mut y);
        let norm: Vec<f32> = stats.sum.iter().map(|&s| softmax_norm(s)).collect();
        let (a, b) = match algo {
            VocabAlgo::Naive | VocabAlgo::Alg1 => (None, None),
            VocabAlgo::Alg2 => (
                Some(normalized_matmul(&y, &norm, self.weight.value())?),
                Some(self.b(&local)),
            ),
        };
        Ok(SState {
            exps: y,
            norm,
            stats,
            labels: local,
            label_logit,
            a,
            b,
            correction: None,
        })
    }

    /// The staged `S` pass the one-sweep one replaced, kept as its oracle:
    /// normalize the logits buffer in place into `softmax'`, then the plain
    /// `A = softmax'·W`. Its state holds `softmax'` with a norm of `1.0`.
    #[cfg(test)]
    pub(crate) fn s_pass_staged(
        &self,
        algo: VocabAlgo,
        x: &Tensor,
        labels: &[usize],
    ) -> Result<SState> {
        let local = self.local_labels(labels);
        let mut y = x.matmul_nt(self.weight.value())?;
        let label_logit = local
            .iter()
            .enumerate()
            .map(|(row, c)| c.map_or(0.0, |c| y.at(row, c)))
            .collect();
        let stats = vp_tensor::ops::local_softmax_in_place(&mut y);
        let (a, b) = match algo {
            VocabAlgo::Naive | VocabAlgo::Alg1 => (None, None),
            VocabAlgo::Alg2 => (Some(y.matmul(self.weight.value())?), Some(self.b(&local))),
        };
        Ok(SState {
            norm: vec![1.0; y.rows()],
            exps: y,
            stats,
            labels: local,
            label_logit,
            a,
            b,
            correction: None,
        })
    }

    // ---------------------------------------------------------------------
    // Barriers (delegating to [`SState`], which owns all the data the
    // barrier needs so it can run on a communication-stream thread)
    // ---------------------------------------------------------------------

    /// The single barrier of Algorithm 2 (`C1`): all-reduces the softmax
    /// statistics, assembles `∇X` from the pre-computed matmuls
    /// (`∇X = corr·A − B`, Eq. 6) and all-reduces it; stores the per-row
    /// corrections for the deferred `T` pass.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the state was not
    /// produced by an Algorithm-2 `S` pass or a collective fails.
    pub fn barrier_alg2(&self, comm: &Collective, state: &mut SState) -> Result<BarrierOutput> {
        state.barrier_alg2(comm)
    }

    /// Algorithm 1's first barrier (`C1`): all-reduces the statistics and
    /// stores the per-row corrections to the global softmax.
    ///
    /// # Errors
    ///
    /// Returns an error if a collective fails.
    pub fn barrier_alg1(&self, comm: &Collective, state: &mut SState) -> Result<BarrierOutput> {
        state.barrier_alg1(comm)
    }

    /// Algorithm 1's second barrier (`C2`): all-reduces the partial input
    /// gradients produced by [`Self::t_pass_alg1`].
    ///
    /// # Errors
    ///
    /// Returns an error if the collective fails.
    pub fn barrier_c2(&self, comm: &Collective, mut dx_partial: Tensor) -> Result<Tensor> {
        comm.all_reduce(dx_partial.data_mut(), ReduceOp::Sum)
            .map_err(|e| comm_err(&e))?;
        Ok(dx_partial)
    }

    // ---------------------------------------------------------------------
    // T pass
    // ---------------------------------------------------------------------

    /// Algorithm 1's `T` pass: computes the partial input gradient
    /// `∇X′ = (softmax − G)/N · W` (to be reduced by `C2`) and accumulates
    /// the weight gradient `∇W = ((softmax − G)/N)ᵀ · X`. Both GEMMs form
    /// `(softmax − G)/N` while packing it ([`SoftmaxGrad`]).
    ///
    /// # Errors
    ///
    /// Returns an error if the barrier has not run on the state or `x`
    /// has the wrong shape.
    pub fn t_pass_alg1(&mut self, state: &SState, x: &Tensor) -> Result<Tensor> {
        let dy = state.dy()?;
        let dx_partial = dy.matmul(self.weight.value())?;
        dy.matmul_tn_accumulate(x, self.weight.grad_mut())?;
        Ok(dx_partial)
    }

    /// Algorithm 2's deferred `T` pass: only the weight gradient — no
    /// other pass depends on it, so schedules may run it arbitrarily late
    /// (the zero-bubble affinity noted in §4.4). One GEMM: it forms
    /// `(softmax − G)/N` while packing and, for a microbatch of at most
    /// one `k` panel of rows, adds its tiles straight into the gradient.
    ///
    /// # Errors
    ///
    /// Returns an error if the barrier has not run on the state or `x`
    /// has the wrong shape.
    pub fn t_pass_alg2(&mut self, state: &SState, x: &Tensor) -> Result<()> {
        state.dy()?.matmul_tn_accumulate(x, self.weight.grad_mut())
    }

    /// The staged `T` pass the fused one replaced, kept as its oracle:
    /// normalize and rescale the softmax, build `dy`, a fresh `dW`, then
    /// accumulate.
    /// Returns Algorithm 1's partial `∇X` when `alg1`.
    #[cfg(test)]
    pub(crate) fn t_pass_staged(
        &mut self,
        state: &SState,
        x: &Tensor,
        alg1: bool,
    ) -> Result<Option<Tensor>> {
        let corr = state.correction.as_ref().expect("the barrier ran");
        let mut softmax = state.softmax();
        for (r, &f) in corr.iter().enumerate() {
            softmax.row_mut(r).iter_mut().for_each(|v| *v *= f);
        }
        let n = state.labels.len() as f32;
        let mut dy = softmax.scale(1.0 / n);
        for (row, c) in state.labels.iter().enumerate() {
            if let Some(c) = *c {
                *dy.at_mut(row, c) -= 1.0 / n;
            }
        }
        let dx_partial = alg1.then(|| dy.matmul(self.weight.value())).transpose()?;
        let dw = dy.matmul_tn(x)?;
        self.weight.accumulate(&dw)?;
        Ok(dx_partial)
    }

    // ---------------------------------------------------------------------
    // Naive path and convenience wrapper
    // ---------------------------------------------------------------------

    /// The naive §4.1 grouping with its three inline barriers: all-reduce
    /// of the maxima (`F1`), all-reduce of the exponential sums (`F2`),
    /// then the backward matmuls and the `∇X` reduce (`B`).
    ///
    /// # Errors
    ///
    /// Returns shape/label errors as in [`Self::s_pass`].
    pub fn forward_backward_naive(
        &mut self,
        comm: &Collective,
        x: &Tensor,
        labels: &[usize],
    ) -> Result<(f64, Tensor)> {
        // F1: logits and global max.
        let y = x.matmul_nt(self.weight.value())?;
        let mut gmax = vp_tensor::ops::row_max(&y);
        comm.all_reduce(&mut gmax, ReduceOp::Max)
            .map_err(|e| comm_err(&e))?;
        // F2: shifted exponentials and global sum.
        let mut exps = Tensor::zeros(y.rows(), y.cols());
        let mut local_sum = vec![0.0f32; y.rows()];
        for r in 0..y.rows() {
            let mut acc = 0.0f32;
            for (o, &v) in exps.row_mut(r).iter_mut().zip(y.row(r)) {
                let e = (v - gmax[r]).exp();
                *o = e;
                acc += e;
            }
            local_sum[r] = acc;
        }
        let mut gsum = local_sum.clone();
        comm.all_reduce(&mut gsum, ReduceOp::Sum)
            .map_err(|e| comm_err(&e))?;
        // Loss.
        let n = labels.len();
        let local = self.local_labels(labels);
        let mut label_logit: Vec<f32> = local
            .iter()
            .enumerate()
            .map(|(row, c)| c.map_or(0.0, |c| y.at(row, c)))
            .collect();
        comm.all_reduce(&mut label_logit, ReduceOp::Sum)
            .map_err(|e| comm_err(&e))?;
        let loss = (0..n)
            .map(|i| (gmax[i] + gsum[i].ln() - label_logit[i]) as f64)
            .sum::<f64>()
            / n as f64;
        // B: gradients and the final reduce. Normalized by the global sum,
        // the exponentials are the global softmax: every correction is 1.
        let norm: Vec<f32> = gsum.iter().map(|&s| softmax_norm(s)).collect();
        let ones = vec![1.0f32; y.rows()];
        let dy = SoftmaxGrad::new(&exps, &norm, &ones, &local, 1.0 / n as f32)?;
        let mut dx = dy.matmul(self.weight.value())?;
        dy.matmul_tn_accumulate(x, self.weight.grad_mut())?;
        comm.all_reduce(dx.data_mut(), ReduceOp::Sum)
            .map_err(|e| comm_err(&e))?;
        Ok((loss, dx))
    }

    /// Runs the full forward + backward for one microbatch with the chosen
    /// algorithm, returning the global loss and `∇X`. This is the
    /// pass-fused convenience path used by tests and the verification
    /// harness; the pipeline runtime drives the pass-level API instead.
    ///
    /// # Errors
    ///
    /// Propagates any shape, label or collective error.
    pub fn forward_backward(
        &mut self,
        algo: VocabAlgo,
        comm: &Collective,
        x: &Tensor,
        labels: &[usize],
    ) -> Result<(f64, Tensor)> {
        match algo {
            VocabAlgo::Naive => self.forward_backward_naive(comm, x, labels),
            VocabAlgo::Alg1 => {
                let mut state = self.s_pass(VocabAlgo::Alg1, x, labels)?;
                let out = self.barrier_alg1(comm, &mut state)?;
                let dx_partial = self.t_pass_alg1(&state, x)?;
                let dx = self.barrier_c2(comm, dx_partial)?;
                Ok((out.loss, dx))
            }
            VocabAlgo::Alg2 => {
                let mut state = self.s_pass(VocabAlgo::Alg2, x, labels)?;
                let out = self.barrier_alg2(comm, &mut state)?;
                self.t_pass_alg2(&state, x)?;
                Ok((out.loss, out.dx.expect("alg2 barrier produces dx")))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Forward-only (decode) output layer: sharded logits → local top-k/softmax
// stats → single-barrier merge → sampling
// ---------------------------------------------------------------------------

/// The largest vocabulary a decode can sample from: [`DecodeSState::payload`]
/// ships every candidate's token id as an `f32`, which is exact only below
/// `2^24`.
pub const DECODE_VOCAB_LIMIT: usize = 1 << 24;

/// Decode-time `S`-pass state: per row, the shard's local softmax
/// statistics `(m', sum')` and its top-`k` logit candidates. This is
/// Algorithm 2's pre-barrier phase with the gradient matmuls deleted —
/// the single `C1` barrier then merges statistics *and* candidates in one
/// rendezvous ([`merge_decode`]).
#[derive(Debug, Clone)]
pub struct DecodeSState {
    /// Per-row local max `m'`.
    max: Vec<f32>,
    /// Per-row local `sum' = Σ exp(y − m')`.
    sum: Vec<f32>,
    /// Top-`k` `(logit, global token id)` of every row, best first, rows
    /// back to back (`k` entries each). Padded with `(−∞, 0)` when the
    /// shard has fewer than `k` selectable columns.
    topk: Vec<(f32, usize)>,
    /// Candidates per row (identical on every rank).
    k: usize,
}

impl DecodeSState {
    /// Rows (tokens being sampled) in this state.
    pub fn rows(&self) -> usize {
        self.max.len()
    }

    /// Candidates per row.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Serializes the state into the flat all-gather payload: per row
    /// `[m', sum', (logit, id)×k]` — `2 + 2k` floats. This is the wire
    /// format [`merge_decode`] consumes; an overlapping engine builds the
    /// payload on the device thread, submits the all-gather to its
    /// communication stream, and merges when the handle resolves.
    pub fn payload(&self) -> Vec<f32> {
        let n = self.max.len();
        let stride = 2 + 2 * self.k;
        let mut payload = Vec::with_capacity(n * stride);
        for r in 0..n {
            payload.push(self.max[r]);
            payload.push(self.sum[r]);
            for &(logit, id) in &self.topk[r * self.k..(r + 1) * self.k] {
                payload.push(logit);
                // Ids below `DECODE_VOCAB_LIMIT` are exact in f32; a
                // serving engine refuses larger vocabularies at start.
                debug_assert!(id < DECODE_VOCAB_LIMIT, "token id {id} not exact in f32");
                payload.push(id as f32);
            }
        }
        payload
    }
}

/// One sampled token and its log-probability under the *global* softmax
/// (identical on every rank after the barrier).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenChoice {
    /// The sampled (greedy) token id.
    pub token: usize,
    /// `log softmax(Y)[token]` — a serving metric; unlike the token choice
    /// itself it is not bitwise-pinned across shard counts (the global
    /// `Σ sum'·e^{m'−m}` reduction order follows the rank order).
    pub logprob: f32,
}

/// `true` when candidate `(logit_a, id_a)` beats `(logit_b, id_b)` under
/// greedy decoding: strictly larger logit, ties to the lowest token id —
/// exactly [`vp_tensor::ops::argmax_rows`]'s first-maximum rule, so the
/// merged pick is bitwise the single-device argmax. A `NaN` logit beats
/// nothing and nothing beats it (every comparison is false), the way
/// `f32::max` and the strict `>` of `argmax_rows` pass over it.
fn beats(a: (f32, usize), b: (f32, usize)) -> bool {
    a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// Columns per chunk of [`select_topk`]'s sweep: one AVX-512 compare.
const SWEEP_CHUNK: usize = 16;

/// Fills `best` (`k` slots, pre-set to the `(−∞, 0)` padding) with the `k`
/// best `(logit, start + column)` candidates of `row` under [`beats`], best
/// first — a fixed-size insertion buffer, so no sort and nothing allocated.
///
/// The first `k` non-`NaN` columns are taken unconditionally. After that a
/// candidate enters only by beating the held worst, and because column ids
/// ascend, an equal logit never does: it enters exactly when `v` exceeds
/// the worst held logit (which a `NaN` never does). So each
/// [`SWEEP_CHUNK`]-wide chunk is first tested for any such `v` with one
/// vectorizable compare-and-or, and skipped whole when there is none —
/// almost every chunk of a wide row once the buffer holds its real
/// winners. The selection is the per-column one's, bit for bit.
fn select_topk(row: &[f32], start: usize, best: &mut [(f32, usize)]) {
    // Puts `cand` in slot `at` (the first free one, or the worst when the
    // buffer is full) and bubbles it up past everything it beats.
    let insert = |best: &mut [(f32, usize)], mut at: usize, cand: (f32, usize)| {
        while at > 0 && beats(cand, best[at - 1]) {
            best[at] = best[at - 1];
            at -= 1;
        }
        best[at] = cand;
    };
    let k = best.len();
    let (mut held, mut c) = (0, 0);
    while held < k && c < row.len() {
        if !row[c].is_nan() {
            insert(best, held, (row[c], start + c));
            held += 1;
        }
        c += 1;
    }
    for (i, chunk) in row[c..].chunks(SWEEP_CHUNK).enumerate() {
        let floor = best[k - 1].0;
        if !chunk.iter().fold(false, |hit, &v| hit | (v > floor)) {
            continue;
        }
        let base = start + c + i * SWEEP_CHUNK;
        for (j, &v) in chunk.iter().enumerate() {
            if v > best[k - 1].0 {
                insert(best, k - 1, (v, base + j));
            }
        }
    }
}

/// The forward-only `S` pass against a packed vocabulary shard whose first
/// token id is `start`: sharded logits `y = X·Wᵀ` plus local softmax
/// statistics and the shard's top-`k` candidates. No labels, no gradients —
/// this is the decode half of §4.2's `S` pass, and it reads nothing of the
/// shard but its pack ([`PackedB::pack_nt`] of `W`, or the same bytes built
/// slab by slab with [`PackedB::pack_nt_rows`]), which is all a serving
/// device holds of its output table.
///
/// Rows are independent: `m` stacked rows give bitwise the states of
/// `m` one-row calls, from one GEMM against the pack. The
/// logits are then swept a group of [`EXP_SUM_ROWS`] rows at a time,
/// while the group is in cache: a top-`k` sweep per row that skips
/// 16-wide chunks holding no contender, then training's exp-sum
/// ([`exp_sum_rows`]: the row max, the polynomial exp in place, the group's ascending sums as interleaved chains). A `NaN`
/// logit is never a candidate, and a row with no logit above `−∞` gets the
/// identity statistics `(−∞, 0)`, which the merge weighs as nothing.
///
/// # Errors
///
/// Returns a shape error if `x` does not match the pack's hidden
/// width, or [`TensorError::InvalidArgument`] if `k == 0`.
pub fn decode_s_pass(pack: &PackedB, start: usize, x: &Tensor, k: usize) -> Result<DecodeSState> {
    if k == 0 {
        return Err(TensorError::InvalidArgument(
            "decode needs at least one candidate per shard".into(),
        ));
    }
    let mut y = x.matmul_packed(pack, None)?;
    let (n, cols) = (y.rows(), y.cols());
    // A zero-width shard has no group to visit: identity statistics.
    let mut max = vec![f32::NEG_INFINITY; n];
    let mut sum = vec![0.0; n];
    let mut topk = vec![(f32::NEG_INFINITY, 0); n * k];
    let groups = y.data_mut().chunks_mut(EXP_SUM_ROWS * cols.max(1)).zip(
        topk.chunks_mut(EXP_SUM_ROWS * k).zip(
            max.chunks_mut(EXP_SUM_ROWS)
                .zip(sum.chunks_mut(EXP_SUM_ROWS)),
        ),
    );
    for (rows, (best, (max, sum))) in groups {
        for (row, best) in rows.chunks_exact(cols).zip(best.chunks_exact_mut(k)) {
            select_topk(row, start, best);
        }
        // The stats feed only the logprob metric; the token choice
        // never touches them.
        exp_sum_rows(rows, cols, |_| cols, max, sum);
    }
    Ok(DecodeSState { max, sum, topk, k })
}

impl OutputShard {
    /// [`decode_s_pass`] against this shard's packed weight, packing it on
    /// first use.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` does not match the weight's hidden
    /// width, or [`TensorError::InvalidArgument`] if `k == 0`.
    pub fn s_pass_decode(&self, x: &Tensor, k: usize) -> Result<DecodeSState> {
        decode_s_pass(self.weight.packed_nt(), self.shard_start(), x, k)
    }
}

/// Algorithm 2's **single** decode barrier, after its one `all_gather` of
/// every rank's [`DecodeSState::payload`] (`(m', sum')` statistics *and*
/// top-`k` candidates): merges them identically on every rank — global
/// max/sum by the standard safe-softmax combination, the greedy token as
/// the best candidate under [`vp_tensor::ops::argmax_rows`]'s tie rule — so
/// no second communication round is needed to agree on the sample. Pure
/// function of the gathered shards, so the overlapping engine can run it
/// in a `T` pass long after the `S` pass that submitted the all-gather.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] if the gathered payloads
/// disagree in shape (ranks ran different step plans) or carry no
/// candidates.
pub fn merge_decode(gathered: &[Vec<f32>], rows: usize, k: usize) -> Result<Vec<TokenChoice>> {
    let stride = 2 + 2 * k;
    let mut out = Vec::with_capacity(rows);
    for r in 0..rows {
        let mut gmax = f32::NEG_INFINITY;
        for shard in gathered {
            if shard.len() != rows * stride {
                return Err(TensorError::InvalidArgument(format!(
                    "decode barrier payload mismatch: {} vs {} floats",
                    shard.len(),
                    rows * stride
                )));
            }
            gmax = gmax.max(shard[r * stride]);
        }
        let mut gsum = 0.0f32;
        let mut best: Option<(f32, usize)> = None;
        for shard in gathered {
            let base = r * stride;
            let (m, s) = (shard[base], shard[base + 1]);
            gsum += s * (m - gmax).exp();
            for c in 0..k {
                let logit = shard[base + 2 + 2 * c];
                if logit == f32::NEG_INFINITY {
                    continue;
                }
                let id = shard[base + 2 + 2 * c + 1] as usize;
                if best.is_none() || beats((logit, id), best.expect("just checked")) {
                    best = Some((logit, id));
                }
            }
        }
        let (logit, token) = best.ok_or_else(|| {
            TensorError::InvalidArgument("decode barrier saw no candidates".into())
        })?;
        out.push(TokenChoice {
            token,
            logprob: logit - gmax - gsum.ln(),
        });
    }
    Ok(out)
}

fn comm_err(e: &vp_collectives::CollectiveError) -> TensorError {
    TensorError::InvalidArgument(format!("collective failed: {e}"))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use vp_collectives::CollectiveGroup;
    use vp_tensor::init::{normal, seeded_rng};
    use vp_tensor::nn::softmax_cross_entropy;

    /// Runs `algo` on `p` sharded threads and returns (loss, dx, dw-parts).
    fn run_sharded(
        algo: VocabAlgo,
        p: usize,
        full_w: &Tensor,
        x: &Tensor,
        labels: &[usize],
    ) -> (f64, Tensor, Vec<Tensor>) {
        let part = VocabPartition::new(full_w.rows(), p);
        let comms = CollectiveGroup::new(p);
        std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for comm in comms {
                let rank = comm.rank();
                joins.push(scope.spawn(move || {
                    let mut shard = OutputShard::from_full(full_w, part, rank).unwrap();
                    let (loss, dx) = shard.forward_backward(algo, &comm, x, labels).unwrap();
                    (rank, loss, dx, shard.weight().grad().clone())
                }));
            }
            let mut results: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
            results.sort_by_key(|r| r.0);
            let loss = results[0].1;
            let dx = results[0].2.clone();
            // All ranks agree on loss and dx.
            for r in &results {
                assert!((r.1 - loss).abs() < 1e-5);
                assert!(r.2.max_abs_diff(&dx).unwrap() < 1e-5);
            }
            let dws = results.into_iter().map(|r| r.3).collect();
            (loss, dx, dws)
        })
    }

    fn reference(full_w: &Tensor, x: &Tensor, labels: &[usize]) -> (f64, Tensor, Tensor) {
        let logits = x.matmul_nt(full_w).unwrap();
        let (out, grad) = softmax_cross_entropy(&logits, labels).unwrap();
        let dx = grad.dlogits.matmul(full_w).unwrap();
        let dw = grad.dlogits.matmul_tn(x).unwrap();
        (out.loss, dx, dw)
    }

    fn check_algo(algo: VocabAlgo, p: usize, vocab: usize, seed: u64) {
        let (n, h) = (6, 8);
        let mut rng = seeded_rng(seed);
        let full_w = normal(&mut rng, vocab, h, 0.5);
        let x = normal(&mut rng, n, h, 1.0);
        let labels: Vec<usize> = (0..n).map(|i| (i * 7 + seed as usize) % vocab).collect();
        let (ref_loss, ref_dx, ref_dw) = reference(&full_w, &x, &labels);
        let (loss, dx, dws) = run_sharded(algo, p, &full_w, &x, &labels);
        assert!(
            (loss - ref_loss).abs() < 1e-4,
            "{algo:?}: loss {loss} vs {ref_loss}"
        );
        assert!(
            dx.max_abs_diff(&ref_dx).unwrap() < 1e-4,
            "{algo:?}: dx mismatch"
        );
        // Stitch shard weight gradients back together.
        let part = VocabPartition::new(vocab, p);
        for (rank, dw) in dws.iter().enumerate() {
            let (start, _) = part.shard_range(rank);
            let end = (start + dw.rows()).min(vocab);
            let expected = ref_dw.slice_rows(start.min(end), end).unwrap();
            assert!(
                dw.max_abs_diff(&expected).unwrap() < 1e-4,
                "{algo:?}: dW mismatch on rank {rank}"
            );
        }
    }

    #[test]
    fn naive_matches_reference() {
        check_algo(VocabAlgo::Naive, 4, 32, 1);
    }

    #[test]
    fn alg1_matches_reference() {
        check_algo(VocabAlgo::Alg1, 4, 32, 2);
    }

    #[test]
    fn alg2_matches_reference() {
        check_algo(VocabAlgo::Alg2, 4, 32, 3);
    }

    #[test]
    fn uneven_shards_and_padding() {
        // 33 entries over 4 devices: padded to 40, shard width 10, the last
        // shard holds only 3 real rows.
        for algo in [VocabAlgo::Naive, VocabAlgo::Alg1, VocabAlgo::Alg2] {
            check_algo(algo, 4, 33, 7);
        }
    }

    #[test]
    fn single_device_degenerates_to_reference() {
        for algo in [VocabAlgo::Naive, VocabAlgo::Alg1, VocabAlgo::Alg2] {
            check_algo(algo, 1, 16, 11);
        }
    }

    #[test]
    fn many_devices_small_vocab() {
        // More devices than a comfortable split: some shards are tiny.
        for algo in [VocabAlgo::Alg1, VocabAlgo::Alg2] {
            check_algo(algo, 8, 19, 13);
        }
    }

    #[test]
    fn s_pass_validates_labels() {
        let part = VocabPartition::new(16, 2);
        let w = Tensor::zeros(8, 4);
        let shard = OutputShard::new(w, part, 0).unwrap();
        let x = Tensor::zeros(2, 4);
        assert!(shard.s_pass(VocabAlgo::Alg1, &x, &[0, 16]).is_err());
        assert!(shard.s_pass(VocabAlgo::Alg1, &x, &[0]).is_err());
    }

    #[test]
    fn t_pass_requires_barrier() {
        let part = VocabPartition::new(8, 1);
        let mut rng = seeded_rng(5);
        let w = normal(&mut rng, 8, 4, 1.0);
        let mut shard = OutputShard::new(w, part, 0).unwrap();
        let x = normal(&mut rng, 2, 4, 1.0);
        for algo in [VocabAlgo::Alg1, VocabAlgo::Alg2] {
            let state = shard.s_pass(algo, &x, &[0, 1]).unwrap();
            assert!(shard.t_pass_alg1(&state, &x).is_err());
            assert!(shard.t_pass_alg2(&state, &x).is_err());
        }
        assert!(shard.weight().grad().data().iter().all(|&g| g == 0.0));
    }

    /// Runs the fused `T` pass of `algo` on `shard` and the staged oracle
    /// on `oracle` (same weight, same gradient so far), then requires the
    /// gradients — and Algorithm 1's partial `∇X` — to agree bit for bit.
    pub(crate) fn t_matches_staged(
        algo: VocabAlgo,
        shard: &mut OutputShard,
        oracle: &mut OutputShard,
        state: &SState,
        x: &Tensor,
        what: &str,
    ) {
        let dx = match algo {
            VocabAlgo::Alg1 => Some(shard.t_pass_alg1(state, x).unwrap()),
            _ => {
                shard.t_pass_alg2(state, x).unwrap();
                None
            }
        };
        let want = oracle
            .t_pass_staged(state, x, algo == VocabAlgo::Alg1)
            .unwrap();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(shard.weight().grad()),
            bits(oracle.weight().grad()),
            "{what}: weight gradient"
        );
        assert_eq!(
            dx.as_ref().map(bits),
            want.as_ref().map(bits),
            "{what}: ∇X′"
        );
    }

    /// `(vocab, p, rank, rows, label span)` for the staged oracles. 130
    /// rows is past one KC = 128 panel: `T`'s fallback (fresh product, then
    /// accumulate). Span 20 on rank 1 of 40/2 puts every label on the other
    /// shard; vocab 5 over 8 shards leaves rank 7 with no column at all.
    const STAGED_CASES: [(usize, usize, usize, usize, usize); 6] = [
        (40, 1, 0, 6, 40),
        (40, 3, 1, 13, 40),
        (40, 2, 0, 130, 40),
        (40, 2, 1, 9, 20),
        (5, 8, 7, 4, 5),
        (64, 4, 3, 33, 64),
    ];

    #[test]
    fn one_sweep_s_pass_is_bitwise_the_staged_oracle() {
        let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let tbits = |t: Option<&Tensor>| t.map(|t| bits(t.data()));
        for (vocab, p, rank, rows, span) in STAGED_CASES {
            let mut full = normal(&mut seeded_rng(73), vocab, 6, 0.8);
            // A column of `−∞` logits and a `NaN` one (x's column 0 is
            // positive) on every shard of two columns or more.
            full.row_mut(vocab - 1)[0] = f32::NEG_INFINITY;
            full.row_mut(vocab / 2)[0] = f32::NAN;
            let shard = OutputShard::from_full(&full, VocabPartition::new(vocab, p), rank).unwrap();
            let mut x = normal(&mut seeded_rng(74), rows, 6, 1.0);
            for r in 0..rows {
                x.row_mut(r)[0] = x.row(r)[0].abs() + 0.25;
            }
            let labels: Vec<usize> = (0..rows).map(|i| (i * 7) % span).collect();
            for algo in [VocabAlgo::Alg1, VocabAlgo::Alg2] {
                let what = format!("{algo:?} vocab={vocab} p={p} rank={rank} rows={rows}");
                let got = shard.s_pass(algo, &x, &labels).unwrap();
                let want = shard.s_pass_staged(algo, &x, &labels).unwrap();
                let softmax = |s: &SState| bits(s.softmax().data());
                assert_eq!(softmax(&got), softmax(&want), "{what}: e·norm");
                assert_eq!(bits(&got.stats.max), bits(&want.stats.max), "{what}");
                assert_eq!(bits(&got.stats.sum), bits(&want.stats.sum), "{what}");
                assert_eq!(bits(&got.label_logit), bits(&want.label_logit), "{what}");
                assert_eq!(tbits(got.a.as_ref()), tbits(want.a.as_ref()), "{what}: A");
                assert_eq!(tbits(got.b.as_ref()), tbits(want.b.as_ref()), "{what}: B");
            }
        }
    }

    #[test]
    fn fused_t_pass_is_bitwise_the_staged_oracle() {
        for (vocab, p, rank, rows, span) in STAGED_CASES {
            for algo in [VocabAlgo::Alg1, VocabAlgo::Alg2] {
                let full = normal(&mut seeded_rng(71), vocab, 6, 0.8);
                let part = VocabPartition::new(vocab, p);
                let mut shard = OutputShard::from_full(&full, part, rank).unwrap();
                let mut oracle = shard.clone();
                // Four microbatches into one gradient; the first finds it
                // not yet allocated.
                for mb in 0..4 {
                    let what =
                        format!("{algo:?} vocab={vocab} p={p} rank={rank} rows={rows} mb={mb}");
                    let x = normal(&mut seeded_rng(72 + mb as u64), rows, 6, 1.0);
                    let labels: Vec<usize> = (0..rows).map(|i| (i * 7 + mb) % span).collect();
                    let mut state = shard.s_pass(algo, &x, &labels).unwrap();
                    state.barrier_local();
                    // Corrections away from 1, and a zero one.
                    let corr = state.correction.as_mut().expect("the barrier ran");
                    for (r, f) in corr.iter_mut().enumerate() {
                        *f *= [1.0, 0.37, 0.0][r % 3];
                    }
                    t_matches_staged(algo, &mut shard, &mut oracle, &state, &x, &what);
                }
            }
        }
    }

    #[test]
    fn wrong_shard_shape_is_rejected() {
        let part = VocabPartition::new(16, 2);
        assert!(OutputShard::new(Tensor::zeros(7, 4), part, 0).is_err());
    }

    /// Runs the decode S pass + single barrier on `p` sharded threads and
    /// returns every rank's merged choices (they must agree exactly).
    fn run_decode_sharded(p: usize, full_w: &Tensor, x: &Tensor, k: usize) -> Vec<TokenChoice> {
        let part = VocabPartition::new(full_w.rows(), p);
        let comms = CollectiveGroup::new(p);
        std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for comm in comms {
                let rank = comm.rank();
                joins.push(scope.spawn(move || {
                    let shard = OutputShard::from_full(full_w, part, rank).unwrap();
                    let state = shard.s_pass_decode(x, k).unwrap();
                    let gathered = comm.all_gather(&state.payload());
                    (rank, merge_decode(&gathered, x.rows(), k).unwrap())
                }));
            }
            let mut results: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
            results.sort_by_key(|r| r.0);
            for r in &results[1..] {
                assert_eq!(r.1, results[0].1, "ranks disagree on the merge");
            }
            results.swap_remove(0).1
        })
    }

    #[test]
    fn decode_merge_equals_single_device_argmax() {
        use vp_tensor::ops::{argmax_rows, softmax_rows};
        let (n, h, vocab) = (5, 8, 23);
        let mut rng = seeded_rng(91);
        let full_w = normal(&mut rng, vocab, h, 0.7);
        let x = normal(&mut rng, n, h, 1.0);
        let logits = x.matmul_nt(&full_w).unwrap();
        let expected = argmax_rows(&logits);
        let probs = softmax_rows(&logits);
        for p in [1, 2, 3, 4] {
            for k in [1, 4] {
                let choices = run_decode_sharded(p, &full_w, &x, k);
                let tokens: Vec<usize> = choices.iter().map(|c| c.token).collect();
                assert_eq!(tokens, expected, "p={p} k={k}");
                for (r, c) in choices.iter().enumerate() {
                    let want = probs.at(r, c.token).ln();
                    assert!(
                        (c.logprob - want).abs() < 1e-4,
                        "p={p} row {r}: logprob {} vs {want}",
                        c.logprob
                    );
                }
            }
        }
    }

    #[test]
    fn decode_tie_breaks_to_the_lowest_token_id_like_argmax() {
        // Identical weight rows ⇒ identical logits for several tokens;
        // argmax_rows keeps the first, so must the merge — including when
        // the tied ids live on different shards.
        let h = 4;
        let mut rng = seeded_rng(92);
        let row = normal(&mut rng, 1, h, 1.0);
        let mut w = Tensor::zeros(6, h);
        for r in 0..6 {
            w.row_mut(r).copy_from_slice(row.row(0));
        }
        let x = normal(&mut rng, 3, h, 1.0);
        let expected = vp_tensor::ops::argmax_rows(&x.matmul_nt(&w).unwrap());
        assert!(expected.iter().all(|&t| t == 0));
        for p in [1, 2, 3] {
            let tokens: Vec<usize> = run_decode_sharded(p, &w, &x, 2)
                .iter()
                .map(|c| c.token)
                .collect();
            assert_eq!(tokens, expected, "p={p}");
        }
    }

    /// The routine the streaming sweep replaced, kept as its oracle:
    /// collect every non-`NaN` `(logit, id)` of a row (from the unpacked
    /// GEMM), sort under `beats`, keep `k`.
    fn sorted_oracle(shard: &OutputShard, x: &Tensor, k: usize) -> DecodeSState {
        let y = x.matmul_nt(shard.weight.value()).unwrap();
        let start = shard.shard_start();
        let (mut max, mut sum, mut topk) = (Vec::new(), Vec::new(), Vec::new());
        for r in 0..y.rows() {
            let row = y.row(r);
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut cands: Vec<(f32, usize)> = row
                .iter()
                .enumerate()
                .filter(|(_, v)| !v.is_nan())
                .map(|(c, &v)| (v, start + c))
                .collect();
            cands.sort_by(|a, b| {
                if beats(*a, *b) {
                    std::cmp::Ordering::Less
                } else if beats(*b, *a) {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            });
            cands.truncate(k);
            cands.resize(k, (f32::NEG_INFINITY, 0));
            max.push(m);
            // Polynomial exp, ascending sum: the production exp-sum, fused.
            // A row with no logit above `−∞` (an empty shard's included)
            // has the identity sum, or `NaN` if it holds one.
            sum.push(match m {
                f32::NEG_INFINITY if row.iter().any(|v| v.is_nan()) => f32::NAN,
                f32::NEG_INFINITY => 0.0,
                _ => row.iter().map(|&v| vp_tensor::mathx::exp(v - m)).sum(),
            });
            topk.extend(cands);
        }
        DecodeSState { max, sum, topk, k }
    }

    /// A state down to the bit: `max`, `sum` and every `(logit, id)`.
    fn state_bits(s: &DecodeSState) -> (Vec<u32>, Vec<u32>, Vec<(u32, usize)>) {
        (
            s.max.iter().map(|v| v.to_bits()).collect(),
            s.sum.iter().map(|v| v.to_bits()).collect(),
            s.topk.iter().map(|&(v, id)| (v.to_bits(), id)).collect(),
        )
    }

    /// A `[vocab, h]` weight built to tie: rows 1, `vocab/2` and
    /// `vocab − 2` repeat row 0 (ties inside a shard and across shards),
    /// and one column of the last row is `+∞`, one of row 3 `−∞`.
    fn tie_heavy_weight(vocab: usize, h: usize, seed: u64) -> Tensor {
        let mut w = normal(&mut seeded_rng(seed), vocab, h, 0.6);
        let first = w.row(0).to_vec();
        for r in [1, vocab / 2, vocab - 2] {
            w.row_mut(r).copy_from_slice(&first);
        }
        w.row_mut(vocab - 1)[0] = f32::INFINITY;
        w.row_mut(3)[1] = f32::NEG_INFINITY;
        w
    }

    /// `m` rows with rows 0 and `m − 1` identical (an in-group duplicate)
    /// and no zero entry (so `0·∞` cannot poison the infinite logits).
    fn group_rows(m: usize, h: usize, seed: u64) -> Tensor {
        let mut x = normal(&mut seeded_rng(seed), m, h, 1.0);
        for v in x.data_mut() {
            if *v == 0.0 {
                *v = 0.5;
            }
        }
        let first = x.row(0).to_vec();
        x.row_mut(m - 1).copy_from_slice(&first);
        x
    }

    /// A `[vocab, h]` weight for the sweep's chunk skipping: row `j` is
    /// scaled by `1 + j/8`, so rows ascend into late winners several
    /// 16-wide chunks in; row 1 gives a `−∞` and row 2 a `NaN` logit inside
    /// the first `k` columns (against [`chunk_rows`]' positive column 0);
    /// row `vocab − 3` repeats row 5, a tie across chunks.
    fn late_winner_weight(vocab: usize, h: usize, seed: u64) -> Tensor {
        let mut w = normal(&mut seeded_rng(seed), vocab, h, 0.6);
        for j in 0..vocab {
            w.row_mut(j)
                .iter_mut()
                .for_each(|v| *v *= 1.0 + j as f32 / 8.0);
        }
        w.row_mut(1)[0] = f32::NEG_INFINITY;
        w.row_mut(2)[0] = f32::NAN;
        let fifth = w.row(5).to_vec();
        w.row_mut(vocab - 3).copy_from_slice(&fifth);
        w
    }

    /// [`group_rows`] with column 0 made positive, so a `±∞` / `NaN` in a
    /// weight's column 0 keeps its sign in every logit.
    fn chunk_rows(m: usize, h: usize, seed: u64) -> Tensor {
        let mut x = group_rows(m, h, seed);
        for r in 0..m {
            x.row_mut(r)[0] = x.row(r)[0].abs() + 0.25;
        }
        x
    }

    #[test]
    fn streaming_sweep_is_bitwise_the_sort_based_oracle() {
        // vocab 11 over 4 shards leaves widths 4/4/3/0, narrower than k
        // and empty;
        // vocab 200 spans up to 13 chunks per row, and k = 17, 20 hold
        // more than one chunk's worth of candidates.
        let cases: [(Tensor, Tensor, &[usize]); 4] = [
            (tie_heavy_weight(64, 8, 94), group_rows(5, 8, 95), &[4, 7]),
            (tie_heavy_weight(11, 8, 94), group_rows(5, 8, 95), &[1, 4]),
            (
                late_winner_weight(200, 8, 90),
                chunk_rows(6, 8, 91),
                &[1, 3, 17, 20],
            ),
            (
                late_winner_weight(40, 8, 92),
                chunk_rows(3, 8, 93),
                &[2, 16],
            ),
        ];
        for (w, x, ks) in &cases {
            let vocab = w.rows();
            for &k in *ks {
                for p in [1, 2, 4] {
                    let part = VocabPartition::new(vocab, p);
                    for rank in 0..p {
                        let shard = OutputShard::from_full(w, part, rank).unwrap();
                        let swept = shard.s_pass_decode(x, k).unwrap();
                        assert_eq!(
                            state_bits(&swept),
                            state_bits(&sorted_oracle(&shard, x, k)),
                            "vocab={vocab} k={k} p={p} rank={rank}"
                        );
                    }
                }
            }
        }
        // The late-winner rows really do put their winners late.
        let y = chunk_rows(6, 8, 91).matmul_nt(&late_winner_weight(200, 8, 90));
        let winners = vp_tensor::ops::argmax_rows(&y.unwrap());
        assert!(winners.iter().all(|&c| c >= 2 * SWEEP_CHUNK), "{winners:?}");
    }

    #[test]
    fn decode_from_a_slab_built_pack_is_bitwise_the_shard_s_pass() {
        // The serving path: the pack is built one slab at a time from the
        // shard's rows and the shard value never exists.
        let (w, x) = (late_winner_weight(200, 8, 90), chunk_rows(6, 8, 91));
        for p in [1, 2, 4] {
            let part = VocabPartition::new(w.rows(), p);
            for rank in 0..p {
                let shard = OutputShard::from_full(&w, part, rank).unwrap();
                let rows = part.real_range(rank);
                let pack = PackedB::pack_nt_rows(rows.len(), w.cols(), |slab| {
                    w.slice_rows(rows.start + slab.start, rows.start + slab.end)
                        .unwrap()
                });
                let start = part.shard_range(rank).0;
                for k in [1, 3, 17] {
                    assert_eq!(
                        state_bits(&decode_s_pass(&pack, start, &x, k).unwrap()),
                        state_bits(&shard.s_pass_decode(&x, k).unwrap()),
                        "p={p} rank={rank} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn grouped_s_pass_and_merge_are_bitwise_the_per_slot_ones() {
        let (m, k, vocab) = (6, 4, 64);
        let w = tie_heavy_weight(vocab, 8, 96);
        let x = group_rows(m, 8, 97);
        let want = vp_tensor::ops::argmax_rows(&x.matmul_nt(&w).unwrap());
        for p in [1, 2, 4] {
            let part = VocabPartition::new(vocab, p);
            let shards: Vec<OutputShard> = (0..p)
                .map(|rank| OutputShard::from_full(&w, part, rank).unwrap())
                .collect();
            // One S over the stacked group against one S per slot.
            let grouped: Vec<DecodeSState> = shards
                .iter()
                .map(|s| s.s_pass_decode(&x, k).unwrap())
                .collect();
            let mut per_slot = Vec::new();
            for r in 0..m {
                let row = x.slice_rows(r, r + 1).unwrap();
                let states: Vec<DecodeSState> = shards
                    .iter()
                    .map(|s| s.s_pass_decode(&row, k).unwrap())
                    .collect();
                for (rank, one) in states.iter().enumerate() {
                    let (gmax, gsum, gtop) = state_bits(&grouped[rank]);
                    assert_eq!(
                        state_bits(one),
                        (
                            vec![gmax[r]],
                            vec![gsum[r]],
                            gtop[r * k..(r + 1) * k].to_vec()
                        ),
                        "p={p} rank={rank} row={r}"
                    );
                }
                // One merge per slot …
                let gathered: Vec<Vec<f32>> = states.iter().map(DecodeSState::payload).collect();
                per_slot.extend(merge_decode(&gathered, 1, k).unwrap());
            }
            // … against one merge over the gathered group.
            let gathered: Vec<Vec<f32>> = grouped.iter().map(DecodeSState::payload).collect();
            let merged = merge_decode(&gathered, m, k).unwrap();
            assert_eq!(merged.len(), m);
            for (a, b) in merged.iter().zip(&per_slot) {
                assert_eq!(
                    (a.token, a.logprob.to_bits()),
                    (b.token, b.logprob.to_bits())
                );
            }
            let tokens: Vec<usize> = merged.iter().map(|c| c.token).collect();
            assert_eq!(tokens, want, "p={p}");
            assert_eq!(tokens[0], tokens[m - 1], "duplicate rows sample alike");
        }
    }

    #[test]
    fn nan_logits_are_never_selected_and_never_panic() {
        // Regression: a NaN weight used to abort the S pass inside
        // `sort_by` ("does not correctly implement a total order"), and the
        // device's peers then parked forever in the all-gather.
        let (vocab, h, k) = (24, 4, 4);
        let mut w = normal(&mut seeded_rng(98), vocab, h, 0.8);
        for r in [2, 9, 10, 23] {
            w.row_mut(r)[1] = f32::NAN;
        }
        let x = group_rows(3, h, 99);
        let logits = x.matmul_nt(&w).unwrap();
        assert!(logits.row(0)[9].is_nan());
        let want = vp_tensor::ops::argmax_rows(&logits);
        for p in [1, 2, 4] {
            let part = VocabPartition::new(vocab, p);
            let states: Vec<DecodeSState> = (0..p)
                .map(|rank| {
                    OutputShard::from_full(&w, part, rank)
                        .unwrap()
                        .s_pass_decode(&x, k)
                        .unwrap()
                })
                .collect();
            for s in &states {
                assert!(s.topk.iter().all(|(v, _)| !v.is_nan()));
                assert!(s.max.iter().all(|m| !m.is_nan()), "f32::max skips NaN");
            }
            let gathered: Vec<Vec<f32>> = states.iter().map(DecodeSState::payload).collect();
            let tokens: Vec<usize> = merge_decode(&gathered, 3, k)
                .unwrap()
                .iter()
                .map(|c| c.token)
                .collect();
            assert_eq!(tokens, want, "p={p}");
        }
        // A shard of nothing but NaN offers only padding.
        let all_nan = Tensor::full(3, h, f32::NAN);
        let shard = OutputShard::new(all_nan, VocabPartition::new(3, 1), 0).unwrap();
        let state = shard.s_pass_decode(&x, 2).unwrap();
        assert!(state.topk.iter().all(|&c| c == (f32::NEG_INFINITY, 0)));
        assert!(merge_decode(&[state.payload()], 3, 2).is_err());
    }

    /// Every bit both `S` passes produce: Algorithm 2's state (softmax',
    /// stats, label logits, `A`, `B`) and the decode state.
    fn s_bits(shard: &OutputShard, x: &Tensor, labels: &[usize]) -> Vec<u32> {
        let s = shard.s_pass(VocabAlgo::Alg2, x, labels).unwrap();
        let d = shard.s_pass_decode(x, 3).unwrap();
        let a = s.a.as_ref().expect("alg2");
        let b = s.b.as_ref().expect("alg2");
        [
            s.softmax().data(),
            &s.stats.max,
            &s.stats.sum,
            &s.label_logit,
        ]
        .into_iter()
        .chain([a.data(), b.data(), &d.max, &d.sum])
        .flatten()
        .map(|v| v.to_bits())
        .chain(d.topk.iter().flat_map(|&(v, id)| [v.to_bits(), id as u32]))
        .collect()
    }

    /// A shard built from scratch around `shard`'s current weight value.
    fn fresh(shard: &OutputShard) -> OutputShard {
        let w = shard.weight().value().clone();
        OutputShard::new(w, shard.partition(), shard.rank()).unwrap()
    }

    #[test]
    fn a_stale_pack_is_impossible() {
        use vp_tensor::optim::{Adam, Optimizer};
        // vocab 5 over 8 shards: rank 7 owns no column at all.
        for (vocab, p, rank) in [(24, 1, 0), (24, 3, 1), (24, 3, 2), (5, 8, 7)] {
            let what = format!("vocab={vocab} p={p} rank={rank}");
            let full = normal(&mut seeded_rng(61), vocab, 6, 0.8);
            let x = normal(&mut seeded_rng(62), 4, 6, 1.0);
            let labels = [0, vocab - 1, vocab / 2, 1];
            let mut shard =
                OutputShard::from_full(&full, VocabPartition::new(vocab, p), rank).unwrap();
            assert_eq!(shard.pack_addr(), None, "{what}: packs lazily");
            let first = s_bits(&shard, &x, &labels);
            let addr = shard.pack_addr().expect("the S pass packed");
            assert_eq!(s_bits(&shard, &x, &labels), first, "{what}");
            assert_eq!(shard.pack_addr(), Some(addr), "{what}: one pack, reused");

            // A T pass writes only the gradient: the pack survives it …
            let mut state = shard.s_pass(VocabAlgo::Alg2, &x, &labels).unwrap();
            state.barrier_local();
            shard.t_pass_alg2(&state, &x).unwrap();
            assert_eq!(shard.pack_addr(), Some(addr), "{what}: T keeps the pack");
            // … the optimizer step, through `weight_mut`, does not.
            let before = shard.weight().value().clone();
            Adam::new(0.05).step(shard.weight_mut()).unwrap();
            assert!(vocab < p || shard.weight().value() != &before, "{what}");
            assert_eq!(shard.pack_addr(), None, "{what}: the step dropped it");
            assert_eq!(
                s_bits(&shard, &x, &labels),
                s_bits(&fresh(&shard), &x, &labels)
            );

            // A clone carries a pack of its own, valid for its weight.
            let clone = shard.clone();
            assert!(clone.pack_addr().is_some(), "{what}");
            if vocab >= p {
                assert_ne!(clone.pack_addr(), shard.pack_addr(), "{what}");
            }
            assert_eq!(
                s_bits(&clone, &x, &labels),
                s_bits(&fresh(&shard), &x, &labels)
            );

            // A direct write to the value.
            if let Some(v) = shard.weight_mut().value_mut().data_mut().first_mut() {
                *v += 1.5;
            }
            assert_eq!(
                s_bits(&shard, &x, &labels),
                s_bits(&fresh(&shard), &x, &labels)
            );

            // A parameter replaced wholesale, as a checkpoint load does.
            let other = normal(&mut seeded_rng(63), full.rows(), 6, 0.8);
            let loaded = other.slice_rows(0, shard.weight().value().rows()).unwrap();
            let (m, v) = shard.weight().moments();
            let state = Param::from_state(loaded, m.clone(), v.clone()).unwrap();
            *shard.weight_mut() = state;
            assert_eq!(
                s_bits(&shard, &x, &labels),
                s_bits(&fresh(&shard), &x, &labels)
            );
        }
    }

    #[test]
    fn a_shard_of_minus_infinity_keeps_the_logprob_finite() {
        // Regression: a shard row with no finite logit took `exp(−∞ − (−∞))`
        // into a `NaN` sum, and the merge turned every rank's logprob for
        // that row into `NaN`. The shared exp-sum gives it `(−∞, 0)`.
        use vp_tensor::ops::{argmax_rows, softmax_rows};
        let (vocab, h, p) = (24, 6, 2);
        let mut w = normal(&mut seeded_rng(100), vocab, h, 0.7);
        let part = VocabPartition::new(vocab, p);
        let (start, end) = part.shard_range(1);
        for r in start..end {
            w.row_mut(r)[0] = f32::NEG_INFINITY;
        }
        let x = chunk_rows(5, h, 101);
        let logits = x.matmul_nt(&w).unwrap();
        let shard1 = OutputShard::from_full(&w, part, 1).unwrap();
        let state = shard1.s_pass_decode(&x, 3).unwrap();
        assert!(state.max.iter().all(|&m| m == f32::NEG_INFINITY));
        assert!(state.sum.iter().all(|&s| s.to_bits() == 0));
        let probs = softmax_rows(&logits);
        let choices = run_decode_sharded(p, &w, &x, 3);
        let tokens: Vec<usize> = choices.iter().map(|c| c.token).collect();
        assert_eq!(tokens, argmax_rows(&logits));
        for (r, c) in choices.iter().enumerate() {
            let want = probs.at(r, c.token).ln();
            assert!(c.logprob.is_finite(), "row {r}: logprob {}", c.logprob);
            assert!(
                (c.logprob - want).abs() < 1e-4,
                "row {r}: {} vs {want}",
                c.logprob
            );
        }
    }

    #[test]
    fn decode_rejects_zero_candidates() {
        let part = VocabPartition::new(8, 1);
        let mut rng = seeded_rng(93);
        let w = normal(&mut rng, 8, 4, 1.0);
        let shard = OutputShard::new(w, part, 0).unwrap();
        let x = normal(&mut rng, 2, 4, 1.0);
        assert!(shard.s_pass_decode(&x, 0).is_err());
    }
}
