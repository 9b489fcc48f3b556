//! Tied input/output embeddings under Vocabulary Parallelism (§6.1).
//!
//! The paper notes that partitioning both vocabulary layers across all
//! devices makes weight tying *easier* than in naive pipelines: the input
//! and output shards now live on the same device, so they can share one
//! weight tensor and accumulate both gradients locally — no extra
//! all-reduce to synchronize tied weights across the first and last stage.
//! [`TiedShard`] realizes exactly that: one parameter, used as the
//! embedding table by the input-layer passes and as the unembedding matrix
//! by the output-layer `S`/`T` passes.

use crate::input::check_ids;
use crate::output::{OutputShard, SState};
use vp_collectives::{Collective, ReduceOp};
use vp_model::cost::VocabAlgo;
use vp_model::partition::VocabPartition;
use vp_tensor::ops::scatter_add_rows;
use vp_tensor::optim::Param;
use vp_tensor::{Result, Tensor, TensorError};

/// One device's shard of a *tied* vocabulary weight: the same `[V/p, h]`
/// tensor serves the input embedding and the output unembedding; both
/// backward passes accumulate into its single gradient.
#[derive(Debug, Clone)]
pub struct TiedShard {
    // The output shard owns the parameter; input-layer ops reuse it.
    output: OutputShard,
}

impl TiedShard {
    /// Slices this rank's shard out of the full `[V, h]` tied weight.
    ///
    /// # Errors
    ///
    /// Propagates slicing errors if `full` has fewer than `V` rows.
    pub fn from_full(full: &Tensor, partition: VocabPartition, rank: usize) -> Result<Self> {
        Ok(TiedShard {
            output: OutputShard::from_full(full, partition, rank)?,
        })
    }

    /// The shared weight parameter.
    pub fn weight(&self) -> &Param {
        self.output.weight()
    }

    /// Mutable access to the shared weight (optimizer step).
    pub fn weight_mut(&mut self) -> &mut Param {
        self.output.weight_mut()
    }

    /// The vocabulary partition.
    pub fn partition(&self) -> VocabPartition {
        self.output.partition()
    }

    fn shard_range(&self) -> (usize, usize) {
        let (start, _) = self.partition().shard_range(self.output.rank());
        (start, start + self.weight().value().rows())
    }

    // ---- Input-layer side (Appendix C semantics on the shared weight) ----

    /// Local embedding gather: rows for ids owned by this shard, zeros
    /// elsewhere; all-reduce to assemble (see [`Self::input_forward`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] for an out-of-vocabulary id.
    pub fn input_forward_local(&self, ids: &[usize]) -> Result<Tensor> {
        check_ids(ids, self.partition().vocab(), "tied_input_forward")?;
        let (start, end) = self.shard_range();
        let h = self.weight().value().cols();
        let mut out = Tensor::zeros(ids.len(), h);
        for (row, &id) in ids.iter().enumerate() {
            if id >= start && id < end {
                out.row_mut(row)
                    .copy_from_slice(self.weight().value().row(id - start));
            }
        }
        Ok(out)
    }

    /// Full input forward: local gather + all-reduce.
    ///
    /// # Errors
    ///
    /// Propagates gather and collective errors.
    pub fn input_forward(&self, comm: &Collective, ids: &[usize]) -> Result<Tensor> {
        let mut out = self.input_forward_local(ids)?;
        comm.all_reduce(out.data_mut(), ReduceOp::Sum)
            .map_err(|e| TensorError::InvalidArgument(format!("collective failed: {e}")))?;
        Ok(out)
    }

    /// Input backward: scatter-adds `dy` rows for owned ids into the
    /// *shared* gradient, touching only the rows they name
    /// ([`scatter_add_rows`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] for an out-of-vocabulary id, as
    /// the forward does, or a shape error if `dy` does not have one row per
    /// id; a rejected call leaves the gradient unchanged.
    pub fn input_backward(&mut self, ids: &[usize], dy: &Tensor) -> Result<()> {
        check_ids(ids, self.partition().vocab(), "tied_input_backward")?;
        let (start, _) = self.shard_range();
        // Gradient only: going through `weight_mut` would drop the output
        // side's packed weight on every input backward.
        scatter_add_rows(self.output.grad_mut(), start, ids, dy)
    }

    // ---- Output-layer side (delegates to the shared OutputShard) --------

    /// The output-layer `S` pass on the shared weight (see
    /// [`OutputShard::s_pass`]).
    ///
    /// # Errors
    ///
    /// As in [`OutputShard::s_pass`].
    pub fn s_pass(&self, algo: VocabAlgo, x: &Tensor, labels: &[usize]) -> Result<SState> {
        self.output.s_pass(algo, x, labels)
    }

    /// Algorithm 1's `T` pass (see [`OutputShard::t_pass_alg1`]); the
    /// weight gradient lands in the shared parameter.
    ///
    /// # Errors
    ///
    /// As in [`OutputShard::t_pass_alg1`].
    pub fn t_pass_alg1(&mut self, state: &SState, x: &Tensor) -> Result<Tensor> {
        self.output.t_pass_alg1(state, x)
    }

    /// Algorithm 2's deferred `T` pass (see [`OutputShard::t_pass_alg2`]).
    ///
    /// # Errors
    ///
    /// As in [`OutputShard::t_pass_alg2`].
    pub fn t_pass_alg2(&mut self, state: &SState, x: &Tensor) -> Result<()> {
        self.output.t_pass_alg2(state, x)
    }

    /// Fused forward+backward of the output side (testing convenience).
    ///
    /// # Errors
    ///
    /// As in [`OutputShard::forward_backward`].
    pub fn output_forward_backward(
        &mut self,
        algo: VocabAlgo,
        comm: &Collective,
        x: &Tensor,
        labels: &[usize],
    ) -> Result<(f64, Tensor)> {
        self.output.forward_backward(algo, comm, x, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::tests::{bits, dense_scatter, poisoned_dy, repeated_ids};
    use crate::output::tests::t_matches_staged;
    use vp_collectives::CollectiveGroup;
    use vp_tensor::init::{normal, seeded_rng};
    use vp_tensor::nn::{softmax_cross_entropy, Embedding};

    /// Reference tied gradients: embedding scatter-grad + output ∇W on the
    /// same full weight.
    fn reference_tied_grad(
        full_w: &Tensor,
        ids: &[usize],
        x_out: &Tensor,
        labels: &[usize],
        d_emb: &Tensor,
    ) -> Tensor {
        // Input side.
        let mut emb = Embedding::from_weight(full_w.clone());
        let (_, cache) = emb.forward(ids).unwrap();
        emb.backward(&cache, d_emb).unwrap();
        let mut grad = emb.params_mut()[0].grad().clone();
        // Output side.
        let logits = x_out.matmul_nt(full_w).unwrap();
        let (_, g) = softmax_cross_entropy(&logits, labels).unwrap();
        let dw_out = g.dlogits.matmul_tn(x_out).unwrap();
        grad.add_assign(&dw_out).unwrap();
        grad
    }

    #[test]
    fn tied_shard_accumulates_both_gradients() {
        let (vocab, h, p, n) = (24usize, 6usize, 3usize, 5usize);
        let mut rng = seeded_rng(17);
        let full_w = normal(&mut rng, vocab, h, 0.5);
        let ids: Vec<usize> = (0..n).map(|i| (i * 7) % vocab).collect();
        let labels: Vec<usize> = (0..n).map(|i| (i * 5 + 1) % vocab).collect();
        let x_out = normal(&mut rng, n, h, 1.0);
        let d_emb = normal(&mut rng, n, h, 1.0);
        let expected = reference_tied_grad(&full_w, &ids, &x_out, &labels, &d_emb);

        let part = VocabPartition::new(vocab, p);
        let comms = CollectiveGroup::new(p);
        let grads: Vec<(usize, Tensor)> = std::thread::scope(|scope| {
            comms
                .into_iter()
                .map(|comm| {
                    let (full_w, ids, labels, x_out, d_emb) =
                        (&full_w, &ids, &labels, &x_out, &d_emb);
                    scope.spawn(move || {
                        let rank = comm.rank();
                        let mut shard = TiedShard::from_full(full_w, part, rank).unwrap();
                        // Input forward + output fwd/bwd + input backward.
                        let _embedded = shard.input_forward(&comm, ids).unwrap();
                        let (_, _dx) = shard
                            .output_forward_backward(VocabAlgo::Alg2, &comm, x_out, labels)
                            .unwrap();
                        shard.input_backward(ids, d_emb).unwrap();
                        (rank, shard.weight().grad().clone())
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|j| j.join().unwrap())
                .collect()
        });
        for (rank, grad) in grads {
            let (start, _) = part.shard_range(rank);
            let end = (start + grad.rows()).min(vocab);
            let exp = expected.slice_rows(start.min(end), end).unwrap();
            assert!(grad.max_abs_diff(&exp).unwrap() < 1e-4, "rank {rank}");
        }
    }

    #[test]
    fn tied_forward_matches_untied_embedding() {
        let mut rng = seeded_rng(18);
        let full_w = normal(&mut rng, 16, 4, 1.0);
        let ids = vec![0, 15, 7, 7];
        let part = VocabPartition::new(16, 2);
        let reference = Embedding::from_weight(full_w.clone())
            .forward(&ids)
            .unwrap()
            .0;
        let comms = CollectiveGroup::new(2);
        let outs: Vec<Tensor> = std::thread::scope(|scope| {
            comms
                .into_iter()
                .map(|comm| {
                    let (full_w, ids) = (&full_w, &ids);
                    scope.spawn(move || {
                        let shard = TiedShard::from_full(full_w, part, comm.rank()).unwrap();
                        shard.input_forward(&comm, ids).unwrap()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|j| j.join().unwrap())
                .collect()
        });
        for o in outs {
            assert!(o.max_abs_diff(&reference).unwrap() < 1e-6);
        }
    }

    #[test]
    fn input_backward_keeps_the_packed_weight() {
        let (vocab, h) = (20, 4);
        let full = normal(&mut seeded_rng(19), vocab, h, 1.0);
        let mut shard = TiedShard::from_full(&full, VocabPartition::new(vocab, 1), 0).unwrap();
        let x = normal(&mut seeded_rng(20), 3, h, 1.0);
        shard.s_pass(VocabAlgo::Alg2, &x, &[1, 7, 19]).unwrap();
        let addr = shard.output.pack_addr().expect("the S pass packed");
        let ids = [3, 7, 3];
        shard.input_backward(&ids, &Tensor::ones(3, h)).unwrap();
        assert_eq!(
            shard.output.pack_addr(),
            Some(addr),
            "InputB dropped the pack"
        );
        assert_eq!(
            shard.weight().grad().row(3),
            &[2.0; 4],
            "but did accumulate"
        );
        shard.weight_mut();
        assert_eq!(shard.output.pack_addr(), None);
    }

    #[test]
    fn tied_t_pass_is_bitwise_the_staged_oracle() {
        // The gradient the fused T adds into already holds the input
        // backward's scatter, on a shard that owns some labels.
        let (vocab, h, p) = (30, 5, 3);
        let full = normal(&mut seeded_rng(21), vocab, h, 0.7);
        for algo in [VocabAlgo::Alg1, VocabAlgo::Alg2] {
            let mut shard = TiedShard::from_full(&full, VocabPartition::new(vocab, p), 1).unwrap();
            let mut oracle = shard.clone();
            for mb in 0..2 {
                let ids = [12, 3, 15 + mb, 12];
                let dy = normal(&mut seeded_rng(22 + mb as u64), ids.len(), h, 1.0);
                shard.input_backward(&ids, &dy).unwrap();
                oracle.input_backward(&ids, &dy).unwrap();
                let x = normal(&mut seeded_rng(24 + mb as u64), 7, h, 1.0);
                let labels: Vec<usize> = (0..7).map(|i| (i * 4 + mb) % vocab).collect();
                let mut state = shard.s_pass(algo, &x, &labels).unwrap();
                state.barrier_local();
                let what = format!("{algo:?} mb={mb}");
                t_matches_staged(
                    algo,
                    &mut shard.output,
                    &mut oracle.output,
                    &state,
                    &x,
                    &what,
                );
            }
        }
    }

    #[test]
    fn out_of_vocab_rejected() {
        let part = VocabPartition::new(8, 2);
        let mut shard = TiedShard::from_full(&Tensor::zeros(8, 3), part, 0).unwrap();
        assert!(shard.input_forward_local(&[8]).is_err());
        // The backward too, before touching the gradient (the owned ids
        // come first).
        shard.input_backward(&[2], &Tensor::ones(1, 3)).unwrap();
        let before = bits(shard.weight().grad());
        let err = shard.input_backward(&[1, 3, 8], &Tensor::ones(3, 3));
        assert!(
            matches!(err, Err(TensorError::OutOfBounds { index: 8, .. })),
            "{err:?}"
        );
        assert_eq!(bits(shard.weight().grad()), before);
    }

    #[test]
    fn input_backward_is_bitwise_the_dense_scatter() {
        // Into a gradient that already holds the output side's T pass and
        // earlier microbatches; vocab 5 over 8 leaves rank 7 with no row.
        for (vocab, p, rank) in [(5, 8, 7), (5, 8, 1), (30, 3, 1), (4096, 2, 1)] {
            let full = normal(&mut seeded_rng(25), vocab, 5, 0.7);
            let mut shard =
                TiedShard::from_full(&full, VocabPartition::new(vocab, p), rank).unwrap();
            let x = normal(&mut seeded_rng(26), 3, 5, 1.0);
            let mut state = shard
                .s_pass(VocabAlgo::Alg2, &x, &[0, vocab - 1, vocab / 2])
                .unwrap();
            state.barrier_local();
            shard.t_pass_alg2(&state, &x).unwrap();
            let mut oracle = shard.weight().grad().clone();
            let ids = repeated_ids(vocab);
            let (start, _) = shard.shard_range();
            for mb in 0..3 {
                let dy = poisoned_dy(ids.len(), 5, 27 + mb);
                shard.input_backward(&ids, &dy).unwrap();
                dense_scatter(&mut oracle, start, &ids, &dy);
                let what = format!("vocab={vocab} p={p} rank={rank} mb={mb}");
                assert_eq!(bits(shard.weight().grad()), bits(&oracle), "{what}");
            }
        }
    }
}
