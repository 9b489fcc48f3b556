//! The partitioned input (embedding) layer (Appendix C).
//!
//! Each device holds a `V/p` slice of the embedding table. The forward
//! pass gathers rows for the token ids it owns (zeros elsewhere) and an
//! all-reduce assembles the full `[N, h]` embedding; the backward pass is a
//! purely local scatter-add of the incoming gradient into the owned rows.
//! Both communications overlap with transformer compute in the schedules.

use vp_collectives::{Collective, ReduceOp};
use vp_model::partition::VocabPartition;
use vp_tensor::ops::scatter_add_rows;
use vp_tensor::optim::Param;
use vp_tensor::{Result, Tensor, TensorError};

/// Rejects the first out-of-vocabulary id, before anything is touched.
pub(crate) fn check_ids(ids: &[usize], vocab: usize, op: &'static str) -> Result<()> {
    match ids.iter().find(|&&id| id >= vocab) {
        Some(&index) => Err(TensorError::OutOfBounds {
            op,
            index,
            bound: vocab,
        }),
        None => Ok(()),
    }
}

/// One device's shard of the input embedding table.
#[derive(Debug, Clone)]
pub struct InputShard {
    weight: Param,
    partition: VocabPartition,
    rank: usize,
}

impl InputShard {
    /// Creates a shard from this rank's slice of the full `[V, h]` table.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the slice's row count
    /// does not equal the partition's real width for `rank`.
    pub fn new(weight: Tensor, partition: VocabPartition, rank: usize) -> Result<Self> {
        if weight.rows() != partition.real_width(rank) {
            return Err(TensorError::InvalidArgument(format!(
                "input shard has {} rows, partition expects {}",
                weight.rows(),
                partition.real_width(rank)
            )));
        }
        Ok(InputShard {
            weight: Param::new(weight),
            partition,
            rank,
        })
    }

    /// Slices this rank's shard out of the full `[V, h]` table.
    ///
    /// # Errors
    ///
    /// Propagates slicing errors if `full` has fewer than `V` rows.
    pub fn from_full(full: &Tensor, partition: VocabPartition, rank: usize) -> Result<Self> {
        let rows = partition.real_range(rank);
        InputShard::new(full.slice_rows(rows.start, rows.end)?, partition, rank)
    }

    /// The shard's weight parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Mutable access to the weight parameter (optimizer step).
    pub fn weight_mut(&mut self) -> &mut Param {
        &mut self.weight
    }

    /// Hidden width of the embedding.
    pub fn hidden(&self) -> usize {
        self.weight.value().cols()
    }

    /// Local (pre-all-reduce) forward: a `[N, h]` tensor with this shard's
    /// rows filled and zeros elsewhere. The paper notes this full-size
    /// output construction is why the input layer scales poorly (Table 3).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] for an out-of-vocabulary id.
    pub fn forward_local(&self, ids: &[usize]) -> Result<Tensor> {
        check_ids(ids, self.partition.vocab(), "input_forward")?;
        let (start, _) = self.partition.shard_range(self.rank);
        let width = self.weight.value().rows();
        let mut out = Tensor::zeros(ids.len(), self.hidden());
        for (row, &id) in ids.iter().enumerate() {
            if id >= start && id < start + width {
                out.row_mut(row)
                    .copy_from_slice(self.weight.value().row(id - start));
            }
        }
        Ok(out)
    }

    /// Full forward: local gather followed by the all-reduce that
    /// assembles the complete embedding on every device.
    ///
    /// # Errors
    ///
    /// Propagates gather and collective errors.
    pub fn forward(&self, comm: &Collective, ids: &[usize]) -> Result<Tensor> {
        let mut out = self.forward_local(ids)?;
        comm.all_reduce(out.data_mut(), ReduceOp::Sum)
            .map_err(|e| TensorError::InvalidArgument(format!("collective failed: {e}")))?;
        Ok(out)
    }

    /// Backward: scatter-adds `dy` rows belonging to this shard into the
    /// weight gradient, touching only the rows they name
    /// ([`scatter_add_rows`]). Purely local — the gradient broadcast to all
    /// devices happens upstream in the schedule.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] for an out-of-vocabulary id, as
    /// the forward does, or a shape error if `dy` does not have one row per
    /// id; a rejected call leaves the gradient unchanged.
    pub fn backward(&mut self, ids: &[usize], dy: &Tensor) -> Result<()> {
        check_ids(ids, self.partition.vocab(), "input_backward")?;
        let (start, _) = self.partition.shard_range(self.rank);
        scatter_add_rows(self.weight.grad_mut(), start, ids, dy)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use vp_collectives::CollectiveGroup;
    use vp_tensor::init::{normal, seeded_rng};
    use vp_tensor::nn::Embedding;

    /// The dense scatter the sparse one replaced, kept as its oracle: a
    /// zeroed `dW` of the gradient's shape, every owned `dy` row added into
    /// it in position order, then all of `dW` added into `grad`.
    pub(crate) fn dense_scatter(grad: &mut Tensor, start: usize, ids: &[usize], dy: &Tensor) {
        let width = grad.rows();
        let mut dw = Tensor::zeros(width, grad.cols());
        for (row, &id) in ids.iter().enumerate() {
            if id >= start && id < start + width {
                for (o, &g) in dw.row_mut(id - start).iter_mut().zip(dy.row(row)) {
                    *o += g;
                }
            }
        }
        grad.add_assign(&dw).unwrap();
    }

    /// `dy` rows for the scatter oracles: random, with a `NaN`, both
    /// infinities and a `−0.0` on rows that share an id.
    pub(crate) fn poisoned_dy(rows: usize, h: usize, seed: u64) -> Tensor {
        let mut dy = normal(&mut seeded_rng(seed), rows, h, 1.0);
        dy.row_mut(0)[0] = f32::NAN;
        dy.row_mut(1)[1] = f32::INFINITY;
        dy.row_mut(2)[1] = f32::NEG_INFINITY;
        dy.row_mut(3)[2] = -0.0;
        dy
    }

    /// Token ids over `vocab` with an id repeated four times, another
    /// three times, and ids across every shard.
    pub(crate) fn repeated_ids(vocab: usize) -> Vec<usize> {
        let (a, b) = (vocab / 2, vocab - 1);
        vec![a, b, a, 0, a, b, 1 % vocab, b, a, vocab / 3]
    }

    pub(crate) fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn backward_is_bitwise_the_dense_scatter() {
        // vocab 5 over 8 leaves ranks 3..8 with no row at all; every shard
        // of 4096/2 sees ids that another shard owns.
        for (vocab, p) in [(5, 8), (10, 3), (4096, 2)] {
            let part = VocabPartition::new(vocab, p);
            let full = normal(&mut seeded_rng(31), vocab, 4, 1.0);
            let ids = repeated_ids(vocab);
            for rank in 0..p {
                let mut shard = InputShard::from_full(&full, part, rank).unwrap();
                let mut oracle = shard.weight().grad().clone();
                let (start, _) = part.shard_range(rank);
                // Three microbatches into one gradient: the first finds it
                // zero, the others hold the earlier sums.
                for mb in 0..3 {
                    let dy = poisoned_dy(ids.len(), 4, 32 + mb);
                    shard.backward(&ids, &dy).unwrap();
                    dense_scatter(&mut oracle, start, &ids, &dy);
                    let what = format!("vocab={vocab} p={p} rank={rank} mb={mb}");
                    assert_eq!(bits(shard.weight().grad()), bits(&oracle), "{what}");
                }
            }
        }
    }

    #[test]
    fn out_of_vocab_backward_leaves_the_gradient_unchanged() {
        let part = VocabPartition::new(8, 2);
        let mut shard = InputShard::new(Tensor::zeros(4, 3), part, 0).unwrap();
        shard
            .backward(&[1, 2], &poisoned_dy(4, 3, 33).slice_rows(0, 2).unwrap())
            .unwrap();
        let before = bits(shard.weight().grad());
        // The owned ids come first: a check made while scattering would
        // already have added them.
        let err = shard.backward(&[1, 3, 8], &Tensor::ones(3, 3));
        assert!(
            matches!(err, Err(TensorError::OutOfBounds { index: 8, .. })),
            "{err:?}"
        );
        assert_eq!(bits(shard.weight().grad()), before);
    }

    #[test]
    fn sharded_forward_matches_reference() {
        let (vocab, h, p) = (20, 6, 4);
        let mut rng = seeded_rng(42);
        let full = normal(&mut rng, vocab, h, 1.0);
        let ids = vec![0, 5, 19, 5, 7];
        let reference = Embedding::from_weight(full.clone())
            .forward(&ids)
            .unwrap()
            .0;
        let part = VocabPartition::new(vocab, p);
        let comms = CollectiveGroup::new(p);
        let outputs: Vec<Tensor> = std::thread::scope(|scope| {
            comms
                .into_iter()
                .map(|comm| {
                    let full = &full;
                    let ids = &ids;
                    scope.spawn(move || {
                        let shard = InputShard::from_full(full, part, comm.rank()).unwrap();
                        shard.forward(&comm, ids).unwrap()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|j| j.join().unwrap())
                .collect()
        });
        for out in outputs {
            assert!(out.max_abs_diff(&reference).unwrap() < 1e-6);
        }
    }

    #[test]
    fn sharded_backward_matches_reference() {
        let (vocab, h, p) = (10, 4, 3);
        let mut rng = seeded_rng(7);
        let full = normal(&mut rng, vocab, h, 1.0);
        let ids = vec![1, 9, 1, 4];
        let dy = normal(&mut rng, 4, h, 1.0);
        let mut reference = Embedding::from_weight(full.clone());
        let (_, cache) = reference.forward(&ids).unwrap();
        reference.backward(&cache, &dy).unwrap();
        let ref_grad = reference.params_mut()[0].grad().clone();
        let part = VocabPartition::new(vocab, p);
        for rank in 0..p {
            let mut shard = InputShard::from_full(&full, part, rank).unwrap();
            shard.backward(&ids, &dy).unwrap();
            let (start, _) = part.shard_range(rank);
            let rows = shard.weight().grad().rows();
            let end = (start + rows).min(vocab);
            let expected = ref_grad.slice_rows(start.min(end), end).unwrap();
            assert!(shard.weight().grad().max_abs_diff(&expected).unwrap() < 1e-6);
        }
    }

    #[test]
    fn out_of_vocab_id_is_rejected() {
        let part = VocabPartition::new(8, 2);
        let shard = InputShard::new(Tensor::zeros(4, 3), part, 0).unwrap();
        assert!(shard.forward_local(&[8]).is_err());
        assert!(shard.forward_local(&[7]).is_ok());
    }

    #[test]
    fn backward_validates_shape() {
        let part = VocabPartition::new(8, 2);
        let mut shard = InputShard::new(Tensor::zeros(4, 3), part, 0).unwrap();
        assert!(shard.backward(&[1, 2], &Tensor::zeros(3, 3)).is_err());
    }
}
