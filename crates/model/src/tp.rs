//! Megatron-style tensor-parallel sharding of the transformer block.
//!
//! Implements the classic column/row split of Shoeybi et al. on the repo's
//! real-numerics [`TransformerBlock`]: the QKV projections and the MLP
//! up-projection are split column-wise (head-aligned for attention), the
//! attention output projection and MLP down-projection row-wise, so each
//! tensor rank computes a *partial* block output that a single all-reduce
//! per branch completes — the `f`/`g` conjugate pattern (two rendezvous in
//! forward, two in backward).
//!
//! A shard is an ordinary block: [`TransformerBlock::shard`] slices
//! the weights under a [`TpPartition`], and the shard runs the block's own
//! [`TransformerBlock::forward_tp`] and [`TransformerBlock::backward_tp`].
//! This crate stays collective-agnostic: those take a [`TpReduce`] that the
//! runtime binds to its tensor-group sum all-reduce. With `tp = 1` and an
//! identity reducer the shard is **bitwise identical** to the full block —
//! pinned by tests here and relied on by the `tp = 1` equivalence gates
//! downstream.
//!
//! Layer norms and the MLP output bias are replicated: their inputs (and
//! hence gradients) are identical on every tensor rank, so no gradient
//! synchronization is needed as long as every rank applies the same
//! deterministic update — the same argument Megatron-LM makes for its
//! duplicated layer-norm parameters.

#[cfg(doc)]
use crate::block::TransformerBlock;
use vp_tensor::{Result, Tensor};

/// A reducer completing partial TP results: the runtime binds this to its
/// tensor-group collective. Must leave the tensor's shape unchanged.
pub type TpReduce<'a> = dyn FnMut(&mut Tensor) -> Result<()> + 'a;

/// How one stage's layers are split across the tensor axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpPartition {
    tp: usize,
    rank: usize,
    pub(crate) heads: usize,
    pub(crate) hidden: usize,
    pub(crate) ffn: usize,
}

impl TpPartition {
    /// Creates the shard description for `rank` of `tp` tensor ranks.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= tp`, if the head count is not divisible by `tp`
    /// (shards must be head-aligned) or if the FFN width is not divisible
    /// by `tp`.
    pub fn new(tp: usize, rank: usize, heads: usize, hidden: usize, ffn: usize) -> Self {
        assert!(tp > 0, "tensor-parallel width must be positive");
        assert!(rank < tp, "tp rank {rank} out of range for width {tp}");
        assert!(
            heads.is_multiple_of(tp),
            "heads {heads} must be divisible by tp {tp} (head-aligned shards)"
        );
        assert!(
            ffn.is_multiple_of(tp),
            "ffn width {ffn} must be divisible by tp {tp}"
        );
        assert!(
            hidden.is_multiple_of(heads),
            "hidden {hidden} must be divisible by heads {heads}"
        );
        TpPartition {
            tp,
            rank,
            heads,
            hidden,
            ffn,
        }
    }

    /// Tensor-parallel width.
    pub fn tp(&self) -> usize {
        self.tp
    }

    /// This shard's tensor rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Attention heads on this shard.
    pub fn local_heads(&self) -> usize {
        self.heads / self.tp
    }

    /// Hidden columns `[start, end)` of this shard's attention slice.
    pub fn attn_cols(&self) -> (usize, usize) {
        let w = self.hidden / self.tp;
        (self.rank * w, (self.rank + 1) * w)
    }

    /// FFN columns `[start, end)` of this shard's MLP slice.
    pub fn ffn_cols(&self) -> (usize, usize) {
        let w = self.ffn / self.tp;
        (self.rank * w, (self.rank + 1) * w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::TransformerBlock;
    use std::sync::{Barrier, Mutex};
    use vp_tensor::init::{normal, seeded_rng};
    use vp_tensor::nn::KvCache;

    fn identity_reduce(_: &mut Tensor) -> Result<()> {
        Ok(())
    }

    fn full_block(hidden: usize, heads: usize, ffn_mult: usize) -> TransformerBlock {
        let mut rng = seeded_rng(71);
        TransformerBlock::new(&mut rng, hidden, heads, ffn_mult)
    }

    #[test]
    fn tp1_is_bitwise_identical_to_the_full_block() {
        let full = full_block(8, 2, 4);
        let part = TpPartition::new(1, 0, 2, 8, 32);
        let mut shard = full.shard(&part);
        let mut rng = seeded_rng(72);
        let x = normal(&mut rng, 5, 8, 0.8);
        let (y_full, cache_full) = full.forward(&x).unwrap();
        let (y_tp, cache_tp) = shard.forward_tp(&x, &mut identity_reduce).unwrap();
        for (a, b) in y_full.data().iter().zip(y_tp.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "forward diverged");
        }
        let dy = normal(&mut rng, 5, 8, 1.0);
        let mut full2 = full;
        let dx_full = full2.backward(&cache_full, &dy).unwrap();
        let dx_tp = shard
            .backward_tp(&cache_tp, &dy, &mut identity_reduce)
            .unwrap();
        for (a, b) in dx_full.data().iter().zip(dx_tp.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "backward diverged");
        }
        // Gradients of every parameter are bitwise identical too.
        let mut full_params = full2.params_mut();
        let mut tp_params = shard.params_mut();
        assert_eq!(full_params.len(), tp_params.len());
        for (i, (fp, tp)) in full_params.iter_mut().zip(tp_params.iter_mut()).enumerate() {
            assert_eq!(fp.grad().shape(), tp.grad().shape(), "param {i}");
            for (a, b) in fp.grad().data().iter().zip(tp.grad().data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "param {i} grad diverged");
            }
        }
    }

    /// Runs `full`'s `tp` shards as a `tp`-wide group, one thread per rank,
    /// through forward and backward. The reducer is an in-process sum
    /// all-reduce: every rank deposits its partial, then each reads the
    /// rank-ordered sum, as the runtime's all-reduce adds them.
    fn run_sharded_forward_backward(
        full: &TransformerBlock,
        (heads, ffn): (usize, usize),
        tp: usize,
        x: &Tensor,
        dy: &Tensor,
    ) -> (Tensor, Tensor, Vec<TransformerBlock>) {
        let h = full.hidden();
        let mut shards: Vec<TransformerBlock> = (0..tp)
            .map(|r| full.shard(&TpPartition::new(tp, r, heads, h, ffn)))
            .collect();
        let slots = Mutex::new(vec![Tensor::zeros(0, 0); tp]);
        let barrier = Barrier::new(tp);
        let all_reduce = |rank: usize, t: &mut Tensor| -> Result<()> {
            slots.lock().unwrap()[rank] = t.clone();
            barrier.wait();
            let parts = slots.lock().unwrap().clone();
            barrier.wait();
            *t = parts[0].clone();
            parts[1..].iter().try_for_each(|p| t.add_assign(p))
        };
        let mut outs: Vec<(Tensor, Tensor)> = std::thread::scope(|scope| {
            let ranks: Vec<_> = shards
                .iter_mut()
                .enumerate()
                .map(|(rank, shard)| {
                    let all_reduce = &all_reduce;
                    scope.spawn(move || {
                        let mut reduce = |t: &mut Tensor| all_reduce(rank, t);
                        let (y, cache) = shard.forward_tp(x, &mut reduce).unwrap();
                        (y, shard.backward_tp(&cache, dy, &mut reduce).unwrap())
                    })
                })
                .collect();
            ranks.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let (y, dx) = outs.swap_remove(0);
        (y, dx, shards)
    }

    #[test]
    fn tp_sharded_block_matches_full_numerics() {
        let full = full_block(8, 4, 4);
        let mut rng = seeded_rng(73);
        let x = normal(&mut rng, 6, 8, 0.6);
        let dy = normal(&mut rng, 6, 8, 1.0);
        let (y_full, cache) = full.forward(&x).unwrap();
        let mut full2 = full.clone();
        let dx_full = full2.backward(&cache, &dy).unwrap();
        for tp in [2usize, 4] {
            let (y, dx, _) = run_sharded_forward_backward(&full, (4, 32), tp, &x, &dy);
            for (a, b) in y_full.data().iter().zip(y.data()) {
                assert!((a - b).abs() < 1e-4, "tp {tp} forward: {a} vs {b}");
            }
            for (a, b) in dx_full.data().iter().zip(dx.data()) {
                assert!((a - b).abs() < 1e-4, "tp {tp} backward: {a} vs {b}");
            }
        }
    }

    #[test]
    fn tp_weight_gradients_reassemble_to_full() {
        let full = full_block(8, 2, 2);
        let mut rng = seeded_rng(74);
        let x = normal(&mut rng, 4, 8, 0.7);
        let dy = normal(&mut rng, 4, 8, 1.0);
        let (_, cache) = full.forward(&x).unwrap();
        let mut full2 = full.clone();
        full2.backward(&cache, &dy).unwrap();
        let (_, _, mut shards) = run_sharded_forward_backward(&full, (2, 16), 2, &x, &dy);
        // fc1 weight grad: column-concatenation of the shard grads.
        let full_fc1_grad = full2.params_mut()[8].grad().clone();
        let s0 = shards[0].params_mut()[8].grad().clone();
        let s1 = shards[1].params_mut()[8].grad().clone();
        for r in 0..full_fc1_grad.rows() {
            for c in 0..full_fc1_grad.cols() {
                let shard_val = if c < s0.cols() {
                    s0.at(r, c)
                } else {
                    s1.at(r, c - s0.cols())
                };
                let diff = (full_fc1_grad.at(r, c) - shard_val).abs();
                assert!(diff < 1e-4, "fc1 grad ({r},{c}) diff {diff}");
            }
        }
        // Replicated fc2 bias grad: identical on both shards, equal to the
        // full block's.
        let full_bias_grad = full2.params_mut()[11].grad().clone();
        for shard in &mut shards {
            let g = shard.params_mut()[11].grad().clone();
            for (a, b) in full_bias_grad.data().iter().zip(g.data()) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn params_mut_order_mirrors_the_full_block() {
        let full = full_block(8, 2, 4);
        let part = TpPartition::new(2, 1, 2, 8, 32);
        let mut shard = full.shard(&part);
        // 12 tensors, same count as the full block.
        assert_eq!(shard.params_mut().len(), 12);
        // Shard shapes: attention columns halve, wo rows halve, fc1/fc2
        // shard the ffn axis, norms and fc2 bias stay full.
        let shapes: Vec<(usize, usize)> = shard
            .params_mut()
            .iter()
            .map(|p| p.value().shape())
            .collect();
        assert_eq!(shapes[2], (8, 4)); // wq
        assert_eq!(shapes[5], (4, 8)); // wo
        assert_eq!(shapes[8], (8, 16)); // fc1 w
        assert_eq!(shapes[9], (1, 16)); // fc1 b
        assert_eq!(shapes[10], (16, 8)); // fc2 w
        assert_eq!(shapes[11], (1, 8)); // fc2 bias (replicated)
                                        // Decode completes no partial sums, so a shard refuses it.
        let x = Tensor::zeros(1, 8);
        assert!(shard.forward_decode(&x, &mut KvCache::new(8)).is_err());
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn partition_rejects_unaligned_heads() {
        let _ = TpPartition::new(3, 0, 2, 8, 32);
    }

    #[test]
    fn partition_ranges_tile_the_axes() {
        let mut attn_cov = 0;
        let mut ffn_cov = 0;
        for r in 0..4 {
            let p = TpPartition::new(4, r, 8, 32, 128);
            let (a0, a1) = p.attn_cols();
            let (f0, f1) = p.ffn_cols();
            assert_eq!(a0, attn_cov);
            assert_eq!(f0, ffn_cov);
            attn_cov = a1;
            ffn_cov = f1;
            assert_eq!(p.local_heads(), 2);
        }
        assert_eq!(attn_cov, 32);
        assert_eq!(ffn_cov, 128);
    }
}
