//! One pipeline chunk's transformer blocks in the single representation
//! the interpreter executes: [`StageBlocks::Full`] on flat pipelines
//! (`tp = 1`, the unsharded [`TransformerBlock`], so the degenerate grid is
//! bitwise the flat pipeline) or [`StageBlocks::Sharded`] over a grid row,
//! whose members rendezvous in the Megatron `f`/`g` conjugate collectives
//! of their [`TpRow`]. Forward, backward, the zero-bubble shadow backward
//! and the deferred weight-gradient fold each exist once, here.

use crate::reference::{backward_blocks, forward_blocks};
use std::sync::Arc;
use vp_collectives::{Collective, ReduceOp};
use vp_model::block::{BlockCache, TransformerBlock};
use vp_model::tp::{TpBlockCache, TpPartition, TpTransformerBlock};
use vp_tensor::optim::Param;
use vp_tensor::{Result, Tensor, TensorError};

/// A device's handle on its grid row communicator.
#[derive(Clone)]
pub(crate) struct TpRow {
    pub(crate) comm: Arc<Collective>,
}

impl TpRow {
    /// Completes a partial block output across the row with a sum
    /// all-reduce (Megatron's `g` collective), which adds the ranks'
    /// contributions in rank order.
    fn reduce(&self, t: &mut Tensor) -> Result<()> {
        self.comm
            .all_reduce(t.data_mut(), ReduceOp::Sum)
            .map_err(|e| TensorError::InvalidArgument(format!("tp all-reduce failed: {e}")))
    }
}

/// The transformer blocks of one `(device, chunk)`.
#[derive(Clone)]
pub(crate) enum StageBlocks {
    Full(Vec<TransformerBlock>),
    Sharded(Vec<TpTransformerBlock>, TpRow),
}

/// The activations [`StageBlocks::forward`] parks for the matching
/// backward.
pub(crate) enum StageCache {
    Full(Vec<BlockCache>),
    Sharded(Vec<TpBlockCache>),
}

impl StageBlocks {
    /// Slices `blocks` for one device: unsharded without a row, else this
    /// rank's head-aligned column/row shards. The sharded set *replaces*
    /// the full set, so a device holds `1/tp` of the matmul weights (plus
    /// the replicated LayerNorms and biases), exactly as the simulator's
    /// grid memory model counts.
    pub(crate) fn new(blocks: &[TransformerBlock], row: Option<(TpRow, TpPartition)>) -> Self {
        match row {
            None => StageBlocks::Full(blocks.to_vec()),
            Some((row, part)) => StageBlocks::Sharded(
                blocks
                    .iter()
                    .map(|b| TpTransformerBlock::from_full(b, &part))
                    .collect(),
                row,
            ),
        }
    }

    pub(crate) fn forward(&self, x: &Tensor) -> Result<(Tensor, StageCache)> {
        match self {
            StageBlocks::Full(blocks) => {
                let (h, caches) = forward_blocks(blocks, x)?;
                Ok((h, StageCache::Full(caches)))
            }
            StageBlocks::Sharded(blocks, row) => {
                let mut h = x.clone();
                let mut caches = Vec::with_capacity(blocks.len());
                for block in blocks {
                    let (next, cache) = block.forward(&h, &mut |t| row.reduce(t))?;
                    h = next;
                    caches.push(cache);
                }
                Ok((h, StageCache::Sharded(caches)))
            }
        }
    }

    /// Backward in reverse block order, accumulating parameter gradients.
    pub(crate) fn backward(&mut self, cache: &StageCache, dy: &Tensor) -> Result<Tensor> {
        match (self, cache) {
            (StageBlocks::Full(blocks), StageCache::Full(caches)) => {
                backward_blocks(blocks, caches, dy)
            }
            (StageBlocks::Sharded(blocks, row), StageCache::Sharded(caches)) => {
                let mut grad = dy.clone();
                for (block, cache) in blocks.iter_mut().rev().zip(caches.iter().rev()) {
                    grad = block.backward(cache, &grad, &mut |t| row.reduce(t))?;
                }
                Ok(grad)
            }
            _ => Err(TensorError::InvalidArgument(
                "activation cache does not match the stage's block representation".into(),
            )),
        }
    }

    /// Zero-bubble `B`: computes `∇X` into fresh zero gradients and returns
    /// them (in [`Self::params_mut`] order) for the deferred `W` pass. The
    /// parameters' own gradients are parked meanwhile and put back as they
    /// were, so nothing is cloned: not the weights, nor their packs. A
    /// sharded chunk still enters the row's collectives — every row peer
    /// runs the same pass list, so the rendezvous stays aligned; only the
    /// weight-gradient fold is deferred.
    pub(crate) fn backward_shadow(
        &mut self,
        cache: &StageCache,
        dy: &Tensor,
    ) -> Result<(Tensor, Vec<Tensor>)> {
        let parked: Vec<Tensor> = self
            .params_mut()
            .into_iter()
            .map(|p| {
                let (rows, cols) = p.value().shape();
                std::mem::replace(p.grad_mut(), Tensor::zeros(rows, cols))
            })
            .collect();
        let dx = self.backward(cache, dy);
        let grads = self
            .params_mut()
            .into_iter()
            .zip(parked)
            .map(|(p, real)| std::mem::replace(p.grad_mut(), real))
            .collect();
        Ok((dx?, grads))
    }

    /// Zero-bubble `W`: folds the gradients [`Self::backward_shadow`]
    /// stashed into the real parameters, in the same parameter order.
    pub(crate) fn accumulate_stash(&mut self, grads: &[Tensor]) -> Result<()> {
        let params = self.params_mut();
        debug_assert_eq!(params.len(), grads.len(), "stash matches the chunk");
        for (p, g) in params.into_iter().zip(grads) {
            p.accumulate(g)?;
        }
        Ok(())
    }

    /// The chunk's trainable parameters, block by block.
    pub(crate) fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            StageBlocks::Full(blocks) => blocks.iter_mut().flat_map(|b| b.params_mut()).collect(),
            StageBlocks::Sharded(blocks, _) => {
                blocks.iter_mut().flat_map(|b| b.params_mut()).collect()
            }
        }
    }
}
