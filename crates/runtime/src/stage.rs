//! One pipeline chunk's transformer blocks, as the interpreter executes
//! them: unsharded on flat pipelines (`tp = 1`, so the degenerate grid is
//! bitwise the flat pipeline), or this rank's [`TransformerBlock::shard`]s
//! over a grid row, whose members rendezvous in the Megatron `f`/`g`
//! conjugate collectives of their [`TpRow`]. Either way it is one block
//! type run by one block loop ([`forward_blocks`], [`backward_blocks`],
//! shared with the reference trainer and serving); the zero-bubble shadow
//! backward and the deferred weight-gradient fold exist once, here.

use std::sync::Arc;
use vp_collectives::{Collective, ReduceOp};
use vp_model::block::{BlockCache, TransformerBlock};
use vp_model::tp::TpPartition;
use vp_tensor::optim::Param;
use vp_tensor::{Result, Tensor, TensorError};

/// A device's handle on its grid row communicator.
#[derive(Clone)]
pub(crate) struct TpRow {
    pub(crate) comm: Arc<Collective>,
}

/// Completes a partial block output across `row` with a sum all-reduce
/// (Megatron's `g` collective), which adds the ranks' contributions in rank
/// order. Without a row (`tp = 1`) the output is already whole.
fn reduce(row: Option<&TpRow>, t: &mut Tensor) -> Result<()> {
    row.map_or(Ok(()), |row| {
        row.comm
            .all_reduce(t.data_mut(), ReduceOp::Sum)
            .map_err(|e| TensorError::InvalidArgument(format!("tp all-reduce failed: {e}")))
    })
}

/// Forward through a slice of transformer blocks (or of one row rank's
/// shards of them), collecting caches.
pub(crate) fn forward_blocks(
    blocks: &[TransformerBlock],
    x: &Tensor,
    row: Option<&TpRow>,
) -> Result<(Tensor, Vec<BlockCache>)> {
    let mut h = x.clone();
    let mut caches = Vec::with_capacity(blocks.len());
    for block in blocks {
        let (next, cache) = block.forward_tp(&h, &mut |t| reduce(row, t))?;
        h = next;
        caches.push(cache);
    }
    Ok((h, caches))
}

/// Backward through a slice of transformer blocks (reverse order),
/// accumulating parameter gradients.
pub(crate) fn backward_blocks(
    blocks: &mut [TransformerBlock],
    caches: &[BlockCache],
    dy: &Tensor,
    row: Option<&TpRow>,
) -> Result<Tensor> {
    let mut grad = dy.clone();
    for (block, cache) in blocks.iter_mut().rev().zip(caches.iter().rev()) {
        grad = block.backward_tp(cache, &grad, &mut |t| reduce(row, t))?;
    }
    Ok(grad)
}

/// The transformer blocks of one `(device, chunk)` and the grid row their
/// partial sums are completed over (`None` exactly when `tp == 1`).
#[derive(Clone)]
pub(crate) struct StageBlocks {
    blocks: Vec<TransformerBlock>,
    row: Option<TpRow>,
}

impl StageBlocks {
    /// Slices `blocks` for one device: unsharded without a row, else this
    /// rank's head-aligned column/row shards. The shards *replace* the full
    /// blocks, so a device holds `1/tp` of the matmul weights (plus the
    /// replicated LayerNorms and biases), exactly as the simulator's grid
    /// memory model counts.
    pub(crate) fn new(blocks: &[TransformerBlock], row: Option<(TpRow, TpPartition)>) -> Self {
        let (blocks, row) = match row {
            None => (blocks.to_vec(), None),
            Some((row, part)) => (blocks.iter().map(|b| b.shard(&part)).collect(), Some(row)),
        };
        StageBlocks { blocks, row }
    }

    pub(crate) fn forward(&self, x: &Tensor) -> Result<(Tensor, Vec<BlockCache>)> {
        forward_blocks(&self.blocks, x, self.row.as_ref())
    }

    /// Backward in reverse block order, accumulating parameter gradients.
    pub(crate) fn backward(&mut self, caches: &[BlockCache], dy: &Tensor) -> Result<Tensor> {
        backward_blocks(&mut self.blocks, caches, dy, self.row.as_ref())
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
        caches: &[BlockCache],
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
        let dx = self.backward(caches, dy);
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
        self.blocks
            .iter_mut()
            .flat_map(|b| b.params_mut())
            .collect()
    }
}
