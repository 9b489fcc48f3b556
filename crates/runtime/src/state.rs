//! Per-microbatch interpreter state: activation/vocabulary buffers keyed
//! by `(microbatch, chunk)` and the in-flight `C1` barrier slots.
//!
//! These stores are what the §5.2 memory analysis counts: every `F` pass
//! parks a chunk's block caches until the matching `B` consumes them, and
//! every `S` pass parks the broadcast activation plus softmax state until
//! the deferred `T` (and, for Algorithm 2, the last stage's `B`) drain
//! them. [`ActivationStore`] tracks the observed peak so the runtime can
//! be checked against the analytical executor's memory trace.

use crate::stage::StageCache;
use std::collections::HashMap;
use vp_collectives::JobHandle;
use vp_core::output::{BarrierOutput, SState};
use vp_tensor::nn::{CrossEntropyGrad, EmbeddingCache};
use vp_tensor::{Result, Tensor, TensorError};

/// Resident transformer activations, keyed `(microbatch, chunk)`: filled
/// by `F`, drained by `B`, with the peak population recorded for the
/// memory-equivalence property tests. Full and tensor-parallel blocks
/// share the bookkeeping through [`StageCache`].
#[derive(Default)]
pub(crate) struct ActivationStore {
    caches: HashMap<(u32, u8), StageCache>,
    peak: usize,
}

impl ActivationStore {
    /// Parks the block caches produced by an `F` pass.
    pub(crate) fn insert(&mut self, microbatch: u32, chunk: u8, caches: StageCache) {
        self.caches.insert((microbatch, chunk), caches);
        self.peak = self.peak.max(self.caches.len());
    }

    /// Takes the caches for the matching `B` pass.
    pub(crate) fn remove(&mut self, microbatch: u32, chunk: u8) -> Option<StageCache> {
        self.caches.remove(&(microbatch, chunk))
    }

    /// Drops any leftover caches at the end of an iteration.
    pub(crate) fn clear(&mut self) {
        self.caches.clear();
    }

    /// The maximum number of simultaneously resident microbatch-chunk
    /// activations observed so far — the runtime counterpart of the
    /// executor's `peak_resident_microbatches`.
    pub(crate) fn peak_resident(&self) -> usize {
        self.peak
    }
}

/// Weight-gradient stash for zero-bubble `B`/`W` splitting: the `B` pass
/// computes activation gradients into fresh weight gradients and parks
/// them here; the deferred `W` pass folds them into the real parameters.
#[derive(Default)]
pub(crate) struct WGradStash {
    grads: HashMap<(u32, u8), Vec<Tensor>>,
}

impl WGradStash {
    /// Parks the weight gradients of one `(microbatch, chunk)` backward.
    pub(crate) fn insert(&mut self, microbatch: u32, chunk: u8, grads: Vec<Tensor>) {
        self.grads.insert((microbatch, chunk), grads);
    }

    /// Takes the gradients for the matching `W` pass.
    pub(crate) fn remove(&mut self, microbatch: u32, chunk: u8) -> Option<Vec<Tensor>> {
        self.grads.remove(&(microbatch, chunk))
    }

    /// Drops any unconsumed stash entries at the end of an iteration.
    ///
    /// A validated zero-bubble schedule drains the stash exactly (every `B`
    /// has its `W`), so this is normally a no-op — but clearing here puts
    /// any leftover gradient buffers back into the tensor arena alongside
    /// the activation stores, keeping steady-state iterations
    /// allocation-free even for schedules that skip some `W` passes.
    pub(crate) fn clear(&mut self) {
        self.grads.clear();
    }
}

/// Per-microbatch vocabulary/output state on one device.
#[derive(Default)]
pub(crate) struct MbState {
    /// Baseline-mode embedding cache (token ids for the input backward).
    pub(crate) emb_cache: Option<EmbeddingCache>,
    /// The `C0`-broadcast activation, parked between `S` and `T`.
    pub(crate) x_c0: Option<Tensor>,
    /// The in-flight (or resolved) `C1` barrier.
    pub(crate) barrier: BarrierSlot,
    /// Baseline-mode last-stage output, parked between `F` and `B`.
    pub(crate) h_last: Option<Tensor>,
    /// Baseline-mode loss gradient, parked between `F` and `B`.
    pub(crate) out_grad: Option<CrossEntropyGrad>,
}

#[derive(Default)]
#[allow(clippy::large_enum_variant)] // one slot per in-flight microbatch; size is fine
pub(crate) enum BarrierSlot {
    #[default]
    Empty,
    Pending(JobHandle<Result<(SState, BarrierOutput)>>),
    /// Resolved barrier. The deferred `T` pass takes the softmax state;
    /// the last stage's `B` takes the `∇X` — in either order, so both are
    /// stored independently.
    Ready {
        state: Option<SState>,
        out: BarrierOutput,
    },
}

impl BarrierSlot {
    /// Waits for the in-flight barrier if necessary.
    fn resolve(&mut self) -> Result<()> {
        if let BarrierSlot::Pending(_) = self {
            let BarrierSlot::Pending(handle) = std::mem::take(self) else {
                unreachable!()
            };
            let (state, out) = handle.wait()?;
            *self = BarrierSlot::Ready {
                state: Some(state),
                out,
            };
        }
        match self {
            BarrierSlot::Ready { .. } => Ok(()),
            _ => Err(TensorError::InvalidArgument(
                "barrier consumed before S pass submitted it".into(),
            )),
        }
    }

    /// The state with its global corrections (consumed by the `T` pass).
    pub(crate) fn take_state(&mut self) -> Result<(SState, f64)> {
        self.resolve()?;
        let BarrierSlot::Ready { state, out } = self else {
            unreachable!("just resolved")
        };
        let loss = out.loss;
        state
            .take()
            .map(|s| (s, loss))
            .ok_or_else(|| TensorError::InvalidArgument("barrier state consumed twice".into()))
    }

    /// The reduced `∇X` (consumed by the last stage's `B`, Algorithm 2).
    pub(crate) fn take_dx(&mut self) -> Result<Tensor> {
        self.resolve()?;
        let BarrierSlot::Ready { out, .. } = self else {
            unreachable!("just resolved")
        };
        out.dx.take().ok_or_else(|| {
            TensorError::InvalidArgument(
                "barrier did not produce ∇X (or it was consumed twice)".into(),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_store_tracks_peak_population() {
        let mut store = ActivationStore::default();
        store.insert(0, 0, StageCache::Full(Vec::new()));
        store.insert(1, 0, StageCache::Full(Vec::new()));
        assert!(store.remove(0, 0).is_some());
        store.insert(2, 0, StageCache::Full(Vec::new()));
        // Peak was 2 simultaneously resident entries.
        assert_eq!(store.peak_resident(), 2);
        store.clear();
        assert!(store.remove(1, 0).is_none());
        // Peak survives the per-iteration clear.
        assert_eq!(store.peak_resident(), 2);
    }

    #[test]
    fn w_stash_round_trips_by_key() {
        let mut stash = WGradStash::default();
        stash.insert(3, 1, vec![Tensor::zeros(1, 1)]);
        assert!(stash.remove(3, 0).is_none());
        assert_eq!(stash.remove(3, 1).map(|g| g.len()), Some(1));
        assert!(stash.remove(3, 1).is_none());
    }

    #[test]
    fn empty_barrier_slot_reports_misuse() {
        let mut slot = BarrierSlot::default();
        assert!(slot.take_state().is_err());
        assert!(slot.take_dx().is_err());
    }
}
