//! The single-device reference: the loss trajectory the pipeline runtime
//! must reproduce (trained by [`ReferenceTrainer`]: forward/backward over
//! the full model per microbatch, gradient accumulation, one Adam step per
//! iteration).

use crate::checkpoint::ReferenceTrainer;
use crate::data::DataSource;
use crate::model::TinyConfig;
use vp_tensor::Result;

/// Trains the full model on one device over the config's synthetic corpus
/// and returns the per-iteration mean loss — the reference curve of the
/// Appendix E comparison.
///
/// # Errors
///
/// Propagates tensor-shape errors (which indicate a configuration bug).
pub fn train_reference(config: &TinyConfig, iterations: usize) -> Result<Vec<f64>> {
    train_reference_on(config, iterations, &DataSource::synthetic(config))
}

/// Like [`train_reference`], with an explicit [`DataSource`] (e.g. a
/// BPE-tokenized corpus packed by `vp-data`): a fresh
/// [`ReferenceTrainer`] run for `iterations`.
///
/// # Errors
///
/// Propagates tensor-shape errors (which indicate a configuration bug).
pub fn train_reference_on(
    config: &TinyConfig,
    iterations: usize,
    corpus: &DataSource,
) -> Result<Vec<f64>> {
    ReferenceTrainer::new(config).train(iterations, corpus)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_decreases_on_structured_data() {
        let config = TinyConfig::default();
        let losses = train_reference(&config, 12).unwrap();
        let start = losses[0];
        let end = *losses.last().unwrap();
        assert!(start > end, "loss did not decrease: {losses:?}");
        // First loss should be near ln(V) for random init.
        let ln_v = (config.vocab as f64).ln();
        assert!((start - ln_v).abs() < 0.5, "start {start} vs ln(V) {ln_v}");
    }

    #[test]
    fn training_is_deterministic() {
        let config = TinyConfig::default();
        let a = train_reference(&config, 4).unwrap();
        let b = train_reference(&config, 4).unwrap();
        assert_eq!(a, b);
    }
}
