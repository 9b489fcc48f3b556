//! Forward-only evaluation and greedy decoding on a trained
//! [`ReferenceTrainer`] — validation loss/perplexity/next-token accuracy,
//! and text-style generation for the examples.

use crate::checkpoint::ReferenceTrainer;
use crate::data::DataSource;
use vp_tensor::ops::argmax_rows;
use vp_tensor::{Result, Tensor, TensorError};

/// Held-out evaluation metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalReport {
    /// Mean cross-entropy over the evaluated tokens.
    pub loss: f64,
    /// `exp(loss)`.
    pub perplexity: f64,
    /// Greedy next-token accuracy.
    pub accuracy: f64,
}

impl ReferenceTrainer {
    /// Forward pass producing logits for one token sequence.
    ///
    /// # Errors
    ///
    /// Returns shape/label errors for malformed inputs.
    pub fn logits(&self, tokens: &[usize]) -> Result<Tensor> {
        let config = self.config();
        if tokens.len() > config.seq_len {
            return Err(TensorError::InvalidArgument(format!(
                "sequence of {} tokens exceeds seq_len {}",
                tokens.len(),
                config.seq_len
            )));
        }
        let (embedded, _) = self.embedding_view().forward(tokens)?;
        let pos = self.pos_view().slice_rows(0, tokens.len())?;
        let x0 = embedded.add(&pos)?;
        let (h, _) = crate::stage::forward_blocks(self.blocks_view(), &x0, None)?;
        h.matmul_nt(self.output_weight_view())
    }

    /// Evaluates mean loss, perplexity and greedy accuracy over
    /// `microbatches` batches drawn from `source` starting at stream
    /// position `offset` (use an offset past the training range for a
    /// held-out split).
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors.
    pub fn evaluate(
        &self,
        source: &DataSource,
        offset: u64,
        microbatches: usize,
    ) -> Result<EvalReport> {
        let mut total_loss = 0.0;
        let mut correct = 0usize;
        let mut total = 0usize;
        for mb in source.iteration(offset, microbatches) {
            let logits = self.logits(&mb.tokens)?;
            total_loss += vp_tensor::ops::cross_entropy_mean(&logits, &mb.labels)?;
            for (pred, &label) in argmax_rows(&logits).iter().zip(&mb.labels) {
                correct += usize::from(*pred == label);
                total += 1;
            }
        }
        let loss = total_loss / microbatches as f64;
        Ok(EvalReport {
            loss,
            perplexity: loss.exp(),
            accuracy: correct as f64 / total.max(1) as f64,
        })
    }

    /// Greedily decodes `new_tokens` continuations of `prompt`, using a
    /// sliding window of the model's sequence length.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty prompt or out-of-vocabulary ids.
    pub fn generate(&self, prompt: &[usize], new_tokens: usize) -> Result<Vec<usize>> {
        if prompt.is_empty() {
            return Err(TensorError::InvalidArgument(
                "prompt must be non-empty".into(),
            ));
        }
        let seq_len = self.config().seq_len;
        let mut out = prompt.to_vec();
        for _ in 0..new_tokens {
            let window_start = out.len().saturating_sub(seq_len);
            let window = &out[window_start..];
            let logits = self.logits(window)?;
            let next = argmax_rows(&logits)[window.len() - 1];
            out.push(next);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticCorpus;
    use crate::model::TinyConfig;

    fn trained(iters: usize) -> (ReferenceTrainer, DataSource, TinyConfig) {
        let config = TinyConfig::default();
        let src = DataSource::Synthetic(SyntheticCorpus::new(
            config.vocab,
            config.seq_len,
            config.seed,
        ));
        let mut t = ReferenceTrainer::new(&config);
        t.train(iters, &src).unwrap();
        (t, src, config)
    }

    #[test]
    fn training_improves_heldout_metrics() {
        let (fresh, src, config) = trained(0);
        let (tuned, _, _) = trained(25);
        // Evaluate on a stream region past the training range.
        let offset = 1000;
        let before = fresh.evaluate(&src, offset, 4).unwrap();
        let after = tuned.evaluate(&src, offset, 4).unwrap();
        assert!(
            after.loss < before.loss,
            "before {before:?} after {after:?}"
        );
        assert!(after.perplexity < before.perplexity);
        assert!((before.loss - (config.vocab as f64).ln()).abs() < 0.5);
    }

    #[test]
    fn generation_extends_the_prompt() {
        let (t, _, config) = trained(5);
        let out = t.generate(&[1, 2, 3], 10).unwrap();
        assert_eq!(out.len(), 13);
        assert_eq!(&out[..3], &[1, 2, 3]);
        assert!(out.iter().all(|&t| t < config.vocab));
    }

    #[test]
    fn generation_respects_the_context_window() {
        let (t, _, config) = trained(1);
        // Prompt longer than seq_len still works via the sliding window.
        let prompt: Vec<usize> = (0..config.seq_len + 5).map(|i| i % config.vocab).collect();
        let out = t.generate(&prompt, 3).unwrap();
        assert_eq!(out.len(), prompt.len() + 3);
        assert!(t.generate(&[], 1).is_err());
    }

    #[test]
    fn logits_reject_overlong_sequences() {
        let (t, _, config) = trained(0);
        let too_long: Vec<usize> = vec![0; config.seq_len + 1];
        assert!(t.logits(&too_long).is_err());
    }
}
