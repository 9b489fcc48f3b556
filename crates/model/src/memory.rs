//! Closed-form per-device memory estimation (§5.2 arithmetic), without
//! running the simulator.
//!
//! For 1F1B-family schedules the analytic peak is:
//!
//! ```text
//! peak(d) = params(d) · bytes_per_param
//!         + in_flight(d) · act_bytes_per_layer · layers(d)
//!         + transients(d)
//! ```
//!
//! with `in_flight(d) = min(m, p − d + barriers)` — the §5.2 lifespan
//! argument. The simulator measures the same quantity from the executed
//! schedule; `vp-sim`'s tests cross-check the two.

use crate::config::ModelConfig;
use crate::cost::{CostModel, Hardware};
use crate::partition::{StageLayout, VocabPartition, VocabPlacement};

/// Per-device memory estimate, in bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryEstimate {
    /// Parameter + optimizer-state bytes.
    pub params: f64,
    /// Peak activation bytes (in-flight microbatches × per-layer cost).
    pub activations: f64,
    /// Transient buffers (full-vocabulary logits, shard softmax, …).
    pub transients: f64,
}

impl MemoryEstimate {
    /// Total bytes.
    pub fn total(&self) -> f64 {
        self.params + self.activations + self.transients
    }

    /// Total in GB.
    pub fn total_gb(&self) -> f64 {
        self.total() / 1e9
    }
}

/// Vocabulary-parallel barrier count for the estimator (0 = not
/// vocabulary-parallel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementKind {
    /// Vocabulary layers on the first/last stage, folded into F/B.
    EndToEnd,
    /// Vocabulary Parallelism with the given §5.2 barrier count (3 naive,
    /// 2 Algorithm 1, 1 Algorithm 2).
    VocabParallel {
        /// Communication barriers between the last F and B.
        barriers: usize,
    },
    /// Interlaced (TP-style) vocabulary: ≈1.5× the 1F1B in-flight count
    /// (Appendix B.1).
    Interlaced,
}

/// Fraction of the per-layer activation bytes resident on one tensor rank
/// of a `tp`-wide Megatron group.
///
/// With the `f`/`g` all-reduce pairs the residual stream (attention and
/// MLP inputs/outputs, 10 of the 34 per-layer activation bytes in the
/// Korthikanti et al. accounting) is fully replicated on every tensor
/// rank, so only the remaining 24 bytes shard: the scale is
/// `(10 + 24/tp) / 34`, exactly `1` at `tp = 1`.
pub fn tp_activation_scale(tp: usize) -> f64 {
    assert!(tp > 0, "tensor-parallel width must be positive");
    (10.0 + 24.0 / tp as f64) / 34.0
}

/// Estimates per-device peak memory for a 1F1B-family schedule over
/// `layout`.
pub fn estimate_1f1b(
    config: &ModelConfig,
    hardware: &Hardware,
    layout: &StageLayout,
    placement: PlacementKind,
) -> Vec<MemoryEstimate> {
    let model = CostModel::new(config.clone(), hardware.clone());
    let p = layout.devices();
    let m = config.num_microbatches;
    let part = VocabPartition::new(config.vocab, p);
    let tokens = (config.microbatch * config.seq_len) as f64;
    (0..p)
        .map(|d| {
            let spec = layout.stage(d);
            let params = model.param_state_bytes(layout.stage_params(config, d));
            let in_flight = match placement {
                PlacementKind::EndToEnd => (p - d).min(m),
                PlacementKind::VocabParallel { barriers } => (p - d + barriers).min(m),
                PlacementKind::Interlaced => (((1.5 * (p - d) as f64).ceil() as usize) + 1).min(m),
            };
            let activations =
                in_flight as f64 * spec.transformer_layers as f64 * model.act_bytes_per_layer();
            let mut transients = 0.0;
            if spec.output == Some(VocabPlacement::Full) {
                // Full-vocabulary logits + softmax (fp32) during F/B.
                transients += 4.0 * tokens * config.vocab as f64;
            }
            if spec.output == Some(VocabPlacement::Shard) {
                transients += model.vocab_transient_bytes(part.shard_width());
            }
            MemoryEstimate {
                params,
                activations,
                transients,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelPreset;

    fn setup(vocab_k: usize) -> (ModelConfig, Hardware) {
        (
            ModelPreset::Gpt4B.config().with_vocab(vocab_k * 1024),
            Hardware::default(),
        )
    }

    #[test]
    fn baseline_peak_is_first_or_last_stage() {
        let (cfg, hw) = setup(256);
        let layout = StageLayout::baseline(&cfg, 8);
        let est = estimate_1f1b(&cfg, &hw, &layout, PlacementKind::EndToEnd);
        let max_dev = (0..8)
            .max_by(|&a, &b| est[a].total().total_cmp(&est[b].total()))
            .unwrap();
        assert!(max_dev == 0 || max_dev == 7, "peak at {max_dev}");
        // At 256k, the last stage's vocabulary parameters dominate.
        assert!(est[7].params > est[3].params * 1.5);
    }

    #[test]
    fn vocab_parallel_estimate_is_balanced() {
        let (cfg, hw) = setup(256);
        let layout = StageLayout::vocab_parallel(&cfg, 8);
        let est = estimate_1f1b(
            &cfg,
            &hw,
            &layout,
            PlacementKind::VocabParallel { barriers: 1 },
        );
        let params: Vec<f64> = est.iter().map(|e| e.params).collect();
        let spread = params.iter().cloned().fold(0.0f64, f64::max)
            - params.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread < 1e6, "param spread {spread}");
        // Activations still tilt toward device 0 (1F1B lifespans).
        assert!(est[0].activations > est[7].activations);
    }

    #[test]
    fn barrier_count_orders_activation_estimates() {
        let (cfg, hw) = setup(128);
        let layout = StageLayout::vocab_parallel(&cfg, 8);
        let one = estimate_1f1b(
            &cfg,
            &hw,
            &layout,
            PlacementKind::VocabParallel { barriers: 1 },
        );
        let two = estimate_1f1b(
            &cfg,
            &hw,
            &layout,
            PlacementKind::VocabParallel { barriers: 2 },
        );
        let three = estimate_1f1b(
            &cfg,
            &hw,
            &layout,
            PlacementKind::VocabParallel { barriers: 3 },
        );
        assert!(one[0].activations < two[0].activations);
        assert!(two[0].activations < three[0].activations);
    }

    #[test]
    fn interlaced_estimate_exceeds_vocab_parallel() {
        let (cfg, hw) = setup(128);
        let layout = StageLayout::vocab_parallel(&cfg, 8);
        let inter = estimate_1f1b(&cfg, &hw, &layout, PlacementKind::Interlaced);
        let vocab = estimate_1f1b(
            &cfg,
            &hw,
            &layout,
            PlacementKind::VocabParallel { barriers: 2 },
        );
        assert!(inter[0].activations > vocab[0].activations);
    }

    #[test]
    fn activation_scale_orders_styles_and_widths() {
        assert_eq!(tp_activation_scale(1), 1.0);
        for tp in [2usize, 4, 8] {
            assert!(tp_activation_scale(tp) > 10.0 / 34.0);
        }
        assert!(tp_activation_scale(4) < tp_activation_scale(2));
    }

    #[test]
    fn microbatch_count_caps_in_flight() {
        let (mut cfg, hw) = setup(32);
        cfg.num_microbatches = 2;
        let layout = StageLayout::baseline(&cfg, 8);
        let est = estimate_1f1b(&cfg, &hw, &layout, PlacementKind::EndToEnd);
        // With only 2 microbatches no device holds more than 2.
        let per_layer = CostModel::new(cfg, hw).act_bytes_per_layer();
        assert!(est[0].activations <= 2.0 * 4.0 * per_layer + 1.0);
    }
}
