//! Vocabulary sharding and pipeline-stage layouts.
//!
//! Implements the three ways of placing model layers onto pipeline devices
//! that the paper compares (§6.2):
//!
//! * [`StageLayout::baseline`] — Megatron's naive layout: transformer
//!   layers spread evenly, the input layer on the first stage and the
//!   output layer on the last.
//! * [`StageLayout::redistributed`] — *Redis*: transformer layers
//!   re-balanced so the longest stage's estimated FLOPs are minimized
//!   (DeepSpeed-style greedy re-balancing).
//! * [`StageLayout::vocab_parallel`] — the paper's method: transformer
//!   layers spread evenly and *every* stage holding a `V/p` shard of both
//!   vocabulary layers. Also used by the interlaced baseline, which shares
//!   the layout but synchronizes differently.

use crate::config::ModelConfig;

/// An even partition of the vocabulary across `p` devices, padded to a
/// multiple of `2p` for memory alignment as in §6.1 of the paper.
///
/// # Example
///
/// The paper's own example: 256008 entries on 24 devices pad to 256032.
///
/// ```
/// use vp_model::partition::VocabPartition;
///
/// let part = VocabPartition::new(256_008, 24);
/// assert_eq!(part.padded(), 256_032);
/// assert_eq!(part.shard_width(), 256_032 / 24);
/// assert_eq!(part.owner_of(0), Some(0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VocabPartition {
    vocab: usize,
    padded: usize,
    devices: usize,
}

impl VocabPartition {
    /// Creates a partition of `vocab` entries over `devices` shards.
    ///
    /// # Panics
    ///
    /// Panics if `devices == 0`.
    pub fn new(vocab: usize, devices: usize) -> Self {
        assert!(devices > 0, "device count must be positive");
        let align = 2 * devices;
        let padded = vocab.div_ceil(align) * align;
        VocabPartition {
            vocab,
            padded,
            devices,
        }
    }

    /// The unpadded vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// The padded vocabulary size (a multiple of `2·devices`).
    pub fn padded(&self) -> usize {
        self.padded
    }

    /// Number of shards.
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// Width of every shard (`padded / devices`).
    pub fn shard_width(&self) -> usize {
        self.padded / self.devices
    }

    /// Half-open padded range `[start, end)` owned by `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= devices`.
    pub fn shard_range(&self, rank: usize) -> (usize, usize) {
        assert!(rank < self.devices, "rank {rank} out of range");
        let w = self.shard_width();
        (rank * w, (rank + 1) * w)
    }

    /// The *real* (unpadded) vocabulary entries owned by `rank`: its
    /// shard range clipped to the vocabulary (empty for an all-padding
    /// shard).
    ///
    /// # Panics
    ///
    /// Panics if `rank >= devices`.
    pub fn real_range(&self, rank: usize) -> std::ops::Range<usize> {
        let (start, end) = self.shard_range(rank);
        start.min(self.vocab)..end.min(self.vocab)
    }

    /// Number of *real* (unpadded) vocabulary entries owned by `rank`.
    pub fn real_width(&self, rank: usize) -> usize {
        self.real_range(rank).len()
    }

    /// The rank owning vocabulary entry `token`, if it is in range.
    pub fn owner_of(&self, token: usize) -> Option<usize> {
        (token < self.vocab).then(|| token / self.shard_width())
    }
}

/// Placement of a vocabulary layer on a stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VocabPlacement {
    /// The stage holds the entire vocabulary layer.
    Full,
    /// The stage holds a `V/p` shard (Vocabulary Parallelism / interlaced).
    Shard,
}

/// What one pipeline stage holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSpec {
    /// Number of transformer layers on this stage.
    pub transformer_layers: usize,
    /// Input (embedding) layer placement, if any.
    pub input: Option<VocabPlacement>,
    /// Output (unembedding + softmax) layer placement, if any.
    pub output: Option<VocabPlacement>,
}

/// A full pipeline layout: one [`StageSpec`] per device.
#[derive(Debug, Clone, PartialEq)]
pub struct StageLayout {
    stages: Vec<StageSpec>,
    vocab_partition: VocabPartition,
}

impl StageLayout {
    /// Megatron's naive layout (the paper's *Baseline*).
    ///
    /// # Panics
    ///
    /// Panics if `devices == 0` or `config.layers < devices`.
    pub fn baseline(config: &ModelConfig, devices: usize) -> Self {
        let layers = Self::spread_evenly(config.layers, devices);
        let stages = layers
            .into_iter()
            .enumerate()
            .map(|(i, transformer_layers)| StageSpec {
                transformer_layers,
                input: (i == 0).then_some(VocabPlacement::Full),
                output: (i == devices - 1).then_some(VocabPlacement::Full),
            })
            .collect();
        StageLayout {
            stages,
            vocab_partition: VocabPartition::new(config.vocab, devices),
        }
    }

    /// *Redis*: re-balances transformer layers so that the most loaded
    /// stage's estimated compute is minimal, with vocabulary layers pinned
    /// to the first/last stages (the paper follows Narayanan et al.'s FLOPs
    /// estimates, as we do here).
    ///
    /// # Panics
    ///
    /// Panics if `devices == 0` or the model has fewer layers than devices.
    pub fn redistributed(config: &ModelConfig, devices: usize) -> Self {
        assert!(devices > 0, "device count must be positive");
        let (s, h, v) = (
            config.seq_len as f64,
            config.hidden as f64,
            config.vocab as f64,
        );
        // Relative FLOPs (fwd+bwd), constants factored out of bsh.
        let layer_cost = 72.0 * h + 12.0 * s;
        let output_cost = 6.0 * v;
        let input_cost = 3.0;
        let mut extras = vec![0.0f64; devices];
        extras[0] += input_cost;
        extras[devices - 1] += output_cost;

        // Minimize T = max_i (n_i · layer_cost + extras_i) subject to
        // Σ n_i = L, n_i ≥ 1: binary search on T over the count of layers
        // that fit under it.
        let total_layers = config.layers;
        assert!(total_layers >= devices, "need at least one layer per stage");
        let fits = |t: f64| -> Option<Vec<usize>> {
            let mut layers = Vec::with_capacity(devices);
            let mut sum = 0usize;
            for &e in &extras {
                let cap = ((t - e) / layer_cost).floor();
                let n = if cap < 1.0 { 1 } else { cap as usize };
                layers.push(n);
                sum += n;
            }
            (sum >= total_layers).then_some(layers)
        };
        let mut lo = layer_cost; // at least one layer somewhere
        let mut hi = total_layers as f64 * layer_cost + output_cost + input_cost;
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if fits(mid).is_some() {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let capacities = fits(hi).expect("upper bound is always feasible");
        // Distribute the layers within the per-stage capacities, preferring
        // *later* stages: in 1F1B, stage `d` holds `p − d` in-flight
        // microbatches of activations, so pushing layers toward the back
        // keeps the compute balance of the capacities while minimizing the
        // activation-memory impact (this is why the paper's Redis peak
        // memory stays at the baseline's level, Table 5).
        let mut assigned = vec![1usize; devices];
        let mut remaining = total_layers - devices;
        for idx in (0..devices).rev() {
            let take = remaining.min(capacities[idx] - assigned[idx]);
            assigned[idx] += take;
            remaining -= take;
        }
        assert_eq!(remaining, 0, "binary search guarantees total capacity");
        let stages = assigned
            .into_iter()
            .enumerate()
            .map(|(i, transformer_layers)| StageSpec {
                transformer_layers,
                input: (i == 0).then_some(VocabPlacement::Full),
                output: (i == devices - 1).then_some(VocabPlacement::Full),
            })
            .collect();
        StageLayout {
            stages,
            vocab_partition: VocabPartition::new(config.vocab, devices),
        }
    }

    /// The paper's Vocabulary Parallelism layout: even transformer layers,
    /// a vocabulary shard of both layers on every stage. The interlaced
    /// baseline shares this layout.
    ///
    /// # Panics
    ///
    /// Panics if `devices == 0` or `config.layers < devices`.
    pub fn vocab_parallel(config: &ModelConfig, devices: usize) -> Self {
        let layers = Self::spread_evenly(config.layers, devices);
        let stages = layers
            .into_iter()
            .map(|transformer_layers| StageSpec {
                transformer_layers,
                input: Some(VocabPlacement::Shard),
                output: Some(VocabPlacement::Shard),
            })
            .collect();
        StageLayout {
            stages,
            vocab_partition: VocabPartition::new(config.vocab, devices),
        }
    }

    fn spread_evenly(layers: usize, devices: usize) -> Vec<usize> {
        assert!(devices > 0, "device count must be positive");
        assert!(layers >= devices, "need at least one layer per stage");
        let base = layers / devices;
        let extra = layers % devices;
        (0..devices)
            .map(|i| base + usize::from(i < extra))
            .collect()
    }

    /// Number of pipeline stages.
    pub fn devices(&self) -> usize {
        self.stages.len()
    }

    /// The spec for stage `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn stage(&self, i: usize) -> &StageSpec {
        &self.stages[i]
    }

    /// Iterates over all stage specs in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = &StageSpec> {
        self.stages.iter()
    }

    /// The vocabulary partition associated with this layout.
    pub fn vocab_partition(&self) -> VocabPartition {
        self.vocab_partition
    }

    /// Parameters held by stage `i` (transformer + any vocabulary layers).
    pub fn stage_params(&self, config: &ModelConfig, i: usize) -> u64 {
        let spec = &self.stages[i];
        let mut params = spec.transformer_layers as u64 * config.transformer_layer_params();
        let vocab_rows = |placement: Option<VocabPlacement>| -> u64 {
            match placement {
                None => 0,
                Some(VocabPlacement::Full) => config.vocab as u64,
                Some(VocabPlacement::Shard) => self.vocab_partition.shard_width() as u64,
            }
        };
        params += (vocab_rows(spec.input) + vocab_rows(spec.output)) * config.hidden as u64;
        params
    }

    /// Relative per-microbatch compute (fwd+bwd, arbitrary units) of stage
    /// `i`, using the Appendix A FLOPs ratios. Used for imbalance analysis
    /// (Figure 3) and by the *Redis* construction test.
    pub fn stage_relative_compute(&self, config: &ModelConfig, i: usize) -> f64 {
        let spec = &self.stages[i];
        let (s, h, v) = (
            config.seq_len as f64,
            config.hidden as f64,
            config.vocab as f64,
        );
        let mut cost = spec.transformer_layers as f64 * (72.0 * h + 12.0 * s);
        let vocab_cols = |placement: Option<VocabPlacement>| -> f64 {
            match placement {
                None => 0.0,
                Some(VocabPlacement::Full) => v,
                Some(VocabPlacement::Shard) => self.vocab_partition.shard_width() as f64,
            }
        };
        cost += 6.0 * vocab_cols(spec.output);
        cost += 3.0 * f64::from(spec.input.is_some() as u8) * vocab_cols(spec.input) / v.max(1.0);
        cost
    }

    /// Compute imbalance: the most loaded stage's relative compute divided
    /// by the mean (1.0 = perfectly balanced).
    pub fn compute_imbalance(&self, config: &ModelConfig) -> f64 {
        let loads: Vec<f64> = (0..self.devices())
            .map(|i| self.stage_relative_compute(config, i))
            .collect();
        let max = loads.iter().cloned().fold(0.0f64, f64::max);
        let mean = loads.iter().sum::<f64>() / loads.len() as f64;
        max / mean
    }

    /// Total transformer layers across all stages (sanity invariant).
    pub fn total_layers(&self) -> usize {
        self.stages.iter().map(|s| s.transformer_layers).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelPreset;

    #[test]
    fn partition_pads_to_multiple_of_2p() {
        // The paper's example: 256008 padded to 256032 on 24 devices.
        let part = VocabPartition::new(256_008, 24);
        assert_eq!(part.padded(), 256_032);
        assert_eq!(part.padded() % 48, 0);
        assert_eq!(part.shard_width(), 256_032 / 24);
    }

    #[test]
    fn shards_tile_the_padded_range() {
        let part = VocabPartition::new(1000, 7);
        let mut covered = 0;
        for rank in 0..7 {
            let (start, end) = part.shard_range(rank);
            assert_eq!(start, covered);
            covered = end;
        }
        assert_eq!(covered, part.padded());
        let real: usize = (0..7).map(|r| part.real_width(r)).sum();
        assert_eq!(real, 1000);
    }

    #[test]
    fn owner_of_maps_tokens_to_shards() {
        let part = VocabPartition::new(100, 4);
        for token in 0..100 {
            let owner = part.owner_of(token).unwrap();
            let (start, end) = part.shard_range(owner);
            assert!((start..end).contains(&token));
        }
        assert_eq!(part.owner_of(100), None);
    }

    #[test]
    fn baseline_places_vocab_at_the_ends() {
        let cfg = ModelPreset::Gpt4B.config();
        let layout = StageLayout::baseline(&cfg, 8);
        assert_eq!(layout.total_layers(), 32);
        assert_eq!(layout.stage(0).input, Some(VocabPlacement::Full));
        assert_eq!(layout.stage(7).output, Some(VocabPlacement::Full));
        assert_eq!(layout.stage(3).input, None);
        assert_eq!(layout.stage(3).output, None);
        assert!(layout.iter().all(|s| s.transformer_layers == 4));
    }

    #[test]
    fn redistribution_moves_layers_off_the_last_stage() {
        let cfg = ModelPreset::Gpt4B.config().with_vocab(256 * 1024);
        let layout = StageLayout::redistributed(&cfg, 8);
        assert_eq!(layout.total_layers(), 32);
        // With a 256k vocabulary the output layer outweighs several
        // transformer layers, so the last stage must shed layers.
        assert!(layout.stage(7).transformer_layers < 4);
        assert!(
            layout.compute_imbalance(&cfg) < StageLayout::baseline(&cfg, 8).compute_imbalance(&cfg)
        );
    }

    #[test]
    fn redistribution_cannot_fully_balance_large_vocab() {
        // Figure 3's point: when the output layer alone exceeds the average
        // stage load, redistribution still leaves imbalance.
        let cfg = ModelPreset::Gpt4B.config().with_vocab(256 * 1024);
        let layout = StageLayout::redistributed(&cfg, 8);
        assert!(
            layout.compute_imbalance(&cfg) > 1.15,
            "imbalance {}",
            layout.compute_imbalance(&cfg)
        );
    }

    #[test]
    fn vocab_parallel_is_balanced() {
        let cfg = ModelPreset::Gpt4B.config().with_vocab(256 * 1024);
        let layout = StageLayout::vocab_parallel(&cfg, 8);
        assert!(layout.compute_imbalance(&cfg) < 1.02);
        // Every stage holds both shards.
        for spec in layout.iter() {
            assert_eq!(spec.input, Some(VocabPlacement::Shard));
            assert_eq!(spec.output, Some(VocabPlacement::Shard));
        }
    }

    #[test]
    fn vocab_parallel_balances_params_too() {
        let cfg = ModelPreset::Gpt4B.config().with_vocab(256 * 1024);
        let vp = StageLayout::vocab_parallel(&cfg, 8);
        let base = StageLayout::baseline(&cfg, 8);
        let spread = |l: &StageLayout| {
            let p: Vec<u64> = (0..8).map(|i| l.stage_params(&cfg, i)).collect();
            *p.iter().max().unwrap() as f64 / *p.iter().min().unwrap() as f64
        };
        assert!(spread(&vp) < 1.01);
        assert!(spread(&base) > 2.0);
    }

    #[test]
    fn uneven_layers_spread_by_at_most_one() {
        let mut cfg = ModelPreset::Gpt4B.config();
        cfg.layers = 30;
        let layout = StageLayout::baseline(&cfg, 8);
        assert_eq!(layout.total_layers(), 30);
        let (min, max) = layout.iter().fold((usize::MAX, 0), |(lo, hi), s| {
            (lo.min(s.transformer_layers), hi.max(s.transformer_layers))
        });
        assert!(max - min <= 1);
    }
}
