//! Deterministic model construction shared by the reference trainer and
//! the pipeline shards, so both start from bit-identical weights (the
//! precondition for the Appendix E convergence comparison). A device builds
//! only the pieces it hosts, straight from their places on the seed's
//! initialization stream.

use std::ops::Range;
use vp_model::block::TransformerBlock;
use vp_tensor::init::{gpt, seeded_rng_at};
use vp_tensor::rng::StdRng;
use vp_tensor::Tensor;

/// Hyper-parameters of the tiny training runs (the runtime analogue of the
/// paper's 4B correctness model, scaled to CPU size).
#[derive(Debug, Clone, PartialEq)]
pub struct TinyConfig {
    /// Transformer layers (must be divisible by the device count).
    pub layers: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// Feed-forward expansion.
    pub ffn_mult: usize,
    /// Sequence length.
    pub seq_len: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Microbatches per iteration.
    pub microbatches: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Initialization / data seed.
    pub seed: u64,
    /// Tie the input and output embedding weights (§6.1). Supported by the
    /// single-device reference and the Vocabulary Parallelism runtime
    /// modes (the naive baseline would need a cross-stage gradient sync).
    pub tied: bool,
}

impl Default for TinyConfig {
    fn default() -> Self {
        TinyConfig {
            layers: 4,
            hidden: 32,
            heads: 4,
            ffn_mult: 2,
            seq_len: 16,
            vocab: 97,
            microbatches: 4,
            lr: 8e-3,
            seed: 1234,
            tied: false,
        }
    }
}

/// A fully materialized model: the single-device reference's weights.
///
/// Every tensor sits at a fixed place on the config seed's initialization
/// stream (the table in [`vp_tensor::init`]), so the piece builders —
/// [`Self::input_rows`], [`Self::output_rows`], [`Self::pos`],
/// [`Self::block`] — give a device exactly the values it hosts without
/// materializing the rest, bit for bit the slices of [`Self::build`].
#[derive(Debug, Clone)]
pub struct FullModel {
    /// Input embedding table `[V, h]`.
    pub input_weight: Tensor,
    /// Learned positional embedding `[s, h]` (always lives on the first
    /// pipeline device, as the paper notes in §6.4).
    pub pos_weight: Tensor,
    /// Transformer blocks in pipeline order.
    pub blocks: Vec<TransformerBlock>,
    /// Output embedding table `[V, h]` (untied from the input, as in all
    /// paper experiments, unless `config.tied`).
    pub output_weight: Tensor,
}

/// A generator at Gaussian element `element` of the config's stream.
fn stream_at(config: &TinyConfig, element: usize) -> StdRng {
    seeded_rng_at(config.seed, element as u64)
}

/// Rows `rows` of the `[V, h]` table whose first element is `table`.
fn table_rows(config: &TinyConfig, table: usize, rows: Range<usize>) -> Tensor {
    assert!(
        rows.end <= config.vocab,
        "rows {rows:?} of a {}-row table",
        config.vocab
    );
    let h = config.hidden;
    let mut rng = stream_at(config, table + rows.start * h);
    gpt(&mut rng, rows.len(), h)
}

/// First stream element of block `i` (of the output table at `i = L`).
fn block_start(config: &TinyConfig, i: usize) -> usize {
    let h = config.hidden;
    (config.vocab + config.seq_len) * h + i * (4 + 2 * config.ffn_mult) * h * h
}

impl FullModel {
    /// Builds the whole model deterministically from `config.seed`: the
    /// assembly of the piece builders, so every caller with the same config
    /// gets identical tensors.
    pub fn build(config: &TinyConfig) -> Self {
        let input_weight = Self::input_rows(config, 0..config.vocab);
        let output_weight = if config.tied {
            input_weight.clone()
        } else {
            Self::output_rows(config, 0..config.vocab)
        };
        FullModel {
            input_weight,
            pos_weight: Self::pos(config),
            blocks: (0..config.layers).map(|i| Self::block(config, i)).collect(),
            output_weight,
        }
    }

    /// Rows `rows` of the input embedding table.
    ///
    /// # Panics
    ///
    /// Panics if `rows` ends past the vocabulary.
    pub fn input_rows(config: &TinyConfig, rows: Range<usize>) -> Tensor {
        table_rows(config, 0, rows)
    }

    /// Rows `rows` of the output embedding table (the input table's rows
    /// when tied).
    ///
    /// # Panics
    ///
    /// Panics if `rows` ends past the vocabulary.
    pub fn output_rows(config: &TinyConfig, rows: Range<usize>) -> Tensor {
        let table = if config.tied {
            0
        } else {
            block_start(config, config.layers)
        };
        table_rows(config, table, rows)
    }

    /// The positional embedding `[s, h]`.
    pub fn pos(config: &TinyConfig) -> Tensor {
        let mut rng = stream_at(config, config.vocab * config.hidden);
        gpt(&mut rng, config.seq_len, config.hidden)
    }

    /// Transformer block `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a layer or the heads do not divide the hidden
    /// width.
    pub fn block(config: &TinyConfig, i: usize) -> TransformerBlock {
        assert!(i < config.layers, "block {i} of {} layers", config.layers);
        assert_eq!(config.hidden % config.heads, 0, "heads must divide hidden");
        let mut rng = stream_at(config, block_start(config, i));
        TransformerBlock::new(&mut rng, config.hidden, config.heads, config.ffn_mult)
    }
}

impl TinyConfig {
    /// The blocks hosted by `stage` of `stages` equal stages.
    ///
    /// # Panics
    ///
    /// Panics if the layer count is not divisible by `stages`.
    pub fn stage_blocks(&self, stage: usize, stages: usize) -> Range<usize> {
        assert_eq!(
            self.layers % stages,
            0,
            "layers must divide evenly for the runtime"
        );
        let per = self.layers / stages;
        stage * per..(stage + 1) * per
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_model::partition::VocabPartition;
    use vp_model::tp::TpPartition;
    use vp_tensor::init::seeded_rng;
    use vp_tensor::rng::Rng;

    /// The sequential build every piece builder must reproduce: one
    /// generator drawn through input, positional, blocks and output, in
    /// that order.
    fn sequential_oracle(config: &TinyConfig) -> FullModel {
        let mut rng = seeded_rng(config.seed);
        let input_weight = gpt(&mut rng, config.vocab, config.hidden);
        let pos_weight = gpt(&mut rng, config.seq_len, config.hidden);
        let blocks = (0..config.layers)
            .map(|_| TransformerBlock::new(&mut rng, config.hidden, config.heads, config.ffn_mult))
            .collect();
        let output_weight = if config.tied {
            input_weight.clone()
        } else {
            gpt(&mut rng, config.vocab, config.hidden)
        };
        let _ = rng.gen_f64();
        FullModel {
            input_weight,
            pos_weight,
            blocks,
            output_weight,
        }
    }

    fn bits(t: &Tensor) -> (usize, usize, Vec<u32>) {
        let (r, c) = t.shape();
        (r, c, t.data().iter().map(|v| v.to_bits()).collect())
    }

    fn block_bits(b: &mut TransformerBlock) -> Vec<(usize, usize, Vec<u32>)> {
        b.params_mut().iter().map(|p| bits(p.value())).collect()
    }

    /// Every piece a device builds is bitwise the oracle's: each rank's
    /// input and output rows (ragged and padded shards at V = 97, even ones
    /// at V = 256), tied and untied, the positional embedding, every block
    /// and its tp = 2 shards.
    #[test]
    fn every_piece_is_bitwise_the_sequential_build() {
        for vocab in [97, 256] {
            for tied in [false, true] {
                let config = TinyConfig {
                    vocab,
                    tied,
                    ..TinyConfig::default()
                };
                let mut oracle = sequential_oracle(&config);
                let mut built = FullModel::build(&config);
                assert_eq!(bits(&built.input_weight), bits(&oracle.input_weight));
                assert_eq!(bits(&built.output_weight), bits(&oracle.output_weight));
                assert_eq!(bits(&FullModel::pos(&config)), bits(&oracle.pos_weight));
                for p in [1, 2, 4] {
                    let part = VocabPartition::new(vocab, p);
                    for rank in 0..p {
                        let rows = part.real_range(rank);
                        let slice = |t: &Tensor| bits(&t.slice_rows(rows.start, rows.end).unwrap());
                        let what = format!("V={vocab} tied={tied} p={p} rank={rank}");
                        let input = FullModel::input_rows(&config, rows.clone());
                        assert_eq!(bits(&input), slice(&oracle.input_weight), "{what}");
                        let output = FullModel::output_rows(&config, rows.clone());
                        assert_eq!(bits(&output), slice(&oracle.output_weight), "{what}");
                    }
                }
                let ffn = config.hidden * config.ffn_mult;
                for (i, want) in oracle.blocks.iter_mut().enumerate() {
                    let mut block = FullModel::block(&config, i);
                    assert_eq!(block_bits(&mut block), block_bits(want), "block {i}");
                    assert_eq!(block_bits(&mut built.blocks[i]), block_bits(want));
                    for rank in 0..2 {
                        let part = TpPartition::new(2, rank, config.heads, config.hidden, ffn);
                        assert_eq!(
                            block_bits(&mut block.shard(&part)),
                            block_bits(&mut want.shard(&part)),
                            "block {i} tp rank {rank}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn build_is_deterministic() {
        let cfg = TinyConfig::default();
        let a = FullModel::build(&cfg);
        let b = FullModel::build(&cfg);
        assert_eq!(a.input_weight, b.input_weight);
        assert_eq!(a.output_weight, b.output_weight);
        assert_eq!(a.pos_weight, b.pos_weight);
        assert_eq!(a.blocks.len(), 4);
    }

    #[test]
    fn different_seed_different_model() {
        let mut cfg = TinyConfig::default();
        let a = FullModel::build(&cfg);
        cfg.seed = 999;
        let b = FullModel::build(&cfg);
        assert!(a.input_weight.max_abs_diff(&b.input_weight).unwrap() > 0.0);
    }

    #[test]
    fn stage_blocks_tile() {
        let config = TinyConfig::default();
        assert_eq!(config.stage_blocks(0, 2), 0..2);
        assert_eq!(config.stage_blocks(1, 2), 2..4);
    }
}
