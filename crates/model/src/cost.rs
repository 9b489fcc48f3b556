//! The analytical cost model (paper Appendix A) plus an A100-like hardware
//! description calibrated against the paper's measurements.
//!
//! FLOPs per microbatch, following Narayanan et al. as the paper does
//! (`b` microbatch, `s` sequence, `h` hidden, `V` vocabulary):
//!
//! | pass                    | FLOPs            |
//! |-------------------------|------------------|
//! | transformer forward `F` | `bsh(24h + 4s)`  |
//! | transformer backward `B`| `bsh(24h + 8s)`  |
//! | transformer wgrad `W`   | `24bsh²`         |
//! | output layer (total)    | `6bshV`          |
//! | input layer (total)     | `3bsh`           |
//!
//! Parameter memory: `12h²` parameters per transformer layer, `hV` per
//! vocabulary layer, at [`Hardware::bytes_per_param`] bytes each (weights +
//! gradients + fp32 master weights + Adam moments, Megatron mixed
//! precision). Activations: [`Hardware::act_bytes_coeff`]`·s·b·h` bytes per
//! transformer layer per resident microbatch (selective recomputation, after
//! Korthikanti et al.).
//!
//! # Calibration
//!
//! Three constants are fitted to the paper's own measurements rather than
//! derived: the kernel-efficiency curve `e(h) = e∞ / (1 + c_h/h)` (fitted to
//! the per-setup MFU of the balanced Vocab methods in Table 5), the fixed
//! per-pass overhead of partitioned vocabulary kernels (fitted to Table 3's
//! scaling factors) and Algorithm 2's extra elementwise work (Table 3's
//! Vocab-1 → Vocab-2 gap). They are documented at the field definitions and
//! exercised by the `table3` reproduction.

use crate::config::ModelConfig;
use crate::partition::VocabPartition;

/// Which variant of the partitioned output layer a pass belongs to (§4:
/// the naive 3-barrier grouping, Algorithm 1 with 2 barriers, or
/// Algorithm 2 with 1 barrier) — the schedule's [`VocabVariant`] under the
/// name the numeric crates use. The second name exists only because the
/// frozen `benchmark/` imports both (`vp_core::VocabAlgo` and
/// `vp_schedule::pass::VocabVariant`); ROADMAP item 1a retires it.
///
/// [`VocabVariant`]: vp_schedule::pass::VocabVariant
pub use vp_schedule::pass::VocabVariant as VocabAlgo;

/// Machine description: an A100-SXM-80GB-like device with RoCE inter-node
/// links, as used in the paper's testbed (§6.2).
#[derive(Debug, Clone, PartialEq)]
pub struct Hardware {
    /// Peak dense throughput per device, FLOP/s (A100 bf16: 312 TFLOP/s).
    pub peak_flops: f64,
    /// Asymptotic kernel efficiency `e∞` of large matmuls.
    ///
    /// Calibrated: with `eff_hidden_scale` this reproduces the MFU of the
    /// balanced Vocab methods across the 4B/10B/21B setups of Table 5.
    pub eff_asymptote: f64,
    /// Hidden-size scale `c_h` of the efficiency curve `e∞ / (1 + c_h/h)`.
    pub eff_hidden_scale: f64,
    /// Fixed overhead (seconds) per partitioned-vocabulary `S` or `T` pass:
    /// kernel-launch plus the `[b·s]`-sized statistics work that does not
    /// shrink with the shard. Calibrated to Table 3.
    pub vocab_pass_overhead: f64,
    /// Extra time (seconds) Algorithm 2 spends per microbatch on the
    /// rescale-recompute of `softmax(Y)` and the `GW` gather (§4.4,
    /// "a bit more computation overhead"). Calibrated to Table 3's
    /// Vocab-1 → Vocab-2 gap.
    pub alg2_extra_overhead: f64,
    /// Device HBM bandwidth, bytes/s (A100: ~2 TB/s; we use an effective
    /// 1.3 TB/s for memory-bound kernels).
    pub mem_bandwidth: f64,
    /// Effective per-device bandwidth of intra-node links, bytes/s.
    pub intra_node_bandwidth: f64,
    /// Effective per-device bandwidth of inter-node (RoCE) links, bytes/s.
    pub inter_node_bandwidth: f64,
    /// Per-hop latency of intra-node transfers, seconds.
    pub intra_node_latency: f64,
    /// Per-hop latency of inter-node transfers, seconds.
    pub inter_node_latency: f64,
    /// GPUs per node (the paper's nodes hold 8 A100s).
    pub devices_per_node: usize,
    /// Bytes of persistent state per parameter: bf16 weight (2) + fp32
    /// master weight (4) + Adam moments (8) + amortized gradient buffers
    /// ≈ 17, Megatron-style mixed precision with a distributed-optimizer
    /// style gradient store. Calibrated so the baseline's 73 GB cell
    /// (Table 5, 32 GPU / seq 4096 / 256k) stays under the 80 GB budget
    /// while the interlaced pipeline's 1.5× activations exceed it.
    pub bytes_per_param: f64,
    /// Activation bytes per transformer layer per token, divided by `h`
    /// (Korthikanti et al.'s `34·s·b·h` with selective recomputation).
    pub act_bytes_coeff: f64,
    /// Base constant of the partitioned input layer's per-device fixed
    /// cost, in units of `b·s·h / mem_bandwidth` (every device constructs
    /// the full-size output tensor regardless of its shard — the cause of
    /// Table 3's poor input scaling). Calibrated to Table 3.
    pub input_const_base: f64,
    /// Sequence-length exponent of the input-layer fixed cost (Table 3
    /// shows the input scaling factor *worsens* with sequence length).
    pub input_const_exp: f64,
}

impl Default for Hardware {
    fn default() -> Self {
        Hardware {
            peak_flops: 312e12,
            eff_asymptote: 0.69,
            eff_hidden_scale: 936.0,
            vocab_pass_overhead: 0.35e-3,
            alg2_extra_overhead: 0.40e-3,
            mem_bandwidth: 1.3e12,
            intra_node_bandwidth: 150e9,
            inter_node_bandwidth: 20e9,
            intra_node_latency: 10e-6,
            inter_node_latency: 30e-6,
            devices_per_node: 8,
            bytes_per_param: 17.0,
            act_bytes_coeff: 34.0,
            input_const_base: 3.0,
            input_const_exp: 0.65,
        }
    }
}

impl Hardware {
    /// Kernel efficiency for dense matmuls at hidden size `h`.
    pub fn kernel_efficiency(&self, hidden: usize) -> f64 {
        self.eff_asymptote / (1.0 + self.eff_hidden_scale / hidden as f64)
    }

    /// Seconds to execute `flops` of dense compute at hidden size `h`.
    pub fn compute_seconds(&self, flops: f64, hidden: usize) -> f64 {
        flops / (self.peak_flops * self.kernel_efficiency(hidden))
    }

    /// Ring all-reduce time for `bytes` over `p` devices.
    ///
    /// Uses the inter-node bandwidth/latency when the group spans nodes,
    /// since the slowest link bounds the ring.
    pub fn all_reduce_seconds(&self, bytes: f64, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let (bw, lat) = if p > self.devices_per_node {
            (self.inter_node_bandwidth, self.inter_node_latency)
        } else {
            (self.intra_node_bandwidth, self.intra_node_latency)
        };
        let steps = (p - 1) as f64;
        2.0 * bytes * steps / (p as f64) / bw + 2.0 * steps * lat
    }

    /// Point-to-point transfer time for `bytes`, optionally crossing nodes.
    pub fn p2p_seconds(&self, bytes: f64, crosses_node: bool) -> f64 {
        let (bw, lat) = if crosses_node {
            (self.inter_node_bandwidth, self.inter_node_latency)
        } else {
            (self.intra_node_bandwidth, self.intra_node_latency)
        };
        bytes / bw + lat
    }
}

/// Per-microbatch cost model binding a [`ModelConfig`] to a [`Hardware`].
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Model configuration the costs are computed for.
    pub config: ModelConfig,
    /// Hardware description.
    pub hardware: Hardware,
}

impl CostModel {
    /// Creates a cost model.
    pub fn new(config: ModelConfig, hardware: Hardware) -> Self {
        CostModel { config, hardware }
    }

    fn bsh(&self) -> f64 {
        let c = &self.config;
        (c.microbatch * c.seq_len * c.hidden) as f64
    }

    // ---- FLOPs (per microbatch) -----------------------------------------

    /// Transformer forward FLOPs: `bsh(24h + 4s)`.
    pub fn transformer_f_flops(&self) -> f64 {
        let c = &self.config;
        self.bsh() * (24.0 * c.hidden as f64 + 4.0 * c.seq_len as f64)
    }

    /// Transformer activation-gradient FLOPs: `bsh(24h + 8s)`.
    pub fn transformer_b_flops(&self) -> f64 {
        let c = &self.config;
        self.bsh() * (24.0 * c.hidden as f64 + 8.0 * c.seq_len as f64)
    }

    /// Transformer weight-gradient FLOPs: `24bsh²`.
    pub fn transformer_w_flops(&self) -> f64 {
        self.bsh() * 24.0 * self.config.hidden as f64
    }

    /// Output-layer total FLOPs over `vocab_cols` vocabulary columns:
    /// `6·bsh·vocab_cols` (forward `2bshV'`, ∇X `2bshV'`, ∇W `2bshV'`).
    pub fn output_total_flops(&self, vocab_cols: usize) -> f64 {
        6.0 * self.bsh() * vocab_cols as f64
    }

    /// Input-layer total FLOPs: `3bsh` (lookup forward + scatter-add
    /// backward); independent of the shard size.
    pub fn input_total_flops(&self) -> f64 {
        3.0 * self.bsh()
    }

    /// End-to-end model FLOPs per iteration (all microbatches), the
    /// numerator of MFU, following Narayanan et al.'s derivation.
    pub fn model_flops_per_iteration(&self) -> f64 {
        let c = &self.config;
        let per_layer = self.bsh() * (72.0 * c.hidden as f64 + 12.0 * c.seq_len as f64);
        let per_microbatch = c.layers as f64 * per_layer
            + self.output_total_flops(c.vocab)
            + self.input_total_flops();
        per_microbatch * c.num_microbatches as f64
    }

    /// Model FLOPs utilization for an iteration that took `seconds` on `p`
    /// devices.
    pub fn mfu(&self, seconds: f64, p: usize) -> f64 {
        self.model_flops_per_iteration() / (seconds * p as f64 * self.hardware.peak_flops)
    }

    // ---- Pass times (seconds, per microbatch) ---------------------------

    /// Transformer forward time for `layers` layers with the matmuls
    /// sharded `tp` ways (`tp = 1`: the flat pipeline).
    ///
    /// FLOPs divide by `tp`, but kernel efficiency is evaluated at the
    /// *shard* width `hidden / tp`: the per-device GEMMs shrink, so each
    /// rank runs at lower utilization. This sub-linear speedup is the
    /// efficiency half of the PTD-P tension between TP and deeper PP; the
    /// communication half is [`Self::tp_comm_seconds_per_layer`].
    pub fn transformer_f_seconds(&self, layers: usize, tp: usize) -> f64 {
        self.transformer_seconds(layers, self.transformer_f_flops(), tp)
    }

    /// Activation-gradient (`B`-only) time for `layers` layers sharded `tp`
    /// ways (zero-bubble split).
    pub fn transformer_b_only_seconds(&self, layers: usize, tp: usize) -> f64 {
        self.transformer_seconds(layers, self.transformer_b_flops(), tp)
    }

    /// Weight-gradient (`W`) time for `layers` layers sharded `tp` ways
    /// (zero-bubble split).
    pub fn transformer_w_seconds(&self, layers: usize, tp: usize) -> f64 {
        self.transformer_seconds(layers, self.transformer_w_flops(), tp)
    }

    /// Combined backward (B + W) time for `layers` layers sharded `tp` ways.
    pub fn transformer_bw_seconds(&self, layers: usize, tp: usize) -> f64 {
        let flops = self.transformer_b_flops() + self.transformer_w_flops();
        self.transformer_seconds(layers, flops, tp)
    }

    /// `layers` layers of `flops` each, sharded `tp` ways. Dividing by
    /// `tp = 1` is exact, so the flat pipeline is the `tp = 1` grid.
    fn transformer_seconds(&self, layers: usize, flops: f64, tp: usize) -> f64 {
        layers as f64
            * self
                .hardware
                .compute_seconds(flops / tp as f64, self.config.hidden / tp)
    }

    /// Full (unpartitioned) output-layer forward time, including loss.
    pub fn output_full_f_seconds(&self) -> f64 {
        self.hardware.compute_seconds(
            2.0 * self.bsh() * self.config.vocab as f64,
            self.config.hidden,
        )
    }

    /// Full (unpartitioned) output-layer backward time (∇X and ∇W).
    pub fn output_full_bw_seconds(&self) -> f64 {
        self.hardware.compute_seconds(
            4.0 * self.bsh() * self.config.vocab as f64,
            self.config.hidden,
        )
    }

    /// Full (unpartitioned) input-layer forward time (memory bound).
    pub fn input_full_f_seconds(&self) -> f64 {
        // Gather read + write of the [b·s, h] activations, fp16.
        4.0 * self.bsh() / self.hardware.mem_bandwidth
    }

    /// Full (unpartitioned) input-layer backward time (scatter-add).
    pub fn input_full_b_seconds(&self) -> f64 {
        8.0 * self.bsh() / self.hardware.mem_bandwidth
    }

    /// `S`-pass time of the partitioned output layer for the given
    /// algorithm and shard width.
    ///
    /// Algorithm 1's `S` holds the logits matmul and local softmax
    /// (`2bshV'`); Algorithm 2 additionally pre-computes `A = softmax'(Y)W`
    /// and `B = GW` before the barrier (`+2bshV'` plus the calibrated
    /// elementwise overhead).
    pub fn vocab_s_seconds(&self, algo: VocabAlgo, shard_cols: usize) -> f64 {
        let hw = &self.hardware;
        let matmul = 2.0 * self.bsh() * shard_cols as f64;
        let base = match algo {
            VocabAlgo::Naive | VocabAlgo::Alg1 => hw.compute_seconds(matmul, self.config.hidden),
            VocabAlgo::Alg2 => {
                hw.compute_seconds(2.0 * matmul, self.config.hidden) + hw.alg2_extra_overhead
            }
        };
        base + hw.vocab_pass_overhead
    }

    /// `T`-pass time of the partitioned output layer.
    ///
    /// Algorithm 1's `T` computes both `∇X'` and `∇W` (`4bshV'`);
    /// Algorithm 2's `T` only computes `∇W` (`2bshV'`).
    pub fn vocab_t_seconds(&self, algo: VocabAlgo, shard_cols: usize) -> f64 {
        let hw = &self.hardware;
        let matmul = 2.0 * self.bsh() * shard_cols as f64;
        let flops = match algo {
            VocabAlgo::Naive | VocabAlgo::Alg1 => 2.0 * matmul,
            VocabAlgo::Alg2 => matmul,
        };
        hw.compute_seconds(flops, self.config.hidden) + hw.vocab_pass_overhead
    }

    /// The sequence-length-dependent fixed cost of a partitioned
    /// input-layer pass pair, in `b·s·h / mem_bandwidth` units.
    fn input_const_units(&self) -> f64 {
        self.hardware.input_const_base
            * (self.config.seq_len as f64 / 2048.0).powf(self.hardware.input_const_exp)
    }

    /// Partitioned input-layer forward time on one device.
    ///
    /// Every device constructs the full `[b·s, h]` output tensor regardless
    /// of its shard (the cause of the poor input scaling in Table 3), but
    /// only gathers its own rows.
    pub fn vocab_input_f_seconds(&self, p: usize) -> f64 {
        let const_part = self.input_const_units() / 3.0 * self.bsh() / self.hardware.mem_bandwidth;
        const_part + self.input_full_f_seconds() / (2.0 * p as f64)
    }

    /// Partitioned input-layer backward time on one device.
    pub fn vocab_input_b_seconds(&self, p: usize) -> f64 {
        let const_part =
            2.0 * self.input_const_units() / 3.0 * self.bsh() / self.hardware.mem_bandwidth;
        const_part + self.input_full_b_seconds() / (2.0 * p as f64)
    }

    // ---- Tensor parallelism (2D grid) ------------------------------------

    /// Exposed tensor-parallel communication per transformer layer in one
    /// direction (forward *or* backward): the two Megatron `f`/`g`
    /// all-reduces of the boundary activation (`[b·s, h]` bf16) over the
    /// `tp`-wide group. Zero at `tp = 1`.
    pub fn tp_comm_seconds_per_layer(&self, tp: usize) -> f64 {
        2.0 * self
            .hardware
            .all_reduce_seconds(self.boundary_activation_bytes(), tp)
    }

    // ---- Communication volumes ------------------------------------------

    /// Bytes of the boundary activation tensor passed between stages
    /// (`[b·s, h]` bf16).
    pub fn boundary_activation_bytes(&self) -> f64 {
        2.0 * self.bsh()
    }

    /// Bytes of one softmax statistics vector (`[b·s]` fp32).
    pub fn stats_bytes(&self) -> f64 {
        4.0 * (self.config.microbatch * self.config.seq_len) as f64
    }

    /// Bytes of the ∇X tensor reduced across devices (`[b·s, h]` fp32).
    pub fn dx_bytes(&self) -> f64 {
        4.0 * self.bsh()
    }

    // ---- Memory ----------------------------------------------------------

    /// Persistent bytes for `params` parameters (weights + grads + master +
    /// Adam state).
    pub fn param_state_bytes(&self, params: u64) -> f64 {
        params as f64 * self.hardware.bytes_per_param
    }

    /// Activation bytes held per resident microbatch per transformer layer.
    pub fn act_bytes_per_layer(&self) -> f64 {
        self.hardware.act_bytes_coeff * self.bsh()
    }

    /// Transient buffer bytes a vocabulary shard holds between its `S` and
    /// `T` passes: `softmax'(Y)` in fp32 plus bookkeeping vectors.
    pub fn vocab_transient_bytes(&self, shard_cols: usize) -> f64 {
        let tokens = (self.config.microbatch * self.config.seq_len) as f64;
        4.0 * tokens * shard_cols as f64 + 3.0 * self.stats_bytes()
    }

    // ---- Table 3: scaling factors ----------------------------------------

    /// Scaling factor of the partitioned output layer relative to linear
    /// scaling (Table 3): ideal per-device time divided by actual.
    pub fn output_scaling_factor(&self, algo: VocabAlgo, p: usize) -> f64 {
        let part = VocabPartition::new(self.config.vocab, p);
        let shard = part.shard_width();
        let ideal = self.hardware.compute_seconds(
            self.output_total_flops(self.config.vocab),
            self.config.hidden,
        ) / p as f64;
        let actual = self.vocab_s_seconds(algo, shard) + self.vocab_t_seconds(algo, shard);
        ideal / actual
    }

    /// Scaling factor of the partitioned input layer relative to linear
    /// scaling (Table 3).
    pub fn input_scaling_factor(&self, p: usize) -> f64 {
        let ideal = (self.input_full_f_seconds() + self.input_full_b_seconds()) / p as f64;
        let actual = self.vocab_input_f_seconds(p) + self.vocab_input_b_seconds(p);
        ideal / actual
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelPreset;

    fn model() -> CostModel {
        CostModel::new(
            ModelPreset::Gpt4B.config().with_vocab(256 * 1024),
            Hardware::default(),
        )
    }

    #[test]
    fn flops_split_matches_appendix_a_totals() {
        let m = model();
        let c = &m.config;
        let total = m.transformer_f_flops() + m.transformer_b_flops() + m.transformer_w_flops();
        let expected = (c.microbatch * c.seq_len * c.hidden) as f64
            * (72.0 * c.hidden as f64 + 12.0 * c.seq_len as f64);
        assert!((total - expected).abs() / expected < 1e-12);
        assert_eq!(
            m.output_total_flops(c.vocab),
            6.0 * (c.seq_len * c.hidden) as f64 * c.vocab as f64
        );
    }

    #[test]
    fn backward_is_roughly_twice_forward() {
        let m = model();
        let ratio = (m.transformer_b_flops() + m.transformer_w_flops()) / m.transformer_f_flops();
        assert!((1.8..2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn gemma2_output_layer_dominates_transformer_layer() {
        // Figure 2: for Gemma2-9B at 256k vocabulary the output layer is
        // ≈5x a transformer layer in compute and in parameter memory.
        let cfg = ModelPreset::Gemma2_9B.config().with_vocab(256 * 1024);
        let m = CostModel::new(cfg.clone(), Hardware::default());
        let compute_ratio = m.output_total_flops(cfg.vocab)
            / ((cfg.seq_len * cfg.hidden) as f64
                * (72.0 * cfg.hidden as f64 + 12.0 * cfg.seq_len as f64));
        let memory_ratio = cfg.vocab_layer_params() as f64 / cfg.transformer_layer_params() as f64;
        assert!(
            (4.5..6.5).contains(&compute_ratio),
            "compute ratio {compute_ratio}"
        );
        assert!(
            (5.0..7.0).contains(&memory_ratio),
            "memory ratio {memory_ratio}"
        );
    }

    #[test]
    fn kernel_efficiency_grows_with_hidden() {
        let hw = Hardware::default();
        assert!(hw.kernel_efficiency(3072) < hw.kernel_efficiency(5120));
        assert!(hw.kernel_efficiency(5120) < hw.eff_asymptote);
    }

    #[test]
    fn output_scaling_factors_match_table3_shape() {
        // Table 3 (seq 2048, 256k vocab): Vocab-1 ≈ 91/84/81 % at 8/16/32
        // devices; Vocab-2 consistently a few points lower; both decrease
        // with device count.
        let presets = [
            (ModelPreset::Gpt4B, 8),
            (ModelPreset::Gpt10B, 16),
            (ModelPreset::Gpt21B, 32),
        ];
        let mut prev = f64::INFINITY;
        for (preset, p) in presets {
            let m = CostModel::new(preset.config().with_vocab(256 * 1024), Hardware::default());
            let f1 = m.output_scaling_factor(VocabAlgo::Alg1, p);
            let f2 = m.output_scaling_factor(VocabAlgo::Alg2, p);
            assert!(f1 < prev, "factor must decrease with p");
            assert!(f2 < f1, "Alg2 pays extra overhead");
            assert!((0.70..0.97).contains(&f1), "p={p}: {f1}");
            prev = f1;
        }
    }

    #[test]
    fn input_scaling_is_much_worse_than_output() {
        let m = model();
        assert!(m.input_scaling_factor(8) < 0.6);
        assert!(m.input_scaling_factor(32) < m.input_scaling_factor(8));
    }

    #[test]
    fn all_reduce_slower_across_nodes() {
        let hw = Hardware::default();
        let bytes = 1e6;
        assert!(hw.all_reduce_seconds(bytes, 16) > hw.all_reduce_seconds(bytes, 8));
        assert_eq!(hw.all_reduce_seconds(bytes, 1), 0.0);
    }

    #[test]
    fn mfu_is_dimensionally_sane() {
        let m = model();
        // A perfectly efficient machine finishing in the compute-bound time
        // would have MFU equal to kernel efficiency.
        let ideal_seconds = m.model_flops_per_iteration()
            / (8.0 * m.hardware.peak_flops * m.hardware.kernel_efficiency(m.config.hidden));
        let mfu = m.mfu(ideal_seconds, 8);
        assert!((mfu - m.hardware.kernel_efficiency(m.config.hidden)).abs() < 1e-9);
    }

    #[test]
    fn param_state_bytes_uses_17_bytes_per_param() {
        let m = model();
        assert_eq!(m.param_state_bytes(1_000), 17_000.0);
    }

    #[test]
    fn tp_speedup_is_sublinear() {
        // Sharding halves the FLOPs but the narrower per-rank GEMMs run at
        // lower kernel efficiency, so the speedup is strictly < 2x.
        let m = model();
        let full = m.transformer_f_seconds(2, 1);
        let half = m.transformer_f_seconds(2, 2);
        assert!(half < full, "TP must still be faster");
        assert!(half > full / 2.0, "but sub-linearly so");
        // Deeper sharding keeps losing efficiency: 4-way is less than
        // twice as fast as 2-way.
        let quarter = m.transformer_f_seconds(2, 4);
        assert!(quarter < half);
        assert!(quarter > half / 2.0);
    }

    #[test]
    fn tp_comm_grows_with_group_width() {
        let m = model();
        let two = m.tp_comm_seconds_per_layer(2);
        let four = m.tp_comm_seconds_per_layer(4);
        assert!(two > 0.0);
        assert!(four > two);
    }
}
