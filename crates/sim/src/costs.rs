//! The cost provider binding `vp-model`'s analytical model to
//! `vp-schedule`'s executor.

use vp_model::config::ModelConfig;
use vp_model::cost::CostModel;
use vp_model::partition::{StageLayout, VocabPartition, VocabPlacement};
use vp_model::tp_activation_scale;
use vp_schedule::deps::EdgeKind;
use vp_schedule::exec::Costs;
use vp_schedule::pass::{PassKind, ScheduledPass, VocabVariant};

/// What a device's chunk computes, for duration/memory purposes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkSpec {
    /// Transformer layers in this chunk.
    pub layers: usize,
    /// Full input layer folded into this chunk's F/B (baseline layouts).
    pub full_input: bool,
    /// Full output layer folded into this chunk's F/B (baseline layouts).
    pub full_output: bool,
}

/// Cost provider for one simulated configuration.
#[derive(Debug, Clone)]
pub struct SimCosts {
    model: CostModel,
    /// `[device][chunk]` specification.
    chunks: Vec<Vec<ChunkSpec>>,
    /// Vocabulary algorithm for `S`/`T`/interlaced passes, if any.
    algo: Option<VocabVariant>,
    /// Shard width of the vocabulary partition (padded / p).
    shard_width: usize,
    /// Zero the synchronous collective costs (the Appendix B.2 ablation).
    pub disable_sync_collectives: bool,
    /// Whether the schedule splits W out of B (zero-bubble style; V-Half).
    split_w: bool,
    /// Tensor-parallel width of each stage's grid row (1 = flat pipeline).
    tp: usize,
}

impl SimCosts {
    /// The one constructor: a flat pipeline (`tp = 1`) over the
    /// `[device][chunk]` table, with vocabulary shards of width
    /// `padded / devices`.
    fn new(model: CostModel, chunks: Vec<Vec<ChunkSpec>>, algo: Option<VocabVariant>) -> Self {
        let shard_width = VocabPartition::new(model.config.vocab, chunks.len()).shard_width();
        SimCosts {
            model,
            chunks,
            algo,
            shard_width,
            disable_sync_collectives: false,
            split_w: false,
            tp: 1,
        }
    }

    /// Builds costs for a single-chunk (1F1B-family) layout.
    pub fn for_layout(model: CostModel, layout: &StageLayout, algo: Option<VocabVariant>) -> Self {
        let chunks = (0..layout.devices())
            .map(|d| {
                let spec = layout.stage(d);
                vec![ChunkSpec {
                    layers: spec.transformer_layers,
                    full_input: spec.input == Some(VocabPlacement::Full),
                    full_output: spec.output == Some(VocabPlacement::Full),
                }]
            })
            .collect();
        SimCosts::new(model, chunks, algo)
    }

    /// Builds costs for a V-Half layout: `2p` virtual stages of
    /// `layers / 2p` transformer layers, with the zero-bubble B/W split.
    /// Without a vocabulary algorithm (the baseline), device 0 hosts the
    /// full input layer (virtual stage 0, chunk 0) *and* the full output
    /// layer (virtual stage `2p−1`, chunk 1).
    pub fn for_vhalf(model: CostModel, devices: usize, algo: Option<VocabVariant>) -> Self {
        let per_chunk = model.config.layers / (2 * devices);
        let remainder = model.config.layers % (2 * devices);
        // Distribute any remainder over the first virtual stages.
        let layers_of = |vs: usize| per_chunk + usize::from(vs < remainder);
        let full = algo.is_none();
        let chunks = (0..devices)
            .map(|d| {
                vec![
                    ChunkSpec {
                        layers: layers_of(d),
                        full_input: full && d == 0,
                        full_output: false,
                    },
                    ChunkSpec {
                        layers: layers_of(2 * devices - 1 - d),
                        full_input: false,
                        full_output: full && d == 0,
                    },
                ]
            })
            .collect();
        SimCosts::new(model, chunks, algo).with_split_w()
    }

    /// Builds costs for an interleaved (round-robin) layout: `chunks`
    /// model chunks per device of `layers / (devices·chunks)` transformer
    /// layers, with vocabulary shards on every device.
    pub fn for_interleaved(
        model: CostModel,
        devices: usize,
        chunks: u8,
        algo: Option<VocabVariant>,
    ) -> Self {
        let stages = devices * chunks as usize;
        let per_chunk = model.config.layers / stages;
        let remainder = model.config.layers % stages;
        let chunk_table = (0..devices)
            .map(|d| {
                (0..chunks as usize)
                    .map(|c| ChunkSpec {
                        layers: per_chunk + usize::from(c * devices + d < remainder),
                        full_input: false,
                        full_output: false,
                    })
                    .collect()
            })
            .collect();
        SimCosts::new(model, chunk_table, algo)
    }

    /// Enables the zero-bubble B/W split for 1F1B-family layouts.
    pub fn with_split_w(mut self) -> Self {
        self.split_w = true;
        self
    }

    /// Shards every transformer chunk over a grid row of `tp` tensor
    /// ranks: matmul time divides by `tp` (at the narrower shard's kernel
    /// efficiency) and each sharded layer pays the exposed Megatron `f`/`g`
    /// all-reduce time per direction. `tp = 1` leaves every cost bitwise
    /// unchanged. Vocabulary and full input / output layers are *not*
    /// sharded — as in the runtime grid, each pipeline column replicates
    /// them.
    pub fn with_tp(mut self, tp: usize) -> Self {
        assert!(tp > 0, "tensor-parallel width must be positive");
        self.tp = tp;
        self
    }

    /// The tensor-parallel width the costs are priced for.
    pub fn tp(&self) -> usize {
        self.tp
    }

    /// Per-device static bytes (parameters plus optimizer state) and the
    /// transients the executor does not count. A tensor rank holds `1/tp`
    /// of its transformer weights; full vocabulary layers and vocabulary
    /// shards replicate across the grid row. A full output layer holds its
    /// fp32 logits + softmax during F/B.
    pub(crate) fn static_memory(&self) -> (Vec<f64>, Vec<f64>) {
        let c = &self.model.config;
        let tokens = (c.microbatch * c.seq_len) as f64;
        self.chunks
            .iter()
            .map(|chunks| {
                let layers: usize = chunks.iter().map(|spec| spec.layers).sum();
                let mut params = layers as u64 * c.transformer_layer_params() / self.tp as u64;
                let mut transient = 0.0;
                for spec in chunks {
                    if spec.full_input {
                        params += c.vocab_layer_params();
                    }
                    if spec.full_output {
                        params += c.vocab_layer_params();
                        transient += 4.0 * tokens * c.vocab as f64;
                    }
                }
                if self.algo.is_some() {
                    params += 2 * (self.shard_width * c.hidden) as u64;
                }
                (self.model.param_state_bytes(params), transient)
            })
            .unzip()
    }

    /// Exposed TP all-reduce seconds per sharded layer in one direction
    /// (zero at `tp = 1`).
    fn tp_comm_layer_seconds(&self) -> f64 {
        if self.tp <= 1 {
            return 0.0;
        }
        self.model.tp_comm_seconds_per_layer(self.tp)
    }

    /// The underlying cost model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.model.config
    }

    /// The chunk spec for `(device, chunk)`.
    pub fn chunk(&self, device: usize, chunk: u8) -> ChunkSpec {
        self.chunks[device][chunk as usize]
    }

    fn devices(&self) -> usize {
        self.chunks.len()
    }

    fn crosses_node(&self, a: usize, b: usize) -> bool {
        let dpn = self.model.hardware.devices_per_node;
        a / dpn != b / dpn
    }

    fn collective_seconds(&self, bytes: f64) -> f64 {
        self.model
            .hardware
            .all_reduce_seconds(bytes, self.devices())
    }

    /// Average relative pass times, used by generators for nominal
    /// priorities (absolute seconds work fine as relative units).
    pub fn pass_times(&self) -> vp_schedule::block::PassTimes {
        let m = &self.model;
        let p = self.devices();
        let mean_layers = (0..p)
            .flat_map(|d| self.chunks[d].iter().map(|c| c.layers))
            .sum::<usize>() as f64
            / self.chunks.iter().map(Vec::len).sum::<usize>() as f64;
        let algo = self.algo.unwrap_or(VocabVariant::Alg1);
        let comm = self.tp_comm_layer_seconds();
        vp_schedule::block::PassTimes {
            f: (m.transformer_f_seconds(1, self.tp) + comm) * mean_layers,
            b: if self.split_w {
                (m.transformer_b_only_seconds(1, self.tp) + comm) * mean_layers
            } else {
                (m.transformer_bw_seconds(1, self.tp) + comm) * mean_layers
            },
            w: if self.split_w {
                m.transformer_w_seconds(1, self.tp) * mean_layers
            } else {
                0.0
            },
            s: m.vocab_s_seconds(algo, self.shard_width),
            t: m.vocab_t_seconds(algo, self.shard_width),
            input_f: m.vocab_input_f_seconds(p),
            input_b: m.vocab_input_b_seconds(p),
            comm: m.hardware.p2p_seconds(m.boundary_activation_bytes(), false),
        }
    }
}

impl Costs for SimCosts {
    fn pass_seconds(&self, device: usize, pass: &ScheduledPass) -> f64 {
        let m = &self.model;
        let spec = self.chunk(device, pass.chunk);
        let algo = self.algo.unwrap_or(VocabVariant::Alg1);
        match pass.kind {
            PassKind::F => {
                let mut t = m.transformer_f_seconds(spec.layers, self.tp)
                    + spec.layers as f64 * self.tp_comm_layer_seconds();
                if spec.full_output {
                    t += m.output_full_f_seconds();
                }
                if spec.full_input {
                    t += m.input_full_f_seconds();
                }
                t
            }
            PassKind::B => {
                let mut t = if self.split_w {
                    m.transformer_b_only_seconds(spec.layers, self.tp)
                } else {
                    m.transformer_bw_seconds(spec.layers, self.tp)
                };
                t += spec.layers as f64 * self.tp_comm_layer_seconds();
                if spec.full_output {
                    t += m.output_full_bw_seconds();
                }
                if spec.full_input {
                    t += m.input_full_b_seconds();
                }
                t
            }
            // Weight gradients are rank-local under TP (Megatron folds no
            // collective into wgrad), so `W` pays compute only.
            PassKind::W => {
                if self.split_w {
                    m.transformer_w_seconds(spec.layers, self.tp)
                } else {
                    0.0
                }
            }
            PassKind::S | PassKind::S2 => m.vocab_s_seconds(algo, self.shard_width),
            PassKind::T => m.vocab_t_seconds(algo, self.shard_width),
            // Interlaced TP-style output passes compute the same shard
            // matmuls (forward 2bshV′; backward 4bshV′).
            PassKind::OutputF => m.vocab_s_seconds(VocabVariant::Alg1, self.shard_width),
            PassKind::OutputB => m.vocab_t_seconds(VocabVariant::Alg1, self.shard_width),
            PassKind::InputF => m.vocab_input_f_seconds(self.devices()),
            PassKind::InputB => m.vocab_input_b_seconds(self.devices()),
        }
    }

    fn edge_seconds(&self, kind: EdgeKind, from_device: usize, to_device: usize) -> f64 {
        let m = &self.model;
        match kind {
            EdgeKind::Local => 0.0,
            EdgeKind::ActivationP2p | EdgeKind::GradP2p => {
                if from_device == to_device {
                    0.0
                } else {
                    m.hardware.p2p_seconds(
                        m.boundary_activation_bytes(),
                        self.crosses_node(from_device, to_device),
                    )
                }
            }
            EdgeKind::C0Broadcast => self.collective_seconds(m.boundary_activation_bytes()),
            EdgeKind::C1Barrier => {
                // Two stats all-reduces; Algorithm 2 folds the ∇X reduce
                // into the same barrier.
                let mut bytes = 2.0 * m.stats_bytes();
                if self.algo == Some(VocabVariant::Alg2) {
                    bytes += m.dx_bytes();
                }
                self.collective_seconds(bytes)
            }
            EdgeKind::C2Reduce => self.collective_seconds(m.dx_bytes()),
            EdgeKind::NaiveBarrier => self.collective_seconds(2.0 * m.stats_bytes()),
            EdgeKind::InterlacedSync => {
                if self.disable_sync_collectives {
                    0.0
                } else {
                    // Broadcast of X / stats all-reduce / ∇X reduce — the
                    // synchronous communications of Appendix B.2.
                    self.collective_seconds(
                        m.boundary_activation_bytes().max(2.0 * m.stats_bytes()),
                    )
                }
            }
            EdgeKind::InputAllReduce | EdgeKind::InputGradBroadcast => {
                self.collective_seconds(m.boundary_activation_bytes())
            }
        }
    }

    fn activation_units(&self, device: usize, chunk: u8) -> f64 {
        let spec = self.chunk(device, chunk);
        // Sharded layers stash smaller activations (§5.2's accounting
        // extended to the grid); the scale is exactly 1 at tp = 1.
        spec.layers as f64 * self.model.act_bytes_per_layer() * tp_activation_scale(self.tp)
    }

    fn vocab_buffer_units(&self, _device: usize) -> f64 {
        let algo = self.algo.unwrap_or(VocabVariant::Alg1);
        let mut bytes = self.model.vocab_transient_bytes(self.shard_width);
        if algo == VocabVariant::Alg2 {
            // Algorithm 2 additionally holds A = softmax'(Y)·W and B = G·W
            // ([N, h] each) between S and the barrier.
            bytes += 2.0 * self.model.dx_bytes();
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_model::config::ModelPreset;
    use vp_model::cost::Hardware;
    use vp_model::partition::StageLayout;
    use vp_schedule::pass::ScheduledPass;

    fn model(vocab: usize) -> CostModel {
        CostModel::new(
            ModelPreset::Gpt4B.config().with_vocab(vocab),
            Hardware::default(),
        )
    }

    #[test]
    fn baseline_last_stage_is_much_slower_at_large_vocab() {
        let m = model(256 * 1024);
        let layout = StageLayout::baseline(&m.config, 8);
        let costs = SimCosts::for_layout(m, &layout, None);
        let f_mid = costs.pass_seconds(3, &ScheduledPass::new(PassKind::F, 0));
        let f_last = costs.pass_seconds(7, &ScheduledPass::new(PassKind::F, 0));
        assert!(f_last > 2.0 * f_mid, "mid {f_mid}, last {f_last}");
    }

    #[test]
    fn vocab_stages_are_balanced() {
        let m = model(256 * 1024);
        let layout = StageLayout::vocab_parallel(&m.config, 8);
        let costs = SimCosts::for_layout(m, &layout, Some(VocabVariant::Alg2));
        let per_device: Vec<f64> = (0..8)
            .map(|d| {
                [PassKind::F, PassKind::B, PassKind::S, PassKind::T]
                    .into_iter()
                    .map(|k| costs.pass_seconds(d, &ScheduledPass::new(k, 0)))
                    .sum()
            })
            .collect();
        let max = per_device.iter().cloned().fold(0.0f64, f64::max);
        let min = per_device.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((max - min) / max < 1e-9);
    }

    #[test]
    fn vhalf_baseline_puts_both_vocab_layers_on_device_zero() {
        let m = model(128 * 1024);
        let costs = SimCosts::for_vhalf(m, 16, None);
        assert!(costs.chunk(0, 0).full_input);
        assert!(costs.chunk(0, 1).full_output);
        assert!(!costs.chunk(1, 0).full_input);
        assert!(!costs.chunk(1, 1).full_output);
    }

    #[test]
    fn cross_node_p2p_costs_more() {
        let m = model(32 * 1024);
        let layout = StageLayout::baseline(&m.config, 16);
        let costs = SimCosts::for_layout(m, &layout, None);
        let intra = costs.edge_seconds(EdgeKind::ActivationP2p, 3, 4);
        let inter = costs.edge_seconds(EdgeKind::ActivationP2p, 7, 8);
        assert!(inter > intra);
    }

    #[test]
    fn tp1_costs_are_bitwise_the_flat_costs() {
        let m = model(64 * 1024);
        let layout = StageLayout::vocab_parallel(&m.config, 8);
        let flat = SimCosts::for_layout(m, &layout, Some(VocabVariant::Alg2));
        let grid = flat.clone().with_tp(1);
        for kind in [
            PassKind::F,
            PassKind::B,
            PassKind::W,
            PassKind::S,
            PassKind::T,
        ] {
            assert_eq!(
                grid.pass_seconds(3, &ScheduledPass::new(kind, 0)).to_bits(),
                flat.pass_seconds(3, &ScheduledPass::new(kind, 0)).to_bits(),
                "{kind:?}"
            );
        }
        let (a, b) = (flat.pass_times(), grid.pass_times());
        assert_eq!(a.f.to_bits(), b.f.to_bits());
        assert_eq!(a.b.to_bits(), b.b.to_bits());
        assert_eq!(a.w.to_bits(), b.w.to_bits());
        assert_eq!(
            flat.activation_units(3, 0).to_bits(),
            grid.activation_units(3, 0).to_bits()
        );
    }

    #[test]
    fn tp_shards_compute_sublinearly_and_pays_comm() {
        let m = model(64 * 1024);
        let layout = StageLayout::vocab_parallel(&m.config, 8);
        let flat = SimCosts::for_layout(m, &layout, Some(VocabVariant::Alg1));
        let tp4 = flat.clone().with_tp(4);
        let f = |c: &SimCosts| c.pass_seconds(3, &ScheduledPass::new(PassKind::F, 0));
        assert!(f(&tp4) < f(&flat), "sharding must pay off");
        assert!(
            f(&tp4) > f(&flat) / 4.0,
            "narrower shards and exposed collectives make it sublinear"
        );
        // W pays no collective: exactly the sharded compute.
        let w = |c: &SimCosts| c.pass_seconds(3, &ScheduledPass::new(PassKind::W, 0));
        let w_flat = flat.clone().with_split_w();
        let w_tp = w_flat.clone().with_tp(4);
        assert!(w(&w_tp) < w(&w_flat));
        // Sharded layers stash smaller activations.
        assert!(tp4.activation_units(3, 0) < flat.activation_units(3, 0));
        // Vocabulary passes replicate per column: unchanged under TP.
        let s = |c: &SimCosts| c.pass_seconds(3, &ScheduledPass::new(PassKind::S, 0));
        assert_eq!(s(&tp4).to_bits(), s(&flat).to_bits());
    }

    #[test]
    fn ablation_flag_zeroes_sync_cost() {
        let m = model(32 * 1024);
        let layout = StageLayout::vocab_parallel(&m.config, 8);
        let mut costs = SimCosts::for_layout(m, &layout, Some(VocabVariant::Alg1));
        assert!(costs.edge_seconds(EdgeKind::InterlacedSync, 0, 1) > 0.0);
        costs.disable_sync_collectives = true;
        assert_eq!(costs.edge_seconds(EdgeKind::InterlacedSync, 0, 1), 0.0);
    }
}
