//! Experiment runners for the methods compared in the paper's evaluation
//! (§6.2): Baseline, Redis, Vocab-1, Vocab-2 and Interlaced on 1F1B, and
//! Baseline / Vocab-1 on V-Half. Every runner prices its schedule through
//! one [`SimCosts`] and reports through one tail; the flat pipeline is the
//! `pp × 1` grid.

use crate::costs::SimCosts;
use crate::report::SimReport;
use vp_model::config::ModelConfig;
use vp_model::cost::{CostModel, Hardware};
use vp_model::partition::StageLayout;
use vp_schedule::block::PassTimes;
use vp_schedule::exec::Executor;
use vp_schedule::generators;
use vp_schedule::grid::DeviceGrid;
use vp_schedule::pass::{Schedule, VocabVariant};

/// The five methods compared on the 1F1B schedule (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Megatron's naive layout: vocabulary layers on the first/last stage.
    Baseline,
    /// Greedy transformer-layer redistribution.
    Redis,
    /// Vocabulary Parallelism with Algorithm 1 (2 barriers).
    Vocab1,
    /// Vocabulary Parallelism with Algorithm 2 (1 barrier).
    Vocab2,
    /// nnScaler-style interlaced pipeline (synchronous TP vocabulary).
    Interlaced,
}

impl Method {
    /// Lower-case name used in reports and by the CLI.
    pub fn name(self) -> &'static str {
        match self {
            Method::Baseline => "baseline",
            Method::Redis => "redis",
            Method::Vocab1 => "vocab-1",
            Method::Vocab2 => "vocab-2",
            Method::Interlaced => "interlaced",
        }
    }

    /// All methods, in the paper's comparison order.
    pub fn all() -> [Method; 5] {
        [
            Method::Baseline,
            Method::Redis,
            Method::Vocab1,
            Method::Vocab2,
            Method::Interlaced,
        ]
    }

    /// The 1F1B-family schedule this method runs on `pp` pipeline stages
    /// with `m` microbatches, prioritized by `times`.
    pub fn schedule(self, pp: usize, m: u32, times: PassTimes) -> Schedule {
        match self {
            Method::Baseline | Method::Redis => generators::one_f_one_b(pp, m, times),
            Method::Vocab1 => generators::vocab_1f1b(pp, m, VocabVariant::Alg1, times, true),
            Method::Vocab2 => generators::vocab_1f1b(pp, m, VocabVariant::Alg2, times, true),
            Method::Interlaced => generators::interlaced_1f1b(pp, m, times),
        }
    }

    /// The stage layout over `pp` pipeline stages and the vocabulary
    /// algorithm its `S`/`T`/interlaced passes are priced with (`None`:
    /// vocabulary layers folded into the end stages).
    fn layout(self, config: &ModelConfig, pp: usize) -> (StageLayout, Option<VocabVariant>) {
        match self {
            Method::Baseline => (StageLayout::baseline(config, pp), None),
            Method::Redis => (StageLayout::redistributed(config, pp), None),
            Method::Vocab1 | Method::Interlaced => (
                StageLayout::vocab_parallel(config, pp),
                Some(VocabVariant::Alg1),
            ),
            Method::Vocab2 => (
                StageLayout::vocab_parallel(config, pp),
                Some(VocabVariant::Alg2),
            ),
        }
    }
}

/// The two methods compared on the V-Half schedule (§6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VHalfMethod {
    /// Plain V-Half: both vocabulary layers land on device 0.
    Baseline,
    /// V-Half with Vocabulary Parallelism (Algorithm 1).
    Vocab1,
}

impl VHalfMethod {
    /// Lower-case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            VHalfMethod::Baseline => "vhalf-baseline",
            VHalfMethod::Vocab1 => "vhalf-vocab-1",
        }
    }
}

/// Report-name suffix of an output-layer grouping.
fn variant_suffix(variant: VocabVariant) -> &'static str {
    match variant {
        VocabVariant::Naive => "naive",
        VocabVariant::Alg1 => "1",
        VocabVariant::Alg2 => "2",
    }
}

/// The one report tail: executes `schedule` under `costs`, adds the
/// chunk table's static memory and transients, and accounts MFU and the
/// device count over the whole `pp × tp` grid. Per-device vectors stay
/// per pipeline stage (the tensor columns are replicas).
///
/// # Panics
///
/// Panics if `schedule` fails validation (a generator bug).
fn simulate(method: &str, costs: &SimCosts, schedule: &Schedule) -> SimReport {
    let report = Executor::new(costs)
        .run(schedule)
        .expect("generated schedule must validate");
    let (param_bytes, transients) = costs.static_memory();
    let activation_bytes: Vec<f64> = report
        .peak_activation_units
        .iter()
        .zip(&transients)
        .map(|(units, transient)| units + transient)
        .collect();
    let peak_memory_bytes = param_bytes
        .iter()
        .zip(&activation_bytes)
        .map(|(params, acts)| params + acts)
        .collect();
    let devices = schedule.devices() * costs.tp();
    SimReport {
        method: method.to_string(),
        devices,
        iteration_seconds: report.makespan,
        mfu: costs.model().mfu(report.makespan, devices),
        peak_memory_bytes,
        param_bytes,
        activation_bytes,
        bubble_fraction: (0..schedule.devices())
            .map(|d| report.bubble_fraction(d))
            .collect(),
        peak_microbatches: report.peak_resident_microbatches,
    }
}

/// Simulates one method on the 1F1B schedule: the `devices × 1` grid of
/// [`run_1f1b_grid`].
///
/// # Panics
///
/// Panics if the generated schedule fails validation (a generator bug).
pub fn run_1f1b(
    method: Method,
    config: &ModelConfig,
    devices: usize,
    hardware: Hardware,
) -> SimReport {
    run_1f1b_grid(method, config, DeviceGrid::new(devices, 1), hardware)
}

/// Simulates one method on the 1F1B schedule over a `pp × tp` device
/// grid: the schedule's device axis is the grid's pipeline axis, and each
/// stage's transformer layers shard across its row of `tp` tensor ranks
/// (Megatron `f`/`g` all-reduce pairs). Vocabulary shards and full
/// input/output layers replicate per column, exactly as the runtime grid
/// executes them.
///
/// # Panics
///
/// Panics if the generated schedule fails validation (a generator bug).
pub fn run_1f1b_grid(
    method: Method,
    config: &ModelConfig,
    grid: DeviceGrid,
    hardware: Hardware,
) -> SimReport {
    let model = CostModel::new(config.clone(), hardware);
    let (layout, algo) = method.layout(config, grid.pp());
    let costs = SimCosts::for_layout(model, &layout, algo).with_tp(grid.tp());
    let m = config.num_microbatches as u32;
    let schedule = method.schedule(grid.pp(), m, costs.pass_times());
    simulate(method.name(), &costs, &schedule)
}

/// Simulates one method on the V-Half schedule.
///
/// # Panics
///
/// Panics if the generated schedule fails validation (a generator bug).
pub fn run_vhalf(
    method: VHalfMethod,
    config: &ModelConfig,
    devices: usize,
    hardware: Hardware,
) -> SimReport {
    let model = CostModel::new(config.clone(), hardware);
    let m = config.num_microbatches as u32;
    let algo = (method == VHalfMethod::Vocab1).then_some(VocabVariant::Alg1);
    let costs = SimCosts::for_vhalf(model, devices, algo);
    let schedule = match algo {
        Some(v) => generators::vhalf_vocab(devices, m, v, costs.pass_times(), true),
        None => generators::vhalf(devices, m, costs.pass_times()),
    };
    simulate(method.name(), &costs, &schedule)
}

/// Simulates Vocabulary Parallelism on 1F1B with an explicit output-layer
/// grouping — including the *naive* 3-barrier grouping of §4.1, which the
/// paper motivates but does not carry into Table 5. Used by the
/// barrier-count ablation.
///
/// # Panics
///
/// Panics if the generated schedule fails validation (a generator bug).
pub fn run_vocab_variant(
    variant: VocabVariant,
    config: &ModelConfig,
    devices: usize,
    hardware: Hardware,
) -> SimReport {
    let model = CostModel::new(config.clone(), hardware);
    let layout = StageLayout::vocab_parallel(config, devices);
    let costs = SimCosts::for_layout(model, &layout, Some(variant));
    let m = config.num_microbatches as u32;
    let schedule = generators::vocab_1f1b(devices, m, variant, costs.pass_times(), true);
    simulate(
        &format!("vocab-{}", variant_suffix(variant)),
        &costs,
        &schedule,
    )
}

/// The barrier-count ablation (§4/§5.2): how the number of communication
/// barriers in the output-layer grouping (3 naive, 2 Algorithm 1,
/// 1 Algorithm 2) trades activation memory for computation overhead.
/// Returns one report per grouping, naive first.
pub fn run_barrier_ablation(
    config: &ModelConfig,
    devices: usize,
    hardware: &Hardware,
) -> Vec<SimReport> {
    [VocabVariant::Naive, VocabVariant::Alg1, VocabVariant::Alg2]
        .into_iter()
        .map(|v| run_vocab_variant(v, config, devices, hardware.clone()))
        .collect()
}

/// Extension experiment: zero-bubble 1F1B (ZB-H1, Qi et al. 2023) with a
/// Vocabulary Parallelism variant. Demonstrates the §4.4 remark that
/// Algorithm 2's `T` pass is deferrable exactly like the zero-bubble `W`
/// pass: with both used as fillers, warm-up/drain bubbles shrink relative
/// to plain 1F1B at the same activation budget.
///
/// # Panics
///
/// Panics if the generated schedule fails validation (a generator bug).
pub fn run_zero_bubble(
    config: &ModelConfig,
    devices: usize,
    hardware: Hardware,
    variant: VocabVariant,
) -> SimReport {
    let model = CostModel::new(config.clone(), hardware);
    let layout = StageLayout::vocab_parallel(config, devices);
    let costs = SimCosts::for_layout(model, &layout, Some(variant)).with_split_w();
    let m = config.num_microbatches as u32;
    let schedule = generators::zb_vocab_1f1b(devices, m, variant, costs.pass_times(), false);
    simulate(
        &format!("zb-vocab-{}", variant_suffix(variant)),
        &costs,
        &schedule,
    )
}

/// Extension experiment: Vocabulary Parallelism on *interleaved* 1F1B
/// (Narayanan et al.'s multi-chunk schedule) — the third schedule family,
/// demonstrating §5's claim that the building-block insertion generalizes.
///
/// # Panics
///
/// Panics if the generated schedule fails validation (a generator bug).
pub fn run_interleaved_vocab(
    config: &ModelConfig,
    devices: usize,
    chunks: u8,
    variant: VocabVariant,
    hardware: Hardware,
) -> SimReport {
    let model = CostModel::new(config.clone(), hardware);
    let costs = SimCosts::for_interleaved(model, devices, chunks, Some(variant));
    let m = config.num_microbatches as u32;
    let schedule =
        generators::interleaved_vocab_1f1b(devices, chunks, m, variant, costs.pass_times(), false);
    simulate(
        &format!("interleaved{chunks}-vocab-{}", variant_suffix(variant)),
        &costs,
        &schedule,
    )
}

/// The Appendix B.2 ablation: iteration time of the interlaced pipeline
/// with and without its synchronous collectives. Returns
/// `(with_sync_seconds, without_sync_seconds)`.
///
/// # Panics
///
/// Panics if the generated schedule fails validation.
pub fn run_interlaced_ablation(
    config: &ModelConfig,
    devices: usize,
    hardware: Hardware,
) -> (f64, f64) {
    let model = CostModel::new(config.clone(), hardware);
    let (layout, algo) = Method::Interlaced.layout(config, devices);
    let mut costs = SimCosts::for_layout(model, &layout, algo);
    let m = config.num_microbatches as u32;
    let schedule = Method::Interlaced.schedule(devices, m, costs.pass_times());
    let makespan = |costs: &SimCosts| {
        Executor::new(costs)
            .run(&schedule)
            .expect("schedule must validate")
            .makespan
    };
    let with_sync = makespan(&costs);
    costs.disable_sync_collectives = true;
    (with_sync, makespan(&costs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_model::config::ModelPreset;

    fn cfg(preset: ModelPreset, vocab_k: usize, seq: usize) -> ModelConfig {
        preset.config().with_vocab(vocab_k * 1024).with_seq_len(seq)
    }

    /// Table 5's headline: baseline MFU collapses as V grows; Vocab stays
    /// flat and wins big at 256k.
    #[test]
    fn baseline_collapses_with_vocab_size_vocab_methods_do_not() {
        let hw = Hardware::default();
        let mfu =
            |method, v| run_1f1b(method, &cfg(ModelPreset::Gpt4B, v, 2048), 8, hw.clone()).mfu;
        let base_32k = mfu(Method::Baseline, 32);
        let base_256k = mfu(Method::Baseline, 256);
        assert!(
            base_256k < 0.7 * base_32k,
            "baseline {base_32k} -> {base_256k}"
        );
        let v2_32k = mfu(Method::Vocab2, 32);
        let v2_256k = mfu(Method::Vocab2, 256);
        assert!(
            (v2_256k - v2_32k).abs() < 0.05 * v2_32k,
            "vocab-2 {v2_32k} -> {v2_256k}"
        );
        assert!(
            v2_256k > 1.5 * base_256k,
            "vocab-2 {v2_256k} vs baseline {base_256k}"
        );
    }

    /// Redis sits between baseline and vocab at large vocabularies.
    #[test]
    fn redis_partially_recovers() {
        let hw = Hardware::default();
        let config = cfg(ModelPreset::Gpt4B, 256, 2048);
        let base = run_1f1b(Method::Baseline, &config, 8, hw.clone()).mfu;
        let redis = run_1f1b(Method::Redis, &config, 8, hw.clone()).mfu;
        let vocab = run_1f1b(Method::Vocab1, &config, 8, hw).mfu;
        assert!(redis > base, "redis {redis} vs baseline {base}");
        assert!(vocab > redis, "vocab {vocab} vs redis {redis}");
    }

    /// Figure 12: vocab methods keep peak memory nearly flat in V; the
    /// baseline's peak grows steeply.
    #[test]
    fn vocab_memory_stays_flat() {
        let hw = Hardware::default();
        let mem = |method, v: usize| {
            run_1f1b(method, &cfg(ModelPreset::Gpt4B, v, 2048), 8, hw.clone()).max_memory_gb()
        };
        let base_growth = mem(Method::Baseline, 256) - mem(Method::Baseline, 32);
        let vocab_growth = mem(Method::Vocab2, 256) - mem(Method::Vocab2, 32);
        assert!(base_growth > 5.0, "baseline growth {base_growth} GB");
        assert!(vocab_growth < 4.0, "vocab growth {vocab_growth} GB");
        assert!(mem(Method::Vocab2, 256) < mem(Method::Baseline, 256));
    }

    /// Vocab-2 uses one fewer in-flight microbatch than Vocab-1 (§5.2).
    #[test]
    fn vocab2_holds_fewer_microbatches_than_vocab1() {
        let hw = Hardware::default();
        let config = cfg(ModelPreset::Gpt4B, 128, 2048);
        let v1 = run_1f1b(Method::Vocab1, &config, 8, hw.clone());
        let v2 = run_1f1b(Method::Vocab2, &config, 8, hw);
        assert!(v2.peak_microbatches[0] < v1.peak_microbatches[0]);
        assert!(v2.max_memory_gb() < v1.max_memory_gb());
    }

    /// The interlaced pipeline OOMs on the 21B / seq 4096 configuration
    /// (Table 5) while Vocab-2 does not.
    #[test]
    fn interlaced_ooms_on_21b_4096() {
        let hw = Hardware::default();
        let config = cfg(ModelPreset::Gpt21B, 256, 4096);
        let inter = run_1f1b(Method::Interlaced, &config, 32, hw.clone());
        let vocab = run_1f1b(Method::Vocab2, &config, 32, hw);
        assert!(
            inter.would_oom(),
            "interlaced peak {} GB",
            inter.max_memory_gb()
        );
        assert!(
            !vocab.would_oom(),
            "vocab-2 peak {} GB",
            vocab.max_memory_gb()
        );
    }

    /// Vocabulary Parallelism beats interlaced on multi-node setups
    /// (Table 5, 16–32 GPUs) thanks to overlapped communication.
    #[test]
    fn vocab_beats_interlaced_multi_node() {
        let hw = Hardware::default();
        let config = cfg(ModelPreset::Gpt21B, 256, 2048);
        let inter = run_1f1b(Method::Interlaced, &config, 32, hw.clone());
        let vocab = run_1f1b(Method::Vocab1, &config, 32, hw);
        assert!(
            vocab.mfu > inter.mfu,
            "vocab {} vs interlaced {}",
            vocab.mfu,
            inter.mfu
        );
    }

    /// Appendix B.2: the synchronous all-reduces cost roughly 10% of the
    /// interlaced iteration on 32 GPUs.
    #[test]
    fn interlaced_sync_ablation() {
        let hw = Hardware::default();
        let config = cfg(ModelPreset::Gpt21B, 256, 2048);
        let (with_sync, without) = run_interlaced_ablation(&config, 32, hw);
        let saving = (with_sync - without) / with_sync;
        assert!((0.03..0.25).contains(&saving), "saving {saving}");
    }

    /// Table 6 / Figure 14: V-Half baseline is massively memory-imbalanced
    /// at 256k; Vocab-1 balances it.
    #[test]
    fn vhalf_vocab_balances_memory() {
        let hw = Hardware::default();
        let config = cfg(ModelPreset::Gpt7B, 256, 2048);
        let base = run_vhalf(VHalfMethod::Baseline, &config, 16, hw.clone());
        let vocab = run_vhalf(VHalfMethod::Vocab1, &config, 16, hw);
        assert!(
            base.memory_spread_gb() > 10.0,
            "baseline spread {}",
            base.memory_spread_gb()
        );
        assert!(
            vocab.memory_spread_gb() < 3.0,
            "vocab spread {}",
            vocab.memory_spread_gb()
        );
        assert!(vocab.mfu > base.mfu);
    }

    /// Interleaved 1F1B accepts the same vocabulary integration: a third
    /// schedule family sustains flat MFU across vocabulary sizes at higher
    /// (known) activation cost.
    #[test]
    fn interleaved_vocab_is_flat_in_vocab_size() {
        let hw = Hardware::default();
        let mfu = |vk: usize| {
            let cfg = cfg(ModelPreset::Gpt4B, vk, 2048).with_num_microbatches(32);
            run_interleaved_vocab(&cfg, 8, 2, VocabVariant::Alg2, hw.clone()).mfu
        };
        let small = mfu(32);
        let large = mfu(256);
        assert!((large - small).abs() < 0.06 * small, "{small} vs {large}");
        // And it must beat the naive baseline at 256k.
        let cfg = cfg(ModelPreset::Gpt4B, 256, 2048).with_num_microbatches(32);
        let base = run_1f1b(Method::Baseline, &cfg, 8, hw).mfu;
        assert!(large > 1.3 * base, "interleaved {large} vs baseline {base}");
    }

    /// Zero-bubble 1F1B fills warm-up/drain bubbles with W (and, for
    /// Algorithm 2, T) passes: higher MFU than plain 1F1B at the same
    /// in-flight budget.
    #[test]
    fn zero_bubble_improves_mfu() {
        let hw = Hardware::default();
        let config = cfg(ModelPreset::Gpt4B, 128, 2048).with_num_microbatches(32);
        let plain = run_1f1b(Method::Vocab2, &config, 8, hw.clone());
        let zb = run_zero_bubble(&config, 8, hw, VocabVariant::Alg2);
        assert!(zb.mfu > plain.mfu, "zb {} vs plain {}", zb.mfu, plain.mfu);
        assert!(zb.peak_microbatches[0] <= plain.peak_microbatches[0] + 1);
    }

    /// The barrier-count ablation: activation memory tracks the barrier
    /// count (naive > Alg-1 > Alg-2) while all three sustain comparable
    /// throughput (the naive grouping pays slightly more).
    #[test]
    fn barrier_ablation_orders_memory_by_barriers() {
        let hw = Hardware::default();
        let config = cfg(ModelPreset::Gpt4B, 128, 2048);
        let reports = run_barrier_ablation(&config, 8, &hw);
        assert_eq!(reports.len(), 3);
        let naive = &reports[0];
        let alg1 = &reports[1];
        let alg2 = &reports[2];
        assert!(naive.peak_microbatches[0] >= alg1.peak_microbatches[0]);
        assert!(alg1.peak_microbatches[0] > alg2.peak_microbatches[0]);
        assert!(naive.max_memory_gb() > alg2.max_memory_gb());
        // Throughputs within a few percent of each other.
        assert!((naive.mfu - alg2.mfu).abs() < 0.05 * alg2.mfu);
    }

    /// Widening the tensor axis shards parameters: a grid device holds far
    /// less static state than the 4-deep flat pipeline's (transformer
    /// weights divide by tp).
    #[test]
    fn grid_tp_shards_memory() {
        let hw = Hardware::default();
        let config = cfg(ModelPreset::Gpt4B, 128, 2048);
        let ar = run_1f1b_grid(Method::Vocab2, &config, DeviceGrid::new(4, 4), hw.clone());
        let flat = run_1f1b(Method::Vocab2, &config, 4, hw);
        assert!(ar.param_bytes[1] < 0.5 * flat.param_bytes[1]);
        assert_eq!(ar.devices, 16);
    }

    /// V-Half's activation memory is balanced and lower than 1F1B's
    /// worst device.
    #[test]
    fn vhalf_activations_are_balanced() {
        let hw = Hardware::default();
        let config = cfg(ModelPreset::Gpt7B, 32, 2048);
        let v = run_vhalf(VHalfMethod::Vocab1, &config, 16, hw);
        let spread = v.memory_spread_gb();
        assert!(spread < 3.0, "spread {spread}");
    }
}
