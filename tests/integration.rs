//! Cross-crate integration tests: the paper's claims exercised through the
//! facade crate's public API, spanning schedule generation, simulation,
//! numeric kernels and the training runtime together.

use vocab_parallelism::prelude::*;
use vp_core::VocabAlgo;
use vp_schedule::block::PassTimes;
use vp_schedule::exec::{Executor, UnitCosts};

fn fast(preset: ModelPreset, vocab_k: usize) -> ModelConfig {
    preset
        .config()
        .with_vocab(vocab_k * 1024)
        .with_num_microbatches(32)
}

/// The headline claim, end to end: at 256k vocabulary, Vocabulary
/// Parallelism improves simulated throughput by a large factor over the
/// naive baseline while using less peak memory.
#[test]
fn headline_throughput_and_memory_win() {
    let config = fast(ModelPreset::Gpt4B, 256);
    let baseline = run_1f1b(Method::Baseline, &config, 8, Hardware::default());
    let vocab = run_1f1b(Method::Vocab2, &config, 8, Hardware::default());
    assert!(
        vocab.mfu > 1.5 * baseline.mfu,
        "vocab {} vs baseline {}",
        vocab.mfu,
        baseline.mfu
    );
    assert!(vocab.max_memory_gb() < baseline.max_memory_gb());
    // Improvement shrinks at small vocabularies but never reverses.
    let config_small = fast(ModelPreset::Gpt4B, 32);
    let b2 = run_1f1b(Method::Baseline, &config_small, 8, Hardware::default());
    let v2 = run_1f1b(Method::Vocab2, &config_small, 8, Hardware::default());
    assert!(v2.mfu > b2.mfu);
}

/// Every schedule the simulator consumes also validates under the §5.1
/// dependency rules, and the simulated peak microbatch counts agree with
/// the building-block analysis within one microbatch.
#[test]
fn schedules_validate_and_match_analytic_memory() {
    let times = PassTimes::default();
    for p in [2usize, 4, 8] {
        let m = 24u32;
        for variant in [VocabVariant::Alg1, VocabVariant::Alg2] {
            let schedule = generators::vocab_1f1b(p, m, variant, times, true);
            let graph = vp_schedule::deps::validate(&schedule).expect("valid schedule");
            let costs = UnitCosts::new(times, 1);
            let report = Executor::new(&costs)
                .run_with_graph(&schedule, &graph, &[])
                .expect("a validated schedule runs to completion");
            let block = generators::vocab_1f1b_block(p, variant, times);
            for d in 0..p {
                let analytic = block.peak_activation_microbatches(d);
                let simulated = report.peak_resident_microbatches[d] as f64;
                assert!(
                    (simulated - analytic).abs() <= 1.0,
                    "p={p} {variant:?} d={d}: simulated {simulated} vs analytic {analytic}"
                );
            }
        }
    }
}

/// The numeric kernels and the training runtime agree: a pipelined model
/// using the partitioned output layer trains to the same losses as the
/// reference, and the three output-layer strategies agree with each other.
#[test]
fn numeric_equivalence_end_to_end() {
    let config = TinyConfig {
        layers: 2,
        hidden: 16,
        heads: 2,
        microbatches: 2,
        ..TinyConfig::default()
    };
    let reference = train_reference(&config, 4).expect("reference");
    for mode in [
        Mode::Baseline,
        Mode::Vocab(VocabAlgo::Alg1),
        Mode::Vocab(VocabAlgo::Alg2),
    ] {
        let schedule = schedule_for(
            mode,
            ScheduleFamily::OneFOneB,
            2,
            config.microbatches as u32,
        )
        .unwrap();
        let pipeline = train_schedule(&config, &schedule, 4, &DataSource::synthetic(&config))
            .expect("pipeline")
            .losses;
        for (i, (r, p)) in reference.iter().zip(&pipeline).enumerate() {
            assert!(
                (r - p).abs() < 1e-3 * (1.0 + r.abs()),
                "{mode:?} iter {i}: {r} vs {p}"
            );
        }
    }
}

/// The partitioner, cost model and simulator compose: redistribution
/// reduces the imbalance the cost model reports, and the simulator's
/// throughput ordering follows (baseline ≤ redis ≤ vocab at 256k).
#[test]
fn partitioner_and_simulator_agree_on_ordering() {
    let config = fast(ModelPreset::Gpt4B, 256);
    let base_layout = StageLayout::baseline(&config, 8);
    let redis_layout = StageLayout::redistributed(&config, 8);
    assert!(redis_layout.compute_imbalance(&config) < base_layout.compute_imbalance(&config));
    let hw = Hardware::default();
    let b = run_1f1b(Method::Baseline, &config, 8, hw.clone()).mfu;
    let r = run_1f1b(Method::Redis, &config, 8, hw.clone()).mfu;
    let v = run_1f1b(Method::Vocab1, &config, 8, hw).mfu;
    assert!(b < r && r < v, "b={b} r={r} v={v}");
}

/// V-Half + Vocab-1 balances memory across devices (Table 6's claim),
/// through the full facade path.
#[test]
fn vhalf_memory_balance_through_facade() {
    let config = fast(ModelPreset::Gpt7B, 256);
    let base = run_vhalf(VHalfMethod::Baseline, &config, 16, Hardware::default());
    let vocab = run_vhalf(VHalfMethod::Vocab1, &config, 16, Hardware::default());
    assert!(base.memory_spread_gb() > 5.0 * vocab.memory_spread_gb());
    assert!(vocab.mfu > base.mfu);
}

/// The sharded vocabulary layers verify against the reference through the
/// public verification API for every algorithm.
#[test]
fn vocabulary_layers_verify_via_public_api() {
    let mut rng = vp_tensor::init::seeded_rng(7);
    let w = vp_tensor::init::normal(&mut rng, 40, 8, 0.5);
    let x = vp_tensor::init::normal(&mut rng, 6, 8, 1.0);
    let labels = [0usize, 39, 13, 20, 7, 1];
    for algo in [VocabAlgo::Naive, VocabAlgo::Alg1, VocabAlgo::Alg2] {
        let cmp = vp_core::verify::compare_output_layer(algo, 5, &w, &x, &labels).unwrap();
        assert!(cmp.passes(1e-4), "{algo:?}: {cmp:?}");
    }
    let err = vp_core::verify::compare_input_layer(5, &w, &[0, 39, 13]).unwrap();
    assert!(err < 1e-6);
}

/// One event model for both timelines: a simulated execution and a traced
/// numeric run of the same schedule put the same `(name, microbatch,
/// chunk)` rows on every device, in the schedule's pass order, and both
/// render through the one Chrome writer.
#[test]
fn simulated_and_measured_rows_are_the_same_rows() {
    use vp_trace::{chrome::to_chrome_trace, TraceEvent, Track};
    let config = TinyConfig::default();
    let times = PassTimes::default();
    let schedule = generators::vocab_1f1b(2, 4, VocabVariant::Alg2, times, true);
    let report = Executor::new(&UnitCosts::new(times, 1))
        .run(&schedule)
        .expect("valid schedule");
    let simulated = vp_sim::simulated_events(&schedule, &report, 1e6);
    let (_, log) =
        vp_runtime::train_schedule_traced(&config, &schedule, 2, &DataSource::synthetic(&config))
            .expect("traced run");
    let measured: Vec<TraceEvent> = log
        .events()
        .into_iter()
        .filter(|e| e.track == Track::Compute)
        .collect();
    let rows = |events: &[TraceEvent], d: usize| {
        let mut row: Vec<&TraceEvent> = events.iter().filter(|e| e.device == d as u32).collect();
        row.sort_by_key(|e| e.start_ns);
        row.iter()
            .map(|e| (e.name, e.microbatch, e.chunk))
            .collect::<Vec<_>>()
    };
    for d in 0..schedule.devices() {
        let expected: Vec<_> = schedule
            .passes(d)
            .iter()
            .map(|p| (p.kind.name(), p.microbatch, p.chunk))
            .collect();
        assert_eq!(rows(&simulated, d), expected, "simulated device {d}");
        assert_eq!(rows(&measured, d), expected, "measured device {d}");
    }
    for events in [&simulated, &measured] {
        let json = to_chrome_trace(events);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), events.len());
        assert_eq!(json.matches("process_name").count(), 2);
    }
}

/// Serving smoke: the 2-stage pipelined, KV-cached, vocabulary-sharded
/// decode engine greedy-decodes exactly the tokens of the single-device
/// full-context `reference_decode`.
#[test]
fn pp2_greedy_decode_matches_reference_decode() {
    use vp_runtime::serve::{ServeConfig, WorkloadSpec};
    let config = ServeConfig {
        devices: 2,
        ..ServeConfig::default()
    };
    let requests = WorkloadSpec {
        requests: 5,
        rate: None,
        prompt_len: (2, 6),
        output_len: (1, 8),
        seed: 9,
    }
    .generate(config.model.vocab, config.model.seq_len);
    assert!(vp_runtime::greedy_matches_reference(&config, &requests).unwrap());
}

/// FNV-1a, 64-bit, over the bytes of a report's fields.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn report(&mut self, r: &SimReport) {
        self.bytes(r.method.as_bytes());
        self.word(r.devices as u64);
        self.word(r.iteration_seconds.to_bits());
        self.word(r.mfu.to_bits());
        for v in [
            &r.peak_memory_bytes,
            &r.param_bytes,
            &r.activation_bytes,
            &r.bubble_fraction,
        ] {
            v.iter().for_each(|x| self.word(x.to_bits()));
        }
        r.peak_microbatches
            .iter()
            .for_each(|&n| self.word(n as u64));
    }
}

/// Every simulated method runs through one path, and its reports are pinned
/// bit for bit: the digest covers each `Method` at two vocabulary sizes
/// (the flat pipeline, i.e. the `pp × 1` grid), the `pp × tp` grid under
/// both sync styles, V-Half, the barrier ablation, zero-bubble and
/// interleaved vocabulary schedules, and the interlaced sync ablation. The
/// pinned value was computed from the separate flat and grid simulators
/// this one path replaced, so a change to any report bit fails here.
#[test]
fn simulator_reports_are_pinned_bitwise() {
    use vp_model::TpSyncStyle;
    use vp_schedule::grid::DeviceGrid;
    use vp_sim::{
        run_1f1b_grid, run_barrier_ablation, run_interlaced_ablation, run_interleaved_vocab,
        run_zero_bubble,
    };
    let hw = Hardware::default();
    let config = |vocab_k: usize| {
        ModelPreset::Gpt4B
            .config()
            .with_vocab(vocab_k * 1024)
            .with_num_microbatches(16)
    };
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for vocab_k in [32, 256] {
        let config = config(vocab_k);
        for method in Method::all() {
            h.report(&run_1f1b(method, &config, 8, hw.clone()));
        }
    }
    let config = config(256);
    for sync in [TpSyncStyle::AllReduce, TpSyncStyle::Psa] {
        for tp in [2, 4] {
            for method in Method::all() {
                let grid = DeviceGrid::new(16 / tp, tp);
                h.report(&run_1f1b_grid(method, &config, grid, sync, hw.clone()));
            }
        }
    }
    for method in [VHalfMethod::Baseline, VHalfMethod::Vocab1] {
        h.report(&run_vhalf(method, &config, 8, hw.clone()));
    }
    run_barrier_ablation(&config, 8, &hw)
        .iter()
        .for_each(|r| h.report(r));
    for variant in [VocabVariant::Alg1, VocabVariant::Alg2] {
        h.report(&run_zero_bubble(&config, 8, hw.clone(), variant));
        h.report(&run_interleaved_vocab(&config, 8, 2, variant, hw.clone()));
    }
    let (with_sync, without) = run_interlaced_ablation(&config, 8, hw);
    h.word(with_sync.to_bits());
    h.word(without.to_bits());
    assert_eq!(h.0, 0xa076_acf3_53b5_21a5, "digest {:#018x}", h.0);
}

/// The training runtime's vocabulary passes are pinned bit for bit: three
/// iterations of Vocab-2 1F1B on a vocabulary-heavy shape (V = 4096,
/// h = 16, two devices), untied and tied, digested over every loss bit and
/// every device's final checkpoint (the vocabulary-shard weights and their
/// Adam moments among them). Any drift in `S`, `T` or the input backward
/// fails here. One digest per accuracy policy (`VP_FAST_MATH`), computed
/// before the vocabulary passes were reworked.
#[test]
fn vocab_training_is_pinned_bitwise() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for tied in [false, true] {
        let config = TinyConfig {
            layers: 2,
            hidden: 16,
            heads: 2,
            vocab: 4096,
            tied,
            ..TinyConfig::default()
        };
        let m = config.microbatches as u32;
        let schedule =
            schedule_for(Mode::Vocab(VocabAlgo::Alg2), ScheduleFamily::OneFOneB, 2, m).unwrap();
        let out = train(
            &config,
            &TrainSpec::new(&schedule),
            3,
            &DataSource::synthetic(&config),
        )
        .unwrap();
        out.report.losses.iter().for_each(|l| h.word(l.to_bits()));
        out.checkpoint.shards.iter().for_each(|s| h.bytes(s));
    }
    let want = if vp_tensor::mathx::fast_math() {
        0xf550_a7c9_e38c_3b3f
    } else {
        0x7f03_fb9a_c990_36b0
    };
    assert_eq!(h.0, want, "digest {:#018x}", h.0);
}

/// Tensor-parallel training is pinned bit for bit: three iterations of a
/// `pp 2 × tp 2` grid on Vocab-2 1F1B and on zero-bubble Vocab-2 1F1B (whose
/// `B` is the shadow backward and whose `W` folds the stashed gradients),
/// digested over every loss bit and every device's final checkpoint (the
/// sharded block weights and their Adam moments among them). One digest per
/// accuracy policy (`VP_FAST_MATH`), computed while a shard was still its
/// own block type.
#[test]
fn tp_grid_training_is_pinned_bitwise() {
    let config = TinyConfig::default();
    let m = config.microbatches as u32;
    let zb_times = PassTimes {
        f: 1.0,
        b: 1.0,
        w: 1.0,
        ..PassTimes::default()
    };
    let schedules = [
        schedule_for(Mode::Vocab(VocabAlgo::Alg2), ScheduleFamily::OneFOneB, 2, m).unwrap(),
        generators::zb_vocab_1f1b(2, m, VocabVariant::Alg2, zb_times, true),
    ];
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for schedule in &schedules {
        let spec = TrainSpec {
            tp: 2,
            ..TrainSpec::new(schedule)
        };
        let out = train(&config, &spec, 3, &DataSource::synthetic(&config)).unwrap();
        out.report.losses.iter().for_each(|l| h.word(l.to_bits()));
        out.checkpoint.shards.iter().for_each(|s| h.bytes(s));
    }
    let want = if vp_tensor::mathx::fast_math() {
        0xd66d_aa00_0f50_ede5
    } else {
        0xb4dd_8456_dba9_d51d
    };
    assert_eq!(h.0, want, "digest {:#018x}", h.0);
}

/// Chunked prefill is pinned bit for bit, end to end and inside the
/// blocks. The pp2 serving engine feeds prompts of 40–70 tokens 16 at a
/// time, so every prefill chunk attends a long prefix with a full chunk of
/// rows; the digest covers every completion's token ids and logprob bits,
/// in request order. A random-init model's logprobs round away a last-bit
/// change in the hidden state, so the digest also covers the hidden-state
/// bits of the same model's blocks run over a 70-row sequence in 16-row
/// `forward_decode` chunks. One digest per accuracy policy
/// (`VP_FAST_MATH`), computed before the block forward ran on pre-packed
/// weights and tiled chunk attention.
#[test]
fn chunked_prefill_is_pinned_bitwise() {
    use vp_runtime::serve::{ServeConfig, ServeEngine, WorkloadSpec};
    use vp_runtime::FullModel;
    use vp_tensor::nn::KvCache;
    let model = TinyConfig {
        layers: 2,
        hidden: 64,
        heads: 2,
        seq_len: 80,
        ..TinyConfig::default()
    };
    let config = ServeConfig {
        model: model.clone(),
        devices: 2,
        max_batch: 3,
        prefill_chunk: 16,
        ..ServeConfig::default()
    };
    let requests = WorkloadSpec {
        requests: 6,
        rate: None,
        prompt_len: (40, 70),
        output_len: (1, 6),
        seed: 35,
    }
    .generate(model.vocab, model.seq_len);
    let mut engine = ServeEngine::start(config).unwrap();
    let mut run = engine.serve(&requests);
    engine.shutdown();
    assert_eq!(run.completions.len(), requests.len());
    run.completions.sort_by_key(|c| c.id);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for c in &run.completions {
        c.tokens.iter().for_each(|&t| h.word(t as u64));
        c.logprobs
            .iter()
            .for_each(|l| h.word(u64::from(l.to_bits())));
    }
    let blocks = FullModel::build(&model).blocks;
    let mut rng = vp_tensor::init::seeded_rng(35);
    let x = vp_tensor::init::normal(&mut rng, 70, model.hidden, 1.0);
    let mut caches: Vec<KvCache> = blocks.iter().map(|_| KvCache::new(model.hidden)).collect();
    for r0 in (0..x.rows()).step_by(16) {
        let mut y = x.slice_rows(r0, x.rows().min(r0 + 16)).unwrap();
        for (block, kv) in blocks.iter().zip(&mut caches) {
            y = block.forward_decode(&y, kv).unwrap();
        }
        y.data().iter().for_each(|v| h.word(u64::from(v.to_bits())));
    }
    let want = if vp_tensor::mathx::fast_math() {
        0x6aa5_3243_40c4_3a2e
    } else {
        0xa7b1_30bb_59e8_004b
    };
    assert_eq!(h.0, want, "digest {:#018x}", h.0);
}
