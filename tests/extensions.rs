//! Integration tests for the extensions built on top of the core
//! reproduction (see DESIGN.md §10), exercised through the facade crate.

use std::sync::Arc;
use vocab_parallelism::prelude::*;
use vp_core::VocabAlgo;
use vp_schedule::block::PassTimes;
use vp_schedule::exec::{Executor, UnitCosts};

/// Zero-bubble 1F1B with Vocab-2: both `W` and the deferrable `T` fill
/// bubbles, beating plain 1F1B+Vocab-2 in simulated MFU at equal memory.
#[test]
fn zero_bubble_vocab_beats_plain_vocab() {
    let config = ModelPreset::Gpt4B
        .config()
        .with_vocab(256 * 1024)
        .with_num_microbatches(32);
    let plain = run_1f1b(Method::Vocab2, &config, 8, Hardware::default());
    let zb = vp_sim::run_zero_bubble(&config, 8, Hardware::default(), Some(VocabVariant::Alg2));
    assert!(zb.mfu > plain.mfu, "zb {} vs plain {}", zb.mfu, plain.mfu);
}

/// The barrier ablation through the facade: memory ordered 3 > 2 > 1
/// barriers at comparable throughput.
#[test]
fn barrier_ablation_shape_via_facade() {
    let config = ModelPreset::Gpt4B
        .config()
        .with_vocab(256 * 1024)
        .with_num_microbatches(32);
    let reports = vp_sim::run_barrier_ablation(&config, 8, &Hardware::default());
    assert!(reports[0].max_memory_gb() > reports[2].max_memory_gb());
    assert!((reports[0].mfu - reports[2].mfu).abs() < 0.06 * reports[2].mfu);
}

/// Interleaved 1F1B with vocabulary passes — the third schedule family —
/// validates and sustains throughput under the same dependency rules.
#[test]
fn interleaved_vocab_schedules_validate() {
    let times = PassTimes {
        f: 0.5,
        b: 1.0,
        ..PassTimes::default()
    };
    for variant in [VocabVariant::Alg1, VocabVariant::Alg2] {
        let sched = generators::interleaved_vocab_1f1b(4, 2, 16, variant, times, false);
        vp_schedule::deps::validate(&sched).expect("interleaved vocab schedule validates");
        let costs = UnitCosts::new(times, 2);
        let report = Executor::new(&costs).run(&sched).unwrap();
        assert!(report.makespan > 0.0);
    }
}

/// Tied embeddings and the data pipeline compose: a tied vocab-parallel
/// pipeline trains on BPE-tokenized text and matches the tied reference.
#[test]
fn tied_training_on_bpe_text_matches_reference() {
    use vp_data::{BpeTokenizer, PackedDataset, TextCorpus};
    use vp_runtime::data::Microbatch;
    let text = TextCorpus::new(5).text(100);
    let tok = BpeTokenizer::train(&text, 300);
    let ds = PackedDataset::new(tok.encode(&text), 16).unwrap();
    let samples: Vec<Microbatch> = ds
        .epoch(0)
        .into_iter()
        .map(|s| Microbatch {
            tokens: s.tokens,
            labels: s.labels,
        })
        .collect();
    let source = DataSource::Fixed(Arc::new(samples));
    let config = TinyConfig {
        vocab: tok.vocab_size(),
        tied: true,
        ..TinyConfig::default()
    };
    let reference = vp_runtime::train_reference_on(&config, 4, &source).unwrap();
    let m = config.microbatches as u32;
    let schedule =
        schedule_for(Mode::Vocab(VocabAlgo::Alg2), ScheduleFamily::OneFOneB, 2, m).unwrap();
    let pipeline = train_schedule(&config, &schedule, 4, &source)
        .unwrap()
        .losses;
    for (r, p) in reference.iter().zip(&pipeline) {
        assert!((r - p).abs() < 1e-3 * (1.0 + r.abs()), "{r} vs {p}");
    }
}

/// Data parallelism composes with V-Half and Vocabulary Parallelism — the
/// full grid — and still matches the single-device reference.
#[test]
fn dp_vhalf_vocab_matches_reference() {
    let config = TinyConfig::default(); // 4 layers = 2 devices × 2 chunks
    let src = DataSource::synthetic(&config);
    let reference = train_reference(&config, 4).unwrap();
    let m = (config.microbatches / 2) as u32;
    let schedule = schedule_for(Mode::Vocab(VocabAlgo::Alg1), ScheduleFamily::VHalf, 2, m).unwrap();
    let spec = TrainSpec {
        dp: 2,
        ..TrainSpec::new(&schedule)
    };
    let dp_run = train(&config, &spec, 4, &src).unwrap().report.losses;
    for (i, (r, p)) in reference.iter().zip(&dp_run).enumerate() {
        assert!(
            (r - p).abs() < 1e-3 * (1.0 + r.abs()),
            "iter {i}: {r} vs {p}"
        );
    }
}

/// The checkpointed trainer resumes exactly through the facade.
#[test]
fn checkpoint_resume_via_facade() {
    let config = TinyConfig::default();
    let src = DataSource::synthetic(&config);
    let mut full = vp_runtime::ReferenceTrainer::new(&config);
    let all = full.train(6, &src).unwrap();
    let mut head = vp_runtime::ReferenceTrainer::new(&config);
    let first = head.train(3, &src).unwrap();
    let mut tail = vp_runtime::ReferenceTrainer::load(&config, &head.save()).unwrap();
    let rest = tail.train(3, &src).unwrap();
    let stitched: Vec<f64> = first.into_iter().chain(rest).collect();
    assert_eq!(stitched, all);
}

/// The closed-form memory estimator and the simulator agree through the
/// public API.
#[test]
fn estimator_matches_simulator_via_facade() {
    let config = ModelPreset::Gpt4B
        .config()
        .with_vocab(128 * 1024)
        .with_num_microbatches(32);
    let hw = Hardware::default();
    let layout = StageLayout::vocab_parallel(&config, 8);
    let analytic = vp_model::memory::estimate_1f1b(
        &config,
        &hw,
        &layout,
        vp_model::memory::PlacementKind::VocabParallel { barriers: 1 },
    );
    let simulated = run_1f1b(Method::Vocab2, &config, 8, hw);
    #[allow(clippy::needless_range_loop)] // d indexes two parallel reports
    for d in 0..8 {
        let a = analytic[d].total_gb();
        let s = simulated.peak_memory_bytes[d] / 1e9;
        assert!((a - s).abs() < 1.5, "device {d}: {a} vs {s}");
    }
}
