//! End-to-end integration with the `vp-data` substrate: train the tiny GPT
//! on a BPE-tokenized synthetic text corpus (the offline analogue of the
//! artifact's customized C4 pipeline) and verify that the pipelined
//! implementation with Vocabulary Parallelism matches the single-device
//! reference on real data too.

use std::sync::Arc;
use vp_core::VocabAlgo;
use vp_data::{BpeTokenizer, PackedDataset, TextCorpus};
use vp_runtime::data::{DataSource, Microbatch};
use vp_runtime::{
    schedule_for, train_reference_on, train_schedule, Mode, ScheduleFamily, TinyConfig,
};

/// 1F1B Vocab-`algo` over `devices` stages on `source`; returns the losses.
fn train_1f1b(
    config: &TinyConfig,
    devices: usize,
    algo: VocabAlgo,
    iterations: usize,
    source: &DataSource,
) -> Vec<f64> {
    let m = config.microbatches as u32;
    let schedule = schedule_for(Mode::Vocab(algo), ScheduleFamily::OneFOneB, devices, m).unwrap();
    train_schedule(config, &schedule, iterations, source)
        .unwrap()
        .losses
}

fn bpe_source(seq_len: usize, vocab_target: usize) -> (DataSource, usize) {
    let corpus = TextCorpus::new(21);
    let text = corpus.text(120);
    let tok = BpeTokenizer::train(&text, vocab_target);
    let ids = tok.encode(&text);
    let ds = PackedDataset::new(ids, seq_len).expect("enough tokens");
    let samples: Vec<Microbatch> = ds
        .epoch(0)
        .into_iter()
        .map(|s| Microbatch {
            tokens: s.tokens,
            labels: s.labels,
        })
        .collect();
    (DataSource::Fixed(Arc::new(samples)), tok.vocab_size())
}

#[test]
fn pipelined_training_on_bpe_data_matches_reference() {
    let (source, vocab) = bpe_source(16, 320);
    let config = TinyConfig {
        vocab,
        ..TinyConfig::default()
    };
    let reference = train_reference_on(&config, 5, &source).unwrap();
    for algo in [VocabAlgo::Alg1, VocabAlgo::Alg2] {
        let pipeline = train_1f1b(&config, 4, algo, 5, &source);
        for (i, (r, p)) in reference.iter().zip(&pipeline).enumerate() {
            assert!(
                (r - p).abs() < 1e-3 * (1.0 + r.abs()),
                "{algo:?} iter {i}: {r} vs {p}"
            );
        }
    }
}

#[test]
fn loss_decreases_on_real_text() {
    let (source, vocab) = bpe_source(16, 320);
    let config = TinyConfig {
        vocab,
        ..TinyConfig::default()
    };
    let losses = train_1f1b(&config, 2, VocabAlgo::Alg2, 12, &source);
    assert!(
        losses.last().unwrap() < &losses[0],
        "loss should fall on structured text: {losses:?}"
    );
}
