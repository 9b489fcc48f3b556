//! The full data path of the artifact, offline: generate a text corpus,
//! train a BPE tokenizer (the vocabulary whose size drives the whole
//! paper), pack the token stream into GPT samples, and train the tiny
//! model with Vocabulary Parallelism on it.
//!
//! ```text
//! cargo run --release --example train_on_text
//! ```

use std::sync::Arc;
use vocab_parallelism::prelude::*;
use vp_core::VocabAlgo;
use vp_data::{BpeTokenizer, PackedDataset, TextCorpus, TokenFile};
use vp_runtime::data::Microbatch;

fn main() {
    // 1. Corpus + tokenizer (the paper sweeps exactly this vocabulary size).
    let corpus = TextCorpus::new(7);
    let text = corpus.text(200);
    let tokenizer = BpeTokenizer::train(&text, 384);
    let ids = tokenizer.encode(&text);
    println!(
        "corpus: {} bytes → {} tokens with a {}-entry BPE vocabulary ({}x compression)",
        text.len(),
        ids.len(),
        tokenizer.vocab_size(),
        text.len() / ids.len().max(1)
    );

    // 2. Binary round-trip (the Megatron-style on-disk format).
    let file = TokenFile {
        vocab_size: tokenizer.vocab_size() as u32,
        tokens: ids.clone(),
    };
    let blob = file.to_bytes();
    let parsed = TokenFile::from_bytes(blob.clone()).expect("round trip");
    println!(
        "token file: {} bytes on disk, parses back identically: {}",
        blob.len(),
        parsed == file
    );

    // 3. Pack into training samples.
    let seq_len = 16;
    let dataset = PackedDataset::new(ids, seq_len).expect("enough tokens");
    let samples: Vec<Microbatch> = dataset
        .epoch(0)
        .into_iter()
        .map(|s| Microbatch {
            tokens: s.tokens,
            labels: s.labels,
        })
        .collect();
    println!("packed {} samples of {seq_len} tokens", samples.len());

    // 4. Train with pipeline + vocabulary parallelism on 4 devices.
    let config = TinyConfig {
        vocab: tokenizer.vocab_size(),
        ..TinyConfig::default()
    };
    let source = DataSource::Fixed(Arc::new(samples));
    let schedule = schedule_for(
        Mode::Vocab(VocabAlgo::Alg2),
        ScheduleFamily::OneFOneB,
        4,
        config.microbatches as u32,
    )
    .expect("Vocab-2 1F1B is a supported schedule");
    let losses = train_schedule(&config, &schedule, 15, &source)
        .expect("training succeeds")
        .losses;
    println!("\niter  loss");
    for (i, l) in losses.iter().enumerate() {
        println!("{i:>4}  {l:.4}");
    }
    println!(
        "\nloss fell from {:.3} to {:.3} on BPE-tokenized text under Vocab-2 pipeline training.",
        losses[0],
        losses.last().unwrap()
    );
}
