//! Train a tiny GPT three ways — single device, pipelined with the
//! Megatron-style baseline, and pipelined with Vocabulary Parallelism
//! (Algorithm 2) — and show the loss curves coincide (the paper's
//! Figure 17 / Appendix E correctness evaluation).
//!
//! ```text
//! cargo run --release --example train_tiny_gpt
//! ```

use vocab_parallelism::prelude::*;
use vp_core::VocabAlgo;

fn main() {
    let config = TinyConfig::default();
    let iterations = 15;
    println!(
        "tiny GPT: {} layers, hidden {}, vocab {}, {} microbatches of {} tokens; 4 pipeline devices\n",
        config.layers, config.hidden, config.vocab, config.microbatches, config.seq_len
    );

    let reference = train_reference(&config, iterations).expect("reference training");
    let corpus = DataSource::synthetic(&config);
    let pipeline = |mode| {
        let m = config.microbatches as u32;
        let schedule = schedule_for(mode, ScheduleFamily::OneFOneB, 4, m)?;
        train_schedule(&config, &schedule, iterations, &corpus).map(|r| r.losses)
    };
    let baseline = pipeline(Mode::Baseline).expect("baseline pipeline");
    let vocab2 = pipeline(Mode::Vocab(VocabAlgo::Alg2)).expect("vocab-2 pipeline");

    println!(
        "{:>5} {:>12} {:>12} {:>12}",
        "iter", "reference", "pp-baseline", "pp-vocab-2"
    );
    for i in 0..iterations {
        println!(
            "{:>5} {:>12.6} {:>12.6} {:>12.6}",
            i, reference[i], baseline[i], vocab2[i]
        );
    }
    let max_dev = reference
        .iter()
        .zip(baseline.iter().zip(&vocab2))
        .map(|(r, (b, v))| (r - b).abs().max((r - v).abs()))
        .fold(0.0f64, f64::max);
    println!("\nmax |Δloss| vs reference: {max_dev:.2e}");
    println!("All three implementations follow the same trajectory — the partitioned");
    println!("softmax (Algorithms 1/2) is numerically equivalent to the full softmax.");
}
