#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # Vocabulary Parallelism
//!
//! A from-scratch Rust reproduction of **"Balancing Pipeline Parallelism
//! with Vocabulary Parallelism"** (Yeung, Qi, Lin, Wan — MLSys 2025).
//!
//! Transformer pipelines place the input embedding on the first stage and
//! the output embedding + softmax on the last; as vocabularies grow (32k →
//! 256k), those stages dominate both compute and memory, creating bubbles
//! everywhere else. The paper partitions the vocabulary layers across *all*
//! pipeline devices, groups their computation into pipeline passes `S` and
//! `T`, reduces the softmax's communication barriers from 3 to 2
//! (Algorithm 1) or 1 (Algorithm 2) via online-softmax rescaling, and
//! splices those passes into existing schedules through their building
//! blocks — costing at most `barriers` extra in-flight microbatches of
//! activation memory.
//!
//! This workspace rebuilds the full system in Rust:
//!
//! | crate | role |
//! |---|---|
//! | [`vp_tensor`] | CPU tensor substrate with manual-backprop NN layers |
//! | [`vp_collectives`] | simulated multi-device collectives, p2p, comm streams |
//! | [`vp_model`] | model configs, Appendix A cost model, stage partitioners |
//! | [`vp_schedule`] | pass/building-block framework, 1F1B / V-Half / interlaced generators, validator, executor |
//! | [`vp_core`] | **the paper's contribution**: partitioned vocabulary layers (naive / Alg 1 / Alg 2) |
//! | [`vp_sim`] | discrete-event simulator regenerating the paper's tables |
//! | [`vp_runtime`] | generic schedule interpreter training real numerics on any validated schedule |
//! | [`vp_data`] | dataset substrate: BPE tokenizer, text corpus, packed GPT samples |
//! | [`vp_check`] | static schedule verifier: deadlock freedom, communication lints, activation liveness, race detection — rustc-style `VP00xx` diagnostics |
//! | [`vp_trace`] | timeline events of measured and simulated runs, timeline analysis, Chrome trace export |
//!
//! # Quickstart
//!
//! Compare the Megatron-style baseline against Vocabulary Parallelism on a
//! simulated 8-device pipeline with a 256k vocabulary:
//!
//! ```
//! use vocab_parallelism::prelude::*;
//!
//! let config = ModelPreset::Gpt4B.config().with_vocab(256 * 1024).with_num_microbatches(16);
//! let baseline = run_1f1b(Method::Baseline, &config, 8, Hardware::default());
//! let vocab = run_1f1b(Method::Vocab2, &config, 8, Hardware::default());
//! assert!(vocab.mfu > baseline.mfu);
//! assert!(vocab.max_memory_gb() < baseline.max_memory_gb());
//! ```
//!
//! Or train a tiny GPT with real numerics and verify the pipelined loss
//! matches the single-device reference (`examples/train_tiny_gpt.rs`).

pub use vp_check;
pub use vp_collectives;
pub use vp_core;
pub use vp_data;
pub use vp_model;
pub use vp_runtime;
pub use vp_schedule;
pub use vp_sim;
pub use vp_tensor;
pub use vp_trace;

/// The most common imports for using the reproduction as a library.
pub mod prelude {
    pub use vp_check::{check, check_decode, CheckReport};
    pub use vp_core::{InputShard, OutputShard, VocabAlgo};
    pub use vp_model::config::{ModelConfig, ModelPreset};
    pub use vp_model::cost::{CostModel, Hardware};
    pub use vp_model::partition::{StageLayout, VocabPartition};
    pub use vp_runtime::{
        schedule_for, train, train_reference, train_schedule, DataSource, Mode, ScheduleFamily,
        TinyConfig, TrainReport, TrainSpec,
    };
    pub use vp_schedule::generators;
    pub use vp_schedule::pass::{PassKind, Schedule, VocabVariant};
    pub use vp_sim::{run_1f1b, run_vhalf, Method, SimReport, VHalfMethod};
    pub use vp_tensor::Tensor;
}
