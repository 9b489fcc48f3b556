#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Model configuration, analytical cost model and stage partitioning for
//! the Vocabulary Parallelism reproduction.
//!
//! This crate owns everything the paper derives *about* the model rather
//! than the training numerics themselves:
//!
//! * [`ModelConfig`] — GPT-style hyper-parameters plus the presets used in
//!   the paper's evaluation (Tables 1 and 2, Gemma2-9B for Figure 2).
//! * [`cost`] — the Appendix A FLOPs / parameter-memory formulas, the
//!   activation-memory model and a calibrated A100-like [`cost::Hardware`]
//!   description used by the discrete-event simulator.
//! * [`partition`] — vocabulary sharding with the paper's `2p` padding rule
//!   and the three stage-layout strategies compared in §6.2: the naive
//!   Megatron layout, greedy transformer-layer redistribution (*Redis*) and
//!   Vocabulary Parallelism.
//! * [`block`] — a real transformer block (attention + MLP with manual
//!   backprop) assembled from `vp-tensor`, used by the numeric runtime.

/// Real transformer blocks (attention + MLP with manual backprop).
pub mod block;
/// Model hyper-parameters and the paper's evaluation presets.
pub mod config;
/// The Appendix A analytical cost model and hardware description.
pub mod cost;
/// Closed-form per-device memory estimation (§5.2 arithmetic).
pub mod memory;
/// Vocabulary sharding and pipeline-stage layouts.
pub mod partition;
/// Megatron-style tensor-parallel sharding of the transformer block.
pub mod tp;

pub use block::{BlockCache, TransformerBlock};
pub use config::{ModelConfig, ModelPreset};
pub use cost::Hardware;
pub use memory::{estimate_1f1b, MemoryEstimate, PlacementKind, TpSyncStyle};
pub use partition::{StageLayout, VocabPartition};
pub use tp::{TpPartition, TpReduce};
