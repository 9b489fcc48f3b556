#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Vocabulary Parallelism: the paper's core contribution.
//!
//! The output (unembedding + softmax + cross-entropy) and input (embedding)
//! layers are partitioned across all pipeline devices along the vocabulary
//! dimension, and their computation is grouped into pipeline passes
//! separated by communication barriers (§4):
//!
//! * [`output::OutputShard`] — one device's `V/p` slice of the output
//!   layer, with three interchangeable execution strategies:
//!   the **naive** 3-barrier grouping (§4.1), **Algorithm 1** (forward
//!   optimization via online-softmax rescaling, 2 barriers, §4.3) and
//!   **Algorithm 2** (backward optimization, a single barrier, §4.4).
//! * [`input::InputShard`] — one device's slice of the embedding table
//!   (Appendix C): forward is a partial gather + all-reduce, backward a
//!   local scatter-add.
//! * [`tied::TiedShard`] — tied input/output embeddings (§6.1): with both
//!   shards on the same device, one weight tensor serves both layers and
//!   accumulates both gradients with no extra synchronization.
//! * [`verify`] — harnesses that run all shards on threads against a
//!   single-device reference and compare losses and gradients, the
//!   numerical backbone of the correctness evaluation (Appendix E).
//!
//! All three strategies produce **identical** losses and gradients (up to
//! `f32` rounding) to the unpartitioned reference; the property tests in
//! this crate enforce that for arbitrary shapes and shard counts.

pub mod input;
pub mod output;
pub mod tied;
pub mod verify;

pub use input::InputShard;
pub use output::{
    decode_s_pass, merge_decode, DecodeSState, OutputShard, SState, TokenChoice, DECODE_VOCAB_LIMIT,
};
pub use tied::TiedShard;
pub use vp_model::cost::VocabAlgo;
