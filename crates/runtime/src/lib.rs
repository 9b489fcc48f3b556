#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Thread-per-stage pipeline-parallel training runtime with real numerics.
//!
//! This crate is the executable counterpart of the paper's Appendix E
//! (correctness evaluation): it trains a small GPT with *pure pipeline
//! parallelism* across in-process "devices" (threads), with the vocabulary
//! layers either placed naively (first/last stage, the Megatron baseline)
//! or partitioned across all devices with the paper's Algorithms 1/2 (or
//! the naive 3-barrier grouping). Loss trajectories must match the
//! single-device reference — the analogue of the paper's Figure 17.
//!
//! * [`data`] — deterministic synthetic corpora (the stand-in for the
//!   paper's customized C4 dataset; both sides see identical tokens).
//! * [`model`] — model construction from a seed: the whole model for the
//!   reference, and each piece a device hosts from its place on the same
//!   initialization stream, so initial weights are bit-identical.
//! * [`mod@reference`] / [`checkpoint`] — the single-device
//!   [`ReferenceTrainer`], resumable with exact save/restore of weights,
//!   Adam moments and step count.
//! * [`pipeline`] — the schedule front end: [`schedule_for`] maps a
//!   `(Mode, ScheduleFamily)` selection onto the matching generator.
//! * [`train`] — **the one way to start a training run**: a [`TrainSpec`]
//!   names the schedule and its place in a `dp × pp × tp` device layout
//!   (tensor-parallel width, data-parallel replicas, a
//!   [`PipelineCheckpoint`] to resume from, whether to trace), and the
//!   [`TrainOutcome`] carries the [`TrainReport`] (losses plus real pass
//!   timings in the simulator's `ExecReport` shape), the end-of-run
//!   parameters, serialized into a checkpoint ([`distributed_ckpt`]) only
//!   on request, and the optional [`TraceLog`].
//!   [`train_schedule`] / [`train_schedule_traced`] are its flat-pipeline
//!   projections.
//! * [`engine`] — the generic schedule interpreter (pass-VM) every device
//!   thread of a run executes: it walks *any* validated `vp-schedule` pass
//!   list, dispatching on pass kind alone — `F`/`B`/`W` transformer
//!   passes, the vocabulary `S`/`T` passes, sharded input passes —
//!   exchanges activations over `vp-collectives` point-to-point channels,
//!   overlaps the `C1` barrier on a per-device communication stream, and
//!   steps Adam locally.
//! * [`serve`] — forward-only inference serving: per-layer KV caches from
//!   the buffer arena, continuous batching, and the Algorithm-2 output
//!   layer repurposed as a single-barrier sampling merge, bitwise equal
//!   to a single-device full-context reference under greedy decoding.
//!
//! Internal modules: `group` (the device group that starts every device
//! thread of [`train`] and [`ServeEngine`]), `launch` ([`train`]), `stage`
//! (full or tensor-parallel transformer blocks behind one type), `comm`
//! (tag spaces, stage geometry, the p2p `Link`), `state` (activation and
//! vocabulary stores, barrier slots), `vocab` (vocabulary-layer passes).

pub mod checkpoint;
mod comm;
pub mod data;
pub mod distributed_ckpt;
pub mod engine;
pub mod eval;
mod group;
mod launch;
pub mod model;
pub mod pipeline;
pub mod reference;
pub mod serve;
mod stage;
mod state;
#[cfg(test)]
mod testutil;
mod vocab;

pub use checkpoint::ReferenceTrainer;
pub use data::{DataSource, SyntheticCorpus};
pub use distributed_ckpt::PipelineCheckpoint;
pub use engine::mode_of_schedule;
pub use eval::EvalReport;
pub use launch::{
    train, train_schedule, train_schedule_traced, TrainOutcome, TrainReport, TrainSpec,
};
pub use model::{FullModel, TinyConfig};
pub use pipeline::{schedule_for, Mode, ScheduleFamily};
pub use reference::{train_reference, train_reference_on};
pub use serve::{greedy_matches_reference, reference_decode, ServeConfig, ServeEngine};
pub use vp_trace::{TimelineReport, TraceLog, Tracer};
