#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Pipeline schedules as data: passes, building blocks, generators,
//! dependency validation and a deterministic list-scheduling executor.
//!
//! The paper's §5 integrates vocabulary passes into existing pipeline
//! schedules by modifying their *building blocks* (Qi et al. 2024): a
//! schedule is the uniform repetition of a per-microbatch pattern, and its
//! peak activation memory is `lifespan / interval` of that pattern. This
//! crate implements that framework end to end:
//!
//! * [`pass`] — typed pipeline passes ([`PassKind`]): transformer `F`/`B`/`W`,
//!   the vocabulary passes `S`/`S2`/`T`, sharded input-layer passes and the
//!   interlaced (tensor-parallel style) output passes.
//! * [`block`] — building blocks with per-device pass offsets, repeat
//!   interval, lifespan and the analytic activation-memory bound; uniform
//!   repetition generates a [`Schedule`].
//! * [`generators`] — 1F1B (plain, Vocab-1/Vocab-2/naive, interlaced) and
//!   V-Half (plain, Vocab-1) blocks, parameterized by relative pass times.
//! * [`deps`] — the §5.1 scheduling constraints as an explicit cross-device
//!   dependency relation, plus a validator (completeness and
//!   deadlock-freedom of the per-device orderings).
//! * [`hb`] — the happens-before graph (program order + dependency edges)
//!   with minimal-cycle extraction, so a deadlock names the exact passes
//!   forming the cycle.
//! * [`facts`] — static buffer/communication facts: what each pass reads
//!   and writes, and which collective class each edge realizes. Consumed
//!   by the `vp-check` static analyzer.
//! * [`grid`] — the 2D `pp × tp` device grid layout
//!   ([`grid::DeviceGrid`]), composing the paper's vocabulary passes with
//!   Megatron-style tensor parallelism (PTD-P).
//! * [`exec`] — a deterministic executor that replays a schedule under a
//!   [`exec::Costs`] provider, yielding per-pass times, iteration time,
//!   bubble fraction and per-device resident-microbatch (activation) peaks;
//!   it runs decode sampling barriers as rendezvous and reports a stuck run
//!   with every blocked device's wait.
//! * [`fixtures`] — negative decode schedules the deadlock analyses and the
//!   executor must keep rejecting.
//! * [`render`] — ASCII timelines (the analogue of the paper's Figures 1,
//!   9, 10, 15 and 16); `vp_sim::simulated_events` turns an executed
//!   schedule into the Chrome-exportable events of `vp-trace`.
//! * [`analysis`] — idle-time decomposition (warm-up / stall / drain) and
//!   per-pass-kind time budgets.

pub mod analysis;
pub mod block;
pub mod deps;
pub mod exec;
pub mod facts;
pub mod fixtures;
pub mod generators;
pub mod grid;
pub mod hb;
pub mod pass;
pub mod render;
pub mod synth;

pub use block::{BuildingBlock, PassTimes};
pub use deps::{validate, DepError};
pub use exec::{ExecReport, Executor, UnitCosts};
pub use generators::{interlaced_1f1b, one_f_one_b, vhalf, vhalf_vocab, vocab_1f1b};
pub use grid::DeviceGrid;
pub use pass::{PassKind, Schedule, ScheduledPass, VocabVariant};
