#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation and prints paper-vs-measured comparisons.
//!
//! Each experiment of DESIGN.md's index has a function in [`experiments`]
//! returning structured rows (so tests can assert the qualitative shape)
//! and a subcommand in the `repro` binary that renders them. The paper's
//! published numbers are embedded in [`paper`] for side-by-side output.

pub mod check;
pub mod experiments;
pub mod paper;
pub mod table;
pub mod timeline;
pub mod tpsweep;
