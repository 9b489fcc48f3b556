#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Discrete-event pipeline simulator.
//!
//! Binds the analytical cost model of `vp-model` (Appendix A FLOPs,
//! calibrated A100-like hardware) to the schedules of `vp-schedule` and
//! replays them with the deterministic executor, producing the quantities
//! the paper's evaluation reports: iteration time, MFU, bubble fractions
//! and per-device peak memory. This is the engine behind the Table 5/6 and
//! Figure 11–14 reproductions, the interlaced-sync ablation (Appendix B.2)
//! and the schedule visualizations.
//!
//! The simulator does not try to match the paper's absolute numbers — its
//! substrate is a model, not an A100 cluster — but the *shape* of the
//! results (who wins, where memory balances, where OOMs appear) follows
//! from the same structure the paper analyses. The [`timeline`] module
//! closes the loop the other way: it renders simulated schedules as
//! `vp-trace` events (the measured runtime's event model and Chrome
//! exporter) and diffs a simulated schedule's per-pass-kind busy shares
//! against a measured `vp-trace` timeline of the same schedule, the
//! comparison behind `repro timeline`.

pub mod costs;
pub mod method;
pub mod report;
pub mod sweep;
pub mod timeline;

pub use costs::SimCosts;
pub use method::{
    run_1f1b, run_1f1b_grid, run_barrier_ablation, run_interlaced_ablation, run_interleaved_vocab,
    run_vhalf, run_vocab_variant, run_zero_bubble, Method, VHalfMethod,
};
pub use report::SimReport;
pub use sweep::{
    microbatch_sweep, to_csv, tp_crossover_sweep, vocab_sweep, vocab_sweep_vhalf, GridSweepPoint,
    SweepPoint,
};
pub use timeline::{compare_timelines, simulated_events, DivergenceReport, KindDrift};
