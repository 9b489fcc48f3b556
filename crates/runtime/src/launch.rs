//! The one way to start a training run: [`train`] lays a validated
//! schedule out over a `dp × pp × tp` device layout, cuts the communicators
//! along each axis, and runs one [`device_loop`] thread per device — the
//! front-end/runtime split of `torch.distributed.pipelining`, with the
//! PTD-P rank layout (tensor ranks innermost, replicas outermost), on one
//! [`DeviceGroup`] run to completion.
//!
//! * the **pipeline** axis is the schedule itself: each column of `pp`
//!   devices runs its pass lists verbatim, vocabulary `S`/`T` passes and
//!   their `C0`/`C1`/`C2` traffic included, over a column-private slice of
//!   the p2p network and its own `C1` communicator;
//! * the **tensor** axis shards every stage's transformer blocks over the
//!   `tp` devices of its grid row, completed by Megatron's `f`/`g` sum
//!   all-reduces. Every row collective hands all members the identical full
//!   activation, so the columns are bitwise replicas of each other, and
//!   `tp = 1` executes the unsharded blocks — bitwise the flat pipeline;
//! * the **data** axis runs `dp` replicas on disjoint microbatch shards
//!   and sums their gradients (vocabulary shards included) before every
//!   optimizer step — numerically one pipeline over the global batch,
//!   §6.2's orthogonality claim made executable.

use crate::comm::Link;
use crate::data::DataSource;
use crate::distributed_ckpt::PipelineCheckpoint;
use crate::engine::{check_schedule, device_loop, DeviceCtx, DeviceOutcome};
use crate::group::DeviceGroup;
use crate::model::TinyConfig;
use crate::stage::TpRow;
use std::sync::Arc;
use std::time::Instant;
use vp_collectives::{Collective, CollectiveGroup};
use vp_model::tp::TpPartition;
use vp_schedule::analysis::ScheduleAnalysis;
use vp_schedule::exec::ExecReport;
use vp_schedule::grid::DeviceGrid;
use vp_schedule::pass::Schedule;
use vp_tensor::{Result, TensorError};
use vp_trace::TraceLog;

/// What to run: a schedule and its place in the `dp × pp × tp` layout.
/// [`TrainSpec::new`] is the flat pipeline; set the other axes with struct
/// update syntax (`TrainSpec { tp: 2, ..TrainSpec::new(&schedule) }`).
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec<'a> {
    /// The pipeline schedule every column interprets; its device count is
    /// the pipeline depth `pp`, and it runs `config.microbatches / dp`
    /// microbatches.
    pub schedule: &'a Schedule,
    /// Tensor-parallel width of every stage (must divide the head count
    /// and the FFN width — shards are head-aligned).
    pub tp: usize,
    /// Data-parallel replicas; `config.microbatches` is the global count.
    pub dp: usize,
    /// Continue from the checkpoint of an earlier run of the same layout.
    pub resume: Option<&'a PipelineCheckpoint>,
    /// Record a [`TraceLog`] of the final iteration.
    pub trace: bool,
}

impl<'a> TrainSpec<'a> {
    /// `schedule` on a flat pipeline: `tp = dp = 1`, from scratch, untraced.
    pub fn new(schedule: &'a Schedule) -> Self {
        TrainSpec {
            schedule,
            tp: 1,
            dp: 1,
            resume: None,
            trace: false,
        }
    }
}

/// What a [`train`] run hands back.
pub struct TrainOutcome {
    /// Losses and real timings (of replica 0, tensor column 0: rows and
    /// replicas are symmetric, so one column carries the pipeline shape the
    /// schedule describes).
    pub report: TrainReport,
    /// Per-device events of the final iteration (`F`/`B`/`W`/`S`/`T` pass
    /// spans, blocking p2p waits, overlapped communication-stream jobs),
    /// tracks indexed by global rank; `Some` exactly when
    /// [`TrainSpec::trace`] was set.
    pub trace: Option<TraceLog>,
    /// Every device's outcome, its end-of-run parameters included.
    devices: Vec<DeviceOutcome>,
    iterations_done: u64,
}

impl TrainOutcome {
    /// Serializes every device's end-of-run state into a checkpoint; pass it
    /// as [`TrainSpec::resume`]. Devices hand their parameters back by
    /// move, and nothing is serialized until this is called. It takes
    /// `&mut self` because it walks the parameters in the optimizer's
    /// order, which is a mutable walk; it changes nothing.
    pub fn checkpoint(&mut self) -> PipelineCheckpoint {
        PipelineCheckpoint {
            shards: self
                .devices
                .iter_mut()
                .map(DeviceOutcome::checkpoint_shard)
                .collect(),
            iterations_done: self.iterations_done,
        }
    }
}

impl std::fmt::Debug for TrainOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainOutcome")
            .field("report", &self.report)
            .field("trace", &self.trace)
            .field("devices", &self.devices.len())
            .field("iterations_done", &self.iterations_done)
            .finish()
    }
}

/// The per-iteration mean loss trajectory plus a real-timing execution
/// report in the simulator's [`ExecReport`] shape, so [`ScheduleAnalysis`]
/// consumes measured data exactly as it consumes simulated data. The
/// measured timeline itself (pass, comm-wait and comm-stream tracks) is
/// [`TrainOutcome::trace`]'s, exported with `TraceLog::chrome_trace`.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Per-iteration mean loss over the global batch.
    pub losses: Vec<f64>,
    /// Wall-clock pass spans (final iteration) and observed activation
    /// peaks, indexed like the schedule's pass lists. Pass durations
    /// include blocking waits on upstream data.
    pub exec: ExecReport,
    /// Wall-clock seconds per training iteration, measured across all
    /// device threads (earliest iteration start to latest iteration end,
    /// including gradient sync and the optimizer step). Later entries are
    /// the steady-state iterations.
    pub iter_wall: Vec<f64>,
}

impl TrainReport {
    /// Analyzes the measured execution (bubble decomposition, per-kind
    /// time budgets) with the simulator's [`ScheduleAnalysis`].
    pub fn analysis(&self, schedule: &Schedule) -> ScheduleAnalysis {
        ScheduleAnalysis::new(schedule, &self.exec)
    }
}

/// `count` communicators of `size` ranks each, handed out by [`take`].
fn comm_groups(count: usize, size: usize) -> Vec<Vec<Option<Collective>>> {
    (0..count)
        .map(|_| CollectiveGroup::new(size).into_iter().map(Some).collect())
        .collect()
}

/// `member`'s handle on communicator `group`; `None` when no groups were
/// made (an axis of width one).
fn take(groups: &mut [Vec<Option<Collective>>], group: usize, member: usize) -> Option<Collective> {
    groups.get_mut(group)?[member].take()
}

/// Trains the tiny model by interpreting `spec.schedule` numerically on
/// `spec.dp × schedule.devices() × spec.tp` device threads.
///
/// The schedule's kind selects the vocabulary placement (plain → Megatron
/// baseline, Vocab-1/2 → Vocabulary Parallelism); devices, chunks and the
/// chunk placement all come from the schedule itself. With identical
/// `config`, the loss trajectory matches [`crate::train_reference`] up to
/// `f32` accumulation-order noise (the Appendix E claim) for every
/// supported schedule on every layout.
///
/// # Errors
///
/// Returns an error for invalid configurations (layer count not divisible
/// by the virtual stage count, microbatches not an equal share per replica,
/// unsupported schedule kind, failed dependency validation, a `tp` that
/// does not divide the head count and FFN width, a checkpoint of a
/// different layout) or if any shard fails numerically, and names the
/// global rank of a device thread that panics.
pub fn train(
    config: &TinyConfig,
    spec: &TrainSpec<'_>,
    iterations: usize,
    corpus: &DataSource,
) -> Result<TrainOutcome> {
    let &TrainSpec {
        schedule,
        tp,
        dp,
        resume,
        trace,
    } = spec;
    let mode = check_schedule(config, schedule, dp)?;
    let ffn = config.hidden * config.ffn_mult;
    if tp == 0 || !config.heads.is_multiple_of(tp) || !ffn.is_multiple_of(tp) {
        return Err(TensorError::InvalidArgument(format!(
            "tp {tp} must divide the head count {} and the FFN width {ffn} (head-aligned shards)",
            config.heads
        )));
    }
    let grid = DeviceGrid::new(schedule.devices(), tp);
    let (pp, per_replica) = (grid.pp(), grid.devices());
    let world = dp * per_replica;
    if let Some(ckpt) = resume.filter(|c| c.shards.len() != world) {
        return Err(TensorError::InvalidArgument(format!(
            "checkpoint has {} shards for {world} devices",
            ckpt.shards.len()
        )));
    }
    let log = trace.then(|| TraceLog::new(world));
    // One C1 communicator per pipeline column, one row communicator per
    // stage and replica, one gradient-sync communicator per grid entry —
    // the latter two only on axes wider than one.
    let mut c1s = comm_groups(dp * tp, pp);
    let mut rows = comm_groups(if tp > 1 { dp * pp } else { 0 }, tp);
    let mut syncs = comm_groups(if dp > 1 { per_replica } else { 0 }, dp);
    let epoch = Instant::now();
    let shared = Arc::new(schedule.clone());
    let group = DeviceGroup::spawn(world, log.as_ref(), |slot| {
        let global = slot.endpoint.rank();
        let (replica, local) = (global / per_replica, global % per_replica);
        let (rank, tp_rank) = grid.coords(local);
        let ctx = DeviceCtx {
            config: config.clone(),
            schedule: Arc::clone(&shared),
            mode,
            iterations,
            corpus: corpus.clone(),
            rank,
            link: Link::new(slot.endpoint, replica * per_replica + tp_rank, tp),
            c1: take(&mut c1s, replica * tp + tp_rank, rank).expect("one C1 handle per device"),
            c1_stream: slot.stream,
            row: take(&mut rows, replica * pp + rank, tp_rank).map(|comm| {
                let comm = Arc::new(comm);
                let part = TpPartition::new(tp, tp_rank, config.heads, config.hidden, ffn);
                (TpRow { comm }, part)
            }),
            dp: take(&mut syncs, local, replica),
            restore: resume.map(|c| (c.shards[global].clone(), c.iterations_done)),
            tracer: slot.tracer,
            epoch,
        };
        move || device_loop(ctx)
    });
    let outcomes = group.join().into_iter().collect::<Result<Vec<_>>>()?;
    let column0: Vec<&DeviceOutcome> = outcomes.iter().step_by(tp).take(pp).collect();
    let report = TrainReport {
        losses: column0
            .iter()
            .find(|o| !o.losses.is_empty())
            .map_or_else(Vec::new, |o| o.losses.clone()),
        exec: assemble_report(schedule, &column0),
        iter_wall: assemble_iter_wall(&column0),
    };
    Ok(TrainOutcome {
        report,
        trace: log,
        devices: outcomes,
        iterations_done: resume.map_or(0, |c| c.iterations_done) + iterations as u64,
    })
}

/// [`train`] on a flat pipeline, metrics out: the loss trajectory together
/// with the real-timing report.
///
/// # Errors
///
/// As [`train`].
pub fn train_schedule(
    config: &TinyConfig,
    schedule: &Schedule,
    iterations: usize,
    corpus: &DataSource,
) -> Result<TrainReport> {
    train(config, &TrainSpec::new(schedule), iterations, corpus).map(|o| o.report)
}

/// [`train_schedule`] with measured-run tracing: `log.chrome_trace()`
/// renders the final iteration for `chrome://tracing`; `log.report()`
/// computes bubble and communication-overlap fractions.
///
/// # Errors
///
/// As [`train`].
pub fn train_schedule_traced(
    config: &TinyConfig,
    schedule: &Schedule,
    iterations: usize,
    corpus: &DataSource,
) -> Result<(TrainReport, TraceLog)> {
    let spec = TrainSpec {
        trace: true,
        ..TrainSpec::new(schedule)
    };
    let outcome = train(config, &spec, iterations, corpus)?;
    Ok((outcome.report, outcome.trace.expect("trace was requested")))
}

/// Collapses the devices' per-iteration spans into one wall time per
/// iteration: earliest start to latest end across all device threads.
fn assemble_iter_wall(outcomes: &[&DeviceOutcome]) -> Vec<f64> {
    let iterations = outcomes.iter().map(|o| o.iter_spans.len()).max();
    (0..iterations.unwrap_or(0))
        .map(|i| {
            let spans = outcomes.iter().filter_map(|o| o.iter_spans.get(i));
            let (start, end) = spans.fold((f64::INFINITY, f64::NEG_INFINITY), |(s, e), &(a, b)| {
                (s.min(a), e.max(b))
            });
            (end - start).max(0.0)
        })
        .collect()
}

/// Assembles the simulator-shaped [`ExecReport`] from the devices' raw
/// wall-clock spans: times are re-anchored so the earliest pass starts at
/// zero, and the observed activation peaks fill the memory fields
/// (activation units weigh each resident microbatch `1/chunks`, matching
/// [`vp_schedule::exec::UnitCosts`]).
fn assemble_report(schedule: &Schedule, outcomes: &[&DeviceOutcome]) -> ExecReport {
    let t0 = outcomes
        .iter()
        .flat_map(|o| o.spans.iter().map(|&(s, _)| s))
        .fold(f64::INFINITY, f64::min);
    let t0 = if t0.is_finite() { t0 } else { 0.0 };
    let chunks = schedule.chunks().max(1) as f64;
    let rebased = |pick: fn(&(f64, f64)) -> f64| -> Vec<Vec<f64>> {
        outcomes
            .iter()
            .map(|o| o.spans.iter().map(|s| pick(s) - t0).collect())
            .collect()
    };
    let end = rebased(|s| s.1);
    ExecReport {
        start: rebased(|s| s.0),
        makespan: end.iter().flatten().fold(0.0f64, |a, &b| a.max(b)),
        end,
        busy: outcomes
            .iter()
            .map(|o| o.spans.iter().map(|&(s, e)| e - s).sum())
            .collect(),
        peak_activation_units: outcomes
            .iter()
            .map(|o| o.peak_resident as f64 / chunks)
            .collect(),
        peak_resident_microbatches: outcomes.iter().map(|o| o.peak_resident).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{schedule_for, Mode, ScheduleFamily};
    use crate::reference::train_reference;
    use crate::testutil::assert_close;
    use vp_core::VocabAlgo;
    use vp_schedule::block::PassTimes;
    use vp_schedule::generators;
    use vp_schedule::pass::VocabVariant;
    use vp_tensor::Tensor;

    fn vocab_schedule(devices: usize, m: usize) -> Schedule {
        generators::vocab_1f1b(
            devices,
            m as u32,
            VocabVariant::Alg2,
            PassTimes::default(),
            true,
        )
    }

    fn zb_vocab_schedule(devices: usize, m: usize) -> Schedule {
        let times = PassTimes {
            f: 1.0,
            b: 1.0,
            w: 1.0,
            ..PassTimes::default()
        };
        generators::zb_vocab_1f1b(devices, m as u32, VocabVariant::Alg2, times, true)
    }

    /// Runs `spec` on the config's synthetic corpus.
    fn run(config: &TinyConfig, spec: &TrainSpec<'_>, iterations: usize) -> Result<TrainOutcome> {
        train(config, spec, iterations, &DataSource::synthetic(config))
    }

    /// `schedule` on a `pp × tp` grid; returns the losses.
    fn grid_losses(
        config: &TinyConfig,
        schedule: &Schedule,
        tp: usize,
        iterations: usize,
    ) -> Vec<f64> {
        let spec = TrainSpec {
            tp,
            ..TrainSpec::new(schedule)
        };
        run(config, &spec, iterations)
            .unwrap_or_else(|e| panic!("tp {tp}: {e}"))
            .report
            .losses
    }

    /// `dp` replicas of a `devices`-stage 1F1B pipeline; returns the losses.
    fn dp_losses(
        config: &TinyConfig,
        devices: usize,
        dp: usize,
        mode: Mode,
        iterations: usize,
    ) -> Result<Vec<f64>> {
        let m = (config.microbatches / dp.max(1)) as u32;
        let schedule = schedule_for(mode, ScheduleFamily::OneFOneB, devices, m)?;
        let spec = TrainSpec {
            dp,
            ..TrainSpec::new(&schedule)
        };
        Ok(run(config, &spec, iterations)?.report.losses)
    }

    /// The grid's numeric claim: TP-sharded pipelines (tp ∈ {2, 4}) train
    /// to the single-device reference within the flat pipeline's tolerance.
    #[test]
    fn tp_sharded_vocab_pipeline_matches_reference() {
        let config = TinyConfig::default();
        let reference = train_reference(&config, 5).unwrap();
        let schedule = vocab_schedule(2, config.microbatches);
        for tp in [2, 4] {
            let losses = grid_losses(&config, &schedule, tp, 5);
            assert_close(&reference, &losses, 1e-3);
        }
    }

    /// The degenerate column: a `pp × 1` grid is bitwise the flat pipeline.
    #[test]
    fn tp1_grid_is_bitwise_the_flat_pipeline() {
        let config = TinyConfig::default();
        let schedule = vocab_schedule(4, config.microbatches);
        let flat = train_schedule(&config, &schedule, 4, &DataSource::synthetic(&config)).unwrap();
        let grid = grid_losses(&config, &schedule, 1, 4);
        assert_eq!(flat.losses, grid, "tp = 1 must not perturb a bit");
    }

    /// The baseline (Megatron-style) vocabulary placement also runs
    /// TP-sharded: the grid composes with both placements.
    #[test]
    fn baseline_placement_trains_on_the_grid() {
        let config = TinyConfig::default();
        let reference = train_reference(&config, 4).unwrap();
        let schedule = generators::one_f_one_b(2, config.microbatches as u32, PassTimes::default());
        let losses = grid_losses(&config, &schedule, 2, 4);
        assert_close(&reference, &losses, 1e-3);
    }

    /// Zero-bubble B/W splitting under TP: the shadow backward enters the
    /// row collectives, the deferred W stays local (as Megatron's wgrad
    /// does), and the trajectory still matches the reference.
    #[test]
    fn zero_bubble_tp_grid_matches_reference() {
        let config = TinyConfig::default();
        let reference = train_reference(&config, 4).unwrap();
        let schedule = zb_vocab_schedule(2, config.microbatches);
        let losses = grid_losses(&config, &schedule, 2, 4);
        assert_close(&reference, &losses, 1e-3);
    }

    /// All three axes at once, on a schedule no per-axis launcher could
    /// combine them for: `dp 2 × pp 2 × tp 2` devices interpreting a
    /// zero-bubble Vocab-2 schedule match the single-device reference.
    #[test]
    fn dp_pp_tp_zero_bubble_matches_reference() {
        let config = TinyConfig::default();
        let reference = train_reference(&config, 4).unwrap();
        let schedule = zb_vocab_schedule(2, config.microbatches / 2);
        let spec = TrainSpec {
            tp: 2,
            dp: 2,
            ..TrainSpec::new(&schedule)
        };
        let mut outcome = run(&config, &spec, 4).unwrap();
        assert_eq!(outcome.checkpoint().shards.len(), 8);
        assert_close(&reference, &outcome.report.losses, 1e-3);
    }

    /// Tracing observes a data-parallel run without perturbing it: same
    /// loss bits, one track per device of every replica.
    #[test]
    fn traced_dp_run_matches_untraced_bitwise() {
        let config = TinyConfig::default();
        let schedule = vocab_schedule(2, config.microbatches / 2);
        let plain = TrainSpec {
            dp: 2,
            ..TrainSpec::new(&schedule)
        };
        let traced = TrainSpec {
            trace: true,
            ..plain
        };
        let a = run(&config, &plain, 3).unwrap();
        let b = run(&config, &traced, 3).unwrap();
        assert!(a.trace.is_none());
        let bits = |l: &[f64]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.report.losses), bits(&b.report.losses));
        let log = b.trace.expect("trace was requested");
        assert_eq!(log.devices(), 4);
        let tracks: std::collections::BTreeSet<u32> =
            log.events().iter().map(|e| e.device).collect();
        assert_eq!(tracks.len(), 4, "every replica's devices record events");
    }

    fn shard_params(blob: &[u8]) -> Vec<(Tensor, Tensor, Tensor)> {
        use vp_tensor::io::{read_tensor, read_u32};
        let mut input = blob;
        let _timestep = read_u32(&mut input).unwrap();
        let n = read_u32(&mut input).unwrap() as usize;
        (0..n)
            .map(|_| {
                let value = read_tensor(&mut input).unwrap();
                let m = read_tensor(&mut input).unwrap();
                let v = read_tensor(&mut input).unwrap();
                (value, m, v)
            })
            .collect()
    }

    fn bits_eq(a: &Tensor, b: &Tensor) -> bool {
        a.shape() == b.shape()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Tied input/output embeddings stay tied when the vocab axis (sharded
    /// over pp) and the TP axis are both active on the same device: each
    /// device holds a *single* tied weight tensor receiving both the input-
    /// and output-side gradients, its replicas across a TP row stay bitwise
    /// identical (values and Adam moments), and the losses match the tied
    /// single-device reference.
    #[test]
    fn tied_embeddings_stay_tied_under_tp() {
        let config = TinyConfig {
            tied: true,
            ..TinyConfig::default()
        };
        let reference = train_reference(&config, 5).unwrap();
        let grid = DeviceGrid::new(2, 2);
        let schedule = vocab_schedule(2, config.microbatches);
        let spec = TrainSpec {
            tp: 2,
            ..TrainSpec::new(&schedule)
        };
        let mut outcome = run(&config, &spec, 5).unwrap();
        assert_close(&reference, &outcome.report.losses, 1e-3);
        let shards = &outcome.checkpoint().shards;
        let blocks_per_stage = config.layers / grid.pp();
        for pp_rank in 0..grid.pp() {
            let a = shard_params(&shards[grid.global(pp_rank, 0)]);
            let b = shard_params(&shards[grid.global(pp_rank, 1)]);
            // Single tied tensor: 12 params per TP block, the positional
            // embedding on the first stage, and exactly ONE vocabulary
            // parameter (an untied run would carry two).
            let expected = blocks_per_stage * 12 + usize::from(pp_rank == 0) + 1;
            assert_eq!(a.len(), expected, "stage {pp_rank} parameter count");
            assert_eq!(b.len(), expected);
            // The tied shard is the last parameter; its value and moments
            // must be bitwise identical across the TP row (both columns saw
            // identical full activations and gradients).
            let (av, am, avv) = a.last().unwrap();
            let (bv, bm, bvv) = b.last().unwrap();
            // The tied parameter is a vocab-shard table `[rows, h]`, not a
            // TP-sharded matrix: its width is the full hidden size.
            assert_eq!(av.shape().1, config.hidden);
            assert!(av.shape().0 > 0 && av.shape().0 < config.vocab);
            assert!(
                bits_eq(av, bv),
                "tied shard values diverged on stage {pp_rank}"
            );
            assert!(
                bits_eq(am, bm) && bits_eq(avv, bvv),
                "tied shard moments diverged"
            );
            // Sanity: the row members are NOT identical wholesale — their
            // transformer shards hold different weight columns.
            assert!(
                a.iter()
                    .zip(&b)
                    .any(|((x, _, _), (y, _, _))| !bits_eq(x, y)),
                "row members should differ in their TP shards"
            );
        }
    }

    /// Layout misuse is rejected with actionable errors rather than panics.
    #[test]
    fn unaligned_tp_is_rejected() {
        let config = TinyConfig::default();
        let schedule = vocab_schedule(2, config.microbatches);
        // heads = 4: tp = 3 cannot produce head-aligned shards.
        for tp in [0, 3] {
            let spec = TrainSpec {
                tp,
                ..TrainSpec::new(&schedule)
            };
            let err = run(&config, &spec, 1).unwrap_err();
            assert!(err.to_string().contains("head"), "tp {tp}: {err}");
        }
    }

    /// The orthogonality claim, executably: dp=2 replicas of a 2-stage
    /// vocabulary-parallel pipeline match the single-device reference over
    /// the same global batch.
    #[test]
    fn dp_vocab_pipeline_matches_reference() {
        let config = TinyConfig::default();
        let reference = train_reference(&config, 5).unwrap();
        for algo in [VocabAlgo::Alg1, VocabAlgo::Alg2] {
            let dp_run = dp_losses(&config, 2, 2, Mode::Vocab(algo), 5).unwrap();
            assert_close(&reference, &dp_run, 1e-3);
        }
    }

    #[test]
    fn dp_baseline_matches_reference() {
        let config = TinyConfig::default();
        let reference = train_reference(&config, 4).unwrap();
        let dp_run = dp_losses(&config, 2, 2, Mode::Baseline, 4).unwrap();
        assert_close(&reference, &dp_run, 1e-3);
    }

    #[test]
    fn dp_equals_single_group() {
        let config = TinyConfig::default();
        let single = dp_losses(&config, 2, 1, Mode::Vocab(VocabAlgo::Alg2), 4).unwrap();
        let double = dp_losses(&config, 2, 2, Mode::Vocab(VocabAlgo::Alg2), 4).unwrap();
        assert_close(&single, &double, 1e-3);
    }

    #[test]
    fn indivisible_microbatches_rejected() {
        let config = TinyConfig::default(); // 4 microbatches
        for dp in [0, 3] {
            let err = dp_losses(&config, 2, dp, Mode::Baseline, 1).unwrap_err();
            assert!(err.to_string().contains("divisible"), "dp {dp}: {err}");
        }
    }
}
