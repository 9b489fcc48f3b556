//! Training workloads: the timed end-to-end run with its output checks,
//! and the traced run (tracer side runs plus layer replay).

use std::time::Instant;

use vp_runtime::reference::train_reference_on;
use vp_runtime::{train_schedule, train_schedule_traced, DataSource, TrainReport};
use vp_schedule::analysis::ScheduleAnalysis;
use vp_schedule::exec::{Executor, UnitCosts};
use vp_schedule::pass::Schedule;
use vp_sim::compare_timelines;
use vp_tensor::alloc;

use crate::metrics::{end_to_end, fingerprint, peak_rss_mb, Layers, Outcome, Part};
use crate::replay::{self, Shapes};
use crate::spans::Spans;
use crate::stats::{median, thirds};
use crate::workloads::{TrainSpec, Workload, DEVICES};
use crate::{scaled, SETUP_REPS};

/// Iterations whose losses are checked against the single-device
/// reference and against a second, separate run.
const CHECKED: usize = 6;
/// Leading iterations whose loss bits the fingerprint covers.
const FINGERPRINTED: usize = 32;
/// Pass kinds as the tracer names them, with the metric each one's busy
/// time is reported under.
const BUSY_KINDS: [(&str, &str); 7] = [
    ("F", "runtime.train.busy_ms.F"),
    ("B", "runtime.train.busy_ms.B"),
    ("W", "runtime.train.busy_ms.W"),
    ("S", "runtime.train.busy_ms.S"),
    ("T", "runtime.train.busy_ms.T"),
    ("InputF", "runtime.train.busy_ms.InputF"),
    ("InputB", "runtime.train.busy_ms.InputB"),
];
/// Fig-17 tolerance: `|pipeline − reference| < TOL · (1 + |reference|)`.
const LOSS_TOL: f64 = 1e-3;

fn run(
    spec: &TrainSpec,
    schedule: &Schedule,
    iterations: usize,
    corpus: &DataSource,
) -> Result<TrainReport, String> {
    train_schedule(&spec.config, schedule, iterations, corpus)
        .map_err(|e| format!("train_schedule failed: {e}"))
}

/// Checks the first [`CHECKED`] losses of the timed run against the
/// reference trainer (within tolerance) and a separate run (bitwise).
fn check_losses(timed: &[f64], separate: &[f64], reference: &[f64]) -> Vec<String> {
    let mut errors = Vec::new();
    if timed.len() < CHECKED || separate.len() < CHECKED || reference.len() < CHECKED {
        errors.push(format!(
            "fewer than {CHECKED} losses to check: {} timed, {} separate, {} reference",
            timed.len(),
            separate.len(),
            reference.len()
        ));
        return errors;
    }
    for i in 0..CHECKED {
        if (timed[i] - reference[i]).abs() >= LOSS_TOL * (1.0 + reference[i].abs()) {
            errors.push(format!(
                "iteration {i}: loss {} differs from the reference {}",
                timed[i], reference[i]
            ));
        }
        if timed[i].to_bits() != separate[i].to_bits() {
            errors.push(format!(
                "iteration {i}: loss bits differ between two runs: {} vs {}",
                timed[i], separate[i]
            ));
        }
    }
    errors
}

/// The timed run: set-up measured [`SETUP_REPS`] times (schedule
/// generation and validation, model build, warm-up iterations), then one
/// `train_schedule` call whose iterations after the warm-up fill
/// `seconds`.
pub fn run_end_to_end(spec: &TrainSpec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let baseline = alloc::stats().outstanding;
    let corpus = spec.corpus(seed);
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut short = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let schedule = spec.schedule();
        let report = run(spec, &schedule, spec.warmup, &corpus)?;
        setup.push(t.elapsed().as_secs_f64());
        short = Some(report);
    }
    let short = short.expect("at least one set-up repetition");
    let steady = &short.iter_wall[short.iter_wall.len() / 2..];
    let timed = ((seconds / median(steady)).ceil() as usize).max(3);

    let schedule = spec.schedule();
    let report = run(spec, &schedule, spec.warmup + timed, &corpus)?;
    let rss = peak_rss_mb();

    let walls = &report.iter_wall[spec.warmup..];
    let tokens = spec.tokens_per_iteration() as f64;
    let parts: Vec<Part> = thirds(walls)
        .iter()
        .map(|w| Part {
            tokens: tokens * w.len() as f64,
            wall: w.iter().sum(),
            steps: w.to_vec(),
        })
        .collect();

    let reference = train_reference_on(&spec.config, CHECKED, &corpus)
        .map_err(|e| format!("reference trainer failed: {e}"))?;
    let mut errors = check_losses(&report.losses, &short.losses, &reference);
    let failed = report.losses[spec.warmup..]
        .iter()
        .filter(|l| !l.is_finite())
        .count() as u64;
    let bits = report
        .losses
        .iter()
        .take(FINGERPRINTED)
        .map(|l| l.to_bits());
    let fingerprint = fingerprint(bits);
    drop((report, short));
    let outstanding = alloc::stats().outstanding;
    if outstanding != baseline {
        errors.push(format!(
            "arena: {outstanding} buffers outstanding after the run, {baseline} before"
        ));
    }
    let mut outcome = Outcome {
        metrics: end_to_end(&setup, &parts, rss),
        attempted: timed as u64,
        failed,
        errors,
        fingerprint,
        notes: Vec::new(),
    };
    outcome.note_support();
    Ok(outcome)
}

/// Median wall of the iterations after `skip` of one short run.
fn iteration_p50(report: &TrainReport, skip: usize) -> f64 {
    median(&report.iter_wall[skip..])
}

/// The traced run: a warmed untraced run (the base of every ratio), runs
/// under the `vp-trace` tracer, the baseline-placement and serial-kernel
/// side runs, then the layer replay.
pub fn run_traced(
    w: &Workload,
    spec: &TrainSpec,
    seed: u64,
    seconds: f64,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    const SKIP: usize = 3;
    let mut out = Layers::default();
    let corpus = spec.corpus(seed);
    let cfg = &spec.config;
    let mini = SKIP + scaled(20, seconds, 3);

    // Schedule generation + dependency validation, and the static checker.
    let ((), t) = spans.timed("schedule.generate_validate", None, || {
        let s = spec.schedule();
        vp_schedule::deps::validate(&s).expect("workload schedules validate");
    });
    out.set("schedule.gen_validate_ms", t * 1e3);
    let schedule = spec.schedule();
    let (report, t) = spans.timed("check.check", None, || vp_check::check(&schedule));
    if !report.is_clean() {
        return Err(format!(
            "vp-check rejects the schedule: {:?}",
            report.codes()
        ));
    }
    out.set("check.start_ms", t * 1e3);
    out.set("schedule.passes_per_iter", schedule.total_passes() as f64);

    // Warm the arena, then measure the untraced base with fresh counters.
    let baseline = alloc::stats().outstanding;
    spans
        .timed("run.warm", None, || run(spec, &schedule, SKIP + 1, &corpus))
        .0?;
    alloc::reset_counters();
    let untraced = spans
        .timed("run.untraced", None, || run(spec, &schedule, mini, &corpus))
        .0?;
    let arena = alloc::stats();
    let base_p50 = iteration_p50(&untraced, SKIP);
    drop(untraced);
    out.set(
        "tensor.alloc.fresh_per_step",
        arena.fresh as f64 / mini as f64,
    );
    out.set("tensor.alloc.reuse_ratio", arena.reuse_ratio());
    out.set(
        "tensor.alloc.outstanding_delta",
        alloc::stats().outstanding as f64 - baseline as f64,
    );

    // Runs under the tracer, which arms only the last iteration: medians
    // over several short runs.
    let sim = {
        let costs = UnitCosts::new(spec.pass_times(), schedule.chunks());
        let exec = Executor::new(&costs)
            .run(&schedule)
            .map_err(|e| format!("simulator rejects the schedule: {e}"))?;
        ScheduleAnalysis::new(&schedule, &exec)
    };
    let mut busy: Vec<Vec<f64>> = vec![Vec::new(); BUSY_KINDS.len()];
    let (mut wait, mut overlap, mut bubble, mut drift) = (vec![], vec![], vec![], vec![]);
    let (mut traced_wall, mut unattributed, mut imbalance) = (vec![], vec![], vec![]);
    let mut dropped = 0usize;
    for _ in 0..scaled(9, seconds, 2) {
        let (report, log) = spans
            .timed("run.traced", None, || {
                train_schedule_traced(cfg, &schedule, 6, &corpus)
            })
            .0
            .map_err(|e| format!("train_schedule_traced failed: {e}"))?;
        let timeline = log.report();
        for (k, (name, _)) in BUSY_KINDS.iter().enumerate() {
            let ns = timeline.time_by_name.get(name).map_or(0, |s| s.total_ns);
            busy[k].push(ns as f64 / 1e6);
        }
        wait.push(timeline.devices.iter().map(|d| d.wait_ns).sum::<u64>() as f64 / 1e6);
        overlap.push(timeline.mean_comm_overlap());
        bubble.push(timeline.mean_bubble());
        drift.push(compare_timelines(&sim, &timeline).max_divergence());
        let last = *report.iter_wall.last().expect("six iterations ran");
        traced_wall.push(last);
        // What of the traced iteration no pass span covers: the optimizer
        // step, gradient zeroing, buffer recycling.
        unattributed.push(1.0 - timeline.makespan_ns as f64 * 1e-9 / last);
        let peaks = &report.exec.peak_activation_units;
        let mean = peaks.iter().sum::<f64>() / peaks.len() as f64;
        imbalance.push(peaks.iter().copied().fold(0.0, f64::max) / mean);
        dropped += log.dropped();
    }
    for (samples, (_, metric)) in busy.iter().zip(BUSY_KINDS) {
        out.set(metric, median(samples));
    }
    out.set("runtime.train.wait_ms", median(&wait));
    out.set("runtime.train.stream_overlap_frac", median(&overlap));
    out.set("schedule.bubble_frac", median(&bubble));
    out.set("sim.drift", median(&drift));
    out.set("runtime.train.unattributed_frac", median(&unattributed));
    out.set("runtime.train.act_peak_imbalance", median(&imbalance));
    out.set("trace.overhead_frac", median(&traced_wall) / base_p50 - 1.0);
    out.set("trace.events_dropped", dropped as f64);

    // The paper's headline: the same model with the vocabulary layers on
    // the first and last stage, over this workload's placement.
    let baseline_schedule = spec.baseline_schedule();
    let side = spans
        .timed("run.baseline_placement", None, || {
            run(spec, &baseline_schedule, mini, &corpus)
        })
        .0?;
    out.set(
        "runtime.train.vocab_over_baseline",
        iteration_p50(&side, SKIP) / base_p50,
    );

    // Serial kernels against the default pool (tokens/s ratio).
    let threads = vp_tensor::num_threads();
    out.set("tensor.pool.threads", threads as f64);
    vp_tensor::set_num_threads(1);
    let serial = spans.timed("run.serial_kernels", None, || {
        run(spec, &schedule, mini, &corpus)
    });
    vp_tensor::set_num_threads(threads);
    out.set(
        "tensor.pool.serial_over_default",
        base_p50 / iteration_p50(&serial.0?, SKIP),
    );

    // The data loader: one iteration's microbatches.
    let step = spans.open("step", None);
    let mut iter = 0u64;
    let t = spans.replay("data.iteration", step, || {
        iter += 1;
        std::hint::black_box(corpus.iteration(iter, cfg.microbatches));
    });
    out.set("runtime.data.iter_us", t * 1e6);

    let layers_per_dev = cfg.layers / DEVICES;
    let shapes = Shapes {
        hidden: cfg.hidden,
        heads: cfg.heads,
        ffn_mult: cfg.ffn_mult,
        vocab: cfg.vocab,
        layers_per_dev,
        rows: cfg.seq_len,
        entries: cfg.microbatches,
        context: cfg.seq_len,
        top_k: 0,
        kv_block: 0,
        vocab_heavy: w.vocab_heavy,
        gemm_rows: cfg.seq_len,
        // Output layer: logits, A = softmax'·W, ∇W per microbatch. MLP:
        // fc1 and fc2 forward, and ∇X and ∇W of each backward.
        gemm_calls: cfg.microbatches * if w.vocab_heavy { 3 } else { 6 * layers_per_dev },
    };
    replay::shared(&shapes, spans, step, &mut out);
    replay::train(&shapes, spans, step, &mut out);
    spans.close(step);
    let (calls, bytes) = replay::train_comm(&schedule, cfg.seq_len, cfg.hidden);
    out.set("collectives.calls_per_step", calls);
    out.set("collectives.bytes_per_step", bytes);

    Ok(Outcome {
        metrics: out.into_metrics(true),
        attempted: 1,
        failed: 0,
        errors: Vec::new(),
        fingerprint: 0,
        notes: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_loss_fails_the_check() {
        let good = [2.0, 1.9, 1.8, 1.7, 1.6, 1.5];
        assert!(check_losses(&good, &good, &good).is_empty());
        let mut off = good;
        off[3] += 0.01;
        let errors = check_losses(&off, &good, &good);
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors[0].contains("iteration 3") && errors[0].contains("reference"));
        // Within tolerance of the reference but not bitwise repeatable.
        let mut wobble = good;
        wobble[0] = f64::from_bits(good[0].to_bits() + 1);
        let errors = check_losses(&wobble, &good, &good);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("bits differ"));
        assert!(!check_losses(&good[..3], &good, &good).is_empty());
    }
}
