//! Serving workloads: the timed end-to-end run (three closed-loop waves)
//! with its output checks, and the traced run (overlap and serial-kernel
//! side runs plus layer replay).
//!
//! Closed loop because `ServeEngine::serve` returns no per-request
//! timestamps: with every request of a wave queued at t = 0 the engine is
//! never starved and the per-token step times are the latency a waiting
//! client sees. Open-loop rates, queue wait and time to first token join
//! once the engine exposes them.

use std::time::Instant;

use vp_runtime::reference_decode;
use vp_runtime::serve::{Request, ServeEngine, ServeRun};
use vp_schedule::generators::{decode_pipeline, decode_pipeline_overlap};
use vp_tensor::alloc;

use crate::metrics::{end_to_end, fingerprint, peak_rss_mb, Layers, Outcome, Part};
use crate::replay::{self, Shapes};
use crate::spans::Spans;
use crate::workloads::{ServeSpec, Workload, DEVICES};
use crate::SETUP_REPS;

/// Requests of the pilot wave whose token streams are checked against the
/// single-device full-context reference.
const CHECKED: usize = 6;

/// What the engine will do with a closed-loop wave, derived from the
/// request stream alone: the driver's admission is deterministic (FIFO
/// into free slots, prompts in chunks, one token per step afterwards).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WavePlan {
    pub steps: usize,
    /// Slot-steps: Σ over steps of the active slots.
    pub entries: usize,
    /// Rows fed: prompt tokens plus re-fed generated tokens.
    pub rows: usize,
    pub prompt_rows: usize,
    /// Σ over entries of the KV length before the entry's rows.
    pub context_sum: usize,
}

pub fn plan(requests: &[Request], spec: &ServeSpec) -> WavePlan {
    struct Active {
        prompt: usize,
        output: usize,
        fed: usize,
        generated: usize,
    }
    let mut pending = requests.iter();
    let mut slots: Vec<Option<Active>> = (0..spec.max_batch).map(|_| None).collect();
    let mut p = WavePlan::default();
    loop {
        for slot in slots.iter_mut().filter(|s| s.is_none()) {
            *slot = pending.next().map(|r| Active {
                prompt: r.prompt.len(),
                output: r.output_len,
                fed: 0,
                generated: 0,
            });
        }
        if slots.iter().all(Option::is_none) {
            return p;
        }
        p.steps += 1;
        for slot in &mut slots {
            let Some(a) = slot else { continue };
            let prompt_left = a.prompt.saturating_sub(a.fed);
            let feed = if prompt_left > 0 {
                prompt_left.min(spec.prefill_chunk)
            } else {
                1
            };
            p.entries += 1;
            p.rows += feed;
            p.prompt_rows += feed.min(prompt_left);
            p.context_sum += a.fed;
            a.fed += feed;
            if a.fed >= a.prompt {
                a.generated += 1;
            }
            if a.generated >= a.output {
                *slot = None;
            }
        }
    }
}

/// Prompt tokens fed plus tokens generated: what a wave pushes through.
fn wave_tokens(requests: &[Request]) -> f64 {
    requests
        .iter()
        .map(|r| r.prompt.len() + r.output_len)
        .sum::<usize>() as f64
}

fn start(spec: &ServeSpec, overlap: bool) -> Result<ServeEngine, String> {
    ServeEngine::start(spec.engine_config(overlap)).map_err(|e| format!("engine start failed: {e}"))
}

/// Requests of a wave that did not complete with `output_len` tokens.
fn incomplete(requests: &[Request], run: &ServeRun) -> u64 {
    let done = run
        .completions
        .iter()
        .filter(|c| c.tokens.len() == requests[c.id].output_len)
        .count();
    (requests.len() - done.min(requests.len())) as u64
}

/// Compares sampled requests' token streams with the oracle's, bitwise.
/// Returns the ids that differ.
pub fn mismatches(
    sampled: &[&Request],
    streams: &dyn Fn(usize) -> Option<Vec<usize>>,
    oracle: &dyn Fn(&Request) -> Result<Vec<usize>, String>,
) -> Result<Vec<usize>, String> {
    let mut bad = Vec::new();
    for r in sampled {
        if streams(r.id) != Some(oracle(r)?) {
            bad.push(r.id);
        }
    }
    Ok(bad)
}

/// The timed run: set-up measured [`SETUP_REPS`] times (engine start with
/// its static checks, one warm-up wave), then three closed-loop waves on
/// the last engine: a pilot of fixed size, and two sized from the pilot's
/// speed to fill the rest of `seconds`.
pub fn run_end_to_end(spec: &ServeSpec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let baseline = alloc::stats().outstanding;
    let warm = spec.warm_wave();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = engine.take() {
            ServeEngine::shutdown(previous);
        }
        let t = Instant::now();
        let mut e = start(spec, false)?;
        e.serve(&warm);
        setup.push(t.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let mut engine = engine.expect("at least one set-up repetition");

    let pilot_wave = spec.wave(0, spec.pilot_requests, seed);
    let pilot = engine.serve(&pilot_wave);
    let per_request = pilot.wall.as_secs_f64() / pilot_wave.len() as f64;
    let rest = (seconds - pilot.wall.as_secs_f64()).max(0.0) / 2.0;
    let n = ((rest / per_request).round() as usize).max(spec.max_batch);
    let mut waves = vec![(pilot_wave, pilot)];
    for index in 1..=2 {
        let wave = spec.wave(index, n, seed);
        let run = engine.serve(&wave);
        waves.push((wave, run));
    }
    let rss = peak_rss_mb();
    engine.shutdown();

    let parts: Vec<Part> = waves
        .iter()
        .map(|(wave, run)| Part {
            tokens: wave_tokens(wave),
            wall: run.wall.as_secs_f64(),
            steps: run.latency.clone(),
        })
        .collect();
    let attempted: usize = waves.iter().map(|(w, _)| w.len()).sum();
    let mut failed: u64 = waves.iter().map(|(w, r)| incomplete(w, r)).sum();

    // Output check on the pilot wave, whose streams the seed fixes.
    let (pilot_wave, pilot) = &waves[0];
    let stride = (pilot_wave.len() / CHECKED).max(1);
    let sampled: Vec<&Request> = pilot_wave.iter().step_by(stride).take(CHECKED).collect();
    let bad = mismatches(
        &sampled,
        &|id| {
            pilot
                .completions
                .iter()
                .find(|c| c.id == id)
                .map(|c| c.tokens.clone())
        },
        &|r| {
            reference_decode(&spec.model, &r.prompt, r.output_len)
                .map_err(|e| format!("reference decode failed: {e}"))
        },
    )?;
    let mut errors: Vec<String> = bad
        .iter()
        .map(|id| format!("request {id}: token stream differs from the reference decode"))
        .collect();
    failed += bad.len() as u64;
    let mut streams: Vec<(usize, &[usize])> = pilot
        .completions
        .iter()
        .map(|c| (c.id, c.tokens.as_slice()))
        .collect();
    streams.sort_unstable();
    let fingerprint = fingerprint(streams.iter().flat_map(|(id, tokens)| {
        std::iter::once(*id as u64).chain(tokens.iter().map(|&t| t as u64))
    }));
    let outstanding = alloc::stats().outstanding;
    if outstanding != baseline {
        errors.push(format!(
            "arena: {outstanding} buffers outstanding after shutdown, {baseline} before start"
        ));
    }
    let mut outcome = Outcome {
        metrics: end_to_end(&setup, &parts, rss),
        attempted: attempted as u64,
        failed,
        errors,
        fingerprint,
        notes: Vec::new(),
    };
    outcome.note_support();
    Ok(outcome)
}

/// Tokens per second of one wave on a fresh engine (after its warm-up).
fn side_run(
    spec: &ServeSpec,
    overlap: bool,
    warm: &[Request],
    wave: &[Request],
) -> Result<f64, String> {
    let mut engine = start(spec, overlap)?;
    engine.serve(warm);
    let run = engine.serve(wave);
    engine.shutdown();
    Ok(wave_tokens(wave) / run.wall.as_secs_f64())
}

/// The traced run: one pilot-sized wave on the default engine (the base
/// of every ratio and the source of the replay's shapes), the same wave
/// with the overlapped barrier and with serial kernels, then the replay.
pub fn run_traced(
    w: &Workload,
    spec: &ServeSpec,
    seed: u64,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let mut out = Layers::default();
    let mut notes = Vec::new();
    let warm = spec.warm_wave();
    let wave = spec.wave(0, spec.pilot_requests, seed);
    let planned = plan(&wave, spec);

    let baseline = alloc::stats().outstanding;
    let (engine, t) = spans.timed("engine.start", None, || start(spec, false));
    let mut engine = engine?;
    out.set("runtime.serve.start_ms", t * 1e3);
    spans.timed("run.warm", None, || engine.serve(&warm));
    alloc::reset_counters();
    let (run, _) = spans.timed("run.inline", None, || engine.serve(&wave));
    let arena = alloc::stats();
    engine.shutdown();
    let inline_tps = wave_tokens(&wave) / run.wall.as_secs_f64();
    // The replay runs the mean step's shapes, so the mean step is what it
    // is reconciled with (the latency median weighs full steps more).
    let mean_step = run.wall.as_secs_f64() / run.steps as f64;
    if run.steps != planned.steps {
        notes.push(format!(
            "the engine ran {} steps where the benchmark's admission model plans {}: \
             rows_per_step and the replay's shapes follow the model",
            run.steps, planned.steps
        ));
    }
    out.set("runtime.serve.steps", run.steps as f64);
    out.set("runtime.serve.occupancy", run.occupancy());
    out.set(
        "runtime.serve.rows_per_step",
        planned.rows as f64 / planned.steps as f64,
    );
    out.set(
        "runtime.serve.prompt_row_share",
        planned.prompt_rows as f64 / planned.rows as f64,
    );
    out.set(
        "tensor.alloc.fresh_per_step",
        arena.fresh as f64 / run.steps as f64,
    );
    out.set("tensor.alloc.reuse_ratio", arena.reuse_ratio());
    out.set(
        "tensor.alloc.outstanding_delta",
        alloc::stats().outstanding as f64 - baseline as f64,
    );

    let (overlap_tps, _) = spans.timed("run.overlap", None, || side_run(spec, true, &warm, &wave));
    out.set(
        "runtime.serve.overlap_over_inline",
        overlap_tps? / inline_tps,
    );
    let threads = vp_tensor::num_threads();
    out.set("tensor.pool.threads", threads as f64);
    vp_tensor::set_num_threads(1);
    let (serial_tps, _) = spans.timed("run.serial_kernels", None, || {
        side_run(spec, false, &warm, &wave)
    });
    vp_tensor::set_num_threads(threads);
    out.set("tensor.pool.serial_over_default", serial_tps? / inline_tps);

    // One device's mean step, from the plan.
    let entries = (planned.entries as f64 / planned.steps as f64)
        .round()
        .max(1.0) as usize;
    let rows = (planned.rows as f64 / planned.entries as f64)
        .round()
        .max(1.0) as usize;
    let context = (planned.context_sum as f64 / planned.entries as f64).round() as usize;
    let layers_per_dev = spec.model.layers / DEVICES;
    let shapes = Shapes {
        hidden: spec.model.hidden,
        heads: spec.model.heads,
        ffn_mult: spec.model.ffn_mult,
        vocab: spec.model.vocab,
        layers_per_dev,
        rows,
        entries,
        context,
        top_k: spec.top_k,
        kv_block: spec.kv_block,
        vocab_heavy: w.vocab_heavy,
        gemm_rows: if w.vocab_heavy { 1 } else { rows },
        // Output layer: one logits GEMV per slot. MLP: fc1 and fc2 of
        // every hosted block per slot.
        gemm_calls: entries * if w.vocab_heavy { 1 } else { 2 * layers_per_dev },
    };

    // Every device regenerates the step's pass list each step; the engine
    // checks both families for every batch size once, at start.
    let m = entries as u32;
    let ((), t) = spans.timed("schedule.generate_check", None, || {
        let s = decode_pipeline(DEVICES, m);
        assert!(
            vp_check::check_decode(&s).is_clean(),
            "decode schedule is clean"
        );
    });
    out.set("schedule.gen_validate_ms", t * 1e3);
    out.set(
        "schedule.passes_per_iter",
        decode_pipeline(DEVICES, m).total_passes() as f64,
    );
    let ((), t) = spans.timed("check.check_decode", None, || {
        for m in 1..=spec.max_batch as u32 {
            for s in [
                decode_pipeline(DEVICES, m),
                decode_pipeline_overlap(DEVICES, m),
            ] {
                std::hint::black_box(vp_check::check_decode(&s));
            }
        }
    });
    out.set("check.start_ms", t * 1e3);

    let step = spans.open("step", None);
    replay::shared(&shapes, spans, step, &mut out);
    let attributed = replay::serve(&shapes, spans, step, &mut out);
    spans.close(step);
    out.set(
        "runtime.serve.unattributed_frac",
        1.0 - attributed / mean_step,
    );
    let (calls, bytes) = replay::serve_comm(&shapes);
    out.set("collectives.calls_per_step", calls);
    out.set("collectives.bytes_per_step", bytes);

    Ok(Outcome {
        metrics: out.into_metrics(false),
        attempted: wave.len() as u64,
        failed: incomplete(&wave, &run),
        errors: Vec::new(),
        fingerprint: 0,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{toy, Kind};

    #[test]
    fn the_admission_model_matches_the_engine() {
        let _guard = crate::arena_test_lock();
        for w in toy() {
            let Kind::Serve(spec) = &w.kind else { continue };
            let wave = spec.wave(0, 9, 3);
            let planned = plan(&wave, spec);
            let mut engine = start(spec, false).unwrap();
            let run = engine.serve(&wave);
            engine.shutdown();
            assert_eq!(planned.steps, run.steps, "{}", w.name);
            let occupancy = planned.entries as f64 / (planned.steps * spec.max_batch) as f64;
            assert!((occupancy - run.occupancy()).abs() < 1e-9, "{}", w.name);
            let rows: usize = wave.iter().map(|r| r.prompt.len() + r.output_len - 1).sum();
            assert_eq!(planned.rows, rows, "{}", w.name);
            let prompts: usize = wave.iter().map(|r| r.prompt.len()).sum();
            assert_eq!(planned.prompt_rows, prompts, "{}", w.name);
        }
    }

    #[test]
    fn a_corrupted_token_stream_fails_the_check() {
        let w = &toy()[2];
        let Kind::Serve(spec) = &w.kind else {
            panic!("a serve workload")
        };
        let wave = spec.wave(0, 3, 1);
        let sampled: Vec<&Request> = wave.iter().collect();
        let oracle = |r: &Request| Ok((0..r.output_len).collect::<Vec<usize>>());
        let good = |id: usize| Some((0..wave[id].output_len).collect::<Vec<usize>>());
        assert_eq!(
            mismatches(&sampled, &good, &oracle).unwrap(),
            Vec::<usize>::new()
        );
        let corrupt = |id: usize| {
            let mut s: Vec<usize> = (0..wave[id].output_len).collect();
            if id == 1 {
                s[0] ^= 1;
            }
            Some(s)
        };
        assert_eq!(mismatches(&sampled, &corrupt, &oracle).unwrap(), vec![1]);
        let missing = |id: usize| (id != 2).then(|| (0..wave[id].output_len).collect());
        assert_eq!(mismatches(&sampled, &missing, &oracle).unwrap(), vec![2]);
    }
}
