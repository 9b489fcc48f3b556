//! Schedule generators: 1F1B (plain, with Vocabulary Parallelism, and the
//! interlaced baseline) and V-Half (plain and with Vocabulary Parallelism).
//!
//! Every generator derives a *building block* — per-device pass offsets for
//! one microbatch plus a repeat interval (§5.2) — whose offsets become
//! nominal priorities for the greedy synthesizer ([`crate::synth`]), and
//! whose lifespan analysis becomes the per-device activation cap. The
//! sharded input-layer passes of Appendix C are added with irregular
//! priorities (warm-up / cool-down handling), exactly as the paper
//! describes.

use crate::block::{BlockEntry, BuildingBlock, PassTimes};
use crate::pass::{ChunkPlacement, PassKind, Schedule, ScheduleKind, ScheduledPass, VocabVariant};
use crate::synth::{synthesize, NominalPass, SynthInput};

/// Small epsilon used to order a pass strictly before/after another at the
/// same nominal time.
const EPS: f64 = 1e-6;

/// Nominal priorities for the sharded input-layer passes of Appendix C,
/// shared by every vocabulary-parallel generator.
///
/// `interval` is the block's repeat interval, `s0` the offset of the first
/// `S` pass, `t_offset` the offset of the (possibly deferred) `T` pass and
/// `b0_end` the finish time of the first virtual stage's backward for
/// microbatch 0.
fn input_pass_priorities(
    m: u32,
    times: &PassTimes,
    interval: f64,
    s0: f64,
    t_offset: f64,
    b0_end: f64,
) -> Vec<(f64, ScheduledPass)> {
    let mut v = Vec::new();
    for k in 0..m {
        // Warm-up: one microbatch ahead of the first stage's F_k
        // (which runs at k·f during warm-up); steady state:
        // piggybacked one interval before the S pass (Appendix C).
        let warmup = k as f64 * times.f - times.input_f - times.comm - EPS;
        let steady = s0 + k as f64 * interval - interval;
        v.push((warmup.min(steady), ScheduledPass::new(PassKind::InputF, k)));
        // Backward: piggybacked one interval after T, but never before
        // the first stage's backward has produced the gradient
        // (cool-down handling).
        let grad_ready = b0_end + k as f64 * interval + EPS;
        let b_time = (t_offset + k as f64 * interval + interval).max(grad_ready);
        v.push((b_time, ScheduledPass::new(PassKind::InputB, k)));
    }
    v
}

fn synthesize_block(
    block: &BuildingBlock,
    m: u32,
    caps: Vec<Vec<usize>>,
    extra: impl Fn(usize) -> Vec<(f64, ScheduledPass)>,
) -> Schedule {
    synthesize_block_placed(block, m, caps, ChunkPlacement::VShape, extra)
}

fn synthesize_block_placed(
    block: &BuildingBlock,
    m: u32,
    caps: Vec<Vec<usize>>,
    placement: ChunkPlacement,
    extra: impl Fn(usize) -> Vec<(f64, ScheduledPass)>,
) -> Schedule {
    let passes = (0..block.devices())
        .map(|d| {
            let mut v: Vec<NominalPass> = block
                .timed_passes(d, m)
                .into_iter()
                .map(|(priority, pass)| NominalPass { pass, priority })
                .collect();
            v.extend(
                extra(d)
                    .into_iter()
                    .map(|(priority, pass)| NominalPass { pass, priority }),
            );
            v
        })
        .collect();
    synthesize(&SynthInput {
        kind: block.kind(),
        num_microbatches: m,
        chunks: block.chunks(),
        placement,
        passes,
        activation_caps: Some(caps),
        times: *block.times(),
    })
}

// ---------------------------------------------------------------------------
// 1F1B
// ---------------------------------------------------------------------------

/// Building block of the classic 1F1B schedule (Harlap et al. 2018):
/// forward at `d·f`, backward at `p·f + (p−1−d)·b`; interval `f + b`.
pub fn one_f_one_b_block(p: usize, times: PassTimes) -> BuildingBlock {
    assert!(p > 0, "need at least one device");
    let entries = (0..p)
        .map(|d| {
            vec![
                BlockEntry {
                    kind: PassKind::F,
                    chunk: 0,
                    offset: d as f64 * times.f,
                },
                BlockEntry {
                    kind: PassKind::B,
                    chunk: 0,
                    offset: p as f64 * times.f + (p - 1 - d) as f64 * times.b + times.comm,
                },
            ]
        })
        .collect();
    BuildingBlock::new(ScheduleKind::Plain, entries, times.f + times.b, times, 1)
}

/// The classic 1F1B schedule for `p` devices and `m` microbatches
/// (activation memory: `p − d` microbatches on device `d`).
pub fn one_f_one_b(p: usize, m: u32, times: PassTimes) -> Schedule {
    let block = one_f_one_b_block(p, times);
    let caps = (0..p).map(|d| vec![p - d]).collect();
    synthesize_block(&block, m, caps, |_| Vec::new())
}

// ---------------------------------------------------------------------------
// 1F1B + Vocabulary Parallelism (the paper's Figures 9 and 10)
// ---------------------------------------------------------------------------

/// Building block of 1F1B with Vocabulary Parallelism.
///
/// The output-layer passes are inserted between the forward and backward of
/// the last transformer stage, pushing the backward chain later by one
/// interval per communication barrier (3 for naive, 2 for Algorithm 1,
/// 1 for Algorithm 2) — which is exactly the schedule's activation-memory
/// overhead in microbatches (§5.2).
pub fn vocab_1f1b_block(p: usize, variant: VocabVariant, times: PassTimes) -> BuildingBlock {
    assert!(p > 0, "need at least one device");
    let out_time: f64 = variant
        .output_passes()
        .iter()
        .map(|&k| times.duration(k))
        .sum();
    let interval = times.f + times.b + out_time;
    let n = variant.barriers() as f64;
    let s0 = p as f64 * times.f + times.comm;
    let entries = (0..p)
        .map(|d| {
            let mut v = vec![
                BlockEntry {
                    kind: PassKind::F,
                    chunk: 0,
                    offset: d as f64 * times.f,
                },
                BlockEntry {
                    kind: PassKind::B,
                    chunk: 0,
                    offset: p as f64 * times.f
                        + n * interval
                        + (p - 1 - d) as f64 * times.b
                        + times.comm,
                },
            ];
            for (i, &kind) in variant.output_passes().iter().enumerate() {
                v.push(BlockEntry {
                    kind,
                    chunk: 0,
                    offset: s0 + i as f64 * interval,
                });
            }
            v
        })
        .collect();
    BuildingBlock::new(ScheduleKind::Vocab(variant), entries, interval, times, 1)
}

/// 1F1B with Vocabulary Parallelism (the paper's *Vocab-1* / *Vocab-2* and
/// the naive 3-barrier grouping), optionally including the sharded
/// input-layer passes of Appendix C.
///
/// # Example
///
/// ```
/// use vp_schedule::block::PassTimes;
/// use vp_schedule::generators::vocab_1f1b;
/// use vp_schedule::pass::{PassKind, VocabVariant};
///
/// let schedule = vocab_1f1b(4, 8, VocabVariant::Alg2, PassTimes::default(), true);
/// vp_schedule::deps::validate(&schedule).expect("obeys the §5.1 constraints");
/// assert_eq!(schedule.count_kind(0, PassKind::S), 8); // one S per microbatch
/// ```
pub fn vocab_1f1b(
    p: usize,
    m: u32,
    variant: VocabVariant,
    times: PassTimes,
    include_input: bool,
) -> Schedule {
    let block = vocab_1f1b_block(p, variant, times);
    let interval = block.interval();
    let s0 = p as f64 * times.f + times.comm;
    let t_offset = s0 + (variant.output_passes().len() - 1) as f64 * interval;
    // First-stage backward finish time (for InputB placement).
    let b0_end = p as f64 * times.f
        + variant.barriers() as f64 * interval
        + (p - 1) as f64 * times.b
        + times.comm
        + times.b;
    let caps = (0..p).map(|d| vec![p - d + variant.barriers()]).collect();
    synthesize_block(&block, m, caps, |_d| {
        if !include_input {
            return Vec::new();
        }
        input_pass_priorities(m, &times, interval, s0, t_offset, b0_end)
    })
}

// ---------------------------------------------------------------------------
// Zero-bubble 1F1B (ZB-H1, Qi et al. 2023) — an extension demonstrating the
// paper's §4.4 remark: Algorithm 2's T pass "can be arbitrarily delayed",
// exactly like the zero-bubble W pass.
// ---------------------------------------------------------------------------

/// Building block of zero-bubble 1F1B (ZB-H1): the backward is split into
/// `B` (activation gradients, on the critical chain) and `W` (weight
/// gradients, freely deferrable). `W` passes are given late nominal
/// priorities so the synthesizer uses them to fill warm-up and drain
/// bubbles.
pub fn zb_1f1b_block(p: usize, times: PassTimes) -> BuildingBlock {
    assert!(p > 0, "need at least one device");
    assert!(
        times.w > 0.0,
        "zero-bubble schedules require a split W pass time"
    );
    let interval = times.f + times.b + times.w;
    let entries = (0..p)
        .map(|d| {
            let b_off = p as f64 * times.f + (p - 1 - d) as f64 * times.b + times.comm;
            vec![
                BlockEntry {
                    kind: PassKind::F,
                    chunk: 0,
                    offset: d as f64 * times.f,
                },
                BlockEntry {
                    kind: PassKind::B,
                    chunk: 0,
                    offset: b_off,
                },
                // Deferred by one interval: a pure filler.
                BlockEntry {
                    kind: PassKind::W,
                    chunk: 0,
                    offset: b_off + interval,
                },
            ]
        })
        .collect();
    BuildingBlock::new(ScheduleKind::Plain, entries, interval, times, 1)
}

/// Zero-bubble 1F1B for `p` devices and `m` microbatches.
pub fn zb_1f1b(p: usize, m: u32, times: PassTimes) -> Schedule {
    let block = zb_1f1b_block(p, times);
    let caps = (0..p).map(|d| vec![p - d]).collect();
    synthesize_block(&block, m, caps, |_| Vec::new())
}

/// Building block of zero-bubble 1F1B with Vocabulary Parallelism. With
/// Algorithm 2, both `W` and `T` are deferrable fillers, realizing the
/// zero-bubble affinity the paper points out in §4.4.
pub fn zb_vocab_1f1b_block(p: usize, variant: VocabVariant, times: PassTimes) -> BuildingBlock {
    assert!(p > 0, "need at least one device");
    assert!(
        times.w > 0.0,
        "zero-bubble schedules require a split W pass time"
    );
    let out_time: f64 = variant
        .output_passes()
        .iter()
        .map(|&k| times.duration(k))
        .sum();
    let interval = times.f + times.b + times.w + out_time;
    let n = variant.barriers() as f64;
    let s0 = p as f64 * times.f + times.comm;
    let entries = (0..p)
        .map(|d| {
            let b_off =
                p as f64 * times.f + n * interval + (p - 1 - d) as f64 * times.b + times.comm;
            let mut v = vec![
                BlockEntry {
                    kind: PassKind::F,
                    chunk: 0,
                    offset: d as f64 * times.f,
                },
                BlockEntry {
                    kind: PassKind::B,
                    chunk: 0,
                    offset: b_off,
                },
                BlockEntry {
                    kind: PassKind::W,
                    chunk: 0,
                    offset: b_off + interval,
                },
            ];
            for (i, &kind) in variant.output_passes().iter().enumerate() {
                let defer = if kind == PassKind::T && variant == VocabVariant::Alg2 {
                    // Algorithm 2's T is a pure filler like W.
                    2.0 * interval
                } else {
                    i as f64 * interval
                };
                v.push(BlockEntry {
                    kind,
                    chunk: 0,
                    offset: s0 + defer,
                });
            }
            v
        })
        .collect();
    BuildingBlock::new(ScheduleKind::Vocab(variant), entries, interval, times, 1)
}

/// Zero-bubble 1F1B with Vocabulary Parallelism, optionally including the
/// sharded input-layer passes of Appendix C (required when the schedule is
/// executed numerically by `vp-runtime`).
pub fn zb_vocab_1f1b(
    p: usize,
    m: u32,
    variant: VocabVariant,
    times: PassTimes,
    include_input: bool,
) -> Schedule {
    let block = zb_vocab_1f1b_block(p, variant, times);
    let interval = block.interval();
    let s0 = p as f64 * times.f + times.comm;
    // Algorithm 2's T is deferred two intervals in the block above; the
    // InputB piggyback must track the deferred offset.
    let t_offset = if variant == VocabVariant::Alg2 {
        s0 + 2.0 * interval
    } else {
        s0 + (variant.output_passes().len() - 1) as f64 * interval
    };
    let b0_end = p as f64 * times.f
        + variant.barriers() as f64 * interval
        + (p - 1) as f64 * times.b
        + times.comm
        + times.b;
    let caps = (0..p).map(|d| vec![p - d + variant.barriers()]).collect();
    synthesize_block(&block, m, caps, |_d| {
        if !include_input {
            return Vec::new();
        }
        input_pass_priorities(m, &times, interval, s0, t_offset, b0_end)
    })
}

// ---------------------------------------------------------------------------
// Interlaced pipeline (Lin et al.'s nnScaler baseline, §2 and Appendix B)
// ---------------------------------------------------------------------------

/// Building block of the interlaced pipeline: the vocabulary layers run
/// tensor-parallel style, synchronously on all devices, once per
/// microbatch.
///
/// Per Appendix B.1 (Figure 15b), the synchronization stretches the
/// 1F1B lifespan from `3p` to ≈`4.5p`, i.e. 1.5× the activation memory; we
/// encode that stretch directly in the backward offsets, matching the
/// paper's analysis.
pub fn interlaced_block(p: usize, times: PassTimes) -> BuildingBlock {
    assert!(p > 0, "need at least one device");
    let interval = times.f + times.b + times.s + times.t;
    let out_f = p as f64 * times.f + times.comm;
    let out_b = out_f + times.s + times.comm;
    let entries = (0..p)
        .map(|d| {
            // Target lifespan 1.5× of plain 1F1B on every device.
            let plain_lifespan = (p - d) as f64 * (times.f + times.b);
            let b_offset = d as f64 * times.f + 1.5 * plain_lifespan - times.b;
            vec![
                BlockEntry {
                    kind: PassKind::F,
                    chunk: 0,
                    offset: d as f64 * times.f,
                },
                BlockEntry {
                    kind: PassKind::OutputF,
                    chunk: 0,
                    offset: out_f,
                },
                BlockEntry {
                    kind: PassKind::OutputB,
                    chunk: 0,
                    offset: out_b,
                },
                BlockEntry {
                    kind: PassKind::B,
                    chunk: 0,
                    offset: b_offset.max(out_b + times.t + times.comm),
                },
            ]
        })
        .collect();
    BuildingBlock::new(ScheduleKind::Interlaced, entries, interval, times, 1)
}

/// The interlaced 1F1B schedule for `p` devices and `m` microbatches.
pub fn interlaced_1f1b(p: usize, m: u32, times: PassTimes) -> Schedule {
    let block = interlaced_block(p, times);
    let caps = (0..p)
        .map(|d| vec![((1.5 * (p - d) as f64).ceil() as usize).max(1) + 1])
        .collect();
    synthesize_block(&block, m, caps, |_| Vec::new())
}

// ---------------------------------------------------------------------------
// Interleaved 1F1B (Narayanan et al. 2021) — a third schedule family,
// demonstrating that the §5.2 building-block insertion generalizes beyond
// 1F1B and V-Half.
// ---------------------------------------------------------------------------

/// Building block of interleaved 1F1B: each device hosts `chunks` model
/// chunks placed round-robin (virtual stage `c·p + d` on device `d`),
/// shrinking the pipeline-fill bubble by `1/chunks` at the cost of more
/// in-flight microbatches.
pub fn interleaved_block(p: usize, chunks: u8, times: PassTimes) -> BuildingBlock {
    interleaved_block_inner(p, chunks, times, None)
}

/// Building block of interleaved 1F1B with Vocabulary Parallelism output
/// passes inserted after the last virtual stage's forward — the same §5.2
/// construction applied to a third schedule.
pub fn interleaved_vocab_block(
    p: usize,
    chunks: u8,
    variant: VocabVariant,
    times: PassTimes,
) -> BuildingBlock {
    interleaved_block_inner(p, chunks, times, Some(variant))
}

fn interleaved_block_inner(
    p: usize,
    chunks: u8,
    times: PassTimes,
    variant: Option<VocabVariant>,
) -> BuildingBlock {
    assert!(p > 0, "need at least one device");
    assert!(chunks >= 1, "need at least one chunk");
    let v = p * chunks as usize; // virtual stages
    let out_time: f64 = variant
        .map(|var| var.output_passes().iter().map(|&k| times.duration(k)).sum())
        .unwrap_or(0.0);
    let interval = chunks as f64 * (times.f + times.b) + out_time;
    let n = variant.map(|var| var.barriers()).unwrap_or(0) as f64;
    let f_last_end = v as f64 * times.f;
    let s0 = f_last_end + times.comm;
    let entries = (0..p)
        .map(|d| {
            let mut list = Vec::new();
            for c in 0..chunks {
                let vs = c as usize * p + d;
                list.push(BlockEntry {
                    kind: PassKind::F,
                    chunk: c,
                    offset: vs as f64 * times.f,
                });
                list.push(BlockEntry {
                    kind: PassKind::B,
                    chunk: c,
                    offset: f_last_end + n * interval + (v - 1 - vs) as f64 * times.b + times.comm,
                });
            }
            if let Some(var) = variant {
                for (i, &kind) in var.output_passes().iter().enumerate() {
                    list.push(BlockEntry {
                        kind,
                        chunk: 0,
                        offset: s0 + i as f64 * interval,
                    });
                }
            }
            list
        })
        .collect();
    let kind = match variant {
        None => ScheduleKind::Plain,
        Some(var) => ScheduleKind::Vocab(var),
    };
    BuildingBlock::new(kind, entries, interval, times, chunks)
}

fn interleaved_caps(block: &BuildingBlock, extra: usize) -> Vec<Vec<usize>> {
    (0..block.devices())
        .map(|d| {
            (0..block.chunks())
                .map(|c| {
                    let lifespan = block.lifespan(d, c).unwrap_or(0.0);
                    (lifespan / block.interval()).ceil() as usize + extra + 1
                })
                .collect()
        })
        .collect()
}

/// Interleaved 1F1B (Narayanan et al.) for `p` devices, `chunks` model
/// chunks per device and `m` microbatches.
pub fn interleaved_1f1b(p: usize, chunks: u8, m: u32, times: PassTimes) -> Schedule {
    let block = interleaved_block(p, chunks, times);
    let caps = interleaved_caps(&block, 0);
    synthesize_block_placed(&block, m, caps, ChunkPlacement::RoundRobin, |_| Vec::new())
}

/// Interleaved 1F1B with Vocabulary Parallelism: the last virtual stage
/// lives on device `p−1`, so `C0` broadcasts from there exactly as in the
/// plain 1F1B integration; everything else is the same building-block
/// insertion. `include_input` adds the sharded input-layer passes of
/// Appendix C (required for numeric execution by `vp-runtime`).
pub fn interleaved_vocab_1f1b(
    p: usize,
    chunks: u8,
    m: u32,
    variant: VocabVariant,
    times: PassTimes,
    include_input: bool,
) -> Schedule {
    let block = interleaved_vocab_block(p, chunks, variant, times);
    let interval = block.interval();
    let v = p * chunks as usize;
    let f_last_end = v as f64 * times.f;
    let s0 = f_last_end + times.comm;
    let t_offset = s0 + (variant.output_passes().len() - 1) as f64 * interval;
    // First virtual stage (device 0, chunk 0) backward finish time.
    let b0_end = f_last_end
        + variant.barriers() as f64 * interval
        + (v - 1) as f64 * times.b
        + times.comm
        + times.b;
    let caps = interleaved_caps(&block, variant.barriers());
    synthesize_block_placed(&block, m, caps, ChunkPlacement::RoundRobin, |_d| {
        if !include_input {
            return Vec::new();
        }
        input_pass_priorities(m, &times, interval, s0, t_offset, b0_end)
    })
}

// ---------------------------------------------------------------------------
// V-Half (Qi et al. 2024), plain and with Vocabulary Parallelism
// ---------------------------------------------------------------------------

/// Building block of the V-Half schedule: two model chunks per device in a
/// V-shape placement (chunk 0 descends devices `0..p`, chunk 1 ascends), so
/// each resident microbatch-chunk holds half a device's layers — halving
/// and balancing activation memory relative to 1F1B.
pub fn vhalf_block(p: usize, times: PassTimes) -> BuildingBlock {
    vhalf_block_inner(p, times, None)
}

/// Building block of V-Half with Vocabulary Parallelism output passes
/// inserted after the last virtual stage's forward (Appendix D, Figure 16).
pub fn vhalf_vocab_block(p: usize, variant: VocabVariant, times: PassTimes) -> BuildingBlock {
    vhalf_block_inner(p, times, Some(variant))
}

fn vhalf_block_inner(p: usize, times: PassTimes, variant: Option<VocabVariant>) -> BuildingBlock {
    assert!(p > 0, "need at least one device");
    let out_time: f64 = variant
        .map(|v| v.output_passes().iter().map(|&k| times.duration(k)).sum())
        .unwrap_or(0.0);
    let interval = 2.0 * (times.f + times.b + times.w) + out_time;
    let n = variant.map(|v| v.barriers()).unwrap_or(0) as f64;
    // Forward: chunk 0 descends (virtual stage d), chunk 1 ascends
    // (virtual stage 2p−1−d). The last virtual stage (2p−1) lives on
    // device 0, which therefore also hosts the full vocabulary layers in
    // the *baseline* V-Half — the memory imbalance the paper measures.
    let f1_last_end = 2.0 * p as f64 * times.f; // F of virtual stage 2p−1 ends
    let s0 = f1_last_end + times.comm;
    // Backward: B of chunk 1 starts at device 0 and descends; B of chunk 0
    // then ascends. Vocabulary barriers push the whole backward wave by
    // n intervals (§5.2 applied to the V-Half block).
    let b_start = f1_last_end + n * interval + times.comm;
    let entries = (0..p)
        .map(|d| {
            let mut v = vec![
                BlockEntry {
                    kind: PassKind::F,
                    chunk: 0,
                    offset: d as f64 * times.f,
                },
                BlockEntry {
                    kind: PassKind::F,
                    chunk: 1,
                    offset: (2 * p - 1 - d) as f64 * times.f,
                },
                BlockEntry {
                    kind: PassKind::B,
                    chunk: 1,
                    offset: b_start + d as f64 * times.b,
                },
                BlockEntry {
                    kind: PassKind::B,
                    chunk: 0,
                    offset: b_start + p as f64 * times.b + (p - 1 - d) as f64 * times.b,
                },
            ];
            if times.w > 0.0 {
                // Weight-gradient passes directly after each backward; the
                // synthesizer may slide them later since nothing depends on
                // them within the iteration.
                v.push(BlockEntry {
                    kind: PassKind::W,
                    chunk: 1,
                    offset: b_start + d as f64 * times.b + times.b + EPS,
                });
                v.push(BlockEntry {
                    kind: PassKind::W,
                    chunk: 0,
                    offset: b_start + (2 * p - 1 - d) as f64 * times.b + times.b + EPS,
                });
            }
            if let Some(var) = variant {
                for (i, &kind) in var.output_passes().iter().enumerate() {
                    v.push(BlockEntry {
                        kind,
                        chunk: 0,
                        offset: s0 + i as f64 * interval,
                    });
                }
            }
            v
        })
        .collect();
    let kind = match variant {
        None => ScheduleKind::Plain,
        Some(v) => ScheduleKind::Vocab(v),
    };
    BuildingBlock::new(kind, entries, interval, times, 2)
}

fn vhalf_caps(block: &BuildingBlock, extra: usize) -> Vec<Vec<usize>> {
    // One unit of slack beyond the analytic bound per chunk trades a small,
    // bounded amount of activation memory for sustained throughput (our
    // uniformly-repeated V-Half block reaches ≈0.65–0.7× of 1F1B's device-0
    // activation bytes rather than the ideal 0.5×; the *balance* across
    // devices — the property §6.4 evaluates — is preserved exactly).
    (0..block.devices())
        .map(|d| {
            (0..block.chunks())
                .map(|c| {
                    let lifespan = block.lifespan(d, c).unwrap_or(0.0);
                    (lifespan / block.interval()).ceil() as usize + extra + 2
                })
                .collect()
        })
        .collect()
}

/// The plain V-Half schedule.
pub fn vhalf(p: usize, m: u32, times: PassTimes) -> Schedule {
    let block = vhalf_block(p, times);
    let caps = vhalf_caps(&block, 0);
    synthesize_block(&block, m, caps, |_| Vec::new())
}

/// V-Half with Vocabulary Parallelism (the paper's §6.4 configuration),
/// optionally including the sharded input-layer passes.
pub fn vhalf_vocab(
    p: usize,
    m: u32,
    variant: VocabVariant,
    times: PassTimes,
    include_input: bool,
) -> Schedule {
    let block = vhalf_vocab_block(p, variant, times);
    let interval = block.interval();
    let s0 = 2.0 * p as f64 * times.f + times.comm;
    let t_offset = s0 + (variant.output_passes().len() - 1) as f64 * interval;
    // First virtual stage (chunk 0, device 0) backward finish time.
    let b0_end = 2.0 * p as f64 * times.f
        + variant.barriers() as f64 * interval
        + times.comm
        + (2 * p - 1) as f64 * times.b
        + times.b;
    let caps = vhalf_caps(&block, variant.barriers());
    synthesize_block(&block, m, caps, |_d| {
        if !include_input {
            return Vec::new();
        }
        input_pass_priorities(m, &times, interval, s0, t_offset, b0_end)
    })
}

// ---------------------------------------------------------------------------
// Forward-only decode pipeline (inference serving)
// ---------------------------------------------------------------------------

/// The forward-only decode family, one generator over the group size `g`:
/// the pass list one decode step of the serving engine walks.
///
/// Each "microbatch" is one active request slot's next token. Per slot the
/// pipeline runs the sharded input embedding (`InputF`, Appendix C) and the
/// transformer forwards (`F`, stage by stage). The Algorithm-2 `S` pass
/// (sharded logits + local softmax stats + local top-k) then runs once per
/// **group** of `g` consecutive slots: `S(k)` is scheduled for the last
/// slot `k` of each group and samples every slot `≤ k` that no earlier `S`
/// on its device sampled ([`Schedule::s_groups`]) — one `m = g` GEMM over
/// the stacked hidden rows and one **single** `C1` barrier of `g` rows.
/// Sampling happens identically on every device after the barrier, so no
/// backward of any kind exists. The structure is the §4.2 schedule with
/// everything after the output layer's only barrier deleted.
///
/// `g = 1` is the per-slot schedule (one `S` per slot, as in training);
/// `g = m` is one output-layer GEMM and one barrier per step, which is
/// what the engine runs ([`decode_pipeline`]); `g = ⌈m/2⌉` is TokenWeave's
/// two-half-batch weave. The last group is short when `g ∤ m`.
///
/// Devices warm up exactly like 1F1B: device `d` runs `S(k)` once it is
/// `p − d − 1` forwards ahead of slot `k` (or out of forwards), so at
/// `g = 1` and `m ≥ p` all `p` devices alternate `S`/`F` in steady state.
///
/// With `overlap`, each `S` only *submits* its all-gather to the device's
/// communication stream and a `T` pass of the same slot — placed after the
/// next forward, or right behind the `S` when no forward is left — waits
/// on it and runs the identical merge (TokenWeave-style split):
///
/// ```text
/// g = 1:  InputF*, F(0..warm), [S(k−warm) F(k) T(k−warm)].., [S(k) T(k)]..
/// g = m:  InputF*, F(0..m), S(m−1), T(m−1)
/// ```
///
/// `S` and `T` orders ascend on every device and each `T(k)` sits after
/// its own `S(k)`, so the protocol lints (`VP0006`, `VP0007`) hold by
/// construction. A group that schedules a `T` is stream-offloaded in
/// `vp_schedule::deps::sync_collectives` (the wait is modelled at `T`); a
/// group without one is a rendezvous on the device thread.
///
/// All `InputF` passes are hoisted to the head of every device's list.
/// `InputF` only *sends* (the owning shard pushes its embedding row to
/// stage 0 over an asynchronous, stashing channel), so issuing the sends
/// up front costs nothing — whereas interleaving them into the steady
/// state deadlocks the real rendezvous runtime: the token owner can sit
/// inside an `S` collective (waiting on stage 0) while stage 0's next `F`
/// waits on the owner's not-yet-sent embedding row. `vp-check`'s
/// rendezvous-faithful deadlock analysis rejects the un-hoisted layout
/// ([`crate::fixtures::decode_pipeline_natural`]) with `VP0017`, and the
/// rendezvous-faithful executor gets stuck on it — so a regression to
/// natural-position sends cannot pass CI.
///
/// # Panics
///
/// Panics if `p == 0`, `m == 0` or `g == 0`.
pub fn decode_pipeline_grouped(p: usize, m: u32, g: u32, overlap: bool) -> Schedule {
    assert!(p > 0, "need at least one device");
    assert!(m > 0, "need at least one slot");
    assert!(g > 0, "need at least one slot per group");
    let device_passes = (0..p)
        .map(|d| {
            let warm = (p - d) as u32;
            let mut v: Vec<ScheduledPass> = (0..m)
                .map(|k| ScheduledPass::new(PassKind::InputF, k))
                .collect();
            // Last slots of the groups still waiting for their S.
            let mut ends = (0..m).filter(|k| (k + 1) % g == 0 || k + 1 == m).peekable();
            // Overlap: the S whose merge waits behind the next forward.
            let mut in_flight = None;
            for k in 0..m {
                v.push(ScheduledPass::new(PassKind::F, k));
                if let Some(e) = in_flight.take() {
                    v.push(ScheduledPass::new(PassKind::T, e));
                }
                let last = k + 1 == m;
                while let Some(e) = ends.next_if(|e| last || e + warm <= k + 1) {
                    v.push(ScheduledPass::new(PassKind::S, e));
                    if overlap && last {
                        v.push(ScheduledPass::new(PassKind::T, e));
                    } else if overlap {
                        in_flight = Some(e);
                    }
                }
            }
            v
        })
        .collect();
    Schedule::new(ScheduleKind::Vocab(VocabVariant::Alg2), m, 1, device_passes)
}

/// The decode schedule the serving engine walks with its inline sampling
/// barrier: [`decode_pipeline_grouped`] at `g = m`, i.e.
/// `InputF*, F(0..m), S(m−1)` on every device — the shard is read once and
/// the devices rendezvous once per step.
///
/// # Panics
///
/// Panics if `p == 0` or `m == 0`.
pub fn decode_pipeline(p: usize, m: u32) -> Schedule {
    decode_pipeline_grouped(p, m, m, false)
}

/// The decode schedule the serving engine walks with the sampling barrier
/// split off the device thread: [`decode_pipeline_grouped`] at `g = m`
/// with `overlap`, i.e. `InputF*, F(0..m), S(m−1), T(m−1)` — `S` submits
/// the one all-gather to the communication stream, `T` joins it and
/// merges. At `g = m` nothing is left to run between the two, so this
/// family is kept correct (model-checked, bitwise the inline tokens), not
/// tuned; the overlap window exists at `g < m`.
///
/// # Panics
///
/// Panics if `p == 0` or `m == 0`.
pub fn decode_pipeline_overlap(p: usize, m: u32) -> Schedule {
    decode_pipeline_grouped(p, m, m, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocab_block_memory_overhead_equals_barriers() {
        // §5.2: the activation-memory overhead (in microbatches) equals the
        // number of communication barriers. Use zero comm and tiny vocab
        // pass times so the analytic bound is tight: the vocab block's
        // lifespan is exactly `plain lifespan + barriers·interval`.
        let times = PassTimes {
            s: 0.01,
            t: 0.01,
            comm: 0.0,
            ..PassTimes::default()
        };
        let p = 8;
        let plain = one_f_one_b_block(p, times);
        for variant in [VocabVariant::Naive, VocabVariant::Alg1, VocabVariant::Alg2] {
            let block = vocab_1f1b_block(p, variant, times);
            for d in 0..p {
                let plain_lifespan = plain.lifespan(d, 0).unwrap();
                let expected =
                    (plain_lifespan / block.interval()).ceil() + variant.barriers() as f64;
                let got = block.peak_activation_microbatches(d);
                assert_eq!(got, expected, "{variant:?} device {d}");
                // And the overhead never exceeds the barrier count.
                assert!(got <= plain.peak_activation_microbatches(d) + variant.barriers() as f64);
            }
        }
    }

    #[test]
    fn vocab_schedule_contains_all_passes() {
        let sched = vocab_1f1b(4, 6, VocabVariant::Alg1, PassTimes::default(), true);
        for d in 0..4 {
            for kind in [
                PassKind::F,
                PassKind::B,
                PassKind::S,
                PassKind::T,
                PassKind::InputF,
                PassKind::InputB,
            ] {
                assert_eq!(sched.count_kind(d, kind), 6, "kind {kind:?} device {d}");
            }
        }
    }

    #[test]
    fn input_forward_precedes_first_forward_on_device_zero() {
        let sched = vocab_1f1b(4, 4, VocabVariant::Alg2, PassTimes::default(), true);
        for k in 0..4u32 {
            let passes = sched.passes(0);
            let input_pos = passes
                .iter()
                .position(|p| p.kind == PassKind::InputF && p.microbatch == k)
                .unwrap();
            let f0_pos = passes
                .iter()
                .position(|p| p.kind == PassKind::F && p.microbatch == k)
                .unwrap();
            assert!(
                input_pos < f0_pos,
                "mb {k}: input at {input_pos}, F at {f0_pos}"
            );
        }
    }

    #[test]
    fn interlaced_lifespan_is_1_5x_of_1f1b() {
        let times = PassTimes::default();
        let p = 8;
        let plain = one_f_one_b_block(p, times);
        let inter = interlaced_block(p, times);
        for d in 0..p - 1 {
            let ratio = inter.lifespan(d, 0).unwrap() / plain.lifespan(d, 0).unwrap();
            assert!((1.45..1.6).contains(&ratio), "device {d}: ratio {ratio}");
        }
    }

    #[test]
    fn vhalf_activation_is_balanced_and_halved() {
        let times = PassTimes {
            w: 1.0,
            b: 1.0,
            ..PassTimes::default()
        };
        let p = 8;
        let block = vhalf_block(p, times);
        // Per-device resident microbatch-chunks must be (near) identical
        // across devices — the balance property.
        let peaks: Vec<f64> = (0..p)
            .map(|d| block.peak_activation_microbatches(d))
            .collect();
        let max = peaks.iter().cloned().fold(0.0f64, f64::max);
        let min = peaks.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max - min <= 1.0, "peaks {peaks:?}");
        // Each chunk holds half a device's layers, so the byte peak is
        // peak/2 in 1F1B microbatch units: must be ≈ half of 1F1B's p.
        let device0_units = peaks[0] / 2.0;
        assert!(device0_units <= 0.75 * p as f64, "units {device0_units}");
    }

    #[test]
    fn vhalf_chunks_form_a_v() {
        let sched = vhalf(4, 4, PassTimes::default());
        assert_eq!(sched.chunks(), 2);
        for d in 0..4 {
            assert_eq!(sched.count_kind(d, PassKind::F), 8); // 2 chunks × 4 mbs
            assert_eq!(sched.count_kind(d, PassKind::B), 8);
        }
        // Device p−1 hosts consecutive virtual stages: its chunk-1 F comes
        // right after its chunk-0 F for the same microbatch.
        let last = sched.passes(3);
        let f0 = last
            .iter()
            .position(|p| p.kind == PassKind::F && p.microbatch == 0 && p.chunk == 0)
            .unwrap();
        let f1 = last
            .iter()
            .position(|p| p.kind == PassKind::F && p.microbatch == 0 && p.chunk == 1)
            .unwrap();
        assert!(f1 > f0);
        assert!(
            f1 - f0 <= 2,
            "chunk-1 forward should closely follow chunk-0"
        );
    }

    #[test]
    fn vhalf_vocab_adds_output_passes_on_every_device() {
        let sched = vhalf_vocab(4, 5, VocabVariant::Alg1, PassTimes::default(), false);
        for d in 0..4 {
            assert_eq!(sched.count_kind(d, PassKind::S), 5);
            assert_eq!(sched.count_kind(d, PassKind::T), 5);
        }
    }

    #[test]
    fn interleaved_shortens_last_device_warmup() {
        use crate::exec::{Executor, UnitCosts};
        // Per-device work is equal: each of the 2 chunks holds half the
        // layers, so its passes take half the time.
        let plain_times = PassTimes::default();
        let chunk_times = PassTimes {
            f: 0.5,
            b: 1.0,
            ..PassTimes::default()
        };
        let (p, m) = (4usize, 16);
        let plain = one_f_one_b(p, m, plain_times);
        let inter = interleaved_1f1b(p, 2, m, chunk_times);
        let rp = Executor::new(&UnitCosts::new(plain_times, 1))
            .run(&plain)
            .unwrap();
        let ri = Executor::new(&UnitCosts::new(chunk_times, 2))
            .run(&inter)
            .unwrap();
        // The last device starts computing after (p−1)·f/chunks instead of
        // (p−1)·f — the fill-bubble reduction interleaving buys.
        assert!(
            ri.start[p - 1][0] < 0.6 * rp.start[p - 1][0],
            "interleaved first start {} vs plain {}",
            ri.start[p - 1][0],
            rp.start[p - 1][0]
        );
        // End-to-end the uniformly-repeated block is within a few percent
        // of plain 1F1B (Megatron's hand-tuned warmup pattern would
        // convert the earlier start into a net win; our synthesized order
        // trades part of it back — documented limitation).
        assert!(
            ri.makespan < 1.05 * rp.makespan,
            "interleaved {} vs plain {}",
            ri.makespan,
            rp.makespan
        );
        // More resident microbatch-chunks on device 0 (each holding half
        // the activations) — the known memory cost of interleaving.
        assert!(ri.peak_resident_microbatches[0] > rp.peak_resident_microbatches[0]);
    }

    #[test]
    fn interleaved_vocab_validates_and_flows() {
        use crate::deps::validate;
        use crate::exec::{Executor, UnitCosts};
        for variant in [VocabVariant::Alg1, VocabVariant::Alg2] {
            let chunk_times = PassTimes {
                f: 0.5,
                b: 1.0,
                ..PassTimes::default()
            };
            let sched = interleaved_vocab_1f1b(4, 2, 24, variant, chunk_times, false);
            validate(&sched).unwrap_or_else(|e| panic!("{variant:?}: {e}"));
            let costs = UnitCosts::new(chunk_times, 2);
            let report = Executor::new(&costs).run(&sched).unwrap();
            let interval = 2.0 * 1.5 + 0.6;
            let work = interval * 24.0;
            assert!(
                report.makespan < work + 10.0 * interval,
                "{variant:?}: makespan {}",
                report.makespan
            );
            for d in 0..4 {
                assert_eq!(sched.count_kind(d, PassKind::S), 24);
                assert_eq!(sched.count_kind(d, PassKind::T), 24);
            }
        }
    }

    #[test]
    fn zero_bubble_fills_warmup_with_w_passes() {
        use crate::exec::{Executor, UnitCosts};
        let times = PassTimes {
            f: 1.0,
            b: 1.0,
            w: 1.0,
            ..PassTimes::default()
        };
        let p = 6;
        let m = 48;
        let plain_times = PassTimes {
            f: 1.0,
            b: 2.0,
            w: 0.0,
            ..PassTimes::default()
        };
        let plain = one_f_one_b(p, m, plain_times);
        let zb = zb_1f1b(p, m, times);
        let costs_plain = UnitCosts::new(plain_times, 1);
        let costs_zb = UnitCosts::new(times, 1);
        let rp = Executor::new(&costs_plain).run(&plain).unwrap();
        let rz = Executor::new(&costs_zb).run(&zb).unwrap();
        // Same total work per device (f+b == f+b'+w); ZB fills bubbles.
        assert!(
            rz.mean_bubble_fraction() < rp.mean_bubble_fraction(),
            "zb {} vs plain {}",
            rz.mean_bubble_fraction(),
            rp.mean_bubble_fraction()
        );
        assert!(rz.makespan < rp.makespan);
    }

    #[test]
    fn zb_vocab_schedules_validate_and_sustain_throughput() {
        use crate::exec::{Executor, UnitCosts};
        let times = PassTimes {
            f: 1.0,
            b: 1.0,
            w: 1.0,
            s: 0.3,
            t: 0.3,
            ..PassTimes::default()
        };
        for variant in [VocabVariant::Alg1, VocabVariant::Alg2] {
            let sched = zb_vocab_1f1b(4, 48, variant, times, false);
            let costs = UnitCosts::new(times, 1);
            let report = Executor::new(&costs).run(&sched).unwrap();
            let interval = 3.0 + 0.6;
            let work = interval * 48.0;
            assert!(
                report.makespan < work + 10.0 * interval,
                "{variant:?}: makespan {}",
                report.makespan
            );
            for d in 0..4 {
                assert_eq!(sched.count_kind(d, PassKind::W), 48);
                assert_eq!(sched.count_kind(d, PassKind::T), 48);
            }
        }
    }

    #[test]
    fn zb_and_interleaved_vocab_input_passes_validate() {
        use crate::deps::validate;
        let zb_times = PassTimes {
            f: 1.0,
            b: 1.0,
            w: 1.0,
            s: 0.3,
            t: 0.3,
            ..PassTimes::default()
        };
        for variant in [VocabVariant::Alg1, VocabVariant::Alg2] {
            let sched = zb_vocab_1f1b(4, 12, variant, zb_times, true);
            validate(&sched).unwrap_or_else(|e| panic!("zb {variant:?}: {e}"));
            for d in 0..4 {
                assert_eq!(
                    sched.count_kind(d, PassKind::InputF),
                    12,
                    "zb {variant:?} device {d}"
                );
                assert_eq!(
                    sched.count_kind(d, PassKind::InputB),
                    12,
                    "zb {variant:?} device {d}"
                );
            }
            let chunk_times = PassTimes {
                f: 0.5,
                b: 1.0,
                ..PassTimes::default()
            };
            let sched = interleaved_vocab_1f1b(4, 2, 12, variant, chunk_times, true);
            validate(&sched).unwrap_or_else(|e| panic!("interleaved {variant:?}: {e}"));
            for d in 0..4 {
                assert_eq!(
                    sched.count_kind(d, PassKind::InputF),
                    12,
                    "il {variant:?} device {d}"
                );
                assert_eq!(
                    sched.count_kind(d, PassKind::InputB),
                    12,
                    "il {variant:?} device {d}"
                );
            }
        }
    }

    #[test]
    fn generators_reject_zero_devices() {
        let result = std::panic::catch_unwind(|| one_f_one_b(0, 1, PassTimes::default()));
        assert!(result.is_err());
    }

    /// Group sizes worth checking for `m` slots: per-slot, pairs, the
    /// two-half weave and the whole batch.
    fn group_sizes(m: u32) -> Vec<u32> {
        let mut gs = vec![1, 2.min(m), m.div_ceil(2), m];
        gs.sort_unstable();
        gs.dedup();
        gs
    }

    fn mbs_of(sched: &Schedule, d: usize, kind: PassKind) -> Vec<u32> {
        sched
            .passes(d)
            .iter()
            .filter(|x| x.kind == kind)
            .map(|x| x.microbatch)
            .collect()
    }

    #[test]
    fn decode_family_validates_across_shapes_and_group_sizes() {
        use crate::deps::validate;
        for p in [1, 2, 3, 4, 8] {
            for m in [1u32, 2, 4, 7, 16] {
                for g in group_sizes(m) {
                    for overlap in [false, true] {
                        let sched = decode_pipeline_grouped(p, m, g, overlap);
                        validate(&sched)
                            .unwrap_or_else(|e| panic!("p={p} m={m} g={g} ov={overlap}: {e}"));
                    }
                }
            }
        }
    }

    #[test]
    fn per_slot_lists_are_exactly_the_g1_case() {
        // The lists the engine walked before S was grouped, spelled out.
        for p in [1usize, 2, 4, 8] {
            for m in [1u32, 2, 3, 8, 24] {
                for overlap in [false, true] {
                    let sched = decode_pipeline_grouped(p, m, 1, overlap);
                    for d in 0..p {
                        let warm = (p - d) as u32;
                        let mut v = Vec::new();
                        for k in 0..m {
                            v.push(ScheduledPass::new(PassKind::InputF, k));
                        }
                        for k in 0..m.min(warm) {
                            v.push(ScheduledPass::new(PassKind::F, k));
                        }
                        for k in warm..m {
                            v.push(ScheduledPass::new(PassKind::S, k - warm));
                            v.push(ScheduledPass::new(PassKind::F, k));
                            if overlap {
                                v.push(ScheduledPass::new(PassKind::T, k - warm));
                            }
                        }
                        for k in m.saturating_sub(warm)..m {
                            v.push(ScheduledPass::new(PassKind::S, k));
                            if overlap {
                                v.push(ScheduledPass::new(PassKind::T, k));
                            }
                        }
                        assert_eq!(sched.passes(d), v, "p={p} m={m} ov={overlap} d={d}");
                    }
                }
            }
        }
    }

    #[test]
    fn the_engine_schedules_run_one_s_after_every_forward() {
        for p in [1usize, 2, 4] {
            for m in [1u32, 3, 16] {
                let inline = decode_pipeline(p, m);
                let overlap = decode_pipeline_overlap(p, m);
                for d in 0..p {
                    let mut v: Vec<ScheduledPass> = [PassKind::InputF, PassKind::F]
                        .into_iter()
                        .flat_map(|kind| (0..m).map(move |k| ScheduledPass::new(kind, k)))
                        .collect();
                    v.push(ScheduledPass::new(PassKind::S, m - 1));
                    assert_eq!(inline.passes(d), v, "p={p} m={m} d={d}");
                    assert_eq!(inline.s_groups(d).last(), Some(&(0..m)));
                    v.push(ScheduledPass::new(PassKind::T, m - 1));
                    assert_eq!(overlap.passes(d), v, "p={p} m={m} d={d}");
                }
            }
        }
    }

    #[test]
    fn decode_family_is_forward_only_and_samples_every_slot_once() {
        let (p, m) = (4usize, 6u32);
        for g in group_sizes(m) {
            for overlap in [false, true] {
                let sched = decode_pipeline_grouped(p, m, g, overlap);
                let groups = m.div_ceil(g) as usize;
                for d in 0..p {
                    assert_eq!(sched.count_kind(d, PassKind::F), 6, "device {d}");
                    assert_eq!(sched.count_kind(d, PassKind::InputF), 6, "device {d}");
                    assert_eq!(sched.count_kind(d, PassKind::S), groups, "g={g} device {d}");
                    let merges = if overlap { groups } else { 0 };
                    assert_eq!(sched.count_kind(d, PassKind::T), merges, "g={g} device {d}");
                    for kind in [PassKind::B, PassKind::W, PassKind::S2, PassKind::InputB] {
                        assert_eq!(sched.count_kind(d, kind), 0, "kind {kind:?} device {d}");
                    }
                    // The groups tile 0..m in order, g slots each (the last
                    // one short), for S and for the T that merges it.
                    for kind in [PassKind::S, PassKind::T] {
                        let sampled: Vec<u32> = sched
                            .passes(d)
                            .iter()
                            .zip(sched.s_groups(d))
                            .filter(|(x, _)| x.kind == kind)
                            .flat_map(|(_, group)| {
                                assert!(group.len() as u32 <= g && !group.is_empty());
                                group
                            })
                            .collect();
                        let want: Vec<u32> = if kind == PassKind::S || overlap {
                            (0..m).collect()
                        } else {
                            Vec::new()
                        };
                        assert_eq!(sampled, want, "g={g} ov={overlap} {kind:?} device {d}");
                    }
                }
            }
        }
    }

    #[test]
    fn decode_family_enters_collectives_in_identical_order() {
        // Every device must hit the same S instances in the same relative
        // order — the C1 barrier is a collective over all shards.
        let (p, m) = (4usize, 8u32);
        for g in group_sizes(m) {
            let sched = decode_pipeline_grouped(p, m, g, false);
            let ends: Vec<u32> = (0..m).filter(|k| (k + 1) % g == 0 || k + 1 == m).collect();
            for d in 0..p {
                assert_eq!(mbs_of(&sched, d, PassKind::S), ends, "g={g} device {d}");
            }
        }
    }

    #[test]
    fn decode_family_hoists_all_input_sends_to_the_head() {
        // Regression: an InputF interleaved after an S pass deadlocks the
        // rendezvous runtime — the token's owning shard can sit inside the
        // S collective while stage 0 waits on the unsent embedding row.
        for p in [1, 2, 4] {
            for g in group_sizes(8) {
                for overlap in [false, true] {
                    let sched = decode_pipeline_grouped(p, 8, g, overlap);
                    for d in 0..p {
                        assert!(
                            sched.passes(d)[..8]
                                .iter()
                                .all(|x| x.kind == PassKind::InputF),
                            "g={g} device {d} of {p}"
                        );
                        assert_eq!(sched.count_kind(d, PassKind::InputF), 8);
                    }
                }
            }
        }
    }

    #[test]
    fn overlapped_decode_pairs_every_s_with_a_later_t() {
        for p in [1, 2, 3, 4, 8] {
            for m in [1u32, 2, 4, 7, 16] {
                for g in group_sizes(m) {
                    let sched = decode_pipeline_grouped(p, m, g, true);
                    for d in 0..p {
                        // Ascending S and T orders over the same slots, and
                        // each T after its own S (the stream handle exists
                        // before anything waits on it).
                        let s_order = mbs_of(&sched, d, PassKind::S);
                        assert!(s_order.windows(2).all(|w| w[0] < w[1]), "device {d}");
                        assert_eq!(s_order, mbs_of(&sched, d, PassKind::T), "device {d}");
                        for &k in &s_order {
                            let pos = |kind| {
                                sched
                                    .passes(d)
                                    .iter()
                                    .position(|x| x.kind == kind && x.microbatch == k)
                                    .unwrap()
                            };
                            assert!(pos(PassKind::S) < pos(PassKind::T), "slot {k} device {d}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn overlapped_decode_runs_a_forward_between_s_and_t_while_forwards_remain() {
        // The point of the split at g < m: while a group's all-gather is
        // in flight (between S(k) and T(k)), the next slot's transformer
        // forward runs on the device thread.
        let (p, m) = (4, 8u32);
        for g in [1u32, 2, 4] {
            let sched = decode_pipeline_grouped(p, m, g, true);
            for d in 0..p {
                let passes = sched.passes(d);
                let last_f = passes.iter().rposition(|x| x.kind == PassKind::F).unwrap();
                let mut windows = 0;
                for (s, pass) in passes.iter().enumerate() {
                    if pass.kind != PassKind::S || s > last_f {
                        continue;
                    }
                    let t = passes
                        .iter()
                        .position(|x| x.kind == PassKind::T && x.microbatch == pass.microbatch)
                        .unwrap();
                    let overlapped = passes[s + 1..t]
                        .iter()
                        .filter(|x| x.kind == PassKind::F)
                        .count();
                    assert_eq!(
                        overlapped, 1,
                        "g={g} {pass} device {d} has no overlap window"
                    );
                    windows += 1;
                }
                let warm = (p - d) as u32;
                let want = (0..m).filter(|k| (k + 1) % g == 0 && k + warm < m).count();
                assert_eq!(windows, want, "g={g} device {d}");
            }
        }
    }

    #[test]
    fn decode_pipeline_warms_up_like_1f1b() {
        // Device d should run p − d forwards before its first S so the
        // steady state pipelines.
        let p = 4;
        let sched = decode_pipeline_grouped(p, 8, 1, false);
        for d in 0..p {
            let first_s = sched
                .passes(d)
                .iter()
                .position(|x| x.kind == PassKind::S)
                .unwrap();
            let fwd_before = sched.passes(d)[..first_s]
                .iter()
                .filter(|x| x.kind == PassKind::F)
                .count();
            assert_eq!(fwd_before, p - d, "device {d}");
        }
    }
}
