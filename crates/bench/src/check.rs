//! `repro check` — sweeps every schedule generator family through the
//! `vp-check` static analyzer and reports the verdict per case.
//!
//! The sweep is the executable form of the §5 generality claim: every
//! built-in schedule — plain/zero-bubble/interleaved 1F1B, the three
//! vocabulary variants with and without sharded input layers, interlaced,
//! V-Half, directly synthesized pass sets, and the forward-only
//! decode-pipeline family (checked under rendezvous semantics, where the
//! sampling all-gather blocks the device thread) — must come out of the
//! analyses with zero diagnostics. `ci.sh` runs it as a gate, twice, and
//! requires byte-identical JSON.

use crate::table::json_escape;
use vp_check::{check_with, CheckConfig, CheckReport};
use vp_schedule::block::PassTimes;
use vp_schedule::generators;
use vp_schedule::pass::{
    ChunkPlacement, PassKind, Schedule, ScheduleKind, ScheduledPass, VocabVariant,
};
use vp_schedule::synth::{synthesize, NominalPass, SynthInput};

/// One sweep entry: a named schedule and its analysis report.
pub struct CheckCase {
    /// Human-readable case id, e.g. `vocab-1f1b/alg2+input p=4 m=8`.
    pub name: String,
    /// The full static-analysis report.
    pub report: CheckReport,
}

/// One grid case before analysis: the schedule plus the configuration it
/// must be checked under. The executor-oracle test (`tests/executor_oracle.rs`)
/// holds the small end of the same list, and seeded mutants of it, against
/// an exploration of every interleaving.
pub struct SweepCase {
    /// Human-readable case id.
    pub name: String,
    /// The schedule under test.
    pub schedule: Schedule,
    /// Analysis configuration (decode cases set `forward_only`).
    pub config: CheckConfig,
}

fn zb_times() -> PassTimes {
    PassTimes {
        w: 1.0,
        b: 1.0,
        ..PassTimes::default()
    }
}

fn variant_tag(variant: VocabVariant) -> &'static str {
    match variant {
        VocabVariant::Naive => "naive",
        VocabVariant::Alg1 => "alg1",
        VocabVariant::Alg2 => "alg2",
    }
}

const VARIANTS: [VocabVariant; 3] = [VocabVariant::Naive, VocabVariant::Alg1, VocabVariant::Alg2];

/// A directly synthesized vocabulary schedule: hand-written nominal
/// priorities, explicit per-device activation caps — exercising the
/// greedy synthesizer path rather than a generator's building block.
fn synth_direct(p: usize, m: u32, variant: VocabVariant) -> (Schedule, CheckConfig) {
    let mut passes: Vec<Vec<NominalPass>> = Vec::with_capacity(p);
    for d in 0..p {
        let mut list = Vec::new();
        for mb in 0..m {
            let base = f64::from(mb) * 10.0 + d as f64 * 0.1;
            list.push(NominalPass {
                pass: ScheduledPass::new(PassKind::F, mb),
                priority: base,
            });
            list.push(NominalPass {
                pass: ScheduledPass::new(PassKind::S, mb),
                priority: base + 3.0,
            });
            if variant == VocabVariant::Naive {
                list.push(NominalPass {
                    pass: ScheduledPass::new(PassKind::S2, mb),
                    priority: base + 4.0,
                });
            }
            list.push(NominalPass {
                pass: ScheduledPass::new(PassKind::T, mb),
                priority: base + 5.0,
            });
            list.push(NominalPass {
                pass: ScheduledPass::new(PassKind::B, mb),
                priority: base + 6.0,
            });
        }
        passes.push(list);
    }
    let caps: Vec<usize> = (0..p).map(|d| p - d + variant.barriers()).collect();
    let schedule = synthesize(&SynthInput {
        kind: ScheduleKind::Vocab(variant),
        num_microbatches: m,
        chunks: 1,
        placement: ChunkPlacement::VShape,
        passes,
        activation_caps: Some(caps.iter().map(|&c| vec![c]).collect()),
        times: PassTimes::default(),
    });
    // The synthesizer's stall valve may exceed the nominal cap by the few
    // relaxation steps it takes; grant the same slack the valve has.
    let config = CheckConfig {
        activation_caps: Some(caps.iter().map(|&c| (c + 2).min(m as usize)).collect()),
        ..CheckConfig::default()
    };
    (schedule, config)
}

/// Enumerates the full sweep grid: every generator family across the
/// `(p, m)` grid, all vocabulary variants, with and without sharded input
/// layers, the synthesizer-direct cases, and the forward-only
/// decode-pipeline family across `(p, batch, group size)`.
pub fn sweep_cases() -> Vec<SweepCase> {
    let mut cases = Vec::new();
    let mut push = |name: String, schedule: &Schedule, config: &CheckConfig| {
        cases.push(SweepCase {
            name,
            schedule: schedule.clone(),
            config: config.clone(),
        });
    };
    let default_cfg = CheckConfig::default();
    for &p in &[2usize, 4, 8] {
        for &m in &[4u32, 8, 24] {
            if (m as usize) < p {
                // Fewer microbatches than pipeline depth starves the
                // steady state; generators target m ≥ p (§6 uses m ≫ p).
                continue;
            }
            let grid = format!("p={p} m={m}");
            push(
                format!("1f1b {grid}"),
                &generators::one_f_one_b(p, m, PassTimes::default()),
                &default_cfg,
            );
            push(
                format!("zb-1f1b {grid}"),
                &generators::zb_1f1b(p, m, zb_times()),
                &default_cfg,
            );
            push(
                format!("interlaced-1f1b {grid}"),
                &generators::interlaced_1f1b(p, m, PassTimes::default()),
                &default_cfg,
            );
            push(
                format!("interleaved-1f1b x2 {grid}"),
                &generators::interleaved_1f1b(p, 2, m, PassTimes::default()),
                &default_cfg,
            );
            push(
                format!("vhalf {grid}"),
                &generators::vhalf(p, m, PassTimes::default()),
                &default_cfg,
            );
            for variant in VARIANTS {
                let tag = variant_tag(variant);
                for include_input in [false, true] {
                    let suffix = if include_input { "+input" } else { "" };
                    push(
                        format!("vocab-1f1b/{tag}{suffix} {grid}"),
                        &generators::vocab_1f1b(p, m, variant, PassTimes::default(), include_input),
                        &default_cfg,
                    );
                    push(
                        format!("zb-vocab-1f1b/{tag}{suffix} {grid}"),
                        &generators::zb_vocab_1f1b(p, m, variant, zb_times(), include_input),
                        &default_cfg,
                    );
                    push(
                        format!("interleaved-vocab x2/{tag}{suffix} {grid}"),
                        &generators::interleaved_vocab_1f1b(
                            p,
                            2,
                            m,
                            variant,
                            PassTimes::default(),
                            include_input,
                        ),
                        &default_cfg,
                    );
                    push(
                        format!("vhalf-vocab/{tag}{suffix} {grid}"),
                        &generators::vhalf_vocab(
                            p,
                            m,
                            variant,
                            PassTimes::default(),
                            include_input,
                        ),
                        &default_cfg,
                    );
                }
                let (schedule, config) = synth_direct(p, m, variant);
                push(format!("synth-direct/{tag} {grid}"), &schedule, &config);
            }
        }
    }
    // The serving-side family: forward-only decode pipelines, checked
    // under rendezvous semantics (the sampling all-gather is synchronous).
    // Batch size plays the microbatch role and goes below p — decode
    // steady state interleaves streams, there is no m ≥ p constraint.
    let decode_cfg = CheckConfig {
        forward_only: true,
        ..CheckConfig::default()
    };
    for &p in &[2usize, 4, 8] {
        for &b in &[1u32, 2, 4, 8, 24] {
            // What the engine walks: one S over the whole batch (g = b),
            // merged inline or split off into a deferred T whose S is
            // stream-offloaded rather than a rendezvous — which the
            // per-S classification in `sync_collectives` picks up from
            // the presence of the T.
            push(
                format!("decode-pipeline p={p} b={b}"),
                &generators::decode_pipeline(p, b),
                &decode_cfg,
            );
            push(
                format!("decode-pipeline-overlap p={p} b={b}"),
                &generators::decode_pipeline_overlap(p, b),
                &decode_cfg,
            );
            // The rest of the one generator: per-slot (the lists the
            // hazard fixtures and mutation operators were written
            // against), pairs, and the two-half weave.
            for g in decode_group_sizes(b) {
                for (family, overlap) in
                    [("decode-grouped", false), ("decode-grouped-overlap", true)]
                {
                    push(
                        format!("{family} g={g} p={p} b={b}"),
                        &generators::decode_pipeline_grouped(p, b, g, overlap),
                        &decode_cfg,
                    );
                }
            }
        }
    }
    cases
}

/// The group sizes the sweep adds beside `g = b`: `1`, `2` and `⌈b/2⌉`,
/// each once and only below `b`.
fn decode_group_sizes(b: u32) -> Vec<u32> {
    let mut gs = vec![1, 2, b.div_ceil(2)];
    gs.sort_unstable();
    gs.dedup();
    gs.retain(|&g| g < b);
    gs
}

/// Runs the static analyzer over every [`sweep_cases`] entry.
pub fn sweep() -> Vec<CheckCase> {
    sweep_cases()
        .into_iter()
        .map(|case| CheckCase {
            report: check_with(&case.schedule, &case.config),
            name: case.name,
        })
        .collect()
}

/// Renders the sweep as a human table plus every diagnostic of failing
/// cases in full rustc style.
pub fn render(cases: &[CheckCase]) -> String {
    let mut rows = Vec::new();
    for case in cases {
        rows.push(vec![
            case.name.clone(),
            case.report.passes.to_string(),
            case.report.hb_edges.to_string(),
            if case.report.races_checked {
                "yes"
            } else {
                "no"
            }
            .to_string(),
            if case.report.is_clean() {
                "ok".to_string()
            } else {
                format!("{} diagnostic(s)", case.report.diagnostics.len())
            },
        ]);
    }
    let mut out = crate::table::render(
        &["case", "passes", "hb edges", "races checked", "verdict"],
        &rows,
    );
    for case in cases {
        if !case.report.is_clean() {
            out.push_str(&format!("\n--- {} ---\n", case.name));
            out.push_str(&vp_check::render_human(&case.report.diagnostics));
        }
    }
    let failing = cases.iter().filter(|c| !c.report.is_clean()).count();
    out.push_str(&format!(
        "\n{} case(s) checked, {} clean, {} failing\n",
        cases.len(),
        cases.len() - failing,
        failing
    ));
    out
}

/// Machine-readable sweep result: per-case verdicts with the diagnostics
/// in `vp_check::render_json`'s format.
pub fn to_json(cases: &[CheckCase]) -> String {
    let failing = cases.iter().filter(|c| !c.report.is_clean()).count();
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"cases\": {},\n", cases.len()));
    out.push_str(&format!("  \"failing\": {},\n", failing));
    out.push_str("  \"results\": [\n");
    for (i, case) in cases.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"passes\": {}, \"hb_edges\": {}, \"races_checked\": {}, \
             \"clean\": {}, \"diagnostics\": {}}}{}\n",
            json_escape(&case.name),
            case.report.passes,
            case.report.hb_edges,
            case.report.races_checked,
            case.report.is_clean(),
            vp_check::render_json(&case.report.diagnostics),
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sweep_case_is_clean() {
        // The acceptance criterion of the static analyzer: zero
        // diagnostics on every built-in generator schedule across the
        // whole grid.
        let cases = sweep();
        assert!(cases.len() > 100, "sweep too small: {}", cases.len());
        for case in &cases {
            assert!(
                case.report.is_clean(),
                "{}:\n{}",
                case.name,
                vp_check::render_human(&case.report.diagnostics)
            );
        }
        // Race analysis actually ran everywhere (acyclic graphs).
        assert!(cases.iter().all(|c| c.report.races_checked));
        // The serving family is on the grid (rendezvous semantics
        // included — these would fail VP0017 if the hoist regressed).
        let decode = cases
            .iter()
            .filter(|c| c.name.starts_with("decode-pipeline"))
            .count();
        assert_eq!(
            decode, 30,
            "decode grid is 3 depths x 5 batch sizes x 2 families"
        );
        let overlap = cases
            .iter()
            .filter(|c| c.name.starts_with("decode-pipeline-overlap"))
            .count();
        assert_eq!(overlap, 15, "overlap family covers the same grid");
        // … and at every group size below the batch: g ∈ {1, 2, ⌈b/2⌉}
        // gives 0 + 1 + 2 + 3 + 3 sizes over b ∈ {1, 2, 4, 8, 24}.
        for (family, g1) in [
            ("decode-grouped g=", "decode-grouped g=1 "),
            ("decode-grouped-overlap g=", "decode-grouped-overlap g=1 "),
        ] {
            let of = |prefix: &str| cases.iter().filter(|c| c.name.starts_with(prefix)).count();
            assert_eq!(of(family), 3 * 9, "{family}");
            assert_eq!(of(g1), 3 * 4, "per-slot lists exist wherever b ≥ 2");
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let cases: Vec<CheckCase> = sweep().into_iter().take(3).collect();
        let doc = to_json(&cases);
        assert!(doc.contains("\"cases\": 3"), "{doc}");
        assert!(doc.contains("\"failing\": 0"), "{doc}");
        assert!(doc.contains("\"diagnostics\": []"), "{doc}");
    }
}
