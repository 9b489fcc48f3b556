//! Mutation testing of the decode-mode analyses: seeded mutations of the
//! forward-only decode pipeline whose defect class is known, asserted to
//! be killed by `vp-check` with the expected code — and the unmutated
//! schedules asserted clean.
//!
//! The operators are the ways the serving path has actually broken (or
//! nearly broken):
//!
//! * **insert-backward** — a gradient-family pass leaks into a decode
//!   schedule (`VP0016`);
//! * **un-hoist InputF** — an embedding-row send slides back past a
//!   sampling rendezvous into its "natural" position, the exact shape of
//!   the PR-8 serving deadlock (`VP0017`);
//! * **drop sampling-barrier participant** — a device loses one `S`
//!   call, so the world-sized all-gather can never complete (`VP0005`);
//! * **skew a group boundary** — one device cuts its `S` groups at a
//!   different slot than its peers, so each side enters a barrier the
//!   other never does (`VP0005`).
//!
//! The first three run on the per-slot (`g = 1`) lists they were written
//! against — the only ones with an `S` between forwards to un-hoist past —
//! the last on the grouped ones.

mod common;

use common::{device_passes, rebuild, Lcg};
use vp_check::{check_decode, Code};
use vp_schedule::generators::decode_pipeline_grouped;
use vp_schedule::pass::{PassKind, Schedule, ScheduledPass};

fn base_schedules() -> Vec<(String, Schedule)> {
    let mut out = Vec::new();
    for (p, b) in [(2usize, 4u32), (4, 4), (4, 8), (8, 8)] {
        out.push((
            format!("decode-pipeline p={p} b={b}"),
            decode_pipeline_grouped(p, b, 1, false),
        ));
    }
    out
}

/// Grouped bases with room between group boundaries (`g ≥ 2`, at least
/// two groups): a boundary can move without landing on the next one.
fn grouped_bases() -> Vec<(String, Schedule)> {
    let mut out = Vec::new();
    for (p, b, g) in [
        (2usize, 4u32, 2u32),
        (4, 4, 2),
        (4, 8, 2),
        (4, 8, 4),
        (8, 8, 4),
    ] {
        out.push((
            format!("decode-pipeline p={p} b={b} g={g}"),
            decode_pipeline_grouped(p, b, g, false),
        ));
    }
    out
}

fn assert_killed(name: &str, schedule: &Schedule, code: Code) {
    let report = check_decode(schedule);
    assert!(
        report.diagnostics.iter().any(|d| d.code == code),
        "{name}: expected {} among {:?}",
        code.as_str(),
        report
            .diagnostics
            .iter()
            .map(|d| d.code.as_str())
            .collect::<Vec<_>>()
    );
}

#[test]
fn unmutated_decode_bases_are_accepted() {
    for (name, sched) in base_schedules().into_iter().chain(grouped_bases()) {
        let report = check_decode(&sched);
        assert!(
            report.is_clean(),
            "{name}:\n{}",
            vp_check::render_human(&report.diagnostics)
        );
    }
}

#[test]
fn inserted_backward_passes_are_killed_as_vp0016() {
    for (name, sched) in base_schedules() {
        for seed in 0..4u64 {
            let mut rng = Lcg::new(seed);
            let mut passes = device_passes(&sched);
            let d = rng.below(passes.len());
            let backward = [PassKind::B, PassKind::W, PassKind::T, PassKind::InputB][rng.below(4)];
            let mb = rng.next() as u32 % sched.num_microbatches();
            let at = rng.below(passes[d].len() + 1);
            passes[d].insert(at, ScheduledPass::new(backward, mb));
            let mutated = rebuild(&sched, passes);
            assert_killed(
                &format!("{name} insert-{backward:?} seed={seed}"),
                &mutated,
                Code::BackwardInDecode,
            );
        }
    }
}

#[test]
fn unhoisted_input_sends_are_killed_as_vp0017() {
    for (name, sched) in base_schedules() {
        for seed in 0..4u64 {
            let mut rng = Lcg::new(seed);
            let mut passes = device_passes(&sched);
            // Candidate sites: a steady-state F (preceded by an S
            // rendezvous) on a sender device whose hoisted InputF of the
            // same slot sits further up the list.
            let mut sites: Vec<(usize, usize, usize)> = Vec::new();
            for (d, list) in passes.iter().enumerate().skip(1) {
                for i in 1..list.len() {
                    if list[i].kind != PassKind::F || list[i - 1].kind != PassKind::S {
                        continue;
                    }
                    let j = list
                        .iter()
                        .position(|p| {
                            p.kind == PassKind::InputF && p.microbatch == list[i].microbatch
                        })
                        .expect("every slot has a hoisted InputF");
                    if j < i - 1 {
                        sites.push((d, i, j));
                    }
                }
            }
            assert!(!sites.is_empty(), "{name}: no un-hoist site");
            let (d, i, j) = sites[rng.below(sites.len())];
            let row = passes[d].remove(j);
            passes[d].insert(i - 1, row);
            let mutated = rebuild(&sched, passes);
            assert_killed(
                &format!("{name} unhoist d={d} seed={seed}"),
                &mutated,
                Code::RendezvousDeadlock,
            );
        }
    }
}

#[test]
fn dropped_sampling_participants_are_killed_as_vp0005() {
    for (name, sched) in base_schedules() {
        for seed in 0..4u64 {
            let mut rng = Lcg::new(seed);
            let mut passes = device_passes(&sched);
            let d = rng.below(passes.len());
            let s_slots: Vec<usize> = passes[d]
                .iter()
                .enumerate()
                .filter(|(_, p)| p.kind == PassKind::S)
                .map(|(i, _)| i)
                .collect();
            let slot = s_slots[rng.below(s_slots.len())];
            passes[d].remove(slot);
            let mutated = rebuild(&sched, passes);
            assert_killed(
                &format!("{name} drop-S d={d} seed={seed}"),
                &mutated,
                Code::MissingParticipant,
            );
        }
    }
}

#[test]
fn skewed_group_boundaries_are_killed_as_vp0005() {
    for (name, sched) in grouped_bases() {
        for seed in 0..4u64 {
            let mut rng = Lcg::new(seed);
            let mut passes = device_passes(&sched);
            let d = rng.below(passes.len());
            // Every S but the last ends a group before the batch does;
            // move one such boundary a slot later. The device still
            // samples every slot, in groups nobody else has.
            let boundaries: Vec<usize> = passes[d]
                .iter()
                .enumerate()
                .filter(|(_, p)| {
                    p.kind == PassKind::S && p.microbatch + 1 < sched.num_microbatches()
                })
                .map(|(i, _)| i)
                .collect();
            let slot = boundaries[rng.below(boundaries.len())];
            passes[d][slot].microbatch += 1;
            let mutated = rebuild(&sched, passes);
            let report = check_decode(&mutated);
            assert!(
                !report.has(Code::CoverageHole) && !report.has(Code::DuplicatePass),
                "{name} seed={seed}: {:?}",
                report.codes()
            );
            assert_killed(
                &format!("{name} skew-boundary d={d} seed={seed}"),
                &mutated,
                Code::MissingParticipant,
            );
        }
    }
}

#[test]
fn the_natural_layout_is_the_canonical_vp0017_witness() {
    // Not seeded: the exact shipped-then-fixed schedule shape, end to end
    // through the public decode entry point.
    use vp_schedule::fixtures::decode_pipeline_natural;
    let report = check_decode(&decode_pipeline_natural(2, 2));
    let diag = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::RendezvousDeadlock)
        .expect("natural layout must be rejected");
    let text = diag.to_string();
    assert!(text.contains("error[VP0017]"), "{text}");
    assert!(text.contains("hoist"), "{text}");
}
