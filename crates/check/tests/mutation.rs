//! Mutation testing of the static analyzer: seeded schedule mutations
//! whose defect class is known, asserted to be *killed* (diagnosed) by
//! `vp-check` with the expected code — and the unmutated schedules
//! asserted clean. This is the analyzer's soundness/completeness smoke
//! test: a checker that accepts everything would pass the sweep too.

mod common;

use common::{device_passes, rebuild, zb_times, Lcg};
use vp_check::{check, Code};
use vp_schedule::block::PassTimes;
use vp_schedule::generators::{one_f_one_b, vocab_1f1b, zb_vocab_1f1b};
use vp_schedule::pass::{PassKind, Schedule, ScheduledPass, VocabVariant};

fn slot_of(passes: &[ScheduledPass], kind: PassKind, mb: u32) -> usize {
    passes
        .iter()
        .position(|p| p.kind == kind && p.microbatch == mb && p.chunk == 0)
        .unwrap_or_else(|| panic!("no {kind:?} mb={mb}"))
}

fn base_schedules() -> Vec<(String, Schedule)> {
    let mut out = Vec::new();
    for variant in [VocabVariant::Naive, VocabVariant::Alg1, VocabVariant::Alg2] {
        out.push((
            format!("vocab-1f1b/{variant:?}"),
            vocab_1f1b(4, 8, variant, PassTimes::default(), false),
        ));
    }
    out.push((
        "zb-vocab-1f1b/Alg2".to_string(),
        zb_vocab_1f1b(4, 8, VocabVariant::Alg2, zb_times(), false),
    ));
    out
}

#[test]
fn unmutated_schedules_are_accepted() {
    for (name, sched) in base_schedules() {
        let report = check(&sched);
        assert!(
            report.is_clean(),
            "{name} should be clean:\n{}",
            vp_check::render_human(&report.diagnostics)
        );
    }
}

/// Mutant class 1 — drop a recv: remove a middle device's `F`, so the next
/// stage's forward waits on a pass that never runs. Killed by `VP0002`
/// (the dependency names the missing pass) and `VP0004` (the coverage
/// hole on the mutated device).
#[test]
fn drop_recv_mutants_are_killed() {
    for seed in 0..6 {
        let mut rng = Lcg::new(seed);
        let (name, sched) = {
            let mut bases = base_schedules();
            let i = rng.below(bases.len());
            bases.swap_remove(i)
        };
        let mut passes = device_passes(&sched);
        let d = 1 + rng.below(sched.devices() - 1);
        let mb = rng.below(8) as u32;
        let f = slot_of(&passes[d], PassKind::F, mb);
        passes[d].remove(f);
        let report = check(&rebuild(&sched, passes));
        assert!(
            report.has(Code::MissingPass) && report.has(Code::CoverageHole),
            "seed {seed} ({name}, drop F mb={mb} on device {d}): {:?}",
            report.codes()
        );
    }
}

/// Mutant class 2 — swap two dependent passes: exchange a device's `F`
/// and `B` of one microbatch. The backward then transitively waits on its
/// own forward through the pipeline chain: `VP0001`, with the minimal
/// cycle naming the mutated microbatch on the mutated device.
#[test]
fn swapped_dependent_passes_deadlock_with_a_named_cycle() {
    for seed in 0..6 {
        let mut rng = Lcg::new(100 + seed);
        let (name, sched) = {
            let mut bases = base_schedules();
            let i = rng.below(bases.len());
            bases.swap_remove(i)
        };
        let mut passes = device_passes(&sched);
        let d = rng.below(sched.devices());
        let mb = rng.below(8) as u32;
        let f = slot_of(&passes[d], PassKind::F, mb);
        let b = slot_of(&passes[d], PassKind::B, mb);
        passes[d].swap(f, b);
        let report = check(&rebuild(&sched, passes));
        assert!(
            report.has(Code::Deadlock),
            "seed {seed} ({name}): {:?}",
            report.codes()
        );
        let diag = report
            .diagnostics
            .iter()
            .find(|di| di.code == Code::Deadlock)
            .unwrap();
        assert!(
            diag.related
                .iter()
                .any(|(site, _)| site.device == d && site.pass.microbatch == mb),
            "seed {seed} ({name}): cycle does not mention device {d} mb {mb}:\n{diag}"
        );
    }
}

/// Mutant class 3 — duplicate an `F`: `VP0003` with both sites.
#[test]
fn duplicated_pass_mutants_are_killed() {
    for seed in 0..6 {
        let mut rng = Lcg::new(200 + seed);
        let (name, sched) = {
            let mut bases = base_schedules();
            let i = rng.below(bases.len());
            bases.swap_remove(i)
        };
        let mut passes = device_passes(&sched);
        let d = rng.below(sched.devices());
        let mb = rng.below(8) as u32;
        let f = slot_of(&passes[d], PassKind::F, mb);
        let dup = passes[d][f];
        let insert_at = rng.below(passes[d].len() + 1);
        passes[d].insert(insert_at, dup);
        let report = check(&rebuild(&sched, passes));
        assert!(
            report.has(Code::DuplicatePass),
            "seed {seed} ({name}): {:?}",
            report.codes()
        );
    }
}

/// Mutant class 4 — remove a barrier participant: delete one device's `S`
/// for one microbatch. Killed specifically by `VP0005`, naming the device
/// and the barrier class it fails to enter.
#[test]
fn removed_barrier_participant_is_killed_by_vp0005() {
    for seed in 0..6 {
        let mut rng = Lcg::new(300 + seed);
        let (name, sched) = {
            let mut bases = base_schedules();
            let i = rng.below(bases.len());
            bases.swap_remove(i)
        };
        let mut passes = device_passes(&sched);
        let d = rng.below(sched.devices());
        let mb = rng.below(8) as u32;
        let s = slot_of(&passes[d], PassKind::S, mb);
        passes[d].remove(s);
        let report = check(&rebuild(&sched, passes));
        assert!(
            report.has(Code::MissingParticipant),
            "seed {seed} ({name}): {:?}",
            report.codes()
        );
        let diag = report
            .diagnostics
            .iter()
            .find(|di| di.code == Code::MissingParticipant)
            .unwrap();
        assert!(
            diag.message.contains(&format!("device {d}")) && diag.message.contains("C0"),
            "seed {seed} ({name}): {}",
            diag.message
        );
    }
}

/// Mutant class 5 — shift a vocabulary pass outside its bubble: move a
/// device's `S` after its own `B` of the same microbatch. The last
/// stage's backward gates on all `S` (directly for Algorithm 2, through
/// `T` otherwise), so the displaced `S` closes a cycle: `VP0001`, and the
/// extracted cycle contains the `S` pass itself.
#[test]
fn vocab_pass_shifted_outside_its_bubble_deadlocks() {
    for seed in 0..6 {
        let mut rng = Lcg::new(400 + seed);
        let sched = vocab_1f1b(4, 8, VocabVariant::Alg2, PassTimes::default(), false);
        let mut passes = device_passes(&sched);
        let d = rng.below(3); // non-last device
        let mb = rng.below(8) as u32;
        let s = slot_of(&passes[d], PassKind::S, mb);
        let b = slot_of(&passes[d], PassKind::B, mb);
        let moved = passes[d].remove(s);
        let b = if s < b { b - 1 } else { b };
        passes[d].insert(b + 1, moved);
        let report = check(&rebuild(&sched, passes));
        assert!(
            report.has(Code::Deadlock),
            "seed {seed}: {:?}",
            report.codes()
        );
        let diag = report
            .diagnostics
            .iter()
            .find(|di| di.code == Code::Deadlock)
            .unwrap();
        assert!(
            diag.related
                .iter()
                .any(|(site, _)| site.pass.kind == PassKind::S && site.device == d),
            "seed {seed}: cycle does not contain the displaced S:\n{diag}"
        );
    }
}

/// Mutant class 6 — eager forwards: hoist every `F` of device 0 ahead of
/// its backwards. No dependency is violated (forwards may always run
/// early), but the peak resident-activation count explodes past the
/// analytical 1F1B bound: `VP0011`, and only `VP0011`.
#[test]
fn eager_forward_mutants_break_only_the_peak_bound() {
    let sched = one_f_one_b(4, 8, PassTimes::default());
    let mut passes = device_passes(&sched);
    passes[0].sort_by_key(|p| !matches!(p.kind, PassKind::F));
    let report = check(&rebuild(&sched, passes));
    assert_eq!(
        report.codes(),
        vec![Code::PeakActivations],
        "{:#?}",
        report.diagnostics
    );
    let diag = &report.diagnostics[0];
    assert!(diag.message.contains("holds 8"), "{}", diag.message);
    assert!(diag.message.contains("bound of 4"), "{}", diag.message);
}

/// Mutant class 7 — reorder collective entries: swap one device's `S`
/// passes of two microbatches. The shards now pair up different barrier
/// instances: `VP0006` (plus the resulting cycle/`VP0007`, since the
/// device's own `T` gates on the displaced `S`).
#[test]
fn swapped_collective_entries_are_killed_by_vp0006() {
    for seed in 0..6 {
        let mut rng = Lcg::new(500 + seed);
        let (name, sched) = {
            let mut bases = base_schedules();
            let i = rng.below(bases.len());
            bases.swap_remove(i)
        };
        let mut passes = device_passes(&sched);
        let d = rng.below(sched.devices());
        let mb = rng.below(7) as u32;
        let s0 = slot_of(&passes[d], PassKind::S, mb);
        let s1 = slot_of(&passes[d], PassKind::S, mb + 1);
        passes[d].swap(s0, s1);
        let report = check(&rebuild(&sched, passes));
        assert!(
            report.has(Code::CollectiveOrder),
            "seed {seed} ({name}): {:?}",
            report.codes()
        );
    }
}

/// Mutant class 8 — consume before issue: swap a device's `S` and `T` of
/// one microbatch. `T` consumes the `C1` all-reduce result before its own
/// device contributes its shard: `VP0007` (and the same inversion is a
/// happens-before cycle, `VP0001`).
#[test]
fn consume_before_issue_mutants_are_killed_by_vp0007() {
    for seed in 0..6 {
        let mut rng = Lcg::new(600 + seed);
        let sched = vocab_1f1b(4, 8, VocabVariant::Alg2, PassTimes::default(), false);
        let mut passes = device_passes(&sched);
        let d = rng.below(sched.devices());
        let mb = rng.below(8) as u32;
        let s = slot_of(&passes[d], PassKind::S, mb);
        let t = slot_of(&passes[d], PassKind::T, mb);
        passes[d].swap(s, t);
        let report = check(&rebuild(&sched, passes));
        assert!(
            report.has(Code::ConsumeBeforeIssue) && report.has(Code::Deadlock),
            "seed {seed}: {:?}",
            report.codes()
        );
    }
}

/// The full matrix: every mutant class applied across seeds and base
/// schedules must be killed (a non-clean report). A checker that lets a
/// single class survive fails here even if the class-specific assertions
/// above rot.
#[test]
fn every_mutant_class_is_killed() {
    let mut killed = 0usize;
    for seed in 0..10u64 {
        let mut rng = Lcg::new(700 + seed);
        for (name, sched) in base_schedules() {
            let m = sched.num_microbatches();
            for class in 0..6 {
                let mut passes = device_passes(&sched);
                let d = rng.below(sched.devices());
                let mb = rng.below(m as usize) as u32;
                match class {
                    0 => {
                        let i = slot_of(&passes[d], PassKind::F, mb);
                        passes[d].remove(i);
                    }
                    1 => {
                        let f = slot_of(&passes[d], PassKind::F, mb);
                        let b = slot_of(&passes[d], PassKind::B, mb);
                        passes[d].swap(f, b);
                    }
                    2 => {
                        let i = slot_of(&passes[d], PassKind::B, mb);
                        let dup = passes[d][i];
                        passes[d].push(dup);
                    }
                    3 => {
                        let i = slot_of(&passes[d], PassKind::S, mb);
                        passes[d].remove(i);
                    }
                    4 => {
                        let s = slot_of(&passes[d], PassKind::S, mb);
                        let t = slot_of(&passes[d], PassKind::T, mb);
                        passes[d].swap(s, t);
                    }
                    _ => {
                        passes[d].sort_by_key(|p| !matches!(p.kind, PassKind::F));
                    }
                }
                let report = check(&rebuild(&sched, passes));
                assert!(
                    !report.is_clean(),
                    "seed {seed} class {class} on {name} (device {d}, mb {mb}) SURVIVED"
                );
                killed += 1;
            }
        }
    }
    assert_eq!(killed, 10 * 4 * 6);
}

/// Satellite contract: the codes `vp_schedule::deps::DepError` embeds in
/// its messages are exactly the analyzer's codes for the same defect
/// classes, so a dynamic validation failure and a static diagnostic read
/// the same.
#[test]
fn dep_error_and_checker_codes_agree() {
    use vp_schedule::deps::validate;
    use vp_schedule::pass::ScheduleKind;
    let cases: [(Schedule, Code); 3] = [
        (
            Schedule::new(
                ScheduleKind::Plain,
                1,
                1,
                vec![
                    vec![
                        ScheduledPass::new(PassKind::F, 0),
                        ScheduledPass::new(PassKind::B, 0),
                    ],
                    vec![
                        ScheduledPass::new(PassKind::B, 0),
                        ScheduledPass::new(PassKind::F, 0),
                    ],
                ],
            ),
            Code::Deadlock,
        ),
        (
            Schedule::new(
                ScheduleKind::Plain,
                1,
                1,
                vec![vec![], vec![ScheduledPass::new(PassKind::F, 0)]],
            ),
            Code::MissingPass,
        ),
        (
            Schedule::new(
                ScheduleKind::Plain,
                1,
                1,
                vec![vec![
                    ScheduledPass::new(PassKind::F, 0),
                    ScheduledPass::new(PassKind::F, 0),
                ]],
            ),
            Code::DuplicatePass,
        ),
    ];
    for (sched, code) in cases {
        let err = validate(&sched).unwrap_err();
        assert!(
            err.to_string().contains(&format!("[{code}]")),
            "validate: {err} lacks [{code}]"
        );
        let report = check(&sched);
        assert!(report.has(code), "check: {:?} lacks {code}", report.codes());
    }
}
