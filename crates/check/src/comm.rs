//! Communication-protocol lint: `VP0004` coverage holes, `VP0005`
//! collective participation, `VP0006` cross-shard entry order and
//! `VP0007` comm-stream consume-before-issue.
//!
//! The vocabulary passes communicate through rendezvous collectives
//! (`C0`/`C1`/`C2` and friends): every shard must enter every barrier, and
//! must enter the instances of a class in the same order — an in-order
//! communication stream delivers them FIFO, so cross-shard disagreement on
//! the order is a hang even when each device's schedule is locally
//! sensible. Point-to-point activation/gradient transfers are exempt from
//! the order lint: the runtime backs them with keyed stashes, so
//! reordering across microbatches is tolerated.

use std::collections::HashMap;
use vp_schedule::deps::{DepContext, DepGraph};
use vp_schedule::facts::collective_entries;
use vp_schedule::pass::{PassKind, Schedule, ScheduledPass};

use crate::diag::{Code, Diagnostic, Site};

/// Pass kinds that are sharded across all devices (every device runs its
/// own shard of the same logical computation), in a stable report order.
const SHARDED_KINDS: [PassKind; 7] = [
    PassKind::S,
    PassKind::S2,
    PassKind::T,
    PassKind::InputF,
    PassKind::InputB,
    PassKind::OutputF,
    PassKind::OutputB,
];

fn format_mbs(mbs: &[u32]) -> String {
    const SHOWN: usize = 8;
    let mut s = mbs
        .iter()
        .take(SHOWN)
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    if mbs.len() > SHOWN {
        s.push_str(&format!(", … ({} total)", mbs.len()));
    }
    s
}

/// `VP0004`: every pass kind a device schedules at all must cover every
/// microbatch. A dropped send/recv shows up as a hole in the coverage of
/// its kind: the device runs `F` for microbatches 0–5 and 7, say, and the
/// partner's mb-6 pass waits forever.
///
/// An `S` covers every slot it samples and a `T` every slot it merges
/// ([`Schedule::s_groups`]): the grouped decode lists schedule one `S` per
/// group, not per slot, and are whole as long as the groups reach the last
/// slot. With one `S` per microbatch that is the microbatch itself.
pub fn check_coverage(schedule: &Schedule) -> Vec<Diagnostic> {
    let m = schedule.num_microbatches();
    let mut groups: HashMap<(usize, PassKind, u8), (Vec<u32>, Site)> = HashMap::new();
    for (d, i, pass, group) in schedule.iter_all_grouped() {
        let entry = groups.entry((d, pass.kind, pass.chunk)).or_insert_with(|| {
            (
                Vec::new(),
                Site {
                    device: d,
                    slot: i,
                    pass: *pass,
                },
            )
        });
        match pass.kind {
            PassKind::S | PassKind::T => entry.0.extend(group),
            _ => entry.0.push(pass.microbatch),
        }
    }
    let mut keys: Vec<_> = groups.keys().copied().collect();
    keys.sort_by_key(|&(d, kind, chunk)| (d, chunk, kind_rank(kind)));
    let mut diags = Vec::new();
    for key in keys {
        let (d, kind, chunk) = key;
        let (mbs, site) = &groups[&key];
        let missing: Vec<u32> = (0..m).filter(|mb| !mbs.contains(mb)).collect();
        if !missing.is_empty() {
            diags.push(
                Diagnostic::error(
                    Code::CoverageHole,
                    format!(
                        "device {d} schedules {kind:?} (chunk {chunk}) for {} of {m} \
                         microbatches but not for mb {}",
                        m as usize - missing.len(),
                        format_mbs(&missing)
                    ),
                )
                .at(*site)
                .note(
                    "a kind that appears at all must cover every microbatch: its partners' \
                     passes for the missing microbatches can never be satisfied",
                )
                .help(format!(
                    "schedule the missing {kind:?} passes or drop the kind entirely"
                )),
            );
        }
    }
    diags
}

fn kind_rank(kind: PassKind) -> usize {
    SHARDED_KINDS
        .iter()
        .position(|&k| k == kind)
        .map_or(usize::MAX, |r| r + 100)
}

/// `VP0005`: collective participation sets must be identical across
/// vocabulary shards. If any device runs a sharded pass for a microbatch,
/// every device must — the barrier it enters blocks until all `p` shards
/// arrive. For a grouped `S` the microbatch is the group's last slot, so
/// equal sets mean equal group boundaries: a device that cuts its groups
/// elsewhere enters barriers its peers never do, and misses theirs.
pub fn check_participation(schedule: &Schedule) -> Vec<Diagnostic> {
    let ctx = DepContext::of(schedule);
    let p = schedule.devices();
    let mut diags = Vec::new();
    for kind in SHARDED_KINDS {
        let mut present: Vec<Vec<u32>> = vec![Vec::new(); p];
        let mut witness: Option<Site> = None;
        for (d, i, pass) in schedule.iter_all() {
            if pass.kind == kind {
                present[d].push(pass.microbatch);
                if witness.is_none() {
                    witness = Some(Site {
                        device: d,
                        slot: i,
                        pass: *pass,
                    });
                }
            }
        }
        let Some(witness) = witness else { continue };
        let mut union: Vec<u32> = present.iter().flatten().copied().collect();
        union.sort_unstable();
        union.dedup();
        let classes = collective_entries(&ctx, &ScheduledPass::new(kind, 0));
        let barrier = if classes.is_empty() {
            format!("sharded {kind:?} computation")
        } else {
            classes
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" and ")
        };
        for (d, mbs) in present.iter().enumerate() {
            let missing: Vec<u32> = union
                .iter()
                .copied()
                .filter(|mb| !mbs.contains(mb))
                .collect();
            if !missing.is_empty() {
                diags.push(
                    Diagnostic::error(
                        Code::MissingParticipant,
                        format!(
                            "device {d} never enters the {barrier} for {kind:?} of mb {}",
                            format_mbs(&missing)
                        ),
                    )
                    .at(witness)
                    .note(format!(
                        "all {p} vocabulary shards must participate in every instance of a \
                         collective; the other shards block at the barrier forever"
                    ))
                    .help(format!(
                        "schedule {kind:?} for the missing microbatches on device {d}"
                    )),
                );
            }
        }
    }
    diags
}

/// `VP0006`: devices must enter the instances of a collective class in the
/// same order. Each device's communication stream issues its collectives
/// in program order; rendezvous semantics then deadlock if shard 0 enters
/// `S` of mb 1 before mb 0 while shard 1 does the opposite.
pub fn check_collective_order(schedule: &Schedule) -> Vec<Diagnostic> {
    let p = schedule.devices();
    let mut diags = Vec::new();
    for kind in SHARDED_KINDS {
        let mut seqs: Vec<Vec<(u32, Site)>> = vec![Vec::new(); p];
        for (d, i, pass) in schedule.iter_all() {
            if pass.kind == kind {
                seqs[d].push((
                    pass.microbatch,
                    Site {
                        device: d,
                        slot: i,
                        pass: *pass,
                    },
                ));
            }
        }
        let Some(reference) = seqs.iter().position(|s| !s.is_empty()) else {
            continue;
        };
        let ref_set = sorted_mbs(&seqs[reference]);
        for d in reference + 1..p {
            if seqs[d].is_empty() || sorted_mbs(&seqs[d]) != ref_set {
                // Absence and set mismatches are VP0005's finding.
                continue;
            }
            if let Some(pos) = (0..seqs[d].len()).find(|&i| seqs[d][i].0 != seqs[reference][i].0) {
                let (mb_here, site_here) = seqs[d][pos];
                let (mb_ref, site_ref) = seqs[reference][pos];
                diags.push(
                    Diagnostic::error(
                        Code::CollectiveOrder,
                        format!(
                            "devices disagree on the order of {kind:?} collectives: entry #{pos} \
                             is mb {mb_here} on device {d} but mb {mb_ref} on device {reference}"
                        ),
                    )
                    .at(site_here)
                    .related(site_ref, format!("device {reference}'s entry #{pos}"))
                    .note(
                        "each device enters collectives in program order; rendezvous \
                         collectives hang when shards pair up different instances",
                    )
                    .help(format!(
                        "reorder device {d}'s {kind:?} passes to match the other shards"
                    )),
                );
            }
        }
    }
    diags
}

/// `VP0007`: a pass consuming a collective's result must run after its own
/// device's entry into that collective instance. The entry is issued on
/// the device's communication stream in program order; a consumer
/// scheduled before it waits for a job its own device has not contributed
/// to yet — on the runtime this is a comm-stream hang even before the
/// cross-device cycle is considered.
pub fn check_consume_before_issue(schedule: &Schedule, deps: &DepGraph) -> Vec<Diagnostic> {
    let ctx = DepContext::of(schedule);
    // First slot at which each device enters each (class, mb) instance.
    let mut issued: HashMap<(usize, vp_schedule::facts::CollectiveClass, u32), (usize, Site)> =
        HashMap::new();
    for (d, i, pass) in schedule.iter_all() {
        for class in collective_entries(&ctx, pass) {
            issued.entry((d, class, pass.microbatch)).or_insert((
                i,
                Site {
                    device: d,
                    slot: i,
                    pass: *pass,
                },
            ));
        }
    }
    let mut diags = Vec::new();
    for (d, i, pass) in schedule.iter_all() {
        let mut seen = Vec::new();
        for dep in deps.preds(d, i) {
            let Some(class) = dep.kind.collective_class() else {
                continue;
            };
            if seen.contains(&class) {
                continue;
            }
            seen.push(class);
            let Some(&(islot, issue_site)) = issued.get(&(d, class, pass.microbatch)) else {
                // The device never issues this instance at all; that is
                // VP0005's (or VP0002's) finding.
                continue;
            };
            if islot > i {
                diags.push(
                    Diagnostic::error(
                        Code::ConsumeBeforeIssue,
                        format!(
                            "{pass} on device {d} consumes the {class} of mb {} before the \
                             device issues its own contribution",
                            pass.microbatch
                        ),
                    )
                    .at(Site {
                        device: d,
                        slot: i,
                        pass: *pass,
                    })
                    .related(
                        issue_site,
                        format!("device {d} enters the {class} only here"),
                    )
                    .note(
                        "a device's communication stream runs in program order: the consumer \
                         waits on a collective its own device has not entered yet",
                    )
                    .help(format!(
                        "move the issuing pass before slot {i} on device {d}"
                    )),
                );
            }
        }
    }
    diags
}

fn sorted_mbs(seq: &[(u32, Site)]) -> Vec<u32> {
    let mut mbs: Vec<u32> = seq.iter().map(|(mb, _)| *mb).collect();
    mbs.sort_unstable();
    mbs
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_schedule::block::PassTimes;
    use vp_schedule::deps::build_deps;
    use vp_schedule::generators::{vocab_1f1b, zb_vocab_1f1b};
    use vp_schedule::pass::{ScheduleKind, VocabVariant};

    fn zb_times() -> PassTimes {
        PassTimes {
            w: 1.0,
            b: 1.0,
            ..PassTimes::default()
        }
    }

    fn rebuild(sched: &Schedule, passes: Vec<Vec<ScheduledPass>>) -> Schedule {
        Schedule::new(
            sched.kind(),
            sched.num_microbatches(),
            sched.chunks(),
            passes,
        )
        .with_placement(sched.placement())
    }

    fn device_passes(sched: &Schedule) -> Vec<Vec<ScheduledPass>> {
        (0..sched.devices())
            .map(|d| sched.passes(d).to_vec())
            .collect()
    }

    #[test]
    fn clean_vocab_schedules_pass_every_comm_lint() {
        for variant in [VocabVariant::Naive, VocabVariant::Alg1, VocabVariant::Alg2] {
            let sched = vocab_1f1b(4, 8, variant, PassTimes::default(), true);
            assert!(check_coverage(&sched).is_empty(), "{variant:?}");
            assert!(check_participation(&sched).is_empty(), "{variant:?}");
            assert!(check_collective_order(&sched).is_empty(), "{variant:?}");
            let deps = build_deps(&sched).unwrap();
            assert!(
                check_consume_before_issue(&sched, &deps).is_empty(),
                "{variant:?}"
            );
        }
    }

    #[test]
    fn dropped_pass_is_a_coverage_hole() {
        let sched = vocab_1f1b(4, 8, VocabVariant::Alg2, PassTimes::default(), false);
        let mut passes = device_passes(&sched);
        let pos = passes[2]
            .iter()
            .position(|p| p.kind == PassKind::F && p.microbatch == 3)
            .unwrap();
        passes[2].remove(pos);
        let diags = check_coverage(&rebuild(&sched, passes));
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert_eq!(diags[0].code, Code::CoverageHole);
        assert!(diags[0].message.contains("mb 3"), "{}", diags[0].message);
    }

    #[test]
    fn removed_barrier_participant_is_named_with_its_barrier() {
        let sched = vocab_1f1b(4, 8, VocabVariant::Alg1, PassTimes::default(), false);
        let mut passes = device_passes(&sched);
        let pos = passes[1]
            .iter()
            .position(|p| p.kind == PassKind::S && p.microbatch == 2)
            .unwrap();
        passes[1].remove(pos);
        let diags = check_participation(&rebuild(&sched, passes));
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert_eq!(diags[0].code, Code::MissingParticipant);
        assert!(diags[0].message.contains("C0"), "{}", diags[0].message);
        assert!(
            diags[0].message.contains("device 1"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn swapped_collective_entries_diverge() {
        let sched = vocab_1f1b(4, 8, VocabVariant::Alg2, PassTimes::default(), false);
        let mut passes = device_passes(&sched);
        let s0 = passes[1]
            .iter()
            .position(|p| p.kind == PassKind::S && p.microbatch == 0)
            .unwrap();
        let s1 = passes[1]
            .iter()
            .position(|p| p.kind == PassKind::S && p.microbatch == 1)
            .unwrap();
        passes[1].swap(s0, s1);
        let diags = check_collective_order(&rebuild(&sched, passes));
        assert!(!diags.is_empty());
        assert!(diags.iter().all(|d| d.code == Code::CollectiveOrder));
        assert!(diags[0].message.contains("S"), "{}", diags[0].message);
    }

    #[test]
    fn t_before_s_consumes_before_issue() {
        // On one device move T0 before S0: T0 waits for the C1 result of
        // an all-reduce its own device has not entered yet.
        let sched = zb_vocab_1f1b(4, 8, VocabVariant::Alg2, zb_times(), false);
        let mut passes = device_passes(&sched);
        let d = 3;
        let s = passes[d]
            .iter()
            .position(|p| p.kind == PassKind::S && p.microbatch == 0)
            .unwrap();
        let t = passes[d]
            .iter()
            .position(|p| p.kind == PassKind::T && p.microbatch == 0)
            .unwrap();
        passes[d].swap(s, t);
        let mutated = rebuild(&sched, passes);
        let deps = build_deps(&mutated).unwrap();
        let diags = check_consume_before_issue(&mutated, &deps);
        assert!(
            diags.iter().any(|di| di.code == Code::ConsumeBeforeIssue
                && di.primary.map(|s| s.pass.kind) == Some(PassKind::T)),
            "{diags:#?}"
        );
        assert_eq!(mutated.kind(), ScheduleKind::Vocab(VocabVariant::Alg2));
    }
}
