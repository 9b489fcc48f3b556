//! Structural integrity (`VP0002`, `VP0003`) and deadlock freedom
//! (`VP0001`).
//!
//! Structural problems — duplicated passes and dependencies on passes the
//! schedule never runs — make the dependency graph itself ill-defined, so
//! they are checked first and, unlike `vp_schedule::deps::build_deps`
//! (which fails fast on the first defect), *all* of them are collected.
//! Once the graph is well-defined, a happens-before cycle is rendered as
//! the minimal cycle extracted by
//! [`vp_schedule::hb::HbGraph::minimal_cycle`] (`VP0001`); a schedule
//! that is acyclic yet leaves the executor stuck inside a rendezvous is
//! rendered from the executor's blocked set (`VP0017`).

use std::collections::{HashMap, HashSet};
use vp_schedule::deps::{device_preds, DepContext, Key};
use vp_schedule::exec::Stuck;
use vp_schedule::hb::{CycleStep, HbEdge};
use vp_schedule::pass::{PassKind, Schedule};

use crate::diag::{Code, Diagnostic, Site};

/// Collects every duplicate pass (`VP0003`) and every dependency on a
/// missing pass (`VP0002`) in the schedule.
pub fn check_structure(schedule: &Schedule) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut index: HashMap<Key, (usize, usize)> = HashMap::new();
    for (d, i, pass) in schedule.iter_all() {
        let key = (pass.kind, pass.microbatch, pass.chunk, d);
        if let Some(&(pd, pi)) = index.get(&key) {
            diags.push(
                Diagnostic::error(
                    Code::DuplicatePass,
                    format!("pass {pass} is scheduled twice on device {d}"),
                )
                .at(Site {
                    device: d,
                    slot: i,
                    pass: *pass,
                })
                .related(
                    Site {
                        device: pd,
                        slot: pi,
                        pass: *pass,
                    },
                    "first occurrence",
                )
                .help(
                    "each (kind, microbatch, chunk) may run at most once per device per iteration",
                ),
            );
        } else {
            index.insert(key, (d, i));
        }
    }
    let ctx = DepContext::of(schedule);
    let mut reported: HashSet<Key> = HashSet::new();
    let preds = (0..schedule.devices()).flat_map(|d| device_preds(&ctx, schedule, d));
    for ((d, i, pass), preds) in schedule.iter_all().zip(preds) {
        for (key, edge) in preds {
            if !index.contains_key(&key) && reported.insert(key) {
                let (kind, mb, chunk, src) = key;
                diags.push(
                    Diagnostic::error(
                        Code::MissingPass,
                        format!(
                            "device {src} never schedules {kind:?} mb={mb} chunk={chunk}, \
                             which {pass} on device {d} waits for"
                        ),
                    )
                    .at(Site {
                        device: d,
                        slot: i,
                        pass: *pass,
                    })
                    .note(format!(
                        "the dependency is realized by {}",
                        HbEdge::Dep(edge).describe()
                    ))
                    .help(format!(
                        "schedule {kind:?} mb={mb} chunk={chunk} on device {src}, or remove its consumers"
                    )),
                );
            }
        }
    }
    diags
}

/// Renders a minimal happens-before cycle as the `VP0001` deadlock
/// diagnostic: the primary site is the first pass on the cycle, each step
/// appears as a related site labeled with the edge that forces it before
/// the next, and the notes spell out the impossibility.
pub fn cycle_diagnostic(cycle: &[CycleStep]) -> Diagnostic {
    let head = cycle.first().expect("cycles are non-empty");
    let mut d = Diagnostic::error(
        Code::Deadlock,
        format!(
            "{} passes wait on each other in a happens-before cycle: the schedule deadlocks",
            cycle.len()
        ),
    )
    .at(Site {
        device: head.device,
        slot: head.slot,
        pass: head.pass,
    });
    for (i, step) in cycle.iter().enumerate() {
        let next = &cycle[(i + 1) % cycle.len()];
        d = d.related(
            Site {
                device: step.device,
                slot: step.slot,
                pass: step.pass,
            },
            format!(
                "must finish before {} [device {}, slot {}] — {}",
                next.pass,
                next.device,
                next.slot,
                step.edge.describe()
            ),
        );
    }
    d.note(
        "every pass on the cycle must finish before the next, and the last before the first \
         — no execution order satisfies this",
    )
    .help("reorder the involved devices so program order agrees with the dependency rules")
}

/// Renders a run the executor left stuck, on a schedule whose
/// happens-before graph is acyclic, as the `VP0017` diagnostic.
///
/// The primary site is the lowest blocked device inside a rendezvous.
/// Every blocked device is a related site labelled with its wait, and so
/// is every producer a blocked receive still waits on. When such a
/// producer is an `InputF` behind its own device's blocked `S`, the row
/// is still unsent while the barrier waits — the shape of the serving
/// deadlock the hoist fixed — and the help says to hoist it.
pub fn rendezvous_deadlock_diagnostic(schedule: &Schedule, stuck: &Stuck) -> Diagnostic {
    let site = |device: usize, slot: usize| Site {
        device,
        slot,
        pass: schedule.passes(device)[slot],
    };
    let head = stuck
        .blocked
        .iter()
        .find(|b| b.rendezvous.is_some())
        .expect("without a happens-before cycle, a stuck run has a device inside a rendezvous");
    let mut d = Diagnostic::error(
        Code::RendezvousDeadlock,
        format!(
            "{} devices deadlock under rendezvous semantics: the schedule is acyclic in the \
             happens-before model, but {} on device {} blocks inside its synchronous collective",
            stuck.blocked.len(),
            head.pass,
            head.device
        ),
    )
    .at(site(head.device, head.slot));
    let mut sites: Vec<(usize, usize)> = stuck.blocked.iter().map(|b| (b.device, b.slot)).collect();
    for b in &stuck.blocked {
        d = d.related(site(b.device, b.slot), b.reason.clone());
    }
    let mut unsent = None;
    for b in &stuck.blocked {
        for &(pd, ps) in &b.unmet {
            if sites.contains(&(pd, ps)) {
                continue;
            }
            sites.push((pd, ps));
            d = d.related(
                site(pd, ps),
                format!(
                    "not yet run, and {} [device {}, slot {}] waits for it",
                    b.pass, b.device, b.slot
                ),
            );
            let behind_s = stuck.blocked.iter().any(|o| {
                o.device == pd
                    && o.slot < ps
                    && o.rendezvous.is_some()
                    && o.pass.kind == PassKind::S
            });
            if behind_s && schedule.passes(pd)[ps].kind == PassKind::InputF {
                unsent.get_or_insert(site(pd, ps));
            }
        }
    }
    d = d.note(format!(
        "{} on device {} does not return until every participant's device reaches its \
         matching call, so everything scheduled after it on device {} — including its \
         pending sends — is blocked too",
        head.pass, head.device, head.device
    ));
    match unsent {
        Some(row) => d
            .note(format!(
                "the embedding row of {} on device {} is still unsent when the collective \
                 begins: it is scheduled after the blocking call, while another device's \
                 forward needs it to reach the same collective",
                row.pass, row.device
            ))
            .help(
                "hoist the non-blocking sends (InputF) ahead of every rendezvous collective \
                 entry, as generators::decode_pipeline does",
            ),
        None => d.help(
            "every device must enter the same rendezvous instances in the same order, with \
             every send a peer needs to get there issued before it blocks",
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_schedule::block::PassTimes;
    use vp_schedule::deps::build_deps;
    use vp_schedule::generators::vocab_1f1b;
    use vp_schedule::hb::HbGraph;
    use vp_schedule::pass::{ScheduleKind, ScheduledPass, VocabVariant};

    #[test]
    fn clean_schedule_has_no_structural_diagnostics() {
        let sched = vocab_1f1b(4, 8, VocabVariant::Alg2, PassTimes::default(), true);
        assert!(check_structure(&sched).is_empty());
    }

    #[test]
    fn all_missing_passes_are_collected() {
        // Three devices, only the middle one populated: its F needs
        // device 0's F, its B needs device 2's B — two distinct missing
        // passes, both reported (build_deps would stop at the first).
        let sched = Schedule::new(
            ScheduleKind::Plain,
            1,
            1,
            vec![
                vec![],
                vec![
                    ScheduledPass::new(PassKind::F, 0),
                    ScheduledPass::new(PassKind::B, 0),
                ],
                vec![],
            ],
        );
        let diags = check_structure(&sched);
        assert_eq!(diags.len(), 2, "{diags:#?}");
        assert!(diags.iter().all(|d| d.code == Code::MissingPass));
    }

    #[test]
    fn duplicates_are_reported_with_both_sites() {
        let sched = Schedule::new(
            ScheduleKind::Plain,
            1,
            1,
            vec![vec![
                ScheduledPass::new(PassKind::F, 0),
                ScheduledPass::new(PassKind::B, 0),
                ScheduledPass::new(PassKind::F, 0),
            ]],
        );
        let diags = check_structure(&sched);
        let dup: Vec<_> = diags
            .iter()
            .filter(|d| d.code == Code::DuplicatePass)
            .collect();
        assert_eq!(dup.len(), 1);
        assert_eq!(dup[0].primary.unwrap().slot, 2);
        assert_eq!(dup[0].related[0].0.slot, 0);
    }

    #[test]
    fn cycle_diagnostic_names_every_step() {
        let sched = Schedule::new(
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
        );
        let deps = build_deps(&sched).unwrap();
        let cycle = HbGraph::new(&sched, &deps).minimal_cycle().unwrap();
        let diag = cycle_diagnostic(&cycle);
        assert_eq!(diag.code, Code::Deadlock);
        assert_eq!(diag.related.len(), cycle.len());
        let text = diag.to_string();
        assert!(text.contains("error[VP0001]"), "{text}");
        assert!(text.contains("program order"), "{text}");
    }
}
