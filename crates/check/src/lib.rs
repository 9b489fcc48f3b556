#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `vp-check`: a static schedule & communication verifier.
//!
//! Proves properties of any [`vp_schedule::pass::Schedule`] without
//! running it on the runtime, reporting violations as rustc-style
//! diagnostics with stable codes (`VP0001`–`VP0012`, `VP0016`, `VP0017`;
//! `VP0013`–`VP0015` are retired):
//!
//! * **Deadlock freedom** ([`deadlock`]) — the happens-before graph
//!   (program order + §5.1 dependency edges) is acyclic; a violation is
//!   rendered as the *minimal* cycle, naming exactly the passes that wait
//!   on each other (`VP0001`), after structural integrity (`VP0002`
//!   missing passes, `VP0003` duplicates) is established.
//! * **Communication protocol** ([`comm`]) — every scheduled kind covers
//!   every microbatch (`VP0004`); collective participation sets are
//!   identical across vocabulary shards (`VP0005`); shards enter a
//!   collective class's instances in the same order (`VP0006`); no pass
//!   consumes a comm-stream result before its own device issues the
//!   contribution (`VP0007`).
//! * **Activation liveness** ([`liveness`]) — no use-before-alloc
//!   (`VP0008`), leak (`VP0009`) or double-free (`VP0010`), and each
//!   device's peak resident activations stay within the analytical 1F1B
//!   bound of §5.2 (`VP0011`).
//! * **Static races** ([`race`]) — every conflicting access pair to every
//!   logical buffer ([`vp_schedule::facts`]) is ordered by a
//!   happens-before path (`VP0012`); on valid schedules this *proves*
//!   race freedom, including Algorithm 2's freely-deferrable `T` pass.
//! * **Decode schedules** ([`check_decode`]) — forward-only serving pass
//!   lists swap the training liveness rules for `VP0016`: no
//!   backward-family pass may appear (inference produces no gradients);
//!   all other analyses run unchanged.
//! * **Rendezvous deadlock** ([`deadlock`]) — in decode mode the sampling
//!   barrier each `S` pass executes is a synchronous all-gather on the
//!   device thread ([`vp_schedule::deps::sync_collectives`]), so a device
//!   inside it sends nothing until every peer arrives. Whether a schedule hangs
//!   under that rule is decided by running it: the schedule executor
//!   ([`vp_schedule::exec::Executor::run_with_graph`]) under unit costs,
//!   whose transitions commute, so one run decides every interleaving.
//!   A stuck run on an acyclic happens-before graph is `VP0017`, naming
//!   every blocked device, what it waits for and the unsent row.
//!
//! The `repro check` subcommand sweeps every built-in generator family
//! through [`check`] (and `repro tpsweep` gates each grid configuration's
//! schedule through it, since every tensor rank of a row runs its stage's
//! pass list); `ci.sh` fails on any diagnostic.

pub mod comm;
pub mod deadlock;
pub mod diag;
pub mod liveness;
pub mod race;

pub use diag::{render_human, render_json, Code, Diagnostic, Severity, Site};

use vp_schedule::block::PassTimes;
use vp_schedule::deps::{build_deps, sync_collectives};
use vp_schedule::exec::{Executor, UnitCosts};
use vp_schedule::hb::HbGraph;
use vp_schedule::pass::Schedule;

/// Options for [`check_with`].
#[derive(Debug, Clone, Default)]
pub struct CheckConfig {
    /// Per-device peak-activation caps to enforce as `VP0011`. `None`
    /// uses the analytical cap of the schedule family
    /// ([`liveness::analytic_caps`]); families without a closed form
    /// (multi-chunk placements) then skip the bound.
    pub activation_caps: Option<Vec<usize>>,
    /// Forward-only (decode) mode: the training liveness rules
    /// (`VP0008`–`VP0011`) are replaced by the decode rule `VP0016` — no
    /// backward-family pass may appear at all, and `F` activations are
    /// transient rather than resident. Use [`check_decode`] for the common
    /// case.
    pub forward_only: bool,
}

/// The outcome of a full static analysis of one schedule.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// All findings, sorted by (code, device, slot).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of scheduled passes analyzed.
    pub passes: usize,
    /// Number of happens-before edges examined (0 if the graph could not
    /// be built because of structural diagnostics).
    pub hb_edges: usize,
    /// Whether the race analysis ran (it needs an acyclic graph).
    pub races_checked: bool,
}

impl CheckReport {
    /// Whether the schedule passed every analysis.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The distinct codes present, in ascending order.
    pub fn codes(&self) -> Vec<Code> {
        let mut codes: Vec<Code> = self.diagnostics.iter().map(|d| d.code).collect();
        codes.sort_unstable();
        codes.dedup();
        codes
    }

    /// Whether any diagnostic carries `code`.
    pub fn has(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }
}

/// Runs every analysis with default configuration.
pub fn check(schedule: &Schedule) -> CheckReport {
    check_with(schedule, &CheckConfig::default())
}

/// Runs every analysis on a forward-only decode schedule (the serving
/// engine's per-step pass list): the training liveness rules give way to
/// `VP0016` (no backward-family pass may appear), the deadlock,
/// communication-protocol and race analyses run unchanged, and — because
/// a decode step's `S` pass executes its sampling barrier synchronously
/// on the device thread rather than submitting it to a comm stream — the
/// executor runs the schedule with those barriers as rendezvous
/// (`VP0017`).
pub fn check_decode(schedule: &Schedule) -> CheckReport {
    check_with(
        schedule,
        &CheckConfig {
            forward_only: true,
            ..CheckConfig::default()
        },
    )
}

/// Runs every analysis.
///
/// Structure (`VP0002`/`VP0003`) and the schedule-only lints
/// (`VP0004`–`VP0006`, `VP0008`–`VP0011`) always run. The graph-based
/// analyses (`VP0001`, `VP0007`, `VP0012`) run only once the dependency
/// graph is well-defined, and race detection and the rendezvous run
/// (`VP0017`) additionally require acyclicity (a deadlocked schedule has
/// no execution to race in).
pub fn check_with(schedule: &Schedule, config: &CheckConfig) -> CheckReport {
    let mut diagnostics = deadlock::check_structure(schedule);
    let structural_ok = diagnostics.is_empty();
    diagnostics.extend(comm::check_coverage(schedule));
    diagnostics.extend(comm::check_participation(schedule));
    diagnostics.extend(comm::check_collective_order(schedule));
    if config.forward_only {
        diagnostics.extend(liveness::check_forward_only(schedule));
    } else {
        let caps = config
            .activation_caps
            .clone()
            .or_else(|| liveness::analytic_caps(schedule));
        diagnostics.extend(liveness::check_liveness(schedule, caps.as_deref()));
    }

    let mut hb_edges = 0;
    let mut races_checked = false;
    if structural_ok {
        let deps = build_deps(schedule).expect("structure was just verified");
        diagnostics.extend(comm::check_consume_before_issue(schedule, &deps));
        let hb = HbGraph::new(schedule, &deps);
        hb_edges = (0..hb.len()).map(|v| hb.succs(v).len()).sum();
        match hb.topo_order() {
            None => {
                let cycle = hb.minimal_cycle().expect("cyclic graph has a cycle");
                diagnostics.push(deadlock::cycle_diagnostic(&cycle));
            }
            Some(topo) => {
                let reach = race::Reachability::compute(&hb, &topo);
                diagnostics.extend(race::check_races(schedule, &hb, &reach));
                races_checked = true;
                // Collectives the schedule executes synchronously on the
                // device thread (decode's sampling barrier) also block the
                // caller's later sends. Run them as rendezvous: a stuck run
                // the acyclic graph did not predict is VP0017.
                let sync = sync_collectives(schedule, config.forward_only);
                if !sync.is_empty() {
                    let costs = UnitCosts::new(PassTimes::default(), schedule.chunks());
                    if let Err(stuck) = Executor::new(&costs).run_with_graph(schedule, &deps, &sync)
                    {
                        diagnostics
                            .push(deadlock::rendezvous_deadlock_diagnostic(schedule, &stuck));
                    }
                }
            }
        }
    }
    diagnostics.sort_by_key(|d| {
        (
            d.code,
            d.primary.map_or(usize::MAX, |s| s.device),
            d.primary.map_or(usize::MAX, |s| s.slot),
        )
    });
    CheckReport {
        diagnostics,
        passes: schedule.total_passes(),
        hb_edges,
        races_checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_schedule::block::PassTimes;
    use vp_schedule::generators::{one_f_one_b, vocab_1f1b, zb_vocab_1f1b};
    use vp_schedule::pass::{PassKind, ScheduleKind, ScheduledPass, VocabVariant};

    fn zb_times() -> PassTimes {
        PassTimes {
            w: 1.0,
            b: 1.0,
            ..PassTimes::default()
        }
    }

    #[test]
    fn built_in_generators_are_clean() {
        let report = check(&one_f_one_b(4, 8, PassTimes::default()));
        assert!(report.is_clean(), "{:#?}", report.diagnostics);
        assert!(report.races_checked);
        assert!(report.hb_edges > 0);
        for variant in [VocabVariant::Naive, VocabVariant::Alg1, VocabVariant::Alg2] {
            let report = check(&zb_vocab_1f1b(4, 8, variant, zb_times(), true));
            assert!(report.is_clean(), "{variant:?}: {:#?}", report.diagnostics);
        }
    }

    #[test]
    fn deadlocked_schedule_reports_vp0001_and_skips_races() {
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
        let report = check(&sched);
        assert!(report.has(Code::Deadlock));
        assert!(!report.races_checked);
        // VP0008 also fires: device 1's B precedes its F in program order.
        assert!(report.has(Code::UseBeforeAlloc));
    }

    #[test]
    fn structural_failure_suppresses_graph_analyses() {
        let sched = Schedule::new(
            ScheduleKind::Plain,
            1,
            1,
            vec![vec![], vec![ScheduledPass::new(PassKind::F, 0)]],
        );
        let report = check(&sched);
        assert!(report.has(Code::MissingPass));
        assert_eq!(report.hb_edges, 0);
        assert!(!report.races_checked);
    }

    #[test]
    fn diagnostics_are_sorted_by_code_then_site() {
        let sched = vocab_1f1b(4, 6, VocabVariant::Alg1, PassTimes::default(), false);
        let mut passes: Vec<Vec<ScheduledPass>> =
            (0..4).map(|d| sched.passes(d).to_vec()).collect();
        // Two independent defects: drop a T on device 2 and duplicate an
        // F on device 0.
        let t = passes[2]
            .iter()
            .position(|p| p.kind == PassKind::T && p.microbatch == 1)
            .unwrap();
        passes[2].remove(t);
        passes[0].push(ScheduledPass::new(PassKind::F, 0));
        let report = check(&Schedule::new(sched.kind(), 6, 1, passes));
        assert!(!report.is_clean());
        let codes: Vec<Code> = report.diagnostics.iter().map(|d| d.code).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        assert_eq!(codes, sorted);
        assert!(report.has(Code::DuplicatePass));
    }

    #[test]
    fn decode_schedules_are_clean_under_check_decode() {
        use vp_schedule::generators::{
            decode_pipeline, decode_pipeline_grouped, decode_pipeline_overlap,
        };
        for p in [1, 2, 4] {
            for m in [1u32, 3, 8] {
                // Per-slot, pairs, the two-half weave and the whole batch,
                // with the inline barrier and with the deferred merge.
                let mut family = vec![decode_pipeline(p, m), decode_pipeline_overlap(p, m)];
                for g in [1, 2, m.div_ceil(2)] {
                    family.push(decode_pipeline_grouped(p, m, g, false));
                    family.push(decode_pipeline_grouped(p, m, g, true));
                }
                for sched in family {
                    // Training liveness would leak every F; decode mode
                    // accepts.
                    let report = check_decode(&sched);
                    assert!(report.is_clean(), "p={p} m={m}: {:#?}", report.diagnostics);
                    assert!(report.races_checked);
                }
            }
        }
    }

    #[test]
    fn a_skewed_group_boundary_is_a_missing_participant() {
        use vp_schedule::generators::decode_pipeline_grouped;
        // Every device cuts the batch {0, 1} {2, 3}; device 1 cuts it
        // {0, 1, 2} {3}. Its S(2) and the others' S(1) never meet.
        let sched = decode_pipeline_grouped(2, 4, 2, false);
        let mut passes: Vec<Vec<ScheduledPass>> =
            (0..2).map(|d| sched.passes(d).to_vec()).collect();
        let s = passes[1]
            .iter()
            .position(|p| p.kind == PassKind::S && p.microbatch == 1)
            .unwrap();
        passes[1][s].microbatch = 2;
        let mutated = Schedule::new(sched.kind(), 4, 1, passes);
        assert_eq!(mutated.s_groups(1)[s], 0..3);
        let report = check_decode(&mutated);
        assert!(report.has(Code::MissingParticipant), "{:?}", report.codes());
        // Both devices still sample every slot: no coverage hole.
        assert!(!report.has(Code::CoverageHole), "{:?}", report.codes());

        // The same skew on device 0 closes no happens-before cycle (on the
        // last device S(2) would wait on its own later F(2): VP0001). Each
        // device then sits in a barrier the other never enters.
        let mut passes: Vec<Vec<ScheduledPass>> =
            (0..2).map(|d| sched.passes(d).to_vec()).collect();
        let s = passes[0]
            .iter()
            .position(|p| p.kind == PassKind::S && p.microbatch == 1)
            .unwrap();
        passes[0][s].microbatch = 2;
        let report = check_decode(&Schedule::new(sched.kind(), 4, 1, passes));
        assert!(report.has(Code::MissingParticipant), "{:?}", report.codes());
        assert!(!report.has(Code::Deadlock), "{:?}", report.codes());
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::RendezvousDeadlock)
            .expect("a rendezvous short of the world hangs");
        assert!(d.to_string().contains("can never complete"), "{d}");
    }

    #[test]
    fn missplit_overlap_decode_is_rejected_as_a_deadlock() {
        use vp_schedule::fixtures::decode_pipeline_overlap_missplit;
        // The inconsistent half-batch split: device 0 merges at lag 0,
        // everyone else at lag 2. The wait lives at T (the S passes are
        // stream-offloaded), so the cycle is already in the asymmetric
        // graph — VP0001, not VP0017.
        for p in [2usize, 4] {
            for m in [2u32, 3, 8] {
                let report = check_decode(&decode_pipeline_overlap_missplit(p, m, 2));
                assert!(
                    report.has(Code::Deadlock),
                    "p={p} m={m}: {:?}",
                    report.codes()
                );
            }
        }
        // Degenerate sizes never reach the inconsistent window: clean.
        assert!(check_decode(&decode_pipeline_overlap_missplit(2, 1, 2)).is_clean());
        // The witness cycle crosses a T wait and an F of the next slot.
        let report = check_decode(&decode_pipeline_overlap_missplit(2, 2, 2));
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::Deadlock)
            .unwrap();
        let kinds: Vec<PassKind> = d.related.iter().map(|(s, _)| s.pass.kind).collect();
        assert!(kinds.contains(&PassKind::T), "{d}");
        assert!(kinds.contains(&PassKind::F), "{d}");
    }

    #[test]
    fn unhoisted_decode_schedule_is_rejected_with_vp0017() {
        use vp_schedule::fixtures::decode_pipeline_natural;
        // The PR-8 serving deadlock, now a diagnostic instead of a hang:
        // InputF sends in natural position at p=2/m=2.
        let report = check_decode(&decode_pipeline_natural(2, 2));
        assert!(report.has(Code::RendezvousDeadlock), "{:?}", report.codes());
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::RendezvousDeadlock)
            .unwrap();
        // The witness names the blocked S collective and the unsent
        // InputF row.
        assert_eq!(d.primary.unwrap().pass.kind, PassKind::S, "{d}");
        assert!(
            d.related.iter().any(|(s, _)| s.pass.kind == PassKind::S),
            "{d}"
        );
        assert!(
            d.related
                .iter()
                .any(|(s, _)| s.pass.kind == PassKind::InputF),
            "{d}"
        );
        assert!(d.notes.iter().any(|n| n.contains("unsent")), "{d}");
        // Only the blocking-send analysis fires: the base model is clean,
        // so no VP0001.
        assert!(!report.has(Code::Deadlock), "{:?}", report.codes());
        // And the cycle is minimal: a handful of passes, not the whole
        // schedule.
        assert!(d.related.len() <= 4, "{d}");
    }

    #[test]
    fn unhoisted_decode_family_deadlocks_across_sizes() {
        use vp_schedule::fixtures::decode_pipeline_natural;
        for p in [2usize, 4] {
            for m in [2u32, 3, 8] {
                let report = check_decode(&decode_pipeline_natural(p, m));
                assert!(
                    report.has(Code::RendezvousDeadlock),
                    "p={p} m={m}: {:?}",
                    report.codes()
                );
            }
        }
        // Degenerate sizes have nothing to block on: clean.
        assert!(check_decode(&decode_pipeline_natural(1, 4)).is_clean());
        assert!(check_decode(&decode_pipeline_natural(4, 1)).is_clean());
    }

    #[test]
    fn training_vocab_schedules_have_no_rendezvous_diagnostics() {
        // Training offloads C1 to the comm stream: the rendezvous pass
        // must not run (sync_collectives is empty outside forward_only),
        // so the shipped families stay clean.
        for variant in [VocabVariant::Naive, VocabVariant::Alg1, VocabVariant::Alg2] {
            let report = check(&vocab_1f1b(4, 8, variant, PassTimes::default(), true));
            assert!(report.is_clean(), "{variant:?}: {:#?}", report.diagnostics);
        }
    }

    #[test]
    fn training_liveness_rejects_decode_schedules_as_leaks() {
        use vp_schedule::generators::decode_pipeline;
        let report = check(&decode_pipeline(2, 4));
        assert!(report.has(Code::ActivationLeak));
    }

    #[test]
    fn backward_pass_in_decode_schedule_is_vp0016() {
        use vp_schedule::generators::decode_pipeline;
        let sched = decode_pipeline(2, 4);
        let mut passes: Vec<Vec<ScheduledPass>> =
            (0..2).map(|d| sched.passes(d).to_vec()).collect();
        passes[1].push(ScheduledPass::new(PassKind::B, 0));
        let mutated = Schedule::new(sched.kind(), 4, 1, passes);
        let report = check_decode(&mutated);
        assert!(report.has(Code::BackwardInDecode), "{:#?}", report.codes());
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::BackwardInDecode)
            .unwrap();
        assert_eq!(d.primary.unwrap().device, 1);
    }

    #[test]
    fn decode_mode_still_catches_comm_and_deadlock_defects() {
        use vp_schedule::generators::decode_pipeline_grouped;
        let decode_pipeline = |p, m| decode_pipeline_grouped(p, m, 1, false);
        // Drop one S on device 0: participation hole.
        let sched = decode_pipeline(2, 4);
        let mut passes: Vec<Vec<ScheduledPass>> =
            (0..2).map(|d| sched.passes(d).to_vec()).collect();
        let s = passes[0]
            .iter()
            .position(|p| p.kind == PassKind::S && p.microbatch == 2)
            .unwrap();
        passes[0].remove(s);
        let mutated = Schedule::new(sched.kind(), 4, 1, passes);
        let report = check_decode(&mutated);
        assert!(!report.is_clean(), "dropped S must be caught");
        // Device 1 enters the barrier of mb 2 alone and never leaves it.
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::RendezvousDeadlock)
            .expect("a rendezvous short of the world hangs");
        assert!(d.to_string().contains("can never complete"), "{d}");

        // Swap two S entries on one device: collective order skew.
        let sched = decode_pipeline(2, 4);
        let mut passes: Vec<Vec<ScheduledPass>> =
            (0..2).map(|d| sched.passes(d).to_vec()).collect();
        let s0 = passes[1]
            .iter()
            .position(|p| p.kind == PassKind::S && p.microbatch == 0)
            .unwrap();
        let s1 = passes[1]
            .iter()
            .position(|p| p.kind == PassKind::S && p.microbatch == 1)
            .unwrap();
        passes[1].swap(s0, s1);
        let mutated = Schedule::new(sched.kind(), 4, 1, passes);
        let report = check_decode(&mutated);
        assert!(!report.is_clean(), "S order skew must be caught");
    }

    #[test]
    fn explicit_caps_override_the_analytic_bound() {
        let sched = one_f_one_b(2, 4, PassTimes::default());
        let strict = CheckConfig {
            activation_caps: Some(vec![1, 1]),
            ..CheckConfig::default()
        };
        let report = check_with(&sched, &strict);
        assert!(report.has(Code::PeakActivations));
        assert!(check(&sched).is_clean());
    }
}
