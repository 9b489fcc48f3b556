//! Execution model checking: the dynamic counterpart of the static
//! happens-before analyses, used to *differentially validate* them.
//!
//! The machine under test is the thread-per-stage runtime: every device
//! walks its pass list in order; point-to-point sends never block (the
//! runtime's channels are unbounded and stash out-of-order tags); receives
//! block until the producing pass has completed; stream-offloaded
//! collective results block their *consumer* the same way; and — in
//! forward-only decode mode — the `S` pass's sampling barrier is a true
//! rendezvous executed inline on the device thread: the call arrives once
//! its receive is satisfied, then blocks until **every** device of the
//! world has arrived at its matching call
//! ([`vp_schedule::deps::sync_collectives`]).
//!
//! Every transition of this machine is independent of every other enabled
//! one — completions only accumulate, unbounded channels mean no send can
//! disable anything, and rendezvous arrivals commute — so every
//! interleaving reaches the same final state and one linear run decides
//! the verdict. [`model_check`] is that run: the schedule executor
//! ([`vp_schedule::exec::Executor`]) under unit costs, with the mode's
//! rendezvous instances. The unit tests validate the reduction against an
//! exploration of every interleaving.
//!
//! A deadlock verdict carries the fired transitions that lead to the stuck
//! state, plus what every blocked device is waiting for.

use std::fmt;

use vp_schedule::block::PassTimes;
use vp_schedule::deps::{build_deps, sync_collectives, DepError};
use vp_schedule::exec::{Action, Blocked, Executor, TraceStep, UnitCosts};
use vp_schedule::pass::{Schedule, ScheduledPass};

/// Options for [`model_check`].
#[derive(Debug, Clone, Default)]
pub struct ModelConfig {
    /// Forward-only decode mode: `S` barriers are synchronous rendezvous
    /// (and backward-family passes are a mode violation). Mirrors
    /// [`crate::CheckConfig::forward_only`].
    pub forward_only: bool,
}

impl ModelConfig {
    /// Decode-mode configuration.
    pub fn decode() -> ModelConfig {
        ModelConfig { forward_only: true }
    }
}

/// A deadlock: the run stopped with work left.
#[derive(Debug, Clone)]
pub struct DeadlockReport {
    /// States the run visited: the initial one plus one per transition.
    pub states: usize,
    /// The fired transitions: replaying them from the initial state
    /// reaches the stuck state.
    pub trace: Vec<TraceStep>,
    /// Every unfinished device and what it waits for.
    pub blocked: Vec<Blocked>,
}

/// The model checker's verdict on a schedule.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// The run completes.
    Completes {
        /// States the run visited: the initial one plus one per transition.
        states: usize,
        /// Transitions on the completing run.
        steps: usize,
    },
    /// The run blocks with work left.
    Deadlock(DeadlockReport),
}

impl Verdict {
    /// Whether the verdict is a deadlock.
    pub fn deadlocked(&self) -> bool {
        matches!(self, Verdict::Deadlock(_))
    }

    /// States the run visited.
    pub fn states(&self) -> usize {
        match self {
            Verdict::Completes { states, .. } => *states,
            Verdict::Deadlock(report) => report.states,
        }
    }
}

/// Why the model could not run at all (distinct from a deadlock verdict).
#[derive(Debug, Clone)]
pub enum ModelError {
    /// The schedule is structurally broken (missing/duplicate passes);
    /// the static analyzer reports the same defect as `VP0002`/`VP0003`.
    Structure(DepError),
    /// A forward-only schedule contains a pass the decode engine has no
    /// semantics for; the static analyzer reports it as `VP0016`.
    ModeViolation {
        /// Offending device.
        device: usize,
        /// The backward-family pass.
        pass: ScheduledPass,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Structure(e) => write!(f, "structural defect: {e}"),
            ModelError::ModeViolation { device, pass } => write!(
                f,
                "mode violation: {pass} on device {device} has no forward-only semantics [VP0016]"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

/// Runs a schedule under the runtime's blocking semantics.
///
/// Returns [`Verdict::Completes`] if the run finishes, or
/// [`Verdict::Deadlock`] with the fired transitions and the blocked
/// devices.
///
/// # Errors
///
/// [`ModelError::ModeViolation`] for a backward-family pass under
/// `forward_only` (`VP0016`), and [`ModelError::Structure`] if the
/// dependency graph cannot be built (`VP0002`/`VP0003` territory).
pub fn model_check(schedule: &Schedule, config: &ModelConfig) -> Result<Verdict, ModelError> {
    if config.forward_only {
        if let Some((device, _, pass)) = schedule
            .iter_all()
            .find(|(_, _, pass)| !pass.kind.decode_safe())
        {
            return Err(ModelError::ModeViolation {
                device,
                pass: *pass,
            });
        }
    }
    let deps = build_deps(schedule).map_err(ModelError::Structure)?;
    let sync = sync_collectives(schedule, config.forward_only);
    let costs = UnitCosts::new(PassTimes::default(), schedule.chunks());
    Ok(
        match Executor::new(&costs).run_with_graph(schedule, &deps, &sync) {
            // Every pass fires exactly one transition.
            Ok(_) => Verdict::Completes {
                states: schedule.total_passes() + 1,
                steps: schedule.total_passes(),
            },
            Err(stuck) => Verdict::Deadlock(DeadlockReport {
                states: stuck.trace.len() + 1,
                trace: stuck.trace,
                blocked: stuck.blocked,
            }),
        },
    )
}

/// Renders an interleaving trace plus the blocked-device summary as human
/// text — the "replayable trace" attached to a differential disagreement.
pub fn render_trace(report: &DeadlockReport) -> String {
    let mut out = String::new();
    for (i, step) in report.trace.iter().enumerate() {
        let what = match step.action {
            Action::Complete => "completes",
            Action::Arrive => "arrives at its rendezvous in",
            Action::ArriveAndRelease => "arrives last and releases the rendezvous of",
        };
        out.push_str(&format!(
            "  step {i:3}: device {} {what} {} [slot {}]\n",
            step.device, step.pass, step.slot
        ));
    }
    out.push_str(&format!(
        "  => stuck: {} device(s) blocked after {} step(s)\n",
        report.blocked.len(),
        report.trace.len()
    ));
    for b in &report.blocked {
        out.push_str(&format!(
            "     device {} at slot {} ({}): {}\n",
            b.device, b.slot, b.pass, b.reason
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use vp_schedule::deps::SyncCollective;
    use vp_schedule::fixtures::{decode_pipeline_natural, decode_pipeline_overlap_missplit};
    use vp_schedule::generators::{
        decode_pipeline, decode_pipeline_grouped, decode_pipeline_overlap, one_f_one_b, vocab_1f1b,
    };
    use vp_schedule::pass::{PassKind, VocabVariant};

    /// The oracle of the reduction: the pass-VM explored over *every*
    /// interleaving. A state is one `(pc, inside a rendezvous)` pair per
    /// device; a transition is one device completing its current pass or
    /// arriving at its rendezvous.
    struct Vm {
        passes: Vec<Vec<ScheduledPass>>,
        /// Producers `(device, slot)` each pass waits on.
        preds: Vec<Vec<Vec<(usize, usize)>>>,
        /// The rendezvous instance of each slot, if it is a participant.
        sync_of: Vec<Vec<Option<usize>>>,
        instances: Vec<SyncCollective>,
    }

    type State = Vec<(usize, bool)>;

    /// Unfinished devices as `(device, slot, inside a rendezvous)`.
    type Unfinished = Vec<(usize, usize, bool)>;

    impl Vm {
        fn build(schedule: &Schedule, forward_only: bool) -> Vm {
            let deps = build_deps(schedule).unwrap();
            let passes: Vec<Vec<ScheduledPass>> = (0..schedule.devices())
                .map(|d| schedule.passes(d).to_vec())
                .collect();
            let preds = (0..passes.len())
                .map(|d| {
                    (0..passes[d].len())
                        .map(|i| {
                            deps.preds(d, i)
                                .iter()
                                .map(|dep| (dep.device, dep.index))
                                .collect()
                        })
                        .collect()
                })
                .collect();
            let instances = sync_collectives(schedule, forward_only);
            let mut sync_of: Vec<Vec<Option<usize>>> =
                passes.iter().map(|list| vec![None; list.len()]).collect();
            for (idx, inst) in instances.iter().enumerate() {
                for &(d, slot) in &inst.sites {
                    sync_of[d][slot] = Some(idx);
                }
            }
            Vm {
                passes,
                preds,
                sync_of,
                instances,
            }
        }

        fn initial(&self) -> State {
            vec![(0, false); self.passes.len()]
        }

        /// Devices with an enabled transition, ascending.
        fn enabled(&self, s: &State) -> Vec<usize> {
            (0..s.len())
                .filter(|&d| {
                    let (pc, arrived) = s[d];
                    pc < self.passes[d].len()
                        && !arrived
                        && self.preds[d][pc].iter().all(|&(pd, pi)| s[pd].0 > pi)
                })
                .collect()
        }

        /// Fires device `d`'s transition.
        fn apply(&self, s: &mut State, d: usize) -> TraceStep {
            let slot = s[d].0;
            let pass = self.passes[d][slot];
            let action = match self.sync_of[d][slot] {
                None => {
                    s[d] = (slot + 1, false);
                    Action::Complete
                }
                Some(idx) => {
                    s[d].1 = true;
                    let sites = &self.instances[idx].sites;
                    if sites.len() == s.len() && sites.iter().all(|&(pd, ps)| s[pd] == (ps, true)) {
                        for &(pd, ps) in sites {
                            s[pd] = (ps + 1, false);
                        }
                        Action::ArriveAndRelease
                    } else {
                        Action::Arrive
                    }
                }
            };
            TraceStep {
                device: d,
                slot,
                pass,
                action,
            }
        }

        /// Unfinished devices as `(device, slot, inside a rendezvous)`.
        fn unfinished(&self, s: &State) -> Unfinished {
            (0..s.len())
                .filter(|&d| s[d].0 < self.passes[d].len())
                .map(|d| (d, s[d].0, s[d].1))
                .collect()
        }
    }

    /// Explores every interleaving: the distinct states visited, and the
    /// unfinished devices of the first stuck state found, if any.
    fn explore_all(schedule: &Schedule, forward_only: bool) -> (usize, Option<Unfinished>) {
        let vm = Vm::build(schedule, forward_only);
        let mut visited = HashSet::from([vm.initial()]);
        let mut stack = vec![vm.initial()];
        while let Some(state) = stack.pop() {
            let enabled = vm.enabled(&state);
            let unfinished = vm.unfinished(&state);
            if enabled.is_empty() && !unfinished.is_empty() {
                return (visited.len(), Some(unfinished));
            }
            for d in enabled {
                let mut next = state.clone();
                vm.apply(&mut next, d);
                if visited.insert(next.clone()) {
                    stack.push(next);
                }
            }
        }
        (visited.len(), None)
    }

    /// Whether `trace` fires on the VM step for step as recorded and
    /// leaves it stuck with work left: a genuine counterexample execution.
    fn replay(schedule: &Schedule, forward_only: bool, trace: &[TraceStep]) -> bool {
        let vm = Vm::build(schedule, forward_only);
        let mut state = vm.initial();
        for step in trace {
            if !vm.enabled(&state).contains(&step.device)
                || vm.apply(&mut state, step.device) != *step
            {
                return false;
            }
        }
        vm.enabled(&state).is_empty() && !vm.unfinished(&state).is_empty()
    }

    #[test]
    fn clean_families_complete() {
        let cfg = ModelConfig::default();
        for sched in [
            one_f_one_b(4, 8, PassTimes::default()),
            vocab_1f1b(4, 8, VocabVariant::Alg2, PassTimes::default(), true),
            vocab_1f1b(3, 6, VocabVariant::Naive, PassTimes::default(), false),
        ] {
            let verdict = model_check(&sched, &cfg).unwrap();
            assert!(!verdict.deadlocked(), "{verdict:?}");
            // One linear run: one state per transition plus the initial
            // state.
            assert_eq!(verdict.states(), sched.total_passes() + 1);
        }
    }

    #[test]
    fn hoisted_decode_completes_under_rendezvous_semantics() {
        let cfg = ModelConfig::decode();
        for p in [1usize, 2, 4] {
            for m in [1u32, 2, 3, 8] {
                for g in [1, 2, m.div_ceil(2), m] {
                    let sched = decode_pipeline_grouped(p, m, g, false);
                    let verdict = model_check(&sched, &cfg).unwrap();
                    assert!(!verdict.deadlocked(), "p={p} m={m} g={g}: {verdict:?}");
                }
            }
        }
    }

    #[test]
    fn overlap_decode_completes_with_stream_offloaded_merges() {
        // Every slot of the overlap family schedules a T, so no S is a
        // rendezvous: the VM models S as an ordinary (submitting) pass and
        // the wait lives at T's arrival preds. All shapes complete.
        let cfg = ModelConfig::decode();
        for p in [1usize, 2, 4] {
            for m in [1u32, 2, 3, 8] {
                for g in [1, 2, m.div_ceil(2), m] {
                    let sched = decode_pipeline_grouped(p, m, g, true);
                    let verdict = model_check(&sched, &cfg).unwrap();
                    assert!(!verdict.deadlocked(), "p={p} m={m} g={g}: {verdict:?}");
                }
            }
        }
    }

    #[test]
    fn missplit_overlap_deadlocks_with_a_replayable_trace() {
        let sched = decode_pipeline_overlap_missplit(2, 2, 2);
        let verdict = model_check(&sched, &ModelConfig::decode()).unwrap();
        let Verdict::Deadlock(report) = verdict else {
            panic!("mis-split overlap must deadlock: {verdict:?}");
        };
        assert!(replay(&sched, true, &report.trace));
        // Device 0 is stuck at its deferred merge, waiting on device 1's
        // S(0) — which sits behind device 1's F(1), itself waiting on the
        // F(1) activation device 0 never sends.
        assert!(
            report
                .blocked
                .iter()
                .any(|b| b.device == 0 && b.pass.kind == PassKind::T),
            "{report:?}"
        );
        assert!(
            report
                .blocked
                .iter()
                .any(|b| b.device == 1 && b.pass.kind == PassKind::F),
            "{report:?}"
        );
    }

    #[test]
    fn natural_decode_deadlocks_with_a_replayable_trace() {
        let sched = decode_pipeline_natural(2, 2);
        let verdict = model_check(&sched, &ModelConfig::decode()).unwrap();
        let Verdict::Deadlock(report) = verdict else {
            panic!("un-hoisted decode must deadlock: {verdict:?}");
        };
        // The trace replays to the same stuck state.
        assert!(replay(&sched, true, &report.trace));
        // The blocked summary names the rendezvous and the unsent row's
        // consumer.
        assert!(
            report
                .blocked
                .iter()
                .any(|b| b.pass.kind == PassKind::S && b.reason.contains("C1")),
            "{report:?}"
        );
        let unsent = sched.passes(1)[3];
        assert_eq!(unsent.kind, PassKind::InputF);
        assert!(
            report
                .blocked
                .iter()
                .any(|b| b.reason.contains(&format!("{unsent}"))),
            "{report:?}"
        );
        let text = render_trace(&report);
        assert!(text.contains("stuck"), "{text}");
    }

    #[test]
    fn without_rendezvous_semantics_the_natural_decode_looks_fine() {
        // The false clean the asymmetric model commits: training-mode
        // semantics (no sync collectives) completes the un-hoisted
        // schedule — which is exactly why VP0017 and this model checker
        // exist.
        let sched = decode_pipeline_natural(2, 2);
        assert!(!model_check(&sched, &ModelConfig::default())
            .unwrap()
            .deadlocked());
    }

    #[test]
    fn full_exploration_agrees_with_the_reduction() {
        // The reduction's soundness cross-check: on configs small enough
        // to enumerate every interleaving, the one-run verdict and the
        // exhaustive one agree, and so do the blocked sets of the stuck
        // fixtures — the natural and mis-split layouts, the skewed group
        // boundary and the dropped participant.
        for (sched, forward_only) in [
            (decode_pipeline(2, 2), true),
            (decode_pipeline(2, 3), true),
            (decode_pipeline(3, 2), true),
            (decode_pipeline_grouped(2, 2, 1, false), true),
            (decode_pipeline_grouped(2, 3, 1, false), true),
            (decode_pipeline_grouped(3, 2, 1, false), true),
            (decode_pipeline_grouped(2, 3, 2, false), true),
            (skewed_boundary(2, 4), true),
            (dropped_participant(), true),
            (decode_pipeline_natural(2, 2), true),
            (decode_pipeline_natural(2, 3), true),
            (decode_pipeline_natural(3, 2), true),
            (decode_pipeline_overlap(2, 2), true),
            (decode_pipeline_overlap(3, 2), true),
            (decode_pipeline_grouped(2, 2, 1, true), true),
            (decode_pipeline_grouped(3, 2, 1, true), true),
            (decode_pipeline_overlap_missplit(2, 2, 2), true),
            (decode_pipeline_overlap_missplit(2, 3, 2), true),
            (decode_pipeline_overlap_missplit(3, 4, 3), true),
            (one_f_one_b(2, 2, PassTimes::default()), false),
            (
                vocab_1f1b(2, 2, VocabVariant::Alg2, PassTimes::default(), false),
                false,
            ),
        ] {
            let config = ModelConfig { forward_only };
            let verdict = model_check(&sched, &config).unwrap();
            let (states, stuck) = explore_all(&sched, forward_only);
            let blocked = match &verdict {
                Verdict::Deadlock(report) => Some(
                    report
                        .blocked
                        .iter()
                        .map(|b| (b.device, b.slot, b.reason.starts_with("inside")))
                        .collect(),
                ),
                Verdict::Completes { .. } => None,
            };
            assert_eq!(blocked, stuck, "one run and every interleaving disagree");
            assert!(states >= verdict.states());
        }
    }

    /// `decode_pipeline_grouped(2, 4, 1, false)` with device 0's `S` of
    /// mb 1 removed: the world-sized all-gather of mb 1 is short of a
    /// participant.
    fn dropped_participant() -> Schedule {
        let sched = decode_pipeline_grouped(2, 4, 1, false);
        let mut passes: Vec<Vec<ScheduledPass>> =
            (0..2).map(|d| sched.passes(d).to_vec()).collect();
        let s = passes[0]
            .iter()
            .position(|p| p.kind == PassKind::S && p.microbatch == 1)
            .unwrap();
        passes[0].remove(s);
        Schedule::new(sched.kind(), 4, 1, passes)
    }

    #[test]
    fn dropped_rendezvous_participant_blocks_forever() {
        // The world-sized all-gather can never complete, so every arriver
        // hangs — the model sees what VP0005 predicts statically.
        let verdict = model_check(&dropped_participant(), &ModelConfig::decode()).unwrap();
        let Verdict::Deadlock(report) = verdict else {
            panic!("dropped participant must hang: {verdict:?}");
        };
        assert!(
            report
                .blocked
                .iter()
                .any(|b| b.reason.contains("never complete")),
            "{report:?}"
        );
    }

    /// `decode_pipeline_grouped(p, m, 2, false)` with the last device's
    /// first group one slot longer than everyone else's.
    fn skewed_boundary(p: usize, m: u32) -> Schedule {
        let sched = decode_pipeline_grouped(p, m, 2, false);
        let mut passes: Vec<Vec<ScheduledPass>> =
            (0..p).map(|d| sched.passes(d).to_vec()).collect();
        let s = passes[p - 1]
            .iter()
            .position(|x| x.kind == PassKind::S && x.microbatch == 1)
            .unwrap();
        passes[p - 1][s].microbatch = 2;
        Schedule::new(sched.kind(), m, 1, passes)
    }

    #[test]
    fn a_skewed_group_boundary_is_a_stuck_rendezvous() {
        // Device 1 samples {0, 1, 2} where device 0 samples {0, 1}: each
        // sits in a barrier the other never enters.
        let sched = skewed_boundary(2, 4);
        let Verdict::Deadlock(report) = model_check(&sched, &ModelConfig::decode()).unwrap() else {
            panic!("skewed group boundary must hang");
        };
        assert!(replay(&sched, true, &report.trace));
        assert!(
            report
                .blocked
                .iter()
                .any(|b| b.pass.kind == PassKind::S && b.reason.contains("never complete")),
            "{report:?}"
        );
    }

    #[test]
    fn mode_violation_and_structure_errors_are_distinct() {
        let sched = decode_pipeline(2, 2);
        let mut passes: Vec<Vec<ScheduledPass>> =
            (0..2).map(|d| sched.passes(d).to_vec()).collect();
        passes[1].push(ScheduledPass::new(PassKind::B, 0));
        let mutated = Schedule::new(sched.kind(), 2, 1, passes);
        assert!(matches!(
            model_check(&mutated, &ModelConfig::decode()),
            Err(ModelError::ModeViolation { device: 1, .. })
        ));

        let mut passes: Vec<Vec<ScheduledPass>> = (0..2)
            .map(|d| decode_pipeline(2, 2).passes(d).to_vec())
            .collect();
        let f = passes[0]
            .iter()
            .position(|p| p.kind == PassKind::F)
            .unwrap();
        passes[0].remove(f);
        let mutated = Schedule::new(sched.kind(), 2, 1, passes);
        assert!(matches!(
            model_check(&mutated, &ModelConfig::decode()),
            Err(ModelError::Structure(_))
        ));
    }
}
