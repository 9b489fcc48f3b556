//! An exhaustive execution model checker for the pass-VM's concurrency
//! semantics — the dynamic counterpart of the static happens-before
//! analyses, used to *differentially validate* them.
//!
//! The VM under test is the thread-per-stage runtime: every device walks
//! its pass list with a program counter; point-to-point sends never block
//! (the runtime's channels are unbounded and stash out-of-order tags);
//! receives block until the producing pass has completed; stream-offloaded
//! collective results block their *consumer* the same way; and — in
//! forward-only decode mode — the `S` pass's sampling barrier is a true
//! rendezvous executed inline on the device thread: the call arrives once
//! its receive is satisfied, then blocks until **every** device of the
//! world has arrived at its matching call ([`vp_schedule::deps::sync_collectives`]).
//!
//! [`model_check`] explores the reachable state space of this machine.
//! A state is the vector of per-device program counters plus an
//! inside-the-rendezvous flag; a transition is one device completing its
//! current pass (or arriving at its rendezvous). Exploration is DFS with
//! DPOR-style partial-order reduction: every transition of this VM is
//! *independent* of every other enabled transition — completions only
//! accumulate, unbounded channels mean no send can disable anything, and
//! rendezvous arrivals commute — so the persistent set at each state is a
//! single transition and the reduced exploration is linear in the number
//! of passes. The reduction itself is validated by
//! [`ModelConfig::full`], which explores *all* interleavings (feasible on
//! small configs) and must reach the same verdict; the unit tests do
//! exactly that cross-check.
//!
//! A deadlock verdict carries a replayable interleaving trace — the exact
//! sequence of transitions leading to the stuck state — plus a
//! description of what every blocked device is waiting for. [`replay`]
//! re-executes a trace step by step and confirms it is a real execution
//! of the machine.

use std::collections::HashSet;
use std::fmt;

use vp_schedule::deps::{build_deps, sync_collectives, DepError, DepGraph, SyncCollective};
use vp_schedule::pass::{Schedule, ScheduledPass};

/// Options for [`model_check`].
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Forward-only decode mode: `S` barriers are synchronous rendezvous
    /// (and backward-family passes are a mode violation). Mirrors
    /// [`crate::CheckConfig::forward_only`].
    pub forward_only: bool,
    /// Hard cap on distinct states explored; exceeding it is an error,
    /// not a verdict — the caller's budget assertion failed.
    pub max_states: usize,
    /// Explore every interleaving instead of the partial-order-reduced
    /// canonical one. Exponential; only for small configs (it exists to
    /// validate the reduction).
    pub full: bool,
}

impl Default for ModelConfig {
    fn default() -> ModelConfig {
        ModelConfig {
            forward_only: false,
            max_states: 1 << 20,
            full: false,
        }
    }
}

impl ModelConfig {
    /// Decode-mode configuration with the default state budget.
    pub fn decode() -> ModelConfig {
        ModelConfig {
            forward_only: true,
            ..ModelConfig::default()
        }
    }
}

/// What a transition did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// The device completed an ordinary pass and advanced.
    Complete,
    /// The device arrived at its rendezvous collective and is now blocked
    /// inside it.
    Arrive,
    /// The device was the *last* arriver: the rendezvous completes and
    /// every participant advances atomically.
    ArriveAndRelease,
}

/// One executed transition of an interleaving trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStep {
    /// The device that fired.
    pub device: usize,
    /// The slot it was at.
    pub slot: usize,
    /// The pass at that slot.
    pub pass: ScheduledPass,
    /// What happened.
    pub action: Action,
}

/// A blocked device in a deadlocked state and why it cannot proceed.
#[derive(Debug, Clone)]
pub struct Blocked {
    /// The stuck device.
    pub device: usize,
    /// The slot its program counter points at.
    pub slot: usize,
    /// The pass it cannot get past.
    pub pass: ScheduledPass,
    /// Human-readable description of the unmet wait.
    pub reason: String,
}

/// A deadlock found by exploration.
#[derive(Debug, Clone)]
pub struct DeadlockReport {
    /// Distinct states explored before the deadlock was reached.
    pub states: usize,
    /// The replayable interleaving: firing these transitions from the
    /// initial state reaches the stuck state.
    pub trace: Vec<TraceStep>,
    /// Every unfinished device and what it waits for.
    pub blocked: Vec<Blocked>,
}

/// The model checker's verdict on a schedule.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// Every explored interleaving runs to completion.
    Completes {
        /// Distinct states explored.
        states: usize,
        /// Transitions on the completing run.
        steps: usize,
    },
    /// Some interleaving blocks with work left.
    Deadlock(DeadlockReport),
}

impl Verdict {
    /// Whether the verdict is a deadlock.
    pub fn deadlocked(&self) -> bool {
        matches!(self, Verdict::Deadlock(_))
    }

    /// Distinct states explored.
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
    /// Exploration exceeded [`ModelConfig::max_states`].
    StateBudget {
        /// The configured cap.
        limit: usize,
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
            ModelError::StateBudget { limit } => {
                write!(
                    f,
                    "state budget exceeded: more than {limit} distinct states"
                )
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// The compiled machine: blocking requirements per (device, slot).
struct Vm {
    /// Per-device pass lists.
    passes: Vec<Vec<ScheduledPass>>,
    /// Blocking receives of each pass: `(producer device, producer slot)`
    /// pairs that must have completed before the pass can fire (for a
    /// rendezvous participant: before it can *arrive*).
    preds: Vec<Vec<Vec<(usize, usize)>>>,
    /// Rendezvous instance index of each slot, if the pass is a
    /// synchronous-collective participant.
    sync_of: Vec<Vec<Option<usize>>>,
    /// The synchronous collective instances.
    instances: Vec<SyncCollective>,
    /// World size: a rendezvous completes only when *all* devices arrive;
    /// an instance scheduled on fewer devices can never complete (the
    /// runtime's collective group spans the whole world).
    devices: usize,
}

/// VM state: one `(pc, inside-rendezvous)` pair per device, packed as
/// `pc * 2 + arrived` for hashing.
#[derive(Clone, PartialEq, Eq, Hash)]
struct State {
    packed: Vec<u32>,
}

impl State {
    fn pc(&self, d: usize) -> usize {
        (self.packed[d] / 2) as usize
    }

    fn arrived(&self, d: usize) -> bool {
        self.packed[d] % 2 == 1
    }

    fn advance(&mut self, d: usize) {
        self.packed[d] = (self.packed[d] / 2 + 1) * 2;
    }

    fn arrive(&mut self, d: usize) {
        self.packed[d] |= 1;
    }
}

impl Vm {
    fn build(schedule: &Schedule, deps: &DepGraph, forward_only: bool) -> Vm {
        let p = schedule.devices();
        let passes: Vec<Vec<ScheduledPass>> = (0..p).map(|d| schedule.passes(d).to_vec()).collect();
        let preds: Vec<Vec<Vec<(usize, usize)>>> = (0..p)
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
            (0..p).map(|d| vec![None; passes[d].len()]).collect();
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
            devices: p,
        }
    }

    fn initial(&self) -> State {
        State {
            packed: vec![0; self.devices],
        }
    }

    fn done(&self, s: &State) -> bool {
        (0..self.devices).all(|d| s.pc(d) >= self.passes[d].len())
    }

    fn preds_met(&self, s: &State, d: usize, slot: usize) -> bool {
        self.preds[d][slot].iter().all(|&(pd, pi)| s.pc(pd) > pi)
    }

    /// Devices with an enabled transition, ascending.
    fn enabled(&self, s: &State) -> Vec<usize> {
        (0..self.devices)
            .filter(|&d| {
                let slot = s.pc(d);
                slot < self.passes[d].len() && !s.arrived(d) && self.preds_met(s, d, slot)
            })
            .collect()
    }

    /// Fires device `d`'s transition, mutating `s`.
    fn apply(&self, s: &mut State, d: usize) -> TraceStep {
        let slot = s.pc(d);
        let pass = self.passes[d][slot];
        match self.sync_of[d][slot] {
            None => {
                s.advance(d);
                TraceStep {
                    device: d,
                    slot,
                    pass,
                    action: Action::Complete,
                }
            }
            Some(idx) => {
                s.arrive(d);
                let inst = &self.instances[idx];
                let complete = inst.sites.len() == self.devices
                    && inst
                        .sites
                        .iter()
                        .all(|&(pd, pslot)| s.pc(pd) == pslot && s.arrived(pd));
                if complete {
                    for &(pd, _) in &inst.sites {
                        s.advance(pd);
                    }
                    TraceStep {
                        device: d,
                        slot,
                        pass,
                        action: Action::ArriveAndRelease,
                    }
                } else {
                    TraceStep {
                        device: d,
                        slot,
                        pass,
                        action: Action::Arrive,
                    }
                }
            }
        }
    }

    /// Describes why each unfinished device in a quiescent state is stuck.
    fn blocked(&self, s: &State) -> Vec<Blocked> {
        let mut out = Vec::new();
        for d in 0..self.devices {
            let slot = s.pc(d);
            if slot >= self.passes[d].len() {
                continue;
            }
            let pass = self.passes[d][slot];
            let reason = if s.arrived(d) {
                let idx = self.sync_of[d][slot].expect("arrived implies rendezvous");
                let inst = &self.instances[idx];
                if inst.sites.len() < self.devices {
                    let scheduled: Vec<usize> = inst.sites.iter().map(|&(pd, _)| pd).collect();
                    format!(
                        "inside the {} of mb {} that can never complete: only devices \
                         {scheduled:?} of {} schedule the call",
                        inst.class, inst.microbatch, self.devices
                    )
                } else {
                    let missing: Vec<usize> = inst
                        .sites
                        .iter()
                        .filter(|&&(pd, pslot)| !(s.pc(pd) == pslot && s.arrived(pd)))
                        .map(|&(pd, _)| pd)
                        .collect();
                    format!(
                        "inside the {} of mb {}, waiting for device(s) {missing:?} to arrive",
                        inst.class, inst.microbatch
                    )
                }
            } else {
                let unmet: Vec<String> = self.preds[d][slot]
                    .iter()
                    .filter(|&&(pd, pi)| s.pc(pd) <= pi)
                    .map(|&(pd, pi)| format!("{} [device {pd}, slot {pi}]", self.passes[pd][pi]))
                    .collect();
                format!("receive not satisfied: waiting on {}", unmet.join(", "))
            };
            out.push(Blocked {
                device: d,
                slot,
                pass,
                reason,
            });
        }
        out
    }
}

/// Exhaustively explores a schedule's executions under the pass-VM's
/// concurrency semantics.
///
/// Returns [`Verdict::Completes`] if every explored interleaving finishes,
/// or [`Verdict::Deadlock`] with a replayable trace to the first stuck
/// state found.
///
/// # Errors
///
/// [`ModelError::Structure`] if the dependency graph cannot be built
/// (`VP0002`/`VP0003` territory), [`ModelError::ModeViolation`] for a
/// backward-family pass under `forward_only` (`VP0016`), and
/// [`ModelError::StateBudget`] if exploration exceeds the configured cap.
pub fn model_check(schedule: &Schedule, config: &ModelConfig) -> Result<Verdict, ModelError> {
    if config.forward_only {
        for (d, _, pass) in schedule.iter_all() {
            if !pass.kind.decode_safe() {
                return Err(ModelError::ModeViolation {
                    device: d,
                    pass: *pass,
                });
            }
        }
    }
    let deps = build_deps(schedule).map_err(ModelError::Structure)?;
    let vm = Vm::build(schedule, &deps, config.forward_only);

    struct Frame {
        state: State,
        enabled: Vec<usize>,
        next: usize,
        step: Option<TraceStep>,
    }

    let init = vm.initial();
    let mut visited: HashSet<State> = HashSet::new();
    visited.insert(init.clone());
    let mut completed_steps: Option<usize> = None;
    let mut stack = vec![Frame {
        enabled: vm.enabled(&init),
        state: init,
        next: 0,
        step: None,
    }];
    while let Some(top) = stack.last_mut() {
        if vm.done(&top.state) {
            let steps = stack.len() - 1;
            completed_steps.get_or_insert(steps);
            stack.pop();
            continue;
        }
        if top.enabled.is_empty() {
            // Quiescent with work left: deadlock. The DFS path is the
            // replayable interleaving.
            let blocked = vm.blocked(&top.state);
            let trace: Vec<TraceStep> = stack.iter().filter_map(|f| f.step).collect();
            return Ok(Verdict::Deadlock(DeadlockReport {
                states: visited.len(),
                trace,
                blocked,
            }));
        }
        // DPOR-style persistent set: all enabled transitions of this VM
        // commute and none can disable another (monotone completions,
        // non-blocking sends, commuting arrivals), so the singleton
        // lowest-device set is persistent and exploring it alone is
        // sound. `full` ignores the reduction to validate it.
        let fanout = if config.full { top.enabled.len() } else { 1 };
        if top.next >= fanout {
            stack.pop();
            continue;
        }
        let d = top.enabled[top.next];
        top.next += 1;
        let mut state = top.state.clone();
        let step = vm.apply(&mut state, d);
        if visited.contains(&state) {
            continue;
        }
        visited.insert(state.clone());
        if visited.len() > config.max_states {
            return Err(ModelError::StateBudget {
                limit: config.max_states,
            });
        }
        stack.push(Frame {
            enabled: vm.enabled(&state),
            state,
            next: 0,
            step: Some(step),
        });
    }
    Ok(Verdict::Completes {
        states: visited.len(),
        steps: completed_steps.unwrap_or(0),
    })
}

/// Re-executes a trace step by step, checking that every transition was
/// enabled when fired and produced the recorded action. Returns `true` if
/// the trace replays to a quiescent (deadlocked) state with work left —
/// i.e. it is a genuine counterexample execution.
///
/// # Errors
///
/// Same preconditions as [`model_check`].
pub fn replay(
    schedule: &Schedule,
    config: &ModelConfig,
    trace: &[TraceStep],
) -> Result<bool, ModelError> {
    let deps = build_deps(schedule).map_err(ModelError::Structure)?;
    let vm = Vm::build(schedule, &deps, config.forward_only);
    let mut state = vm.initial();
    for step in trace {
        if !vm.enabled(&state).contains(&step.device) {
            return Ok(false);
        }
        let fired = vm.apply(&mut state, step.device);
        if fired != *step {
            return Ok(false);
        }
    }
    Ok(vm.enabled(&state).is_empty() && !vm.done(&state))
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
    use vp_schedule::block::PassTimes;
    use vp_schedule::generators::{
        decode_pipeline, decode_pipeline_grouped, decode_pipeline_natural, decode_pipeline_overlap,
        decode_pipeline_overlap_missplit, one_f_one_b, vocab_1f1b,
    };
    use vp_schedule::pass::{PassKind, VocabVariant};

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
            // Reduced exploration is linear: one state per transition
            // plus the initial state.
            assert!(verdict.states() <= 2 * sched.total_passes() + 1);
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
        let cfg = ModelConfig::decode();
        let sched = decode_pipeline_overlap_missplit(2, 2);
        let verdict = model_check(&sched, &cfg).unwrap();
        let Verdict::Deadlock(report) = verdict else {
            panic!("mis-split overlap must deadlock: {verdict:?}");
        };
        assert!(replay(&sched, &cfg, &report.trace).unwrap());
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
        let cfg = ModelConfig::decode();
        let sched = decode_pipeline_natural(2, 2);
        let verdict = model_check(&sched, &cfg).unwrap();
        let Verdict::Deadlock(report) = verdict else {
            panic!("un-hoisted decode must deadlock: {verdict:?}");
        };
        // The trace replays to the same stuck state.
        assert!(replay(&sched, &cfg, &report.trace).unwrap());
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
        let cfg = ModelConfig {
            forward_only: false,
            ..ModelConfig::default()
        };
        assert!(!model_check(&sched, &cfg).unwrap().deadlocked());
    }

    #[test]
    fn full_exploration_agrees_with_the_reduction() {
        // The POR soundness cross-check: on configs small enough to
        // enumerate every interleaving, the full and reduced explorations
        // must reach the same verdict.
        for (sched, forward_only) in [
            (decode_pipeline(2, 2), true),
            (decode_pipeline(2, 3), true),
            (decode_pipeline(3, 2), true),
            (decode_pipeline_grouped(2, 2, 1, false), true),
            (decode_pipeline_grouped(2, 3, 1, false), true),
            (decode_pipeline_grouped(3, 2, 1, false), true),
            (decode_pipeline_grouped(2, 3, 2, false), true),
            (skewed_boundary(2, 4), true),
            (decode_pipeline_natural(2, 2), true),
            (decode_pipeline_natural(2, 3), true),
            (decode_pipeline_natural(3, 2), true),
            (decode_pipeline_overlap(2, 2), true),
            (decode_pipeline_overlap(3, 2), true),
            (decode_pipeline_grouped(2, 2, 1, true), true),
            (decode_pipeline_grouped(3, 2, 1, true), true),
            (decode_pipeline_overlap_missplit(2, 2), true),
            (decode_pipeline_overlap_missplit(2, 3), true),
            (one_f_one_b(2, 2, PassTimes::default()), false),
            (
                vocab_1f1b(2, 2, VocabVariant::Alg2, PassTimes::default(), false),
                false,
            ),
        ] {
            let reduced = ModelConfig {
                forward_only,
                ..ModelConfig::default()
            };
            let full = ModelConfig {
                forward_only,
                full: true,
                max_states: 1 << 22,
            };
            let rv = model_check(&sched, &reduced).unwrap();
            let fv = model_check(&sched, &full).unwrap();
            assert_eq!(
                rv.deadlocked(),
                fv.deadlocked(),
                "reduced and full disagree: {rv:?} vs {fv:?}"
            );
            assert!(fv.states() >= rv.states());
        }
    }

    #[test]
    fn dropped_rendezvous_participant_blocks_forever() {
        // Remove device 0's S of mb 1: the world-sized all-gather can
        // never complete, so every arriver hangs — the model sees what
        // VP0005 predicts statically.
        let sched = decode_pipeline_grouped(2, 4, 1, false);
        let mut passes: Vec<Vec<ScheduledPass>> =
            (0..2).map(|d| sched.passes(d).to_vec()).collect();
        let s = passes[0]
            .iter()
            .position(|p| p.kind == PassKind::S && p.microbatch == 1)
            .unwrap();
        passes[0].remove(s);
        let mutated = vp_schedule::pass::Schedule::new(sched.kind(), 4, 1, passes);
        let verdict = model_check(&mutated, &ModelConfig::decode()).unwrap();
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
        let cfg = ModelConfig::decode();
        let sched = skewed_boundary(2, 4);
        let Verdict::Deadlock(report) = model_check(&sched, &cfg).unwrap() else {
            panic!("skewed group boundary must hang");
        };
        assert!(replay(&sched, &cfg, &report.trace).unwrap());
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
        let mutated = vp_schedule::pass::Schedule::new(sched.kind(), 2, 1, passes);
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
        let mutated = vp_schedule::pass::Schedule::new(sched.kind(), 2, 1, passes);
        assert!(matches!(
            model_check(&mutated, &ModelConfig::decode()),
            Err(ModelError::Structure(_))
        ));
    }

    #[test]
    fn state_budget_is_enforced() {
        let sched = vocab_1f1b(4, 8, VocabVariant::Alg2, PassTimes::default(), true);
        let cfg = ModelConfig {
            max_states: 10,
            ..ModelConfig::default()
        };
        assert!(matches!(
            model_check(&sched, &cfg),
            Err(ModelError::StateBudget { limit: 10 })
        ));
    }
}
