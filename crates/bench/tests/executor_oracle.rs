//! The executor is `vp-check`'s hang oracle: one run of
//! `Executor::run_with_graph` under unit costs decides whether a schedule
//! hangs (DESIGN §7.1), because every transition of its pass-VM commutes
//! with every other enabled one. This suite holds that claim against an
//! exploration of *every* interleaving of the same VM, on the small end of
//! the `repro check` sweep grid, seeded mutants of it and the hazard
//! fixtures. For every case whose dependency graph is well-defined:
//!
//! * `check_with` reports `VP0001` or `VP0017` exactly when some
//!   interleaving gets stuck;
//! * the executor's blocked set is the exploration's stuck state;
//! * the executor's trace replays on the exploration's VM, step for step.

#[path = "../../check/tests/common/mod.rs"]
mod common;

use std::collections::HashSet;

use common::{device_passes, rebuild, Lcg};
use vp_bench::check::{sweep_cases, SweepCase};
use vp_check::{check_with, CheckConfig, Code};
use vp_schedule::block::PassTimes;
use vp_schedule::deps::{build_deps, sync_collectives, EdgeKind, SyncCollective};
use vp_schedule::exec::{Action, Costs, Executor, Stuck, TraceStep, UnitCosts};
use vp_schedule::fixtures::{decode_pipeline_natural, decode_pipeline_overlap_missplit};
use vp_schedule::generators::decode_pipeline_grouped;
use vp_schedule::pass::{PassKind, Schedule, ScheduledPass};

/// The exploration never needs more states than this on the corpus; a
/// case that does fails rather than being skipped.
const STATE_BUDGET: usize = 100_000;

/// The pass-VM, explored over every interleaving. A state is one
/// `(pc, inside a rendezvous)` pair per device; a transition is one device
/// completing its current pass or arriving at its rendezvous.
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
        let passes = device_passes(schedule);
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
        assert!(
            visited.len() <= STATE_BUDGET,
            "exploration exceeds {STATE_BUDGET} states"
        );
    }
    (visited.len(), None)
}

/// Whether `trace` fires on the VM step for step as recorded and leaves it
/// stuck with work left: a genuine counterexample execution.
fn replay(schedule: &Schedule, forward_only: bool, trace: &[TraceStep]) -> bool {
    let vm = Vm::build(schedule, forward_only);
    let mut state = vm.initial();
    for step in trace {
        if !vm.enabled(&state).contains(&step.device) || vm.apply(&mut state, step.device) != *step
        {
            return false;
        }
    }
    vm.enabled(&state).is_empty() && !vm.unfinished(&state).is_empty()
}

/// The executor's verdict: `Err` with the blocked devices when stuck.
fn execute(schedule: &Schedule, forward_only: bool) -> Result<(), Stuck> {
    let deps = build_deps(schedule).unwrap();
    let sync = sync_collectives(schedule, forward_only);
    let costs = UnitCosts::new(PassTimes::default(), schedule.chunks());
    Executor::new(&costs)
        .run_with_graph(schedule, &deps, &sync)
        .map(|_| ())
}

/// Holds the executor, `check_with` and the exploration to one verdict
/// on `schedule`. Returns `None` when the dependency graph is ill-defined
/// (structure diagnostics; nothing runs), else whether it hangs and the
/// states explored.
fn oracle_agrees(name: &str, schedule: &Schedule, config: &CheckConfig) -> Option<(bool, usize)> {
    build_deps(schedule).ok()?;
    let forward_only = config.forward_only;
    let report = check_with(schedule, config);
    let (states, stuck) = explore_all(schedule, forward_only);
    let run = execute(schedule, forward_only);
    let blocked = run.as_ref().err().map(|stuck| {
        stuck
            .blocked
            .iter()
            .map(|b| (b.device, b.slot, b.rendezvous.is_some()))
            .collect::<Unfinished>()
    });
    assert_eq!(
        blocked, stuck,
        "{name}: one run and every interleaving disagree"
    );
    let hang = report.has(Code::Deadlock) || report.has(Code::RendezvousDeadlock);
    assert_eq!(
        hang,
        stuck.is_some(),
        "{name}: check_with reports {:?}, every interleaving stuck: {:?}",
        report.codes(),
        stuck
    );
    if let Err(stuck) = run {
        assert!(
            replay(schedule, forward_only, &stuck.trace),
            "{name}: the executor's trace does not replay"
        );
    }
    Some((hang, states))
}

/// A seed-driven mutation operator: a mutated schedule, or `None` when
/// the schedule has no applicable site.
type Operator = fn(&Schedule, &mut Lcg) -> Option<Schedule>;

const OPERATORS: [(&str, Operator); 7] = [
    ("swap-adjacent", mutate_swap_adjacent),
    ("drop-pass", mutate_drop_pass),
    ("dup-pass", mutate_dup_pass),
    ("unhoist-inputf", mutate_unhoist_inputf),
    ("insert-backward", mutate_insert_backward),
    ("missplit-overlap", mutate_missplit_overlap),
    ("skew-boundary", mutate_skew_boundary),
];

/// A random device with at least `min` passes, if any.
fn pick_device(passes: &[Vec<ScheduledPass>], min: usize, rng: &mut Lcg) -> Option<usize> {
    let candidates: Vec<usize> = (0..passes.len())
        .filter(|&d| passes[d].len() >= min)
        .collect();
    (!candidates.is_empty()).then(|| candidates[rng.below(candidates.len())])
}

/// Swaps two adjacent passes on a random device: order skews, cycles, or
/// (often) a still-valid schedule.
fn mutate_swap_adjacent(schedule: &Schedule, rng: &mut Lcg) -> Option<Schedule> {
    let mut passes = device_passes(schedule);
    let d = pick_device(&passes, 2, rng)?;
    let i = rng.below(passes[d].len() - 1);
    passes[d].swap(i, i + 1);
    Some(rebuild(schedule, passes))
}

/// Removes one random pass: a missing pass, a coverage hole, or (for a
/// decode `S`) a rendezvous that can never complete.
fn mutate_drop_pass(schedule: &Schedule, rng: &mut Lcg) -> Option<Schedule> {
    let mut passes = device_passes(schedule);
    let d = pick_device(&passes, 1, rng)?;
    let i = rng.below(passes[d].len());
    passes[d].remove(i);
    Some(rebuild(schedule, passes))
}

/// Duplicates one random pass in place (`VP0003`: nothing runs).
fn mutate_dup_pass(schedule: &Schedule, rng: &mut Lcg) -> Option<Schedule> {
    let mut passes = device_passes(schedule);
    let d = pick_device(&passes, 1, rng)?;
    let i = rng.below(passes[d].len());
    let dup = passes[d][i];
    passes[d].insert(i + 1, dup);
    Some(rebuild(schedule, passes))
}

/// Moves one sender device's hoisted `InputF` back to its natural position,
/// right after an `S` rendezvous and before the device's own `F` of the
/// same slot: the serving deadlock the hoist fixed. Only lists with an `S` between
/// forwards (the per-slot `g = 1` bases) have a site.
fn mutate_unhoist_inputf(schedule: &Schedule, rng: &mut Lcg) -> Option<Schedule> {
    let mut passes = device_passes(schedule);
    let mut sites: Vec<(usize, usize, usize)> = Vec::new();
    for (d, list) in passes.iter().enumerate().skip(1) {
        for i in 1..list.len() {
            if list[i].kind != PassKind::F || list[i - 1].kind != PassKind::S {
                continue;
            }
            let Some(j) = list.iter().position(|pass| {
                pass.kind == PassKind::InputF && pass.microbatch == list[i].microbatch
            }) else {
                continue;
            };
            if j < i - 1 {
                sites.push((d, i, j));
            }
        }
    }
    if sites.is_empty() {
        return None;
    }
    let (d, i, j) = sites[rng.below(sites.len())];
    let row = passes[d].remove(j);
    passes[d].insert(i - 1, row);
    Some(rebuild(schedule, passes))
}

/// Replaces an overlapped decode schedule that defers one merge per slot
/// with the inconsistent S/T split of `decode_pipeline_overlap_missplit`,
/// at a seeded lag of two or three forwards.
fn mutate_missplit_overlap(schedule: &Schedule, rng: &mut Lcg) -> Option<Schedule> {
    let p = schedule.devices();
    let m = schedule.num_microbatches();
    let merge_per_slot = (0..p).all(|d| schedule.count_kind(d, PassKind::T) == m as usize);
    let decode_only = schedule
        .iter_all()
        .all(|(_, _, pass)| pass.kind.decode_safe());
    if !merge_per_slot || !decode_only || p < 2 {
        return None;
    }
    let lag = 2 + rng.below(2) as u32;
    Some(decode_pipeline_overlap_missplit(p, m, lag))
}

/// Moves one group boundary of one device a slot later (`S(k)` becomes
/// `S(k + 1)`): the device samples every slot, in groups no peer has.
/// Applies to inline-merging decode lists with room behind a boundary.
fn mutate_skew_boundary(schedule: &Schedule, rng: &mut Lcg) -> Option<Schedule> {
    let mut passes = device_passes(schedule);
    let inline_decode = passes
        .iter()
        .flatten()
        .all(|pass| pass.kind.decode_safe() && pass.kind != PassKind::T);
    if !inline_decode {
        return None;
    }
    let mut sites: Vec<(usize, usize)> = Vec::new();
    for (d, list) in passes.iter().enumerate() {
        let ends: Vec<usize> = (0..list.len())
            .filter(|&i| list[i].kind == PassKind::S)
            .collect();
        for w in ends.windows(2) {
            if list[w[0]].microbatch + 1 < list[w[1]].microbatch {
                sites.push((d, w[0]));
            }
        }
    }
    if sites.is_empty() {
        return None;
    }
    let (d, i) = sites[rng.below(sites.len())];
    passes[d][i].microbatch += 1;
    Some(rebuild(schedule, passes))
}

/// Appends a backward pass to a random device: a mode violation in decode
/// (`VP0016`), a structure error or a harmless extra in training.
fn mutate_insert_backward(schedule: &Schedule, rng: &mut Lcg) -> Option<Schedule> {
    let mut passes = device_passes(schedule);
    let d = rng.below(passes.len());
    let mb = rng.next() as u32 % schedule.num_microbatches();
    passes[d].push(ScheduledPass::new(PassKind::B, mb));
    Some(rebuild(schedule, passes))
}

/// Seeds per (operator, base): heavier on the decode family, whose
/// rendezvous semantics are under test.
const DECODE_SEEDS: u64 = 4;
const TRAINING_SEEDS: u64 = 1;

/// The small end of the sweep grid: `p ≤ 4` and `m, b ≤ 4`.
fn corpus() -> Vec<SweepCase> {
    sweep_cases()
        .into_iter()
        .filter(|c| c.schedule.devices() <= 4 && c.schedule.num_microbatches() <= 4)
        .collect()
}

#[test]
fn one_executor_run_decides_every_interleaving_on_the_grid_and_its_mutants() {
    let bases = corpus();
    let mut max_states = 0;
    for case in &bases {
        let (hang, states) = oracle_agrees(&case.name, &case.schedule, &case.config)
            .unwrap_or_else(|| panic!("{}: grid case is structurally broken", case.name));
        assert!(!hang, "{}: grid case hangs", case.name);
        max_states = max_states.max(states);
    }
    let (mut mutants, mut hangs) = (0, 0);
    let mut hangs_by_op = [0usize; OPERATORS.len()];
    let mut seed = 0u64;
    for case in &bases {
        let seeds = if case.config.forward_only {
            DECODE_SEEDS
        } else {
            TRAINING_SEEDS
        };
        for (op, (op_name, mutate)) in OPERATORS.iter().enumerate() {
            for s in 0..seeds {
                seed += 1;
                let mut rng = Lcg::new(seed.wrapping_mul(1000) + s);
                let Some(mutated) = mutate(&case.schedule, &mut rng) else {
                    continue;
                };
                let name = format!("{op_name} seed={seed} of {}", case.name);
                let Some((hang, states)) = oracle_agrees(&name, &mutated, &case.config) else {
                    continue;
                };
                mutants += 1;
                hangs += usize::from(hang);
                hangs_by_op[op] += usize::from(hang);
                max_states = max_states.max(states);
            }
        }
    }
    eprintln!(
        "{} bases, {mutants} mutants reach the executor, {hangs} hang, by operator {:?}, \
         at most {max_states} states",
        bases.len(),
        OPERATORS
            .iter()
            .map(|(name, _)| *name)
            .zip(hangs_by_op)
            .collect::<Vec<_>>()
    );
    assert_eq!(bases.len(), 88);
    assert!(mutants >= 240, "mutant corpus too small: {mutants}");
    // Every operator that hangs schedules hangs as many as when these
    // floors were set.
    for (op, floor) in [
        ("swap-adjacent", 46),
        ("drop-pass", 16),
        ("unhoist-inputf", 42),
        ("missplit-overlap", 16),
        ("skew-boundary", 8),
    ] {
        let i = OPERATORS.iter().position(|(name, _)| *name == op).unwrap();
        assert!(hangs_by_op[i] >= floor, "{op}: {} hangs", hangs_by_op[i]);
    }
}

/// `decode_pipeline_grouped(p, m, g, false)` with `device`'s `S` of `mb`
/// edited by `edit`.
fn edited_s(
    (p, m, g): (usize, u32, u32),
    device: usize,
    mb: u32,
    edit: fn(&mut Vec<ScheduledPass>, usize),
) -> Schedule {
    let sched = decode_pipeline_grouped(p, m, g, false);
    let mut passes = device_passes(&sched);
    let s = passes[device]
        .iter()
        .position(|x| x.kind == PassKind::S && x.microbatch == mb)
        .unwrap();
    edit(&mut passes[device], s);
    rebuild(&sched, passes)
}

#[test]
fn the_hazard_fixtures_hang_exactly_as_every_interleaving_does() {
    let decode = CheckConfig {
        forward_only: true,
        ..CheckConfig::default()
    };
    let dropped = edited_s((2, 4, 1), 0, 1, |list, s| {
        list.remove(s);
    });
    let skewed = edited_s((2, 4, 2), 1, 1, |list, s| list[s].microbatch = 2);
    for (name, sched, hangs) in [
        ("natural p=2 m=2", decode_pipeline_natural(2, 2), true),
        ("natural p=2 m=3", decode_pipeline_natural(2, 3), true),
        ("natural p=3 m=2", decode_pipeline_natural(3, 2), true),
        (
            "missplit p=2 m=2",
            decode_pipeline_overlap_missplit(2, 2, 2),
            true,
        ),
        (
            "missplit p=2 m=3",
            decode_pipeline_overlap_missplit(2, 3, 2),
            true,
        ),
        (
            "missplit p=3 m=4",
            decode_pipeline_overlap_missplit(3, 4, 3),
            true,
        ),
        ("dropped participant", dropped.clone(), true),
        ("skewed boundary", skewed.clone(), true),
        (
            "grouped p=3 m=2",
            decode_pipeline_grouped(3, 2, 1, false),
            false,
        ),
        (
            "overlap p=3 m=2",
            decode_pipeline_grouped(3, 2, 1, true),
            false,
        ),
    ] {
        let verdict = oracle_agrees(name, &sched, &decode).map(|(hang, _)| hang);
        assert_eq!(verdict, Some(hangs), "{name}");
    }

    // The un-hoisted layout: device 1 sits inside the C1 barrier while the
    // row device 0's forward waits on is still unsent behind it.
    let sched = decode_pipeline_natural(2, 2);
    let stuck = execute(&sched, true).unwrap_err();
    assert!(
        stuck
            .blocked
            .iter()
            .any(|b| b.pass.kind == PassKind::S && b.reason.contains("C1")),
        "{stuck:?}"
    );
    let unsent = (1, 3);
    assert_eq!(sched.passes(1)[3].kind, PassKind::InputF);
    assert!(
        stuck.blocked.iter().any(|b| b.unmet.contains(&unsent)),
        "{stuck:?}"
    );
    // Without rendezvous semantics the same layout completes: the false
    // clean of the asymmetric model.
    assert!(execute(&sched, false).is_ok());

    // The mis-split overlap: device 0 waits at its deferred merge for
    // device 1's S(0), which sits behind device 1's F(1), itself waiting
    // on the activation device 0 never sends.
    let stuck = execute(&decode_pipeline_overlap_missplit(2, 2, 2), true).unwrap_err();
    for (device, kind) in [(0, PassKind::T), (1, PassKind::F)] {
        assert!(
            stuck
                .blocked
                .iter()
                .any(|b| b.device == device && b.pass.kind == kind && !b.unmet.is_empty()),
            "{stuck:?}"
        );
    }

    // A rendezvous short of the world never completes.
    for sched in [dropped, skewed] {
        let stuck = execute(&sched, true).unwrap_err();
        assert!(
            stuck
                .blocked
                .iter()
                .any(|b| b.pass.kind == PassKind::S && b.reason.contains("never complete")),
            "{stuck:?}"
        );
    }
}

/// Unit pass costs except on device 0, whose passes take three units: its
/// peers reach some sampling barriers before it does.
struct SlowDevice0;

impl Costs for SlowDevice0 {
    fn pass_seconds(&self, device: usize, _pass: &ScheduledPass) -> f64 {
        if device == 0 {
            3.0
        } else {
            1.0
        }
    }

    fn edge_seconds(&self, _kind: EdgeKind, _from: usize, _to: usize) -> f64 {
        0.1
    }

    fn activation_units(&self, _device: usize, _chunk: u8) -> f64 {
        1.0
    }

    fn vocab_buffer_units(&self, _device: usize) -> f64 {
        0.0
    }
}

#[test]
fn the_executor_runs_every_decode_sweep_case_with_shared_barrier_starts() {
    let mut instances = 0;
    for case in sweep_cases().iter().filter(|c| c.config.forward_only) {
        let deps = build_deps(&case.schedule).unwrap();
        let sync = sync_collectives(&case.schedule, true);
        let report = Executor::new(&SlowDevice0)
            .run_with_graph(&case.schedule, &deps, &sync)
            .unwrap_or_else(|stuck| panic!("{}: {stuck:?}", case.name));
        // The common start is the latest arrival: no device starts a pass
        // before its previous one ends.
        for (start, end) in report.start.iter().zip(&report.end) {
            assert!(
                start.iter().skip(1).zip(end).all(|(s, e)| s >= e),
                "{}",
                case.name
            );
        }
        for inst in &sync {
            assert_eq!(inst.sites.len(), case.schedule.devices(), "{}", case.name);
            let (d0, slot0) = inst.sites[0];
            assert!(
                inst.sites
                    .iter()
                    .all(|&(d, slot)| report.start[d][slot] == report.start[d0][slot0]),
                "{}: {inst:?}",
                case.name
            );
            instances += 1;
        }
    }
    assert!(instances > 0);
}
