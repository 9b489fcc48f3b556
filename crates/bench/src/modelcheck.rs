//! `repro modelcheck` — differential validation of the static analyses
//! against execution under the runtime's blocking semantics
//! (`vp_check::model`).
//!
//! Two oracles look at every schedule:
//!
//! * the **static** side runs the full `vp-check` analysis and predicts
//!   "this schedule hangs" iff a hang-class diagnostic fires — `VP0001`
//!   (happens-before cycle), `VP0017` (rendezvous deadlock), or a
//!   `VP0005`/`VP0006` (missing participant / issue-order skew) whose
//!   collective is a true rendezvous, i.e. the decode sampling barrier
//!   (see `is_hang_prediction` for why the asynchronous cases are
//!   backend hazards outside the VM's semantics);
//! * the **dynamic** side runs the schedule on the `vp-schedule` executor
//!   with the decode barriers as rendezvous and reports whether it gets
//!   stuck — which, since every transition commutes, is whether any
//!   interleaving deadlocks.
//!
//! The two must agree on every input: a *false clean* (static says fine,
//! model deadlocks) is a soundness hole of the kind that shipped the PR-8
//! serving deadlock; a *false deadlock* (static rejects, model completes)
//! is an over-approximation that would block valid schedules. The corpus
//! is the entire `repro check` sweep grid plus seeded mutants of the
//! grid's schedules, so the analyzer is exercised on broken inputs — not
//! just the clean families it was tuned on. Schedules whose structure is
//! already ill-formed (`VP0002`/`VP0003` missing/duplicate passes) or that
//! violate decode mode (`VP0016`) are rejected by both sides before
//! either semantics applies; they are counted as `static_rejected` and
//! the harness asserts the model refuses them too.
//!
//! Disagreements are rendered with the executor's fired transitions so a
//! soundness bug arrives as a concrete execution, not a boolean. `ci.sh`
//! gates on zero disagreements and a minimum mutant count.

use std::collections::HashSet;

use vp_check::diag::{Code, Diagnostic};
use vp_check::model::{model_check, render_trace, ModelConfig, ModelError, Verdict};
use vp_check::{check_with, CheckConfig};
use vp_schedule::deps::sync_collectives;
use vp_schedule::fixtures::decode_pipeline_overlap_missplit;
use vp_schedule::pass::{PassKind, Schedule, ScheduledPass};

use crate::check::{sweep_cases, SweepCase};
use crate::table::json_escape;

/// Whether a diagnostic predicts that *this VM* blocks forever.
///
/// `VP0001` (happens-before cycle) and `VP0017` (rendezvous deadlock) are
/// hang predictions outright. `VP0005` (missing participant) and `VP0006`
/// (issue-order skew) hang a real collective *backend* — an in-order
/// stream or a fixed-world group — but the pass-VM's channels stash and
/// never block on order or membership, so they only predict a VM hang
/// when a site they name is a rendezvous call: one of the
/// `(device, slot)` sites of `sync_collectives`, the decode sampling
/// barriers that merge inline. Everything else (training barriers, the
/// stream-offloaded `S` of the overlapped decode family) is a deliberate
/// over-approximation of backend behavior the model cannot exhibit
/// ([`Outcome::OutOfModel`]).
fn is_hang_prediction(d: &Diagnostic, rendezvous: &HashSet<(usize, usize)>) -> bool {
    match d.code {
        Code::Deadlock | Code::RendezvousDeadlock => true,
        Code::MissingParticipant | Code::CollectiveOrder => d
            .primary
            .iter()
            .chain(d.related.iter().map(|(site, _)| site))
            .any(|site| rendezvous.contains(&(site.device, site.slot))),
        _ => false,
    }
}

/// How one differential case resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Both oracles say the schedule completes.
    AgreeClean,
    /// Both oracles say the schedule hangs.
    AgreeDeadlock,
    /// The static analyzer rejected the schedule before deadlock
    /// semantics applied (structure or mode defect) and the model
    /// refused it for the same reason.
    StaticRejected,
    /// The static analyzer flagged a collective-backend hazard
    /// (`VP0005`/`VP0006` on asynchronous collectives) that the
    /// channel-based VM cannot exhibit; the VM completes, as expected.
    /// Still a killed mutant, but excluded from the deadlock comparison.
    OutOfModel,
    /// The oracles disagree — a soundness bug in one of them.
    Disagree,
}

/// One differential verdict.
pub struct ModelCase {
    /// Case id, e.g. `decode-pipeline p=2 b=4` or
    /// `mutant/unhoist-inputf seed=17 of decode-pipeline p=2 b=4`.
    pub name: String,
    /// Whether the case is a seeded mutant (vs a pristine grid schedule).
    pub mutant: bool,
    /// How it resolved.
    pub outcome: Outcome,
    /// Hang-class codes the static side reported.
    pub static_codes: Vec<&'static str>,
    /// Whether the model found a deadlock (`None` when the model refused
    /// the input as structurally broken / mode-violating).
    pub model_deadlock: Option<bool>,
    /// States the model visited: one per transition plus the initial one
    /// (0 when refused).
    pub states: usize,
    /// For disagreements: the fired transitions (or the model's completion
    /// note) proving the dynamic verdict.
    pub evidence: String,
}

fn static_hang_codes(
    report: &vp_check::CheckReport,
    rendezvous: &HashSet<(usize, usize)>,
) -> Vec<&'static str> {
    let mut codes: Vec<&'static str> = report
        .diagnostics
        .iter()
        .filter(|d| is_hang_prediction(d, rendezvous))
        .map(|d| d.code.as_str())
        .collect();
    codes.sort_unstable();
    codes.dedup();
    codes
}

fn out_of_model_codes(
    report: &vp_check::CheckReport,
    rendezvous: &HashSet<(usize, usize)>,
) -> Vec<&'static str> {
    let mut codes: Vec<&'static str> = report
        .diagnostics
        .iter()
        .filter(|d| {
            matches!(d.code, Code::MissingParticipant | Code::CollectiveOrder)
                && !is_hang_prediction(d, rendezvous)
        })
        .map(|d| d.code.as_str())
        .collect();
    codes.sort_unstable();
    codes.dedup();
    codes
}

fn static_rejects(report: &vp_check::CheckReport) -> bool {
    report.diagnostics.iter().any(|d| {
        matches!(
            d.code,
            Code::MissingPass | Code::DuplicatePass | Code::BackwardInDecode
        )
    })
}

/// Runs one schedule through both oracles.
fn differential(
    name: String,
    mutant: bool,
    schedule: &Schedule,
    config: &CheckConfig,
) -> ModelCase {
    let report = check_with(schedule, config);
    let rendezvous: HashSet<(usize, usize)> = sync_collectives(schedule, config.forward_only)
        .into_iter()
        .flat_map(|inst| inst.sites)
        .collect();
    let static_codes = static_hang_codes(&report, &rendezvous);
    let model_cfg = ModelConfig {
        forward_only: config.forward_only,
    };
    let model = model_check(schedule, &model_cfg);
    if static_rejects(&report) {
        // Structure/mode defects precede deadlock semantics on both
        // sides; the model must refuse such inputs rather than run them.
        let (outcome, evidence) = match model {
            Err(ModelError::Structure(_) | ModelError::ModeViolation { .. }) => {
                (Outcome::StaticRejected, String::new())
            }
            ref other => (
                Outcome::Disagree,
                format!("static analyzer rejected the schedule but the model ran it: {other:?}"),
            ),
        };
        return ModelCase {
            name,
            mutant,
            outcome,
            static_codes,
            model_deadlock: None,
            states: 0,
            evidence,
        };
    }
    match model {
        Ok(verdict) => {
            let deadlocked = verdict.deadlocked();
            let static_hang = !static_codes.is_empty();
            let (outcome, evidence) = if deadlocked != static_hang {
                let evidence = match &verdict {
                    Verdict::Deadlock(report) => format!(
                        "FALSE CLEAN: static analysis reports no hang, but this interleaving \
                         blocks:\n{}",
                        render_trace(report)
                    ),
                    Verdict::Completes { states, steps } => format!(
                        "FALSE DEADLOCK: static analysis reports {static_codes:?}, but every \
                         interleaving completes ({states} states, {steps} steps)"
                    ),
                };
                (Outcome::Disagree, evidence)
            } else if deadlocked {
                (Outcome::AgreeDeadlock, String::new())
            } else if !out_of_model_codes(&report, &rendezvous).is_empty() {
                (Outcome::OutOfModel, String::new())
            } else {
                (Outcome::AgreeClean, String::new())
            };
            ModelCase {
                name,
                mutant,
                outcome,
                static_codes,
                model_deadlock: Some(deadlocked),
                states: verdict.states(),
                evidence,
            }
        }
        Err(err) => ModelCase {
            name,
            mutant,
            outcome: Outcome::Disagree,
            static_codes,
            model_deadlock: None,
            states: 0,
            evidence: format!(
                "static analysis accepted the schedule but the model refused it: {err}"
            ),
        },
    }
}

/// Deterministic splitmix-fed LCG, same construction as the mutation test
/// suites — reproducible mutants, no external randomness.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Lcg {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() >> 33) as usize % n
    }
}

fn device_passes(schedule: &Schedule) -> Vec<Vec<ScheduledPass>> {
    (0..schedule.devices())
        .map(|d| schedule.passes(d).to_vec())
        .collect()
}

fn rebuild(schedule: &Schedule, passes: Vec<Vec<ScheduledPass>>) -> Schedule {
    Schedule::new(
        schedule.kind(),
        schedule.num_microbatches(),
        schedule.chunks(),
        passes,
    )
    .with_placement(schedule.placement())
}

/// A seed-driven mutation operator: produces a mutated schedule, or
/// `None` when the schedule has no applicable site.
type Operator = fn(&Schedule, &mut Lcg) -> Option<Schedule>;

/// The mutation operators. They mirror the hand-written mutants of the
/// `vp-check` test suites but run across the *whole* grid, seeded.
const OPERATORS: [(&str, Operator); 7] = [
    ("swap-adjacent", mutate_swap_adjacent),
    ("drop-pass", mutate_drop_pass),
    ("dup-pass", mutate_dup_pass),
    ("unhoist-inputf", mutate_unhoist_inputf),
    ("insert-backward", mutate_insert_backward),
    ("missplit-overlap", mutate_missplit_overlap),
    ("skew-boundary", mutate_skew_boundary),
];

/// Swaps two adjacent passes on a random device — order skews, cycles,
/// or (often) a still-valid schedule; the differential harness does not
/// care which, only that both oracles say the same thing.
fn mutate_swap_adjacent(schedule: &Schedule, rng: &mut Lcg) -> Option<Schedule> {
    let mut passes = device_passes(schedule);
    let candidates: Vec<usize> = (0..passes.len())
        .filter(|&d| passes[d].len() >= 2)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let d = candidates[rng.below(candidates.len())];
    let i = rng.below(passes[d].len() - 1);
    passes[d].swap(i, i + 1);
    Some(rebuild(schedule, passes))
}

/// Removes one random pass — missing-pass structure errors, coverage
/// holes, or (for decode `S`) a rendezvous that can never complete.
fn mutate_drop_pass(schedule: &Schedule, rng: &mut Lcg) -> Option<Schedule> {
    let mut passes = device_passes(schedule);
    let candidates: Vec<usize> = (0..passes.len())
        .filter(|&d| !passes[d].is_empty())
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let d = candidates[rng.below(candidates.len())];
    let i = rng.below(passes[d].len());
    passes[d].remove(i);
    Some(rebuild(schedule, passes))
}

/// Duplicates one random pass in place (`VP0003` on the static side; the
/// model refuses the ill-formed index).
fn mutate_dup_pass(schedule: &Schedule, rng: &mut Lcg) -> Option<Schedule> {
    let mut passes = device_passes(schedule);
    let candidates: Vec<usize> = (0..passes.len())
        .filter(|&d| !passes[d].is_empty())
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let d = candidates[rng.below(candidates.len())];
    let i = rng.below(passes[d].len());
    let dup = passes[d][i];
    passes[d].insert(i + 1, dup);
    Some(rebuild(schedule, passes))
}

/// Un-hoists one `InputF` send: moves it from the hoisted head of the
/// device's list back to its "natural" position, immediately before the
/// device's own `F` of the same slot — which in steady state means right
/// *after* an `S` rendezvous. The exact PR-8 regression shape: the row is
/// still unsent when the device enters the sampling barrier, while stage
/// 0 needs it to reach the same barrier. Only sender devices (`d > 0`)
/// qualify — stage 0 consumes its own row locally — and only lists with
/// an `S` between forwards have a site: the per-slot (`g = 1`) bases give
/// exactly the mutants the operator always gave, the engine's `g = b`
/// lists (every `S` behind the last forward) none.
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

/// Rebuilds an overlapped decode schedule with an *inconsistent* S/T
/// split across devices at a seeded lag of two or three forwards: the
/// `decode_pipeline_overlap_missplit` fixture. For `p ≥ 2`, `m ≥ 2` the
/// asymmetric happens-before graph cycles (`VP0001`) and the VM reaches
/// the same stuck state. The mutant is a per-slot list, so it applies only
/// to forward-only schedules that defer one merge per slot (the `g = 1`
/// overlap bases).
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

/// Moves one group boundary of one device a slot later: an `S(k)` that
/// ends a group before the batch does becomes `S(k + 1)`. The device still
/// samples every slot, but in groups no peer has — it enters a barrier
/// they never do and misses theirs: `VP0005` statically, a rendezvous
/// short of participants forever in the VM. Applies to forward-only lists
/// that merge inline (no `T`) and leave room behind a boundary (`g ≥ 2`).
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

/// Appends a backward pass to a random device — a mode violation in
/// decode (`VP0016`), a structure error or harmless extra in training.
fn mutate_insert_backward(schedule: &Schedule, rng: &mut Lcg) -> Option<Schedule> {
    let mut passes = device_passes(schedule);
    let d = rng.below(passes.len());
    let mb = rng.next() as u32 % schedule.num_microbatches();
    passes[d].push(ScheduledPass::new(PassKind::B, mb));
    Some(rebuild(schedule, passes))
}

/// Seeds per (operator, base case) pair. 7 operators x 4 seeds over the
/// decode sub-grid plus 7 x 1 over a training sample comfortably clears
/// the 240-mutant floor while keeping the run in CI time.
const DECODE_SEEDS: u64 = 4;
const TRAINING_SEEDS: u64 = 1;

/// Runs the full differential suite: every sweep-grid case pristine, then
/// seeded mutants of each.
pub fn run() -> Vec<ModelCase> {
    let grid = sweep_cases();
    let mut out = Vec::new();
    for SweepCase {
        name,
        schedule,
        config,
    } in &grid
    {
        out.push(differential(name.clone(), false, schedule, config));
    }
    // Mutants: heavier on the decode family (the rendezvous semantics
    // under test), lighter on the large training schedules.
    let mut mutant_seed = 0u64;
    for SweepCase {
        name,
        schedule,
        config,
    } in &grid
    {
        let seeds = if config.forward_only {
            DECODE_SEEDS
        } else {
            TRAINING_SEEDS
        };
        // Skip the biggest training schedules: mutating a p=8 m=24
        // interleaved schedule exercises nothing the p=2 m=4 one does
        // not, and the corpus stays fast enough to run twice in CI.
        if !config.forward_only && schedule.total_passes() > 200 {
            continue;
        }
        for (op_name, op) in OPERATORS {
            for s in 0..seeds {
                mutant_seed += 1;
                let mut rng = Lcg::new(mutant_seed.wrapping_mul(1000) + s);
                if let Some(mutated) = op(schedule, &mut rng) {
                    out.push(differential(
                        format!("mutant/{op_name} seed={mutant_seed} of {name}"),
                        true,
                        &mutated,
                        config,
                    ));
                }
            }
        }
    }
    out
}

/// Renders the differential run as a human table plus full evidence for
/// every disagreement.
pub fn render(cases: &[ModelCase]) -> String {
    let mut rows = Vec::new();
    for case in cases {
        if case.mutant && case.outcome != Outcome::Disagree {
            continue; // hundreds of agreeing mutants: summarized below
        }
        rows.push(vec![
            case.name.clone(),
            match case.outcome {
                Outcome::AgreeClean => "clean".to_string(),
                Outcome::AgreeDeadlock => "deadlock (both)".to_string(),
                Outcome::StaticRejected => "rejected (both)".to_string(),
                Outcome::OutOfModel => "backend hazard (static only)".to_string(),
                Outcome::Disagree => "DISAGREE".to_string(),
            },
            case.static_codes.join("+"),
            case.states.to_string(),
        ]);
    }
    let mut out = crate::table::render(&["case", "verdict", "static codes", "states"], &rows);
    for case in cases {
        if case.outcome == Outcome::Disagree {
            out.push_str(&format!("\n--- {} ---\n{}\n", case.name, case.evidence));
        }
    }
    let mutants = cases.iter().filter(|c| c.mutant).count();
    let disagreements = cases
        .iter()
        .filter(|c| c.outcome == Outcome::Disagree)
        .count();
    let killed = cases
        .iter()
        .filter(|c| c.mutant && c.outcome != Outcome::AgreeClean)
        .count();
    out.push_str(&format!(
        "\n{} case(s): {} grid + {} mutant(s) ({} flagged by both oracles), \
         {} disagreement(s)\n",
        cases.len(),
        cases.len() - mutants,
        mutants,
        killed,
        disagreements
    ));
    out
}

/// Machine-readable result for `MODELCHECK.json`: summary counters plus
/// per-case verdicts (deterministic order — the grid is deterministic and
/// the mutant seeds are fixed).
pub fn to_json(cases: &[ModelCase]) -> String {
    let mutants = cases.iter().filter(|c| c.mutant).count();
    let disagreements = cases
        .iter()
        .filter(|c| c.outcome == Outcome::Disagree)
        .count();
    let agree_deadlock = cases
        .iter()
        .filter(|c| c.outcome == Outcome::AgreeDeadlock)
        .count();
    let out_of_model = cases
        .iter()
        .filter(|c| c.outcome == Outcome::OutOfModel)
        .count();
    let max_states = cases.iter().map(|c| c.states).max().unwrap_or(0);
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"cases\": {},\n", cases.len()));
    out.push_str(&format!("  \"grid_cases\": {},\n", cases.len() - mutants));
    out.push_str(&format!("  \"mutants\": {mutants},\n"));
    out.push_str(&format!("  \"disagreements\": {disagreements},\n"));
    out.push_str(&format!("  \"agree_deadlock\": {agree_deadlock},\n"));
    out.push_str(&format!("  \"out_of_model\": {out_of_model},\n"));
    out.push_str(&format!("  \"max_states\": {max_states},\n"));
    out.push_str("  \"results\": [\n");
    for (i, case) in cases.iter().enumerate() {
        let outcome = match case.outcome {
            Outcome::AgreeClean => "agree_clean",
            Outcome::AgreeDeadlock => "agree_deadlock",
            Outcome::StaticRejected => "static_rejected",
            Outcome::OutOfModel => "out_of_model",
            Outcome::Disagree => "disagree",
        };
        let model = match case.model_deadlock {
            Some(b) => b.to_string(),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"mutant\": {}, \"outcome\": \"{outcome}\", \
             \"static_codes\": [{}], \"model_deadlock\": {model}, \"states\": {}{}}}{}\n",
            json_escape(&case.name),
            case.mutant,
            case.static_codes
                .iter()
                .map(|c| format!("\"{c}\""))
                .collect::<Vec<_>>()
                .join(", "),
            case.states,
            if case.evidence.is_empty() {
                String::new()
            } else {
                format!(", \"evidence\": \"{}\"", json_escape(&case.evidence))
            },
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_schedule::deps::{build_deps, EdgeKind};
    use vp_schedule::exec::{Costs, Executor};

    #[test]
    fn differential_suite_has_zero_disagreements() {
        // The PR's acceptance criterion: the static analyses and the
        // model checker agree on every grid schedule and every seeded
        // mutant — no false cleans, no false deadlocks.
        let cases = run();
        let disagreements: Vec<&ModelCase> = cases
            .iter()
            .filter(|c| c.outcome == Outcome::Disagree)
            .collect();
        assert!(
            disagreements.is_empty(),
            "{} disagreement(s), first: {} — {}",
            disagreements.len(),
            disagreements[0].name,
            disagreements[0].evidence
        );
        let mutants = cases.iter().filter(|c| c.mutant).count();
        assert!(mutants >= 240, "mutant corpus too small: {mutants}");
        // Pristine grid cases all agree-clean; deadlocks only ever come
        // from mutants.
        assert!(cases
            .iter()
            .filter(|c| !c.mutant)
            .all(|c| c.outcome == Outcome::AgreeClean));
        // Some mutants actually hang (the corpus is not all-rejected),
        // proving the deadlock path of both oracles runs.
        assert!(cases
            .iter()
            .any(|c| c.mutant && c.outcome == Outcome::AgreeDeadlock));
        // A group boundary skewed on one device always dies, as a missing
        // participant statically and a stuck rendezvous in the VM. Bases:
        // inline grouped lists with room behind a boundary — g = 2 at
        // b ∈ {4, 8, 24} and g = ⌈b/2⌉ at b ∈ {8, 24}, 3 depths, 4 seeds.
        let skewed: Vec<&ModelCase> = cases
            .iter()
            .filter(|c| c.name.starts_with("mutant/skew-boundary"))
            .collect();
        assert_eq!(skewed.len(), 3 * 5 * 4);
        for c in skewed {
            assert!(c.name.contains(" of decode-grouped g="), "{}", c.name);
            assert_eq!(c.outcome, Outcome::AgreeDeadlock, "{}", c.name);
            assert!(c.static_codes.contains(&"VP0005"), "{}", c.name);
        }
    }

    #[test]
    fn unhoist_mutants_exist_and_deadlock() {
        let cases = run();
        let unhoisted: Vec<&ModelCase> = cases
            .iter()
            .filter(|c| c.name.starts_with("mutant/unhoist-inputf") && c.name.contains("decode"))
            .collect();
        assert!(!unhoisted.is_empty());
        // The PR-8 shape: both oracles call the un-hoisted decode
        // schedule a deadlock, and the static side names VP0017. The
        // operator bites on the per-slot (g = 1) bases — the lists the
        // engine walked before S was grouped — so grouping must not thin
        // out its kills: 48 on that grid (3 depths x 4 batch sizes ≥ 2 x
        // 4 seeds).
        let kills = unhoisted
            .iter()
            .filter(|c| c.outcome == Outcome::AgreeDeadlock && c.static_codes.contains(&"VP0017"))
            .count();
        assert!(kills >= 48, "{kills} VP0017 un-hoist kills");
    }

    #[test]
    fn missplit_overlap_mutants_exist_and_deadlock() {
        let cases = run();
        let missplit: Vec<&ModelCase> = cases
            .iter()
            .filter(|c| {
                c.name.starts_with("mutant/missplit-overlap")
                    && c.name.contains("decode-grouped-overlap g=1 ")
            })
            .collect();
        assert!(!missplit.is_empty());
        // The inconsistent S/T split: both oracles call it a deadlock,
        // and the static side names the happens-before cycle — as often
        // as on the per-slot grid it has always run on.
        let kills = missplit
            .iter()
            .filter(|c| c.outcome == Outcome::AgreeDeadlock && c.static_codes.contains(&"VP0001"))
            .count();
        assert!(kills >= 48, "{kills} VP0001 mis-split kills");
        // The mis-split only applies where merges are actually deferred:
        // the inline decode family must yield no such mutants.
        assert!(!cases.iter().any(|c| {
            c.name.starts_with("mutant/missplit-overlap")
                && (c.name.contains(" of decode-pipeline p=")
                    || c.name.contains(" of decode-grouped g="))
        }));
    }

    /// Unit pass costs except on device 0, whose passes take three units:
    /// its peers reach some sampling barriers before it does.
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
            // The common start is the latest arrival: no device starts a
            // pass before its previous one ends.
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

    #[test]
    fn json_is_deterministic() {
        let a = to_json(&run());
        let b = to_json(&run());
        assert_eq!(a, b);
        assert!(a.contains("\"disagreements\": 0"), "{}", &a[..200]);
    }
}
