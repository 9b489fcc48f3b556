//! Cross-device dependency rules (§5.1) and schedule validation.
//!
//! The constraints encoded here are exactly the paper's:
//!
//! * `S` passes run after the forward of the last (virtual) transformer
//!   stage completes (`C0` broadcast of `X`) — for every slot the `S`
//!   samples ([`Schedule::s_groups`]; one slot in training, a group of
//!   them in the grouped decode schedules).
//! * `T` passes run after *all* `S` passes (`C1` barrier; the naive
//!   grouping interposes `S2` with its extra barrier).
//! * For Algorithm 1 (and naive), the backward of the last transformer
//!   stage waits for all `T` passes (`C2` reduce of `∇X`); for Algorithm 2
//!   it waits only for all `S` passes, since `∇X` is assembled inside the
//!   single `C1` barrier and `T` is freely deferrable.
//! * Interlaced output passes synchronize all devices per microbatch.
//! * Sharded input-layer forwards must all complete (and all-reduce)
//!   before the first stage's forward; input-layer backwards wait for the
//!   first stage's backward to produce the embedding gradient.

use crate::pass::{
    placement_device_of, placement_stage_of, ChunkPlacement, PassKind, Schedule, ScheduleKind,
    ScheduledPass, VocabVariant,
};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Classification of a dependency edge, used by executors to attach
/// communication costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Activation transfer between adjacent stages (forward chain).
    ActivationP2p,
    /// Gradient transfer between adjacent stages (backward chain).
    GradP2p,
    /// `C0`: broadcast of the last transformer output to all shards.
    C0Broadcast,
    /// `C1`: all-reduce of softmax statistics (and, for Algorithm 2, the
    /// `∇X` reduce folded into the same barrier).
    C1Barrier,
    /// `C2`: reduce of `∇X` after the `T` passes (Algorithm 1 / naive).
    C2Reduce,
    /// Extra barrier of the naive grouping (between `S` and `S2`).
    NaiveBarrier,
    /// Synchronous tensor-parallel communication of the interlaced
    /// pipeline (blocks the compute stream).
    InterlacedSync,
    /// All-reduce of sharded input-layer outputs before the first stage.
    InputAllReduce,
    /// Broadcast of the embedding gradient to all input shards.
    InputGradBroadcast,
    /// Same-device data dependency (zero communication cost), e.g. the
    /// last stage's backward consuming its own forward's activations.
    Local,
}

/// A dependency: the pass at `(device, index)` must finish (plus the edge's
/// communication cost) before the dependent pass may start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dep {
    /// Producing device.
    pub device: usize,
    /// Index of the producing pass in its device's execution order.
    pub index: usize,
    /// Edge classification.
    pub kind: EdgeKind,
}

/// The dependency graph of a schedule: `preds[d][i]` lists the cross-device
/// prerequisites of pass `i` on device `d` (program order within a device
/// is implicit).
#[derive(Debug, Clone)]
pub struct DepGraph {
    preds: Vec<Vec<Vec<Dep>>>,
}

impl DepGraph {
    /// Prerequisites of pass `i` on device `d`.
    pub fn preds(&self, d: usize, i: usize) -> &[Dep] {
        &self.preds[d][i]
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.preds.iter().flatten().map(Vec::len).sum()
    }
}

/// Errors produced by schedule validation.
///
/// Each variant's message carries the stable diagnostic code the `vp-check`
/// static analyzer assigns to the same defect class (`VP0001` deadlock,
/// `VP0002` missing pass, `VP0003` duplicate pass), so dynamic validation
/// failures and static diagnostics read the same.
#[derive(Debug, Clone, PartialEq)]
pub enum DepError {
    /// A pass another pass depends on does not exist in the schedule.
    MissingPass {
        /// Human-readable description of the missing pass.
        what: String,
    },
    /// A pass appears more than once on a device.
    DuplicatePass {
        /// Device index.
        device: usize,
        /// The duplicated pass.
        pass: ScheduledPass,
    },
    /// Execution cannot make progress: a set of passes wait on each other
    /// in a cycle through program order and the §5.1 dependency rules.
    Deadlock {
        /// Device of the first pass on the extracted cycle.
        device: usize,
        /// The first pass on the extracted cycle.
        pass: ScheduledPass,
        /// The minimal happens-before cycle: each step's pass must finish
        /// before the next step's pass may start, and the last must finish
        /// before the first — an impossibility.
        cycle: Vec<crate::hb::CycleStep>,
    },
}

impl fmt::Display for DepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DepError::MissingPass { what } => write!(f, "[VP0002] missing pass: {what}"),
            DepError::DuplicatePass { device, pass } => {
                write!(f, "[VP0003] duplicate pass {pass} on device {device}")
            }
            DepError::Deadlock {
                device,
                pass,
                cycle,
            } => {
                write!(
                    f,
                    "[VP0001] deadlock: {pass} on device {device} waits on itself through a \
                     {}-pass cycle: ",
                    cycle.len()
                )?;
                for (i, step) in cycle.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(
                        f,
                        "{} [device {}, slot {}] ({})",
                        step.pass,
                        step.device,
                        step.slot,
                        step.edge.describe()
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for DepError {}

/// Identity of a pass: kind, microbatch, chunk, device.
pub type Key = (PassKind, u32, u8, usize);

/// Structural description of a schedule, sufficient to derive the logical
/// dependency rules without a concrete pass ordering. Used both by
/// [`build_deps`] and by the greedy synthesizer in [`crate::synth`].
#[derive(Debug, Clone, Copy)]
pub struct DepContext {
    /// Schedule family.
    pub kind: ScheduleKind,
    /// Number of pipeline devices.
    pub devices: usize,
    /// Virtual chunks per device.
    pub chunks: u8,
    /// Virtual-stage placement for multi-chunk schedules.
    pub placement: ChunkPlacement,
    /// Whether sharded input-layer passes are present.
    pub has_input: bool,
}

impl DepContext {
    /// Derives the context from a concrete schedule.
    pub fn of(schedule: &Schedule) -> Self {
        let has_input =
            (0..schedule.devices()).any(|d| schedule.count_kind(d, PassKind::InputF) > 0);
        DepContext {
            kind: schedule.kind(),
            devices: schedule.devices(),
            chunks: schedule.chunks(),
            placement: schedule.placement(),
            has_input,
        }
    }

    fn virtual_stages(&self) -> usize {
        self.devices * self.chunks as usize
    }

    fn device_of_virtual_stage(&self, stage: usize) -> (usize, u8) {
        placement_device_of(self.placement, self.devices, stage)
    }

    fn virtual_stage_of(&self, device: usize, chunk: u8) -> usize {
        placement_stage_of(self.placement, self.devices, device, chunk)
    }

    /// The logical prerequisites of `pass` running on `device`, as
    /// `(producer key, edge kind)` pairs — the §5.1 constraints.
    pub fn logical_preds(&self, pass: &ScheduledPass, device: usize) -> Vec<(Key, EdgeKind)> {
        let p = self.devices;
        let mb = pass.microbatch;
        let last_vs = self.virtual_stages() - 1;
        let mut out = Vec::new();
        match pass.kind {
            PassKind::F => {
                let vs = self.virtual_stage_of(device, pass.chunk);
                if vs == 0 {
                    if self.has_input {
                        for src in 0..p {
                            out.push(((PassKind::InputF, mb, 0, src), EdgeKind::InputAllReduce));
                        }
                    }
                } else {
                    let (pd, pc) = self.device_of_virtual_stage(vs - 1);
                    out.push(((PassKind::F, mb, pc, pd), EdgeKind::ActivationP2p));
                }
            }
            PassKind::B => {
                let vs = self.virtual_stage_of(device, pass.chunk);
                if vs == last_vs {
                    out.push(((PassKind::F, mb, pass.chunk, device), EdgeKind::Local));
                    match self.kind {
                        ScheduleKind::Plain => {}
                        ScheduleKind::Vocab(variant) => {
                            let (gate, kind) = match variant {
                                VocabVariant::Alg2 => (PassKind::S, EdgeKind::C1Barrier),
                                VocabVariant::Alg1 | VocabVariant::Naive => {
                                    (PassKind::T, EdgeKind::C2Reduce)
                                }
                            };
                            for src in 0..p {
                                out.push(((gate, mb, 0, src), kind));
                            }
                        }
                        ScheduleKind::Interlaced => {
                            for src in 0..p {
                                out.push((
                                    (PassKind::OutputB, mb, 0, src),
                                    EdgeKind::InterlacedSync,
                                ));
                            }
                        }
                    }
                } else {
                    let (nd, nc) = self.device_of_virtual_stage(vs + 1);
                    out.push(((PassKind::B, mb, nc, nd), EdgeKind::GradP2p));
                }
            }
            PassKind::W => {
                out.push(((PassKind::B, mb, pass.chunk, device), EdgeKind::Local));
            }
            PassKind::S | PassKind::OutputF => {
                let (ld, lc) = self.device_of_virtual_stage(last_vs);
                let kind = if pass.kind == PassKind::S {
                    EdgeKind::C0Broadcast
                } else {
                    EdgeKind::InterlacedSync
                };
                out.push(((PassKind::F, mb, lc, ld), kind));
            }
            PassKind::S2 => {
                for src in 0..p {
                    out.push(((PassKind::S, mb, 0, src), EdgeKind::NaiveBarrier));
                }
            }
            PassKind::T => {
                let (gate, kind) = match self.kind {
                    ScheduleKind::Vocab(VocabVariant::Naive) => {
                        (PassKind::S2, EdgeKind::NaiveBarrier)
                    }
                    _ => (PassKind::S, EdgeKind::C1Barrier),
                };
                for src in 0..p {
                    out.push(((gate, mb, 0, src), kind));
                }
            }
            PassKind::OutputB => {
                for src in 0..p {
                    out.push(((PassKind::OutputF, mb, 0, src), EdgeKind::InterlacedSync));
                }
            }
            PassKind::InputF => {}
            PassKind::InputB => {
                let (fd, fc) = self.device_of_virtual_stage(0);
                out.push(((PassKind::B, mb, fc, fd), EdgeKind::InputGradBroadcast));
            }
        }
        out
    }
}

/// The prerequisites of every pass of device `d` in a concrete schedule,
/// by pass index: [`DepContext::logical_preds`], plus — for an `S` that
/// samples more than its own slot ([`Schedule::s_groups`]) — the `C0`
/// broadcast of every other slot of its group. On a schedule with one `S`
/// per microbatch this is `logical_preds` of each pass, nothing more.
pub fn device_preds(ctx: &DepContext, schedule: &Schedule, d: usize) -> Vec<Vec<(Key, EdgeKind)>> {
    let (ld, lc) = ctx.device_of_virtual_stage(ctx.virtual_stages() - 1);
    schedule
        .passes(d)
        .iter()
        .zip(schedule.s_groups(d))
        .map(|(pass, group)| {
            let mut preds = ctx.logical_preds(pass, d);
            if pass.kind == PassKind::S {
                preds.extend(
                    group
                        .filter(|&slot| slot != pass.microbatch)
                        .map(|slot| ((PassKind::F, slot, lc, ld), EdgeKind::C0Broadcast)),
                );
            }
            preds
        })
        .collect()
}

/// One synchronous (rendezvous) collective instance: every participant's
/// call runs *inline on its device thread* and blocks until all
/// participants arrive — unlike the stream-offloaded barriers of training,
/// whose results are consumed by a later pass.
///
/// The dependency edges of [`DepContext::logical_preds`] model a
/// collective asymmetrically: the consumer waits for the producers, but a
/// producer never waits for its peers. That is faithful for training,
/// where `S` *submits* the `C1` barrier to the comm stream and only the
/// `T`/`B` passes block on its result. It is **not** faithful for the
/// decode engine, whose `S` pass calls the sampling all-gather
/// synchronously: the device sits inside the collective until every shard
/// arrives, so all of its later sends are blocked too. A schedule can be
/// acyclic under the asymmetric model yet deadlock under the blocking one
/// (the un-hoisted serving layout).
/// [`crate::exec::Executor::run_with_graph`] closes the gap by running
/// these instances as rendezvous.
#[derive(Debug, Clone)]
pub struct SyncCollective {
    /// The collective class of the instance.
    pub class: crate::facts::CollectiveClass,
    /// The microbatch (request slot) that names the instance: the last
    /// slot of the group its `S` calls sample ([`Schedule::s_groups`]).
    pub microbatch: u32,
    /// Participating calls as `(device, slot)`, ascending by device.
    pub sites: Vec<(usize, usize)>,
}

/// The collective instances a schedule executes synchronously on the
/// device threads, i.e. as true rendezvous.
///
/// In training mode (`forward_only == false`) this is empty: the runtime
/// offloads every vocabulary barrier to the comm stream (`S` submits `C1`,
/// `T` consumes it later), so the asymmetric dependency edges are already
/// faithful. In forward-only decode mode, each `S` pass performs the
/// sampling barrier (`C1`, an all-gather of shard top-k stats) inline in
/// the device thread — one rendezvous instance per `S(k)`, carrying every
/// slot of its group and entered by every device's `S(k)`. Devices that
/// cut their groups at different slots therefore never meet: the instance
/// of a boundary only some devices have is short of participants forever
/// (`VP0005`).
///
/// The exception inside decode mode is the *overlapped* family
/// ([`crate::generators::decode_pipeline_overlap`]): an `S(k)` whose slot
/// also schedules a `T(k)` runs exactly like training — submit to the
/// comm stream, return immediately — and the deferred `T` merge blocks on
/// the result. For those groups the asymmetric `T ← every S` edges are
/// faithful, so no rendezvous instance is emitted; groups without a `T`
/// keep the inline-barrier semantics. The two styles can in principle
/// coexist in one schedule, which is why the decision is per `S` rather
/// than per schedule.
pub fn sync_collectives(schedule: &Schedule, forward_only: bool) -> Vec<SyncCollective> {
    if !forward_only {
        return Vec::new();
    }
    let mut deferred: HashSet<u32> = HashSet::new();
    for (_, _, pass) in schedule.iter_all() {
        if pass.kind == PassKind::T {
            deferred.insert(pass.microbatch);
        }
    }
    let mut by_mb: HashMap<u32, Vec<(usize, usize)>> = HashMap::new();
    for (d, i, pass) in schedule.iter_all() {
        if pass.kind == PassKind::S && !deferred.contains(&pass.microbatch) {
            by_mb.entry(pass.microbatch).or_default().push((d, i));
        }
    }
    let mut out: Vec<SyncCollective> = by_mb
        .into_iter()
        .map(|(microbatch, mut sites)| {
            sites.sort_unstable();
            SyncCollective {
                class: crate::facts::CollectiveClass::C1,
                microbatch,
                sites,
            }
        })
        .collect();
    out.sort_by_key(|c| c.microbatch);
    out
}

fn index_schedule(schedule: &Schedule) -> Result<HashMap<Key, (usize, usize)>, DepError> {
    let mut map = HashMap::with_capacity(schedule.total_passes());
    for (d, i, pass) in schedule.iter_all() {
        let key = (pass.kind, pass.microbatch, pass.chunk, d);
        if map.insert(key, (d, i)).is_some() {
            return Err(DepError::DuplicatePass {
                device: d,
                pass: *pass,
            });
        }
    }
    Ok(map)
}

/// Builds the dependency graph of a schedule according to its
/// [`ScheduleKind`]'s rules.
///
/// # Errors
///
/// Returns [`DepError::MissingPass`] if a rule references a pass the
/// schedule does not contain, or [`DepError::DuplicatePass`] for repeated
/// passes.
pub fn build_deps(schedule: &Schedule) -> Result<DepGraph, DepError> {
    let map = index_schedule(schedule)?;
    let ctx = DepContext::of(schedule);
    let mut preds = Vec::with_capacity(schedule.devices());
    for d in 0..schedule.devices() {
        let mut device = Vec::with_capacity(schedule.passes(d).len());
        for (pass, logical) in schedule
            .passes(d)
            .iter()
            .zip(device_preds(&ctx, schedule, d))
        {
            let mut deps = Vec::with_capacity(logical.len());
            for (key, kind) in logical {
                let (pd, pi) = map
                    .get(&key)
                    .copied()
                    .ok_or_else(|| DepError::MissingPass {
                        what: format!(
                            "{:?} mb={} chunk={} on device {} (needed by {pass} on device {d})",
                            key.0, key.1, key.2, key.3
                        ),
                    })?;
                deps.push(Dep {
                    device: pd,
                    index: pi,
                    kind,
                });
            }
            device.push(deps);
        }
        preds.push(device);
    }
    Ok(DepGraph { preds })
}

/// Validates a schedule: builds its dependency graph and checks that the
/// per-device execution orders can run to completion without deadlock
/// (acyclicity of the happens-before graph, [`crate::hb`]).
///
/// # Errors
///
/// Returns the first [`DepError`] encountered. A deadlock error carries
/// the minimal happens-before cycle extracted by
/// [`crate::hb::HbGraph::minimal_cycle`], naming the exact passes that
/// wait on each other.
pub fn validate(schedule: &Schedule) -> Result<DepGraph, DepError> {
    let graph = build_deps(schedule)?;
    match deadlock(schedule, &graph) {
        Some(err) => Err(err),
        None => Ok(graph),
    }
}

/// The [`DepError::Deadlock`] naming the minimal happens-before cycle of
/// `schedule`, or `None` if its graph is acyclic.
pub(crate) fn deadlock(schedule: &Schedule, graph: &DepGraph) -> Option<DepError> {
    let cycle = crate::hb::HbGraph::new(schedule, graph).minimal_cycle()?;
    let head = cycle.first().expect("cycles are non-empty");
    Some(DepError::Deadlock {
        device: head.device,
        pass: head.pass,
        cycle,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::PassTimes;
    use crate::generators::{interlaced_1f1b, one_f_one_b, vhalf, vhalf_vocab, vocab_1f1b};

    #[test]
    fn plain_1f1b_validates() {
        let sched = one_f_one_b(4, 8, PassTimes::default());
        let graph = validate(&sched).unwrap();
        assert!(graph.edge_count() > 0);
    }

    #[test]
    fn vocab_schedules_validate_for_all_variants() {
        for variant in [VocabVariant::Naive, VocabVariant::Alg1, VocabVariant::Alg2] {
            for include_input in [false, true] {
                let sched = vocab_1f1b(4, 8, variant, PassTimes::default(), include_input);
                validate(&sched)
                    .unwrap_or_else(|e| panic!("{variant:?} input={include_input}: {e}"));
            }
        }
    }

    #[test]
    fn interlaced_validates() {
        validate(&interlaced_1f1b(6, 12, PassTimes::default())).unwrap();
    }

    #[test]
    fn vhalf_validates() {
        validate(&vhalf(4, 8, PassTimes::default())).unwrap();
        let times = PassTimes {
            w: 1.0,
            b: 1.0,
            ..PassTimes::default()
        };
        validate(&vhalf(4, 8, times)).unwrap();
    }

    #[test]
    fn vhalf_vocab_validates_with_input() {
        let sched = vhalf_vocab(4, 8, VocabVariant::Alg1, PassTimes::default(), true);
        validate(&sched).unwrap();
    }

    #[test]
    fn a_grouped_s_waits_for_the_c0_of_every_slot_it_samples() {
        use crate::generators::decode_pipeline_grouped;
        // Groups {0, 1}, {2, 3}, {4}; the last stage is device 2.
        let sched = decode_pipeline_grouped(3, 5, 2, false);
        let graph = build_deps(&sched).unwrap();
        let mut s_passes = 0;
        for d in 0..3 {
            for (i, (pass, group)) in sched.passes(d).iter().zip(sched.s_groups(d)).enumerate() {
                if pass.kind != PassKind::S {
                    continue;
                }
                let mut producers: Vec<u32> = graph
                    .preds(d, i)
                    .iter()
                    .map(|dep| {
                        assert_eq!((dep.kind, dep.device), (EdgeKind::C0Broadcast, 2));
                        let f = sched.passes(2)[dep.index];
                        assert_eq!(f.kind, PassKind::F);
                        f.microbatch
                    })
                    .collect();
                producers.sort_unstable();
                assert_eq!(producers, group.collect::<Vec<_>>(), "{pass} device {d}");
                s_passes += 1;
            }
        }
        assert_eq!(s_passes, 3 * 3);
        // One rendezvous per group, named by the group's last slot.
        let named: Vec<u32> = sync_collectives(&sched, true)
            .iter()
            .map(|c| c.microbatch)
            .collect();
        assert_eq!(named, [1, 3, 4]);
    }

    #[test]
    fn training_families_sample_one_slot_per_s() {
        use crate::generators::{interleaved_vocab_1f1b, zb_vocab_1f1b};
        // One S per microbatch in ascending order: the grouping rule
        // degenerates to the per-microbatch one, edge for edge.
        let zb = PassTimes {
            b: 1.0,
            w: 1.0,
            ..PassTimes::default()
        };
        for variant in [VocabVariant::Naive, VocabVariant::Alg1, VocabVariant::Alg2] {
            for sched in [
                vocab_1f1b(4, 8, variant, PassTimes::default(), true),
                zb_vocab_1f1b(4, 8, variant, zb, true),
                interleaved_vocab_1f1b(4, 2, 8, variant, PassTimes::default(), true),
                vhalf_vocab(4, 8, variant, PassTimes::default(), true),
            ] {
                let ctx = DepContext::of(&sched);
                for d in 0..sched.devices() {
                    let preds = device_preds(&ctx, &sched, d);
                    for (i, (pass, group)) in
                        sched.passes(d).iter().zip(sched.s_groups(d)).enumerate()
                    {
                        let own = pass.microbatch..pass.microbatch + 1;
                        let want = match pass.kind {
                            PassKind::S | PassKind::T => own,
                            _ => 0..0,
                        };
                        assert_eq!(group, want, "{variant:?} {pass} device {d}");
                        assert_eq!(preds[i], ctx.logical_preds(pass, d));
                    }
                }
            }
        }
    }

    #[test]
    fn missing_pass_is_reported() {
        use crate::pass::{Schedule, ScheduledPass};
        // Device 1's F depends on device 0's F, which is absent.
        let sched = Schedule::new(
            ScheduleKind::Plain,
            1,
            1,
            vec![vec![], vec![ScheduledPass::new(PassKind::F, 0)]],
        );
        assert!(matches!(
            build_deps(&sched),
            Err(DepError::MissingPass { .. })
        ));
    }

    #[test]
    fn duplicate_pass_is_reported() {
        use crate::pass::{Schedule, ScheduledPass};
        let sched = Schedule::new(
            ScheduleKind::Plain,
            1,
            1,
            vec![vec![
                ScheduledPass::new(PassKind::F, 0),
                ScheduledPass::new(PassKind::F, 0),
            ]],
        );
        assert!(matches!(
            build_deps(&sched),
            Err(DepError::DuplicatePass { .. })
        ));
    }

    #[test]
    fn inverted_order_deadlocks() {
        use crate::pass::{Schedule, ScheduledPass};
        // Two devices, each wanting the other's pass first: device 1 has
        // B0 before F0 — its B waits for its own F placed later (via the
        // backward chain through device 0's B, which waits for F on
        // device 1... constructing a real cycle:
        // dev0: [F0, B0]; dev1: [B0, F0]. dev1.B0 needs dev1.F0 (program
        // order violated through the cross-device chain).
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
        // dev0.B0 depends on dev1.B0 (grad chain); dev1.B0 is first in its
        // order but is the *last* virtual stage backward requiring its own
        // F0 which is behind it → deadlock.
        assert!(matches!(validate(&sched), Err(DepError::Deadlock { .. })));
        // The executor finds it by running: stuck, it reports the same cycle.
        let costs = crate::exec::UnitCosts::new(PassTimes::default(), 1);
        let run = crate::exec::Executor::new(&costs).run(&sched);
        assert_eq!(run.unwrap_err(), validate(&sched).unwrap_err());
    }

    #[test]
    fn alg2_backward_does_not_wait_for_t() {
        let sched = vocab_1f1b(3, 4, VocabVariant::Alg2, PassTimes::default(), false);
        let graph = build_deps(&sched).unwrap();
        // Find the last-stage B of microbatch 0 and check its gates are S
        // passes, not T passes.
        let d = 2;
        let (i, _) = sched
            .passes(d)
            .iter()
            .enumerate()
            .find(|(_, p)| p.kind == PassKind::B && p.microbatch == 0)
            .unwrap();
        let kinds: Vec<EdgeKind> = graph.preds(d, i).iter().map(|dep| dep.kind).collect();
        assert!(kinds.contains(&EdgeKind::C1Barrier));
        assert!(!kinds.contains(&EdgeKind::C2Reduce));
    }

    #[test]
    fn alg1_backward_waits_for_t() {
        let sched = vocab_1f1b(3, 4, VocabVariant::Alg1, PassTimes::default(), false);
        let graph = build_deps(&sched).unwrap();
        let d = 2;
        let (i, _) = sched
            .passes(d)
            .iter()
            .enumerate()
            .find(|(_, p)| p.kind == PassKind::B && p.microbatch == 0)
            .unwrap();
        let kinds: Vec<EdgeKind> = graph.preds(d, i).iter().map(|dep| dep.kind).collect();
        assert!(kinds.contains(&EdgeKind::C2Reduce));
    }

    #[test]
    fn training_mode_has_no_sync_collectives() {
        let sched = vocab_1f1b(4, 6, VocabVariant::Alg2, PassTimes::default(), false);
        assert!(sync_collectives(&sched, false).is_empty());
        // Even under forward-only classification the training schedule has
        // no rendezvous: every slot schedules a T, so its S passes are
        // stream-offloaded submissions whose results the T passes consume.
        assert!(sync_collectives(&sched, true).is_empty());
    }

    #[test]
    fn overlap_decode_slots_are_stream_offloaded_not_rendezvous() {
        use crate::generators::decode_pipeline_grouped;
        for p in [1usize, 2, 4] {
            for m in [1u32, 2, 3, 6, 8] {
                for g in [1, 2, m.div_ceil(2), m] {
                    // The inline-barrier family keeps one world-sized
                    // rendezvous per group…
                    let inline = sync_collectives(&decode_pipeline_grouped(p, m, g, false), true);
                    assert_eq!(inline.len(), m.div_ceil(g) as usize, "p={p} m={m} g={g}");
                    assert!(inline.iter().all(|inst| inst.sites.len() == p));
                    // …while the overlapped family defers every merge to a
                    // T pass, so no S is a rendezvous and the asymmetric
                    // T ← S edges are faithful.
                    let overlap = decode_pipeline_grouped(p, m, g, true);
                    assert!(sync_collectives(&overlap, true).is_empty(), "g={g}");
                }
            }
        }
    }
}
