//! Deterministic list-scheduling executor.
//!
//! Replays a [`Schedule`] under a [`Costs`] provider: each device runs its
//! passes strictly in order, starting a pass at
//! `max(device free time, max over dependencies (end + edge cost))`.
//! Because each device's order is fixed, overlap of communication with
//! compute arises exactly as in the paper: a barrier's latency is hidden
//! when the schedule places other passes between the producer and the
//! consumer, and bites as a bubble when it does not (the interlaced
//! pipeline's synchronous all-reduces). A rendezvous
//! ([`crate::deps::sync_collectives`], the decode sampling barrier) starts
//! all its participants at the latest arrival; one scheduled on fewer
//! devices than the world never completes. A run that stops with work left
//! is [`Stuck`]. Enabled transitions commute, so this one run reaches the
//! end every interleaving reaches.
//!
//! The executor also tracks resident activation "units" per device —
//! `+alloc` at each `F`, `−alloc` at the matching `B`, plus transient
//! vocabulary buffers between `S` and `T` — giving the simulated peak
//! activation memory that §5.2 reasons about analytically.

use crate::block::PassTimes;
use crate::deps::{build_deps, deadlock, DepError, DepGraph, EdgeKind, SyncCollective};
use crate::pass::{PassKind, Schedule, ScheduledPass};

/// Cost provider: durations of passes, communication costs of dependency
/// edges and memory weights of resident buffers.
pub trait Costs {
    /// Wall-clock duration of `pass` on `device`.
    fn pass_seconds(&self, device: usize, pass: &ScheduledPass) -> f64;

    /// Communication cost attached to a dependency edge.
    fn edge_seconds(&self, kind: EdgeKind, from_device: usize, to_device: usize) -> f64;

    /// Memory units allocated by a transformer `F` (freed by the matching
    /// `B`) for `chunk` on `device`. Units are arbitrary (the simulator
    /// uses bytes; [`UnitCosts`] counts microbatches weighted per chunk).
    fn activation_units(&self, device: usize, chunk: u8) -> f64;

    /// Memory units held between a vocabulary `S` (or interlaced
    /// `OutputF`) and the matching `T` / `OutputB` pass.
    fn vocab_buffer_units(&self, device: usize) -> f64;
}

/// Unit-cost provider: pass durations from a [`PassTimes`], point-to-point
/// edges cost `times.comm`, collective barriers cost `barrier_comm`
/// (defaults to `times.comm`), activations count one unit per microbatch
/// divided evenly among chunks.
#[derive(Debug, Clone)]
pub struct UnitCosts {
    times: PassTimes,
    chunks: u8,
    barrier_comm: f64,
}

impl UnitCosts {
    /// Creates unit costs for a schedule with the given chunk count.
    pub fn new(times: PassTimes, chunks: u8) -> Self {
        UnitCosts {
            times,
            chunks: chunks.max(1),
            barrier_comm: times.comm,
        }
    }

    /// Overrides the cost of collective (barrier) edges, modelling slow
    /// all-reduces over fast point-to-point links.
    pub fn with_barrier_comm(mut self, barrier_comm: f64) -> Self {
        self.barrier_comm = barrier_comm;
        self
    }
}

impl Costs for UnitCosts {
    fn pass_seconds(&self, _device: usize, pass: &ScheduledPass) -> f64 {
        self.times.duration(pass.kind)
    }

    fn edge_seconds(&self, kind: EdgeKind, from_device: usize, to_device: usize) -> f64 {
        match kind {
            EdgeKind::Local => 0.0,
            EdgeKind::ActivationP2p | EdgeKind::GradP2p => {
                if from_device == to_device {
                    0.0
                } else {
                    self.times.comm
                }
            }
            _ => self.barrier_comm,
        }
    }

    fn activation_units(&self, _device: usize, _chunk: u8) -> f64 {
        1.0 / self.chunks as f64
    }

    fn vocab_buffer_units(&self, _device: usize) -> f64 {
        0.0
    }
}

/// Result of executing a schedule.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// Start time of each pass, indexed `[device][pass index]`.
    pub start: Vec<Vec<f64>>,
    /// End time of each pass.
    pub end: Vec<Vec<f64>>,
    /// Total busy (computing) time per device.
    pub busy: Vec<f64>,
    /// End-to-end iteration time (max end over all passes).
    pub makespan: f64,
    /// Peak resident activation units per device (see [`Costs`]).
    pub peak_activation_units: Vec<f64>,
    /// Peak resident microbatch count per device, unweighted (each chunk's
    /// in-flight microbatch counts once).
    pub peak_resident_microbatches: Vec<usize>,
}

impl ExecReport {
    /// Idle fraction of device `d` within the makespan.
    pub fn bubble_fraction(&self, d: usize) -> f64 {
        1.0 - self.busy[d] / self.makespan
    }

    /// Mean idle fraction across devices.
    pub fn mean_bubble_fraction(&self) -> f64 {
        let p = self.busy.len() as f64;
        (0..self.busy.len())
            .map(|d| self.bubble_fraction(d))
            .sum::<f64>()
            / p
    }
}

/// What one fired transition of a run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// The device completed an ordinary pass and advanced.
    Complete,
    /// The device arrived at its rendezvous and now blocks inside it.
    Arrive,
    /// The device arrived last and released every participant.
    ArriveAndRelease,
}

/// One fired transition of a run.
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

/// A device a stuck run left unfinished, and why it cannot proceed.
#[derive(Debug, Clone)]
pub struct Blocked {
    /// The stuck device.
    pub device: usize,
    /// The slot it cannot get past.
    pub slot: usize,
    /// The pass at that slot.
    pub pass: ScheduledPass,
    /// The rendezvous instance the device sits inside, as an index into
    /// the run's `sync`; `None` while its pass waits on a receive.
    pub rendezvous: Option<usize>,
    /// The producers `(device, slot)` a blocked receive still waits on;
    /// empty inside a rendezvous.
    pub unmet: Vec<(usize, usize)>,
    /// Human-readable description of the unmet wait.
    pub reason: String,
}

/// A run that stopped with work left: no device can progress.
#[derive(Debug, Clone)]
pub struct Stuck {
    /// Every unfinished device and what it waits for, by device.
    pub blocked: Vec<Blocked>,
    /// The transitions fired before the run stopped, in firing order.
    pub trace: Vec<TraceStep>,
}

/// One device's progress through its pass list.
#[derive(Debug, Clone, Default)]
struct Lane {
    /// Next slot; every earlier slot has completed.
    cursor: usize,
    free_at: f64,
    busy: f64,
    act_units: f64,
    peak_units: f64,
    resident: usize,
    peak_resident: usize,
    /// Arrival time while blocked inside a rendezvous.
    arrived: Option<f64>,
}

impl Lane {
    /// Runs `pass`, the device's next one, from time `at`; returns its end.
    fn complete<C: Costs>(&mut self, costs: &C, d: usize, pass: &ScheduledPass, at: f64) -> f64 {
        let dur = costs.pass_seconds(d, pass);
        self.free_at = at + dur;
        self.busy += dur;
        self.cursor += 1;
        self.arrived = None;
        // Memory events, in program order per device.
        match pass.kind {
            PassKind::F => {
                self.act_units += costs.activation_units(d, pass.chunk);
                self.resident += 1;
            }
            PassKind::B => {
                self.act_units -= costs.activation_units(d, pass.chunk);
                self.resident = self.resident.saturating_sub(1);
            }
            PassKind::S | PassKind::OutputF => self.act_units += costs.vocab_buffer_units(d),
            PassKind::T | PassKind::OutputB => self.act_units -= costs.vocab_buffer_units(d),
            _ => {}
        }
        self.peak_units = self.peak_units.max(self.act_units);
        self.peak_resident = self.peak_resident.max(self.resident);
        self.free_at
    }
}

/// Executes schedules under a cost provider.
#[derive(Debug)]
pub struct Executor<'a, C: Costs> {
    costs: &'a C,
}

impl<'a, C: Costs> Executor<'a, C> {
    /// Creates an executor.
    pub fn new(costs: &'a C) -> Self {
        Executor { costs }
    }

    /// Executes `schedule` with no rendezvous (training semantics); a
    /// [`DepError`] names missing or duplicate passes or, when the run gets
    /// stuck, the minimal cycle [`crate::deps::validate`] reports.
    pub fn run(&self, schedule: &Schedule) -> Result<ExecReport, DepError> {
        let graph = build_deps(schedule)?;
        self.run_with_graph(schedule, &graph, &[]).map_err(|_| {
            deadlock(schedule, &graph).expect("a run stuck without rendezvous has a cycle")
        })
    }

    /// Executes `schedule` against its dependency graph with `sync` as the
    /// rendezvous instances; a run that stops with work left is [`Stuck`].
    pub fn run_with_graph(
        &self,
        schedule: &Schedule,
        graph: &DepGraph,
        sync: &[SyncCollective],
    ) -> Result<ExecReport, Stuck> {
        let p = schedule.devices();
        let rendezvous = |d, i| sync.iter().position(|inst| inst.sites.contains(&(d, i)));
        // Devices complete their passes in order, so times are appended.
        let (mut start, mut end) = (vec![Vec::new(); p], vec![Vec::new(); p]);
        let mut lanes = vec![Lane::default(); p];
        let mut trace = Vec::new();
        let mut progressed = true;
        while progressed {
            progressed = false;
            for d in 0..p {
                while lanes[d].arrived.is_none() {
                    let i = lanes[d].cursor;
                    let Some(&pass) = schedule.passes(d).get(i) else {
                        break;
                    };
                    let deps = graph.preds(d, i);
                    if deps.iter().any(|dep| lanes[dep.device].cursor <= dep.index) {
                        break;
                    }
                    let ready = deps.iter().fold(lanes[d].free_at, |t, dep| {
                        let edge = self.costs.edge_seconds(dep.kind, dep.device, d);
                        t.max(end[dep.device][dep.index] + edge)
                    });
                    progressed = true;
                    lanes[d].arrived = Some(ready);
                    // An ordinary pass is a rendezvous of its own device.
                    let inst = rendezvous(d, i).map(|idx| &sync[idx]);
                    let own = [(d, i)];
                    let sites = inst.map_or(&own[..], |inst| &inst.sites[..]);
                    let released = inst.is_none_or(|inst| inst.sites.len() == p)
                        && sites
                            .iter()
                            .all(|&(pd, ps)| lanes[pd].cursor == ps && lanes[pd].arrived.is_some());
                    if released {
                        let at = sites
                            .iter()
                            .filter_map(|&(pd, _)| lanes[pd].arrived)
                            .fold(ready, f64::max);
                        for &(pd, ps) in sites {
                            start[pd].push(at);
                            let pass = &schedule.passes(pd)[ps];
                            end[pd].push(lanes[pd].complete(self.costs, pd, pass, at));
                        }
                    }
                    trace.push(TraceStep {
                        device: d,
                        slot: i,
                        pass,
                        action: match (inst, released) {
                            (None, _) => Action::Complete,
                            (Some(_), true) => Action::ArriveAndRelease,
                            (Some(_), false) => Action::Arrive,
                        },
                    });
                }
            }
        }
        let mut blocked = Vec::new();
        for (d, lane) in lanes.iter().enumerate() {
            let Some(&pass) = schedule.passes(d).get(lane.cursor) else {
                continue;
            };
            let inside = rendezvous(d, lane.cursor).filter(|_| lane.arrived.is_some());
            let unmet: Vec<(usize, usize)> = match inside {
                Some(_) => Vec::new(),
                None => graph
                    .preds(d, lane.cursor)
                    .iter()
                    .filter(|dep| lanes[dep.device].cursor <= dep.index)
                    .map(|dep| (dep.device, dep.index))
                    .collect(),
            };
            let reason = match inside.map(|idx| &sync[idx]) {
                Some(inst) if inst.sites.len() < p => format!(
                    "inside the {} of mb {} that can never complete: only devices {:?} of {p} \
                     schedule the call",
                    inst.class,
                    inst.microbatch,
                    inst.sites.iter().map(|&(pd, _)| pd).collect::<Vec<_>>()
                ),
                Some(inst) => format!(
                    "inside the {} of mb {}, waiting for device(s) {:?} to arrive",
                    inst.class,
                    inst.microbatch,
                    inst.sites
                        .iter()
                        .filter(|&&(pd, ps)| lanes[pd].cursor != ps || lanes[pd].arrived.is_none())
                        .map(|&(pd, _)| pd)
                        .collect::<Vec<_>>()
                ),
                None => format!(
                    "receive not satisfied: waiting on {}",
                    unmet
                        .iter()
                        .map(|&(pd, ps)| format!(
                            "{} [device {pd}, slot {ps}]",
                            schedule.passes(pd)[ps]
                        ))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            };
            blocked.push(Blocked {
                device: d,
                slot: lane.cursor,
                pass,
                rendezvous: inside,
                unmet,
                reason,
            });
        }
        if !blocked.is_empty() {
            return Err(Stuck { blocked, trace });
        }
        Ok(ExecReport {
            makespan: end.iter().flatten().fold(0.0f64, |a, &b| a.max(b)),
            start,
            end,
            busy: lanes.iter().map(|lane| lane.busy).collect(),
            peak_activation_units: lanes.iter().map(|lane| lane.peak_units).collect(),
            peak_resident_microbatches: lanes.iter().map(|lane| lane.peak_resident).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::sync_collectives;
    use crate::generators::{
        decode_pipeline_grouped, interlaced_1f1b, one_f_one_b, vhalf, vocab_1f1b,
    };
    use crate::pass::VocabVariant;

    fn unit_run(schedule: &Schedule) -> ExecReport {
        let costs = UnitCosts::new(*passes_times(schedule), schedule.chunks());
        Executor::new(&costs).run(schedule).unwrap()
    }

    fn passes_times(_s: &Schedule) -> &'static PassTimes {
        static TIMES: PassTimes = PassTimes {
            f: 1.0,
            b: 2.0,
            w: 0.0,
            s: 0.3,
            t: 0.3,
            input_f: 0.05,
            input_b: 0.05,
            comm: 0.01,
        };
        &TIMES
    }

    #[test]
    fn one_f_one_b_makespan_matches_theory() {
        // 1F1B: makespan ≈ (p−1)(f+b) warmup/drain + m(f+b) steady state.
        let (p, m) = (4, 16);
        let sched = one_f_one_b(
            p,
            m as u32,
            *passes_times(&one_f_one_b(1, 1, PassTimes::default())),
        );
        let report = unit_run(&sched);
        let expected = (p - 1) as f64 * 3.0 + m as f64 * 3.0;
        assert!(
            (report.makespan - expected).abs() < expected * 0.05,
            "makespan {} vs expected {expected}",
            report.makespan
        );
    }

    #[test]
    fn one_f_one_b_peak_memory_is_p_minus_d() {
        let (p, m) = (4, 12);
        let sched = one_f_one_b(p, m, PassTimes::default());
        let report = unit_run(&sched);
        for d in 0..p {
            assert_eq!(report.peak_resident_microbatches[d], p - d, "device {d}");
        }
    }

    #[test]
    fn vocab_alg1_adds_two_microbatches_alg2_one() {
        let p = 4;
        let m = 16;
        let times = PassTimes {
            s: 0.05,
            t: 0.05,
            comm: 0.001,
            ..PassTimes::default()
        };
        let plain = unit_run(&one_f_one_b(p, m, times));
        for (variant, extra) in [
            (VocabVariant::Alg1, 2),
            (VocabVariant::Alg2, 1),
            (VocabVariant::Naive, 3),
        ] {
            let sched = vocab_1f1b(p, m, variant, times, false);
            let costs = UnitCosts::new(times, 1);
            let report = Executor::new(&costs).run(&sched).unwrap();
            for d in 0..p {
                let base = plain.peak_resident_microbatches[d];
                let got = report.peak_resident_microbatches[d];
                assert!(
                    got <= base + extra && got + 1 >= base + extra,
                    "{variant:?} device {d}: base {base} got {got} extra {extra}"
                );
            }
        }
    }

    #[test]
    fn last_device_has_small_bubble_in_balanced_1f1b() {
        let sched = one_f_one_b(4, 64, PassTimes::default());
        let report = unit_run(&sched);
        // Each device only idles during warmup/drain: ≈(p−1)(f+b) of the
        // ≈(m+p−1)(f+b) makespan.
        for d in 0..4 {
            assert!(
                report.bubble_fraction(d) < 0.10,
                "device {d}: {}",
                report.bubble_fraction(d)
            );
        }
    }

    #[test]
    fn interlaced_sync_creates_bubbles() {
        // With identical pass work and slow collective barriers over fast
        // p2p links (the multi-node regime of Appendix B.2), the interlaced
        // schedule must be slower than vocab-parallel: its barriers sit
        // between consecutive passes with nothing to overlap them.
        let times = PassTimes::default();
        let p = 4;
        let m = 32;
        let inter = unit_run_barrier(&interlaced_1f1b(p, m, times), times, 0.2);
        let vocab = unit_run_barrier(
            &vocab_1f1b(p, m, VocabVariant::Alg2, times, false),
            times,
            0.2,
        );
        assert!(
            inter.makespan > vocab.makespan * 1.05,
            "interlaced {} vs vocab {}",
            inter.makespan,
            vocab.makespan
        );
        // Removing the barrier cost (the paper's B.2 ablation) recovers
        // most of the gap.
        let inter_free = unit_run_barrier(&interlaced_1f1b(p, m, times), times, 0.0);
        assert!(inter_free.makespan < inter.makespan * 0.95);
    }

    fn unit_run_barrier(schedule: &Schedule, times: PassTimes, barrier: f64) -> ExecReport {
        let costs = UnitCosts::new(times, schedule.chunks()).with_barrier_comm(barrier);
        Executor::new(&costs).run(schedule).unwrap()
    }

    #[test]
    fn vhalf_halves_device0_activation_units() {
        let times = PassTimes {
            f: 1.0,
            b: 1.0,
            w: 1.0,
            ..PassTimes::default()
        };
        let p = 8;
        let m = 32;
        let plain_1f1b = unit_run_barrier(
            &one_f_one_b(p, m, PassTimes::default()),
            PassTimes::default(),
            0.01,
        );
        let v = unit_run_barrier(&vhalf(p, m, times), times, 0.01);
        // In units of one device's layers: V-Half's device-0 peak should be
        // well below 1F1B's p.
        let ratio = v.peak_activation_units[0] / plain_1f1b.peak_activation_units[0];
        assert!(ratio < 0.75, "ratio {ratio}");
        // And balanced across devices.
        let max = v
            .peak_activation_units
            .iter()
            .cloned()
            .fold(0.0f64, f64::max);
        let min = v
            .peak_activation_units
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(max - min <= 1.0, "peaks {:?}", v.peak_activation_units);
    }

    #[test]
    fn makespan_bounded_below_by_critical_work() {
        let times = PassTimes::default();
        let sched = one_f_one_b(3, 8, times);
        let report = unit_run_barrier(&sched, times, 0.01);
        // No device can finish before its own total work.
        for d in 0..3 {
            assert!(report.makespan >= report.busy[d]);
            assert!((report.busy[d] - 8.0 * 3.0).abs() < 1e-9);
        }
    }

    /// Unit pass costs except on device 0, whose passes take three units:
    /// its peers reach some barriers before it does.
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
    fn rendezvous_participants_start_together() {
        let sched = decode_pipeline_grouped(2, 4, 1, false);
        let graph = build_deps(&sched).unwrap();
        let sync = sync_collectives(&sched, true);
        let exec = Executor::new(&SlowDevice0);
        let free = exec.run_with_graph(&sched, &graph, &[]).unwrap();
        let met = exec.run_with_graph(&sched, &graph, &sync).unwrap();
        let mut apart = 0;
        for inst in &sync {
            let starts = |r: &ExecReport| -> Vec<f64> {
                inst.sites
                    .iter()
                    .map(|&(d, slot)| r.start[d][slot])
                    .collect()
            };
            let together = starts(&met);
            assert!(together.iter().all(|&t| t == together[0]), "{inst:?}");
            apart += usize::from(starts(&free).windows(2).any(|w| w[0] != w[1]));
        }
        // Without the rule, device 1 starts some S before device 0 arrives.
        assert!(apart > 0);
        // The common start is the latest arrival: nobody starts early.
        for d in 0..2 {
            let (start, end) = (&met.start[d], &met.end[d]);
            assert!(start[1..].iter().zip(end).all(|(s, e)| s >= e), "{d}");
        }
    }
}
