//! Simulated timelines as `vp-trace` events, and the sim-vs-measured
//! comparison.
//!
//! [`simulated_events`] turns an executed schedule into the event model
//! the numeric runtime records, so a simulated and a measured timeline of
//! the same schedule are the same rows and render through the same
//! [`vp_trace::chrome::to_chrome_trace`].
//!
//! The simulator predicts a schedule's timeline from unit pass costs; the
//! numeric runtime measures the same schedule's real execution into a
//! `vp-trace` [`TimelineReport`]. [`compare_timelines`] quantifies how
//! far the two drift apart: for every pass kind it compares the *share of
//! total busy time* the kind occupies on each side, plus the mean bubble
//! fraction.
//! Shares are scale-free — the simulator runs one abstract iteration in
//! unit time while the runtime measures nanoseconds of real CPU work — so
//! the comparison isolates *structural* drift (a pass kind costing
//! relatively more or less than the model assumes) from absolute speed.
//!
//! CI gates on [`DivergenceReport::max_divergence`]: a schedule whose
//! measured per-kind time budget wanders away from the simulated one means
//! either the cost model or the runtime changed behaviour.

use vp_schedule::analysis::ScheduleAnalysis;
use vp_schedule::exec::ExecReport;
use vp_schedule::pass::{PassKind, Schedule};
use vp_trace::{TimelineReport, TraceEvent, Track};

/// An executed schedule as `Compute`-track events, one per pass in list
/// order: named by the pass kind, tagged with its microbatch and chunk,
/// with the report's times scaled by `ns_per_unit` into nanoseconds.
pub fn simulated_events(
    schedule: &Schedule,
    report: &ExecReport,
    ns_per_unit: f64,
) -> Vec<TraceEvent> {
    let ns = |t: f64| (t * ns_per_unit).round() as u64;
    (0..schedule.devices())
        .flat_map(|d| {
            schedule
                .passes(d)
                .iter()
                .enumerate()
                .map(move |(i, pass)| TraceEvent {
                    device: d as u32,
                    track: Track::Compute,
                    name: pass.kind.name(),
                    microbatch: pass.microbatch,
                    chunk: pass.chunk,
                    start_ns: ns(report.start[d][i]),
                    end_ns: ns(report.end[d][i]),
                })
        })
        .collect()
}

/// All pass kinds a schedule can contain, in display order.
const ALL_KINDS: [PassKind; 10] = [
    PassKind::F,
    PassKind::B,
    PassKind::W,
    PassKind::S,
    PassKind::S2,
    PassKind::T,
    PassKind::InputF,
    PassKind::InputB,
    PassKind::OutputF,
    PassKind::OutputB,
];

/// One pass kind's share of total busy time on each side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KindDrift {
    /// Pass-kind label (`"F"`, `"B"`, `"S"`, …), shared with the tracer.
    pub name: &'static str,
    /// Fraction of total simulated busy time spent in this kind.
    pub sim_share: f64,
    /// Fraction of total measured busy time spent in this kind.
    pub measured_share: f64,
}

impl KindDrift {
    /// Absolute share difference, in `[0, 1]`.
    pub fn divergence(&self) -> f64 {
        (self.sim_share - self.measured_share).abs()
    }
}

/// Per-pass-kind divergence between a simulated and a measured run of the
/// same schedule.
#[derive(Debug, Clone)]
pub struct DivergenceReport {
    /// Kinds present on either side, in canonical pass order.
    pub kinds: Vec<KindDrift>,
    /// Simulated mean idle fraction across devices.
    pub sim_bubble: f64,
    /// Measured mean idle fraction across devices.
    pub measured_bubble: f64,
}

impl DivergenceReport {
    /// Largest per-kind share divergence (0 when no kind is present).
    pub fn max_divergence(&self) -> f64 {
        self.kinds
            .iter()
            .map(KindDrift::divergence)
            .fold(0.0, f64::max)
    }

    /// Absolute difference of the mean bubble fractions.
    pub fn bubble_divergence(&self) -> f64 {
        (self.sim_bubble - self.measured_bubble).abs()
    }

    /// Renders a compact text table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "bubble: sim {:>5.1}%  measured {:>5.1}%  (Δ {:.1}pp)\n",
            100.0 * self.sim_bubble,
            100.0 * self.measured_bubble,
            100.0 * self.bubble_divergence()
        );
        for k in &self.kinds {
            out.push_str(&format!(
                "{:>7}: sim {:>5.1}%  measured {:>5.1}%  (Δ {:.1}pp)\n",
                k.name,
                100.0 * k.sim_share,
                100.0 * k.measured_share,
                100.0 * k.divergence()
            ));
        }
        out
    }
}

/// Compares a simulated execution of a schedule against a measured trace
/// of the same schedule, pass kind by pass kind.
pub fn compare_timelines(sim: &ScheduleAnalysis, measured: &TimelineReport) -> DivergenceReport {
    let sim_total: f64 = sim.time_by_kind.values().sum();
    let kinds = ALL_KINDS
        .iter()
        .filter_map(|&kind| {
            let sim_share = if sim_total > 0.0 {
                sim.time_by_kind.get(&kind).copied().unwrap_or(0.0) / sim_total
            } else {
                0.0
            };
            let measured_share = measured.share_of(kind.name());
            (sim_share > 0.0 || measured_share > 0.0).then_some(KindDrift {
                name: kind.name(),
                sim_share,
                measured_share,
            })
        })
        .collect();
    DivergenceReport {
        kinds,
        sim_bubble: sim.mean_bubble(),
        measured_bubble: measured.mean_bubble(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_schedule::block::PassTimes;
    use vp_schedule::exec::{Executor, UnitCosts};
    use vp_schedule::generators;
    use vp_schedule::pass::VocabVariant;
    use vp_trace::chrome::to_chrome_trace;
    use vp_trace::NO_MICROBATCH;

    fn analyze(schedule: &vp_schedule::pass::Schedule, times: PassTimes) -> ScheduleAnalysis {
        let costs = UnitCosts::new(times, schedule.chunks());
        let report = Executor::new(&costs).run(schedule).unwrap();
        ScheduleAnalysis::new(schedule, &report)
    }

    fn ev(name: &'static str, device: u32, start: u64, end: u64) -> TraceEvent {
        TraceEvent {
            device,
            track: Track::Compute,
            name,
            microbatch: NO_MICROBATCH,
            chunk: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn simulated_trace_is_wellformed_and_complete() {
        let times = PassTimes::default();
        let sched = generators::vocab_1f1b(3, 4, VocabVariant::Alg2, times, true);
        let costs = UnitCosts::new(times, 1);
        let report = Executor::new(&costs).run(&sched).unwrap();
        let events = simulated_events(&sched, &report, 1e6);
        let json = to_chrome_trace(&events);
        // One event per pass + one metadata row per device.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), sched.total_passes());
        assert_eq!(json.matches("process_name").count(), 3);
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"name\":\"S\""));
        assert!(!json.contains("\"dur\":-"));
        // Each device's row, in pass-list order, never overlaps itself, and
        // every microbatch 0..m appears on some row.
        let mut microbatches = std::collections::BTreeSet::new();
        for d in 0..sched.devices() as u32 {
            let row: Vec<&TraceEvent> = events.iter().filter(|e| e.device == d).collect();
            for (i, pair) in row.windows(2).enumerate() {
                assert!(
                    pair[1].start_ns >= pair[0].end_ns,
                    "device {d}: passes {i} and {} overlap",
                    i + 1
                );
            }
            microbatches.extend(row.iter().map(|e| e.microbatch));
        }
        assert!(microbatches.into_iter().eq(0..4), "microbatches missing");
    }

    #[test]
    fn identical_shares_yield_zero_divergence() {
        // Simulated 1F1B with f = 1, b = 2 spends 1/3 of busy time in F;
        // a measured trace with the same proportions diverges by ~0.
        let times = PassTimes::default(); // f = 1, b = 2
        let sched = generators::one_f_one_b(2, 4, times);
        let sim = analyze(&sched, times);
        let events = vec![
            ev("F", 0, 0, 100),
            ev("B", 0, 100, 300),
            ev("F", 1, 0, 100),
            ev("B", 1, 100, 300),
        ];
        let measured = TimelineReport::new(&events);
        let d = compare_timelines(&sim, &measured);
        assert!(d.max_divergence() < 1e-9, "{}", d.render());
        assert_eq!(d.kinds.len(), 2);
        assert_eq!(d.kinds[0].name, "F");
    }

    #[test]
    fn skewed_measurement_is_flagged() {
        // The model says B is twice F; the "measurement" spends 90% in F.
        let times = PassTimes::default();
        let sched = generators::one_f_one_b(2, 4, times);
        let sim = analyze(&sched, times);
        let measured = TimelineReport::new(&[ev("F", 0, 0, 900), ev("B", 0, 900, 1000)]);
        let d = compare_timelines(&sim, &measured);
        // Sim F share = 1/3; measured F share = 0.9.
        let f = d.kinds.iter().find(|k| k.name == "F").unwrap();
        assert!((f.divergence() - (0.9 - 1.0 / 3.0)).abs() < 1e-9);
        assert!(d.max_divergence() > 0.5);
    }

    #[test]
    fn kind_missing_on_one_side_still_appears() {
        let times = PassTimes::default();
        let sched = generators::vocab_1f1b(2, 4, VocabVariant::Alg2, times, true);
        let sim = analyze(&sched, times);
        // Measured trace without any S events: the S row must still show,
        // with measured share 0.
        let measured = TimelineReport::new(&[ev("F", 0, 0, 10), ev("B", 0, 10, 30)]);
        let d = compare_timelines(&sim, &measured);
        let s = d.kinds.iter().find(|k| k.name == "S").unwrap();
        assert!(s.sim_share > 0.0);
        assert_eq!(s.measured_share, 0.0);
    }

    #[test]
    fn empty_measurement_compares_cleanly() {
        let times = PassTimes::default();
        let sched = generators::one_f_one_b(2, 4, times);
        let sim = analyze(&sched, times);
        let d = compare_timelines(&sim, &TimelineReport::new(&[]));
        assert_eq!(d.measured_bubble, 0.0);
        assert!(d.max_divergence() > 0.0); // sim shares unmatched
        assert!(d.render().contains("bubble"));
    }
}
