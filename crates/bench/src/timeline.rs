//! The `repro timeline` experiment: run a schedule through the simulator
//! *and* the numeric runtime, export the measured Chrome trace, and report
//! where the two timelines diverge.
//!
//! For each case the simulator executes the schedule on unit pass costs
//! (`UnitCosts` over `PassTimes::default()`) while the runtime trains the
//! tiny GPT on the same schedule with measured-run tracing enabled
//! ([`vp_runtime::train_schedule_traced`]). The measured trace of the
//! final iteration is rendered as Chrome trace-event JSON next to the
//! simulator's exports (`repro` writes both to `target/traces/`), and
//! [`vp_sim::compare_timelines`] reduces both sides to per-pass-kind busy
//! shares; a case whose divergence reaches [`MAX_DIVERGENCE`], that
//! dropped trace events or whose loss is not finite fails the run
//! ([`TimelineCase::failure`] — `repro timeline` exits 1 on it).

use crate::table::{json_escape, json_f64};
use std::path::{Path, PathBuf};
use vp_runtime::{train_schedule_traced, DataSource, TimelineReport, TinyConfig};
use vp_schedule::block::PassTimes;
use vp_schedule::exec::{Executor, UnitCosts};
use vp_schedule::generators;
use vp_schedule::pass::{Schedule, VocabVariant};
use vp_sim::{compare_timelines, DivergenceReport};

/// One schedule measured both ways.
#[derive(Debug)]
pub struct TimelineCase {
    /// Short case name (also names the trace file).
    pub name: &'static str,
    /// Final training loss of the measured run (sanity: it really trained).
    pub final_loss: f64,
    /// Analysis of the measured event stream.
    pub measured: TimelineReport,
    /// Per-pass-kind sim-vs-measured share divergence.
    pub divergence: DivergenceReport,
    /// Chrome trace-event JSON of the measured final iteration.
    pub trace_json: String,
    /// Events that did not fit the per-device buffers (0 in healthy runs).
    pub dropped_events: usize,
}

/// Ceiling on a case's sim-vs-measured busy-share divergence. Loose on
/// purpose: observed ~0.33 on this workload, so 0.5 catches a broken
/// tracer or cost model, not machine noise.
pub const MAX_DIVERGENCE: f64 = 0.5;

impl TimelineCase {
    /// Why this case fails the drift gate, or `None` if it passes.
    pub fn failure(&self) -> Option<String> {
        let name = self.name;
        let divergence = self.divergence.max_divergence();
        if !self.final_loss.is_finite() {
            Some(format!("{name}: loss diverged ({})", self.final_loss))
        } else if self.dropped_events != 0 {
            Some(format!(
                "{name}: {} trace events dropped",
                self.dropped_events
            ))
        } else if divergence >= MAX_DIVERGENCE {
            Some(format!(
                "{name}: sim-vs-measured share divergence {divergence:.3} >= {MAX_DIVERGENCE}"
            ))
        } else {
            None
        }
    }
}

/// The cases `repro timeline` runs: the plain 1F1B baseline and a
/// vocabulary-parallel (Algorithm 2) schedule, both on 4 devices with the
/// tiny-GPT default of 4 microbatches.
fn cases(config: &TinyConfig) -> Vec<(&'static str, Schedule)> {
    let m = config.microbatches as u32;
    let times = PassTimes::default();
    vec![
        ("1f1b", generators::one_f_one_b(4, m, times)),
        (
            "vocab2-1f1b",
            generators::vocab_1f1b(4, m, VocabVariant::Alg2, times, true),
        ),
    ]
}

/// Runs every case: simulator on unit costs, numeric runtime with tracing,
/// then the divergence comparison.
///
/// # Panics
///
/// Panics if a schedule fails to validate or train — these are the same
/// fixed cases the unit tests cover, so failure is a bug, not an input
/// error.
pub fn run(iterations: usize) -> Vec<TimelineCase> {
    let config = TinyConfig::default();
    let corpus = DataSource::synthetic(&config);
    cases(&config)
        .into_iter()
        .map(|(name, schedule)| {
            let costs = UnitCosts::new(PassTimes::default(), schedule.chunks());
            let sim_exec = Executor::new(&costs)
                .run(&schedule)
                .expect("timeline schedules validate");
            let sim = vp_schedule::analysis::ScheduleAnalysis::new(&schedule, &sim_exec);
            let (report, log) = train_schedule_traced(&config, &schedule, iterations, &corpus)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let measured = log.report();
            let divergence = compare_timelines(&sim, &measured);
            TimelineCase {
                name,
                final_loss: *report.losses.last().expect("losses reported"),
                measured,
                divergence,
                trace_json: log.chrome_trace(),
                dropped_events: log.dropped(),
            }
        })
        .collect()
}

/// Writes each case's measured Chrome trace to
/// `dir/measured-<name>.trace.json`, creating `dir` if needed.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_traces(dir: &Path, cases: &[TimelineCase]) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for case in cases {
        let path = dir.join(format!("measured-{}.trace.json", case.name));
        std::fs::write(&path, &case.trace_json)?;
        written.push(path);
    }
    Ok(written)
}

/// Serializes the comparison as the `TIMELINE.json` document.
pub fn to_json(cases: &[TimelineCase]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"timeline\",\n");
    out.push_str("  \"generated_by\": \"repro timeline --json\",\n");
    out.push_str("  \"schedules\": [\n");
    for (i, case) in cases.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"name\": \"{}\",\n",
            json_escape(case.name)
        ));
        out.push_str(&format!(
            "      \"final_loss\": {},\n",
            json_f64(case.final_loss)
        ));
        out.push_str(&format!(
            "      \"makespan_ns\": {},\n",
            case.measured.makespan_ns
        ));
        out.push_str(&format!(
            "      \"critical_path_ns\": {},\n",
            case.measured.critical_path_ns
        ));
        out.push_str(&format!(
            "      \"mean_bubble\": {},\n",
            json_f64(case.measured.mean_bubble())
        ));
        out.push_str(&format!(
            "      \"comm_overlap\": {},\n",
            json_f64(case.measured.mean_comm_overlap())
        ));
        out.push_str(&format!(
            "      \"sim_bubble\": {},\n",
            json_f64(case.divergence.sim_bubble)
        ));
        out.push_str(&format!(
            "      \"max_divergence\": {},\n",
            json_f64(case.divergence.max_divergence())
        ));
        out.push_str(&format!(
            "      \"dropped_events\": {},\n",
            case.dropped_events
        ));
        out.push_str("      \"kinds\": [\n");
        for (j, k) in case.divergence.kinds.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"name\": \"{}\", \"sim_share\": {}, \"measured_share\": {}}}{}\n",
                json_escape(k.name),
                json_f64(k.sim_share),
                json_f64(k.measured_share),
                if j + 1 == case.divergence.kinds.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 == cases.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_cases_measure_and_compare() {
        let cases = run(2);
        assert_eq!(cases.len(), 2);
        for case in &cases {
            assert!(case.final_loss.is_finite(), "{}", case.name);
            assert_eq!(case.dropped_events, 0, "{}", case.name);
            // The measured trace covers all 4 devices with real spans.
            assert_eq!(case.measured.devices.len(), 4, "{}", case.name);
            assert!(case.measured.total_busy_ns() > 0, "{}", case.name);
            assert!(case.trace_json.contains("traceEvents"));
            // Both sides agree on which kinds exist: F and B always.
            let names: Vec<&str> = case.divergence.kinds.iter().map(|k| k.name).collect();
            assert!(names.contains(&"F") && names.contains(&"B"), "{names:?}");
        }
        // The vocab case records S/T passes and stream work.
        let vocab = &cases[1];
        assert!(vocab.trace_json.contains("\"S\""));
        assert!(vocab.trace_json.contains("stream.job"));
        let names: Vec<&str> = vocab.divergence.kinds.iter().map(|k| k.name).collect();
        assert!(names.contains(&"S") && names.contains(&"T"), "{names:?}");
    }

    #[test]
    fn timeline_json_is_balanced_and_complete() {
        let cases = run(1);
        let doc = to_json(&cases);
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
        assert!(doc.contains("\"bench\": \"timeline\""));
        assert!(doc.contains("\"name\": \"1f1b\""));
        assert!(doc.contains("\"name\": \"vocab2-1f1b\""));
        assert!(doc.contains("max_divergence"));
    }
}
