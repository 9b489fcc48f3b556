//! Chrome trace-event export: render an executed schedule as a JSON file
//! loadable in `chrome://tracing` / Perfetto, one row per device, one
//! duration event per pass. The schedule figures of the paper are exactly
//! this view.

use crate::exec::ExecReport;
use crate::pass::{PassKind, Schedule};

/// Category label (and hence color grouping) for a pass kind.
fn category(kind: PassKind) -> &'static str {
    match kind {
        PassKind::F => "forward",
        PassKind::B => "backward",
        PassKind::W => "wgrad",
        PassKind::S | PassKind::S2 => "vocab-s",
        PassKind::T => "vocab-t",
        PassKind::InputF | PassKind::InputB => "vocab-input",
        PassKind::OutputF | PassKind::OutputB => "interlaced-output",
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Serializes the executed schedule as Chrome trace-event JSON.
///
/// Times are scaled by `us_per_unit` into microseconds (pass 1e6 if the
/// report's times are already in seconds).
pub fn to_chrome_trace(schedule: &Schedule, report: &ExecReport, us_per_unit: f64) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for d in 0..schedule.devices() {
        // Process-name metadata row.
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{d},\"args\":{{\"name\":\"device {d}\"}}}}"
        ));
        for (i, pass) in schedule.passes(d).iter().enumerate() {
            let ts = report.start[d][i] * us_per_unit;
            let dur = (report.end[d][i] - report.start[d][i]) * us_per_unit;
            out.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":0,\"args\":{{\"microbatch\":{},\"chunk\":{}}}}}",
                escape(&pass.to_string()),
                category(pass.kind),
                ts,
                dur,
                d,
                pass.microbatch,
                pass.chunk
            ));
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::PassTimes;
    use crate::exec::{Executor, UnitCosts};
    use crate::generators::{one_f_one_b, vocab_1f1b};
    use crate::pass::VocabVariant;

    #[test]
    fn trace_is_wellformed_and_complete() {
        let times = PassTimes::default();
        let sched = vocab_1f1b(3, 4, VocabVariant::Alg2, times, true);
        let costs = UnitCosts::new(times, 1);
        let report = Executor::new(&costs).run(&sched).unwrap();
        let json = to_chrome_trace(&sched, &report, 1000.0);
        // One event per pass + one metadata row per device.
        let events = json.matches("\"ph\":\"X\"").count();
        assert_eq!(events, sched.total_passes());
        assert_eq!(json.matches("process_name").count(), 3);
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"cat\":\"vocab-s\""));
        // The exporter writes each device's passes in list order with
        // `ts`/`dur` straight from the report, so the row is monotonic and
        // its spans never overlap iff each pass starts after the previous
        // one ended; and every microbatch 0..m appears on some row.
        let mut microbatches = std::collections::BTreeSet::new();
        for d in 0..sched.devices() {
            for (i, pass) in sched.passes(d).iter().enumerate() {
                microbatches.insert(pass.microbatch);
                if i > 0 {
                    assert!(
                        report.start[d][i] >= report.end[d][i - 1],
                        "device {d}: passes {} and {i} overlap",
                        i - 1
                    );
                }
            }
        }
        assert!(microbatches.into_iter().eq(0..4), "microbatches missing");
    }

    #[test]
    fn durations_are_positive() {
        let times = PassTimes::default();
        let sched = one_f_one_b(2, 3, times);
        let costs = UnitCosts::new(times, 1);
        let report = Executor::new(&costs).run(&sched).unwrap();
        let json = to_chrome_trace(&sched, &report, 1.0);
        assert!(!json.contains("\"dur\":-"));
    }
}
