//! Chrome trace-event export (`chrome://tracing` / Perfetto JSON) — the
//! workspace's one Chrome writer. Measured runs (`TraceLog::chrome_trace`)
//! and simulated schedules (`vp_sim::simulated_events`) both render
//! through it, so their timelines open side by side. Each device renders
//! as one process; its pass, blocking-wait and communication-stream rows
//! render as threads 0/1/2 within it.

use crate::{TraceEvent, Track, NO_MICROBATCH};
use std::collections::BTreeSet;

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Serializes events as Chrome trace-event JSON. Timestamps are
/// nanoseconds (since the log epoch, or scaled simulator time), rendered
/// in microseconds as the format requires. Events are emitted sorted by
/// `(device, track, start)`, so per-row timestamps are monotonic.
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    let mut sorted: Vec<&TraceEvent> = events.iter().collect();
    sorted.sort_by_key(|e| (e.device, e.track as u8, e.start_ns, e.end_ns));
    let rows: BTreeSet<(u32, Track)> = sorted.iter().map(|e| (e.device, e.track)).collect();
    let devices: BTreeSet<u32> = sorted.iter().map(|e| e.device).collect();
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, line: String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&line);
    };
    for d in &devices {
        push(
            &mut out,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{d},\"args\":{{\"name\":\"device {d}\"}}}}"
            ),
        );
    }
    for (d, track) in &rows {
        push(
            &mut out,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                d,
                *track as u8,
                track.label()
            ),
        );
    }
    for e in &sorted {
        let ts = e.start_ns as f64 / 1e3;
        let dur = e.duration_ns() as f64 / 1e3;
        let args = if e.microbatch == NO_MICROBATCH {
            String::new()
        } else {
            format!("\"microbatch\":{},\"chunk\":{},", e.microbatch, e.chunk)
        };
        push(
            &mut out,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{{}\"track\":\"{}\"}}}}",
                escape(e.name),
                track_category(e.track),
                ts,
                dur,
                e.device,
                e.track as u8,
                args,
                e.track.label()
            ),
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Category label (color grouping) for a track.
fn track_category(track: Track) -> &'static str {
    match track {
        Track::Compute => "pass",
        Track::Wait => "comm-wait",
        Track::Stream => "comm-stream",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        device: u32,
        track: Track,
        name: &'static str,
        mb: u32,
        start: u64,
        end: u64,
    ) -> TraceEvent {
        TraceEvent {
            device,
            track,
            name,
            microbatch: mb,
            chunk: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn trace_is_wellformed_and_complete() {
        let events = vec![
            ev(0, Track::Compute, "F", 0, 0, 1_000),
            ev(0, Track::Wait, "p2p.recv", NO_MICROBATCH, 1_000, 1_500),
            ev(1, Track::Compute, "B", 0, 2_000, 4_000),
            ev(1, Track::Stream, "stream.job", NO_MICROBATCH, 2_100, 2_900),
        ];
        let json = to_chrome_trace(&events);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        assert_eq!(json.matches("process_name").count(), 2);
        assert_eq!(json.matches("thread_name").count(), 4);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // ns render as µs with 3 decimals.
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"dur\":2.000"));
        assert!(json.contains("\"microbatch\":0"));
        assert!(json.contains("comm-stream"));
        assert!(!json.contains("\"dur\":-"));
    }

    #[test]
    fn untagged_events_carry_no_microbatch_arg() {
        let json = to_chrome_trace(&[ev(0, Track::Wait, "p2p.recv", NO_MICROBATCH, 0, 5)]);
        assert!(!json.contains("microbatch"));
        assert!(json.contains("\"track\":\"comm-wait\""));
    }

    #[test]
    fn events_are_emitted_in_row_major_monotonic_order() {
        let events = vec![
            ev(1, Track::Compute, "B", 1, 50_000, 60_000),
            ev(0, Track::Compute, "F", 0, 10_000, 20_000),
            ev(1, Track::Compute, "F", 0, 5_000, 15_000),
            ev(0, Track::Compute, "B", 0, 30_000, 40_000),
        ];
        let json = to_chrome_trace(&events);
        let ts_positions: Vec<usize> = [
            "\"ts\":10.000",
            "\"ts\":30.000",
            "\"ts\":5.000",
            "\"ts\":50.000",
        ]
        .iter()
        .map(|needle| json.find(needle).expect(needle))
        .collect();
        let mut sorted = ts_positions.clone();
        sorted.sort_unstable();
        assert_eq!(ts_positions, sorted);
    }
}
