//! Integration tests of measured-run tracing: train a vocabulary-parallel
//! schedule with `train_schedule_traced` and check the recorded timeline
//! has the structure the paper's figures claim — vocabulary passes sit in
//! the bubbles of the transformer timeline, every microbatch appears, and
//! the exported Chrome trace is well-formed.

use vp_runtime::{train_schedule, train_schedule_traced, DataSource, TinyConfig};
use vp_schedule::block::PassTimes;
use vp_schedule::generators;
use vp_schedule::pass::VocabVariant;
use vp_trace::{TraceEvent, Track};

fn traced_vocab_run() -> (Vec<TraceEvent>, vp_trace::TimelineReport, String) {
    let config = TinyConfig::default();
    let schedule = generators::vocab_1f1b(
        4,
        config.microbatches as u32,
        VocabVariant::Alg2,
        PassTimes::default(),
        true,
    );
    let (report, log) =
        train_schedule_traced(&config, &schedule, 2, &DataSource::synthetic(&config))
            .expect("traced vocab schedule trains");
    assert!(report.losses.iter().all(|l| l.is_finite()));
    assert_eq!(log.dropped(), 0, "event buffers overflowed");
    let timeline = log.report();
    let chrome = log.chrome_trace();
    (log.events(), timeline, chrome)
}

const TRANSFORMER: [&str; 3] = ["F", "B", "W"];
const VOCAB: [&str; 4] = ["S", "T", "InputF", "InputB"];

/// The paper's central timeline claim, measured: every vocabulary pass
/// (`S`/`T`/input shards) executes strictly inside a bubble window of the
/// device's transformer (`F`/`B`/`W`) timeline — zero overlap, so the
/// vocabulary work displaces idle time, not transformer compute.
#[test]
fn vocab_passes_sit_inside_transformer_bubbles() {
    let (events, _, _) = traced_vocab_run();
    let devices = 1 + events.iter().map(|e| e.device).max().unwrap() as usize;
    let mut checked = 0;
    for d in 0..devices as u32 {
        let transformer: Vec<(u64, u64)> = events
            .iter()
            .filter(|e| e.device == d && e.track == Track::Compute && TRANSFORMER.contains(&e.name))
            .map(|e| (e.start_ns, e.end_ns))
            .collect();
        assert!(
            !transformer.is_empty(),
            "device {d} ran no transformer passes"
        );
        for e in events
            .iter()
            .filter(|e| e.device == d && e.track == Track::Compute && VOCAB.contains(&e.name))
        {
            for &(ts, te) in &transformer {
                let lo = e.start_ns.max(ts);
                let hi = e.end_ns.min(te);
                assert!(
                    lo >= hi,
                    "device {d}: vocab pass {} [{}, {}) overlaps transformer pass [{ts}, {te})",
                    e.name,
                    e.start_ns,
                    e.end_ns
                );
            }
            checked += 1;
        }
    }
    // 4 microbatches × (S, T, InputF, InputB) on every one of 4 devices.
    assert!(checked >= 16, "only {checked} vocab passes checked");
}

/// Every microbatch appears in the compute timeline of every device, and
/// per-device compute spans are sequential (monotonic, non-overlapping) —
/// the properties the CI schema check asserts on the exported JSON.
#[test]
fn measured_timeline_is_sequential_and_complete() {
    let (events, _, _) = traced_vocab_run();
    let config = TinyConfig::default();
    for d in 0..4u32 {
        let mut compute: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.device == d && e.track == Track::Compute)
            .collect();
        compute.sort_by_key(|e| e.start_ns);
        let mut seen = std::collections::BTreeSet::new();
        let mut prev_end = 0u64;
        for e in &compute {
            assert!(e.end_ns >= e.start_ns, "negative span on device {d}");
            assert!(
                e.start_ns >= prev_end,
                "device {d}: overlapping compute passes at {} < {prev_end}",
                e.start_ns
            );
            prev_end = e.end_ns;
            if e.microbatch != vp_trace::NO_MICROBATCH {
                seen.insert(e.microbatch);
            }
        }
        let expected: std::collections::BTreeSet<u32> = (0..config.microbatches as u32).collect();
        assert_eq!(seen, expected, "device {d} missed microbatches");
    }
}

/// The analyzer and the Chrome exporter agree with the raw stream: bubbles
/// are in range, stream work exists and overlaps compute (the §6.1 C1
/// barrier hides under passes), and the JSON is structurally sound.
#[test]
fn timeline_report_and_chrome_export_are_sane() {
    let (events, timeline, chrome) = traced_vocab_run();
    assert_eq!(timeline.devices.len(), 4);
    assert!(timeline.makespan_ns > 0);
    assert!(timeline.critical_path_ns > 0);
    assert!(timeline.critical_path_ns <= timeline.makespan_ns);
    for d in &timeline.devices {
        let bubble = d.bubble_fraction(timeline.makespan_ns);
        assert!((0.0..=1.0).contains(&bubble), "bubble {bubble}");
        assert!(d.busy_ns > 0, "device {} never computed", d.device);
        // Every device runs the C1 barrier on its stream.
        assert!(d.stream_ns > 0, "device {} ran no stream work", d.device);
    }
    // All-reduce barriers overlap compute at least partially somewhere.
    assert!(
        timeline.mean_comm_overlap() > 0.0,
        "no communication was hidden under compute"
    );
    // S and T passes were recorded and accounted.
    assert!(timeline.time_by_name.contains_key("S"));
    assert!(timeline.time_by_name.contains_key("T"));
    // The export carries every compute event as a duration event.
    assert_eq!(
        chrome.matches("\"ph\":\"X\"").count(),
        events.len(),
        "exporter dropped events"
    );
    assert_eq!(chrome.matches('{').count(), chrome.matches('}').count());
    assert!(chrome.contains("comm-stream"));
    assert!(chrome.contains("\"microbatch\":3"));
}

/// The untraced entry point stays on the event-free fast path: same losses
/// as the traced run (tracing must not perturb numerics), and no trace
/// machinery is observable.
#[test]
fn traced_and_untraced_runs_train_identically() {
    let config = TinyConfig::default();
    let schedule = generators::vocab_1f1b(
        4,
        config.microbatches as u32,
        VocabVariant::Alg2,
        PassTimes::default(),
        true,
    );
    let plain = train_schedule(&config, &schedule, 2, &DataSource::synthetic(&config)).unwrap();
    let (traced, log) =
        train_schedule_traced(&config, &schedule, 2, &DataSource::synthetic(&config)).unwrap();
    assert_eq!(plain.losses, traced.losses, "tracing changed the numerics");
    assert!(!log.is_empty());
}
