//! Memory-equivalence property tests: the numeric interpreter's observed
//! peak resident activations (`TrainReport::exec`) must match the
//! analytical executor's memory trace pass-for-pass, for every schedule
//! family the engine runs. Both sides count `F` (+1) / `B` (−1) events in
//! per-device program order, so the equality is exact — any drift means
//! the runtime holds activations longer than the §5.2 analysis claims.

use vp_runtime::{train_schedule, DataSource, TinyConfig};
use vp_schedule::block::PassTimes;
use vp_schedule::exec::{Executor, UnitCosts};
use vp_schedule::generators;
use vp_schedule::pass::{Schedule, VocabVariant};

const SWEEP_P: [usize; 3] = [2, 3, 4];
const SWEEP_M: [u32; 3] = [4, 6, 8];
const VARIANTS: [VocabVariant; 2] = [VocabVariant::Alg1, VocabVariant::Alg2];

/// Trains one iteration of `schedule` and returns the interpreter's
/// observed per-device peak resident microbatch-chunk activations.
fn numeric_peaks(schedule: &Schedule) -> Vec<usize> {
    let config = TinyConfig {
        layers: schedule.virtual_stages(),
        microbatches: schedule.num_microbatches() as usize,
        ..TinyConfig::default()
    };
    let report = train_schedule(&config, schedule, 1, &DataSource::synthetic(&config)).unwrap();
    report.exec.peak_resident_microbatches
}

/// Runs the analytical executor on the same schedule and returns its
/// peak resident microbatches.
fn analytical_peaks(schedule: &Schedule, times: PassTimes) -> Vec<usize> {
    let costs = UnitCosts::new(times, schedule.chunks());
    let report = Executor::new(&costs).run(schedule).unwrap();
    report.peak_resident_microbatches
}

fn assert_peaks_match(label: &str, schedule: &Schedule, times: PassTimes) -> Vec<usize> {
    let analytical = analytical_peaks(schedule, times);
    let numeric = numeric_peaks(schedule);
    assert_eq!(
        numeric, analytical,
        "{label}: numeric vs analytical peak resident activations"
    );
    analytical
}

#[test]
fn vocab_1f1b_peaks_match_analysis_and_paper_bounds() {
    let times = PassTimes::default();
    for p in SWEEP_P {
        for m in SWEEP_M {
            for variant in VARIANTS {
                let schedule = generators::vocab_1f1b(p, m, variant, times, true);
                let peaks =
                    assert_peaks_match(&format!("vocab p={p} m={m} {variant:?}"), &schedule, times);
                // §5.2: relative to plain 1F1B's warmup peak of p on device
                // 0, Algorithm 1 keeps 2 extra in-flight microbatches and
                // Algorithm 2 keeps 1 (both capped by m).
                let extra = match variant {
                    VocabVariant::Alg1 => 2,
                    VocabVariant::Alg2 => 1,
                    VocabVariant::Naive => unreachable!(),
                };
                assert_eq!(
                    peaks[0],
                    (p + extra).min(m as usize),
                    "vocab p={p} m={m} {variant:?}: device-0 peak"
                );
            }
        }
    }
}

#[test]
fn zb_vocab_1f1b_peaks_match_analysis() {
    let times = PassTimes {
        f: 1.0,
        b: 1.0,
        w: 1.0,
        ..PassTimes::default()
    };
    for p in SWEEP_P {
        for m in SWEEP_M {
            for variant in VARIANTS {
                let schedule = generators::zb_vocab_1f1b(p, m, variant, times, true);
                let peaks =
                    assert_peaks_match(&format!("zb p={p} m={m} {variant:?}"), &schedule, times);
                // Splitting B into B/W defers weight gradients, not
                // activations: the zero-bubble peaks equal the 1F1B ones.
                let extra = if variant == VocabVariant::Alg1 { 2 } else { 1 };
                assert_eq!(peaks[0], (p + extra).min(m as usize));
            }
        }
    }
}

#[test]
fn interleaved_vocab_1f1b_peaks_match_analysis() {
    let times = PassTimes {
        f: 0.5,
        b: 1.0,
        ..PassTimes::default()
    };
    for p in SWEEP_P {
        for m in SWEEP_M {
            for variant in VARIANTS {
                let schedule = generators::interleaved_vocab_1f1b(p, 2, m, variant, times, true);
                assert_peaks_match(
                    &format!("interleaved p={p} m={m} {variant:?}"),
                    &schedule,
                    times,
                );
            }
        }
    }
}
