//! Randomized tests over the schedule machinery, driven by a deterministic
//! seed sweep: for arbitrary device counts, microbatch counts, pass-time
//! ratios and variants, generated schedules must validate, complete,
//! respect the §5.2 memory bounds and sustain steady-state throughput.

use vp_schedule::block::PassTimes;
use vp_schedule::exec::{Executor, UnitCosts};
use vp_schedule::generators;
use vp_schedule::pass::{PassKind, VocabVariant};

/// Minimal SplitMix64 — vp-schedule deliberately has no tensor dependency,
/// so the tests carry their own deterministic generator.
struct Mix(u64);

impl Mix {
    fn new(seed: u64) -> Self {
        Mix(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo)
    }
    fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
    fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

fn random_times(rng: &mut Mix) -> PassTimes {
    PassTimes {
        f: rng.f64_range(0.5, 2.0),
        b: rng.f64_range(1.0, 3.0),
        w: 0.0,
        s: rng.f64_range(0.02, 0.8),
        t: rng.f64_range(0.02, 0.8),
        input_f: 0.05,
        input_b: 0.05,
        comm: 0.01,
    }
}

fn random_variant(rng: &mut Mix) -> VocabVariant {
    [VocabVariant::Naive, VocabVariant::Alg1, VocabVariant::Alg2][rng.range(0, 3)]
}

/// Every generated vocabulary schedule validates, runs to completion,
/// contains exactly `m` of each pass per device, and its simulated
/// peak activation stays within `p − d + barriers` microbatches.
#[test]
fn vocab_schedules_are_valid_and_memory_bounded() {
    for seed in 0..32u64 {
        let mut rng = Mix::new(seed);
        let p = rng.range(2, 7);
        let m = rng.range(4, 24) as u32;
        let variant = random_variant(&mut rng);
        let times = random_times(&mut rng);
        let include_input = rng.bool();
        let schedule = generators::vocab_1f1b(p, m, variant, times, include_input);
        let graph = vp_schedule::deps::validate(&schedule).expect("schedule validates");
        let costs = UnitCosts::new(times, 1);
        let report = Executor::new(&costs)
            .run_with_graph(&schedule, &graph, &[])
            .expect("a validated schedule runs to completion");
        for d in 0..p {
            assert_eq!(
                schedule.count_kind(d, PassKind::F),
                m as usize,
                "seed {seed}"
            );
            assert_eq!(
                schedule.count_kind(d, PassKind::B),
                m as usize,
                "seed {seed}"
            );
            assert_eq!(
                schedule.count_kind(d, PassKind::T),
                m as usize,
                "seed {seed}"
            );
            let cap = (p - d + variant.barriers()).min(m as usize);
            assert!(
                report.peak_resident_microbatches[d] <= cap,
                "seed {seed} device {d}: {} > {cap}",
                report.peak_resident_microbatches[d]
            );
        }
        // Sanity: the makespan at least covers one device's work.
        assert!(report.makespan >= report.busy[0] - 1e-9, "seed {seed}");
    }
}

/// Steady-state throughput: with enough microbatches, the makespan is
/// close to work + fill/drain for every variant and time ratio.
#[test]
fn vocab_schedules_sustain_throughput() {
    for seed in 100..132u64 {
        let mut rng = Mix::new(seed);
        let p = rng.range(2, 6);
        let variant = random_variant(&mut rng);
        let times = random_times(&mut rng);
        let m = 48u32;
        let schedule = generators::vocab_1f1b(p, m, variant, times, false);
        let costs = UnitCosts::new(times, 1);
        let report = Executor::new(&costs).run(&schedule).unwrap();
        let out: f64 = variant
            .output_passes()
            .iter()
            .map(|&k| times.duration(k))
            .sum();
        let interval = times.f + times.b + out;
        let work = interval * m as f64;
        let fill = (p as f64 + variant.barriers() as f64 + 2.0) * interval;
        // Allow a few percent of greedy-packing slack at extreme pass-time
        // ratios (e.g. b ≈ 5f): the synthesized order is near-optimal, not
        // optimal.
        assert!(
            report.makespan < 1.05 * work + fill,
            "seed {seed} p={p} {variant:?}: makespan {} vs work {work} + fill {fill}",
            report.makespan
        );
    }
}

/// Plain 1F1B keeps its classical properties under arbitrary times.
#[test]
fn one_f_one_b_classical_properties() {
    for seed in 200..232u64 {
        let mut rng = Mix::new(seed);
        let p = rng.range(2, 8);
        let m = rng.range(4, 32) as u32;
        let times = random_times(&mut rng);
        let schedule = generators::one_f_one_b(p, m, times);
        let costs = UnitCosts::new(times, 1);
        let report = Executor::new(&costs).run(&schedule).unwrap();
        for d in 0..p {
            assert!(
                report.peak_resident_microbatches[d] <= (p - d).min(m as usize),
                "seed {seed} device {d}"
            );
        }
    }
}

/// V-Half: valid, complete, and balanced in activation units across
/// devices.
#[test]
fn vhalf_is_valid_and_balanced() {
    for seed in 300..332u64 {
        let mut rng = Mix::new(seed);
        let p = rng.range(2, 6);
        let extra_m = rng.range(0, 16) as u32;
        let vocab = rng.bool();
        // Balance is a steady-state property: use enough microbatches that
        // every device reaches its in-flight budget.
        let m = 4 * p as u32 + extra_m;
        let times = PassTimes {
            f: 1.0,
            b: 1.0,
            w: 1.0,
            ..PassTimes::default()
        };
        let schedule = if vocab {
            generators::vhalf_vocab(p, m, VocabVariant::Alg1, times, true)
        } else {
            generators::vhalf(p, m, times)
        };
        let costs = UnitCosts::new(times, 2);
        let report = Executor::new(&costs).run(&schedule).unwrap();
        let max = report
            .peak_activation_units
            .iter()
            .cloned()
            .fold(0.0f64, f64::max);
        let min = report
            .peak_activation_units
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(
            max - min <= 2.0,
            "seed {seed} units {:?}",
            report.peak_activation_units
        );
        for d in 0..p {
            assert_eq!(
                schedule.count_kind(d, PassKind::F),
                2 * m as usize,
                "seed {seed}"
            );
        }
    }
}

/// The interlaced schedule is valid and its memory exceeds plain
/// 1F1B's (the Appendix B.1 claim).
#[test]
fn interlaced_holds_more_activations() {
    for seed in 400..432u64 {
        let mut rng = Mix::new(seed);
        let p = rng.range(3, 7);
        let m = rng.range(8, 24) as u32;
        let times = PassTimes::default();
        let inter = generators::interlaced_1f1b(p, m, times);
        let plain = generators::one_f_one_b(p, m, times);
        let costs = UnitCosts::new(times, 1);
        let ri = Executor::new(&costs).run(&inter).unwrap();
        let rp = Executor::new(&costs).run(&plain).unwrap();
        // Compare mid-pipeline devices (device 0 saturates at m).
        let d = p / 2;
        assert!(
            ri.peak_resident_microbatches[d] >= rp.peak_resident_microbatches[d],
            "seed {seed} device {d}: interlaced {} vs plain {}",
            ri.peak_resident_microbatches[d],
            rp.peak_resident_microbatches[d]
        );
    }
}
