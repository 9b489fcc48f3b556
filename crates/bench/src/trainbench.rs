//! End-to-end training benchmark over the Figure-17 config.
//!
//! Backs the `repro trainbench [--json]` subcommand (`BENCH_train.json`):
//! for each benchmark schedule the harness runs the numeric pass-VM three
//! times through the tensor buffer arena's lifecycle —
//!
//! 1. **fresh** — arena disabled, every buffer from the system allocator;
//!    the loss trajectory is the reference the pooled runs must match
//!    bitwise,
//! 2. **cold** — arena enabled on an empty pool, so allocations are fresh
//!    but every drop seeds the pool,
//! 3. **steady** — same run again on the warmed pool; this is the state a
//!    long training job lives in, and its counters must show the arena
//!    serving (nearly) every request from recycled buffers.
//!
//! The steady run also reports per-iteration wall times (earliest device
//! start to latest device end, gradient sync and optimizer step included),
//! which is the wall-time figure the CI regression gate tracks.

use vp_runtime::{DataSource, TinyConfig};
use vp_schedule::block::PassTimes;
use vp_schedule::generators;
use vp_schedule::pass::{Schedule, VocabVariant};
use vp_tensor::alloc::{self, ArenaStats};

use crate::table::{json_escape, json_f64};

/// One schedule's three-phase measurement.
#[derive(Debug, Clone)]
pub struct TrainTiming {
    /// Schedule name (e.g. `vocab-2-1f1b`).
    pub name: &'static str,
    /// Devices the schedule runs on.
    pub devices: usize,
    /// Iterations per run.
    pub iterations: usize,
    /// Final-iteration loss of the fresh (arena-disabled) run.
    pub final_loss: f64,
    /// Whether cold and steady pooled losses were bitwise identical to the
    /// fresh run's — the arena's numerics contract.
    pub pooled_bitwise_identical: bool,
    /// Arena counters over the cold run (empty pool: `fresh` dominates).
    pub cold: ArenaStats,
    /// Arena counters over the steady run (warm pool: `reuse` dominates,
    /// `fresh` near zero).
    pub steady: ArenaStats,
    /// Per-iteration wall-clock µs of the steady run.
    pub steady_iter_us: Vec<f64>,
}

impl TrainTiming {
    /// Median per-iteration wall time of the steady run, µs.
    pub fn median_iter_us(&self) -> f64 {
        let mut sorted = self.steady_iter_us.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        sorted.get(sorted.len() / 2).copied().unwrap_or(0.0)
    }
}

/// The benchmark schedules: the paper's headline Vocab-2 1F1B and its
/// zero-bubble extension (whose `B`/`W` split churns the most per-pass
/// buffers — shadow-block clones and deferred gradient stashes).
fn schedules(config: &TinyConfig) -> Vec<(&'static str, Schedule)> {
    let mb = config.microbatches as u32;
    vec![
        (
            "vocab-2-1f1b",
            generators::vocab_1f1b(4, mb, VocabVariant::Alg2, PassTimes::default(), true),
        ),
        (
            "zb-vocab-2",
            generators::zb_vocab_1f1b(
                4,
                mb,
                VocabVariant::Alg2,
                PassTimes {
                    f: 1.0,
                    b: 1.0,
                    w: 1.0,
                    ..PassTimes::default()
                },
                true,
            ),
        ),
    ]
}

fn bits(losses: &[f64]) -> Vec<u64> {
    losses.iter().map(|l| l.to_bits()).collect()
}

/// Runs the three-phase bench over every schedule. Leaves the arena
/// enabled (the process default) on return.
///
/// # Panics
///
/// Panics if a schedule fails to train — the bench measures working
/// configurations only.
pub fn run(iterations: usize) -> Vec<TrainTiming> {
    let config = TinyConfig::default();
    let corpus = DataSource::synthetic(&config);
    let mut results = Vec::new();
    for (name, schedule) in schedules(&config) {
        // Phase 1: fresh — the system-allocator reference trajectory.
        alloc::set_enabled(false);
        let fresh = vp_runtime::train_schedule(&config, &schedule, iterations, &corpus)
            .unwrap_or_else(|e| panic!("{name}: fresh run failed: {e}"));
        // Phase 2: cold — empty pool, every drop seeds it.
        alloc::set_enabled(true);
        alloc::trim();
        alloc::reset_counters();
        let cold_report = vp_runtime::train_schedule(&config, &schedule, iterations, &corpus)
            .unwrap_or_else(|e| panic!("{name}: cold run failed: {e}"));
        let cold = alloc::stats();
        // Phase 3: steady — the warmed pool serves (nearly) everything.
        alloc::reset_counters();
        let steady_report = vp_runtime::train_schedule(&config, &schedule, iterations, &corpus)
            .unwrap_or_else(|e| panic!("{name}: steady run failed: {e}"));
        let steady = alloc::stats();
        results.push(TrainTiming {
            name,
            devices: schedule.devices(),
            iterations,
            final_loss: fresh.losses.last().copied().unwrap_or(f64::NAN),
            pooled_bitwise_identical: bits(&fresh.losses) == bits(&cold_report.losses)
                && bits(&fresh.losses) == bits(&steady_report.losses),
            cold,
            steady,
            steady_iter_us: steady_report.iter_wall.iter().map(|w| w * 1e6).collect(),
        });
    }
    results
}

fn stats_json(s: &ArenaStats) -> String {
    format!(
        "{{\"fresh\": {}, \"reuse\": {}, \"outstanding\": {}, \"cached\": {}, \"reuse_ratio\": {}}}",
        s.fresh,
        s.reuse,
        s.outstanding,
        s.cached,
        json_f64(s.reuse_ratio())
    )
}

/// Renders the bench as the `BENCH_train.json` document.
pub fn to_json(iterations: usize, results: &[TrainTiming]) -> String {
    let config = TinyConfig::default();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"train\",\n");
    out.push_str("  \"generated_by\": \"repro trainbench --json\",\n");
    out.push_str("  \"unit\": \"us_per_iteration\",\n");
    out.push_str(&format!(
        "  \"config\": {{\"layers\": {}, \"hidden\": {}, \"heads\": {}, \"seq_len\": {}, \"vocab\": {}, \"microbatches\": {}}},\n",
        config.layers, config.hidden, config.heads, config.seq_len, config.vocab, config.microbatches
    ));
    out.push_str(&format!("  \"iterations\": {iterations},\n"));
    out.push_str("  \"schedules\": [\n");
    for (i, t) in results.iter().enumerate() {
        let iter_us: Vec<String> = t.steady_iter_us.iter().map(|&w| json_f64(w)).collect();
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"devices\": {}, \"final_loss\": {}, \"pooled_bitwise_identical\": {}, \"median_steady_iter_us\": {}, \"steady_iter_us\": [{}], \"cold\": {}, \"steady\": {}}}{}\n",
            json_escape(t.name),
            t.devices,
            json_f64(t.final_loss),
            t.pooled_bitwise_identical,
            json_f64(t.median_iter_us()),
            iter_us.join(", "),
            stats_json(&t.cold),
            stats_json(&t.steady),
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena_test_lock as arena_lock;

    #[test]
    fn three_phase_bench_recycles_and_stays_bitwise_identical() {
        let _guard = arena_lock();
        let results = run(2);
        assert_eq!(results.len(), 2);
        for t in &results {
            assert!(t.final_loss.is_finite(), "{}", t.name);
            assert!(
                t.pooled_bitwise_identical,
                "{}: arena changed numerics",
                t.name
            );
            assert_eq!(t.steady_iter_us.len(), 2, "{}", t.name);
            assert!(t.steady_iter_us.iter().all(|&w| w > 0.0), "{}", t.name);
            assert!(t.median_iter_us() > 0.0, "{}", t.name);
            // The cold run allocates; the steady run recycles.
            assert!(t.cold.fresh > 0, "{}: {:?}", t.name, t.cold);
            assert!(t.steady.reuse > 0, "{}: {:?}", t.name, t.steady);
            assert!(
                t.steady.reuse_ratio() > 0.9,
                "{}: steady run barely recycled: {:?}",
                t.name,
                t.steady
            );
        }
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let _guard = arena_lock();
        let results = run(2);
        let doc = to_json(2, &results);
        assert!(doc.contains("\"bench\": \"train\""));
        assert!(doc.contains("\"vocab-2-1f1b\""));
        assert!(doc.contains("\"zb-vocab-2\""));
        assert!(doc.contains("\"pooled_bitwise_identical\": true"));
        assert!(doc.contains("\"median_steady_iter_us\""));
        assert!(doc.contains("\"reuse_ratio\""));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }
}
