//! Buffer-arena hygiene: KV caches across request retirement, and pooled
//! vs fresh training. These tests read (and one toggles) the process-global
//! `alloc` state, so they live in a binary of their own: cargo runs test
//! binaries one at a time, and the tests here serialize on [`arena_lock`],
//! so nothing else allocates while one of them is between its baseline and
//! its final reading.

use std::sync::{Mutex, MutexGuard, OnceLock};

use vp_runtime::serve::{Request, ServeConfig, ServeEngine, WorkloadSpec};
use vp_runtime::{train_schedule, DataSource, TinyConfig, TrainReport};
use vp_schedule::block::PassTimes;
use vp_schedule::generators;
use vp_schedule::pass::VocabVariant;
use vp_tensor::alloc;

/// Serializes the tests of this binary.
fn arena_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn serve_config(devices: usize, max_batch: usize) -> ServeConfig {
    ServeConfig {
        model: TinyConfig::default(),
        devices,
        max_batch,
        top_k: 4,
        ..ServeConfig::default()
    }
}

fn closed_loop(requests: usize, seed: u64) -> Vec<Request> {
    WorkloadSpec {
        requests,
        rate: None,
        prompt_len: (2, 6),
        output_len: (1, 8),
        seed,
    }
    .generate(TinyConfig::default().vocab, TinyConfig::default().seq_len)
}

#[test]
fn kv_outstanding_returns_to_baseline_at_every_pipeline_depth() {
    // Regression: at p=1 the old engine leaked one buffer per retired
    // request (masked at p≥2 by release over-counting in the packet
    // path). Every depth must now return to its post-warmup baseline.
    let _guard = arena_lock();
    for devices in [1, 2, 4] {
        let config = serve_config(devices, 2);
        let mut engine = ServeEngine::start(config).unwrap();
        engine.serve(&closed_loop(4, 50 + devices as u64));
        let baseline = alloc::stats().outstanding;
        let run = engine.serve(&closed_loop(6, 60 + devices as u64));
        assert_eq!(run.completions.len(), 6);
        assert_eq!(
            alloc::stats().outstanding,
            baseline,
            "serving at p={devices} leaked arena buffers"
        );
        engine.shutdown();
    }
}

#[test]
fn retired_requests_release_their_kv_caches_back_to_the_arena() {
    let _guard = arena_lock();
    let config = serve_config(2, 2);
    let mut engine = ServeEngine::start(config).unwrap();
    // Warm up: first wave of requests grows the caches.
    engine.serve(&closed_loop(4, 41));
    let baseline = alloc::stats().outstanding;
    alloc::reset_counters();
    // Steady state: every retirement must return its buffers, so
    // outstanding ends where it started and readmissions reuse the pool.
    let run = engine.serve(&closed_loop(8, 42));
    assert_eq!(run.completions.len(), 8);
    let after = alloc::stats();
    assert_eq!(
        after.outstanding, baseline,
        "request retirement leaked arena buffers"
    );
    assert!(
        after.reuse_ratio() > 0.5,
        "steady-state serving should reuse pooled buffers, ratio {}",
        after.reuse_ratio()
    );
    engine.shutdown();
}

/// Recycling buffers through the tensor arena must not perturb training
/// numerics: fresh-allocation, warm-up and warmed-pool runs of the same
/// schedule produce bitwise identical loss trajectories, and the warmed run
/// is served (nearly) entirely from recycled buffers — on the headline
/// Vocab-2 1F1B and on its zero-bubble extension, whose `B`/`W` split
/// churns the most per-pass buffers.
#[test]
fn pooled_and_fresh_runs_train_identically() {
    let _guard = arena_lock();
    let config = TinyConfig::default();
    let corpus = DataSource::synthetic(&config);
    let m = config.microbatches as u32;
    let zb_times = PassTimes {
        f: 1.0,
        b: 1.0,
        w: 1.0,
        ..PassTimes::default()
    };
    let schedules = [
        (
            "vocab-2-1f1b",
            generators::vocab_1f1b(4, m, VocabVariant::Alg2, PassTimes::default(), true),
        ),
        (
            "zb-vocab-2",
            generators::zb_vocab_1f1b(4, m, VocabVariant::Alg2, zb_times, true),
        ),
    ];
    let bits = |r: &TrainReport| -> Vec<u64> { r.losses.iter().map(|l| l.to_bits()).collect() };
    for (name, schedule) in &schedules {
        alloc::set_enabled(false);
        let fresh = train_schedule(&config, schedule, 3, &corpus).unwrap();
        alloc::set_enabled(true);
        // Warm-up run populates the pool; the second run reads recycled buffers.
        let warm = train_schedule(&config, schedule, 3, &corpus).unwrap();
        alloc::reset_counters();
        let pooled = train_schedule(&config, schedule, 3, &corpus).unwrap();
        let stats = alloc::stats();
        assert!(
            stats.reuse_ratio() > 0.9,
            "{name}: steady run barely recycled: {stats:?}"
        );
        assert_eq!(
            bits(&fresh),
            bits(&warm),
            "{name}: arena changed the numerics"
        );
        assert_eq!(
            bits(&fresh),
            bits(&pooled),
            "{name}: recycled buffers leaked state"
        );
        assert_eq!(fresh.iter_wall.len(), 3);
        assert_eq!(pooled.iter_wall.len(), 3);
    }
}
