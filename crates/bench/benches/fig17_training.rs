//! Timing bench for the Figure 17 training comparison: one full tiny
//! training iteration under each implementation (reference, pipelined
//! baseline, pipelined Vocab-1/Vocab-2). Plain harness: prints median
//! wall-clock per iteration.

use std::hint::black_box;
use std::time::Instant;
use vp_model::cost::VocabAlgo;
use vp_runtime::{
    schedule_for, train_reference, train_schedule, DataSource, Mode, ScheduleFamily, TinyConfig,
};

fn bench(name: &str, iters: u32, mut f: impl FnMut()) {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    println!(
        "{name}: {:.3} ms/iter (median of {} runs)",
        samples[samples.len() / 2] * 1e3,
        samples.len()
    );
}

fn main() {
    let config = TinyConfig::default();
    bench("fig17_one_iteration/reference", 3, || {
        black_box(train_reference(&config, 1).expect("trains"));
    });
    let modes = [
        ("pipeline-baseline", Mode::Baseline),
        ("pipeline-vocab-1", Mode::Vocab(VocabAlgo::Alg1)),
        ("pipeline-vocab-2", Mode::Vocab(VocabAlgo::Alg2)),
    ];
    let corpus = DataSource::synthetic(&config);
    for (name, mode) in modes {
        let schedule = schedule_for(
            mode,
            ScheduleFamily::OneFOneB,
            4,
            config.microbatches as u32,
        )
        .expect("streamed mode");
        bench(&format!("fig17_one_iteration/{name}"), 3, || {
            black_box(train_schedule(&config, &schedule, 1, &corpus).expect("trains"));
        });
    }
}
