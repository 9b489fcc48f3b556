//! The launcher-side lane budget against real runs. This test sets the
//! process-wide assumed core count and thread cap, so it has a binary to
//! itself (the pool-level budget mechanics are unit-tested in
//! `vp_tensor::pool`).

use vp_runtime::serve::{Request, ServeConfig, ServeEngine, WorkloadSpec};
use vp_runtime::{train_schedule, DataSource, TinyConfig};
use vp_schedule::block::PassTimes;
use vp_schedule::generators::vocab_1f1b;
use vp_schedule::pass::VocabVariant;
use vp_tensor::pool;

/// Big enough that the block GEMMs (16 rows) split by rows and the
/// output-layer GEMMs (a few rows against 512 columns) by column panels
/// once a device thread has two lanes.
fn model() -> TinyConfig {
    TinyConfig {
        hidden: 64,
        vocab: 1024,
        ..TinyConfig::default()
    }
}

fn pp2_losses() -> Vec<u64> {
    let config = model();
    let schedule = vocab_1f1b(
        2,
        config.microbatches as u32,
        VocabVariant::Alg2,
        PassTimes::default(),
        true,
    );
    let report = train_schedule(&config, &schedule, 3, &DataSource::synthetic(&config)).unwrap();
    report.losses.iter().map(|l| l.to_bits()).collect()
}

fn pp2_streams(overlap: bool) -> Vec<(usize, Vec<usize>)> {
    let config = ServeConfig {
        model: model(),
        devices: 2,
        max_batch: 4,
        overlap,
        ..ServeConfig::default()
    };
    let requests: Vec<Request> = WorkloadSpec {
        requests: 6,
        rate: None,
        prompt_len: (2, 6),
        output_len: (2, 6),
        seed: 5,
    }
    .generate(config.model.vocab, config.model.seq_len);
    let mut engine = ServeEngine::start(config).unwrap();
    let run = engine.serve(&requests);
    engine.shutdown();
    let mut streams: Vec<_> = run
        .completions
        .into_iter()
        .map(|c| (c.id, c.tokens))
        .collect();
    streams.sort_unstable();
    streams
}

#[test]
fn pp2_training_and_decode_are_bitwise_the_same_on_one_and_two_lanes() {
    // Let two lanes really dispatch, whatever this box's core count.
    vp_tensor::set_num_threads(4);
    let mut runs = Vec::new();
    for (cores, lanes) in [(2, 1), (4, 2)] {
        pool::set_assumed_cores(cores);
        assert_eq!(pool::lanes_per_device(2), lanes);
        runs.push((pp2_losses(), pp2_streams(false), pp2_streams(true)));
        // The budget belongs to the device threads the launcher and the
        // engine spawned, and went with them: the caller never had one.
        assert_eq!(pool::lane_budget(), None);
    }
    pool::set_assumed_cores(0);
    let (one_lane, two_lanes) = (&runs[0], &runs[1]);
    assert_eq!(
        one_lane.0, two_lanes.0,
        "loss bits moved with the lane budget"
    );
    assert_eq!(
        one_lane.1, two_lanes.1,
        "token streams moved with the lane budget"
    );
    assert_eq!(one_lane.1, one_lane.2, "overlap serves the inline streams");
    assert_eq!(one_lane.2, two_lanes.2);
    assert!(one_lane.0.len() == 3 && one_lane.1.len() == 6);
}
