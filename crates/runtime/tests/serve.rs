//! Serving-path integration tests: the pipelined, KV-cached,
//! vocabulary-sharded decode engine against the single-device
//! full-context reference. (KV-cache arena hygiene across request
//! retirement reads process-global counters and lives in its own binary,
//! `arena.rs`.)

use vp_runtime::serve::{
    greedy_matches_reference, reference_decode, Request, ServeConfig, ServeEngine, WorkloadSpec,
};
use vp_runtime::TinyConfig;

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
fn greedy_decode_is_bitwise_equal_to_reference_across_shard_counts() {
    for devices in [1, 2, 4] {
        let config = serve_config(devices, 3);
        let requests = closed_loop(6, 100 + devices as u64);
        assert!(
            greedy_matches_reference(&config, &requests).unwrap(),
            "tokens diverged from reference at p={devices}"
        );
    }
}

#[test]
fn tied_greedy_decode_is_bitwise_equal_to_reference_across_shard_counts() {
    // Tied, each device's output pack is built from the input table's rows.
    for devices in [1, 2, 4] {
        let mut config = serve_config(devices, 3);
        config.model.tied = true;
        let requests = closed_loop(6, 200 + devices as u64);
        assert!(
            greedy_matches_reference(&config, &requests).unwrap(),
            "tied tokens diverged from reference at p={devices}"
        );
    }
}

#[test]
fn overlapped_decode_is_bitwise_equal_to_reference_across_shard_counts() {
    // Splitting S from T moves *when* the sampling barrier resolves, not
    // what it computes: tokens must stay bitwise pinned to the reference.
    for devices in [1, 2, 4] {
        let mut config = serve_config(devices, 3);
        config.overlap = true;
        let requests = closed_loop(6, 100 + devices as u64);
        assert!(
            greedy_matches_reference(&config, &requests).unwrap(),
            "overlap tokens diverged from reference at p={devices}"
        );
    }
}

#[test]
fn every_step_runs_one_output_gemm_and_one_gather_per_device() {
    // The engine's schedules group the whole batch under one S: however
    // many slots a step carries, each device reads its vocabulary shard
    // once and the devices rendezvous once.
    for devices in [1, 2, 4] {
        for overlap in [false, true] {
            let mut config = serve_config(devices, 3);
            config.overlap = overlap;
            let mut engine = ServeEngine::start(config).unwrap();
            for seed in [7, 8] {
                let run = engine.serve(&closed_loop(7, seed));
                assert!(run.steps > 7, "several slots per step");
                assert_eq!(
                    run.s_passes,
                    run.steps * devices,
                    "p={devices} ov={overlap}"
                );
                assert_eq!(run.gathers, run.steps * devices, "p={devices} ov={overlap}");
            }
            engine.shutdown();
        }
    }
}

#[test]
fn a_step_mixing_prefill_decode_and_a_retirement_samples_all_three_right() {
    // Step 2 of this stream carries, under its one S: slot 0 in the middle
    // of a chunked prefill (its sample is discarded), slot 1 decoding, and
    // slot 2 — whose first request retired after step 1, so the step
    // releases its caches — prefilling the request admitted in its place.
    let prompts: [&[usize]; 4] = [&[5, 11, 2, 90, 33, 7, 41], &[17], &[63], &[8, 29, 54]];
    let outputs = [2, 5, 1, 2];
    let requests: Vec<Request> = prompts
        .iter()
        .zip(outputs)
        .enumerate()
        .map(|(id, (prompt, output_len))| Request {
            id,
            prompt: prompt.to_vec(),
            output_len,
            arrival: std::time::Duration::ZERO,
        })
        .collect();
    for devices in [1, 2, 4] {
        for overlap in [false, true] {
            let mut config = serve_config(devices, 3);
            config.prefill_chunk = 2;
            config.overlap = overlap;
            let model = config.model.clone();
            let mut engine = ServeEngine::start(config).unwrap();
            let run = engine.serve(&requests);
            engine.shutdown();
            // 4 + 1 steps for request 0's prompt and outputs; everything
            // else fits beside it.
            assert_eq!(run.steps, 5, "p={devices} ov={overlap}");
            assert_eq!(run.s_passes, 5 * devices);
            assert_eq!(run.gathers, 5 * devices);
            assert_eq!(run.completions.len(), 4);
            assert_eq!(run.completions[0].id, 2, "request 2 retires after step 1");
            for c in &run.completions {
                let r = &requests[c.id];
                let want = reference_decode(&model, &r.prompt, r.output_len).unwrap();
                assert_eq!(c.tokens, want, "request {} p={devices} ov={overlap}", c.id);
            }
        }
    }
}

#[test]
fn chunked_prefill_matches_the_reference_at_every_chunk_size() {
    // Prompts fed 1, 3, 8 or 16 tokens at a time must land on the same
    // greedy continuation (attention over a chunk is bitwise equal to
    // token-at-a-time attention against the same KV prefix).
    for chunk in [1, 3, 8, 16] {
        let mut config = serve_config(2, 3);
        config.prefill_chunk = chunk;
        let requests = closed_loop(6, 77);
        assert!(
            greedy_matches_reference(&config, &requests).unwrap(),
            "tokens diverged from reference at prefill_chunk={chunk}"
        );
    }
}

#[test]
fn completions_are_bitwise_independent_of_batch_size_and_prefill_chunk() {
    // Rows are independent through every kernel, so neither how many
    // requests share a step nor how many prompt tokens a step feeds may
    // move a token or a logprob bit. Compared within each p only: the
    // vocabulary shards reduce the softmax statistics per shard, so the
    // logprob bits still depend on p.
    let requests = WorkloadSpec {
        requests: 8,
        rate: None,
        prompt_len: (2, 12),
        output_len: (1, 8),
        seed: 5,
    }
    .generate(TinyConfig::default().vocab, TinyConfig::default().seq_len);
    for devices in [1, 2, 4] {
        let mut want = None;
        for max_batch in [1, 3, 8] {
            for prefill_chunk in [1, 4, 16] {
                let config = ServeConfig {
                    prefill_chunk,
                    ..serve_config(devices, max_batch)
                };
                let mut engine = ServeEngine::start(config).unwrap();
                let mut run = engine.serve(&requests);
                engine.shutdown();
                run.completions.sort_by_key(|c| c.id);
                let got: Vec<(Vec<usize>, Vec<u32>)> = run
                    .completions
                    .iter()
                    .map(|c| {
                        (
                            c.tokens.clone(),
                            c.logprobs.iter().map(|l| l.to_bits()).collect(),
                        )
                    })
                    .collect();
                assert_eq!(got.len(), requests.len());
                let want = want.get_or_insert(got.clone());
                assert_eq!(
                    &got, want,
                    "p={devices} max_batch={max_batch} prefill_chunk={prefill_chunk}"
                );
            }
        }
    }
}

#[test]
fn tiny_kv_pool_applies_backpressure_and_still_completes_every_request() {
    // A pool that fits roughly one request at a time turns admission into
    // backpressure: requests queue for blocks instead of a device pool
    // panicking mid-flight, and every request still finishes.
    let mut config = serve_config(2, 4);
    config.kv_block = 2;
    // Worst case per request: ⌈(6+8)/2⌉ blocks × 2 layers/device = 14.
    config.kv_capacity_blocks = Some(14);
    let requests = closed_loop(8, 55);
    let want: usize = requests.iter().map(|r| r.output_len).sum();
    let mut engine = ServeEngine::start(config).unwrap();
    let run = engine.serve(&requests);
    engine.shutdown();
    assert_eq!(run.completions.len(), 8);
    assert_eq!(run.tokens(), want);
}

#[test]
fn continuous_batching_completes_every_request_under_poisson_load() {
    let config = serve_config(2, 4);
    let requests = WorkloadSpec {
        requests: 12,
        rate: Some(200.0),
        prompt_len: (2, 5),
        output_len: (1, 6),
        seed: 21,
    }
    .generate(config.model.vocab, config.model.seq_len);
    let mut engine = ServeEngine::start(config).unwrap();
    let run = engine.serve(&requests);
    engine.shutdown();
    assert_eq!(run.completions.len(), 12);
    let want: usize = requests.iter().map(|r| r.output_len).sum();
    assert_eq!(run.tokens(), want);
    assert!(run.occupancy() > 0.0 && run.occupancy() <= 1.0);
    assert_eq!(run.latency.len(), want);
    assert!(run.latency_quantile(0.99) >= run.latency_quantile(0.5));
}

#[test]
fn logprobs_are_finite_and_nonpositive() {
    let config = serve_config(2, 2);
    let mut engine = ServeEngine::start(config).unwrap();
    let run = engine.serve(&closed_loop(4, 31));
    engine.shutdown();
    for c in &run.completions {
        for &lp in &c.logprobs {
            assert!(lp.is_finite() && lp <= 0.0, "logprob {lp}");
        }
    }
}

#[test]
fn engine_rejects_bad_configurations() {
    let mut config = serve_config(3, 2);
    // 4 layers do not divide over 3 devices.
    assert!(ServeEngine::start(config.clone()).is_err());
    config.devices = 0;
    assert!(ServeEngine::start(config.clone()).is_err());
    // Heads that do not divide the hidden width: refused before any device
    // thread builds a block.
    config.devices = 2;
    config.model.heads = 3;
    let err = ServeEngine::start(config.clone())
        .err()
        .expect("3 heads over hidden 32");
    assert!(err.to_string().contains("heads"), "{err}");
    // Token ids past 2^24 are not exact in the barrier's f32 payload:
    // refused by name, before any device builds a > 1 GiB table.
    config.model.heads = 4;
    config.model.vocab = (1 << 24) + 1;
    let err = ServeEngine::start(config)
        .err()
        .expect("vocabulary past 2^24");
    assert!(err.to_string().contains("16777216"), "{err}");
}

#[test]
fn reference_decode_is_deterministic_and_in_vocabulary() {
    let config = TinyConfig::default();
    let prompt = [3usize, 17, 5];
    let a = reference_decode(&config, &prompt, 6).unwrap();
    let b = reference_decode(&config, &prompt, 6).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.len(), 6);
    assert!(a.iter().all(|&t| t < config.vocab));
}
