//! Serving memory is weighed, not counted: a vocabulary-parallel decode
//! engine's peak resident set stays under the bytes its devices' shards
//! need plus a stated slack, which holds only if each device keeps its
//! output table once, as the pack its logits GEMM reads. The reading is the
//! process's high-water mark (`VmHWM`), process-global state, so this test
//! lives in a binary of its own (as `footprint.rs` does for training).

use vp_runtime::serve::{ServeConfig, ServeEngine, WorkloadSpec};
use vp_runtime::TinyConfig;

const MIB: f64 = 1024.0 * 1024.0;

/// The process's peak resident set in bytes, if the host reports it.
fn peak_rss_bytes() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024.0)
}

/// Two devices, V = 32768, h = 128, 4 layers, 16 slots (the shape of the
/// benchmark's decode workload), serving one short closed-loop wave.
///
/// The bound is what the shards must hold: on each device, the `[V/2, h]`
/// input table and the output table's pack (8 MiB each, 32 MiB over both
/// devices), and every block weight with its pack (4 MiB over the 4
/// layers). The slack of 12 MiB covers the rest: the process and its test
/// harness, the biases and norms, the positional table, the KV blocks the
/// wave touches, the `[rows, V/2]` logits of a step, one init-stream row
/// slab. An engine that also kept each output shard's `[V/2, h]` value
/// (8 MiB per device) breaks it: that engine read 58.1 MiB here, this one
/// reads 42.2 MiB (both on x86-64 Linux).
#[test]
fn decode_peak_rss_is_its_shards_plus_slack() {
    let Some(before) = peak_rss_bytes() else {
        println!("skipped: this host has no /proc/self/status VmHWM reading");
        return;
    };
    let model = TinyConfig {
        layers: 4,
        hidden: 128,
        seq_len: 128,
        vocab: 32768,
        ..TinyConfig::default()
    };
    let config = ServeConfig {
        model: model.clone(),
        devices: 2,
        max_batch: 16,
        top_k: 4,
        kv_block: 16,
        prefill_chunk: 4,
        ..ServeConfig::default()
    };
    let requests = WorkloadSpec {
        requests: 16,
        rate: None,
        prompt_len: (4, 8),
        output_len: (2, 4),
        seed: 1,
    }
    .generate(model.vocab, model.seq_len);
    let mut engine = ServeEngine::start(config).unwrap();
    let run = engine.serve(&requests);
    engine.shutdown();
    assert_eq!(run.completions.len(), requests.len());
    let peak = peak_rss_bytes().expect("read before the run");

    let h = model.hidden as f64;
    // Per device: the input rows and the output pack, each `[V/2, h]`.
    let shards = 2.0 * 2.0 * (model.vocab / 2) as f64 * h * 4.0;
    // Per layer: `(4 + 2·ffn_mult)·h²` weights, each with its pack.
    let blocks = model.layers as f64 * 2.0 * (4 + 2 * model.ffn_mult) as f64 * h * h * 4.0;
    let slack = 12.0 * MIB;
    println!(
        "peak {:.1} MiB ({:.1} MiB before the run), shards {:.1} MiB + blocks {:.1} MiB \
         + slack {:.1} MiB",
        peak / MIB,
        before / MIB,
        shards / MIB,
        blocks / MIB,
        slack / MIB
    );
    assert!(
        peak <= shards + blocks + slack,
        "peak resident set {:.1} MiB exceeds the shards' {:.1} MiB, the blocks' {:.1} MiB \
         and {:.1} MiB slack",
        peak / MIB,
        shards / MIB,
        blocks / MIB,
        slack / MIB
    );
}
