//! Training memory is weighed, not counted: a vocabulary-parallel run's
//! peak resident set stays under the bytes its devices' vocabulary shards
//! need plus a stated slack, which holds only if every device builds just
//! its own shard and the run serializes no checkpoint nobody asked for. The
//! reading is the process's high-water mark (`VmHWM`), process-global
//! state, so this test lives in a binary of its own.

use vp_runtime::{train_schedule, DataSource, TinyConfig};
use vp_schedule::block::PassTimes;
use vp_schedule::generators;
use vp_schedule::pass::VocabVariant;

const MIB: f64 = 1024.0 * 1024.0;

/// The process's peak resident set in bytes, if the host reports it.
fn peak_rss_bytes() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024.0)
}

/// Vocab-2 1F1B at V = 32768, h = 64 on two devices, three iterations.
///
/// The bound is what the vocabulary shards must hold: on each device, a
/// `[V/2, h]` input and output table with a gradient and two Adam moments
/// each, plus the output table's pack — 9 tensors of 4 MiB, 72 MiB over
/// both devices. The slack of 28 MiB covers the rest of the run: the
/// process and its test harness (~3 MiB), the `S` passes' `[s, V/2]`
/// logits buffers in flight (2 MiB each, at most 4 microbatches per
/// device: 16 MiB), the `T` passes' temporaries, the blocks and the
/// activations. A device that also held the whole `[V, h]` tables (8 MiB
/// each, two per device) or a run that serialized its checkpoint (value and
/// moments of every parameter, ~50 MB) breaks it: a runtime that did both
/// read 167.4 MiB here, this one reads 84.7 MiB (both on x86-64 Linux).
#[test]
fn vocab_training_peak_rss_is_its_shards_plus_slack() {
    let Some(before) = peak_rss_bytes() else {
        println!("skipped: this host has no /proc/self/status VmHWM reading");
        return;
    };
    let config = TinyConfig {
        layers: 4,
        hidden: 64,
        heads: 4,
        seq_len: 32,
        vocab: 32768,
        microbatches: 4,
        ..TinyConfig::default()
    };
    let devices = 2;
    let schedule = generators::vocab_1f1b(
        devices,
        config.microbatches as u32,
        VocabVariant::Alg2,
        PassTimes::default(),
        true,
    );
    let report = train_schedule(&config, &schedule, 3, &DataSource::synthetic(&config)).unwrap();
    assert_eq!(report.losses.len(), 3);
    let peak = peak_rss_bytes().expect("read before the run");

    let table = (config.vocab / devices * config.hidden * 4) as f64;
    // Input: value, gradient, m, v. Output: the same plus its pack.
    let shards = devices as f64 * (4.0 + 5.0) * table;
    let slack = 28.0 * MIB;
    println!(
        "peak {:.1} MiB ({:.1} MiB before the run), shards {:.1} MiB + slack {:.1} MiB",
        peak / MIB,
        before / MIB,
        shards / MIB,
        slack / MIB
    );
    assert!(
        peak <= shards + slack,
        "peak resident set {:.1} MiB exceeds the shards' {:.1} MiB plus {:.1} MiB slack",
        peak / MIB,
        shards / MIB,
        slack / MIB
    );
}
