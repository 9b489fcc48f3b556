//! End-to-end serving benchmark over the forward-only decode engine.
//!
//! Backs the `repro servebench [--json]` subcommand (`BENCH_serve.json`):
//! for each pipeline depth × overlap mode the harness
//!
//! 1. checks **greedy-decode bitwise equivalence** — a closed-loop request
//!    stream through the pipelined, paged-KV, vocabulary-sharded engine
//!    must reproduce the single-device full-context reference's token
//!    streams exactly (with chunked prefill and, in the `-ov` series, the
//!    stream-overlapped sampling barrier enabled),
//! 2. runs a **warm-up** closed-loop wave so the KV block pools seed the
//!    arena, records the quiescent-arena baseline, then
//! 3. serves the measured **open-loop** stream (Poisson arrivals with a
//!    configurable prompt/output length mix) and reports tokens/s, p50/p99
//!    per-token latency, mean batch occupancy, the arena reuse ratio and
//!    the outstanding-buffer delta against the baseline (`kv_leaked`,
//!    which must be zero: every retirement returns its blocks), plus the
//!    structural facts the overlap comparison rests on: output-layer GEMMs
//!    and sampling all-gathers per device per step (one each) and a digest
//!    of the served token streams (equal for `pp<d>` and `pp<d>-ov`).
//!
//! The model here is deliberately larger than [`TinyConfig::default`]
//! (8 layers, hidden 128, 128-token context, 16 slots): the serving SLO
//! story only makes sense when a decode step carries enough compute for
//! pipeline parallelism to amortise its communication.
//!
//! Environment knobs (read once per `run`):
//!
//! * `VP_SERVE_OVERLAP=0|1` — restrict the series to overlap-off / -on
//!   (default: measure both);
//! * `VP_KV_BLOCK=<tokens>` — override the paged-KV block size.
//!
//! The CI serving gate reads the emitted JSON: generation throughput must
//! be positive, tail latency bounded (p99/p50 within the SLO ceiling),
//! the equivalence flag true, every `kv_leaked` zero, one GEMM and one
//! gather per device per step, and the two modes' digests equal. It does
//! not compare the two modes' speed: that is `benchmark/`'s job
//! (`runtime.serve.overlap_over_inline`), with repetitions.

use vp_runtime::serve::{
    greedy_matches_reference, ServeConfig, ServeEngine, ServeRun, WorkloadSpec,
};
use vp_runtime::TinyConfig;
use vp_tensor::alloc::{self, ArenaStats};

use crate::table::{json_escape, json_f64};

/// Continuous-batching slots of the bench engine.
const MAX_BATCH: usize = 16;
/// Candidates per shard in the sampling merge.
const TOP_K: usize = 4;
/// Prefill chunk budget (prompt tokens per request per step).
const PREFILL_CHUNK: usize = 4;
/// Requests in the closed-loop equivalence stream (kept small: the
/// single-device reference recomputes the full context per token).
const EQUIVALENCE_REQUESTS: usize = 6;

/// The serving bench model: larger than the training default so a decode
/// step carries real compute (see the module docs).
pub fn bench_model() -> TinyConfig {
    TinyConfig {
        layers: 8,
        hidden: 128,
        seq_len: 128,
        ..TinyConfig::default()
    }
}

/// The benchmark's workload shape (one measured open-loop stream per
/// pipeline depth × overlap mode).
#[derive(Debug, Clone)]
pub struct ServeWorkload {
    /// Requests in the measured stream.
    pub requests: usize,
    /// Mean Poisson arrival rate, requests per second.
    pub rate: f64,
    /// Prompt length range (inclusive), uniform mix.
    pub prompt_len: (usize, usize),
    /// Output length range (inclusive), uniform mix.
    pub output_len: (usize, usize),
}

impl ServeWorkload {
    /// The measured workload: `--quick` serves a quarter of the stream.
    pub fn new(quick: bool) -> Self {
        ServeWorkload {
            requests: if quick { 8 } else { 32 },
            rate: 500.0,
            prompt_len: (8, 48),
            output_len: (4, 16),
        }
    }

    fn spec(&self, seed: u64, rate: Option<f64>) -> WorkloadSpec {
        WorkloadSpec {
            requests: self.requests,
            rate,
            prompt_len: self.prompt_len,
            output_len: self.output_len,
            seed,
        }
    }
}

/// One pipeline depth × overlap mode's serving measurement.
#[derive(Debug, Clone)]
pub struct ServeTiming {
    /// Series label: `pp<d>` (inline sampling barrier) or `pp<d>-ov`
    /// (stream-overlapped sampling barrier).
    pub name: String,
    /// Pipeline devices (vocabulary shards).
    pub devices: usize,
    /// Whether the S/T split-batch overlap schedule was active.
    pub overlap: bool,
    /// Requests completed in the measured run.
    pub requests: usize,
    /// Tokens generated in the measured run.
    pub tokens: usize,
    /// Decode steps of the measured run.
    pub steps: usize,
    /// Generated tokens per wall-clock second.
    pub tokens_per_sec: f64,
    /// Median per-token latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-token latency, milliseconds.
    pub p99_ms: f64,
    /// Mean batch occupancy of the measured run, in `[0, 1]`.
    pub occupancy: f64,
    /// Arena counters over the measured run (pool warmed by the previous
    /// wave: `reuse` must dominate).
    pub arena: ArenaStats,
    /// Outstanding arena buffers after the measured run minus the
    /// post-warm-up baseline. Zero iff every retirement returned its KV
    /// blocks (the pp1 leak regression gate).
    pub kv_leaked: i64,
    /// Whether the engine's greedy token streams matched the
    /// single-device full-context reference bitwise.
    pub greedy_matches_reference: bool,
    /// Output-layer GEMMs per device per step of the measured run.
    pub s_passes_per_device_step: f64,
    /// Sampling all-gathers per device per step of the measured run.
    pub gathers_per_device_step: f64,
    /// FNV-1a digest of the measured run's token streams in request
    /// order: what was served, independent of when.
    pub tokens_digest: u64,
}

/// FNV-1a over every completion's id and tokens, in request order.
fn tokens_digest(run: &ServeRun) -> u64 {
    let mut streams: Vec<(usize, &[usize])> = run
        .completions
        .iter()
        .map(|c| (c.id, c.tokens.as_slice()))
        .collect();
    streams.sort_unstable();
    let words = streams
        .iter()
        .flat_map(|(id, tokens)| std::iter::once(id).chain(tokens.iter()));
    words.fold(0xcbf2_9ce4_8422_2325, |h, &w| {
        (h ^ w as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Pipeline depths to measure; all must divide the bench model's layers.
fn depths(config: &TinyConfig) -> Vec<usize> {
    [1, 2, 4]
        .into_iter()
        .filter(|p| config.layers.is_multiple_of(*p))
        .collect()
}

/// Overlap modes to measure: both by default, restricted by
/// `VP_SERVE_OVERLAP=0|1`.
fn overlap_modes() -> Vec<bool> {
    match std::env::var("VP_SERVE_OVERLAP").ok().as_deref() {
        Some("0") => vec![false],
        Some("1") => vec![true],
        _ => vec![false, true],
    }
}

/// Paged-KV block size: `VP_KV_BLOCK` override or the library default.
fn kv_block() -> usize {
    std::env::var("VP_KV_BLOCK")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&b| b > 0)
        .unwrap_or(vp_tensor::nn::DEFAULT_BLOCK_TOKENS)
}

/// Runs the serving bench at every pipeline depth × overlap mode.
///
/// # Panics
///
/// Panics if the engine fails to start or a serve run drops requests —
/// the bench measures working configurations only.
pub fn run(workload: &ServeWorkload) -> Vec<ServeTiming> {
    let model = bench_model();
    let kv_block = kv_block();
    let modes = overlap_modes();
    let mut results = Vec::new();
    for devices in depths(&model) {
        for &overlap in &modes {
            let config = ServeConfig {
                model: model.clone(),
                devices,
                max_batch: MAX_BATCH,
                top_k: TOP_K,
                kv_block,
                kv_capacity_blocks: None,
                prefill_chunk: PREFILL_CHUNK,
                overlap,
            };
            let label = if overlap {
                format!("pp{devices}-ov")
            } else {
                format!("pp{devices}")
            };
            // Equivalence first, on a short closed-loop stream (fresh
            // engine so the check exercises engine start as well).
            let check = WorkloadSpec {
                requests: EQUIVALENCE_REQUESTS,
                rate: None,
                prompt_len: workload.prompt_len,
                output_len: workload.output_len,
                seed: 1000 + devices as u64,
            }
            .generate(model.vocab, model.seq_len);
            let greedy = greedy_matches_reference(&config, &check)
                .unwrap_or_else(|e| panic!("{label}: equivalence check failed: {e}"));
            // Measured run: warm the block pools with one closed-loop
            // wave, record the quiescent baseline, then serve the
            // open-loop Poisson stream with fresh counters. Both overlap
            // modes use the same seeds, so their streams are identical
            // and the series are directly comparable.
            let mut engine = ServeEngine::start(config).unwrap_or_else(|e| panic!("{label}: {e}"));
            let warm = workload
                .spec(2000 + devices as u64, None)
                .generate(model.vocab, model.seq_len);
            engine.serve(&warm);
            let baseline = alloc::stats().outstanding;
            alloc::reset_counters();
            let stream = workload
                .spec(3000 + devices as u64, Some(workload.rate))
                .generate(model.vocab, model.seq_len);
            let run = engine.serve(&stream);
            let arena = alloc::stats();
            engine.shutdown();
            assert_eq!(
                run.completions.len(),
                stream.len(),
                "{label}: dropped requests"
            );
            results.push(ServeTiming {
                name: label,
                devices,
                overlap,
                requests: run.completions.len(),
                tokens: run.tokens(),
                steps: run.steps,
                tokens_per_sec: run.tokens_per_sec(),
                p50_ms: run.latency_quantile(0.5) * 1e3,
                p99_ms: run.latency_quantile(0.99) * 1e3,
                occupancy: run.occupancy(),
                arena,
                kv_leaked: arena.outstanding as i64 - baseline as i64,
                greedy_matches_reference: greedy,
                s_passes_per_device_step: run.s_passes as f64 / (run.steps * devices) as f64,
                gathers_per_device_step: run.gathers as f64 / (run.steps * devices) as f64,
                tokens_digest: tokens_digest(&run),
            });
        }
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

/// Renders the bench as the `BENCH_serve.json` document. The top-level
/// `greedy_matches_reference` is the conjunction over every series — the
/// flag the CI serving gate checks.
pub fn to_json(workload: &ServeWorkload, results: &[ServeTiming]) -> String {
    let config = bench_model();
    let all_match = results.iter().all(|t| t.greedy_matches_reference);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"serve\",\n");
    out.push_str("  \"generated_by\": \"repro servebench --json\",\n");
    // Device threads time-slice on the probed cores: pipeline depth (and
    // the overlap stream) only buys wall-clock on a multicore box, so the
    // artifact records what it ran on.
    out.push_str(&format!(
        "  \"cores\": {},\n",
        vp_tensor::pool::assumed_cores()
    ));
    out.push_str(&format!(
        "  \"config\": {{\"layers\": {}, \"hidden\": {}, \"heads\": {}, \"seq_len\": {}, \"vocab\": {}, \"max_batch\": {}, \"top_k\": {}, \"kv_block\": {}, \"prefill_chunk\": {}}},\n",
        config.layers,
        config.hidden,
        config.heads,
        config.seq_len,
        config.vocab,
        MAX_BATCH,
        TOP_K,
        kv_block(),
        PREFILL_CHUNK
    ));
    out.push_str(&format!(
        "  \"workload\": {{\"requests\": {}, \"rate_per_sec\": {}, \"prompt_len\": [{}, {}], \"output_len\": [{}, {}]}},\n",
        workload.requests,
        json_f64(workload.rate),
        workload.prompt_len.0,
        workload.prompt_len.1,
        workload.output_len.0,
        workload.output_len.1
    ));
    out.push_str(&format!("  \"greedy_matches_reference\": {all_match},\n"));
    out.push_str("  \"pipelines\": [\n");
    for (i, t) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"devices\": {}, \"overlap\": {}, \"requests\": {}, \"tokens\": {}, \"steps\": {}, \"tokens_per_sec\": {}, \"p50_token_latency_ms\": {}, \"p99_token_latency_ms\": {}, \"batch_occupancy\": {}, \"arena\": {}, \"kv_leaked\": {}, \"greedy_matches_reference\": {}, \"s_passes_per_device_step\": {}, \"gathers_per_device_step\": {}, \"tokens_digest\": \"{:016x}\"}}{}\n",
            json_escape(&t.name),
            t.devices,
            t.overlap,
            t.requests,
            t.tokens,
            t.steps,
            json_f64(t.tokens_per_sec),
            json_f64(t.p50_ms),
            json_f64(t.p99_ms),
            json_f64(t.occupancy),
            stats_json(&t.arena),
            t.kv_leaked,
            t.greedy_matches_reference,
            json_f64(t.s_passes_per_device_step),
            json_f64(t.gathers_per_device_step),
            t.tokens_digest,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena_test_lock;

    #[test]
    fn quick_bench_meets_the_slo_floors() {
        let _guard = arena_test_lock();
        let workload = ServeWorkload::new(true);
        let results = run(&workload);
        assert_eq!(results.len(), 6, "pp1/pp2/pp4 × overlap off/on");
        for t in &results {
            assert!(t.greedy_matches_reference, "{}: diverged", t.name);
            assert_eq!(t.requests, workload.requests, "{}", t.name);
            assert!(t.tokens > 0 && t.steps > 0, "{}", t.name);
            assert!(t.tokens_per_sec > 0.0, "{}", t.name);
            assert!(t.p50_ms > 0.0 && t.p99_ms >= t.p50_ms, "{}", t.name);
            assert!(t.p99_ms.is_finite(), "{}", t.name);
            // Chunked prefill bounds the tail: no decode step carries a
            // whole long prompt, so p99 stays within the SLO ceiling.
            assert!(
                t.p99_ms / t.p50_ms <= 6.0,
                "{}: p99/p50 = {:.2} blew the SLO ceiling",
                t.name,
                t.p99_ms / t.p50_ms
            );
            assert!(t.occupancy > 0.0 && t.occupancy <= 1.0, "{}", t.name);
            assert_eq!(
                t.kv_leaked, 0,
                "{}: retirement leaked arena buffers",
                t.name
            );
            assert!(
                t.arena.reuse_ratio() > 0.5,
                "{}: warmed pool barely recycled: {:?}",
                t.name,
                t.arena
            );
            // One output-layer GEMM and one all-gather per device per step.
            assert_eq!(t.s_passes_per_device_step, 1.0, "{}", t.name);
            assert_eq!(t.gathers_per_device_step, 1.0, "{}", t.name);
        }
        // The overlapped series serves what the inline one serves.
        for pair in results.chunks(2) {
            assert_eq!(pair[0].devices, pair[1].devices);
            assert!(!pair[0].overlap && pair[1].overlap);
            assert_eq!(pair[0].tokens_digest, pair[1].tokens_digest);
        }
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let _guard = arena_test_lock();
        let workload = ServeWorkload::new(true);
        let results = run(&workload);
        let doc = to_json(&workload, &results);
        assert!(doc.contains("\"bench\": \"serve\""));
        assert!(doc.contains("\"greedy_matches_reference\": true"));
        assert!(doc.contains("\"tokens_per_sec\""));
        assert!(doc.contains("\"p99_token_latency_ms\""));
        assert!(doc.contains("\"batch_occupancy\""));
        assert!(doc.contains("\"reuse_ratio\""));
        assert!(doc.contains("\"kv_block\"") && doc.contains("\"prefill_chunk\""));
        assert!(doc.contains("\"cores\""));
        assert!(doc.contains("\"kv_leaked\": 0"));
        assert!(doc.contains("\"gathers_per_device_step\": 1.000"));
        assert!(doc.contains("\"tokens_digest\": \""));
        assert!(doc.contains("\"pp1\"") && doc.contains("\"pp2\"") && doc.contains("\"pp4\""));
        assert!(doc.contains("\"pp2-ov\"") && doc.contains("\"overlap\": true"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }
}
