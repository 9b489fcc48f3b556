//! The metric tables (names, units, directions — mirrored by
//! `BENCHMARK.json`, which a test holds to this file) and the result
//! record every run prints.

use std::collections::BTreeMap;

use crate::json::{num, quote};
use crate::stats::{median, percentile, spread, supports};

/// An end-to-end metric: what a user of the system sees.
///
/// The bounds are three times the widest spread (interquartile range over
/// median of ten runs with ten seeds) seen in two such studies on the
/// 2-core box the benchmark was sized on, where whole runs drift by
/// several percent: 0.048 for throughput, 0.051 for the median step,
/// 0.080 for the tail, 0.061 for memory (which is bimodal on
/// `train_block`).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "tokens_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.15,
    },
    EndToEnd {
        name: "step_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.16,
    },
    EndToEnd {
        name: "step_ms_p95",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.2,
    },
];

/// Which workloads execute the layer function a per-layer metric measures.
/// A traced run reports every metric; the ones that do not apply read 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applies {
    Train,
    Serve,
    Both,
}

/// A per-layer metric of the traced run.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub applies: Applies,
    /// Which end-to-end metric on which workload it should move.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    applies: Applies,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        applies,
        moves,
    }
}

use Applies::{Both, Serve, Train};

#[rustfmt::skip]
pub const PER_LAYER: &[PerLayer] = &[
    // vp-tensor
    pl("tensor.gemm.gflops", "GFLOP/s", "higher", Both, "tokens_per_s everywhere; skinny-m gains only on decode_vocab"),
    pl("tensor.gemm.ms_per_step", "ms", "lower", Both, "tokens_per_s everywhere"),
    pl("tensor.attn.train_ms", "ms", "lower", Train, "train_block tokens_per_s"),
    pl("tensor.softmax.gbps", "GB/s", "higher", Both, "train_vocab tokens_per_s (S pass); train_block via attention"),
    pl("tensor.gelu.gflops", "GFLOP/s", "higher", Train, "train_block tokens_per_s"),
    pl("tensor.attn.decode_us_per_row", "us", "lower", Serve, "prefill_long tokens_per_s, step_ms_p50; little on decode_vocab (context <= 72)"),
    pl("tensor.kv.append_ns_per_row", "ns", "lower", Serve, "prefill_long tokens_per_s"),
    pl("tensor.kv.reserved_over_used", "ratio", "lower", Serve, "prefill_long peak_rss_mb"),
    pl("tensor.optim.adam_ms_per_step", "ms", "lower", Train, "train_vocab tokens_per_s (optimizer on the embedding shards)"),
    pl("tensor.alloc.fresh_per_step", "count", "lower", Both, "step_ms_p95, peak_rss_mb everywhere"),
    pl("tensor.alloc.reuse_ratio", "ratio", "higher", Both, "step_ms_p95, peak_rss_mb everywhere"),
    pl("tensor.alloc.outstanding_delta", "count", "lower", Both, "peak_rss_mb everywhere (a leak)"),
    pl("tensor.pool.threads", "count", "lower", Both, "tokens_per_s everywhere (oversubscription)"),
    pl("tensor.pool.serial_over_default", "ratio", "lower", Both, "tokens_per_s everywhere; > 1 means the kernel pool hurts"),
    // vp-collectives
    pl("collectives.all_gather.us", "us", "lower", Serve, "decode_vocab tokens_per_s, step_ms_p95"),
    pl("collectives.all_reduce.us", "us", "lower", Train, "train step_ms_p95 (C1 barrier)"),
    pl("collectives.p2p.roundtrip_us", "us", "lower", Both, "step_ms_p95 everywhere"),
    pl("collectives.stream.handoff_us", "us", "lower", Both, "train step_ms_p95; decode_vocab with overlap"),
    pl("collectives.calls_per_step", "count", "lower", Both, "step_ms_p95 everywhere"),
    pl("collectives.bytes_per_step", "B", "lower", Both, "step_ms_p95 everywhere"),
    // vp-core
    pl("core.s_pass.ms", "ms", "lower", Train, "train_vocab tokens_per_s; no change on train_block"),
    pl("core.s_pass.gemm_share", "ratio", "higher", Train, "train_vocab tokens_per_s (useful-work ratio)"),
    pl("core.t_pass.ms", "ms", "lower", Train, "train_vocab tokens_per_s"),
    pl("core.barrier.us", "us", "lower", Train, "train_vocab tokens_per_s, step_ms_p95"),
    pl("core.input.fwd_us", "us", "lower", Both, "train_vocab tokens_per_s"),
    pl("core.input.bwd_us", "us", "lower", Train, "train_vocab tokens_per_s"),
    pl("core.s_decode.ms", "ms", "lower", Serve, "decode_vocab tokens_per_s, step_ms_p50; no change on prefill_long"),
    pl("core.s_decode.gemm_share", "ratio", "higher", Serve, "decode_vocab tokens_per_s (useful-work ratio)"),
    pl("core.merge_decode.us", "us", "lower", Serve, "decode_vocab step_ms_p50"),
    // vp-model
    pl("model.block.fwd_ms", "ms", "lower", Train, "train_block tokens_per_s"),
    pl("model.block.bwd_ms", "ms", "lower", Train, "train_block tokens_per_s"),
    pl("model.block.decode_ms", "ms", "lower", Serve, "prefill_long tokens_per_s, step_ms_p50"),
    // vp-schedule / vp-check / vp-sim
    pl("schedule.gen_validate_ms", "ms", "lower", Both, "setup_s"),
    pl("check.start_ms", "ms", "lower", Both, "setup_s"),
    pl("schedule.passes_per_iter", "count", "lower", Both, "tokens_per_s (per-pass overhead)"),
    pl("schedule.bubble_frac", "ratio", "lower", Train, "train tokens_per_s"),
    pl("sim.drift", "ratio", "lower", Train, "none end to end: falls when runtime pass ratios approach the cost model"),
    // vp-runtime, training
    pl("runtime.train.busy_ms.F", "ms", "lower", Train, "train_block tokens_per_s"),
    pl("runtime.train.busy_ms.B", "ms", "lower", Train, "train_block tokens_per_s"),
    pl("runtime.train.busy_ms.W", "ms", "lower", Train, "train_block tokens_per_s (zero-bubble split)"),
    pl("runtime.train.busy_ms.S", "ms", "lower", Train, "train_vocab tokens_per_s"),
    pl("runtime.train.busy_ms.T", "ms", "lower", Train, "train_vocab tokens_per_s"),
    pl("runtime.train.busy_ms.InputF", "ms", "lower", Train, "train_vocab tokens_per_s"),
    pl("runtime.train.busy_ms.InputB", "ms", "lower", Train, "train_vocab tokens_per_s"),
    pl("runtime.train.wait_ms", "ms", "lower", Train, "train tokens_per_s, step_ms_p95"),
    pl("runtime.train.stream_overlap_frac", "ratio", "higher", Train, "train_vocab tokens_per_s (C1 hidden behind compute)"),
    pl("runtime.train.act_peak_imbalance", "ratio", "lower", Train, "train peak_rss_mb (the paper's memory-balance claim)"),
    pl("runtime.train.vocab_over_baseline", "ratio", "higher", Train, "train_vocab tokens_per_s (the paper's headline; must stay > 1 there)"),
    pl("runtime.train.unattributed_frac", "ratio", "lower", Train, "train tokens_per_s (optimizer step, gradient recycling outside passes)"),
    pl("runtime.data.iter_us", "us", "lower", Train, "train tokens_per_s"),
    // vp-runtime, serving
    pl("runtime.serve.start_ms", "ms", "lower", Serve, "serve setup_s"),
    pl("runtime.serve.steps", "count", "lower", Serve, "serve tokens_per_s (fewer steps for the same stream)"),
    pl("runtime.serve.occupancy", "ratio", "higher", Serve, "serve tokens_per_s"),
    pl("runtime.serve.rows_per_step", "count", "higher", Serve, "prefill_long tokens_per_s"),
    pl("runtime.serve.prompt_row_share", "ratio", "higher", Serve, "none: describes the workload (near 1 on prefill_long)"),
    pl("runtime.serve.overlap_over_inline", "ratio", "higher", Serve, "decode_vocab tokens_per_s if overlap became the default"),
    pl("runtime.serve.unattributed_frac", "ratio", "lower", Serve, "serve step_ms_p50 (the reconciliation gap)"),
    // vp-trace
    pl("trace.overhead_frac", "ratio", "lower", Train, "none: cost of the traced run over the untraced one"),
    pl("trace.events_dropped", "count", "lower", Train, "none: a dropped event makes the busy_ms numbers too small"),
];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
    /// Within-run spread over the three parts of the timed window.
    pub spread: f64,
}

/// One contiguous part of a timed window.
#[derive(Debug, Clone, Default)]
pub struct Part {
    /// Tokens pushed through the model in this part.
    pub tokens: f64,
    /// Wall seconds of this part.
    pub wall: f64,
    /// Step-time samples (seconds) in this part.
    pub steps: Vec<f64>,
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The five end-to-end metrics from the set-up samples, the parts of the
/// timed window and the peak memory read at its end.
pub fn end_to_end(setup: &[f64], parts: &[Part], rss_mb: f64) -> Vec<Metric> {
    let all: Vec<f64> = parts.iter().flat_map(|p| p.steps.iter().copied()).collect();
    let tokens: f64 = parts.iter().map(|p| p.tokens).sum();
    let wall: f64 = parts.iter().map(|p| p.wall).sum();
    let per_part = |f: &dyn Fn(&Part) -> f64| -> f64 {
        let vals: Vec<f64> = parts
            .iter()
            .filter(|p| !p.steps.is_empty())
            .map(f)
            .collect();
        spread(&vals)
    };
    let metric = |name, value, n, spread| {
        let e = END_TO_END
            .iter()
            .find(|e| e.name == name)
            .expect("a name of the table");
        Metric {
            name: e.name,
            value,
            unit: e.unit,
            n,
            spread,
        }
    };
    vec![
        metric("setup_s", median(setup), setup.len(), spread(setup)),
        metric(
            "tokens_per_s",
            tokens / wall.max(1e-12),
            all.len(),
            per_part(&|p| p.tokens / p.wall.max(1e-12)),
        ),
        metric(
            "step_ms_p50",
            median(&all) * 1e3,
            all.len(),
            per_part(&|p| median(&p.steps)),
        ),
        metric(
            "step_ms_p95",
            percentile(&all, 0.95) * 1e3,
            all.len(),
            per_part(&|p| percentile(&p.steps, 0.95)),
        ),
        metric("peak_rss_mb", rss_mb, 1, 0.0),
    ]
}

/// Per-layer values of a traced run, keyed by names of [`PER_LAYER`].
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`PER_LAYER`] or is recorded twice — a
    /// bug in the benchmark, caught by the smoke tests.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "unknown per-layer metric {name}"
        );
        assert!(
            self.0.insert(name, value).is_none(),
            "per-layer metric {name} recorded twice"
        );
    }

    /// Every metric of the table in table order; the ones that do not
    /// apply to this kind of workload read 0.
    ///
    /// # Panics
    ///
    /// Panics if an applicable metric was not recorded, or one that does
    /// not apply was.
    pub fn into_metrics(self, train: bool) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|m| {
                let applies = match m.applies {
                    Both => true,
                    Train => train,
                    Serve => !train,
                };
                let value = match (applies, self.0.get(m.name)) {
                    (true, Some(&v)) => v,
                    (false, None) => 0.0,
                    (true, None) => panic!("per-layer metric {} not recorded", m.name),
                    (false, Some(_)) => panic!("per-layer metric {} does not apply", m.name),
                };
                Metric {
                    name: m.name,
                    value,
                    unit: m.unit,
                    n: 1,
                    spread: 0.0,
                }
            })
            .collect()
    }
}

/// What one run of one workload produced.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations attempted in the timed window (iterations or requests).
    pub attempted: u64,
    /// Operations whose output was wrong or missing.
    pub failed: u64,
    /// Failed output checks, one line each; empty means correct.
    pub errors: Vec<String>,
    /// Hash of the loss bits / token streams the seed fixes.
    pub fingerprint: u64,
    /// Remarks for the reader (sample counts too small for p95, ...).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// Remarks about sample support, appended to `notes` by the runners.
    pub fn note_support(&mut self) {
        if let Some(m) = self.metrics.iter().find(|m| m.name == "step_ms_p95") {
            if !supports(m.n, 0.95) {
                self.notes.push(format!(
                    "step_ms_p95 rests on {} samples: fewer than ten lie beyond it",
                    m.n
                ));
            }
        }
    }

    /// Human-readable lines: every metric by name with its unit.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("{:<36} {:>16.6} {:<8}", m.name, m.value, m.unit));
            if let Some(e) = END_TO_END.iter().find(|e| e.name == m.name) {
                out.push_str(&format!(
                    " n={} spread={:.4} ({} is better, may worsen by {})",
                    m.n, m.spread, e.better, e.bound
                ));
            } else if let Some(l) = PER_LAYER.iter().find(|l| l.name == m.name) {
                out.push_str(&format!(" ({} is better) -> {}", l.better, l.moves));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "attempted={} failed={} correct={} output_fingerprint={:016x}\n",
            self.attempted,
            self.failed,
            self.correct(),
            self.fingerprint
        ));
        for e in &self.errors {
            out.push_str(&format!("FAILED CHECK: {e}\n"));
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(m.name),
                    num(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The detail record `results.json` embeds: the result line's content
    /// plus sample counts, spreads, the fingerprint and the remarks.
    pub fn detail_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"n\": {}, \"spread\": {}}}",
                    quote(m.name),
                    num(m.value),
                    quote(m.unit),
                    m.n,
                    num(m.spread)
                )
            })
            .collect();
        let list = |v: &[String]| v.iter().map(|s| quote(s)).collect::<Vec<_>>().join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"output_fingerprint\": \"{:016x}\", \"errors\": [{}], \"notes\": [{}], \
             \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.fingerprint,
            list(&self.errors),
            list(&self.notes),
            metrics.join(", ")
        )
    }
}

/// FNV-1a over 64-bit words: the `output_fingerprint`.
pub fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn end_to_end_reports_the_table_in_order() {
        let part = |scale: f64| Part {
            tokens: 100.0,
            wall: scale,
            steps: (1..=10).map(|i| f64::from(i) * 1e-3 * scale).collect(),
        };
        let m = end_to_end(&[0.5, 0.7, 0.6], &[part(1.0), part(1.1), part(0.9)], 12.5);
        let names: Vec<&str> = m.iter().map(|m| m.name).collect();
        let table: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
        assert_eq!(names, table);
        assert_eq!(m[0].value, 0.6);
        assert_eq!(m[1].value, 300.0 / 3.0);
        assert_eq!(m[1].n, 30);
        assert!(m[1].spread > 0.15 && m[1].spread < 0.25, "{}", m[1].spread);
        assert!(m[3].value >= m[2].value);
        assert_eq!(m[4].value, 12.5);
    }

    #[test]
    fn layers_fill_what_does_not_apply_with_zero() {
        let mut train = Layers::default();
        let mut serve = Layers::default();
        for m in PER_LAYER {
            match m.applies {
                Both => {
                    train.set(m.name, 1.0);
                    serve.set(m.name, 1.0);
                }
                Train => train.set(m.name, 1.0),
                Serve => serve.set(m.name, 1.0),
            }
        }
        for (layers, is_train) in [(train, true), (serve, false)] {
            let metrics = layers.into_metrics(is_train);
            assert_eq!(metrics.len(), PER_LAYER.len());
            for (m, spec) in metrics.iter().zip(PER_LAYER) {
                let applies = spec.applies == Both || (spec.applies == Train) == is_train;
                assert_eq!(m.value, if applies { 1.0 } else { 0.0 }, "{}", m.name);
            }
        }
    }

    #[test]
    #[should_panic(expected = "not recorded")]
    fn a_missing_applicable_metric_is_a_bug() {
        let _ = Layers::default().into_metrics(true);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            metrics: end_to_end(
                &[0.5],
                &[Part {
                    tokens: 10.0,
                    wall: 1.0,
                    steps: vec![0.1; 4],
                }],
                3.0,
            ),
            attempted: 4,
            failed: 0,
            errors: vec![],
            fingerprint: 7,
            notes: vec![],
        };
        let v = parse(&o.result_line()).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for (_, m) in metrics {
            let keys: Vec<&str> = m
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["value", "unit"]);
        }
        assert!(parse(&o.detail_json()).is_ok());
    }

    #[test]
    fn fingerprint_depends_on_every_word_and_their_order() {
        assert_eq!(fingerprint([1, 2, 3]), fingerprint([1, 2, 3]));
        assert_ne!(fingerprint([1, 2, 3]), fingerprint([1, 3, 2]));
        assert_ne!(fingerprint([1, 2, 3]), fingerprint([1, 2]));
    }
}
