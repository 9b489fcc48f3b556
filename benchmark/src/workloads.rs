//! The four workloads: a vocabulary-heavy and a block-heavy one each for
//! training and for serving, so that every optimisation has a workload
//! that exercises its mechanism and one that bypasses it.
//!
//! All pipelines run on [`DEVICES`] devices — the core count of the box
//! this benchmark is sized for — never deeper pipelines time-slicing on
//! fewer cores. The `--seed` feeds only the inputs (the training corpus,
//! the request stream); the model initialisation seed stays fixed.

use vp_runtime::serve::{Request, ServeConfig, WorkloadSpec};
use vp_runtime::{DataSource, SyntheticCorpus, TinyConfig};
use vp_schedule::block::PassTimes;
use vp_schedule::generators;
use vp_schedule::pass::{Schedule, VocabVariant};

/// Pipeline devices (= vocabulary shards) of every workload.
pub const DEVICES: usize = 2;

/// A training workload: one schedule family on one model shape.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    pub config: TinyConfig,
    /// `zb_vocab_1f1b` (B/W split) instead of `vocab_1f1b`.
    pub zero_bubble: bool,
    /// Untimed iterations that open every `train_schedule` call.
    pub warmup: usize,
}

impl TrainSpec {
    /// Generates the workload's schedule (validated by the runtime, and by
    /// the traced run's `schedule.gen_validate_ms`).
    pub fn schedule(&self) -> Schedule {
        let (m, times) = (self.config.microbatches as u32, self.pass_times());
        if self.zero_bubble {
            generators::zb_vocab_1f1b(DEVICES, m, VocabVariant::Alg2, times, true)
        } else {
            generators::vocab_1f1b(DEVICES, m, VocabVariant::Alg2, times, true)
        }
    }

    /// The nominal pass costs the schedule is generated with (and the
    /// simulator side of `sim.drift` runs on).
    pub fn pass_times(&self) -> PassTimes {
        if self.zero_bubble {
            PassTimes {
                f: 1.0,
                b: 1.0,
                w: 1.0,
                ..PassTimes::default()
            }
        } else {
            PassTimes::default()
        }
    }

    /// The baseline placement of the same model (whole vocabulary layers
    /// on the first and last stage): the paper's comparison point.
    pub fn baseline_schedule(&self) -> Schedule {
        let m = self.config.microbatches as u32;
        generators::one_f_one_b(DEVICES, m, PassTimes::default())
    }

    /// The corpus `--seed` selects.
    pub fn corpus(&self, seed: u64) -> DataSource {
        DataSource::Synthetic(SyntheticCorpus::new(
            self.config.vocab,
            self.config.seq_len,
            seed,
        ))
    }

    pub fn tokens_per_iteration(&self) -> usize {
        self.config.microbatches * self.config.seq_len
    }
}

/// A serving workload: closed-loop waves (every request of a wave queued
/// at t = 0, as many clients as slots) through a pp2 engine with the
/// inline sampling barrier.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    pub model: TinyConfig,
    pub max_batch: usize,
    pub prefill_chunk: usize,
    pub top_k: usize,
    pub kv_block: usize,
    pub prompt_len: (usize, usize),
    pub output_len: (usize, usize),
    /// Requests of the first timed wave; its speed sizes the other two.
    pub pilot_requests: usize,
    /// Output length range of the untimed warm-up wave (`max_batch`
    /// requests with the workload's prompts): short, it only has to fill
    /// the KV block pools and the arena.
    pub warm_output_len: (usize, usize),
}

impl ServeSpec {
    pub fn engine_config(&self, overlap: bool) -> ServeConfig {
        ServeConfig {
            model: self.model.clone(),
            devices: DEVICES,
            max_batch: self.max_batch,
            top_k: self.top_k,
            kv_block: self.kv_block,
            kv_capacity_blocks: None,
            prefill_chunk: self.prefill_chunk,
            overlap,
        }
    }

    fn stream(&self, requests: usize, output_len: (usize, usize), seed: u64) -> Vec<Request> {
        WorkloadSpec {
            requests,
            rate: None,
            prompt_len: self.prompt_len,
            output_len,
            seed,
        }
        .generate(self.model.vocab, self.model.seq_len)
    }

    /// The warm-up wave of set-up: the same for every `--seed`, so that
    /// `setup_s` measures the program and not the draw of eight prompts.
    pub fn warm_wave(&self) -> Vec<Request> {
        self.stream(self.max_batch, self.warm_output_len, 0x5741_524d)
    }

    /// Timed wave `index` of `requests` requests. Waves are disjoint
    /// streams of the seed; wave 0 with the pilot size is the one the
    /// output check and the fingerprint cover.
    pub fn wave(&self, index: u64, requests: usize, seed: u64) -> Vec<Request> {
        self.stream(
            requests,
            self.output_len,
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(index),
        )
    }
}

#[derive(Debug, Clone)]
pub enum Kind {
    Train(TrainSpec),
    Serve(ServeSpec),
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Why it was chosen (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// Whether the vocabulary layers (true) or the transformer blocks
    /// (false) dominate: selects the "dominant GEMM" the traced run times.
    pub vocab_heavy: bool,
    pub kind: Kind,
}

/// The benchmark's workloads at full size.
pub fn all() -> Vec<Workload> {
    let base = TinyConfig::default();
    vec![
        Workload {
            name: "train_vocab",
            why: "Vocab-2 1F1B training at vocab 32768, hidden 64: S/T/input passes are over half of pass time (the paper's regime); transformer-block work barely shows",
            vocab_heavy: true,
            kind: Kind::Train(TrainSpec {
                config: TinyConfig {
                    layers: 4,
                    hidden: 64,
                    heads: 4,
                    seq_len: 32,
                    vocab: 32768,
                    microbatches: 4,
                    ..base.clone()
                },
                zero_bubble: false,
                warmup: 10,
            }),
        },
        Workload {
            name: "train_block",
            why: "zero-bubble Vocab-2 training, vocab 256, 8 layers, hidden 128, seq 64: vocabulary passes are a few percent, so it bypasses vocabulary-layer optimisations and shows GEMM, attention and the B/W split",
            vocab_heavy: false,
            kind: Kind::Train(TrainSpec {
                config: TinyConfig {
                    layers: 8,
                    hidden: 128,
                    heads: 4,
                    seq_len: 64,
                    vocab: 256,
                    microbatches: 4,
                    ..base.clone()
                },
                zero_bubble: true,
                warmup: 10,
            }),
        },
        Workload {
            name: "decode_vocab",
            why: "closed-loop decode, 16 slots, vocab 32768, prompts 4-8, outputs 32-64: the forward-only skinny-m output layer with per-row top-k and one all-gather is about 90 percent of a step",
            vocab_heavy: true,
            kind: Kind::Serve(ServeSpec {
                model: TinyConfig {
                    layers: 4,
                    hidden: 128,
                    seq_len: 128,
                    vocab: 32768,
                    ..base.clone()
                },
                max_batch: 16,
                prefill_chunk: 4,
                top_k: 4,
                kv_block: 16,
                prompt_len: (4, 8),
                output_len: (32, 64),
                pilot_requests: 16,
                warm_output_len: (2, 4),
            }),
        },
        Workload {
            name: "prefill_long",
            why: "closed-loop prefill, 8 slots, vocab 256, prompts 96-224, outputs 1-4, chunk 16: prompt processing and paged-KV reads at long context do the work, sampling almost none; tokens_per_s stands in for TTFT",
            vocab_heavy: false,
            kind: Kind::Serve(ServeSpec {
                model: TinyConfig {
                    layers: 8,
                    hidden: 128,
                    seq_len: 256,
                    vocab: 256,
                    ..base
                },
                max_batch: 8,
                prefill_chunk: 16,
                top_k: 4,
                kv_block: 16,
                prompt_len: (96, 224),
                output_len: (1, 4),
                pilot_requests: 40,
                warm_output_len: (1, 2),
            }),
        },
    ]
}

/// The same four workloads at toy size, through the same code paths: what
/// the smoke tests run.
#[cfg(test)]
pub fn toy() -> Vec<Workload> {
    let tiny = TinyConfig {
        layers: 2,
        hidden: 16,
        heads: 2,
        seq_len: 8,
        vocab: 64,
        microbatches: 4,
        ..TinyConfig::default()
    };
    all()
        .into_iter()
        .map(|mut w| {
            match &mut w.kind {
                Kind::Train(t) => {
                    t.config = tiny.clone();
                    t.warmup = 6;
                }
                Kind::Serve(s) => {
                    s.model = TinyConfig {
                        seq_len: 32,
                        ..tiny.clone()
                    };
                    s.max_batch = 4;
                    s.prompt_len = (s.prompt_len.0.min(6), s.prompt_len.1.min(12));
                    s.output_len = (s.output_len.0.min(3), s.output_len.1.min(6));
                    s.pilot_requests = 6;
                }
            }
            w
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toy_workloads_keep_the_names() {
        let names = |ws: Vec<Workload>| ws.iter().map(|w| w.name).collect::<Vec<_>>();
        assert_eq!(names(all()), names(toy()));
        assert_eq!(names(all()).len(), 4);
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        for w in all() {
            match &w.kind {
                Kind::Train(t) => {
                    let (a, b, c) = (t.corpus(5), t.corpus(5), t.corpus(6));
                    let mbs = |d: &DataSource| {
                        d.iteration(3, t.config.microbatches)
                            .into_iter()
                            .map(|m| (m.tokens, m.labels))
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(mbs(&a), mbs(&b), "{}", w.name);
                    assert_ne!(mbs(&a), mbs(&c), "{}", w.name);
                }
                Kind::Serve(s) => {
                    let key = |rs: Vec<Request>| {
                        rs.into_iter()
                            .map(|r| (r.prompt, r.output_len))
                            .collect::<Vec<_>>()
                    };
                    let a = key(s.wave(0, 12, 5));
                    assert_eq!(a, key(s.wave(0, 12, 5)), "{}", w.name);
                    assert_ne!(a, key(s.wave(0, 12, 6)), "{}", w.name);
                    assert_ne!(a, key(s.wave(1, 12, 5)), "{}", w.name);
                    // A longer wave extends a shorter one: how far a run
                    // gets depends on speed, what it is fed does not.
                    assert_eq!(a[..], key(s.wave(0, 20, 5))[..12], "{}", w.name);
                }
            }
        }
    }

    #[test]
    fn schedules_validate_on_two_devices() {
        for w in all().into_iter().chain(toy()) {
            if let Kind::Train(t) = &w.kind {
                for s in [t.schedule(), t.baseline_schedule()] {
                    assert_eq!(s.devices(), DEVICES);
                    vp_schedule::deps::validate(&s).expect("valid schedule");
                }
            }
        }
    }
}
