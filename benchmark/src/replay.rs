//! Layer replay: one device's step re-enacted from outside. With the
//! workload's shapes the traced run calls each layer's public functions,
//! each inside a child span of a `step` span, and reports the median of
//! [`crate::spans::REPS`] calls. Nothing inside the program is
//! instrumented; what the replay cannot see (pipeline waits, contention
//! between device threads) is what the `unattributed_frac` metrics report.

use std::hint::black_box;

use vp_collectives::{Collective, CollectiveGroup, CommStream, P2pNetwork, Packet, ReduceOp};
use vp_core::{merge_decode, InputShard, OutputShard, VocabAlgo};
use vp_model::block::TransformerBlock;
use vp_model::partition::VocabPartition;
use vp_schedule::pass::{PassKind, Schedule};
use vp_tensor::init::{normal, seeded_rng};
use vp_tensor::nn::{Gelu, KvBlockPool, KvCache, MultiHeadAttention};
use vp_tensor::ops::{local_softmax, softmax_rows};
use vp_tensor::optim::{Adam, Optimizer, Param};
use vp_tensor::rng::Rng;
use vp_tensor::Tensor;

use crate::metrics::Layers;
use crate::spans::{Spans, REPS, WARMUPS};
use crate::stats::median;
use crate::workloads::DEVICES;

/// The shapes one device sees in one step of a workload.
#[derive(Debug, Clone)]
pub struct Shapes {
    pub hidden: usize,
    pub heads: usize,
    pub ffn_mult: usize,
    pub vocab: usize,
    /// Transformer blocks one device hosts.
    pub layers_per_dev: usize,
    /// Rows of one pass's activation: the sequence length in training, the
    /// mean rows a slot feeds per step in serving.
    pub rows: usize,
    /// Passes of each kind per device per step: microbatches in training,
    /// mean active slots in serving.
    pub entries: usize,
    /// Serving: mean KV length an entry attends over.
    pub context: usize,
    pub top_k: usize,
    pub kv_block: usize,
    /// Whether the dominant GEMM is the output layer's (rows x h by the
    /// V/p x h shard) or the MLP's (rows x h by h x ffn_mult*h).
    pub vocab_heavy: bool,
    /// Rows of that dominant GEMM: `rows`, except the serving output
    /// layer, which samples one row per slot.
    pub gemm_rows: usize,
    /// Calls of the dominant GEMM's flop class per device per step.
    pub gemm_calls: usize,
}

impl Shapes {
    fn shard(&self) -> usize {
        VocabPartition::new(self.vocab, DEVICES).real_width(0)
    }
}

fn rand(seed: u64, rows: usize, cols: usize) -> Tensor {
    normal(&mut seeded_rng(seed), rows, cols, 0.5)
}

fn ids(seed: u64, n: usize, vocab: usize) -> Vec<usize> {
    let mut rng = seeded_rng(seed);
    (0..n).map(|_| rng.gen_range(0..vocab)).collect()
}

fn output_shard(s: &Shapes, rank: usize) -> OutputShard {
    let part = VocabPartition::new(s.vocab, DEVICES);
    OutputShard::new(
        rand(11 + rank as u64, part.real_width(rank), s.hidden),
        part,
        rank,
    )
    .expect("shard width matches the partition")
}

fn input_shard(s: &Shapes) -> InputShard {
    let part = VocabPartition::new(s.vocab, DEVICES);
    InputShard::new(rand(13, part.real_width(0), s.hidden), part, 0)
        .expect("shard width matches the partition")
}

/// Times a two-rank operation between this thread (rank 0) and a second
/// benchmark thread (rank 1). Each side runs `setup(rank)` untimed, then
/// both meet at a barrier right before `op`, so the timed side never waits
/// for the peer's set-up. Returns rank 0's median seconds.
fn replay_pair<S>(
    spans: &mut Spans,
    step: usize,
    name: &'static str,
    setup: impl Fn(usize) -> S + Sync,
    op: impl Fn(&Collective, usize, S) + Sync,
) -> f64 {
    let mut comms = CollectiveGroup::new(DEVICES).into_iter();
    let (c0, c1) = (
        comms.next().expect("two ranks"),
        comms.next().expect("two ranks"),
    );
    let (setup, op) = (&setup, &op);
    let mut samples = Vec::with_capacity(REPS);
    std::thread::scope(|scope| {
        let peer = scope.spawn(move || {
            for _ in 0..WARMUPS + REPS {
                let state = setup(1);
                c1.barrier();
                op(&c1, 1, state);
            }
        });
        for i in 0..WARMUPS + REPS {
            let state = setup(0);
            c0.barrier();
            if i < WARMUPS {
                op(&c0, 0, state);
            } else {
                samples.push(spans.timed(name, Some(step), || op(&c0, 0, state)).1);
            }
        }
        peer.join().expect("peer benchmark thread panicked");
    });
    median(&samples)
}

/// Layer functions every workload executes: the dominant GEMM, the
/// dominant softmax, the input-layer gather, point-to-point and stream
/// hand-off latency.
pub fn shared(s: &Shapes, spans: &mut Spans, step: usize, out: &mut Layers) {
    let (h, shard) = (s.hidden, s.shard());
    // Dominant GEMM.
    let (flops, t) = if s.vocab_heavy {
        let (a, w) = (rand(1, s.gemm_rows, h), rand(2, shard, h));
        let t = spans.replay("tensor.matmul_nt", step, || {
            black_box(a.matmul_nt(&w).expect("shapes agree"));
        });
        (2.0 * (s.gemm_rows * h * shard) as f64, t)
    } else {
        let ffn = s.ffn_mult * h;
        let (a, w) = (rand(1, s.gemm_rows, h), rand(2, h, ffn));
        let t = spans.replay("tensor.matmul", step, || {
            black_box(a.matmul(&w).expect("shapes agree"));
        });
        (2.0 * (s.gemm_rows * h * ffn) as f64, t)
    };
    out.set("tensor.gemm.gflops", flops / t / 1e9);
    out.set("tensor.gemm.ms_per_step", t * 1e3 * s.gemm_calls as f64);

    // Dominant softmax: the S pass's over the shard, or attention's over
    // the context. Bytes are computed: one read and one write per element.
    let (elems, t) = if s.vocab_heavy {
        let y = rand(3, s.gemm_rows, shard);
        let t = spans.replay("tensor.local_softmax", step, || {
            black_box(local_softmax(&y));
        });
        (y.len(), t)
    } else {
        let y = rand(3, s.rows, s.context.max(1));
        let t = spans.replay("tensor.softmax_rows", step, || {
            black_box(softmax_rows(&y));
        });
        (y.len(), t)
    };
    out.set("tensor.softmax.gbps", (2 * 4 * elems) as f64 / t / 1e9);

    // Input-layer gather of this shard's rows.
    let input = input_shard(s);
    let tokens = ids(4, s.rows, s.vocab);
    let t = spans.replay("input.forward_local", step, || {
        black_box(input.forward_local(&tokens).expect("ids in vocabulary"));
    });
    out.set("core.input.fwd_us", t * 1e6);

    // Point-to-point round trip of one activation between two threads.
    let payload = s.rows * h;
    let mut endpoints = P2pNetwork::new(DEVICES).into_iter();
    let (mut e0, mut e1) = (
        endpoints.next().expect("two ranks"),
        endpoints.next().expect("two ranks"),
    );
    let mut samples = Vec::with_capacity(REPS);
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || {
            for _ in 0..WARMUPS + REPS {
                let p = e1.recv(0).expect("peer alive");
                e1.send(0, p).expect("peer alive");
            }
        });
        for i in 0..WARMUPS + REPS {
            let packet = Packet::new(7, s.rows, h, vec![0.5; payload]);
            let roundtrip = || {
                e0.send(1, packet).expect("peer alive");
                black_box(e0.recv(1).expect("peer alive"));
            };
            if i < WARMUPS {
                roundtrip();
            } else {
                samples.push(spans.timed("p2p.roundtrip", Some(step), roundtrip).1);
            }
        }
        echo.join().expect("echo thread panicked");
    });
    out.set("collectives.p2p.roundtrip_us", median(&samples) * 1e6);

    // Submit -> wait of an empty job on a communication stream.
    let stream = CommStream::new();
    let t = spans.replay("stream.submit_wait", step, || stream.submit(|| ()).wait());
    out.set("collectives.stream.handoff_us", t * 1e6);
}

/// Layer functions of a training step: attention, GELU, a whole block,
/// the S/T passes with their barrier, the input scatter, the optimizer.
pub fn train(s: &Shapes, spans: &mut Spans, step: usize, out: &mut Layers) {
    let (h, rows) = (s.hidden, s.rows);
    let x = rand(21, rows, h);
    let dy = rand(22, rows, h);

    let mut attn = MultiHeadAttention::new(&mut seeded_rng(23), h, s.heads);
    let t = spans.replay("attention.forward_backward", step, || {
        let (_, cache) = attn.forward(&x).expect("shapes agree");
        black_box(attn.backward(&cache, &dy).expect("shapes agree"));
    });
    out.set("tensor.attn.train_ms", t * 1e3);

    // 8 flops per element: the polynomial around the tanh, the tanh itself
    // counted as one.
    let pre = rand(24, rows, s.ffn_mult * h);
    let t = spans.replay("gelu.forward", step, || {
        black_box(Gelu::new().forward(&pre));
    });
    out.set("tensor.gelu.gflops", 8.0 * pre.len() as f64 / t / 1e9);

    let mut block = TransformerBlock::new(&mut seeded_rng(25), h, s.heads, s.ffn_mult);
    let t = spans.replay("block.forward", step, || {
        black_box(block.forward(&x).expect("shapes agree"));
    });
    out.set("model.block.fwd_ms", t * 1e3);
    let t = spans.replay_with(
        "block.backward",
        step,
        &mut (&mut block, None),
        |(block, cache)| *cache = Some(block.forward(&x).expect("shapes agree").1),
        |(block, cache)| {
            let cache = cache.take().expect("set up before every call");
            black_box(block.backward(&cache, &dy).expect("shapes agree"));
        },
    );
    out.set("model.block.bwd_ms", t * 1e3);

    // S pass, and the two GEMMs inside it (logits, A = softmax' . W).
    let mut shard = output_shard(s, 0);
    let labels = ids(26, rows, s.vocab);
    let t_s = spans.replay("output.s_pass", step, || {
        black_box(shard.s_pass(VocabAlgo::Alg2, &x, &labels).expect("valid"));
    });
    let w = shard.weight().value().clone();
    let t_logits = spans.replay("output.s_pass.gemm_logits", step, || {
        black_box(x.matmul_nt(&w).expect("shapes agree"));
    });
    let sm = rand(27, rows, w.rows());
    let t_a = spans.replay("output.s_pass.gemm_a", step, || {
        black_box(sm.matmul(&w).expect("shapes agree"));
    });
    out.set("core.s_pass.ms", t_s * 1e3);
    out.set("core.s_pass.gemm_share", (t_logits + t_a) / t_s);

    let t = spans.replay_with(
        "output.t_pass_alg2",
        step,
        &mut (&mut shard, None),
        |(shard, state)| {
            let mut s = shard.s_pass(VocabAlgo::Alg2, &x, &labels).expect("valid");
            s.barrier_local();
            *state = Some(s);
        },
        |(shard, state)| {
            let state = state.take().expect("set up before every call");
            shard.t_pass_alg2(&state, &x).expect("rescaled state");
        },
    );
    out.set("core.t_pass.ms", t * 1e3);

    // C1 barrier of Algorithm 2 and a plain all-reduce of one activation,
    // between two benchmark threads.
    let shards = [output_shard(s, 0), output_shard(s, 1)];
    let t = replay_pair(
        spans,
        step,
        "output.barrier_alg2",
        |rank| {
            shards[rank]
                .s_pass(VocabAlgo::Alg2, &x, &labels)
                .expect("valid")
        },
        |comm, rank, mut state| {
            black_box(
                shards[rank]
                    .barrier_alg2(comm, &mut state)
                    .expect("collective"),
            );
        },
    );
    out.set("core.barrier.us", t * 1e6);
    let t = replay_pair(
        spans,
        step,
        "collective.all_reduce",
        |_| vec![0.25f32; rows * h],
        |comm, _, mut buf| {
            comm.all_reduce(&mut buf, ReduceOp::Sum)
                .expect("collective");
            black_box(buf);
        },
    );
    out.set("collectives.all_reduce.us", t * 1e6);

    let mut input = input_shard(s);
    let tokens = ids(28, rows, s.vocab);
    let t = spans.replay("input.backward", step, || {
        input.backward(&tokens, &dy).expect("shapes agree")
    });
    out.set("core.input.bwd_us", t * 1e6);

    // Adam over everything one device owns: its blocks and both
    // embedding shards (whose size is what the vocabulary sets).
    let mut blocks: Vec<TransformerBlock> = (0..s.layers_per_dev).map(|_| block.clone()).collect();
    let mut embeds = [
        Param::new(rand(29, s.shard(), h)),
        Param::new(rand(30, s.shard(), h)),
    ];
    let mut adam = Adam::new(1e-3);
    let t = spans.replay("adam.step", step, || {
        for p in blocks.iter_mut().flat_map(|b| b.params_mut()) {
            adam.step(p).expect("shapes agree");
        }
        for p in &mut embeds {
            adam.step(p).expect("shapes agree");
        }
        adam.next_iteration();
    });
    out.set("tensor.optim.adam_ms_per_step", t * 1e3);
}

/// Layer functions of a serving step. A device runs, per active slot, its
/// blocks' `forward_decode` on the slot's rows against the slot's KV
/// cache, then the one-row decode S pass, the all-gather and the merge.
/// Returns the seconds of one device's step these account for.
pub fn serve(s: &Shapes, spans: &mut Spans, step: usize, out: &mut Layers) -> f64 {
    let (h, rows, m) = (s.hidden, s.rows, s.entries);
    let x = rand(41, rows, h);
    let (k_row, v_row) = (vec![0.1f32; h], vec![0.2f32; h]);
    let pool = KvBlockPool::new(h, s.kv_block);

    // KV append, then attention over the filled cache.
    let attn = MultiHeadAttention::new(&mut seeded_rng(42), h, s.heads);
    let mut kv = KvCache::with_pool(&pool);
    let fill_rows = |kv: &mut KvCache| {
        for _ in 0..s.context {
            kv.append(&k_row, &v_row).expect("unbounded pool");
        }
    };
    let fill = |kv: &mut KvCache| {
        kv.clear();
        fill_rows(kv);
    };
    let t = spans.replay_with("kv.append", step, &mut kv, KvCache::clear, fill_rows);
    out.set(
        "tensor.kv.append_ns_per_row",
        t * 1e9 / s.context.max(1) as f64,
    );
    let t = spans.replay_with("attention.forward_decode", step, &mut kv, fill, |kv| {
        black_box(attn.forward_decode(&x, kv).expect("shapes agree"));
    });
    out.set("tensor.attn.decode_us_per_row", t * 1e6 / rows as f64);
    // The cache now holds context + rows positions in whole blocks.
    out.set(
        "tensor.kv.reserved_over_used",
        kv.reserved_bytes() as f64 / (kv.len() * h * 2 * 4) as f64,
    );

    // One block over every active slot.
    let block = TransformerBlock::new(&mut seeded_rng(43), h, s.heads, s.ffn_mult);
    let mut caches: Vec<KvCache> = (0..m).map(|_| KvCache::with_pool(&pool)).collect();
    let t_block = spans.replay_with(
        "block.forward_decode",
        step,
        &mut caches,
        |caches| caches.iter_mut().for_each(fill),
        |caches| {
            for kv in caches {
                black_box(block.forward_decode(&x, kv).expect("shapes agree"));
            }
        },
    );
    out.set("model.block.decode_ms", t_block * 1e3);

    // Decode S pass of every active slot (one sampled row each), and the
    // GEMV inside it.
    let shard = output_shard(s, 0);
    let tail = rand(44, 1, h);
    let t_s = spans.replay("output.s_pass_decode", step, || {
        for _ in 0..m {
            black_box(shard.s_pass_decode(&tail, s.top_k).expect("valid"));
        }
    });
    let w = shard.weight().value().clone();
    let t_gemv = spans.replay("output.s_pass_decode.gemm", step, || {
        for _ in 0..m {
            black_box(tail.matmul_nt(&w).expect("shapes agree"));
        }
    });
    out.set("core.s_decode.ms", t_s * 1e3);
    out.set("core.s_decode.gemm_share", t_gemv / t_s);

    // The sampling barrier: one all-gather of the payload per slot, then
    // the merge every rank computes identically.
    let payload = shard
        .s_pass_decode(&tail, s.top_k)
        .expect("valid")
        .payload();
    let t_gather = replay_pair(
        spans,
        step,
        "collective.all_gather",
        |_| (),
        |comm, _, ()| {
            black_box(comm.all_gather(&payload));
        },
    );
    out.set("collectives.all_gather.us", t_gather * 1e6);
    let gathered = vec![payload.clone(); DEVICES];
    let t_merge = spans.replay("output.merge_decode", step, || {
        for _ in 0..m {
            black_box(merge_decode(&gathered, 1, s.top_k).expect("matching payloads"));
        }
    });
    out.set("core.merge_decode.us", t_merge * 1e6);

    t_block * s.layers_per_dev as f64 + t_s + t_merge + t_gather * m as f64
}

/// Collective and point-to-point calls and bytes of one training
/// iteration over the whole pipeline, **computed from the schedule and the
/// shapes, not measured**: each F/B forwards one `rows x h` activation
/// (the last stage's F fans it out to every shard as C0, the first
/// stage's B broadcasts the embedding gradient), each InputF sends its
/// partial embedding to the first stage, and each S runs the C1 barrier's
/// three all-reduces (two of `rows`, one of `rows x h` floats).
pub fn train_comm(schedule: &Schedule, rows: usize, hidden: usize) -> (f64, f64) {
    assert_eq!(schedule.chunks(), 1, "the comm model covers one chunk");
    let p = schedule.devices();
    let act = (rows * hidden * 4) as f64;
    let last = schedule.virtual_stages() - 1;
    let (mut calls, mut bytes) = (0.0, 0.0);
    for (device, _, pass) in schedule.iter_all() {
        let vs = schedule.virtual_stage_of(device, pass.chunk);
        let sends = match pass.kind {
            PassKind::F if vs == last => p,
            PassKind::B if vs == 0 => p,
            PassKind::F | PassKind::B | PassKind::InputF => 1,
            PassKind::S => {
                calls += 3.0;
                bytes += (2 * rows * 4) as f64 + act;
                0
            }
            _ => 0,
        };
        calls += sends as f64;
        bytes += sends as f64 * act;
    }
    (calls, bytes)
}

/// Calls and bytes of one serving step over the whole pipeline, computed
/// from shapes: per active slot, the remote shards' embedding rows to
/// stage 0 (counted as one packet per remote shard carrying its share of
/// the rows), one activation per stage boundary, the C0 fan-out of the
/// sampled row, and one all-gather call per device of `2 + 2k` floats.
pub fn serve_comm(s: &Shapes) -> (f64, f64) {
    let p = DEVICES as f64;
    let row = (s.hidden * 4) as f64;
    let per_entry_calls = (p - 1.0) + (p - 1.0) + (p - 1.0) + p;
    let per_entry_bytes = s.rows as f64 * row * (p - 1.0) / p
        + (p - 1.0) * s.rows as f64 * row
        + (p - 1.0) * row
        + p * ((2 + 2 * s.top_k) * 4) as f64;
    (
        per_entry_calls * s.entries as f64,
        per_entry_bytes * s.entries as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_schedule::block::PassTimes;
    use vp_schedule::generators;
    use vp_schedule::pass::VocabVariant;

    #[test]
    fn train_comm_counts_the_vocab_schedule() {
        let s = generators::vocab_1f1b(2, 4, VocabVariant::Alg2, PassTimes::default(), true);
        let (calls, bytes) = train_comm(&s, 8, 16);
        // Per microbatch: 2 InputF sends, F0 -> 1 send, F1 -> C0 to 2
        // shards, B1 -> 1 send, B0 -> 2 broadcasts, 2 S x 3 all-reduces.
        assert_eq!(calls, 4.0 * (2.0 + 1.0 + 2.0 + 1.0 + 2.0 + 6.0));
        let act = (8 * 16 * 4) as f64;
        assert_eq!(bytes, 4.0 * (8.0 * act + 2.0 * (act + 64.0)));
    }
}
