//! Forward-only inference serving on the pass-VM: paged per-layer KV
//! caches from the buffer arena, continuous batching with chunked prefill
//! over request slots, and the paper's Algorithm-2 output layer
//! repurposed as a single-barrier sampling merge (sharded logits → local
//! top-k/softmax stats → one `all_gather` → identical greedy pick on
//! every rank) over the whole batch — one output-layer GEMM and one
//! barrier per step — optionally split into a submit/deferred-merge pair.
//!
//! * [`engine`] — the [`ServeEngine`]: persistent device threads walking
//!   [`vp_schedule::generators::decode_pipeline`] (inline barrier) or
//!   [`vp_schedule::generators::decode_pipeline_overlap`] (S submits to a
//!   per-device comm stream, T merges) pass lists —
//!   generated once per batch size and statically verified by
//!   `vp_check::check_decode` at startup, then executed as verified —
//!   plus the continuous-batching driver with paged-KV admission
//!   backpressure.
//! * [`workload`] — deterministic synthetic request streams with Poisson
//!   (open-loop) or closed-loop arrivals.
//! * [`reference_decode`] — the single-device oracle: full-context
//!   recompute per step, full-vocabulary argmax. The pipelined,
//!   KV-cached, vocabulary-sharded engine must reproduce its greedy
//!   token stream **bitwise** ([`greedy_matches_reference`]).

pub mod engine;
pub mod workload;

pub use engine::{Completion, ServeConfig, ServeEngine, ServeRun};
pub use workload::{Request, WorkloadSpec};

use crate::model::{FullModel, TinyConfig};
use crate::stage::forward_blocks;
use vp_tensor::ops::argmax_rows;
use vp_tensor::{Result, Tensor};

/// Greedy decode on a single device with **no** KV cache and **no**
/// sharding: re-embeds and re-runs the whole context every step, takes the
/// full-vocabulary argmax of the last row's logits. The slowest, most
/// obviously correct decoder — the oracle the serving path is checked
/// against.
///
/// # Errors
///
/// Propagates shape errors (prompt too long for `seq_len`, out-of-vocab
/// token).
pub fn reference_decode(
    config: &TinyConfig,
    prompt: &[usize],
    output_len: usize,
) -> Result<Vec<usize>> {
    let full = FullModel::build(config);
    let mut ctx = prompt.to_vec();
    let mut out = Vec::with_capacity(output_len);
    for _ in 0..output_len {
        let n = ctx.len();
        let mut x = Tensor::zeros(n, config.hidden);
        for (r, &t) in ctx.iter().enumerate() {
            x.row_mut(r).copy_from_slice(full.input_weight.row(t));
        }
        let x = x.add(&full.pos_weight.slice_rows(0, n)?)?;
        let (h, _) = forward_blocks(&full.blocks, &x, None)?;
        let logits = h.slice_rows(n - 1, n)?.matmul_nt(&full.output_weight)?;
        let token = argmax_rows(&logits)[0];
        out.push(token);
        ctx.push(token);
    }
    Ok(out)
}

/// Runs `requests` through a fresh engine and checks every completion's
/// token stream is **bitwise identical** to [`reference_decode`] on the
/// same prompt. Returns `true` only if all match.
///
/// # Errors
///
/// Propagates engine-start and reference-forward errors.
pub fn greedy_matches_reference(config: &ServeConfig, requests: &[Request]) -> Result<bool> {
    let mut engine = ServeEngine::start(config.clone())?;
    let run = engine.serve(requests);
    engine.shutdown();
    if run.completions.len() != requests.len() {
        return Ok(false);
    }
    for c in &run.completions {
        let r = &requests[c.id];
        let expected = reference_decode(&config.model, &r.prompt, r.output_len)?;
        if c.tokens != expected {
            return Ok(false);
        }
    }
    Ok(true)
}
