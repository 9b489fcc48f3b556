use crate::nn::kv::KvCache;
use crate::ops::softmax_rows;
use crate::optim::Param;
use crate::rng::Rng;
use crate::{init, Result, Tensor, TensorError};

/// Causal multi-head self-attention with projection matrices
/// `W_q, W_k, W_v: [h, d]` and `W_o: [d, h]` (no biases, GPT-style), where
/// the inner width `d` is `h` for the full layer and `h / tp` for a
/// head-aligned tensor-parallel shard ([`Self::from_parts`]), whose output
/// is then a partial sum over the shards.
///
/// Operates on a single sequence `x: [s, h]`; batching is handled by the
/// caller (the paper's experiments use microbatch size 1, and pipeline
/// passes operate per microbatch anyway).
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    wq: Param,
    wk: Param,
    wv: Param,
    wo: Param,
    heads: usize,
}

/// Activations cached by [`MultiHeadAttention::forward`].
#[derive(Debug, Clone)]
pub struct AttentionCache {
    input: Tensor,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    /// Per-head post-softmax attention probabilities, `[s, s]` each.
    probs: Vec<Tensor>,
    /// Concatenated per-head context `[s, d]` (input of the output proj).
    context: Tensor,
}

impl MultiHeadAttention {
    /// Creates an attention layer.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is not divisible by `heads` (a configuration bug).
    pub fn new(rng: &mut impl Rng, hidden: usize, heads: usize) -> Self {
        let mut proj = || init::gpt(rng, hidden, hidden);
        Self::from_parts(proj(), proj(), proj(), proj(), heads)
    }

    /// Creates an attention layer from explicit projections `W_q, W_k,
    /// W_v: [h, d]` and `W_o: [d, h]` over `heads` heads of width
    /// `d / heads` (used for sharding and tests).
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree or `d` is not divisible by `heads`.
    pub fn from_parts(wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor, heads: usize) -> Self {
        let (h, d) = wq.shape();
        assert!(
            wk.shape() == (h, d) && wv.shape() == (h, d) && wo.shape() == (d, h),
            "projections must be W_q, W_k, W_v: [h, d] and W_o: [d, h]"
        );
        assert!(
            heads > 0 && d.is_multiple_of(heads),
            "inner width {d} must be divisible by heads {heads}"
        );
        MultiHeadAttention {
            wq: Param::new(wq),
            wk: Param::new(wk),
            wv: Param::new(wv),
            wo: Param::new(wo),
            heads,
        }
    }

    /// Hidden (input and output) width `h`.
    pub fn hidden(&self) -> usize {
        self.wq.value().rows()
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Inner width `d`: the heads' concatenated width.
    fn inner(&self) -> usize {
        self.wq.value().cols()
    }

    fn head_dim(&self) -> usize {
        self.inner() / self.heads
    }

    /// Forward pass over one sequence `x: [s, h]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `x.cols() != hidden`.
    pub fn forward(&self, x: &Tensor) -> Result<(Tensor, AttentionCache)> {
        let h = self.hidden();
        if x.cols() != h {
            return Err(TensorError::ShapeMismatch {
                op: "attention",
                lhs: x.shape(),
                rhs: (x.rows(), h),
            });
        }
        let s = x.rows();
        let hd = self.head_dim();
        let scale = 1.0 / (hd as f32).sqrt();
        let [q, k, v] = self.project(x)?;
        let mut context = Tensor::zeros(s, self.inner());
        let mut probs = Vec::with_capacity(self.heads);
        for head in 0..self.heads {
            let c0 = head * hd;
            let c1 = c0 + hd;
            let qh = q.slice_cols(c0, c1)?;
            let kh = k.slice_cols(c0, c1)?;
            let vh = v.slice_cols(c0, c1)?;
            // scores[i][j] = (q_i · k_j) / sqrt(hd), causally masked (j <= i).
            let mut scores = qh.matmul_nt(&kh)?;
            scores.scale_in_place(scale);
            for i in 0..s {
                for j in (i + 1)..s {
                    *scores.at_mut(i, j) = f32::NEG_INFINITY;
                }
            }
            let p = softmax_rows(&scores);
            let ctx_h = p.matmul(&vh)?;
            for i in 0..s {
                context.row_mut(i)[c0..c1].copy_from_slice(ctx_h.row(i));
            }
            probs.push(p);
        }
        let y = self.wo.left_matmul(&context, None)?;
        Ok((
            y,
            AttentionCache {
                input: x.clone(),
                q,
                k,
                v,
                probs,
                context,
            },
        ))
    }

    /// Incremental (decode) forward: attends the `n` new rows of `x` over
    /// the cached prefix plus themselves, appending their projected
    /// keys/values to `kv`.
    ///
    /// Row `i` of the output is **bitwise identical** to row
    /// `kv.len() + i` of [`Self::forward`] run over the concatenated full
    /// sequence: per output element the operations (projection matmuls,
    /// score dot product, scale, softmax, context sum) are the same in the
    /// same order — `KvCache::attend` computes them from the block table
    /// in place — and truncating at the causal horizon instead of masking
    /// with `−∞` only removes terms that contribute exactly-zero addends.
    /// The serve runtime's decode-vs-recompute equivalence tests pin this
    /// down.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the layer is a
    /// tensor-parallel shard (decode completes no partial sums),
    /// [`TensorError::ShapeMismatch`] naming `x` against `W_q`
    /// (`attention_decode`) or the cache against `W_k`
    /// (`attention_decode_kv`) if either is not `hidden` wide, and
    /// [`TensorError::Exhausted`] if the cache's block pool is bounded and
    /// cannot hold the whole chunk — the cache is unchanged in that case,
    /// so the call can be retried once other requests retire.
    pub fn forward_decode(&self, x: &Tensor, kv: &mut KvCache) -> Result<Tensor> {
        let h = self.hidden();
        if self.inner() != h {
            return Err(TensorError::InvalidArgument(format!(
                "attention_decode: a tensor-parallel shard ({} of {h} attention columns) \
                 completes no partial sums; decode runs unsharded layers",
                self.inner()
            )));
        }
        if x.cols() != h {
            return Err(TensorError::ShapeMismatch {
                op: "attention_decode",
                lhs: x.shape(),
                rhs: self.wq.value().shape(),
            });
        }
        if kv.hidden() != h {
            return Err(TensorError::ShapeMismatch {
                op: "attention_decode_kv",
                lhs: (kv.len(), kv.hidden()),
                rhs: self.wk.value().shape(),
            });
        }
        let [q, k, v] = self.project(x)?;
        kv.append_rows(k.data(), v.data())?;
        self.wo.left_matmul(&kv.attend(&q, self.heads), None)
    }

    /// The query, key and value projections `x·W_q`, `x·W_k`, `x·W_v`,
    /// each read through its weight's pack ([`Param::left_matmul`]).
    fn project(&self, x: &Tensor) -> Result<[Tensor; 3]> {
        Ok([
            self.wq.left_matmul(x, None)?,
            self.wk.left_matmul(x, None)?,
            self.wv.left_matmul(x, None)?,
        ])
    }

    /// Backward pass: accumulates all four weight gradients and returns `dx`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `dy` does not match the
    /// forward output shape.
    pub fn backward(&mut self, cache: &AttentionCache, dy: &Tensor) -> Result<Tensor> {
        let h = self.hidden();
        let s = cache.input.rows();
        if dy.shape() != (s, h) {
            return Err(TensorError::ShapeMismatch {
                op: "attention_bwd",
                lhs: dy.shape(),
                rhs: (s, h),
            });
        }
        let hd = self.head_dim();
        let scale = 1.0 / (hd as f32).sqrt();

        // Output projection.
        let d_context = dy.matmul_nt(self.wo.value())?;
        let dwo = cache.context.matmul_tn(dy)?;
        self.wo.accumulate(&dwo)?;

        let d = self.inner();
        let mut dq = Tensor::zeros(s, d);
        let mut dk = Tensor::zeros(s, d);
        let mut dv = Tensor::zeros(s, d);
        for head in 0..self.heads {
            let c0 = head * hd;
            let c1 = c0 + hd;
            let qh = cache.q.slice_cols(c0, c1)?;
            let kh = cache.k.slice_cols(c0, c1)?;
            let vh = cache.v.slice_cols(c0, c1)?;
            let p = &cache.probs[head];
            let d_ctx_h = d_context.slice_cols(c0, c1)?;
            // ctx = P · V  ⇒  dP = dctx · Vᵀ,  dV = Pᵀ · dctx.
            let dp = d_ctx_h.matmul_nt(&vh)?;
            let dvh = p.matmul_tn(&d_ctx_h)?;
            // Softmax backward per row: dS = P ⊙ (dP − Σ_j dP⊙P).
            let mut ds = Tensor::zeros(s, s);
            for i in 0..s {
                let p_row = p.row(i);
                let dp_row = dp.row(i);
                let dot: f32 = p_row.iter().zip(dp_row).map(|(&a, &b)| a * b).sum();
                for ((o, &pv), &dpv) in ds.row_mut(i).iter_mut().zip(p_row).zip(dp_row) {
                    *o = pv * (dpv - dot);
                }
            }
            // scores = scale · Q Kᵀ  ⇒  dQ = scale · dS · K, dK = scale · dSᵀ · Q.
            let mut dqh = ds.matmul(&kh)?;
            dqh.scale_in_place(scale);
            let mut dkh = ds.matmul_tn(&qh)?;
            dkh.scale_in_place(scale);
            for i in 0..s {
                dq.row_mut(i)[c0..c1].copy_from_slice(dqh.row(i));
                dk.row_mut(i)[c0..c1].copy_from_slice(dkh.row(i));
                dv.row_mut(i)[c0..c1].copy_from_slice(dvh.row(i));
            }
        }

        // Input projections.
        let dwq = cache.input.matmul_tn(&dq)?;
        let dwk = cache.input.matmul_tn(&dk)?;
        let dwv = cache.input.matmul_tn(&dv)?;
        self.wq.accumulate(&dwq)?;
        self.wk.accumulate(&dwk)?;
        self.wv.accumulate(&dwv)?;
        let mut dx = dq.matmul_nt(self.wq.value())?;
        dx.add_assign(&dk.matmul_nt(self.wk.value())?)?;
        dx.add_assign(&dv.matmul_nt(self.wv.value())?)?;
        Ok(dx)
    }

    /// Mutable references to the trainable parameters `[W_q, W_k, W_v, W_o]`.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.wq, &mut self.wk, &mut self.wv, &mut self.wo]
    }

    /// Immutable view of the query projection `W_q`.
    pub fn wq(&self) -> &Tensor {
        self.wq.value()
    }

    /// Immutable view of the key projection `W_k`.
    pub fn wk(&self) -> &Tensor {
        self.wk.value()
    }

    /// Immutable view of the value projection `W_v`.
    pub fn wv(&self) -> &Tensor {
        self.wv.value()
    }

    /// Immutable view of the output projection `W_o`.
    pub fn wo(&self) -> &Tensor {
        self.wo.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_scalar_fn;
    use crate::init::{normal, seeded_rng};

    #[test]
    fn forward_is_causal() {
        // Changing a future token must not change earlier outputs.
        let mut rng = seeded_rng(21);
        let attn = MultiHeadAttention::new(&mut rng, 8, 2);
        let x1 = normal(&mut rng, 5, 8, 1.0);
        let mut x2 = x1.clone();
        for v in x2.row_mut(4) {
            *v += 1.0;
        }
        let (y1, _) = attn.forward(&x1).unwrap();
        let (y2, _) = attn.forward(&x2).unwrap();
        for i in 0..4 {
            for c in 0..8 {
                assert!((y1.at(i, c) - y2.at(i, c)).abs() < 1e-6, "row {i} changed");
            }
        }
        assert!(y1
            .row(4)
            .iter()
            .zip(y2.row(4))
            .any(|(a, b)| (a - b).abs() > 1e-6));
    }

    #[test]
    fn attention_probs_rows_sum_to_one() {
        let mut rng = seeded_rng(22);
        let attn = MultiHeadAttention::new(&mut rng, 4, 1);
        let x = normal(&mut rng, 3, 4, 1.0);
        let (_, cache) = attn.forward(&x).unwrap();
        for r in 0..3 {
            let sum: f32 = cache.probs[0].row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            // Masked entries are exactly zero.
            for j in (r + 1)..3 {
                assert_eq!(cache.probs[0].at(r, j), 0.0);
            }
        }
    }

    #[test]
    fn input_gradient_checks() {
        let mut rng = seeded_rng(23);
        let attn = MultiHeadAttention::new(&mut rng, 6, 2);
        let x = normal(&mut rng, 4, 6, 0.7);
        let w = normal(&mut rng, 4, 6, 1.0);
        let (_, cache) = attn.forward(&x).unwrap();
        let mut attn2 = attn.clone();
        let dx = attn2.backward(&cache, &w).unwrap();
        let report = check_scalar_fn(&x, &dx, 1e-2, |t| {
            attn.forward(t).unwrap().0.mul(&w).unwrap().sum()
        });
        assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn weight_gradients_check() {
        let mut rng = seeded_rng(24);
        let attn = MultiHeadAttention::new(&mut rng, 4, 2);
        let x = normal(&mut rng, 3, 4, 0.7);
        let (_, cache) = attn.forward(&x).unwrap();
        let mut attn2 = attn.clone();
        attn2.backward(&cache, &Tensor::ones(3, 4)).unwrap();
        // Check W_q and W_o gradients by perturbation.
        for (idx, name) in [(0usize, "wq"), (3usize, "wo")] {
            let analytic = attn2.params_mut()[idx].grad().clone();
            let base = {
                let mut a = attn.clone();
                a.params_mut()[idx].value().clone()
            };
            let report = check_scalar_fn(&base, &analytic, 1e-2, |w| {
                let mut probe = attn.clone();
                *probe.params_mut()[idx].value_mut() = w.clone();
                probe.forward(&x).unwrap().0.sum()
            });
            assert!(report.passes(2e-2), "{name}: {report:?}");
        }
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn rejects_indivisible_heads() {
        let _ = MultiHeadAttention::new(&mut seeded_rng(0), 6, 4);
    }

    #[test]
    #[should_panic(expected = "projections")]
    fn from_parts_rejects_mismatched_projections() {
        let w = || Tensor::zeros(8, 4);
        let _ = MultiHeadAttention::from_parts(w(), w(), w(), w(), 2);
    }

    /// The formulation [`KvCache::attend`] replaced, kept as its oracle:
    /// project, append row by row, then [`attend_oracle`] and `W_o`.
    fn decode_oracle(attn: &MultiHeadAttention, x: &Tensor, kv: &mut KvCache) -> Tensor {
        let q = x.matmul(attn.wq.value()).unwrap();
        let k = x.matmul(attn.wk.value()).unwrap();
        let v = x.matmul(attn.wv.value()).unwrap();
        for i in 0..x.rows() {
            kv.append(k.row(i), v.row(i)).unwrap();
        }
        attend_oracle(kv, &q, attn.heads)
            .matmul(attn.wo.value())
            .unwrap()
    }

    /// [`KvCache::attend`]'s oracle: per (head, row), gather the causal
    /// prefix out of the block table into fresh tensors, then `matmul_nt`,
    /// scale, `softmax_rows`, `matmul`.
    fn attend_oracle(kv: &KvCache, q: &Tensor, heads: usize) -> Tensor {
        let (n, h) = q.shape();
        let hd = h / heads;
        let scale = 1.0 / (hd as f32).sqrt();
        let base = kv.len() - n;
        let mut context = Tensor::zeros(n, h);
        for head in 0..heads {
            let (c0, c1) = (head * hd, (head + 1) * hd);
            for i in 0..n {
                let horizon = base + i + 1;
                let mut kh = Tensor::zeros(horizon, hd);
                let mut vh = Tensor::zeros(horizon, hd);
                for j in 0..horizon {
                    kh.row_mut(j).copy_from_slice(&kv.k_row(j)[c0..c1]);
                    vh.row_mut(j).copy_from_slice(&kv.v_row(j)[c0..c1]);
                }
                let mut qh = Tensor::zeros(1, hd);
                qh.row_mut(0).copy_from_slice(&q.row(i)[c0..c1]);
                let mut scores = qh.matmul_nt(&kh).unwrap();
                scores.scale_in_place(scale);
                let ctx = softmax_rows(&scores).matmul(&vh).unwrap();
                context.row_mut(i)[c0..c1].copy_from_slice(ctx.row(0));
            }
        }
        context
    }

    #[test]
    fn paged_kernel_is_bitwise_the_gather_oracle() {
        use crate::gemm::MR;
        use crate::nn::kv::KvBlockPool;
        // Head widths 80 and 20: whole column strips plus a ragged one
        // under every register tile.
        let hidden = 80;
        // (cached row, column) of the planted value: the first and the
        // last cached position, in the first and the last head.
        let poisons = [
            None,
            Some(f32::NAN),
            Some(f32::INFINITY),
            Some(f32::NEG_INFINITY),
        ];
        // Decode rows, chunks either side of one register tile, a ragged
        // tile count, and a serving chunk.
        let chunks = [1, 3, MR - 1, MR, MR + 1, 2 * MR + 3, 16];
        let bits = |row: &[f32]| -> Vec<u32> { row.iter().map(|v| v.to_bits()).collect() };
        let mut rng = seeded_rng(81);
        let mut cases = 0;
        for heads in [1, 4] {
            let attn = MultiHeadAttention::new(&mut rng, hidden, heads);
            for kv_block in [1, 3, 16] {
                for base in [0, 1, 15, 16, 17, 70] {
                    for n in chunks {
                        let x = normal(&mut rng, n, hidden, 0.9);
                        let prefix_k = normal(&mut rng, base, hidden, 0.9);
                        let prefix_v = normal(&mut rng, base, hidden, 0.9);
                        let q = normal(&mut rng, n, hidden, 0.9);
                        let chunk_k = normal(&mut rng, n, hidden, 0.9);
                        let chunk_v = normal(&mut rng, n, hidden, 0.9);
                        for poison in poisons {
                            // Poison needs a cached row to sit in.
                            let (mut pk, mut pv) = (prefix_k.clone(), prefix_v.clone());
                            if let (Some(p), true) = (poison, base > 0) {
                                *pk.at_mut(0, hidden - 1) = p;
                                *pv.at_mut(base - 1, 0) = p;
                            }
                            let pool = KvBlockPool::new(hidden, kv_block);
                            let mut paged = KvCache::with_pool(&pool);
                            let mut gathered = KvCache::with_pool(&pool);
                            paged.append_rows(pk.data(), pv.data()).unwrap();
                            gathered.append_rows(pk.data(), pv.data()).unwrap();
                            let got = attn.forward_decode(&x, &mut paged).unwrap();
                            let want = decode_oracle(&attn, &x, &mut gathered);
                            let what = format!(
                                "heads={heads} kv_block={kv_block} base={base} n={n} \
                                 poison={poison:?}"
                            );
                            for (a, b) in got.data().iter().zip(want.data()) {
                                assert_eq!(a.to_bits(), b.to_bits(), "{what}");
                            }
                            // Chunk append ≡ row-at-a-time append.
                            assert_eq!(paged.len(), gathered.len(), "{what}");
                            for j in 0..paged.len() {
                                assert_eq!(bits(&paged.k_row(j)), bits(&gathered.k_row(j)));
                                assert_eq!(bits(paged.v_row(j)), bits(gathered.v_row(j)));
                            }

                            // Poison in the chunk's own rows, which only
                            // the rows at or past them may see: values
                            // one position past each register tile's
                            // shared horizon, and the last row's key.
                            let (mut ck, mut cv) = (chunk_k.clone(), chunk_v.clone());
                            if let Some(p) = poison {
                                for i in (1..n).step_by(MR) {
                                    *cv.at_mut(i, 0) = p;
                                    *cv.at_mut(i, hidden - 1) = p;
                                }
                                *ck.at_mut(n - 1, hidden / 2) = p;
                            }
                            let mut paged = KvCache::with_pool(&pool);
                            let mut gathered = KvCache::with_pool(&pool);
                            for kv in [&mut paged, &mut gathered] {
                                kv.append_rows(pk.data(), pv.data()).unwrap();
                            }
                            paged.append_rows(ck.data(), cv.data()).unwrap();
                            for i in 0..n {
                                gathered.append(ck.row(i), cv.row(i)).unwrap();
                            }
                            let got = paged.attend(&q, heads);
                            let want = attend_oracle(&gathered, &q, heads);
                            for (a, b) in got.data().iter().zip(want.data()) {
                                assert_eq!(a.to_bits(), b.to_bits(), "chunk poison {what}");
                            }
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 2 * 3 * 6 * chunks.len() * 4);
    }

    #[test]
    fn failed_chunk_leaves_the_cache_unchanged_and_a_retry_matches_unbounded() {
        // Four 2-token blocks: `other` holds two, the three cached rows
        // below hold two more, and the 4-row chunk needs a third and a
        // fourth of its own — the pool runs dry on the *second* one.
        use crate::nn::kv::KvBlockPool;
        let mut rng = seeded_rng(82);
        let attn = MultiHeadAttention::new(&mut rng, 8, 2);
        let prefix = normal(&mut rng, 3, 8, 0.9);
        let chunk = normal(&mut rng, 4, 8, 0.9);

        let mut unbounded = KvCache::with_pool(&KvBlockPool::new(8, 2));
        attn.forward_decode(&prefix, &mut unbounded).unwrap();
        let want = attn.forward_decode(&chunk, &mut unbounded).unwrap();

        let pool = KvBlockPool::bounded(8, 2, 5);
        let mut other = KvCache::with_pool(&pool);
        other.append_rows(&[0.5; 32], &[0.5; 32]).unwrap();
        let mut kv = KvCache::with_pool(&pool);
        attn.forward_decode(&prefix, &mut kv).unwrap();
        assert_eq!((kv.len(), kv.blocks(), pool.allocated_blocks()), (3, 2, 4));
        let err = attn.forward_decode(&chunk, &mut kv).unwrap_err();
        assert!(matches!(err, TensorError::Exhausted { .. }));
        assert_eq!((kv.len(), kv.blocks(), pool.allocated_blocks()), (3, 2, 4));

        other.release();
        let got = attn.forward_decode(&chunk, &mut kv).unwrap();
        assert_eq!(kv.len(), 7);
        for (a, b) in got.data().iter().zip(want.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "retry diverged");
        }
    }

    #[test]
    fn decode_is_bitwise_equal_to_full_forward() {
        let mut rng = seeded_rng(77);
        let attn = MultiHeadAttention::new(&mut rng, 8, 2);
        let x = normal(&mut rng, 6, 8, 0.9);
        let (full, _) = attn.forward(&x).unwrap();
        // Token-at-a-time decode over the same sequence.
        let mut kv = KvCache::new(8);
        for i in 0..6 {
            let xi = x.slice_rows(i, i + 1).unwrap();
            let yi = attn.forward_decode(&xi, &mut kv).unwrap();
            for (a, b) in full.row(i).iter().zip(yi.row(0)) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i} diverged");
            }
        }
        assert_eq!(kv.len(), 6);
        // Chunked decode (multi-row prefill) matches too.
        let mut kv2 = KvCache::new(8);
        let first = x.slice_rows(0, 4).unwrap();
        let rest = x.slice_rows(4, 6).unwrap();
        let y0 = attn.forward_decode(&first, &mut kv2).unwrap();
        let y1 = attn.forward_decode(&rest, &mut kv2).unwrap();
        for i in 0..4 {
            for (a, b) in full.row(i).iter().zip(y0.row(i)) {
                assert_eq!(a.to_bits(), b.to_bits(), "chunk row {i}");
            }
        }
        for i in 0..2 {
            for (a, b) in full.row(4 + i).iter().zip(y1.row(i)) {
                assert_eq!(a.to_bits(), b.to_bits(), "tail row {i}");
            }
        }
    }

    #[test]
    fn decode_is_bitwise_identical_across_kv_block_sizes() {
        // Paged-vs-contiguous equivalence: a one-block pool (block size ≥
        // sequence) is the old contiguous layout; tiny pages that force
        // rows across block boundaries must produce bit-identical output.
        use crate::nn::kv::KvBlockPool;
        let mut rng = seeded_rng(79);
        let attn = MultiHeadAttention::new(&mut rng, 8, 2);
        let x = normal(&mut rng, 7, 8, 0.9);
        let decode_with = |block_tokens: usize| -> Vec<u32> {
            let pool = KvBlockPool::new(8, block_tokens);
            let mut kv = KvCache::with_pool(&pool);
            let mut bits = Vec::new();
            for i in 0..7 {
                let xi = x.slice_rows(i, i + 1).unwrap();
                let yi = attn.forward_decode(&xi, &mut kv).unwrap();
                bits.extend(yi.row(0).iter().map(|v| v.to_bits()));
            }
            bits
        };
        let contiguous = decode_with(64);
        // Block size 2 puts the 7-row context across 4 pages; size 3
        // exercises a partially filled tail page at every boundary shape.
        assert_eq!(decode_with(2), contiguous, "2-token pages diverged");
        assert_eq!(decode_with(3), contiguous, "3-token pages diverged");
    }

    #[test]
    fn decode_attends_across_block_boundaries() {
        // A context longer than one page must still attend to rows in
        // earlier blocks: perturbing a position in the *first* block
        // changes the output of a query in the *second* block.
        use crate::nn::kv::KvBlockPool;
        let mut rng = seeded_rng(80);
        let attn = MultiHeadAttention::new(&mut rng, 8, 2);
        let x1 = normal(&mut rng, 6, 8, 0.9);
        let mut x2 = x1.clone();
        for v in x2.row_mut(0) {
            *v += 1.0;
        }
        let last_out = |x: &Tensor| {
            let pool = KvBlockPool::new(8, 4); // rows 4..6 spill to block 1
            let mut kv = KvCache::with_pool(&pool);
            let mut last = Vec::new();
            for i in 0..6 {
                let xi = x.slice_rows(i, i + 1).unwrap();
                let yi = attn.forward_decode(&xi, &mut kv).unwrap();
                last = yi.row(0).to_vec();
            }
            assert_eq!(kv.blocks(), 2, "context must straddle a page edge");
            last
        };
        let (a, b) = (last_out(&x1), last_out(&x2));
        assert!(
            a.iter().zip(&b).any(|(x, y)| (x - y).abs() > 1e-6),
            "query in block 1 ignored the perturbed row in block 0"
        );
    }

    #[test]
    fn decode_rejects_mismatched_cache_width() {
        let mut rng = seeded_rng(78);
        let attn = MultiHeadAttention::new(&mut rng, 8, 2);
        let x = normal(&mut rng, 1, 8, 1.0);
        let mut kv = KvCache::new(4);
        let err = attn.forward_decode(&x, &mut kv).unwrap_err();
        assert_eq!(
            err,
            TensorError::ShapeMismatch {
                op: "attention_decode_kv",
                lhs: (0, 4),
                rhs: (8, 8),
            }
        );
        assert_eq!(kv.len(), 0, "a refused chunk appends nothing");
    }

    #[test]
    fn decode_names_a_mismatched_input() {
        let mut rng = seeded_rng(79);
        let attn = MultiHeadAttention::new(&mut rng, 8, 2);
        let x = normal(&mut rng, 3, 6, 1.0);
        let err = attn.forward_decode(&x, &mut KvCache::new(8)).unwrap_err();
        assert_eq!(
            err,
            TensorError::ShapeMismatch {
                op: "attention_decode",
                lhs: (3, 6),
                rhs: (8, 8),
            }
        );
    }

    #[test]
    fn decode_refuses_a_tensor_parallel_shard() {
        // A shard whose input and cache are both the right width: only the
        // layer's inner width is wrong, and the error says so.
        let mut rng = seeded_rng(80);
        let mut w = |rows, cols| normal(&mut rng, rows, cols, 1.0);
        let shard = MultiHeadAttention::from_parts(w(8, 4), w(8, 4), w(8, 4), w(4, 8), 1);
        let x = w(1, 8);
        let err = shard.forward_decode(&x, &mut KvCache::new(8)).unwrap_err();
        assert!(
            matches!(&err, TensorError::InvalidArgument(m) if m.contains("tensor-parallel shard")),
            "{err}"
        );
    }
}
