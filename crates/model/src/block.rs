//! A real (numeric) transformer block used by the pipeline runtime.
//!
//! Pre-norm GPT block: `x + Attn(LN1(x))` followed by `x + MLP(LN2(x))`
//! with a GELU MLP of expansion `ffn_mult`. Forward returns an explicit
//! activation cache — the unit of activation memory the paper's pipeline
//! schedules hold per in-flight microbatch.
//!
//! A tensor-parallel shard ([`TransformerBlock::shard`]) is the same type
//! over sliced weights, run by the same [`TransformerBlock::forward_tp`] and
//! [`TransformerBlock::backward_tp`] with the row's reducer.

use crate::tp::{TpPartition, TpReduce};
use vp_tensor::nn::{
    AttentionCache, Gelu, GeluCache, KvCache, LayerNorm, LayerNormCache, Linear, LinearCache,
    MultiHeadAttention,
};
use vp_tensor::optim::Param;
use vp_tensor::rng::Rng;
use vp_tensor::{Result, Tensor};

/// One pre-norm transformer block, or one tensor rank's shard of it.
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    ln2: LayerNorm,
    fc1: Linear,
    /// The MLP down-projection's weight; its bias is `fc2_bias`.
    fc2: Linear,
    /// Added once, after the second reduce point, so a shard's partial
    /// sums see it exactly once. Bitwise the fused bias epilogue (fused ==
    /// unfused is a tensor-crate contract).
    fc2_bias: Param,
}

/// Activations cached by [`TransformerBlock::forward`].
#[derive(Debug, Clone)]
pub struct BlockCache {
    ln1: LayerNormCache,
    attn: AttentionCache,
    ln2: LayerNormCache,
    /// Input to the MLP branch (after the first residual), needed by LN2's
    /// backward entry point.
    fc1: LinearCache,
    gelu: GeluCache,
    fc2: LinearCache,
}

/// The reducer of an unsharded block: its partial sums are already whole.
fn no_reduce(_: &mut Tensor) -> Result<()> {
    Ok(())
}

/// `t += bias`, broadcast over the rows.
fn add_bias(t: &mut Tensor, bias: &Tensor) {
    for r in 0..t.rows() {
        for (v, &b) in t.row_mut(r).iter_mut().zip(bias.row(0)) {
            *v += b;
        }
    }
}

impl TransformerBlock {
    /// Creates a block with `hidden` width, `heads` attention heads and an
    /// MLP of `ffn_mult · hidden`.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is not divisible by `heads`.
    pub fn new(rng: &mut impl Rng, hidden: usize, heads: usize, ffn_mult: usize) -> Self {
        TransformerBlock {
            ln1: LayerNorm::new(hidden),
            attn: MultiHeadAttention::new(rng, hidden, heads),
            ln2: LayerNorm::new(hidden),
            fc1: Linear::new(rng, hidden, ffn_mult * hidden, true),
            fc2: Linear::new(rng, ffn_mult * hidden, hidden, false),
            fc2_bias: Param::new(Tensor::zeros(1, hidden)),
        }
    }

    /// This rank's shard of the block under `part`: the QKV projections
    /// and `fc1` split column-wise (head-aligned), `W_o` and `fc2` row-wise,
    /// so [`Self::forward_tp`] yields partial sums that the row's reducer
    /// completes. The layer norms and `fc2`'s bias are replicated: their
    /// inputs, hence their gradients, are the same on every rank.
    ///
    /// # Panics
    ///
    /// Panics if `part` does not match the block's dimensions.
    pub fn shard(&self, part: &TpPartition) -> TransformerBlock {
        assert_eq!(
            (part.hidden, part.heads, part.ffn),
            (self.hidden(), self.attn.heads(), self.fc1.out_dim()),
            "partition (hidden, heads, ffn) must match the block"
        );
        let (a0, a1) = part.attn_cols();
        let (f0, f1) = part.ffn_cols();
        let attn_cols = |t: &Tensor| t.slice_cols(a0, a1).expect("attention column slice");
        TransformerBlock {
            ln1: self.ln1.clone(),
            attn: MultiHeadAttention::from_parts(
                attn_cols(self.attn.wq()),
                attn_cols(self.attn.wk()),
                attn_cols(self.attn.wv()),
                self.attn.wo().slice_rows(a0, a1).expect("W_o row slice"),
                part.local_heads(),
            ),
            ln2: self.ln2.clone(),
            fc1: Linear::from_parts(
                self.fc1.weight().slice_cols(f0, f1).expect("fc1 slice"),
                self.fc1
                    .bias()
                    .map(|b| b.slice_cols(f0, f1).expect("fc1 bias slice")),
            ),
            fc2: Linear::from_parts(
                self.fc2.weight().slice_rows(f0, f1).expect("fc2 slice"),
                None,
            ),
            fc2_bias: Param::new(self.fc2_bias.value().clone()),
        }
    }

    /// Hidden width of the block.
    pub fn hidden(&self) -> usize {
        self.ln1.dim()
    }

    /// Forward pass over one sequence `x: [s, h]`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the constituent layers.
    pub fn forward(&self, x: &Tensor) -> Result<(Tensor, BlockCache)> {
        self.forward_tp(x, &mut no_reduce)
    }

    /// Forward pass of a tensor-parallel shard over one sequence `x: [s,
    /// h]`. `reduce` is called twice — on the partial attention output and
    /// on the partial MLP output — and must complete them across the tensor
    /// group (identity for an unsharded block).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the constituent layers or the reducer.
    pub fn forward_tp(
        &self,
        x: &Tensor,
        reduce: &mut TpReduce<'_>,
    ) -> Result<(Tensor, BlockCache)> {
        let (n1, ln1_cache) = self.ln1.forward(x)?;
        let (mut attn_out, attn_cache) = self.attn.forward(&n1)?;
        reduce(&mut attn_out)?;
        let mid = x.add(&attn_out)?;
        let (n2, ln2_cache) = self.ln2.forward(&mid)?;
        let (h1, fc1_cache) = self.fc1.forward(&n2)?;
        let (h2, gelu_cache) = Gelu::new().forward(&h1);
        let (mut mlp_out, fc2_cache) = self.fc2.forward(&h2)?;
        reduce(&mut mlp_out)?;
        add_bias(&mut mlp_out, self.fc2_bias.value());
        let y = mid.add(&mlp_out)?;
        Ok((
            y,
            BlockCache {
                ln1: ln1_cache,
                attn: attn_cache,
                ln2: ln2_cache,
                fc1: fc1_cache,
                gelu: gelu_cache,
                fc2: fc2_cache,
            },
        ))
    }

    /// Incremental (decode) forward over `x: [n, h]` — the next `n` tokens
    /// of a sequence whose earlier positions live in `kv`.
    ///
    /// Every sub-layer except attention is row-independent, so the only
    /// state a decode step needs from the past is the attention K/V cache.
    /// Produces output rows bitwise equal to the corresponding rows of
    /// [`Self::forward`] run over the full context (see
    /// [`MultiHeadAttention::forward_decode`] for the argument), without
    /// materialising training activation caches. Decode runs unsharded:
    /// attention refuses a shard.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the constituent layers.
    pub fn forward_decode(&self, x: &Tensor, kv: &mut KvCache) -> Result<Tensor> {
        let n1 = self.ln1.apply(x)?;
        let attn_out = self.attn.forward_decode(&n1, kv)?;
        let mid = x.add(&attn_out)?;
        let n2 = self.ln2.apply(&mid)?;
        let h1 = self.fc1.apply(&n2)?;
        let (h2, _) = Gelu::new().forward(&h1);
        let mut mlp_out = self.fc2.apply(&h2)?;
        add_bias(&mut mlp_out, self.fc2_bias.value());
        mid.add(&mlp_out)
    }

    /// Backward pass: accumulates all parameter gradients, returns `dx`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the constituent layers (indicating the
    /// cache and `dy` do not belong to the same forward call).
    pub fn backward(&mut self, cache: &BlockCache, dy: &Tensor) -> Result<Tensor> {
        self.backward_tp(cache, dy, &mut no_reduce)
    }

    /// Backward pass of a tensor-parallel shard: accumulates all parameter
    /// gradients, returns `dx`. `reduce` is called twice — on the partial
    /// MLP input gradient and on the partial attention input gradient (the
    /// `f`-conjugate all-reduces, in reverse block order).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the constituent layers or the reducer.
    pub fn backward_tp(
        &mut self,
        cache: &BlockCache,
        dy: &Tensor,
        reduce: &mut TpReduce<'_>,
    ) -> Result<Tensor> {
        // Second residual: y = mid + MLP(LN2(mid)) + b. The bias gradient
        // is the column sum of dy, the same on every rank.
        let mut db = Tensor::zeros(1, dy.cols());
        for r in 0..dy.rows() {
            for (d, &g) in db.row_mut(0).iter_mut().zip(dy.row(r)) {
                *d += g;
            }
        }
        self.fc2_bias.accumulate(&db)?;
        let d_h2 = self.fc2.backward(&cache.fc2, dy)?;
        let d_h1 = Gelu::new().backward(&cache.gelu, &d_h2)?;
        let mut d_n2 = self.fc1.backward(&cache.fc1, &d_h1)?;
        reduce(&mut d_n2)?;
        let mut d_mid = self.ln2.backward(&cache.ln2, &d_n2)?;
        d_mid.add_assign(dy)?;
        // First residual: mid = x + Attn(LN1(x)).
        let mut d_n1 = self.attn.backward(&cache.attn, &d_mid)?;
        reduce(&mut d_n1)?;
        let mut dx = self.ln1.backward(&cache.ln1, &d_n1)?;
        dx.add_assign(&d_mid)?;
        Ok(dx)
    }

    /// Mutable references to all trainable parameters in deterministic
    /// order: `ln1` (2), attention (4), `ln2` (2), `fc1` weight and bias,
    /// `fc2` weight, `fc2` bias — 12 tensors, sharded or not.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = self.ln1.params_mut();
        params.extend(self.attn.params_mut());
        params.extend(self.ln2.params_mut());
        params.extend(self.fc1.params_mut());
        params.extend(self.fc2.params_mut());
        params.push(&mut self.fc2_bias);
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_tensor::gradcheck::check_scalar_fn;
    use vp_tensor::init::{normal, seeded_rng};

    #[test]
    fn forward_preserves_shape() {
        let mut rng = seeded_rng(41);
        let block = TransformerBlock::new(&mut rng, 8, 2, 4);
        let x = normal(&mut rng, 5, 8, 1.0);
        let (y, _) = block.forward(&x).unwrap();
        assert_eq!(y.shape(), (5, 8));
    }

    #[test]
    fn input_gradient_checks() {
        let mut rng = seeded_rng(42);
        let block = TransformerBlock::new(&mut rng, 8, 2, 2);
        let x = normal(&mut rng, 3, 8, 0.5);
        let w = normal(&mut rng, 3, 8, 1.0);
        let (_, cache) = block.forward(&x).unwrap();
        let mut block2 = block.clone();
        let dx = block2.backward(&cache, &w).unwrap();
        let report = check_scalar_fn(&x, &dx, 1e-2, |t| {
            block.forward(t).unwrap().0.mul(&w).unwrap().sum()
        });
        assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn block_is_causal() {
        let mut rng = seeded_rng(43);
        let block = TransformerBlock::new(&mut rng, 8, 2, 4);
        let x1 = normal(&mut rng, 4, 8, 1.0);
        let mut x2 = x1.clone();
        for v in x2.row_mut(3) {
            *v += 0.5;
        }
        let (y1, _) = block.forward(&x1).unwrap();
        let (y2, _) = block.forward(&x2).unwrap();
        for r in 0..3 {
            for c in 0..8 {
                assert!((y1.at(r, c) - y2.at(r, c)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn decode_matches_full_forward_bitwise() {
        let mut rng = seeded_rng(46);
        let block = TransformerBlock::new(&mut rng, 8, 2, 4);
        let x = normal(&mut rng, 7, 8, 0.8);
        let (full, _) = block.forward(&x).unwrap();
        let mut kv = KvCache::new(8);
        for i in 0..7 {
            let xi = x.slice_rows(i, i + 1).unwrap();
            let yi = block.forward_decode(&xi, &mut kv).unwrap();
            for (a, b) in full.row(i).iter().zip(yi.row(0)) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i} diverged");
            }
        }
    }

    #[test]
    fn chunked_decode_matches_full_forward_bitwise() {
        // Chunks on both sides of every register tile height (4, 6, 8 rows)
        // and a serving-size chunk: the tiled chunk attention and the
        // packed projections give the rows of the full forward, bit for bit.
        let mut rng = seeded_rng(47);
        let block = TransformerBlock::new(&mut rng, 64, 2, 4);
        let x = normal(&mut rng, 45, 64, 0.8);
        let (full, _) = block.forward(&x).unwrap();
        for chunk in [1, 3, 5, 7, 9, 16, 19] {
            let mut kv = KvCache::new(64);
            for r0 in (0..x.rows()).step_by(chunk) {
                let r1 = x.rows().min(r0 + chunk);
                let y = block
                    .forward_decode(&x.slice_rows(r0, r1).unwrap(), &mut kv)
                    .unwrap();
                for r in r0..r1 {
                    for (a, b) in full.row(r).iter().zip(y.row(r - r0)) {
                        assert_eq!(a.to_bits(), b.to_bits(), "chunk {chunk} row {r}");
                    }
                }
            }
        }
    }

    #[test]
    fn params_cover_all_layers() {
        let mut rng = seeded_rng(44);
        let mut block = TransformerBlock::new(&mut rng, 8, 2, 4);
        // ln1 (2) + attn (4) + ln2 (2) + fc1 (2) + fc2 (2) = 12 tensors.
        assert_eq!(block.params_mut().len(), 12);
        let total: usize = block.params_mut().iter().map(|p| p.len()).sum();
        // 12h² + 4h (ln) + 4h²+h·4h... just check the dominant 12h² term.
        assert!(total >= 12 * 8 * 8);
    }

    #[test]
    fn gradients_flow_to_every_parameter() {
        let mut rng = seeded_rng(45);
        let mut block = TransformerBlock::new(&mut rng, 8, 2, 2);
        let x = normal(&mut rng, 3, 8, 0.5);
        let (y, cache) = block.forward(&x).unwrap();
        block
            .backward(&cache, &Tensor::ones(y.rows(), y.cols()))
            .unwrap();
        for (i, p) in block.params_mut().into_iter().enumerate() {
            assert!(p.grad().max_abs() > 0.0, "param {i} has zero gradient");
        }
    }
}
