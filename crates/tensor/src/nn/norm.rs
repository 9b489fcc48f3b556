use crate::optim::Param;
use crate::{Result, Tensor, TensorError};

/// Layer normalization over the last (column) dimension with learnable
/// gain `γ` and offset `β`.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: Param,
    beta: Param,
    eps: f32,
}

/// Activations cached by [`LayerNorm::forward`].
#[derive(Debug, Clone)]
pub struct LayerNormCache {
    normalized: Tensor,
    inv_std: Vec<f32>,
}

/// A row's mean and inverse standard deviation `1/√(var + eps)`.
#[inline]
fn row_stats(row: &[f32], eps: f32) -> (f32, f32) {
    let dim = row.len() as f32;
    let mean = row.iter().sum::<f32>() / dim;
    let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / dim;
    (mean, 1.0 / (var + eps).sqrt())
}

/// One element's `(x̂, y)`: `x̂ = (v − mean)·is`, `y = γ·x̂ + β`.
#[inline(always)]
fn affine(v: f32, mean: f32, is: f32, g: f32, b: f32) -> (f32, f32) {
    let n = (v - mean) * is;
    (n, g * n + b)
}

impl LayerNorm {
    /// Creates a layer norm over vectors of width `dim` (γ=1, β=0).
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Param::new(Tensor::ones(1, dim)),
            beta: Param::new(Tensor::zeros(1, dim)),
            eps: 1e-5,
        }
    }

    /// Normalized width.
    pub fn dim(&self) -> usize {
        self.gamma.value().cols()
    }

    /// `x.cols() == dim`, or the shape error both forward entry points
    /// return.
    fn check(&self, x: &Tensor) -> Result<()> {
        let dim = self.dim();
        if x.cols() != dim {
            return Err(TensorError::ShapeMismatch {
                op: "layernorm",
                lhs: x.shape(),
                rhs: (1, dim),
            });
        }
        Ok(())
    }

    /// The normalized rows `y = γ·x̂ + β` with no backward cache: what an
    /// inference pass needs. Bitwise the `y` of [`Self::forward`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `x.cols() != dim`.
    pub fn apply(&self, x: &Tensor) -> Result<Tensor> {
        self.check(x)?;
        let (rows, dim) = x.shape();
        let mut y = Tensor::zeros(rows, dim);
        let (gamma, beta) = (self.gamma.value().row(0), self.beta.value().row(0));
        crate::pool::par_rows_mut(
            rows,
            x.len().saturating_mul(8),
            y.data_mut(),
            |r0, _r1, yc| {
                for (li, y_row) in yc.chunks_exact_mut(dim).enumerate() {
                    let row = x.row(r0 + li);
                    let (mean, is) = row_stats(row, self.eps);
                    for ((o, &v), (&g, &b)) in y_row.iter_mut().zip(row).zip(gamma.iter().zip(beta))
                    {
                        *o = affine(v, mean, is, g, b).1;
                    }
                }
            },
        );
        Ok(y)
    }

    /// Forward pass: [`Self::apply`]'s rows, plus the cache the backward
    /// pass reads (the normalized rows `x̂` and each row's `1/σ`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `x.cols() != dim`.
    pub fn forward(&self, x: &Tensor) -> Result<(Tensor, LayerNormCache)> {
        self.check(x)?;
        let (rows, dim) = x.shape();
        let mut normalized = Tensor::zeros(rows, dim);
        let mut inv_std = vec![0.0f32; rows];
        let mut y = Tensor::zeros(rows, dim);
        let (gamma, beta) = (self.gamma.value().row(0), self.beta.value().row(0));
        // Row-parallel: every row's statistics and outputs are independent,
        // so the result is bitwise identical for any thread count.
        crate::pool::par_rows_mut3(
            rows,
            x.len().saturating_mul(8),
            y.data_mut(),
            normalized.data_mut(),
            &mut inv_std,
            |r0, _r1, y_chunk, n_chunk, is_chunk| {
                for (li, is_out) in is_chunk.iter_mut().enumerate() {
                    let row = x.row(r0 + li);
                    let (mean, is) = row_stats(row, self.eps);
                    *is_out = is;
                    // One fused pass: `x̂` and `y` of each element come
                    // from one `affine`, without re-reading `x̂`.
                    let n_row = &mut n_chunk[li * dim..(li + 1) * dim];
                    let y_row = &mut y_chunk[li * dim..(li + 1) * dim];
                    for (((n, o), &v), (&g, &b)) in n_row
                        .iter_mut()
                        .zip(y_row.iter_mut())
                        .zip(row)
                        .zip(gamma.iter().zip(beta))
                    {
                        (*n, *o) = affine(v, mean, is, g, b);
                    }
                }
            },
        );
        Ok((
            y,
            LayerNormCache {
                normalized,
                inv_std,
            },
        ))
    }

    /// Backward pass: accumulates `dγ`, `dβ` and returns `dx`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `dy` does not match the
    /// cached activation shape.
    pub fn backward(&mut self, cache: &LayerNormCache, dy: &Tensor) -> Result<Tensor> {
        let dim = self.dim();
        if dy.shape() != cache.normalized.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "layernorm_bwd",
                lhs: dy.shape(),
                rhs: cache.normalized.shape(),
            });
        }
        let gamma = self.gamma.value().row(0).to_vec();
        let mut dgamma = Tensor::zeros(1, dim);
        let mut dbeta = Tensor::zeros(1, dim);
        let mut dx = Tensor::zeros(dy.rows(), dim);
        for r in 0..dy.rows() {
            let n_row = cache.normalized.row(r);
            let dy_row = dy.row(r);
            // Parameter gradients.
            for (((dg, db), &n), &g) in dgamma
                .row_mut(0)
                .iter_mut()
                .zip(dbeta.row_mut(0).iter_mut())
                .zip(n_row)
                .zip(dy_row)
            {
                *dg += g * n;
                *db += g;
            }
            // Input gradient: with x̂ the normalized input and
            // dŷ = dy·γ,  dx = inv_std · (dŷ − mean(dŷ) − x̂·mean(dŷ·x̂)).
            let dhat: Vec<f32> = dy_row.iter().zip(&gamma).map(|(&d, &g)| d * g).collect();
            let mean_dhat = dhat.iter().sum::<f32>() / dim as f32;
            let mean_dhat_n =
                dhat.iter().zip(n_row).map(|(&d, &n)| d * n).sum::<f32>() / dim as f32;
            let is = cache.inv_std[r];
            for ((o, &d), &n) in dx.row_mut(r).iter_mut().zip(&dhat).zip(n_row) {
                *o = is * (d - mean_dhat - n * mean_dhat_n);
            }
        }
        self.gamma.accumulate(&dgamma)?;
        self.beta.accumulate(&dbeta)?;
        Ok(dx)
    }

    /// Mutable references to the trainable parameters `[γ, β]`.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_scalar_fn;
    use crate::init::{normal, seeded_rng};

    #[test]
    fn apply_is_bitwise_the_forward_output() {
        let mut ln = LayerNorm::new(24);
        for p in ln.params_mut() {
            *p.value_mut() = normal(&mut seeded_rng(4), 1, 24, 1.0);
        }
        for rows in [1, 5, 300] {
            let x = normal(&mut seeded_rng(5), rows, 24, 2.0);
            let (want, _) = ln.forward(&x).unwrap();
            let got = ln.apply(&x).unwrap();
            for (a, b) in got.data().iter().zip(want.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "rows={rows}");
            }
        }
        assert!(ln.apply(&Tensor::zeros(2, 23)).is_err());
    }

    #[test]
    fn output_rows_are_normalized() {
        let ln = LayerNorm::new(8);
        let x = normal(&mut seeded_rng(3), 4, 8, 2.0);
        let (y, _) = ln.forward(&x).unwrap();
        for r in 0..4 {
            let mean = y.row(r).iter().sum::<f32>() / 8.0;
            let var = y
                .row(r)
                .iter()
                .map(|&v| (v - mean) * (v - mean))
                .sum::<f32>()
                / 8.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn rejects_wrong_width() {
        let ln = LayerNorm::new(4);
        assert!(ln.forward(&Tensor::zeros(1, 5)).is_err());
    }

    #[test]
    fn input_gradient_checks() {
        let mut rng = seeded_rng(5);
        let ln = LayerNorm::new(6);
        let x = normal(&mut rng, 3, 6, 1.0);
        // Weighted sum so the gradient is non-trivial.
        let w = normal(&mut rng, 3, 6, 1.0);
        let (y, cache) = ln.forward(&x).unwrap();
        let dy = w.clone();
        let mut ln2 = ln.clone();
        let dx = ln2.backward(&cache, &dy).unwrap();
        let _ = y;
        let report = check_scalar_fn(&x, &dx, 1e-2, |t| {
            let (out, _) = ln.forward(t).unwrap();
            out.mul(&w).unwrap().sum()
        });
        assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn gamma_beta_gradients_check() {
        let mut rng = seeded_rng(6);
        let x = normal(&mut rng, 3, 5, 1.0);
        let mut ln = LayerNorm::new(5);
        let (y, cache) = ln.forward(&x).unwrap();
        ln.backward(&cache, &Tensor::ones(y.rows(), y.cols()))
            .unwrap();
        let dgamma = ln.params_mut()[0].grad().clone();
        let report = check_scalar_fn(&Tensor::ones(1, 5), &dgamma, 1e-2, |g| {
            let mut probe = LayerNorm::new(5);
            probe.gamma = Param::new(g.clone());
            probe.forward(&x).unwrap().0.sum()
        });
        assert!(report.passes(1e-2), "{report:?}");
        let dbeta = ln.params_mut()[1].grad().clone();
        // dL/dβ under L = sum(y) is the row count for every column.
        assert!(dbeta.data().iter().all(|&v| (v - 3.0).abs() < 1e-5));
    }
}
