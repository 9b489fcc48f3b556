use crate::optim::Param;
use crate::rng::Rng;
use crate::{init, Result, Tensor};

/// A fully-connected layer `y = x·W + b` with `W: [in, out]`, `b: [1, out]`.
///
/// # Example
///
/// ```
/// use vp_tensor::{nn::Linear, Tensor, init};
///
/// let mut rng = init::seeded_rng(0);
/// let layer = Linear::new(&mut rng, 4, 2, true);
/// let x = Tensor::ones(3, 4);
/// let (y, _cache) = layer.forward(&x)?;
/// assert_eq!(y.shape(), (3, 2));
/// # Ok::<(), vp_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Option<Param>,
}

/// Activations cached by [`Linear::forward`] for the backward pass.
#[derive(Debug, Clone)]
pub struct LinearCache {
    input: Tensor,
}

impl LinearCache {
    /// Bytes of activation memory held by this cache.
    pub fn bytes(&self) -> usize {
        self.input.len() * std::mem::size_of::<f32>()
    }
}

impl Linear {
    /// Creates a layer with GPT-style initialized weights and zero bias.
    pub fn new(rng: &mut impl Rng, in_dim: usize, out_dim: usize, with_bias: bool) -> Self {
        Linear {
            weight: Param::new(init::gpt(rng, in_dim, out_dim)),
            bias: with_bias.then(|| Param::new(Tensor::zeros(1, out_dim))),
        }
    }

    /// Creates a layer from explicit tensors (used for sharding and tests).
    pub fn from_parts(weight: Tensor, bias: Option<Tensor>) -> Self {
        Linear {
            weight: Param::new(weight),
            bias: bias.map(Param::new),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weight.value().rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.value().cols()
    }

    /// `y = x·W + b` with no backward cache: the forward product alone,
    /// what an inference pass needs. The bias is fused into the GEMM while
    /// each output strip is still cache-hot — bitwise identical to
    /// matmul-then-broadcast-add (see [`Tensor::matmul_bias`]) — and the
    /// weight is read through its pack ([`Param::left_matmul`]).
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x.cols() != in_dim`.
    pub fn apply(&self, x: &Tensor) -> Result<Tensor> {
        self.weight
            .left_matmul(x, self.bias.as_ref().map(Param::value))
    }

    /// Forward pass: [`Self::apply`], caching the input for backward.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x.cols() != in_dim`.
    pub fn forward(&self, x: &Tensor) -> Result<(Tensor, LinearCache)> {
        Ok((self.apply(x)?, LinearCache { input: x.clone() }))
    }

    /// Backward pass: accumulates `dW`, `db` and returns `dx`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `dy` does not match the forward output shape.
    pub fn backward(&mut self, cache: &LinearCache, dy: &Tensor) -> Result<Tensor> {
        // dx = dy · Wᵀ; `matmul_nt` multiplies by the transposed rhs.
        let dx = dy.matmul_nt(self.weight.value())?;
        let dw = cache.input.matmul_tn(dy)?;
        self.weight.accumulate(&dw)?;
        if let Some(b) = &mut self.bias {
            let mut db = Tensor::zeros(1, dy.cols());
            for r in 0..dy.rows() {
                for (d, &g) in db.row_mut(0).iter_mut().zip(dy.row(r)) {
                    *d += g;
                }
            }
            b.accumulate(&db)?;
        }
        Ok(dx)
    }

    /// Mutable references to all trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = vec![&mut self.weight];
        if let Some(b) = &mut self.bias {
            v.push(b);
        }
        v
    }

    /// Immutable view of the weight matrix.
    pub fn weight(&self) -> &Tensor {
        self.weight.value()
    }

    /// Immutable view of the bias row, if the layer has one.
    pub fn bias(&self) -> Option<&Tensor> {
        self.bias.as_ref().map(|b| b.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_scalar_fn;
    use crate::init::seeded_rng;

    /// L(x) = sum(Linear(x)) so dL/dy = 1.
    fn loss_of(layer: &Linear, x: &Tensor) -> f64 {
        layer.forward(x).unwrap().0.sum()
    }

    #[test]
    fn forward_shape_and_bias() {
        let layer = Linear::from_parts(
            Tensor::eye(3),
            Some(Tensor::from_vec(1, 3, vec![1., 2., 3.]).unwrap()),
        );
        let x = Tensor::zeros(2, 3);
        let (y, _) = layer.forward(&x).unwrap();
        assert_eq!(y.row(0), &[1., 2., 3.]);
        assert_eq!(y.row(1), &[1., 2., 3.]);
    }

    #[test]
    fn fused_bias_matches_unfused_bitwise() {
        let mut rng = seeded_rng(42);
        let w = init::normal(&mut rng, 37, 29, 1.0);
        let bias = init::normal(&mut rng, 1, 29, 0.5);
        let x = init::normal(&mut rng, 19, 37, 1.0);
        let layer = Linear::from_parts(w.clone(), Some(bias.clone()));
        let (fused, _) = layer.forward(&x).unwrap();
        // Unfused reference: plain matmul followed by a broadcast add.
        let mut reference = x.matmul(&w).unwrap();
        for r in 0..reference.rows() {
            for (v, &bv) in reference.row_mut(r).iter_mut().zip(bias.row(0)) {
                *v += bv;
            }
        }
        assert_eq!(fused.shape(), reference.shape());
        for (a, b) in fused.data().iter().zip(reference.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "fused bias diverged");
        }
        // The bias-less path is the plain matmul, also bitwise.
        let no_bias = Linear::from_parts(w.clone(), None);
        let (y, _) = no_bias.forward(&x).unwrap();
        let plain = x.matmul(&w).unwrap();
        for (a, b) in y.data().iter().zip(plain.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // The cache-free `apply` is the forward output, on both sides of
        // one register tile of rows (the packed and the row-kernel path).
        for rows in [1, 3, 19] {
            let x = init::normal(&mut rng, rows, 37, 1.0);
            for l in [&layer, &no_bias] {
                let (want, _) = l.forward(&x).unwrap();
                let got = l.apply(&x).unwrap();
                for (a, b) in got.data().iter().zip(want.data()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "rows={rows}");
                }
            }
        }
    }

    #[test]
    fn input_gradient_checks() {
        let mut rng = seeded_rng(11);
        let layer = Linear::new(&mut rng, 5, 3, true);
        let x = init::normal(&mut rng, 4, 5, 1.0);
        let (y, cache) = layer.forward(&x).unwrap();
        let dy = Tensor::ones(y.rows(), y.cols());
        let mut layer2 = layer.clone();
        let dx = layer2.backward(&cache, &dy).unwrap();
        let report = check_scalar_fn(&x, &dx, 1e-2, |t| loss_of(&layer, t));
        assert!(report.passes(1e-2), "{report:?}");
    }

    #[test]
    fn weight_gradient_checks() {
        let mut rng = seeded_rng(12);
        let layer = Linear::new(&mut rng, 4, 3, false);
        let x = init::normal(&mut rng, 2, 4, 1.0);
        let (y, cache) = layer.forward(&x).unwrap();
        let dy = Tensor::ones(y.rows(), y.cols());
        let mut layer2 = layer.clone();
        layer2.backward(&cache, &dy).unwrap();
        let analytic = layer2.params_mut()[0].grad().clone();
        let w0 = layer.weight().clone();
        let report = check_scalar_fn(&w0, &analytic, 1e-2, |w| {
            Linear::from_parts(w.clone(), None)
                .forward(&x)
                .unwrap()
                .0
                .sum()
        });
        assert!(report.passes(1e-2), "{report:?}");
    }

    #[test]
    fn bias_gradient_is_column_sum() {
        let mut layer = Linear::from_parts(Tensor::eye(2), Some(Tensor::zeros(1, 2)));
        let x = Tensor::ones(3, 2);
        let (_, cache) = layer.forward(&x).unwrap();
        let dy = Tensor::ones(3, 2);
        layer.backward(&cache, &dy).unwrap();
        let params = layer.params_mut();
        assert_eq!(params[1].grad().data(), &[3.0, 3.0]);
    }
}
