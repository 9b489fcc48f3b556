use crate::{mathx, Result, Tensor, TensorError};

const SQRT_2_OVER_PI: f32 = 0.797_884_6;
const GELU_C: f32 = 0.044_715;

/// GELU activation (tanh approximation, the bounded polynomial
/// [`mathx::tanh`]), applied elementwise.
#[inline]
pub fn gelu(x: f32) -> f32 {
    let inner = SQRT_2_OVER_PI * (x + GELU_C * x * x * x);
    0.5 * x * (1.0 + mathx::tanh(inner))
}

/// Derivative of [`gelu`] given the input `x` and the cached
/// `t = tanh(√(2/π)·(x + c·x³))` from the forward pass.
///
/// This is the hoisted form: the tanh chain — the only transcendental in
/// the derivative — is *not* recomputed. [`Gelu::forward`] caches `t`
/// alongside the input, so the backward pass is purely polynomial.
#[inline]
pub fn gelu_backward_with_tanh(x: f32, t: f32) -> f32 {
    let du = SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_C * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

/// Derivative of [`gelu`] with respect to its input (standalone form;
/// recomputes the tanh that [`gelu_backward_with_tanh`] takes cached).
#[inline]
pub fn gelu_backward(x: f32) -> f32 {
    let u = SQRT_2_OVER_PI * (x + GELU_C * x * x * x);
    gelu_backward_with_tanh(x, mathx::tanh(u))
}

/// Activations cached by [`Gelu::forward`]: the input and the tanh term,
/// so backward performs zero transcendental evaluations.
///
/// Caching `t` instead of recomputing `tanh(u(x))` in backward is bitwise
/// neutral: both evaluate the identical expression on the identical input.
#[derive(Debug, Clone)]
pub struct GeluCache {
    x: Tensor,
    t: Tensor,
}

impl GeluCache {
    /// Bytes of activation memory held by this cache.
    pub fn bytes(&self) -> usize {
        (self.x.len() + self.t.len()) * std::mem::size_of::<f32>()
    }
}

/// The GELU activation as a stateless layer (caches the pre-activation and
/// the forward tanh term).
#[derive(Debug, Clone, Default)]
pub struct Gelu;

impl Gelu {
    /// Creates the activation layer.
    pub fn new() -> Self {
        Gelu
    }

    /// Applies GELU elementwise, caching the input and the tanh term.
    ///
    /// Elementwise, so row-parallel execution (see [`crate::pool`]) is
    /// trivially bitwise identical to the serial path; the branch-free
    /// polynomial tanh auto-vectorizes.
    pub fn forward(&self, x: &Tensor) -> (Tensor, GeluCache) {
        let (rows, cols) = x.shape();
        let mut y = Tensor::zeros(rows, cols);
        let mut t = Tensor::zeros(rows, cols);
        crate::pool::par_rows_mut2(
            rows,
            x.len().saturating_mul(16),
            y.data_mut(),
            t.data_mut(),
            |r0, _r1, yc, tc| {
                let src = &x.data()[r0 * cols..r0 * cols + yc.len()];
                for ((yo, to), &v) in yc.iter_mut().zip(tc.iter_mut()).zip(src) {
                    let inner = SQRT_2_OVER_PI * (v + GELU_C * v * v * v);
                    let th = mathx::tanh(inner);
                    *to = th;
                    *yo = 0.5 * v * (1.0 + th);
                }
            },
        );
        (y, GeluCache { x: x.clone(), t })
    }

    /// Backward pass through the activation. Uses the cached tanh term, so
    /// no transcendentals are evaluated — bitwise identical to recomputing
    /// them (same expression, same inputs).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `dy` and the cached input
    /// have different shapes.
    pub fn backward(&self, cache: &GeluCache, dy: &Tensor) -> Result<Tensor> {
        if cache.x.shape() != dy.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "gelu_bwd",
                lhs: dy.shape(),
                rhs: cache.x.shape(),
            });
        }
        let (rows, cols) = cache.x.shape();
        let mut dx = Tensor::zeros(rows, cols);
        crate::pool::par_rows_mut(
            rows,
            cache.x.len().saturating_mul(16),
            dx.data_mut(),
            |r0, _r1, chunk| {
                let base = r0 * cols;
                let x = &cache.x.data()[base..base + chunk.len()];
                let t = &cache.t.data()[base..base + chunk.len()];
                let g = &dy.data()[base..base + chunk.len()];
                for (((o, &xv), &tv), &gv) in chunk.iter_mut().zip(x).zip(t).zip(g) {
                    *o = gelu_backward_with_tanh(xv, tv) * gv;
                }
            },
        );
        Ok(dx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_scalar_fn;
    use crate::init::{normal, seeded_rng};

    #[test]
    fn gelu_known_values() {
        assert!(gelu(0.0).abs() < 1e-7);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!(gelu(-10.0).abs() < 1e-3);
        assert!((gelu(10.0) - 10.0).abs() < 1e-3);
    }

    #[test]
    fn gelu_is_monotone_near_origin() {
        let mut prev = gelu(-0.5);
        let mut x = -0.5;
        while x < 0.5 {
            x += 0.01;
            let cur = gelu(x);
            assert!(cur >= prev - 1e-6);
            prev = cur;
        }
    }

    #[test]
    fn gradient_checks() {
        let x = normal(&mut seeded_rng(9), 3, 4, 1.0);
        let layer = Gelu::new();
        let (_, cache) = layer.forward(&x);
        let dx = layer.backward(&cache, &Tensor::ones(3, 4)).unwrap();
        let report = check_scalar_fn(&x, &dx, 1e-3, |t| layer.forward(t).0.sum());
        assert!(report.passes(1e-3), "{report:?}");
    }

    #[test]
    fn cached_tanh_backward_pins_standalone_derivative() {
        // The hoisted (cached-tanh) derivative must be bitwise equal to the
        // standalone form for every input — including non-finite ones —
        // since both evaluate the identical expression chain.
        let mut vals: Vec<f32> = (-400..=400).map(|i| i as f32 * 0.025).collect();
        vals.extend([f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1e-30]);
        for &x in &vals {
            let u = 0.797_884_6_f32 * (x + 0.044_715 * x * x * x);
            let hoisted = gelu_backward_with_tanh(x, mathx::tanh(u));
            assert_eq!(
                gelu_backward(x).to_bits(),
                hoisted.to_bits(),
                "derivative diverged at x={x}"
            );
        }
        // And the layer path (cached tanh from forward) matches applying
        // the standalone derivative to the same input.
        let x = normal(&mut seeded_rng(17), 5, 7, 1.5);
        let layer = Gelu::new();
        let (_, cache) = layer.forward(&x);
        let dx = layer.backward(&cache, &Tensor::ones(5, 7)).unwrap();
        for (o, &xv) in dx.data().iter().zip(x.data()) {
            assert_eq!(o.to_bits(), gelu_backward(xv).to_bits());
        }
    }
}
