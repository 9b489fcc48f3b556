//! Optimizers operating on [`Param`] (a value + accumulated gradient pair).
//!
//! Pipeline-parallel training keeps each parameter on exactly one device and
//! steps it locally at the end of the iteration, so the optimizer interface
//! is deliberately simple: accumulate gradients during backward passes, then
//! call [`Optimizer::step`] once per parameter.

use crate::gemm::MR;
use crate::{PackedB, Result, Tensor, TensorError};
use std::sync::OnceLock;

/// A trainable parameter: the value tensor plus an accumulated gradient of
/// the same shape and (for Adam) first/second moment estimates.
///
/// The gradient and the moments are *lazy*: each is an all-zero tensor of
/// the value's shape until something first reads or writes it
/// ([`Self::grad`], [`Self::accumulate`], [`Self::moments`], an optimizer
/// step), and only then is it allocated. A parameter that only ever serves
/// forward passes — every weight of a serving engine — holds nothing but
/// its value and the value's pack.
///
/// # Weight-stationary pack
///
/// The value is also kept packed as a GEMM right operand ([`PackedB`]),
/// made by the first forward product that reads it ([`Self::left_matmul`],
/// [`Self::packed_nt`]) and reused by every later one: a serving engine
/// packs each weight once, training once per iteration rather than once per
/// microbatch. Every `&mut` path to the value drops the pack —
/// [`Self::value_mut`], the optimizer steps, and replacing the parameter
/// wholesale ([`Self::from_state`] builds a fresh one) — so a pack never
/// outlives the value it was packed from. Gradient-only writes
/// ([`Self::grad_mut`], [`Self::accumulate`]) keep it. A clone carries a
/// pack of its own.
#[derive(Debug, Clone)]
pub struct Param {
    value: Tensor,
    grad: OnceLock<Tensor>,
    m: OnceLock<Tensor>,
    v: OnceLock<Tensor>,
    /// The value packed in one orientation: `Nn` for `x · value`, `Nt`
    /// for `x · valueᵀ` (a weight is read one way only).
    packed: OnceLock<(Orientation, PackedB)>,
}

/// Which product a [`Param`]'s pack serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Orientation {
    Nn,
    Nt,
}

/// The lazy tensor in `cell`, materialized as zeros of `shape` on first use.
fn lazy(cell: &OnceLock<Tensor>, shape: (usize, usize)) -> &Tensor {
    cell.get_or_init(|| Tensor::zeros(shape.0, shape.1))
}

/// [`lazy`] for writing.
fn lazy_mut(cell: &mut OnceLock<Tensor>, shape: (usize, usize)) -> &mut Tensor {
    lazy(cell, shape);
    cell.get_mut().expect("initialized just above")
}

impl Param {
    /// Wraps an initialized value tensor into a parameter with (lazily)
    /// zeroed gradient and moments.
    pub fn new(value: Tensor) -> Self {
        Param {
            value,
            grad: OnceLock::new(),
            m: OnceLock::new(),
            v: OnceLock::new(),
            packed: OnceLock::new(),
        }
    }

    /// The current value.
    pub fn value(&self) -> &Tensor {
        &self.value
    }

    /// Mutable access to the value (used when loading checkpoints / shards).
    /// Drops the value's pack: whatever the caller writes, the next forward
    /// product packs it afresh.
    pub fn value_mut(&mut self) -> &mut Tensor {
        self.packed.take();
        &mut self.value
    }

    /// The value's pack in `orientation`, made on first use.
    ///
    /// # Panics
    ///
    /// Panics if the value is already packed the other way (a weight is
    /// read in one orientation only; two would be a caller bug).
    fn pack(&self, orientation: Orientation) -> &PackedB {
        let (held, pack) = self.packed.get_or_init(|| {
            let pack = match orientation {
                Orientation::Nn => PackedB::pack_nn(&self.value),
                Orientation::Nt => PackedB::pack_nt(&self.value),
            };
            (orientation, pack)
        });
        assert_eq!(*held, orientation, "a parameter packed both ways");
        pack
    }

    /// The value packed as the `Bᵀ` operand of `x · valueᵀ`
    /// ([`PackedB::pack_nt`]: the output layer's logits), made on first
    /// use and kept until the value changes.
    ///
    /// # Panics
    ///
    /// Panics if the value was packed for [`Self::left_matmul`] instead.
    pub fn packed_nt(&self) -> &PackedB {
        self.pack(Orientation::Nt)
    }

    /// The pack currently held, if any (tests tell a kept pack from a
    /// rebuilt one by its [`PackedB::as_ptr`]).
    pub fn pack_held(&self) -> Option<&PackedB> {
        self.packed.get().map(|(_, pack)| pack)
    }

    /// `x · value`, plus the `1 × n` `bias` row fused when given: bitwise
    /// `x.matmul(value)` (or `x.matmul_bias(value, bias)`). This is the
    /// one forward product of every block weight. At least one register
    /// tile of rows (`MR`) reads the value's pack ([`PackedB::pack_nn`],
    /// made on first use); fewer rows run the unpacked row kernel, which
    /// packs nothing.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `x.cols()` is not the
    /// value's row count or `bias` is not `1 × n`.
    ///
    /// # Panics
    ///
    /// Panics if the value was packed for [`Self::packed_nt`] instead.
    pub fn left_matmul(&self, x: &Tensor, bias: Option<&Tensor>) -> Result<Tensor> {
        if x.rows() < MR {
            return match bias {
                Some(bias) => x.matmul_bias(&self.value, bias),
                None => x.matmul(&self.value),
            };
        }
        x.matmul_packed(self.pack(Orientation::Nn), bias)
    }

    /// The accumulated gradient.
    pub fn grad(&self) -> &Tensor {
        lazy(&self.grad, self.value.shape())
    }

    /// Mutable access to the accumulated gradient (used by data-parallel
    /// gradient synchronization before the optimizer step).
    pub fn grad_mut(&mut self) -> &mut Tensor {
        lazy_mut(&mut self.grad, self.value.shape())
    }

    /// Accumulates `g` into the gradient buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `g` has a different shape.
    pub fn accumulate(&mut self, g: &Tensor) -> Result<()> {
        self.grad_mut().add_assign(g)
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        if let Some(grad) = self.grad.get_mut() {
            grad.fill_zero();
        }
    }

    /// The Adam moment estimates `(m, v)` (for checkpointing).
    pub fn moments(&self) -> (&Tensor, &Tensor) {
        let shape = self.value.shape();
        (lazy(&self.m, shape), lazy(&self.v, shape))
    }

    /// Reconstructs a parameter from checkpointed state (zeroed gradient).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the moments do not match
    /// the value's shape.
    pub fn from_state(value: Tensor, m: Tensor, v: Tensor) -> Result<Self> {
        if m.shape() != value.shape() || v.shape() != value.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "param_from_state",
                lhs: value.shape(),
                rhs: m.shape(),
            });
        }
        Ok(Param {
            value,
            grad: OnceLock::new(),
            m: OnceLock::from(m),
            v: OnceLock::from(v),
            packed: OnceLock::new(),
        })
    }

    /// Number of scalar elements in the parameter.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// A first-order optimizer that updates one parameter at a time.
pub trait Optimizer {
    /// Applies one update using the parameter's accumulated gradient, then
    /// clears the gradient.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying tensor arithmetic (which
    /// indicate a bug in the caller's parameter bookkeeping).
    fn step(&mut self, param: &mut Param) -> Result<()>;

    /// Marks the end of an optimization step across all parameters
    /// (advances time-dependent state such as Adam's bias correction).
    fn next_iteration(&mut self);
}

/// Plain stochastic gradient descent: `w ← w − lr · g`.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// Creates SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }
}

/// The gradient in `grad` (materialized if still lazy), checked against
/// `value`'s shape — a mismatch means the caller replaced it through
/// [`Param::grad_mut`] with a wrongly shaped one.
fn checked_grad<'a>(
    value: &Tensor,
    grad: &'a mut OnceLock<Tensor>,
    op: &'static str,
) -> Result<&'a mut Tensor> {
    let grad = lazy_mut(grad, value.shape());
    if value.shape() != grad.shape() {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: value.shape(),
            rhs: grad.shape(),
        });
    }
    Ok(grad)
}

impl Optimizer for Sgd {
    fn step(&mut self, param: &mut Param) -> Result<()> {
        let grad = checked_grad(&param.value, &mut param.grad, "sgd_step")?;
        param.packed.take();
        let lr = self.lr;
        // One pass: read each gradient element, then clear it in place.
        for (w, g) in param.value.data_mut().iter_mut().zip(grad.data_mut()) {
            *w -= lr * *g;
            *g = 0.0;
        }
        Ok(())
    }

    fn next_iteration(&mut self) {}
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
}

impl Adam {
    /// Creates Adam with the given learning rate and default
    /// `(β1, β2, ε) = (0.9, 0.999, 1e-8)`.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 1,
        }
    }

    /// Overrides the exponential decay rates.
    pub fn with_betas(mut self, beta1: f32, beta2: f32) -> Self {
        self.beta1 = beta1;
        self.beta2 = beta2;
        self
    }

    /// The current bias-correction timestep (for checkpointing).
    pub fn timestep(&self) -> i32 {
        self.t
    }

    /// Restores the bias-correction timestep from a checkpoint.
    pub fn set_timestep(&mut self, t: i32) {
        self.t = t.max(1);
    }
}

impl Optimizer for Adam {
    fn step(&mut self, param: &mut Param) -> Result<()> {
        let grad = checked_grad(&param.value, &mut param.grad, "adam_step")?;
        param.packed.take();
        let shape = param.value.shape();
        let (m, v) = (lazy_mut(&mut param.m, shape), lazy_mut(&mut param.v, shape));
        let (b1, b2) = (self.beta1, self.beta2);
        let bc1 = 1.0 - b1.powi(self.t);
        let bc2 = 1.0 - b2.powi(self.t);
        let lr = self.lr;
        let eps = self.eps;
        // One pass over the four disjoint buffers: each gradient element is
        // read, then cleared in place — no copy, no separate zeroing pass.
        for (((w, gs), m), v) in param
            .value
            .data_mut()
            .iter_mut()
            .zip(grad.data_mut())
            .zip(m.data_mut())
            .zip(v.data_mut())
        {
            let g = *gs;
            *gs = 0.0;
            *m = b1 * *m + (1.0 - b1) * g;
            *v = b2 * *v + (1.0 - b2) * g * g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *w -= lr * m_hat / (v_hat.sqrt() + eps);
        }
        Ok(())
    }

    fn next_iteration(&mut self) {
        self.t += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_grad(p: &Param) -> Tensor {
        // d/dw of 0.5 * (w - 3)^2 elementwise.
        p.value().map(|w| w - 3.0)
    }

    #[test]
    fn sgd_descends_quadratic() {
        let mut p = Param::new(Tensor::zeros(2, 2));
        let mut opt = Sgd::new(0.5);
        for _ in 0..50 {
            let g = quadratic_grad(&p);
            p.accumulate(&g).unwrap();
            opt.step(&mut p).unwrap();
            opt.next_iteration();
        }
        assert!(p.value().data().iter().all(|&w| (w - 3.0).abs() < 1e-3));
    }

    #[test]
    fn adam_descends_quadratic() {
        let mut p = Param::new(Tensor::zeros(1, 4));
        let mut opt = Adam::new(0.2);
        for _ in 0..300 {
            let g = quadratic_grad(&p);
            p.accumulate(&g).unwrap();
            opt.step(&mut p).unwrap();
            opt.next_iteration();
        }
        assert!(p.value().data().iter().all(|&w| (w - 3.0).abs() < 1e-2));
    }

    #[test]
    fn step_clears_gradient() {
        let mut p = Param::new(Tensor::ones(1, 2));
        p.accumulate(&Tensor::ones(1, 2)).unwrap();
        Sgd::new(0.1).step(&mut p).unwrap();
        assert_eq!(p.grad().data(), &[0.0, 0.0]);
    }

    #[test]
    fn gradient_accumulation_adds() {
        let mut p = Param::new(Tensor::zeros(1, 2));
        p.accumulate(&Tensor::ones(1, 2)).unwrap();
        p.accumulate(&Tensor::ones(1, 2)).unwrap();
        assert_eq!(p.grad().data(), &[2.0, 2.0]);
        assert!(p.accumulate(&Tensor::ones(2, 2)).is_err());
    }

    #[test]
    fn never_touched_state_reads_as_zeros_and_round_trips() {
        let value = Tensor::from_vec(2, 3, (0..6).map(|i| i as f32 - 2.5).collect()).unwrap();
        let p = Param::new(value.clone());
        let (m, v) = p.moments();
        assert_eq!((m, v), (&Tensor::zeros(2, 3), &Tensor::zeros(2, 3)));
        assert_eq!(p.grad(), &Tensor::zeros(2, 3));
        // What a checkpoint writes for it reloads to the same parameter.
        let reloaded = Param::from_state(value, m.clone(), v.clone()).unwrap();
        assert_eq!(reloaded.value(), p.value());
        assert_eq!(reloaded.moments(), p.moments());
        assert_eq!(reloaded.grad(), p.grad());
    }

    #[test]
    fn one_pass_adam_is_bitwise_the_copy_then_zero_formula() {
        let init = Tensor::from_vec(1, 5, vec![0.3, -1.2, 0.0, 4.0, -0.0]).unwrap();
        let grads = [
            Tensor::from_vec(1, 5, vec![0.5, -0.25, 1e-3, -7.0, 0.0]).unwrap(),
            Tensor::from_vec(1, 5, vec![-0.1, 0.9, 2.5, 1e-8, -3.0]).unwrap(),
        ];
        let mut p = Param::new(init.clone());
        let mut opt = Adam::new(0.05);
        let (mut w, mut m, mut v) = (init.into_vec(), vec![0.0f32; 5], vec![0.0f32; 5]);
        let (b1, b2, lr, eps) = (0.9f32, 0.999f32, 0.05f32, 1e-8f32);
        for (t, g) in (1..).zip(&grads) {
            p.accumulate(g).unwrap();
            opt.step(&mut p).unwrap();
            opt.next_iteration();
            let (bc1, bc2) = (1.0 - b1.powi(t), 1.0 - b2.powi(t));
            for i in 0..5 {
                let g = g.data()[i];
                m[i] = b1 * m[i] + (1.0 - b1) * g;
                v[i] = b2 * v[i] + (1.0 - b2) * g * g;
                w[i] -= lr * (m[i] / bc1) / ((v[i] / bc2).sqrt() + eps);
            }
            let bits = |s: &[f32]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(p.value().data()), bits(&w), "step {t}");
            assert_eq!(bits(p.moments().0.data()), bits(&m), "step {t}");
            assert_eq!(bits(p.moments().1.data()), bits(&v), "step {t}");
            assert!(p.grad().data().iter().all(|&g| g.to_bits() == 0));
        }
    }

    #[test]
    fn steps_reject_a_gradient_of_the_wrong_shape() {
        let mut p = Param::new(Tensor::ones(1, 2));
        *p.grad_mut() = Tensor::ones(2, 2);
        assert!(matches!(
            Sgd::new(0.1).step(&mut p),
            Err(TensorError::ShapeMismatch { op: "sgd_step", .. })
        ));
        assert!(matches!(
            Adam::new(0.1).step(&mut p),
            Err(TensorError::ShapeMismatch {
                op: "adam_step",
                ..
            })
        ));
        assert_eq!(
            p.value(),
            &Tensor::ones(1, 2),
            "a rejected step moves nothing"
        );
    }

    /// `x · value` through the parameter's pack, and its bits.
    fn packed_product(p: &Param, x: &Tensor) -> Vec<u32> {
        let y = p.left_matmul(x, None).unwrap();
        y.data().iter().map(|v| v.to_bits()).collect()
    }

    /// The same product against the value as it is now, packed afresh.
    fn fresh_product(p: &Param, x: &Tensor) -> Vec<u32> {
        let y = x.matmul(p.value()).unwrap();
        y.data().iter().map(|v| v.to_bits()).collect()
    }

    /// A parameter whose value is packed (by one forward product), and a
    /// left operand of one register tile or more.
    fn packed_param() -> (Param, Tensor) {
        let mut rng = crate::init::seeded_rng(35);
        let p = Param::new(crate::init::normal(&mut rng, 12, 40, 0.5));
        let x = crate::init::normal(&mut rng, MR + 3, 12, 1.0);
        assert!(p.pack_held().is_none(), "packs lazily");
        let first = packed_product(&p, &x);
        assert_eq!(first, fresh_product(&p, &x));
        let addr = p.pack_held().expect("the product packed").as_ptr();
        assert_eq!(packed_product(&p, &x), first);
        assert_eq!(p.pack_held().map(PackedB::as_ptr), Some(addr), "reused");
        (p, x)
    }

    #[test]
    fn gradient_writes_keep_the_pack() {
        let (mut p, x) = packed_param();
        let addr = p.pack_held().map(PackedB::as_ptr);
        p.accumulate(&Tensor::ones(12, 40)).unwrap();
        p.grad_mut().scale_in_place(0.5);
        p.zero_grad();
        assert_eq!(p.pack_held().map(PackedB::as_ptr), addr);
        assert_eq!(packed_product(&p, &x), fresh_product(&p, &x));
    }

    #[test]
    fn every_value_write_drops_the_pack() {
        type Write = fn(&mut Param);
        let steps: [(&str, Write); 4] = [
            ("sgd", |p| Sgd::new(0.1).step(p).unwrap()),
            ("adam", |p| Adam::new(0.1).step(p).unwrap()),
            ("value_mut", |p| p.value_mut().data_mut()[7] += 1.5),
            ("from_state", |p| {
                let (m, v) = p.moments();
                let value = p.value().map(|w| -w);
                *p = Param::from_state(value, m.clone(), v.clone()).unwrap();
            }),
        ];
        for (what, write) in steps {
            let (mut p, x) = packed_param();
            p.accumulate(&Tensor::ones(12, 40)).unwrap();
            let before = p.value().clone();
            write(&mut p);
            assert_ne!(p.value(), &before, "{what} moved nothing");
            assert!(p.pack_held().is_none(), "{what} kept a stale pack");
            assert_eq!(packed_product(&p, &x), fresh_product(&p, &x), "{what}");
        }
    }

    #[test]
    fn a_clone_steps_apart_from_its_source() {
        let (mut p, x) = packed_param();
        p.accumulate(&Tensor::ones(12, 40)).unwrap();
        let source = packed_product(&p, &x);
        let addr = p.pack_held().map(PackedB::as_ptr);
        let mut clone = p.clone();
        assert!(clone.pack_held().is_some(), "a clone carries a pack");
        assert_ne!(clone.pack_held().map(PackedB::as_ptr), addr);
        Sgd::new(0.1).step(&mut clone).unwrap();
        assert_eq!(packed_product(&clone, &x), fresh_product(&clone, &x));
        assert_ne!(packed_product(&clone, &x), source);
        assert_eq!(p.pack_held().map(PackedB::as_ptr), addr);
        assert_eq!(packed_product(&p, &x), source, "the source kept its pack");
    }

    #[test]
    fn small_products_pack_nothing_and_both_paths_agree() {
        let mut rng = crate::init::seeded_rng(36);
        let p = Param::new(crate::init::normal(&mut rng, 9, 21, 0.5));
        let bias = crate::init::normal(&mut rng, 1, 21, 0.5);
        for rows in [1, MR - 1, MR, 2 * MR + 1] {
            let x = crate::init::normal(&mut rng, rows, 9, 1.0);
            let got = p.left_matmul(&x, Some(&bias)).unwrap();
            let want = x.matmul_bias(p.value(), &bias).unwrap();
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "rows={rows}");
            assert_eq!(p.pack_held().is_some(), rows >= MR, "rows={rows}");
        }
        assert!(p.left_matmul(&Tensor::zeros(MR, 8), None).is_err());
        assert!(p
            .left_matmul(&Tensor::zeros(MR, 9), Some(&Tensor::zeros(1, 20)))
            .is_err());
    }

    #[test]
    #[should_panic(expected = "packed both ways")]
    fn one_orientation_per_parameter() {
        let p = Param::new(Tensor::ones(MR, MR));
        p.left_matmul(&Tensor::ones(MR, MR), None).unwrap();
        p.packed_nt();
    }

    #[test]
    fn adam_matches_reference_first_step() {
        // One Adam step from w=0 with g=1 should move by exactly -lr
        // (m_hat = v_hat = g for t=1, ignoring eps).
        let mut p = Param::new(Tensor::zeros(1, 1));
        let mut opt = Adam::new(0.1);
        p.accumulate(&Tensor::ones(1, 1)).unwrap();
        opt.step(&mut p).unwrap();
        assert!((p.value().data()[0] + 0.1).abs() < 1e-5);
    }
}
