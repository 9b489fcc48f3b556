#![warn(missing_docs)]

//! CPU tensor substrate for the Vocabulary Parallelism reproduction.
//!
//! The paper's algorithms (online-softmax style communication-barrier
//! reduction in the partitioned output layer) are numerical re-orderings of
//! the softmax + cross-entropy computation; verifying them needs a real, if
//! small, tensor library with exact forward *and* backward passes. This crate
//! provides:
//!
//! * [`Tensor`] — a dense row-major 2-D `f32` tensor with shape checking.
//! * Matrix multiplication in all transpose layouts ([`Tensor::matmul`],
//!   [`Tensor::matmul_nt`], [`Tensor::matmul_tn`]), plus
//!   [`Tensor::matmul_nt_packed`] against a right operand packed once
//!   ([`PackedB`]).
//! * Reductions and the safe/online softmax family used by the paper
//!   ([`ops`]), including the output layer's operands that the GEMMs
//!   form while packing ([`ops::SoftmaxGrad`], [`ops::normalized_matmul`])
//!   and the embedding backward's sparse scatter-add
//!   ([`ops::scatter_add_rows`]).
//! * Manual-backprop neural-network layers ([`nn`]): linear, layer-norm,
//!   GELU, causal multi-head attention, embeddings and softmax
//!   cross-entropy — everything needed to train a small GPT end to end.
//! * Optimizers ([`optim`]) and finite-difference gradient checking
//!   ([`gradcheck`]).
//! * A std-only persistent worker pool ([`pool`]) that parallelizes the
//!   matmul / softmax / layer-norm / GELU kernels across independent output
//!   rows — bitwise identical to the serial kernels for every thread count
//!   (configure with [`set_num_threads`] or `VP_THREADS`; `1` is exactly the
//!   serial code path).
//! * Polynomial vector math behind an explicit accuracy policy ([`mathx`]):
//!   the fast default swaps libm `exp`/`tanh` for bounded, auto-vectorizable
//!   approximations; `VP_FAST_MATH=0` pins the bitwise libm reference path.
//!
//! # Example
//!
//! ```
//! use vp_tensor::Tensor;
//!
//! let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.])?;
//! let b = Tensor::eye(3);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.data(), a.data());
//! # Ok::<(), vp_tensor::TensorError>(())
//! ```

pub mod alloc;
mod error;
mod gemm;
pub mod gradcheck;
pub mod init;
pub mod io;
pub mod mathx;
pub mod nn;
pub mod ops;
pub mod optim;
pub mod pool;
pub mod rng;
mod simd;
mod tensor;

pub use error::TensorError;
pub use gemm::PackedB;
pub use pool::{num_threads, set_num_threads};
pub use tensor::Tensor;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
