use crate::{alloc, gemm, PackedB, Result, TensorError};

/// Shared driver for every matmul layout: allocate a pooled, zeroed output
/// and run the packed GEMM ([`gemm::run`], which documents the dispatch
/// and the determinism contract).
fn run_gemm(
    a: &Tensor,
    b: gemm::Rhs<'_>,
    m: usize,
    k: usize,
    n: usize,
    layout: gemm::Layout,
    bias: Option<&[f32]>,
) -> Tensor {
    let mut out = Tensor::zeros(m, n);
    let g = gemm::Gemm {
        a: gemm::Lhs::Rows(&a.data),
        b,
        k,
        n,
        m,
        layout,
        accumulate: false,
    };
    gemm::run(&g, &mut out.data, bias);
    out
}

/// A dense, row-major 2-D tensor of `f32` values.
///
/// All higher-rank data in this workspace (e.g. `[batch, seq, hidden]`
/// activations) is stored flattened to two dimensions, which matches how the
/// paper's output-layer math is written (`X` is `[b·s, h]`, logits are
/// `[b·s, V]`).
///
/// # Example
///
/// ```
/// use vp_tensor::Tensor;
///
/// let t = Tensor::zeros(2, 2);
/// assert_eq!(t.shape(), (2, 2));
/// assert_eq!(t.data(), &[0.0; 4]);
/// ```
#[derive(Debug, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        // Route copies through the buffer arena so clones recycle too.
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: alloc::take_copy(&self.data),
        }
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        // Park the backing buffer in the arena for the next allocation of
        // a compatible size (a no-op when the arena is disabled).
        alloc::release(std::mem::take(&mut self.data));
    }
}

impl Tensor {
    /// Creates a tensor of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: alloc::take_zeroed(rows * cols),
        }
    }

    /// Creates a tensor of the given shape filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Tensor::full(rows, cols, 1.0)
    }

    /// Creates a tensor of the given shape filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor {
            rows,
            cols,
            data: alloc::take_filled(rows * cols, value),
        }
    }

    /// Creates the `n×n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(n, n);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BadBuffer`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::BadBuffer {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Tensor { rows, cols, data })
    }

    /// Creates a `1×n` row vector from a slice.
    pub fn row_vector(data: &[f32]) -> Self {
        Tensor {
            rows: 1,
            cols: data.len(),
            data: alloc::take_copy(data),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying buffer.
    ///
    /// The buffer leaves the arena's management: it is never recycled
    /// unless the caller hands it back (e.g. via [`Tensor::from_vec`]).
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// Immutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// Returns the transpose as a new tensor.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Reinterprets the tensor with a new shape of the same element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BadBuffer`] if the element counts differ.
    pub fn reshape(mut self, rows: usize, cols: usize) -> Result<Tensor> {
        if rows * cols != self.data.len() {
            return Err(TensorError::BadBuffer {
                expected: rows * cols,
                actual: self.data.len(),
            });
        }
        Ok(Tensor {
            rows,
            cols,
            data: std::mem::take(&mut self.data),
        })
    }

    /// Copies the columns `[c0, c1)` of every row into a new tensor.
    ///
    /// Used to slice a vocabulary shard out of a full embedding matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] if `c1 > cols` or `c0 > c1`.
    pub fn slice_cols(&self, c0: usize, c1: usize) -> Result<Tensor> {
        if c1 > self.cols || c0 > c1 {
            return Err(TensorError::OutOfBounds {
                op: "slice_cols",
                index: c1,
                bound: self.cols + 1,
            });
        }
        let w = c1 - c0;
        let mut out = Tensor::zeros(self.rows, w);
        for r in 0..self.rows {
            out.data[r * w..(r + 1) * w]
                .copy_from_slice(&self.data[r * self.cols + c0..r * self.cols + c1]);
        }
        Ok(out)
    }

    /// Copies the rows `[r0, r1)` into a new tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] if `r1 > rows` or `r0 > r1`.
    pub fn slice_rows(&self, r0: usize, r1: usize) -> Result<Tensor> {
        if r1 > self.rows || r0 > r1 {
            return Err(TensorError::OutOfBounds {
                op: "slice_rows",
                index: r1,
                bound: self.rows + 1,
            });
        }
        let data = alloc::take_copy(&self.data[r0 * self.cols..r1 * self.cols]);
        Ok(Tensor {
            rows: r1 - r0,
            cols: self.cols,
            data,
        })
    }

    /// Concatenates tensors along rows (vertical stack).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if column counts differ, or
    /// [`TensorError::InvalidArgument`] when `parts` is empty.
    pub fn concat_rows(parts: &[&Tensor]) -> Result<Tensor> {
        let first = parts
            .first()
            .ok_or_else(|| TensorError::InvalidArgument("concat_rows of zero tensors".into()))?;
        let cols = first.cols;
        let mut rows = 0;
        for p in parts {
            if p.cols != cols {
                return Err(TensorError::ShapeMismatch {
                    op: "concat_rows",
                    lhs: (rows, cols),
                    rhs: p.shape(),
                });
            }
            rows += p.rows;
        }
        let mut data = alloc::take_raw(rows * cols);
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Ok(Tensor { rows, cols, data })
    }

    /// Matrix product `self · rhs` where `self` is `[m, k]` and `rhs` is `[k, n]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if inner dimensions differ.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        if self.cols != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let b = gemm::Rhs::Rows(&rhs.data);
        Ok(run_gemm(self, b, m, k, n, gemm::Layout::Nn, None))
    }

    /// Fused `self · rhs + bias` where `bias` is a `1 × n` row broadcast
    /// over every output row.
    ///
    /// The bias is added inside the GEMM's output loop while each column
    /// strip is still cache-hot — one fewer full pass over the output than
    /// `matmul` followed by a broadcast add, and bitwise identical to it
    /// (per element the order is still `(Σₚ aₚ·bₚ) + bias`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if inner dimensions differ or
    /// `bias` is not `1 × n`.
    pub fn matmul_bias(&self, rhs: &Tensor, bias: &Tensor) -> Result<Tensor> {
        if self.cols != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_bias",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        if bias.shape() != (1, rhs.cols) {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_bias",
                lhs: (1, rhs.cols),
                rhs: bias.shape(),
            });
        }
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let b = gemm::Rhs::Rows(&rhs.data);
        Ok(run_gemm(
            self,
            b,
            m,
            k,
            n,
            gemm::Layout::Nn,
            Some(&bias.data),
        ))
    }

    /// Matrix product `self · rhsᵀ` where `self` is `[m, k]` and `rhs` is `[n, k]`.
    ///
    /// This is the layout of the output-layer logits computation
    /// `Y = X·Wᵀ` where `W` stores one vocabulary row per token.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shared dimension differs.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Result<Tensor> {
        if self.cols != rhs.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_nt",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        let b = gemm::Rhs::Rows(&rhs.data);
        Ok(run_gemm(self, b, m, k, n, gemm::Layout::Nt, None))
    }

    /// The product against a right operand packed beforehand, plus the
    /// optional `1 × n` `bias` row fused as in [`Self::matmul_bias`]: for a
    /// [`PackedB::pack_nt`] of `w` bitwise `self.matmul_nt(w)`, for a
    /// [`PackedB::pack_nn`] of `w` bitwise `self.matmul(w)` (or
    /// `self.matmul_bias(w, bias)`). The product skips the per-call pack.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shared dimension
    /// differs or `bias` is not `1 × n`.
    pub fn matmul_packed(&self, rhs: &PackedB, bias: Option<&Tensor>) -> Result<Tensor> {
        if self.cols != rhs.k() {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_packed",
                lhs: self.shape(),
                rhs: (rhs.k(), rhs.n()),
            });
        }
        if let Some(bias) = bias.filter(|b| b.shape() != (1, rhs.n())) {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_packed",
                lhs: (1, rhs.n()),
                rhs: bias.shape(),
            });
        }
        let (m, k, n) = (self.rows, self.cols, rhs.n());
        let b = gemm::Rhs::Packed(rhs);
        let bias = bias.map(|b| b.data.as_slice());
        Ok(run_gemm(self, b, m, k, n, gemm::Layout::Nn, bias))
    }

    /// Matrix product `selfᵀ · rhs` where `self` is `[k, m]` and `rhs` is `[k, n]`.
    ///
    /// This is the layout of weight-gradient computations such as
    /// `∇W = (softmax(Y) − G)ᵀ · X`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shared dimension differs.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Result<Tensor> {
        if self.rows != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_tn",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (k, m, n) = (self.rows, self.cols, rhs.cols);
        let b = gemm::Rhs::Rows(&rhs.data);
        Ok(run_gemm(self, b, m, k, n, gemm::Layout::Tn, None))
    }

    /// Elementwise sum, returning a new tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Elementwise difference, returning a new tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Elementwise (Hadamard) product, returning a new tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn mul(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_with(rhs, "mul", |a, b| a * b)
    }

    /// In-place elementwise accumulation `self += rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add_assign(&mut self, rhs: &Tensor) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "add_assign",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
        Ok(())
    }

    /// In-place scaled accumulation `self += alpha * rhs` (axpy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, alpha: f32, rhs: &Tensor) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "axpy",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Returns a copy scaled by `alpha`.
    pub fn scale(&self, alpha: f32) -> Tensor {
        let mut out = self.clone();
        out.scale_in_place(alpha);
        out
    }

    /// Scales every element in place.
    pub fn scale_in_place(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut data = alloc::take_raw(self.data.len());
        data.extend(self.data.iter().map(|&v| f(v)));
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Sum of all elements (in `f64` for accuracy).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&v| v as f64).sum()
    }

    /// Maximum absolute element, or 0 for an empty tensor.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt()
    }

    /// Largest absolute elementwise difference between two tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn max_abs_diff(&self, rhs: &Tensor) -> Result<f32> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "max_abs_diff",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&rhs.data)
            .fold(0.0f32, |m, (&a, &b)| m.max((a - b).abs())))
    }

    fn zip_with(
        &self,
        rhs: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut data = alloc::take_raw(self.data.len());
        data.extend(self.data.iter().zip(&rhs.data).map(|(&a, &b)| f(a, b)));
        Ok(Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Tensor {}x{} [", self.rows, self.cols)?;
        let max_rows = 6;
        for r in 0..self.rows.min(max_rows) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>10.4} ", self.at(r, c))?;
            }
            if self.cols > 8 {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_contents() {
        let t = Tensor::zeros(3, 4);
        assert_eq!(t.shape(), (3, 4));
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_rejects_bad_len() {
        assert!(matches!(
            Tensor::from_vec(2, 2, vec![1.0; 3]),
            Err(TensorError::BadBuffer { .. })
        ));
    }

    #[test]
    fn eye_matmul_is_identity() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let i = Tensor::eye(3);
        assert_eq!(a.matmul(&i).unwrap(), a);
        let i2 = Tensor::eye(2);
        assert_eq!(i2.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]).unwrap();
        let b = Tensor::from_vec(2, 2, vec![5., 6., 7., 8.]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
        assert!(a.matmul_nt(&Tensor::zeros(4, 5)).is_err());
        assert!(a.matmul_tn(&Tensor::zeros(5, 2)).is_err());
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Tensor::from_vec(2, 3, vec![1., -2., 3., 0.5, 4., -1.]).unwrap();
        let b = Tensor::from_vec(4, 3, (0..12).map(|i| i as f32 * 0.3 - 1.0).collect()).unwrap();
        let via_nt = a.matmul_nt(&b).unwrap();
        let via_t = a.matmul(&b.transpose()).unwrap();
        assert!(via_nt.max_abs_diff(&via_t).unwrap() < 1e-6);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Tensor::from_vec(3, 2, vec![1., -2., 3., 0.5, 4., -1.]).unwrap();
        let b = Tensor::from_vec(3, 4, (0..12).map(|i| (i as f32).sin()).collect()).unwrap();
        let via_tn = a.matmul_tn(&b).unwrap();
        let via_t = a.transpose().matmul(&b).unwrap();
        assert!(via_tn.max_abs_diff(&via_t).unwrap() < 1e-6);
    }

    #[test]
    fn matmul_propagates_nan_through_zero_entries() {
        // Regression: the kernels used to skip `a == 0.0` terms, which
        // violates IEEE semantics (`0·NaN` is `NaN`) and silently masked
        // poisoned gradients. A zero in the left operand multiplying a NaN
        // in the right operand must poison the affected output entries.
        let a = Tensor::from_vec(2, 2, vec![0.0, 1.0, 2.0, 3.0]).unwrap();
        let mut b = Tensor::from_vec(2, 2, vec![f32::NAN, 5.0, 6.0, 7.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        // out[0,0] = 0·NaN + 1·6 and out[1,0] = 2·NaN + 3·6 are both NaN.
        assert!(c.at(0, 0).is_nan());
        assert!(c.at(1, 0).is_nan());
        // Columns untouched by the NaN stay finite.
        assert!(c.at(0, 1).is_finite());
        assert!(c.at(1, 1).is_finite());

        // Same through matmul_tn (`selfᵀ·rhs`): a zero in `self` times a NaN
        // row of `rhs` must poison the whole corresponding output row.
        let at = Tensor::from_vec(2, 2, vec![0.0, 2.0, 1.0, 3.0]).unwrap();
        let c_tn = at.matmul_tn(&b).unwrap();
        assert!(c_tn.at(0, 0).is_nan());
        assert!(c_tn.at(1, 0).is_nan());
        assert!(c_tn.at(0, 1).is_finite());

        // And 0·∞ must be NaN as well, in every layout.
        *b.at_mut(0, 0) = f32::INFINITY;
        assert!(a.matmul(&b).unwrap().at(0, 0).is_nan());
        assert!(at.matmul_tn(&b).unwrap().at(0, 0).is_nan());
    }

    #[test]
    fn matmul_propagates_nan_in_left_operand() {
        let a = Tensor::from_vec(2, 2, vec![f32::NAN, 0.0, 1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        // Row 0 sums a NaN term in every column; row 1 is clean.
        assert!(c.at(0, 0).is_nan() && c.at(0, 1).is_nan());
        assert!(c.at(1, 0).is_finite() && c.at(1, 1).is_finite());
        let c_nt = a.matmul_nt(&b).unwrap();
        assert!(c_nt.at(0, 0).is_nan() && c_nt.at(0, 1).is_nan());
        assert!(c_nt.at(1, 0).is_finite());
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn slice_cols_extracts_shard() {
        let a = Tensor::from_vec(2, 4, vec![0., 1., 2., 3., 10., 11., 12., 13.]).unwrap();
        let s = a.slice_cols(1, 3).unwrap();
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.data(), &[1., 2., 11., 12.]);
    }

    #[test]
    fn slice_rows_and_concat_round_trip() {
        let a = Tensor::from_vec(4, 2, (0..8).map(|i| i as f32).collect()).unwrap();
        let top = a.slice_rows(0, 2).unwrap();
        let bottom = a.slice_rows(2, 4).unwrap();
        let back = Tensor::concat_rows(&[&top, &bottom]).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn add_sub_mul_axpy() {
        let a = Tensor::from_vec(1, 3, vec![1., 2., 3.]).unwrap();
        let b = Tensor::from_vec(1, 3, vec![4., 5., 6.]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).unwrap().data(), &[3., 3., 3.]);
        assert_eq!(a.mul(&b).unwrap().data(), &[4., 10., 18.]);
        let mut c = a;
        c.axpy(2.0, &b).unwrap();
        assert_eq!(c.data(), &[9., 12., 15.]);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = a.clone().reshape(3, 2).unwrap();
        assert_eq!(b.shape(), (3, 2));
        assert_eq!(b.data(), a.data());
        assert!(a.reshape(4, 2).is_err());
    }

    #[test]
    fn norm_and_sums() {
        let a = Tensor::from_vec(1, 2, vec![3., 4.]).unwrap();
        assert!((a.norm() - 5.0).abs() < 1e-9);
        assert_eq!(a.sum(), 7.0);
        assert_eq!(a.max_abs(), 4.0);
    }
}
