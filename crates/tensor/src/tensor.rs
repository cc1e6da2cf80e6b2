//! The core dense 2-D tensor type.

use std::fmt;

/// A dense, row-major, heap-allocated `f64` matrix.
///
/// `Tensor` is the single value type flowing through the whole Mosaic Flow
/// stack. Row vectors are `1×n`, column vectors `n×1`, scalars `1×1`.
///
/// The representation is a plain `Vec<f64>` plus a shape, so reshapes of a
/// contiguous tensor are free and the data can be handed to the simulated
/// communication layer without copies.
#[derive(Clone, Default, PartialEq)]
pub struct Tensor {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Tensor {
    /// Create a tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Create a tensor filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Create a tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            data: vec![value; rows * cols],
            rows,
            cols,
        }
    }

    /// Create a `1×1` tensor holding a single scalar.
    pub fn scalar(value: f64) -> Self {
        Self {
            data: vec![value],
            rows: 1,
            cols: 1,
        }
    }

    /// Identity matrix of size `n×n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(n, n);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Build from an existing buffer. Panics if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Tensor::from_vec: buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { data, rows, cols }
    }

    /// Build by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { data, rows, cols }
    }

    /// A `1×n` row vector from a slice.
    pub fn row_vector(values: &[f64]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// An `n×1` column vector from a slice.
    pub fn col_vector(values: &[f64]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Bytes occupied by the element buffer (used by the autograd memory
    /// meter that reproduces Table 3 of the paper).
    #[inline]
    pub fn nbytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    /// Bytes *reserved* by the backing buffer — what the heap allocator
    /// actually charged for this tensor. For pool-recycled buffers the
    /// capacity is rounded up to a power-of-two size class, so this can
    /// exceed [`Tensor::nbytes`].
    #[inline]
    pub fn capacity_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f64>()
    }

    /// Immutable view of the backing buffer (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the backing buffer (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the tensor, returning the backing buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Element access. Panics out of bounds (debug builds check via slice indexing).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Set a single element.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// The value of a `1×1` tensor. Panics otherwise.
    pub fn item(&self) -> f64 {
        assert_eq!(
            self.numel(),
            1,
            "Tensor::item called on {}x{} tensor",
            self.rows,
            self.cols
        );
        self.data[0]
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(
            r < self.rows,
            "row {} out of bounds for {} rows",
            r,
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(
            r < self.rows,
            "row {} out of bounds for {} rows",
            r,
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy of column `c` as a `Vec`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(
            c < self.cols,
            "col {} out of bounds for {} cols",
            c,
            self.cols
        );
        (0..self.rows)
            .map(|r| self.data[r * self.cols + c])
            .collect()
    }

    /// Reinterpret as a new shape with the same number of elements. Free for
    /// contiguous row-major data.
    pub fn reshape(&self, rows: usize, cols: usize) -> Tensor {
        assert_eq!(
            self.numel(),
            rows * cols,
            "reshape: cannot view {}x{} as {}x{}",
            self.rows,
            self.cols,
            rows,
            cols
        );
        Tensor {
            data: self.data.clone(),
            rows,
            cols,
        }
    }

    /// Change the shape to `rows×cols`, keeping the allocation when it is
    /// large enough. Contents are unspecified afterwards (elements beyond
    /// the old length are zero): for buffers a caller refills completely
    /// at a size that varies from call to call.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Apply `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// Apply `f` elementwise in place.
    pub fn map_in_place(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combine two same-shaped tensors elementwise.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f64, f64) -> f64) -> Tensor {
        self.assert_same_shape(other, "zip_map");
        Tensor {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// Elementwise addition.
    pub fn add(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, self.cols);
        self.add_into(other, &mut out);
        out
    }

    /// Elementwise subtraction.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, self.cols);
        self.sub_into(other, &mut out);
        out
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, self.cols);
        self.mul_into(other, &mut out);
        out
    }

    /// `self += other` in place (the add-acc behind gradient accumulation).
    pub fn add_assign(&mut self, other: &Tensor) {
        self.assert_same_shape(other, "add_assign");
        for (o, &v) in self.data.iter_mut().zip(&other.data) {
            *o += v;
        }
    }

    /// `self += alpha * other` in place (axpy).
    pub fn axpy(&mut self, alpha: f64, other: &Tensor) {
        self.assert_same_shape(other, "axpy");
        for (o, &v) in self.data.iter_mut().zip(&other.data) {
            *o += alpha * v;
        }
    }

    /// Multiply every element by `s`.
    pub fn scale(&self, s: f64) -> Tensor {
        let mut out = Tensor::zeros(self.rows, self.cols);
        self.scale_into(s, &mut out);
        out
    }

    /// Add `s` to every element.
    pub fn add_scalar(&self, s: f64) -> Tensor {
        let mut out = Tensor::zeros(self.rows, self.cols);
        self.add_scalar_into(s, &mut out);
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Euclidean (Frobenius) norm.
    pub fn norm_l2(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Max-absolute-value norm.
    pub fn norm_linf(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Dot product, treating both tensors as flat buffers of equal length.
    pub fn dot(&self, other: &Tensor) -> f64 {
        assert_eq!(self.numel(), other.numel(), "dot: length mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Largest absolute elementwise difference between two same-shaped tensors.
    pub fn max_abs_diff(&self, other: &Tensor) -> f64 {
        self.assert_same_shape(other, "max_abs_diff");
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
    }

    /// Mean absolute elementwise difference (the paper's MAE metric).
    pub fn mean_abs_diff(&self, other: &Tensor) -> f64 {
        self.assert_same_shape(other, "mean_abs_diff");
        if self.data.is_empty() {
            return 0.0;
        }
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / self.data.len() as f64
    }

    /// True if every element differs from `other` by at most `tol`.
    pub fn allclose(&self, other: &Tensor, tol: f64) -> bool {
        self.shape() == other.shape() && self.max_abs_diff(other) <= tol
    }

    #[inline]
    fn assert_same_shape(&self, other: &Tensor, op: &str) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{op}: shape mismatch {}x{} vs {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        let max_cols = 8;
        for r in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(max_cols) {
                write!(f, "{:10.4}", self.get(r, c))?;
                if c + 1 < self.cols.min(max_cols) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > max_cols {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
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
    fn construction_and_shape() {
        let t = Tensor::zeros(3, 4);
        assert_eq!(t.shape(), (3, 4));
        assert_eq!(t.numel(), 12);
        assert_eq!(t.nbytes(), 96);
        assert_eq!(t.sum(), 0.0);
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let t = Tensor::from_fn(2, 3, |r, c| (r * 10 + c) as f64);
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(t.get(1, 2), 12.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_checks_length() {
        let _ = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn eye_has_unit_diagonal() {
        let i = Tensor::eye(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(1, 1), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn transpose_round_trips() {
        let t = Tensor::from_fn(5, 7, |r, c| (r * 7 + c) as f64);
        let tt = t.transpose();
        assert_eq!(tt.shape(), (7, 5));
        assert_eq!(tt.get(3, 2), t.get(2, 3));
        assert_eq!(tt.transpose(), t);
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(2, 2, vec![4.0, 3.0, 2.0, 1.0]);
        assert_eq!(a.add(&b).as_slice(), &[5.0; 4]);
        assert_eq!(a.sub(&b).as_slice(), &[-3.0, -1.0, 1.0, 3.0]);
        assert_eq!(a.mul(&b).as_slice(), &[4.0, 6.0, 6.0, 4.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(a.add_scalar(1.0).as_slice(), &[2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(1, 3);
        let b = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(2, 2, vec![1.0, -2.0, 3.0, -4.0]);
        assert_eq!(t.sum(), -2.0);
        assert_eq!(t.mean(), -0.5);
        assert_eq!(t.norm_linf(), 4.0);
        assert!((t.norm_l2() - (30.0_f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn mae_and_allclose() {
        let a = Tensor::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(1, 4, vec![1.0, 2.5, 3.0, 3.0]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
        assert!((a.mean_abs_diff(&b) - 0.375).abs() < 1e-15);
        assert!(a.allclose(&b, 1.0));
        assert!(!a.allclose(&b, 0.5));
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn(2, 6, |r, c| (r * 6 + c) as f64);
        let r = t.reshape(3, 4);
        assert_eq!(r.shape(), (3, 4));
        assert_eq!(r.as_slice(), t.as_slice());
    }

    #[test]
    #[should_panic(expected = "reshape")]
    fn reshape_rejects_bad_size() {
        let _ = Tensor::zeros(2, 3).reshape(4, 2);
    }

    #[test]
    fn row_and_col_views() {
        let t = Tensor::from_fn(3, 2, |r, c| (r * 2 + c) as f64);
        assert_eq!(t.row(1), &[2.0, 3.0]);
        assert_eq!(t.col(1), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn item_on_scalar() {
        assert_eq!(Tensor::scalar(7.5).item(), 7.5);
    }

    #[test]
    #[should_panic(expected = "item")]
    fn item_rejects_non_scalar() {
        let _ = Tensor::zeros(2, 1).item();
    }
}
