//! A dense, row-major `f32` matrix with the operations the layers need.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// A dense row-major matrix of `f32` values.
///
/// This is the only tensor type in the library; vectors are represented as
/// single-row or single-column matrices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with a constant value.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of equal-length rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a single-row matrix from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
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

    /// Raw row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// A view of one row as a slice.
    pub fn row(&self, row: usize) -> &[f32] {
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Writes `self * other` into `out` without allocating: the register
    /// tiles are stored directly, so `out`'s previous contents are neither
    /// read nor zeroed first.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()` or `out` is not
    /// `self.rows() x other.cols()`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        out.matmul_impl::<false>(self, other);
    }

    /// Accumulates `a * b` into `self` (`self += a·b`) without allocating.
    ///
    /// The kernel is blocked into register tiles of 4 output rows × 32
    /// output columns: each tile accumulates in registers across the entire
    /// `k` loop (outputs are loaded and stored once per tile instead of once
    /// per `k`), every loaded 32-lane slice of `b` is reused by all four
    /// rows of the tile (4× less streaming of the shared weight matrix —
    /// what makes batched inference faster per state than solo inference),
    /// and the 32-lane tiles auto-vectorize. Within every output element the
    /// accumulation order is ascending `k` — the naive dot-product order —
    /// so `matmul_into` (which starts from zero) reproduces the naive kernel
    /// bit-for-bit at every size, *including* every row-count: stacking more
    /// rows into a batch never changes any row's result. Dense inputs take
    /// no data-dependent branches (`0 × NaN` correctly propagates `NaN`).
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn add_matmul(&mut self, a: &Matrix, b: &Matrix) {
        self.matmul_impl::<true>(a, b);
    }

    /// Shared tiled kernel behind [`Matrix::matmul_into`] (`ACCUMULATE =
    /// false`: tiles stored directly) and [`Matrix::add_matmul`]
    /// (`ACCUMULATE = true`: tiles added onto the existing contents).
    fn matmul_impl<const ACCUMULATE: bool>(&mut self, a: &Matrix, b: &Matrix) {
        assert_eq!(
            a.cols, b.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            a.rows, a.cols, b.rows, b.cols
        );
        assert_eq!(
            (self.rows, self.cols),
            (a.rows, b.cols),
            "matmul output shape mismatch"
        );
        matmul_rows(&a.data, b, &mut self.data, ACCUMULATE);
    }

    /// Writes `selfᵀ * other` into `out` without materialising the transpose
    /// or allocating: each element sums its terms from zero over ascending
    /// rows.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_transa_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_transa shape mismatch: {}x{}ᵀ * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, other.cols),
            "matmul_transa output shape mismatch"
        );
        out.fill(0.0);
        transa_rows(&mut out.data, 0..self.cols, self, other, 0, self.rows);
    }

    /// Writes `self * otherᵀ` into `out` without materialising the transpose.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_transb_into(&self, other: &Matrix, out: &mut Matrix) {
        out.fill(0.0);
        out.add_matmul_transb(self, other);
    }

    /// Accumulates `a * bᵀ` into `self` without materialising the transpose
    /// or allocating. Both operands stream row-major, so this is the
    /// cache-friendly form of every `X·Wᵀ` backward product and of the
    /// attention score matrix `Q·Kᵀ`.
    ///
    /// Each dot product runs over eight independent accumulator lanes so
    /// the reduction vectorizes; the summation order therefore differs from
    /// the naive kernel by a few ulps (the layers' gradient tolerances
    /// absorb this, and [`Matrix::matmul_into`] — the kernel with the exact
    /// ordering contract — is unaffected).
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn add_matmul_transb(&mut self, a: &Matrix, b: &Matrix) {
        assert_eq!(
            a.cols, b.cols,
            "matmul_transb shape mismatch: {}x{} * {}x{}ᵀ",
            a.rows, a.cols, b.rows, b.cols
        );
        assert_eq!(
            (self.rows, self.cols),
            (a.rows, b.rows),
            "matmul_transb output shape mismatch"
        );
        let (kk, n) = (a.cols, b.rows);
        for i in 0..a.rows {
            let a_row = &a.data[i * a.cols..(i + 1) * a.cols];
            let out_row = &mut self.data[i * n..(i + 1) * n];
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = &b.data[j * kk..(j + 1) * kk];
                *o += dot_lanes(a_row, b_row);
            }
        }
    }

    /// Writes the transpose into `out` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `self.cols() x self.rows()`.
    pub fn transpose_into(&self, out: &mut Matrix) {
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, self.rows),
            "transpose output shape mismatch"
        );
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
    }

    /// Sets every element to `value` (zero-allocation reset).
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Copies another matrix's shape and contents into `self`, reusing the
    /// existing allocation whenever its capacity suffices.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Multiplies every element by a scalar in place.
    pub fn scale_inplace(&mut self, factor: f32) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// Accumulates the column sums of `other` into this `1 x cols` matrix
    /// (the bias-gradient kernel: `b.grad += Σ_rows G`).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not `1 x other.cols()`.
    pub fn add_sum_rows(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (1, other.cols),
            "add_sum_rows shape mismatch"
        );
        for i in 0..other.rows {
            let row = &other.data[i * other.cols..(i + 1) * other.cols];
            for (o, v) in self.data.iter_mut().zip(row) {
                *o += v;
            }
        }
    }

    /// Writes the column means of `self` into a `1 x cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `1 x self.cols()`.
    pub fn mean_rows_into(&self, out: &mut Matrix) {
        assert_eq!(
            (out.rows, out.cols),
            (1, self.cols),
            "mean_rows_into output shape mismatch"
        );
        out.fill(0.0);
        out.add_sum_rows(self);
        if self.rows > 0 {
            out.scale_inplace(1.0 / self.rows as f32);
        }
    }

    /// Row-wise softmax in place.
    pub fn softmax_rows_inplace(&mut self) {
        for i in 0..self.rows {
            let row = &mut self.data[i * self.cols..(i + 1) * self.cols];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
    }

    /// Stacks the selected rows (in the given order) into `out` without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `indices.len() x self.cols()` or any index is
    /// out of bounds.
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        assert_eq!(
            (out.rows, out.cols),
            (indices.len(), self.cols),
            "select_rows_into output shape mismatch"
        );
        for (slot, &i) in indices.iter().enumerate() {
            let src = &self.data[i * self.cols..(i + 1) * self.cols];
            out.data[slot * self.cols..(slot + 1) * self.cols].copy_from_slice(src);
        }
    }

    /// A mutable view of one row as a slice.
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Copies the contiguous row block `src_row .. src_row + out.rows()` into
    /// `out` — the gather half of the batch view's per-item access.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ or the block runs past the last row.
    pub fn copy_row_block_into(&self, src_row: usize, out: &mut Matrix) {
        assert_eq!(self.cols, out.cols, "row block column mismatch");
        assert!(
            src_row + out.rows <= self.rows,
            "row block {}..{} out of {} rows",
            src_row,
            src_row + out.rows,
            self.rows
        );
        let start = src_row * self.cols;
        let len = out.data.len();
        out.data.copy_from_slice(&self.data[start..start + len]);
    }

    /// Consumes the matrix, returning its backing buffer (for buffer pools).
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// `out (+)= a · b` over a block of rows: `a` holds whole rows of
/// `b.rows()` values, `out` the same rows of `b.cols()` values. Full 4-row
/// blocks first (the shared-`b` hot path), then the ragged row tail one row
/// at a time; both are monomorphized over the block height so every
/// accumulator tile stays in registers. A row's results do not depend on
/// the block it lands in, so any row range computes the bits the whole
/// matrix would.
pub(crate) fn matmul_rows(a: &[f32], b: &Matrix, out: &mut [f32], accumulate: bool) {
    let (kk, n) = (b.rows, b.cols);
    let m = out.len().checked_div(n).unwrap_or(0);
    debug_assert!(n == 0 || (a.len() == m * kk && out.len() == m * n));
    if accumulate {
        mm_rows::<true>(out, a, &b.data, m, kk, n);
    } else {
        mm_rows::<false>(out, a, &b.data, m, kk, n);
    }
}

fn mm_rows<const ACCUMULATE: bool>(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    kk: usize,
    n: usize,
) {
    let mut i0 = 0;
    while i0 + 4 <= m {
        mm_row_block::<ACCUMULATE, 4>(out, a, b, i0, kk, n);
        i0 += 4;
    }
    while i0 < m {
        mm_row_block::<ACCUMULATE, 1>(out, a, b, i0, kk, n);
        i0 += 1;
    }
}

/// Output rows `out_rows` of `out += a[rows]ᵀ · b[rows]` over the row block
/// `row_start .. row_start + rows` of `a` and `b`; `out` holds exactly those
/// output rows (`b.cols()` values each). Each output element sums the
/// block's terms from zero in ascending row order in a local tile and is
/// added into `out` once, so the rows of any range get the bits the whole
/// output would.
pub(crate) fn transa_rows(
    out: &mut [f32],
    out_rows: Range<usize>,
    a: &Matrix,
    b: &Matrix,
    row_start: usize,
    rows: usize,
) {
    const JT: usize = 32;
    let (r, c) = (a.cols, b.cols);
    debug_assert_eq!(out.len(), out_rows.len() * c);
    let krange = row_start..row_start + rows;
    for (o_row, i) in out.chunks_exact_mut(c.max(1)).zip(out_rows) {
        let mut j0 = 0;
        while j0 + JT <= c {
            let mut acc = [0.0f32; JT];
            for k in krange.clone() {
                let av = a.data[k * r + i];
                let b_tile = &b.data[k * c + j0..k * c + j0 + JT];
                for (o, &bv) in acc.iter_mut().zip(b_tile) {
                    *o += av * bv;
                }
            }
            for (o, &v) in o_row[j0..j0 + JT].iter_mut().zip(&acc) {
                *o += v;
            }
            j0 += JT;
        }
        if j0 < c {
            let jb = c - j0;
            let mut acc = [0.0f32; JT];
            for k in krange.clone() {
                let av = a.data[k * r + i];
                let b_tile = &b.data[k * c + j0..k * c + j0 + jb];
                for (o, &bv) in acc[..jb].iter_mut().zip(b_tile) {
                    *o += av * bv;
                }
            }
            for (o, &v) in o_row[j0..].iter_mut().zip(&acc[..jb]) {
                *o += v;
            }
        }
    }
}

/// One `IB`-row × 32-column register-tile pass of the matmul kernel:
/// computes output rows `i0 .. i0 + IB` across all `n` columns. Every loaded
/// 32-lane slice of `b` feeds all `IB` rows (the weight-reuse that makes
/// batched inference cheaper per state), each output element accumulates in
/// ascending-`k` order (bit-identical to the naive kernel for every block
/// height), and `IB` is a compile-time constant so the accumulator tile
/// stays in registers.
#[inline(always)]
fn mm_row_block<const ACCUMULATE: bool, const IB: usize>(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    i0: usize,
    kk: usize,
    n: usize,
) {
    const JT: usize = 32;
    let mut j0 = 0;
    // Hot path: full 32-lane tiles with compile-time-known widths.
    while j0 + JT <= n {
        let mut acc = [[0.0f32; JT]; IB];
        for k in 0..kk {
            let b_tile = &b[k * n + j0..k * n + j0 + JT];
            for (r, acc_row) in acc.iter_mut().enumerate() {
                let av = a[(i0 + r) * kk + k];
                for (o, &bv) in acc_row.iter_mut().zip(b_tile) {
                    *o += av * bv;
                }
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            let at = (i0 + r) * n + j0;
            for (o, &v) in out[at..at + JT].iter_mut().zip(acc_row) {
                if ACCUMULATE {
                    *o += v;
                } else {
                    *o = v;
                }
            }
        }
        j0 += JT;
    }
    // Ragged column tail: same ascending-k accumulation, runtime width.
    if j0 < n {
        let jb = n - j0;
        let mut acc = [[0.0f32; JT]; IB];
        for k in 0..kk {
            let b_tile = &b[k * n + j0..k * n + j0 + jb];
            for (r, acc_row) in acc.iter_mut().enumerate() {
                let av = a[(i0 + r) * kk + k];
                for (o, &bv) in acc_row[..jb].iter_mut().zip(b_tile) {
                    *o += av * bv;
                }
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            let at = (i0 + r) * n + j0;
            for (o, &v) in out[at..at + jb].iter_mut().zip(&acc_row[..jb]) {
                if ACCUMULATE {
                    *o += v;
                } else {
                    *o = v;
                }
            }
        }
    }
}

/// Dot product over eight independent accumulator lanes (vectorizable
/// reduction), with a scalar tail for the remainder.
fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    const LANES: usize = 8;
    let mut acc = [0.0f32; LANES];
    let mut a_chunks = a.chunks_exact(LANES);
    let mut b_chunks = b.chunks_exact(LANES);
    for (ac, bc) in (&mut a_chunks).zip(&mut b_chunks) {
        for l in 0..LANES {
            acc[l] += ac[l] * bc[l];
        }
    }
    let mut total = 0.0f32;
    for v in acc {
        total += v;
    }
    for (&av, &bv) in a_chunks.remainder().iter().zip(b_chunks.remainder()) {
        total += av * bv;
    }
    total
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            let row: Vec<String> = self
                .row(i)
                .iter()
                .take(8)
                .map(|v| format!("{v:.4}"))
                .collect();
            writeln!(f, "  [{}]", row.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.get(1, 0), 3.0);
        let mut m = m;
        m.set(1, 0, 5.0);
        assert_eq!(m.get(1, 0), 5.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(Matrix::zeros(2, 3).sum(), 0.0);
        assert_eq!(Matrix::full(2, 2, 3.0).sum(), 12.0);
        assert_eq!(Matrix::row_vector(&[1.0, 2.0, 3.0]).shape(), (1, 3));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_checks_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    /// `a`'s transpose through [`Matrix::transpose_into`].
    fn transposed(a: &Matrix) -> Matrix {
        let mut t = Matrix::zeros(a.cols(), a.rows());
        a.transpose_into(&mut t);
        t
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = transposed(&a);
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.row(0), &[1.0, 4.0]);
        assert_eq!(transposed(&t), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        let mut m = a.clone();
        m.scale_inplace(-0.5);
        assert_eq!(m.data(), &[-0.5, 1.0]);
        m.fill(3.0);
        assert_eq!(m.data(), &[3.0, 3.0]);
        m.copy_from(&Matrix::zeros(2, 1));
        assert_eq!(m.shape(), (2, 1));
    }

    #[test]
    fn broadcast_and_reductions() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut sums = Matrix::zeros(1, 2);
        sums.add_sum_rows(&x);
        assert_eq!(sums.data(), &[4.0, 6.0]);
        let mut means = Matrix::zeros(1, 2);
        x.mean_rows_into(&mut means);
        assert_eq!(means.data(), &[2.0, 3.0]);
        assert_eq!(x.sum(), 10.0);
        assert!((x.norm() - (30.0f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn softmax_rows_are_normalised() {
        let mut s = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, 0.0, 0.0]]);
        s.softmax_rows_inplace();
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        assert!(s.get(0, 2) > s.get(0, 0));
        assert!((s.get(1, 0) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn matmul_propagates_non_finite_values() {
        // The dense kernel must not skip zero entries: 0 * NaN is NaN and
        // 0 * inf is NaN, exactly as IEEE 754 requires.
        let a = Matrix::from_rows(&[&[0.0, 1.0]]);
        let b = Matrix::from_rows(&[&[f32::NAN], &[2.0]]);
        assert!(a.matmul(&b).get(0, 0).is_nan());
        let c = Matrix::from_rows(&[&[f32::INFINITY], &[2.0]]);
        assert!(a.matmul(&c).get(0, 0).is_nan());
    }

    #[test]
    fn transposed_kernels_match_materialised_transposes() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let c = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0]]);
        let mut ta = Matrix::zeros(3, 2);
        a.matmul_transa_into(&c, &mut ta);
        assert_eq!(ta, transposed(&a).matmul(&c));
        let mut tb = Matrix::zeros(2, 2);
        a.matmul_transb_into(&a, &mut tb);
        assert_eq!(tb, a.matmul(&transposed(&a)));
    }

    #[test]
    fn in_place_ops_match_allocating_ops() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]);

        let mut m = a.clone();
        m.scale_inplace(0.5);
        let halves = a.data().iter().map(|x| x * 0.5).collect();
        assert_eq!(m, Matrix::from_vec(2, 2, halves));

        let mut m = Matrix::zeros(1, 1);
        m.copy_from(&a);
        assert_eq!(m, a);
        m.fill(0.0);
        assert_eq!(m.sum(), 0.0);

        let mut sel = Matrix::zeros(3, 2);
        a.select_rows_into(&[1, 0, 1], &mut sel);
        assert_eq!(sel.data(), &[3.0, 4.0, 1.0, -2.0, 3.0, 4.0]);

        let mut row = a.clone();
        row.row_mut(0)[0] = 9.0;
        assert_eq!(row.get(0, 0), 9.0);
        assert_eq!(a.clone().into_data(), a.data());
    }

    #[test]
    fn transa_block_accumulation_matches_block_copies_bit_for_bit() {
        // A per-item loop over a stacked pair must reproduce, bit for bit,
        // the serial accumulation over copies of each block — the contract
        // the batched backward pass builds its determinism pin on.
        let mut state = 0x1234_5678u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 2000) as f32 / 700.0 - 1.3
        };
        let mut a = Matrix::zeros(6, 3);
        let mut b = Matrix::zeros(6, 37); // exercises the ragged column tail
        for v in a.data_mut() {
            *v = next();
        }
        for v in b.data_mut() {
            *v = next();
        }

        // Each item's block flushed in place, one `transa_rows` call each
        // (the reference body of the per-item gradient flush), against the
        // same flush over copies of the blocks.
        let mut via_blocks = Matrix::zeros(3, 37);
        let mut via_copies = Matrix::zeros(3, 37);
        for item in 0..3 {
            transa_rows(via_blocks.data_mut(), 0..3, &a, &b, item * 2, 2);
            let mut ab = Matrix::zeros(2, 3);
            a.copy_row_block_into(item * 2, &mut ab);
            let mut bb = Matrix::zeros(2, 37);
            b.copy_row_block_into(item * 2, &mut bb);
            transa_rows(via_copies.data_mut(), 0..3, &ab, &bb, 0, 2);
        }
        assert_eq!(via_blocks.data(), via_copies.data());

        // Single-row blocks degenerate to one flush over every row exactly.
        let mut stacked = Matrix::zeros(3, 37);
        a.matmul_transa_into(&b, &mut stacked);
        let mut rows = Matrix::zeros(3, 37);
        for r in 0..6 {
            transa_rows(rows.data_mut(), 0..3, &a, &b, r, 1);
        }
        assert_eq!(stacked.data(), rows.data());
    }

    #[test]
    fn row_blocks_gather_and_scatter() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0], &[7.0, 8.0]]);
        let mut block = Matrix::zeros(2, 2);
        m.copy_row_block_into(1, &mut block);
        assert_eq!(block, Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]));
        let mut rows = Matrix::zeros(3, 2);
        m.select_rows_into(&[3, 0, 3], &mut rows);
        assert_eq!(rows.data(), &[7.0, 8.0, 1.0, 2.0, 7.0, 8.0]);
    }
}
