//! A reusable buffer pool for intermediate matrices.
//!
//! Every layer's forward/backward pass needs short-lived output and
//! temporary matrices. Allocating them per call dominated the per-step cost
//! of the networks, so the [`crate::Layer`] API threads a [`Scratch`] pool
//! through every pass: layers [`Scratch::take`] their outputs from the pool
//! and callers [`Scratch::recycle`] matrices they are done with. After a few
//! warm-up passes the pool holds a buffer for every shape in flight and the
//! steady-state forward/backward path performs **zero heap allocations**.

use crate::backend::{self, BackendRef};
use crate::matrix::Matrix;

/// Upper bound on pooled buffers; beyond this, recycled buffers are dropped.
/// Generous compared to the ~30 intermediates of the deepest network here.
const MAX_POOLED: usize = 64;

/// A pool of reusable `f32` buffers handed out as [`Matrix`] values.
///
/// Buffers are matched by capacity, not shape: a recycled `4x8` matrix can
/// satisfy a later `2x16` request without reallocating. Cloning a pool
/// clones its (idle) buffers, so `#[derive(Clone)]` types may own one.
///
/// The pool also carries the session's [kernel backend](crate::backend):
/// since every layer pass already threads a `Scratch`, the backend reaches
/// every kernel call site with no API changes — layers ask
/// [`Scratch::backend`] instead of hardcoding the scalar kernels.
#[derive(Debug, Clone)]
pub struct Scratch {
    pool: Vec<Vec<f32>>,
    backend: BackendRef,
}

impl Default for Scratch {
    fn default() -> Self {
        Self::new()
    }
}

impl Scratch {
    /// Creates an empty pool using the process-wide
    /// [default backend](crate::backend::default_backend).
    pub fn new() -> Self {
        Self::with_backend(backend::default_backend())
    }

    /// Creates an empty pool pinned to a specific kernel backend. Used by
    /// tests and benches that compare backends side by side without touching
    /// the process-wide default.
    pub fn with_backend(backend: BackendRef) -> Self {
        Self {
            pool: Vec::new(),
            backend,
        }
    }

    /// The kernel backend every layer pass through this pool dispatches to.
    pub fn backend(&self) -> BackendRef {
        self.backend
    }

    /// Returns a zero-filled `rows x cols` matrix, reusing a pooled buffer
    /// when one with sufficient capacity exists.
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        self.take_with(rows, cols, true)
    }

    /// Like [`Scratch::take`], for an output the caller's kernel then
    /// overwrites in full: a reused buffer keeps its old values instead of
    /// being zeroed first (only growth is zero-filled), so the matrix holds
    /// unspecified values until written.
    pub fn take_for_overwrite(&mut self, rows: usize, cols: usize) -> Matrix {
        self.take_with(rows, cols, false)
    }

    fn take_with(&mut self, rows: usize, cols: usize, zeroed: bool) -> Matrix {
        let len = rows * cols;
        if len == 0 {
            // Don't tie a pooled buffer up in an empty matrix.
            return Matrix::from_vec(rows, cols, Vec::new());
        }
        let position = self.pool.iter().position(|v| v.capacity() >= len);
        let mut data = match position {
            Some(i) => self.pool.swap_remove(i),
            // No pooled buffer fits: regrow whichever was recycled most
            // recently (or start fresh). Capacities only ever grow, so
            // mixed-size traffic converges to a reusable set after warm-up.
            None => self.pool.pop().unwrap_or_default(),
        };
        if zeroed {
            data.clear();
        }
        // Growth is zero-filled; without `zeroed`, a long enough buffer is
        // only shortened.
        data.resize(len, 0.0);
        Matrix::from_vec(rows, cols, data)
    }

    /// Returns a pooled copy of `src`.
    pub fn take_copy(&mut self, src: &Matrix) -> Matrix {
        let mut out = self.take_for_overwrite(src.rows(), src.cols());
        out.data_mut().copy_from_slice(src.data());
        out
    }

    /// Returns a matrix's buffer to the pool for reuse.
    pub fn recycle(&mut self, matrix: Matrix) {
        if self.pool.len() < MAX_POOLED {
            self.pool.push(matrix.into_data());
        }
    }

    /// Number of idle pooled buffers (diagnostics/tests).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_matrices_of_the_requested_shape() {
        let mut scratch = Scratch::new();
        let mut m = scratch.take(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.sum(), 0.0);
        m.fill(7.0);
        scratch.recycle(m);
        // The recycled buffer comes back zeroed even though it was dirtied.
        let again = scratch.take(2, 6);
        assert_eq!(again.shape(), (2, 6));
        assert_eq!(again.sum(), 0.0);
    }

    #[test]
    fn steady_state_reuses_buffers_without_allocating() {
        let mut scratch = Scratch::new();
        let first = scratch.take(8, 8);
        let ptr = first.data().as_ptr();
        scratch.recycle(first);
        // Same-size request must reuse the identical allocation.
        let second = scratch.take(8, 8);
        assert_eq!(second.data().as_ptr(), ptr);
        // A smaller request also fits in the same buffer.
        scratch.recycle(second);
        let third = scratch.take(2, 2);
        assert_eq!(third.data().as_ptr(), ptr);
        assert_eq!(scratch.pooled(), 0);
    }

    #[test]
    fn take_for_overwrite_reuses_without_zeroing() {
        let mut scratch = Scratch::new();
        let mut m = scratch.take(2, 3);
        m.fill(5.0);
        let ptr = m.data().as_ptr();
        scratch.recycle(m);
        let reused = scratch.take_for_overwrite(1, 4);
        assert_eq!(reused.shape(), (1, 4));
        assert_eq!(reused.data().as_ptr(), ptr);
        assert_eq!(reused.data(), &[5.0; 4]);
        // Growth past the old length is zero-filled.
        scratch.recycle(reused);
        assert_eq!(scratch.take_for_overwrite(2, 4).data()[6..], [0.0; 2]);
    }

    #[test]
    fn take_copy_matches_source() {
        let mut scratch = Scratch::new();
        let src = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let copy = scratch.take_copy(&src);
        assert_eq!(copy, src);
    }
}
