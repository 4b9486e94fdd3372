//! A strided batch view: many independent items stacked along the row axis.
//!
//! Batching amortises per-call overhead across concurrent episodes and
//! minibatch samples: instead of one pass per state, the layers accept a
//! [`Batch`] of `items` independent inputs packed into a
//! single row-major [`Matrix`], item `i` occupying the contiguous row block
//! `i * rows_per_item .. (i + 1) * rows_per_item` (a constant stride of
//! `rows_per_item` rows between item starts).
//!
//! A batch is the only shape a [`crate::Layer`] pass takes; a single input
//! is a one-item batch. Row-wise layers (dense, activation) process the
//! whole stacked matrix with one tiled kernel call; self-attention, which
//! mixes information *across* the rows (nodes) of one state, uses the item
//! boundary so no information leaks between items. Every item's output is
//! therefore **bit-identical** to the same pass on a one-item batch of that
//! item — the contract `tests/batch_forward.rs` and `tests/batch_backward.rs`
//! pin down, and the property that lets the batched rollout engine promise
//! bit-identical transcripts.

use crate::matrix::Matrix;
use crate::scratch::Scratch;

/// `items` equally-sized inputs stacked along the row axis of one matrix.
///
/// The wrapped matrix has `items * rows_per_item` rows; item `i` is the row
/// block starting at `i * rows_per_item`. A batch of flat (single-row) inputs
/// has `rows_per_item == 1`.
#[derive(Debug, Clone)]
pub struct Batch {
    matrix: Matrix,
    items: usize,
}

impl Batch {
    /// Wraps a stacked matrix as a batch of `items` row blocks.
    ///
    /// # Panics
    ///
    /// Panics if `items` is zero or does not divide the row count.
    pub fn new(matrix: Matrix, items: usize) -> Self {
        assert!(items > 0, "a batch needs at least one item");
        assert_eq!(
            matrix.rows() % items,
            0,
            "{} rows do not split into {} equal items",
            matrix.rows(),
            items
        );
        Self { matrix, items }
    }

    /// Takes a zeroed `items x rows_per_item x cols` batch from a scratch
    /// pool.
    pub fn take(scratch: &mut Scratch, items: usize, rows_per_item: usize, cols: usize) -> Self {
        Self::new(scratch.take(items * rows_per_item, cols), items)
    }

    /// Number of items in the batch.
    pub fn items(&self) -> usize {
        self.items
    }

    /// Rows occupied by each item (the stride between item starts).
    pub fn rows_per_item(&self) -> usize {
        self.matrix.rows() / self.items
    }

    /// Column count shared by every item.
    pub fn cols(&self) -> usize {
        self.matrix.cols()
    }

    /// The stacked backing matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.matrix
    }

    /// Mutable access to the stacked backing matrix.
    pub fn matrix_mut(&mut self) -> &mut Matrix {
        &mut self.matrix
    }

    /// Consumes the batch, returning the stacked matrix (e.g. to recycle it
    /// back into a [`Scratch`] pool).
    pub fn into_matrix(self) -> Matrix {
        self.matrix
    }

    /// First row of item `i`.
    pub fn item_start(&self, item: usize) -> usize {
        assert!(item < self.items, "item {item} out of {}", self.items);
        item * self.rows_per_item()
    }

    /// Copies item `i`'s row block into `out` (a `rows_per_item x cols`
    /// matrix).
    pub fn copy_item_into(&self, item: usize, out: &mut Matrix) {
        self.matrix.copy_row_block_into(self.item_start(item), out);
    }

    /// Item `i`'s rows as one contiguous row-major slice.
    pub fn item(&self, item: usize) -> &[f32] {
        let start = self.item_start(item) * self.cols();
        let len = self.rows_per_item() * self.cols();
        &self.matrix.data()[start..start + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_split_rows_into_item_blocks() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0], &[7.0, 8.0]]);
        let batch = Batch::new(m, 2);
        assert_eq!(batch.items(), 2);
        assert_eq!(batch.rows_per_item(), 2);
        assert_eq!(batch.cols(), 2);
        assert_eq!(batch.item_start(1), 2);
        assert_eq!(batch.item(1), &[5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn item_blocks_copy_in_and_out() {
        let mut scratch = Scratch::new();
        let mut batch = Batch::take(&mut scratch, 3, 2, 2);
        let block = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        batch.matrix_mut().data_mut()[4..8].copy_from_slice(block.data());
        let mut out = Matrix::zeros(2, 2);
        batch.copy_item_into(1, &mut out);
        assert_eq!(out, block);
        // Neighbouring items stay zero.
        assert_eq!(batch.item(0), &[0.0; 4]);
        assert_eq!(batch.item(2), &[0.0; 4]);
        scratch.recycle(batch.into_matrix());
        assert_eq!(scratch.pooled(), 1);
    }

    #[test]
    #[should_panic(expected = "do not split")]
    fn uneven_batches_are_rejected() {
        let _ = Batch::new(Matrix::zeros(5, 2), 2);
    }
}
