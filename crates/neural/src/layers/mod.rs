//! Neural-network layers with explicit forward and backward passes.

mod activation;
mod attention;
mod dense;

pub use activation::{Activation, ActivationKind};
pub use attention::SelfAttention;
pub use dense::Dense;

use crate::batch::Batch;
use crate::matrix::Matrix;
use crate::param::Param;
use crate::scratch::Scratch;

/// A differentiable layer.
///
/// Layers cache whatever they need from the most recent [`Layer::forward`]
/// call; [`Layer::backward`] consumes that cache, accumulates parameter
/// gradients, and returns the gradient with respect to the layer's input.
/// The intended calling pattern is strictly `forward` then `backward` for one
/// sample (or one stacked matrix of rows) at a time, with parameter gradients
/// accumulating across samples until the optimizer steps and
/// [`Layer::zero_grad`] is called.
///
/// [`Layer::forward_batch`] is the inference-only batch-first path: it
/// processes many independent items in one pass, leaves every backward cache
/// untouched, and guarantees each item's output is bit-identical to a solo
/// [`Layer::forward`] call on that item.
///
/// All passes draw their output and temporary matrices from the caller's
/// [`Scratch`] pool; returned matrices should eventually be
/// [`Scratch::recycle`]d so the steady-state pass allocates nothing. Layers
/// reuse their internal caches across calls for the same reason.
pub trait Layer: Send {
    /// Computes the layer output for an input, caching intermediate values
    /// needed by [`Layer::backward`]. The returned matrix comes from
    /// `scratch`.
    fn forward(&mut self, input: &Matrix, scratch: &mut Scratch) -> Matrix;

    /// Computes the layer output for a [`Batch`] of independent items.
    ///
    /// Two contracts distinguish this from [`Layer::forward`] on the stacked
    /// matrix:
    ///
    /// * **per-item bit-exactness** — item `i` of the output is bit-identical
    ///   to `forward` on item `i` alone. Row-wise layers get this for free
    ///   (the tiled kernels reduce each output element over ascending `k`
    ///   regardless of how many rows are stacked); self-attention, which
    ///   mixes rows, respects the batch's item boundary explicitly, so no
    ///   information leaks between items.
    /// * **inference-only** — no backward cache is written or clobbered; a
    ///   `forward`/`backward` pair may bracket any number of
    ///   `forward_batch` calls.
    ///
    /// The returned batch's buffers come from `scratch`.
    fn forward_batch(&mut self, input: &Batch, scratch: &mut Scratch) -> Batch;

    /// Propagates the gradient of the loss with respect to the layer output
    /// back to the layer input, accumulating parameter gradients. The
    /// returned matrix comes from `scratch`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before [`Layer::forward`] or with a
    /// gradient whose shape does not match the cached forward output.
    fn backward(&mut self, grad_output: &Matrix, scratch: &mut Scratch) -> Matrix;

    /// The training-mode batched forward: like [`Layer::forward_batch`] it
    /// processes many independent items in one pass with per-item
    /// bit-exactness, but it **does** write a batch-shaped forward cache for
    /// a subsequent [`Layer::backward_batch`].
    ///
    /// The default suits row-wise layers (dense, activation): the solo
    /// forward on the stacked matrix is already bit-identical per item (the
    /// tiled kernels reduce each output element over ascending `k`
    /// regardless of row count) and its cache *is* the stacked batch cache.
    /// Self-attention, which mixes rows, overrides this with an explicit
    /// per-item boundary and a dedicated batch cache.
    ///
    /// A `forward_batch_train`/`backward_batch` pair may share cache storage
    /// with the solo `forward`/`backward` pair; the two pairs must not be
    /// interleaved. (The inference-only [`Layer::forward_batch`] remains safe
    /// to call between any pair.)
    fn forward_batch_train(&mut self, input: &Batch, scratch: &mut Scratch) -> Batch {
        let out = self.forward(input.matrix(), scratch);
        Batch::new(out, input.items())
    }

    /// Batched backward over the strided [`Batch`] view: consumes the cache
    /// written by [`Layer::forward_batch_train`], accumulates parameter
    /// gradients **summed over all items**, and returns the gradient with
    /// respect to the stacked input.
    ///
    /// The bit-exactness contract mirrors the forward one, extended to
    /// training: item `i`'s input gradient, and every parameter-gradient
    /// accumulation, is bit-identical to running solo
    /// `forward`/`backward` on each item in order — which is what lets the
    /// batched DQN update reproduce serial-update training transcripts
    /// exactly. The default serves layers without a parameter-gradient
    /// accumulator (element-wise activations at any shape); layers with one
    /// flush it once per item, whatever the item's row count, to preserve
    /// the serial summation order (see [`Matrix::add_matmul_transa_blocks`]):
    /// a backend that fuses the running sum into multiply-adds rounds one
    /// chain over every item differently from one chain per item.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before
    /// [`Layer::forward_batch_train`] or with a gradient whose shape does not
    /// match the cached forward output.
    fn backward_batch(&mut self, grad_output: &Batch, scratch: &mut Scratch) -> Batch {
        let grad_in = self.backward(grad_output.matrix(), scratch);
        Batch::new(grad_in, grad_output.items())
    }

    /// Mutable access to the layer's trainable parameters.
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// Clears the accumulated gradients of all parameters.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total number of trainable scalar values in the layer.
    fn parameter_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.len()).sum()
    }
}

/// Refreshes a layer's cached copy of its forward input, reusing the cache
/// allocation after the first call.
pub(crate) fn cache_input(cache: &mut Option<Matrix>, input: &Matrix) {
    match cache {
        Some(held) => held.copy_from(input),
        None => *cache = Some(input.clone()),
    }
}
