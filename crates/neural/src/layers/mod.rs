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

/// A differentiable layer over a strided [`Batch`] of independent items.
///
/// Every pass is batch-first; a single input is a one-item batch. Three
/// passes share one forward body per layer:
///
/// * [`Layer::forward_batch`] — inference. It writes no backward cache, so
///   it may run between a training pass and its backward.
/// * [`Layer::forward_batch_train`] — the same computation, bit for bit,
///   that also writes the layer's one backward cache.
/// * [`Layer::backward_batch`] — consumes that cache, accumulates parameter
///   gradients summed over the items, and returns the gradient with
///   respect to the stacked input.
///
/// Parameter gradients accumulate across backward passes until the
/// optimizer steps and [`Layer::zero_grad`] is called.
///
/// Two contracts tie a batch of `b` items to `b` one-item batches, bit for
/// bit on every backend:
///
/// * **per item** — item `i` of every output (forward values, input
///   gradient) equals the same pass on a batch holding item `i` alone.
///   Row-wise layers (dense, activation) get this for free: the kernels
///   compute each output row from its own input row. Self-attention, which
///   mixes rows, keeps each item's rows to that item.
/// * **in item order** — a batched backward accumulates each parameter
///   gradient exactly as one-item backwards over the items in order would.
///   Layers with a weight gradient flush it once per item (see
///   [`crate::KernelBackend::add_matmul_transa_items`]): a backend that
///   fuses the running sum into multiply-adds rounds one chain over every
///   item differently from one chain per item.
///
/// This is what lets the batched DQN update reproduce the per-sample update
/// exactly.
///
/// All passes draw their output and temporary matrices from the caller's
/// [`Scratch`] pool; returned batches should eventually be
/// [`Scratch::recycle`]d so the steady-state pass allocates nothing. Layers
/// reuse their cache across calls for the same reason.
pub trait Layer: Send {
    /// The inference forward over a [`Batch`] of independent items. No
    /// backward cache is written or clobbered. The returned batch's buffer
    /// comes from `scratch`.
    fn forward_batch(&mut self, input: &Batch, scratch: &mut Scratch) -> Batch;

    /// The training forward: the bits of [`Layer::forward_batch`], plus the
    /// backward cache a subsequent [`Layer::backward_batch`] consumes
    /// (replacing the previous one).
    fn forward_batch_train(&mut self, input: &Batch, scratch: &mut Scratch) -> Batch;

    /// The backward of the most recent [`Layer::forward_batch_train`]:
    /// accumulates parameter gradients summed over all items and returns
    /// the gradient with respect to the stacked input (from `scratch`).
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before
    /// [`Layer::forward_batch_train`] or with a gradient whose shape does not
    /// match the cached forward output.
    fn backward_batch(&mut self, grad_output: &Batch, scratch: &mut Scratch) -> Batch;

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

/// Refreshes a layer's cached copy of a forward matrix, reusing the cache
/// allocation after the first call.
pub(crate) fn cache_input(cache: &mut Option<Matrix>, input: &Matrix) {
    match cache {
        Some(held) => held.copy_from(input),
        None => *cache = Some(input.clone()),
    }
}
