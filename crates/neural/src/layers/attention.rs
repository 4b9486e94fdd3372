//! Scaled dot-product self-attention over a set of input rows.
//!
//! This is the mechanism the ACSO network uses to give every node a view of
//! the rest of the network without growing the parameter count with the
//! number of nodes: the same query/key/value projections apply to every node
//! embedding, and the attention matrix mixes information across nodes.

use crate::batch::Batch;
use crate::init::xavier_uniform;
use crate::layers::Layer;
use crate::matrix::Matrix;
use crate::param::Param;
use crate::scratch::Scratch;

/// Single-head scaled dot-product self-attention with an output projection.
///
/// For an input `X` of shape `[n, d_in]`:
///
/// ```text
/// Q = X·Wq, K = X·Wk, V = X·Wv          (each [n, d_attn])
/// A = softmax(Q·Kᵀ / sqrt(d_attn))       ([n, n])
/// Y = A·V·Wo                             ([n, d_out])
/// ```
///
/// The number of parameters is independent of `n`, the number of nodes.
#[derive(Debug, Clone)]
pub struct SelfAttention {
    wq: Param,
    wk: Param,
    wv: Param,
    wo: Param,
    attn_dim: usize,
    cache: Option<Cache>,
    /// Persistent buffers holding `Wqᵀ/Wkᵀ/Wvᵀ/Woᵀ` for the backward pass
    /// (fast tiled matmuls instead of strided ones); refreshed lazily and
    /// invalidated by [`SelfAttention::params_mut`], the only path that can
    /// mutate the weights.
    weights_t: [Matrix; 4],
    weights_t_valid: bool,
}

/// The training cache: the input, the projections and the mixed values
/// stacked along the item axis exactly like the batch itself, and the
/// per-item `n x n` attention blocks stacked into one `[items * n, n]`
/// matrix (block `i` at rows `i * n .. (i + 1) * n`).
#[derive(Debug, Clone)]
struct Cache {
    items: usize,
    input: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    attn: Matrix,
    mixed: Matrix,
}

impl SelfAttention {
    /// Creates a self-attention layer.
    ///
    /// `input_dim` is the per-row input feature size, `attn_dim` the
    /// query/key/value size, and `output_dim` the per-row output size.
    pub fn new(input_dim: usize, attn_dim: usize, output_dim: usize, seed: u64) -> Self {
        Self {
            wq: Param::new(xavier_uniform(input_dim, attn_dim, seed.wrapping_add(1))),
            wk: Param::new(xavier_uniform(input_dim, attn_dim, seed.wrapping_add(2))),
            wv: Param::new(xavier_uniform(input_dim, attn_dim, seed.wrapping_add(3))),
            wo: Param::new(xavier_uniform(attn_dim, output_dim, seed.wrapping_add(4))),
            attn_dim,
            cache: None,
            weights_t: [
                Matrix::zeros(attn_dim, input_dim),
                Matrix::zeros(attn_dim, input_dim),
                Matrix::zeros(attn_dim, input_dim),
                Matrix::zeros(output_dim, attn_dim),
            ],
            weights_t_valid: false,
        }
    }

    /// Per-row output dimension.
    pub fn output_dim(&self) -> usize {
        self.wo.value.cols()
    }

    /// Grouped inference forward: `input` holds only each item's `m`
    /// distinct rows (`[items, m]`), and `row_groups` maps every one of the
    /// item's `n` rows, in row order, to the input row it equals
    /// (`items * n` entries, each below `m`).
    ///
    /// Q, K and V are projected on the `m` rows; K and V are then copied out
    /// to all `n` rows in row order, so each of the `m` query rows still
    /// attends over every one of the item's `n` keys through
    /// [`KernelBackend::attention_forward_fused`] with `m` query rows. Every
    /// kernel on the way computes an output row from its own input row
    /// alone, so output row `g` is bit-identical to what
    /// [`Layer::forward_batch`] on the full `[items, n]` batch yields for
    /// every row mapped to `g` — rows that repeat are simply computed once.
    /// Padding rows (input rows no entry maps to) are computed but attend
    /// like any other query row and influence nothing. Inference only: the
    /// backward cache is left untouched.
    ///
    /// [`KernelBackend::attention_forward_fused`]: crate::KernelBackend::attention_forward_fused
    ///
    /// # Panics
    ///
    /// Panics if `row_groups` does not split into `items` equal blocks or
    /// names a row outside its item's `m` rows.
    pub fn forward_batch_grouped(
        &mut self,
        input: &Batch,
        row_groups: &[usize],
        scratch: &mut Scratch,
    ) -> Batch {
        self.forward_batch_impl(input, Some(row_groups), scratch, false)
    }

    /// Shared core of [`Layer::forward_batch`] and
    /// [`SelfAttention::forward_batch_grouped`] (`cache_for_backward =
    /// false`: every intermediate is recycled, no cache touched) and
    /// [`Layer::forward_batch_train`] (`true`: the projections, per-item
    /// attention blocks and mixed values become the batch-shaped training
    /// cache). `row_groups` is `None` for the identity grouping, where the
    /// keys are the queries' own rows. One implementation keeps every path
    /// bit-identical by construction — the equivalence the batched DQN
    /// update's TD errors and the grouped Q-network inference rely on.
    fn forward_batch_impl(
        &mut self,
        input: &Batch,
        row_groups: Option<&[usize]>,
        scratch: &mut Scratch,
        cache_for_backward: bool,
    ) -> Batch {
        // A new training pass returns the previous training cache's buffers
        // to the pool (steady state cycles allocations); an inference pass
        // must leave the cache alone — it may be bracketed by a
        // `forward_batch_train`/`backward_batch` pair.
        if cache_for_backward {
            debug_assert!(row_groups.is_none(), "training never groups rows");
            if let Some(old) = self.cache.take() {
                scratch.recycle(old.input);
                scratch.recycle(old.q);
                scratch.recycle(old.k);
                scratch.recycle(old.v);
                scratch.recycle(old.attn);
                scratch.recycle(old.mixed);
            }
        }
        let be = scratch.backend();
        let b = input.items();
        let m = input.rows_per_item();
        let rows = b * m;
        let mut q = scratch.take_for_overwrite(rows, self.attn_dim);
        be.matmul_into(input.matrix(), &self.wq.value, &mut q);
        let mut k = scratch.take_for_overwrite(rows, self.attn_dim);
        be.matmul_into(input.matrix(), &self.wk.value, &mut k);
        let mut v = scratch.take_for_overwrite(rows, self.attn_dim);
        be.matmul_into(input.matrix(), &self.wv.value, &mut v);
        // Grouped keys: copy each distinct row's K and V out to every row
        // it stands for, in row order, so the scores, softmax and mix below
        // reduce over all `n` keys exactly as the ungrouped pass does.
        let n = match row_groups {
            None => m,
            Some(groups) => {
                assert_eq!(
                    groups.len() % b,
                    0,
                    "{} row groups do not split into {b} items",
                    groups.len()
                );
                let n = groups.len() / b;
                let mut k_all = scratch.take_for_overwrite(b * n, self.attn_dim);
                let mut v_all = scratch.take_for_overwrite(b * n, self.attn_dim);
                for (row, &g) in groups.iter().enumerate() {
                    assert!(g < m, "row group {g} out of {m} rows per item");
                    let src = row / n * m + g;
                    k_all.row_mut(row).copy_from_slice(k.row(src));
                    v_all.row_mut(row).copy_from_slice(v.row(src));
                }
                scratch.recycle(std::mem::replace(&mut k, k_all));
                scratch.recycle(std::mem::replace(&mut v, v_all));
                n
            }
        };

        let scale = 1.0 / (self.attn_dim as f32).sqrt();
        // The stacked attention blocks are only materialised when they will
        // be cached, so the inference path pays nothing for the seam. The
        // block-diagonal score/softmax/mix stage is one fused backend call
        // over the stacked `[b*m, ·]` queries and `[b*n, ·]` keys.
        let mut attn = if cache_for_backward {
            Some(scratch.take_for_overwrite(rows, n))
        } else {
            None
        };
        let mut mixed = scratch.take_for_overwrite(rows, self.attn_dim);
        be.attention_forward_fused(&q, &k, &v, b, scale, attn.as_mut(), &mut mixed, scratch);
        let mut out = Batch::new(scratch.take_for_overwrite(rows, self.wo.value.cols()), b);
        be.matmul_into(&mixed, &self.wo.value, out.matrix_mut());

        match attn {
            Some(attn) => {
                self.cache = Some(Cache {
                    items: b,
                    input: scratch.take_copy(input.matrix()),
                    q,
                    k,
                    v,
                    attn,
                    mixed,
                });
            }
            None => {
                scratch.recycle(q);
                scratch.recycle(k);
                scratch.recycle(v);
                scratch.recycle(mixed);
            }
        }
        out
    }
}

impl Layer for SelfAttention {
    fn forward_batch(&mut self, input: &Batch, scratch: &mut Scratch) -> Batch {
        // Attention mixes information across rows, so the batch's item
        // boundary is load-bearing: the attention matrix is block-diagonal
        // over items (each item's rows attend only to that item's rows).
        // The projections are row-wise and run as single stacked matmuls;
        // the fused score/softmax/mix kernel keeps each item's rows to that
        // item, so every item's output is bit-identical to a one-item batch
        // of that item alone — not approximately equal. The backward cache
        // is left untouched.
        self.forward_batch_impl(input, None, scratch, false)
    }

    fn forward_batch_train(&mut self, input: &Batch, scratch: &mut Scratch) -> Batch {
        // The shared core guarantees this is bit-for-bit the `forward_batch`
        // computation; the only difference is that the intermediates are
        // kept as the batch-shaped training cache instead of being recycled.
        self.forward_batch_impl(input, None, scratch, true)
    }

    fn backward_batch(&mut self, grad_output: &Batch, scratch: &mut Scratch) -> Batch {
        let be = scratch.backend();
        if !self.weights_t_valid {
            be.transpose_into(&self.wq.value, &mut self.weights_t[0]);
            be.transpose_into(&self.wk.value, &mut self.weights_t[1]);
            be.transpose_into(&self.wv.value, &mut self.weights_t[2]);
            be.transpose_into(&self.wo.value, &mut self.weights_t[3]);
            self.weights_t_valid = true;
        }
        let cache = self
            .cache
            .take()
            .expect("backward_batch called before forward_batch_train");
        let b = cache.items;
        assert_eq!(
            grad_output.items(),
            b,
            "attention batch gradient item mismatch"
        );
        let n = grad_output.rows_per_item();
        let rows = b * n;
        let scale = 1.0 / (self.attn_dim as f32).sqrt();

        // Output projection. The parameter gradient flushes once per item
        // (multi-row contributions), matching the serial per-sample
        // accumulation order bit for bit; the input-side gradient is a
        // stacked row-wise matmul (rows are independent).
        be.add_matmul_transa_items(&mut self.wo.grad, &cache.mixed, grad_output.matrix(), b);
        let mut grad_mixed = scratch.take_for_overwrite(rows, self.attn_dim);
        be.matmul_into(grad_output.matrix(), &self.weights_t[3], &mut grad_mixed);

        // The block-diagonal attention backward is one fused backend call:
        // each item's gradients are computed from that item's blocks alone,
        // so per-sample gradients cannot leak between items.
        let mut grad_q = scratch.take(rows, self.attn_dim);
        let mut grad_k = scratch.take(rows, self.attn_dim);
        let mut grad_v = scratch.take(rows, self.attn_dim);
        be.attention_backward_fused(
            &grad_mixed,
            &cache.q,
            &cache.k,
            &cache.v,
            &cache.attn,
            b,
            scale,
            &mut grad_q,
            &mut grad_k,
            &mut grad_v,
            scratch,
        );

        // Projection parameter gradients: one flush per item, serial order.
        be.add_matmul_transa_items(&mut self.wq.grad, &cache.input, &grad_q, b);
        be.add_matmul_transa_items(&mut self.wk.grad, &cache.input, &grad_k, b);
        be.add_matmul_transa_items(&mut self.wv.grad, &cache.input, &grad_v, b);

        let mut grad_input = scratch.take_for_overwrite(rows, self.wq.value.rows());
        be.matmul_into(&grad_q, &self.weights_t[0], &mut grad_input);
        be.add_matmul(&mut grad_input, &grad_k, &self.weights_t[1]);
        be.add_matmul(&mut grad_input, &grad_v, &self.weights_t[2]);

        scratch.recycle(grad_mixed);
        scratch.recycle(grad_q);
        scratch.recycle(grad_k);
        scratch.recycle(grad_v);
        self.cache = Some(cache);
        Batch::new(grad_input, grad_output.items())
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        // Handing out `&mut Param` is the only way the weights can change,
        // so the cached transposes must be considered stale from here on.
        self.weights_t_valid = false;
        vec![&mut self.wq, &mut self.wk, &mut self.wv, &mut self.wo]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The training forward of `x` as a one-item batch.
    fn forward(attn: &mut SelfAttention, x: &Matrix, scratch: &mut Scratch) -> Matrix {
        let out = attn.forward_batch_train(&Batch::new(x.clone(), 1), scratch);
        out.into_matrix()
    }

    /// The backward of a one-item [`forward`].
    fn backward(attn: &mut SelfAttention, grad: &Matrix, scratch: &mut Scratch) -> Matrix {
        let g = attn.backward_batch(&Batch::new(grad.clone(), 1), scratch);
        g.into_matrix()
    }

    #[test]
    fn forward_shapes_are_independent_of_row_count() {
        let mut scratch = Scratch::new();
        let mut attn = SelfAttention::new(8, 16, 4, 0);
        for n in [1usize, 3, 10, 33] {
            let x = Matrix::full(n, 8, 0.1);
            let y = forward(&mut attn, &x, &mut scratch);
            assert_eq!(y.shape(), (n, 4));
            assert_eq!(attn.cache.as_ref().map(|c| c.attn.shape()), Some((n, n)));
        }
        assert_eq!(attn.output_dim(), 4);
        // Parameter count does not depend on the number of rows.
        assert_eq!(attn.parameter_count(), 8 * 16 * 3 + 16 * 4);
    }

    #[test]
    fn attention_rows_sum_to_one() {
        // The fused kernel's scores, as the training forward caches them,
        // for two items of three rows.
        let mut attn = SelfAttention::new(4, 8, 2, 1);
        let x = Matrix::from_rows(&[
            &[1.0, 0.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0, 0.0],
            &[0.5, 0.0, -1.0, 0.0],
            &[0.0, 2.0, 0.0, 1.0],
            &[0.0, 0.0, 0.0, -3.0],
        ]);
        let _ = attn.forward_batch_train(&Batch::new(x, 2), &mut Scratch::new());
        let a = &attn.cache.as_ref().expect("a training forward caches").attn;
        assert_eq!(a.shape(), (6, 3));
        for i in 0..a.rows() {
            let sum: f32 = a.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn gradient_check_with_finite_differences() {
        let mut scratch = Scratch::new();
        let mut attn = SelfAttention::new(3, 4, 2, 7);
        let x = Matrix::from_rows(&[&[0.5, -0.2, 0.1], &[0.3, 0.8, -0.5]]);

        // Loss = sum of outputs.
        let out = forward(&mut attn, &x, &mut scratch);
        let ones = Matrix::full(out.rows(), out.cols(), 1.0);
        attn.zero_grad();
        let grad_input = backward(&mut attn, &ones, &mut scratch);

        // Numerically check the gradient wrt one input element.
        let eps = 1e-3f32;
        let mut x_plus = x.clone();
        x_plus.set(0, 1, x.get(0, 1) + eps);
        let mut x_minus = x.clone();
        x_minus.set(0, 1, x.get(0, 1) - eps);
        let f_plus = forward(&mut attn, &x_plus, &mut scratch).sum();
        let f_minus = forward(&mut attn, &x_minus, &mut scratch).sum();
        let numeric = (f_plus - f_minus) / (2.0 * eps);
        assert!(
            (grad_input.get(0, 1) - numeric).abs() < 2e-2,
            "analytic {} vs numeric {}",
            grad_input.get(0, 1),
            numeric
        );
    }

    #[test]
    fn parameter_gradient_check() {
        let mut scratch = Scratch::new();
        let mut attn = SelfAttention::new(3, 4, 2, 11);
        let x = Matrix::from_rows(&[&[0.2, 0.4, -0.3], &[-0.6, 0.1, 0.9]]);
        let out = forward(&mut attn, &x, &mut scratch);
        let ones = Matrix::full(out.rows(), out.cols(), 1.0);
        attn.zero_grad();
        let _ = backward(&mut attn, &ones, &mut scratch);
        let analytic = attn.params_mut()[0].grad.get(1, 2); // wq[1][2]

        let eps = 1e-3f32;
        let orig = attn.params_mut()[0].value.get(1, 2);
        attn.params_mut()[0].value.set(1, 2, orig + eps);
        let f_plus = forward(&mut attn, &x, &mut scratch).sum();
        attn.params_mut()[0].value.set(1, 2, orig - eps);
        let f_minus = forward(&mut attn, &x, &mut scratch).sum();
        attn.params_mut()[0].value.set(1, 2, orig);
        let numeric = (f_plus - f_minus) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 2e-2,
            "analytic {analytic} vs numeric {numeric}"
        );
    }
}
