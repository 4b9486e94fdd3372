//! Fully-connected layer.

use crate::batch::Batch;
use crate::init::xavier_uniform;
use crate::layers::{cache_input, Layer};
use crate::matrix::Matrix;
use crate::param::Param;
use crate::scratch::Scratch;

/// A fully-connected (affine) layer: `output = input · W + b`.
///
/// The same weights apply to every row of the input, so a `[n, in]` matrix of
/// per-node features maps to `[n, out]` without growing the parameter count —
/// the property the paper's attention architecture relies on.
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Param,
    bias: Param,
    cached_input: Option<Matrix>,
    /// Persistent buffer holding `Wᵀ` for the backward pass, so `G·Wᵀ` runs
    /// through the fast tiled `matmul` kernel instead of a strided one. The
    /// transpose is refreshed lazily; [`Dense::params_mut`] — the only path
    /// that can mutate the weights — invalidates it.
    weight_t: Matrix,
    weight_t_valid: bool,
}

impl Dense {
    /// Creates a dense layer with Xavier-initialised weights.
    ///
    /// The `seed` keeps initialisation deterministic across runs.
    pub fn new(input_dim: usize, output_dim: usize, seed: u64) -> Self {
        Self {
            weight: Param::new(xavier_uniform(input_dim, output_dim, seed)),
            bias: Param::new(Matrix::zeros(1, output_dim)),
            cached_input: None,
            weight_t: Matrix::zeros(output_dim, input_dim),
            weight_t_valid: false,
        }
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.weight.value.rows()
    }

    /// Output feature dimension.
    pub fn output_dim(&self) -> usize {
        self.weight.value.cols()
    }

    /// Shared body of [`Layer::forward_batch`] and (`train`, caching the
    /// input) [`Layer::forward_batch_train`]. The affine map is row-wise and
    /// the kernel reduces each output element over ascending `k` whatever
    /// the row count, so one stacked pass is bit-identical per item to a
    /// one-item pass: no item boundary is needed.
    fn forward_batch_impl(&mut self, input: &Batch, scratch: &mut Scratch, train: bool) -> Batch {
        if train {
            cache_input(&mut self.cached_input, input.matrix());
        }
        let be = scratch.backend();
        let mut out = Batch::new(
            scratch.take_for_overwrite(input.matrix().rows(), self.weight.value.cols()),
            input.items(),
        );
        be.affine_into(
            input.matrix(),
            &self.weight.value,
            &self.bias.value,
            out.matrix_mut(),
        );
        out
    }
}

impl Layer for Dense {
    fn forward_batch(&mut self, input: &Batch, scratch: &mut Scratch) -> Batch {
        self.forward_batch_impl(input, scratch, false)
    }

    fn forward_batch_train(&mut self, input: &Batch, scratch: &mut Scratch) -> Batch {
        self.forward_batch_impl(input, scratch, true)
    }

    /// Flushes the weight-gradient accumulator once per item, whatever the
    /// item's row count, so the accumulation is bit-identical on every
    /// backend to one-item backwards in item order.
    fn backward_batch(&mut self, grad_output: &Batch, scratch: &mut Scratch) -> Batch {
        let be = scratch.backend();
        let input = self
            .cached_input
            .as_ref()
            .expect("backward_batch called before forward_batch_train");
        assert_eq!(
            input.rows(),
            grad_output.matrix().rows(),
            "dense batch gradient row mismatch"
        );
        // One stacked flush over single-row items would chain every item's
        // term through one accumulator, which a fused multiply-add backend
        // rounds differently from a flush per item.
        be.add_matmul_transa_items(
            &mut self.weight.grad,
            input,
            grad_output.matrix(),
            grad_output.items(),
        );
        // Bias gradients accumulate row by row directly into the parameter
        // (no local accumulator), so one stacked call is already the
        // per-item addition sequence.
        self.bias.grad.add_sum_rows(grad_output.matrix());
        if !self.weight_t_valid {
            be.transpose_into(&self.weight.value, &mut self.weight_t);
            self.weight_t_valid = true;
        }
        let mut grad_input =
            scratch.take_for_overwrite(grad_output.matrix().rows(), self.weight.value.rows());
        be.matmul_into(grad_output.matrix(), &self.weight_t, &mut grad_input);
        Batch::new(grad_input, grad_output.items())
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        // Handing out `&mut Param` is the only way the weights can change
        // (optimizer steps, target-network copies), so the cached transpose
        // must be considered stale from here on.
        self.weight_t_valid = false;
        vec![&mut self.weight, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The training forward of `x` as a one-item batch.
    fn forward(layer: &mut Dense, x: &Matrix, scratch: &mut Scratch) -> Matrix {
        let out = layer.forward_batch_train(&Batch::new(x.clone(), 1), scratch);
        out.into_matrix()
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut scratch = Scratch::new();
        let mut layer = Dense::new(3, 2, 1);
        assert_eq!(layer.input_dim(), 3);
        assert_eq!(layer.output_dim(), 2);
        let x = Matrix::zeros(4, 3);
        let y = forward(&mut layer, &x, &mut scratch);
        assert_eq!(y.shape(), (4, 2));
        // Zero input -> output equals (zero) bias.
        assert_eq!(y.sum(), 0.0);
        assert_eq!(layer.parameter_count(), 3 * 2 + 2);
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        let mut scratch = Scratch::new();
        let mut layer = Dense::new(2, 2, 3);
        let x = Matrix::from_rows(&[&[0.3, -0.7], &[1.2, 0.4]]);
        // Loss = sum of outputs; dL/dout = ones.
        let out = forward(&mut layer, &x, &mut scratch);
        let ones = Batch::new(Matrix::full(out.rows(), out.cols(), 1.0), 1);
        layer.zero_grad();
        let grad_in = layer.backward_batch(&ones, &mut scratch).into_matrix();

        // Finite-difference check on one weight entry and one input entry.
        let eps = 1e-3f32;
        let analytic_w = layer.params_mut()[0].grad.get(0, 1);
        {
            let w = &mut layer.params_mut()[0].value;
            let orig = w.get(0, 1);
            w.set(0, 1, orig + eps);
        }
        let plus = forward(&mut layer, &x, &mut scratch).sum();
        {
            let w = &mut layer.params_mut()[0].value;
            let orig = w.get(0, 1);
            w.set(0, 1, orig - 2.0 * eps);
        }
        let minus = forward(&mut layer, &x, &mut scratch).sum();
        let numeric_w = (plus - minus) / (2.0 * eps);
        assert!(
            (analytic_w - numeric_w).abs() < 1e-2,
            "weight grad {analytic_w} vs numeric {numeric_w}"
        );

        // Input gradient: column sums of W.
        {
            let w = &mut layer.params_mut()[0].value;
            w.set(0, 1, w.get(0, 1) + eps); // restore original value
        }
        let w = layer.params_mut()[0].value.clone();
        let expected = w.get(0, 0) + w.get(0, 1);
        assert!((grad_in.get(0, 0) - expected).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "backward_batch called before forward_batch_train")]
    fn backward_requires_forward() {
        let mut layer = Dense::new(2, 2, 0);
        let mut scratch = Scratch::new();
        // The inference forward caches nothing.
        let _ = layer.forward_batch(&Batch::new(Matrix::zeros(1, 2), 1), &mut scratch);
        let _ = layer.backward_batch(&Batch::new(Matrix::zeros(1, 2), 1), &mut scratch);
    }
}
