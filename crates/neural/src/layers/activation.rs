//! Element-wise activation layers.

use crate::batch::Batch;
use crate::layers::{cache_input, Layer};
use crate::matrix::Matrix;
use crate::param::Param;
use crate::scratch::Scratch;
use serde::{Deserialize, Serialize};

/// Supported activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActivationKind {
    /// Rectified linear unit.
    Relu,
    /// Leaky rectified linear unit with slope 0.01 for negative inputs
    /// (the paper's baseline network uses LeakyReLU).
    LeakyRelu,
    /// Hyperbolic tangent (the paper's output heads use tanh).
    Tanh,
}

impl ActivationKind {
    /// Applies the activation to one element. Kernel backends use this as
    /// the scalar reference each vectorized map must match (to tolerance).
    pub(crate) fn apply(&self, x: f32) -> f32 {
        match self {
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::LeakyRelu => {
                if x > 0.0 {
                    x
                } else {
                    0.01 * x
                }
            }
            ActivationKind::Tanh => x.tanh(),
        }
    }

    /// The derivative expressed in terms of the activation *output*
    /// `y = f(x)` — cheap for every supported kind (`1 − y²` for tanh; the
    /// ReLUs' input sign is recoverable from the output sign since both are
    /// strictly increasing with `f(x) > 0 ⇔ x > 0`). Bit-identical to the
    /// textbook input-based derivative at the corresponding input.
    pub(crate) fn derivative_from_output(&self, y: f32) -> f32 {
        match self {
            ActivationKind::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActivationKind::LeakyRelu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.01
                }
            }
            ActivationKind::Tanh => 1.0 - y * y,
        }
    }
}

/// An element-wise activation layer.
#[derive(Debug, Clone)]
pub struct Activation {
    kind: ActivationKind,
    /// The *output* of the most recent training forward: every supported
    /// kind's derivative is recoverable from it (see
    /// [`ActivationKind::derivative_from_output`]), which keeps tanh out of
    /// the backward pass entirely.
    cached_output: Option<Matrix>,
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Self {
            kind,
            cached_output: None,
        }
    }

    /// ReLU activation.
    pub fn relu() -> Self {
        Self::new(ActivationKind::Relu)
    }

    /// Leaky ReLU activation.
    pub fn leaky_relu() -> Self {
        Self::new(ActivationKind::LeakyRelu)
    }

    /// Tanh activation.
    pub fn tanh() -> Self {
        Self::new(ActivationKind::Tanh)
    }

    /// The activation kind.
    pub fn kind(&self) -> ActivationKind {
        self.kind
    }

    /// Shared body of [`Layer::forward_batch`] and (`train`, caching the
    /// output) [`Layer::forward_batch_train`]. Element-wise, so the stacked
    /// pass is trivially bit-identical per item.
    fn forward_batch_impl(&mut self, input: &Batch, scratch: &mut Scratch, train: bool) -> Batch {
        let be = scratch.backend();
        let mut out = scratch.take_for_overwrite(input.matrix().rows(), input.cols());
        be.activation_into(self.kind, input.matrix(), &mut out);
        if train {
            cache_input(&mut self.cached_output, &out);
        }
        Batch::new(out, input.items())
    }
}

impl Layer for Activation {
    fn forward_batch(&mut self, input: &Batch, scratch: &mut Scratch) -> Batch {
        self.forward_batch_impl(input, scratch, false)
    }

    fn forward_batch_train(&mut self, input: &Batch, scratch: &mut Scratch) -> Batch {
        self.forward_batch_impl(input, scratch, true)
    }

    fn backward_batch(&mut self, grad_output: &Batch, scratch: &mut Scratch) -> Batch {
        let output = self
            .cached_output
            .as_ref()
            .expect("backward_batch called before forward_batch_train");
        assert_eq!(
            grad_output.matrix().shape(),
            output.shape(),
            "activation gradient shape mismatch"
        );
        let be = scratch.backend();
        let mut grad_input = scratch.take_for_overwrite(output.rows(), output.cols());
        be.activation_grad_from_output(self.kind, output, grad_output.matrix(), &mut grad_input);
        Batch::new(grad_input, grad_output.items())
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The training forward of `x` as a one-item batch.
    fn forward(act: &mut Activation, x: &Matrix, scratch: &mut Scratch) -> Matrix {
        let out = act.forward_batch_train(&Batch::new(x.clone(), 1), scratch);
        out.into_matrix()
    }

    /// The backward of a one-item [`forward`].
    fn backward(act: &mut Activation, grad: &Matrix, scratch: &mut Scratch) -> Matrix {
        let g = act.backward_batch(&Batch::new(grad.clone(), 1), scratch);
        g.into_matrix()
    }

    #[test]
    fn relu_forward_backward() {
        let mut scratch = Scratch::new();
        let mut act = Activation::relu();
        let x = Matrix::row_vector(&[-1.0, 0.5, 2.0]);
        let y = forward(&mut act, &x, &mut scratch);
        assert_eq!(y.data(), &[0.0, 0.5, 2.0]);
        let g = backward(
            &mut act,
            &Matrix::row_vector(&[1.0, 1.0, 1.0]),
            &mut scratch,
        );
        assert_eq!(g.data(), &[0.0, 1.0, 1.0]);
        assert_eq!(act.parameter_count(), 0);
        assert_eq!(act.kind(), ActivationKind::Relu);
    }

    #[test]
    fn leaky_relu_keeps_small_negative_slope() {
        let mut scratch = Scratch::new();
        let mut act = Activation::leaky_relu();
        let x = Matrix::row_vector(&[-2.0, 3.0]);
        let y = forward(&mut act, &x, &mut scratch);
        assert!((y.get(0, 0) + 0.02).abs() < 1e-6);
        let g = backward(&mut act, &Matrix::row_vector(&[1.0, 1.0]), &mut scratch);
        assert!((g.get(0, 0) - 0.01).abs() < 1e-6);
        assert!((g.get(0, 1) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn tanh_gradient_matches_finite_difference() {
        let mut scratch = Scratch::new();
        let mut act = Activation::tanh();
        let x = Matrix::row_vector(&[0.3]);
        let _ = forward(&mut act, &x, &mut scratch);
        let g = backward(&mut act, &Matrix::row_vector(&[1.0]), &mut scratch);
        let eps = 1e-3f32;
        let numeric = ((0.3f32 + eps).tanh() - (0.3f32 - eps).tanh()) / (2.0 * eps);
        assert!((g.get(0, 0) - numeric).abs() < 1e-4);
    }

    #[test]
    fn output_based_derivative_matches_input_based_derivative() {
        // The backward pass computes derivatives from the cached *output*;
        // it must agree with the textbook input-based definition.
        let input_based = |kind: ActivationKind, x: f32| match kind {
            ActivationKind::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActivationKind::LeakyRelu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.01
                }
            }
            ActivationKind::Tanh => 1.0 - x.tanh().powi(2),
        };
        for kind in [
            ActivationKind::Relu,
            ActivationKind::LeakyRelu,
            ActivationKind::Tanh,
        ] {
            for x in [-3.0f32, -0.5, -0.0, 0.0, 0.25, 2.0] {
                assert_eq!(
                    input_based(kind, x),
                    kind.derivative_from_output(kind.apply(x)),
                    "{kind:?} at {x}"
                );
            }
        }
    }

    #[test]
    fn tanh_output_is_bounded() {
        let mut act = Activation::tanh();
        let x = Matrix::row_vector(&[-100.0, 0.0, 100.0]);
        let y = forward(&mut act, &x, &mut Scratch::new());
        assert!(y.data().iter().all(|v| v.abs() <= 1.0));
    }
}
