//! Property-based gradient checks: for randomly sized layers and random
//! inputs, the analytic backward pass must agree with central finite
//! differences, and Adam updates must decrease a simple convex loss.

mod common;

use common::Chain;
use neural::layers::{Activation, Dense, SelfAttention};
use neural::optim::Adam;
use neural::{Batch, Layer, Matrix, Param, Scratch};
use proptest::prelude::*;

/// Strategy for a small random matrix with values in [-1, 1].
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0f32..1.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// The training forward of `x` as a one-item batch.
fn forward(layer: &mut dyn Layer, x: &Matrix, scratch: &mut Scratch) -> Matrix {
    let out = layer.forward_batch_train(&Batch::new(x.clone(), 1), scratch);
    out.into_matrix()
}

/// The backward of a one-item [`forward`].
fn backward(layer: &mut dyn Layer, grad: &Matrix, scratch: &mut Scratch) -> Matrix {
    let g = layer.backward_batch(&Batch::new(grad.clone(), 1), scratch);
    g.into_matrix()
}

fn finite_diff_input<L: Layer>(
    layer: &mut L,
    x: &Matrix,
    row: usize,
    col: usize,
    scratch: &mut Scratch,
) -> f32 {
    let eps = 1e-2f32;
    let mut plus = x.clone();
    plus.set(row, col, x.get(row, col) + eps);
    let mut minus = x.clone();
    minus.set(row, col, x.get(row, col) - eps);
    let f_plus = forward(layer, &plus, scratch).sum();
    let f_minus = forward(layer, &minus, scratch).sum();
    (f_plus - f_minus) / (2.0 * eps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn dense_input_gradient_matches_finite_differences(
        x in matrix(3, 4),
        seed in 0u64..1_000,
    ) {
        let mut scratch = Scratch::new();
        let mut layer = Dense::new(4, 5, seed);
        let out = forward(&mut layer, &x, &mut scratch);
        let ones = Matrix::full(out.rows(), out.cols(), 1.0);
        layer.zero_grad();
        let grad_in = backward(&mut layer, &ones, &mut scratch);
        let numeric = finite_diff_input(&mut layer, &x, 1, 2, &mut scratch);
        prop_assert!((grad_in.get(1, 2) - numeric).abs() < 5e-2,
            "analytic {} vs numeric {}", grad_in.get(1, 2), numeric);
    }

    #[test]
    fn attention_input_gradient_matches_finite_differences(
        x in matrix(3, 4),
        seed in 0u64..1_000,
    ) {
        let mut scratch = Scratch::new();
        let mut layer = SelfAttention::new(4, 6, 3, seed);
        let out = forward(&mut layer, &x, &mut scratch);
        let ones = Matrix::full(out.rows(), out.cols(), 1.0);
        layer.zero_grad();
        let grad_in = backward(&mut layer, &ones, &mut scratch);
        let numeric = finite_diff_input(&mut layer, &x, 2, 1, &mut scratch);
        prop_assert!((grad_in.get(2, 1) - numeric).abs() < 8e-2,
            "analytic {} vs numeric {}", grad_in.get(2, 1), numeric);
    }

    #[test]
    fn activations_never_amplify_gradients_beyond_unity(
        x in matrix(2, 6),
        grad in matrix(2, 6),
    ) {
        let mut scratch = Scratch::new();
        for mut act in [Activation::relu(), Activation::leaky_relu(), Activation::tanh()] {
            let _ = forward(&mut act, &x, &mut scratch);
            let g = backward(&mut act, &grad, &mut scratch);
            for i in 0..g.rows() {
                for j in 0..g.cols() {
                    prop_assert!(g.get(i, j).abs() <= grad.get(i, j).abs() + 1e-6);
                }
            }
        }
    }

    #[test]
    fn adam_reduces_a_quadratic_loss(start in -3.0f32..3.0) {
        let mut p = Param::new(Matrix::row_vector(&[start]));
        let mut adam = Adam::new(0.05);
        let initial = (start - 1.5).abs();
        for _ in 0..300 {
            let x = p.value.get(0, 0);
            p.grad.set(0, 0, 2.0 * (x - 1.5));
            adam.step(&mut [&mut p]);
        }
        let finald = (p.value.get(0, 0) - 1.5).abs();
        prop_assert!(finald <= initial + 1e-3);
        prop_assert!(finald < 0.2, "optimizer did not converge: {finald}");
    }
}

#[test]
fn deep_network_gradients_remain_finite() {
    // A deeper stack than any used by the agent: check numerical stability.
    let mut net = Chain(vec![
        Box::new(Dense::new(8, 32, 1)),
        Box::new(Activation::relu()),
        Box::new(Dense::new(32, 32, 2)),
        Box::new(Activation::tanh()),
        Box::new(Dense::new(32, 32, 3)),
        Box::new(Activation::leaky_relu()),
        Box::new(Dense::new(32, 4, 4)),
    ]);
    let mut scratch = Scratch::new();
    let x = Matrix::full(5, 8, 0.3);
    let out = forward(&mut net, &x, &mut scratch);
    // Gradient of the mean squared error against a zero target.
    let grad = out.data().iter().map(|v| 2.0 * v / out.len() as f32);
    let grad = Matrix::from_vec(out.rows(), out.cols(), grad.collect());
    net.zero_grad();
    let grad_in = backward(&mut net, &grad, &mut scratch);
    assert!(grad_in.data().iter().all(|v| v.is_finite()));
    for p in net.params_mut() {
        assert!(p.grad.data().iter().all(|v| v.is_finite()));
    }
}
