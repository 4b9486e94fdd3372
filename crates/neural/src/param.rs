//! Trainable parameters: a value matrix paired with its gradient accumulator.

use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// A trainable parameter.
///
/// Layers expose their parameters as `&mut Param` so optimizers can update
/// values in place; layers' backward passes accumulate into the gradient
/// until [`Param::zero_grad`] is called.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Param {
    /// Current value of the parameter.
    pub value: Matrix,
    /// Accumulated gradient of the loss with respect to the value.
    pub grad: Matrix,
}

impl Param {
    /// Creates a parameter from an initial value with a zeroed gradient.
    pub fn new(value: Matrix) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        Self { value, grad }
    }

    /// Clears the accumulated gradient in place (no allocation).
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Number of scalar values in the parameter.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradients_accumulate_and_reset() {
        let mut p = Param::new(Matrix::zeros(2, 2));
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        // Backward passes add into the gradient in place.
        for _ in 0..2 {
            for g in p.grad.data_mut() {
                *g += 1.0;
            }
        }
        assert_eq!(p.grad.sum(), 8.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }
}
