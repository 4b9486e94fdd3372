//! Shared test support: a stack of layers run in order, the way the
//! Q-networks chain theirs by hand.

use neural::batch::Batch;
use neural::{Layer, Param, Scratch};

/// Layers applied in order; backward passes run them in reverse.
pub struct Chain(pub Vec<Box<dyn Layer>>);

impl Layer for Chain {
    fn forward_batch(&mut self, input: &Batch, scratch: &mut Scratch) -> Batch {
        self.0
            .iter_mut()
            .fold(input.clone(), |x, layer| layer.forward_batch(&x, scratch))
    }

    fn forward_batch_train(&mut self, input: &Batch, scratch: &mut Scratch) -> Batch {
        self.0.iter_mut().fold(input.clone(), |x, layer| {
            layer.forward_batch_train(&x, scratch)
        })
    }

    fn backward_batch(&mut self, grad_output: &Batch, scratch: &mut Scratch) -> Batch {
        self.0
            .iter_mut()
            .rev()
            .fold(grad_output.clone(), |g, layer| {
                layer.backward_batch(&g, scratch)
            })
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.0.iter_mut().flat_map(|l| l.params_mut()).collect()
    }
}
