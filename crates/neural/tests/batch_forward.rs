//! The batch-first inference contract: for every layer type,
//! `forward_batch` over a strided [`Batch`] produces, for each item, output
//! **bit-identical** to `forward_batch` on a one-item batch of that item —
//! and leaves the backward cache untouched.

mod common;

use common::Chain;
use neural::batch::Batch;
use neural::layers::{Activation, Dense, SelfAttention};
use neural::{Layer, Matrix, Scratch};

/// A deterministic pseudo-random input: values vary across items so leakage
/// between items (the bug the per-item boundary prevents) would change bits.
fn stacked_input(items: usize, rows_per_item: usize, cols: usize, seed: u64) -> Batch {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 2_000) as f32 / 1_000.0 - 1.0
    };
    let mut m = Matrix::zeros(items * rows_per_item, cols);
    for v in m.data_mut() {
        *v = next();
    }
    Batch::new(m, items)
}

/// Asserts every item of `layer.forward_batch(input)` equals the forward
/// of a one-item batch of that item, bit for bit.
fn assert_batch_matches_one_item_batches(layer: &mut dyn Layer, input: &Batch) {
    let mut scratch = Scratch::new();
    let batched = layer.forward_batch(input, &mut scratch);
    assert_eq!(batched.items(), input.items());
    let mut item_in = Matrix::zeros(input.rows_per_item(), input.cols());
    for i in 0..input.items() {
        input.copy_item_into(i, &mut item_in);
        let solo = layer.forward_batch(&Batch::new(item_in.clone(), 1), &mut scratch);
        assert_eq!(
            batched.item(i),
            solo.item(0),
            "item {i} of the batched output diverged from its one-item batch"
        );
        scratch.recycle(solo.into_matrix());
    }
}

#[test]
fn dense_batch_is_bit_identical_per_item() {
    let mut layer = Dense::new(6, 4, 3);
    assert_batch_matches_one_item_batches(&mut layer, &stacked_input(5, 3, 6, 1));
    // Flat items (rows_per_item = 1), the baseline-net shape.
    assert_batch_matches_one_item_batches(&mut layer, &stacked_input(32, 1, 6, 2));
}

#[test]
fn activation_batch_is_bit_identical_per_item() {
    for mut layer in [
        Activation::relu(),
        Activation::leaky_relu(),
        Activation::tanh(),
    ] {
        assert_batch_matches_one_item_batches(&mut layer, &stacked_input(4, 2, 5, 7));
    }
}

#[test]
fn attention_batch_is_bit_identical_per_item() {
    // The attention matrix must be block-diagonal over items: every item's
    // rows attend only to that item's rows.
    let mut layer = SelfAttention::new(5, 8, 4, 17);
    assert_batch_matches_one_item_batches(&mut layer, &stacked_input(7, 6, 5, 19));
    assert_batch_matches_one_item_batches(&mut layer, &stacked_input(1, 6, 5, 23));
}

#[test]
fn sequential_batch_is_bit_identical_per_item() {
    let mut layer = Chain(vec![
        Box::new(Dense::new(5, 8, 1)) as Box<dyn Layer>,
        Box::new(Activation::relu()),
        Box::new(SelfAttention::new(8, 8, 6, 2)),
        Box::new(Dense::new(6, 3, 3)),
        Box::new(Activation::tanh()),
    ]);
    assert_batch_matches_one_item_batches(&mut layer, &stacked_input(4, 5, 5, 29));
}

#[test]
fn forward_batch_does_not_clobber_backward_caches() {
    // A training forward/backward pair over one item may bracket any number
    // of batched inference calls: the gradients must be what they would
    // have been with no batched call in between.
    let mut scratch = Scratch::new();
    let make = || SelfAttention::new(4, 6, 3, 5);
    let x = stacked_input(1, 4, 4, 31);
    let grad = Batch::new(Matrix::full(4, 3, 1.0), 1);

    let mut reference = make();
    let ref_out = reference.forward_batch_train(&x, &mut scratch);
    reference.zero_grad();
    let ref_grad_in = reference.backward_batch(&grad, &mut scratch);

    let mut interleaved = make();
    let out = interleaved.forward_batch_train(&x, &mut scratch);
    let batch = stacked_input(8, 4, 4, 37);
    let batched = interleaved.forward_batch(&batch, &mut scratch);
    scratch.recycle(batched.into_matrix());
    interleaved.zero_grad();
    let grad_in = interleaved.backward_batch(&grad, &mut scratch);

    assert_eq!(out.matrix(), ref_out.matrix());
    assert_eq!(grad_in.matrix(), ref_grad_in.matrix());
    for (a, b) in reference
        .params_mut()
        .iter()
        .zip(interleaved.params_mut().iter())
    {
        assert_eq!(a.grad.data(), b.grad.data(), "parameter gradients diverged");
    }
}

#[test]
fn batched_attention_blocks_do_not_leak_between_items() {
    // Same item data placed next to different neighbours must produce the
    // same output — the direct statement of the no-leak property.
    let mut scratch = Scratch::new();
    let mut layer = SelfAttention::new(4, 6, 3, 41);
    let block = stacked_input(1, 5, 4, 43).into_matrix();
    let pair = |noise_seed: u64| {
        let noise = stacked_input(1, 5, 4, noise_seed).into_matrix();
        Matrix::from_vec(10, 4, [block.data(), noise.data()].concat())
    };
    let (with_a, with_b) = (pair(47), pair(53));

    let out_a = layer.forward_batch(&Batch::new(with_a, 2), &mut scratch);
    let out_b = layer.forward_batch(&Batch::new(with_b, 2), &mut scratch);
    assert_eq!(out_a.item(0), out_b.item(0));
    assert_ne!(out_a.item(1), out_b.item(1));
}
