//! The batch-first training contract, mirroring `batch_forward.rs`: for
//! every layer type, `forward_batch_train` + `backward_batch` over a strided
//! [`Batch`] produce, for each item, an input gradient **bit-identical** to
//! the same pair on a one-item batch of that item — and parameter gradients
//! bit-identical to one-item passes accumulated in item order. This is the
//! layer-level property that lets the batched DQN update reproduce
//! serial-update training transcripts exactly.

mod common;

use common::Chain;
use neural::batch::Batch;
use neural::layers::{Activation, Dense, SelfAttention};
use neural::{Layer, Matrix, Scratch};

/// A deterministic pseudo-random stacked input (values vary across items so
/// any leakage between items would change bits).
fn stacked(items: usize, rows_per_item: usize, cols: usize, seed: u64) -> Batch {
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

/// Runs the batched training pass on `batched` and a loop of one-item
/// passes on `solo` (two identically-initialised instances of one layer)
/// and asserts: per-item outputs, per-item input gradients, and the summed
/// parameter gradients are all bit-identical.
fn assert_training_matches_serial(
    batched: &mut dyn Layer,
    solo: &mut dyn Layer,
    input: &Batch,
    grad_seed: u64,
) {
    let mut scratch = Scratch::new();

    // Batched pass: one stacked forward, one stacked backward.
    let out = batched.forward_batch_train(input, &mut scratch);
    let grad = stacked(out.items(), out.rows_per_item(), out.cols(), grad_seed);
    batched.zero_grad();
    let grad_in = batched.backward_batch(&grad, &mut scratch);
    assert_eq!(grad_in.items(), input.items());
    assert_eq!(grad_in.rows_per_item(), input.rows_per_item());

    // Serial reference: a one-item forward/backward per item, gradients
    // accumulating across the loop exactly as the per-sample update does.
    solo.zero_grad();
    let mut item_in = Matrix::zeros(input.rows_per_item(), input.cols());
    let mut item_grad = Matrix::zeros(out.rows_per_item(), out.cols());
    for i in 0..input.items() {
        input.copy_item_into(i, &mut item_in);
        let solo_out = solo.forward_batch_train(&Batch::new(item_in.clone(), 1), &mut scratch);
        assert_eq!(
            out.item(i),
            solo_out.item(0),
            "item {i}: batched training forward diverged from a one-item forward"
        );
        scratch.recycle(solo_out.into_matrix());
        grad.copy_item_into(i, &mut item_grad);
        let solo_grad_in = solo.backward_batch(&Batch::new(item_grad.clone(), 1), &mut scratch);
        assert_eq!(
            grad_in.item(i),
            solo_grad_in.item(0),
            "item {i}: batched input gradient diverged from a one-item backward"
        );
        scratch.recycle(solo_grad_in.into_matrix());
    }

    for (j, (a, b)) in batched
        .params_mut()
        .iter()
        .zip(solo.params_mut().iter())
        .enumerate()
    {
        assert_eq!(
            a.grad.data(),
            b.grad.data(),
            "parameter {j}: batched gradient diverged from serial accumulation"
        );
    }
}

#[test]
fn dense_batched_training_is_bit_identical_to_serial() {
    // Multi-row items (the attention net's per-node shape) and flat items
    // (the baseline-net shape) both flush once per item.
    for (items, rows, seed) in [(5usize, 3usize, 1u64), (32, 1, 2), (1, 4, 3)] {
        let mut batched = Dense::new(6, 4, 9);
        let mut solo = Dense::new(6, 4, 9);
        assert_training_matches_serial(
            &mut batched,
            &mut solo,
            &stacked(items, rows, 6, seed),
            seed.wrapping_add(100),
        );
    }
}

#[test]
fn dense_wide_output_exercises_the_ragged_gradient_tail() {
    // 37 output columns: the per-item gradient kernel's 32-lane tile plus a
    // ragged tail, both of which must flush per item. Flat items too: a
    // fused multiply-add backend's vector lanes would round one stacked
    // chain over every item differently from one flush per item.
    for (items, rows, seed) in [(4usize, 3usize, 5u64), (16, 1, 7)] {
        let mut batched = Dense::new(5, 37, 4);
        let mut solo = Dense::new(5, 37, 4);
        assert_training_matches_serial(
            &mut batched,
            &mut solo,
            &stacked(items, rows, 5, seed),
            seed.wrapping_add(1),
        );
    }
}

#[test]
fn activation_batched_training_is_bit_identical_to_serial() {
    for make in [Activation::relu, Activation::leaky_relu, Activation::tanh] {
        let mut batched = make();
        let mut solo = make();
        assert_training_matches_serial(&mut batched, &mut solo, &stacked(4, 2, 5, 7), 8);
    }
}

#[test]
fn attention_batched_training_is_bit_identical_to_serial() {
    // The attention gradients must stay block-diagonal over items: each
    // item's rows receive gradient only from that item's rows.
    let mut batched = SelfAttention::new(5, 8, 4, 17);
    let mut solo = SelfAttention::new(5, 8, 4, 17);
    assert_training_matches_serial(&mut batched, &mut solo, &stacked(7, 6, 5, 19), 20);
    // A batch of one: both sides run the same calls, twice over.
    let mut batched = SelfAttention::new(5, 8, 4, 23);
    let mut solo = SelfAttention::new(5, 8, 4, 23);
    assert_training_matches_serial(&mut batched, &mut solo, &stacked(1, 6, 5, 29), 30);
}

#[test]
fn sequential_batched_training_is_bit_identical_to_serial() {
    let make = || {
        Chain(vec![
            Box::new(Dense::new(5, 8, 1)) as Box<dyn Layer>,
            Box::new(Activation::relu()),
            Box::new(SelfAttention::new(8, 8, 6, 2)),
            Box::new(Dense::new(6, 3, 3)),
            Box::new(Activation::tanh()),
        ])
    };
    let mut batched = make();
    let mut solo = make();
    assert_training_matches_serial(&mut batched, &mut solo, &stacked(4, 5, 5, 31), 32);
}

#[test]
fn batched_training_pass_survives_interleaved_batched_inference() {
    // The inference-only `forward_batch` may run between a training
    // `forward_batch_train` and its `backward_batch` without changing any
    // gradient — the training caches and the inference path are disjoint.
    let mut scratch = Scratch::new();
    let make = || SelfAttention::new(4, 6, 3, 5);
    let input = stacked(3, 4, 4, 41);
    let grad = stacked(3, 4, 3, 43);

    let mut reference = make();
    let _ = reference.forward_batch_train(&input, &mut scratch);
    reference.zero_grad();
    let ref_grad_in = reference.backward_batch(&grad, &mut scratch);

    let mut interleaved = make();
    let _ = interleaved.forward_batch_train(&input, &mut scratch);
    let noise = stacked(5, 4, 4, 47);
    let out = interleaved.forward_batch(&noise, &mut scratch);
    scratch.recycle(out.into_matrix());
    interleaved.zero_grad();
    let grad_in = interleaved.backward_batch(&grad, &mut scratch);

    assert_eq!(grad_in.matrix().data(), ref_grad_in.matrix().data());
    for (a, b) in reference
        .params_mut()
        .iter()
        .zip(interleaved.params_mut().iter())
    {
        assert_eq!(a.grad.data(), b.grad.data(), "parameter gradients diverged");
    }
}

#[test]
fn steady_state_batched_training_reuses_scratch_buffers() {
    // After warm-up, repeated train-mode passes must cycle pooled buffers
    // (the batch-sized caches included) rather than growing new ones.
    let mut scratch = Scratch::new();
    let mut layer = SelfAttention::new(5, 8, 4, 3);
    let input = stacked(6, 4, 5, 51);
    let grad = stacked(6, 4, 4, 53);
    for _ in 0..3 {
        let out = layer.forward_batch_train(&input, &mut scratch);
        scratch.recycle(out.into_matrix());
        layer.zero_grad();
        let g = layer.backward_batch(&grad, &mut scratch);
        scratch.recycle(g.into_matrix());
    }
    let pooled = scratch.pooled();
    for _ in 0..5 {
        let out = layer.forward_batch_train(&input, &mut scratch);
        scratch.recycle(out.into_matrix());
        layer.zero_grad();
        let g = layer.backward_batch(&grad, &mut scratch);
        scratch.recycle(g.into_matrix());
    }
    assert_eq!(
        scratch.pooled(),
        pooled,
        "steady-state batched training grew the scratch pool"
    );
}
