//! A minimal CPU neural-network library built for the ACSO reproduction.
//!
//! The paper trains its defender with PyTorch on a GPU; this crate provides
//! the pieces of that stack the reproduction actually needs, implemented from
//! scratch with explicit forward/backward passes:
//!
//! * a dense row-major [`Matrix`] type with the linear algebra used by the
//!   layers;
//! * [`layers`] — fully-connected, activation and scaled-dot-product
//!   self-attention layers, each implementing [`Layer`] with a manual
//!   backward pass;
//! * [`optim`] — the Adam optimizer over [`Param`] collections, with a
//!   byte-exact state encoding for checkpoints.
//!
//! The library is deliberately small: no autograd graph, no broadcasting
//! rules, no GPU, no loss functions (the DQN update computes its Huber
//! gradient itself). Every pass is batch-first: a layer runs over a strided
//! [`Batch`] of independent items (a single input is a one-item batch),
//! either as inference ([`Layer::forward_batch`]) or as a training forward
//! ([`Layer::forward_batch_train`]) that caches what the layer's
//! [`Layer::backward_batch`] consumes — exactly the discipline a DQN training
//! loop needs. Each item's output is bit-identical to a one-item batch of
//! that item (see [`batch`]).
//!
//! Every pass takes a [`Scratch`] buffer pool; at steady state the layers
//! perform zero heap allocations (see [`scratch`]).
//!
//! All heavy kernels dispatch through a pluggable [`backend`] seam carried
//! by the `Scratch` pool: the always-available exact-order
//! [`backend::ReferenceBackend`] (the default — bit-identical to the
//! pre-seam kernels) and, behind the `backend-simd` feature, an AVX2/FMA
//! `SimdBackend` with runtime dispatch, fused block-diagonal attention
//! kernels, and a declared [`Tolerance`] contract.
//!
//! # Example
//!
//! ```
//! use neural::layers::{Activation, Dense};
//! use neural::optim::Adam;
//! use neural::{Batch, Layer, Matrix, Scratch};
//!
//! // A tiny regression: y = 2x, learned by a 2-layer MLP whose layers are
//! // chained by hand, the way the Q-networks chain theirs. The four samples
//! // are one batch of four single-row items.
//! let mut hidden = Dense::new(1, 8, 1);
//! let mut relu = Activation::relu();
//! let mut out = Dense::new(8, 1, 2);
//! let mut opt = Adam::new(1e-2);
//! let mut scratch = Scratch::new();
//! let x = Batch::new(Matrix::from_rows(&[&[0.0], &[0.5], &[1.0], &[1.5]]), 4);
//! for _ in 0..300 {
//!     let h = hidden.forward_batch_train(&x, &mut scratch);
//!     let a = relu.forward_batch_train(&h, &mut scratch);
//!     let pred = out.forward_batch_train(&a, &mut scratch);
//!     // Mean-squared-error gradient against the targets 2x.
//!     let grad = (0..4)
//!         .map(|i| (pred.matrix().get(i, 0) - 2.0 * x.matrix().get(i, 0)) / 2.0)
//!         .collect();
//!     for layer in [&mut hidden as &mut dyn Layer, &mut relu, &mut out] {
//!         layer.zero_grad();
//!     }
//!     let g = out.backward_batch(&Batch::new(Matrix::from_vec(4, 1, grad), 4), &mut scratch);
//!     let g = relu.backward_batch(&g, &mut scratch);
//!     let _ = hidden.backward_batch(&g, &mut scratch);
//!     let mut params = hidden.params_mut();
//!     params.extend(out.params_mut());
//!     opt.step(&mut params);
//! }
//! let query = Batch::new(Matrix::from_rows(&[&[2.0]]), 1);
//! let h = hidden.forward_batch(&query, &mut scratch);
//! let a = relu.forward_batch(&h, &mut scratch);
//! assert!((out.forward_batch(&a, &mut scratch).matrix().get(0, 0) - 4.0).abs() < 0.5);
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod batch;
pub mod crew;
pub mod init;
pub mod layers;
pub mod matrix;
pub mod optim;
pub mod param;
pub mod scratch;

pub use backend::{KernelBackend, Tolerance};
pub use batch::Batch;
pub use layers::Layer;
pub use matrix::Matrix;
pub use param::Param;
pub use scratch::Scratch;
