//! The exact-order reference backend.
//!
//! Every kernel delegates to the scalar register-tiled [`Matrix`] kernels
//! that predate the backend seam, so this backend's results are bit-identical
//! to the pre-seam code — the property all golden and determinism fixtures
//! pin. It is the process-wide default and is always compiled in.

use super::{KernelBackend, Tolerance};
use crate::layers::ActivationKind;
use crate::matrix::Matrix;
use crate::scratch::Scratch;
use std::ops::Range;

/// The always-available exact-order backend (see the module docs).
///
/// A unit struct: every [`KernelBackend`] method keeps its default body,
/// which *is* the reference implementation.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceBackend;

impl KernelBackend for ReferenceBackend {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn tolerance(&self) -> Tolerance {
        Tolerance::Exact
    }
}

/// Reference body of [`KernelBackend::activation_grad_elements`]: the
/// scalar element-wise loop the activation layer used before the seam.
pub(super) fn activation_grad_elements(
    kind: ActivationKind,
    output: &[f32],
    grad_output: &[f32],
    grad_input: &mut [f32],
) {
    for ((g, &go), &y) in grad_input.iter_mut().zip(grad_output).zip(output) {
        *g = go * kind.derivative_from_output(y);
    }
}

/// Validates the stacked shapes of a fused attention forward and returns
/// the per-item query and key row counts `(m, n)`.
pub(super) fn attention_forward_rows(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    items: usize,
) -> (usize, usize) {
    assert!(items > 0, "attention batch must contain at least one item");
    assert_eq!(q.cols(), k.cols(), "attention Q/K width mismatch");
    assert_eq!(k.shape(), v.shape(), "attention K/V shape mismatch");
    for (what, rows) in [("query", q.rows()), ("key", k.rows())] {
        assert_eq!(
            rows % items,
            0,
            "attention {what} rows {rows} not divisible by {items} items"
        );
    }
    (q.rows() / items, k.rows() / items)
}

/// Validates the stacked shapes of a fused attention backward (square items:
/// every stacked matrix is `[items * n, d]`) and returns `n`.
pub(super) fn attention_item_rows(q: &Matrix, k: &Matrix, v: &Matrix, items: usize) -> usize {
    let (m, n) = attention_forward_rows(q, k, v, items);
    assert_eq!(m, n, "attention backward needs square items");
    n
}

/// Reference body of [`KernelBackend::attention_forward_items`]: a
/// per-item loop over gathered row blocks (`Q_i·K_iᵀ` via the lane-summed
/// transb kernel, scalar scale, exact-order softmax, tiled `A_i·V_i`). Each
/// of those computes an output row from its own query row alone, so each
/// item's scores and mixed values are bit-identical to a one-item pass on
/// that item, and each query row's to the same row of the square pass — the
/// contracts the batched determinism fixtures and the grouped Q-network
/// inference pin.
#[allow(clippy::too_many_arguments)]
pub(super) fn attention_forward_items(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    items: usize,
    range: Range<usize>,
    scale: f32,
    mut attn: Option<&mut [f32]>,
    mixed: &mut [f32],
    scratch: &mut Scratch,
) {
    let (m, n) = attention_forward_rows(q, k, v, items);
    let d = q.cols();
    let mut qi = scratch.take(m, d);
    let mut ki = scratch.take(n, d);
    let mut vi = scratch.take(n, d);
    let mut attn_i = scratch.take(m, n);
    let mut mixed_i = scratch.take(m, d);
    for (at, item) in range.enumerate() {
        q.copy_row_block_into(item * m, &mut qi);
        k.copy_row_block_into(item * n, &mut ki);
        v.copy_row_block_into(item * n, &mut vi);
        qi.matmul_transb_into(&ki, &mut attn_i);
        attn_i.scale_inplace(scale);
        attn_i.softmax_rows_inplace();
        attn_i.matmul_into(&vi, &mut mixed_i);
        if let Some(attn) = attn.as_deref_mut() {
            attn[at * m * n..(at + 1) * m * n].copy_from_slice(attn_i.data());
        }
        mixed[at * m * d..(at + 1) * m * d].copy_from_slice(mixed_i.data());
    }
    scratch.recycle(qi);
    scratch.recycle(ki);
    scratch.recycle(vi);
    scratch.recycle(attn_i);
    scratch.recycle(mixed_i);
}

/// Reference body of [`KernelBackend::attention_backward_items`]: the
/// per-item gathered-block loop of the pre-seam batched backward —
/// `dA_i = dM_i·V_iᵀ`, `dV_i = A_iᵀ·dM_i`, the scalar softmax-backward rows
/// (`dS = A ⊙ (dA − (dA·A)) * scale`), then `dQ_i = dS_i·K_i` and
/// `dK_i = dS_iᵀ·Q_i` — bit-identical to a one-item backward per item.
#[allow(clippy::too_many_arguments)]
pub(super) fn attention_backward_items(
    grad_mixed: &Matrix,
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    attn: &Matrix,
    items: usize,
    range: Range<usize>,
    scale: f32,
    grad_q: &mut [f32],
    grad_k: &mut [f32],
    grad_v: &mut [f32],
    scratch: &mut Scratch,
) {
    let n = attention_item_rows(q, k, v, items);
    let d = q.cols();
    let mut gm_i = scratch.take(n, d);
    let mut v_i = scratch.take(n, d);
    let mut q_i = scratch.take(n, d);
    let mut k_i = scratch.take(n, d);
    let mut a_i = scratch.take(n, n);
    let mut ga_i = scratch.take(n, n);
    let mut gq_i = scratch.take(n, d);
    let mut gk_i = scratch.take(n, d);
    let mut gv_i = scratch.take(n, d);
    for (at, item) in range.enumerate() {
        let start = item * n;
        grad_mixed.copy_row_block_into(start, &mut gm_i);
        v.copy_row_block_into(start, &mut v_i);
        attn.copy_row_block_into(start, &mut a_i);

        // mixed = A·V
        gm_i.matmul_transb_into(&v_i, &mut ga_i);
        a_i.matmul_transa_into(&gm_i, &mut gv_i);

        // Softmax backward, row by row, pre-scaled.
        for i in 0..n {
            let a_row = a_i.row(i);
            let da_row = &mut ga_i.row_mut(i)[..];
            let dot: f32 = a_row.iter().zip(da_row.iter()).map(|(a, d)| a * d).sum();
            for (d, &a) in da_row.iter_mut().zip(a_row) {
                *d = a * (*d - dot) * scale;
            }
        }

        // scores = Q·Kᵀ
        k.copy_row_block_into(start, &mut k_i);
        q.copy_row_block_into(start, &mut q_i);
        ga_i.matmul_into(&k_i, &mut gq_i);
        ga_i.matmul_transa_into(&q_i, &mut gk_i);

        let block = at * n * d..(at + 1) * n * d;
        grad_q[block.clone()].copy_from_slice(gq_i.data());
        grad_k[block.clone()].copy_from_slice(gk_i.data());
        grad_v[block].copy_from_slice(gv_i.data());
    }
    scratch.recycle(gm_i);
    scratch.recycle(v_i);
    scratch.recycle(q_i);
    scratch.recycle(k_i);
    scratch.recycle(a_i);
    scratch.recycle(ga_i);
    scratch.recycle(gq_i);
    scratch.recycle(gk_i);
    scratch.recycle(gv_i);
}
