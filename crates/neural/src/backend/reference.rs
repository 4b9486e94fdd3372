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

/// Reference body of [`KernelBackend::activation_grad_from_output`]: the
/// scalar element-wise loop the activation layer used before the seam.
pub(super) fn activation_grad_from_output(
    kind: ActivationKind,
    output: &Matrix,
    grad_output: &Matrix,
    grad_input: &mut Matrix,
) {
    assert_eq!(
        grad_output.shape(),
        output.shape(),
        "activation gradient shape mismatch"
    );
    assert_eq!(
        grad_input.shape(),
        output.shape(),
        "activation gradient output shape mismatch"
    );
    for ((g, &go), &y) in grad_input
        .data_mut()
        .iter_mut()
        .zip(grad_output.data())
        .zip(output.data())
    {
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

/// Reference body of [`KernelBackend::attention_forward_fused`]: a per-item
/// loop over gathered row blocks running exactly the solo forward's kernel
/// calls (`Q_i·K_iᵀ` via the lane-summed transb kernel, scalar scale,
/// exact-order softmax, tiled `A_i·V_i`). Each of those computes an output
/// row from its own query row alone, so each item's scores and mixed values
/// are bit-identical to a solo pass on that item, and each query row's to
/// the same row of the square pass — the contracts the batched determinism
/// fixtures and the grouped Q-network inference pin.
#[allow(clippy::too_many_arguments)]
pub(super) fn attention_forward_fused(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    items: usize,
    scale: f32,
    mut attn: Option<&mut Matrix>,
    mixed: &mut Matrix,
    scratch: &mut Scratch,
) {
    let (m, n) = attention_forward_rows(q, k, v, items);
    let d = q.cols();
    assert_eq!(mixed.shape(), (items * m, d), "attention mixed shape");
    if let Some(attn) = attn.as_deref() {
        assert_eq!(attn.shape(), (items * m, n), "attention stacked-A shape");
    }
    let mut qi = scratch.take(m, d);
    let mut ki = scratch.take(n, d);
    let mut vi = scratch.take(n, d);
    let mut attn_i = scratch.take(m, n);
    let mut mixed_i = scratch.take(m, d);
    for item in 0..items {
        q.copy_row_block_into(item * m, &mut qi);
        k.copy_row_block_into(item * n, &mut ki);
        v.copy_row_block_into(item * n, &mut vi);
        qi.matmul_transb_into(&ki, &mut attn_i);
        attn_i.scale_inplace(scale);
        attn_i.softmax_rows_inplace();
        attn_i.matmul_into(&vi, &mut mixed_i);
        if let Some(attn) = attn.as_deref_mut() {
            attn.write_row_block(item * m, &attn_i);
        }
        mixed.write_row_block(item * m, &mixed_i);
    }
    scratch.recycle(qi);
    scratch.recycle(ki);
    scratch.recycle(vi);
    scratch.recycle(attn_i);
    scratch.recycle(mixed_i);
}

/// Reference body of [`KernelBackend::attention_backward_fused`]: the
/// per-item gathered-block loop of the pre-seam batched backward —
/// `dA_i = dM_i·V_iᵀ`, `dV_i = A_iᵀ·dM_i`, the scalar softmax-backward rows
/// (`dS = A ⊙ (dA − (dA·A)) * scale`), then `dQ_i = dS_i·K_i` and
/// `dK_i = dS_iᵀ·Q_i` — bit-identical to a solo backward per item.
#[allow(clippy::too_many_arguments)]
pub(super) fn attention_backward_fused(
    grad_mixed: &Matrix,
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    attn: &Matrix,
    items: usize,
    scale: f32,
    grad_q: &mut Matrix,
    grad_k: &mut Matrix,
    grad_v: &mut Matrix,
    scratch: &mut Scratch,
) {
    let n = attention_item_rows(q, k, v, items);
    let d = q.cols();
    assert_eq!(grad_mixed.shape(), (items * n, d), "attention dM shape");
    assert_eq!(attn.shape(), (items * n, n), "attention stacked-A shape");
    assert_eq!(grad_q.shape(), (items * n, d), "attention dQ shape");
    assert_eq!(grad_k.shape(), (items * n, d), "attention dK shape");
    assert_eq!(grad_v.shape(), (items * n, d), "attention dV shape");
    let mut gm_i = scratch.take(n, d);
    let mut v_i = scratch.take(n, d);
    let mut q_i = scratch.take(n, d);
    let mut k_i = scratch.take(n, d);
    let mut a_i = scratch.take(n, n);
    let mut ga_i = scratch.take(n, n);
    let mut gq_i = scratch.take(n, d);
    let mut gk_i = scratch.take(n, d);
    let mut gv_i = scratch.take(n, d);
    for item in 0..items {
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

        grad_q.write_row_block(start, &gq_i);
        grad_k.write_row_block(start, &gk_i);
        grad_v.write_row_block(start, &gv_i);
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
