//! The kernel-backend seam: pluggable providers for the hot float kernels.
//!
//! Every layer routes its GEMMs (plain, with a bias, and the per-item
//! `aᵀ·b` weight-gradient flush), transposes, activation maps and the fused
//! attention score/softmax/mix stages through a [`KernelBackend`] carried by
//! the [`Scratch`] pool instead of hardcoding the scalar register-tiled
//! kernels. Two providers exist:
//!
//! * [`ReferenceBackend`] — the always-available default. It delegates to the
//!   exact-order kernels on [`Matrix`], so its results are **bit-identical**
//!   to the pre-seam code at every shape and batch size
//!   ([`Tolerance::Exact`]). All golden and determinism fixtures pin this
//!   backend.
//! * `SimdBackend` (feature `backend-simd`) — explicit `std::arch` x86_64
//!   AVX2/FMA kernels with `is_x86_feature_detected!` runtime dispatch. On
//!   hardware without AVX2+FMA (or via
//!   `SimdBackend::scalar_fallback`) every call falls back to the reference
//!   kernels, bit for bit. The vectorized paths reorder reductions and use a
//!   polynomial `exp`, so the backend declares a relative
//!   [`Tolerance`] instead of exactness.
//!
//! Selection flows through [`Scratch`] construction: [`Scratch::new`] picks
//! the process-wide default backend, resolved once from the `ACSO_BACKEND`
//! environment variable (`reference`|`simd`) or set programmatically with
//! [`set_default_backend`]; [`Scratch::with_backend`] pins a specific
//! provider for one pool (used by the cross-backend equivalence tests so
//! they never race on the global default).
//!
//! [`Scratch`]: crate::scratch::Scratch
//! [`Scratch::new`]: crate::scratch::Scratch::new
//! [`Scratch::with_backend`]: crate::scratch::Scratch::with_backend

mod reference;
#[cfg(feature = "backend-simd")]
mod simd;

pub use reference::ReferenceBackend;
#[cfg(feature = "backend-simd")]
pub use simd::SimdBackend;

use crate::crew::{self, Parts, Split, CHUNKS_PER_MEMBER, FLUSH_CHUNKS_PER_MEMBER};
use crate::layers::ActivationKind;
use crate::matrix::{self, Matrix};
use crate::scratch::Scratch;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A shared reference to a registered kernel backend.
///
/// Backends are stateless statics, so the reference is `Copy` and can be
/// held by any number of [`Scratch`] pools at once.
pub type BackendRef = &'static dyn KernelBackend;

/// Environment variable that selects the process-wide default backend
/// (`reference` or `simd`); read once, on the first
/// [`default_backend`] call.
pub const BACKEND_ENV: &str = "ACSO_BACKEND";

/// The accuracy contract a backend declares for its kernels, relative to
/// [`ReferenceBackend`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Bit-identical to the reference kernels at every shape (same float
    /// operations in the same order). Golden fixtures may pin this backend.
    Exact,
    /// Each output element `x` matches the reference element `r` within
    /// `|x - r| <= abs + rel * max(|x|, |r|)` — reductions may be reordered
    /// and transcendentals approximated, but never beyond this bound.
    Bounded {
        /// Relative error bound.
        rel: f32,
        /// Absolute error floor (covers results near zero).
        abs: f32,
    },
}

impl Tolerance {
    /// Whether two values are equal under this tolerance. `NaN` matches
    /// `NaN` (kernels must propagate non-finite values identically).
    pub fn allows(&self, a: f32, b: f32) -> bool {
        if a.is_nan() || b.is_nan() {
            return a.is_nan() && b.is_nan();
        }
        match *self {
            Tolerance::Exact => a == b,
            Tolerance::Bounded { rel, abs } => (a - b).abs() <= abs + rel * a.abs().max(b.abs()),
        }
    }

    /// The looser of two contracts — the bound a cross-backend comparison
    /// must use.
    pub fn join(self, other: Tolerance) -> Tolerance {
        match (self, other) {
            (Tolerance::Exact, t) | (t, Tolerance::Exact) => t,
            (Tolerance::Bounded { rel: r1, abs: a1 }, Tolerance::Bounded { rel: r2, abs: a2 }) => {
                Tolerance::Bounded {
                    rel: r1.max(r2),
                    abs: a1.max(a2),
                }
            }
        }
    }
}

/// A provider of the float kernels the layers are built from.
///
/// Backends implement *range kernels*, each of which computes one block of
/// a kernel's output: a range of rows, items or elements. Every range kernel
/// has a default body running the exact-order reference code, so
/// [`ReferenceBackend`] implements nothing beyond its name and tolerance,
/// and an accelerated backend overrides exactly the kernels it accelerates
/// (anything it leaves alone stays bit-identical to the reference).
///
/// The layers call the *whole* kernels (`matmul_into`, `affine_into`,
/// `add_matmul_transa_items`, `activation_into`, the fused attention
/// passes, ...). Their provided bodies check shapes and split the output
/// across the [`crate::crew`] open on the calling thread, calling the
/// range kernel once per chunk; without a crew a whole kernel is one range
/// call over its entire output. Each split keeps every output element's
/// arithmetic chain on one thread and in its order, so a split call is
/// bit-identical to the whole call on every backend:
///
/// * **GEMMs and the bias add** split by output rows, at multiples of four
///   rows. Never by columns: an element's column decides whether a
///   vectorized backend computes it in the vector body or the scalar tail.
/// * **Activations and their gradients** split at multiples of 64
///   elements, a multiple of every vector step, so each element keeps its
///   vector or scalar-tail path.
/// * **Fused attention**, forward and backward, splits by items: an item
///   reads and writes only its own blocks.
/// * **Weight-gradient flushes** split by the gradient's rows (the layer's
///   input features). Each chunk walks the items in ascending order, so
///   every element keeps its from-zero chain per item and its one add per
///   item into the gradient.
///
/// Two structural contracts every implementation must keep:
///
/// * **row-count invariance** — for `matmul_into`/`add_matmul`, each output
///   element's value depends only on its own row of `a` and column of `b`,
///   never on how many other rows are stacked below it. This is what makes
///   batched passes bit-identical *per item* to one-item passes within one
///   backend (the contract `batch_determinism` pins for every backend), and
///   what lets a GEMM split by rows.
/// * **NaN propagation** — kernels take no data-dependent shortcuts:
///   `0 × NaN` stays `NaN` exactly as IEEE 754 requires.
pub trait KernelBackend: std::fmt::Debug + Send + Sync {
    /// Stable identifier used by `ACSO_BACKEND`, bench snapshots and logs.
    fn name(&self) -> &'static str;

    /// The accuracy contract of this backend's kernels relative to
    /// [`ReferenceBackend`].
    fn tolerance(&self) -> Tolerance;

    /// Range kernel of the GEMMs: `out (+)= a · b` over one block of rows.
    /// `a` holds the block's rows of the left operand (`b.rows()` values
    /// each) and `out` the same rows of the result (`b.cols()` values
    /// each); `accumulate` adds onto `out` instead of overwriting it.
    fn gemm_rows(&self, a: &[f32], b: &Matrix, out: &mut [f32], accumulate: bool) {
        matrix::matmul_rows(a, b, out, accumulate);
    }

    /// Range kernel of the weight-gradient flushes: output rows `out_rows`
    /// of `out += a[rows]ᵀ · b[rows]` over the row block `row_start ..
    /// row_start + rows` of `a` and `b`, where `out` holds exactly the rows
    /// `out_rows` (`b.cols()` values each). Each element must sum the
    /// block's terms from zero in ascending row order and be added into
    /// `out` once, so a loop over items reproduces the serial per-sample
    /// accumulation order.
    fn transa_rows(
        &self,
        out: &mut [f32],
        out_rows: Range<usize>,
        a: &Matrix,
        b: &Matrix,
        row_start: usize,
        rows: usize,
    ) {
        matrix::transa_rows(out, out_rows, a, b, row_start, rows);
    }

    /// Range kernel of [`KernelBackend::activation_into`]: the activation
    /// applied to every element of `data` in place.
    fn activation_elements(&self, kind: ActivationKind, data: &mut [f32]) {
        for v in data {
            *v = kind.apply(*v);
        }
    }

    /// Range kernel of [`KernelBackend::activation_grad_from_output`], over
    /// equally long element ranges of the three operands.
    fn activation_grad_elements(
        &self,
        kind: ActivationKind,
        output: &[f32],
        grad_output: &[f32],
        grad_input: &mut [f32],
    ) {
        reference::activation_grad_elements(kind, output, grad_output, grad_input);
    }

    /// Range kernel of [`KernelBackend::attention_forward_fused`]: the
    /// items `range` of the `items` stacked in `q`, `k` and `v`, where
    /// `attn` and `mixed` hold exactly those items' output blocks.
    /// Temporaries come from `scratch`.
    #[allow(clippy::too_many_arguments)]
    fn attention_forward_items(
        &self,
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        items: usize,
        range: Range<usize>,
        scale: f32,
        attn: Option<&mut [f32]>,
        mixed: &mut [f32],
        scratch: &mut Scratch,
    ) {
        reference::attention_forward_items(q, k, v, items, range, scale, attn, mixed, scratch);
    }

    /// Range kernel of [`KernelBackend::attention_backward_fused`]: the
    /// items `range`, where `grad_q`, `grad_k` and `grad_v` hold exactly
    /// those items' blocks (zero-filled). Temporaries come from `scratch`.
    #[allow(clippy::too_many_arguments)]
    fn attention_backward_items(
        &self,
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
        reference::attention_backward_items(
            grad_mixed, q, k, v, attn, items, range, scale, grad_q, grad_k, grad_v, scratch,
        );
    }

    /// `out = a · b` (`out`'s previous contents are neither read nor
    /// zeroed). Splits by output rows.
    fn matmul_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        check_gemm(a, b, out);
        gemm_split(self, a, b, None, out, false);
    }

    /// `out += a · b`. Splits by output rows.
    fn add_matmul(&self, out: &mut Matrix, a: &Matrix, b: &Matrix) {
        check_gemm(a, b, out);
        gemm_split(self, a, b, None, out, true);
    }

    /// `out = a · w + bias`, the bias row added to every output row after
    /// its product (the dense layer's forward). Splits by output rows.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch, including a `bias` that is not
    /// `1 x w.cols()`.
    fn affine_into(&self, a: &Matrix, w: &Matrix, bias: &Matrix, out: &mut Matrix) {
        check_gemm(a, w, out);
        assert_eq!(bias.shape(), (1, w.cols()), "bias must be a 1 x out row");
        gemm_split(self, a, w, Some(bias), out, false);
    }

    /// The batched parameter-gradient flush: `out += a_iᵀ · b_i` for each
    /// of the `items` equal row blocks of `a` and `b`, in ascending item
    /// order, each block flushed once — the accumulation order of one-item
    /// backwards over the items in order. Splits by output rows, each chunk
    /// walking every item.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch, or if `items` is zero or does not
    /// divide the row count.
    fn add_matmul_transa_items(&self, out: &mut Matrix, a: &Matrix, b: &Matrix, items: usize) {
        let split = check_flush(out, a, b, items);
        let body = flush_body(self, a, b, items);
        crew::split_mut(split, out.data_mut(), b.cols(), &body);
    }

    /// `out = aᵀ`.
    fn transpose_into(&self, a: &Matrix, out: &mut Matrix) {
        a.transpose_into(out);
    }

    /// `out = f(input)`, the activation applied element-wise. Splits by
    /// element ranges, each chunk copying its range and applying the
    /// activation in place.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    fn activation_into(&self, kind: ActivationKind, input: &Matrix, out: &mut Matrix) {
        assert_eq!(
            input.shape(),
            out.shape(),
            "activation output shape mismatch"
        );
        let split = element_split(input.len());
        crew::split_mut(split, out.data_mut(), 1, &|at, out| {
            out.copy_from_slice(&input.data()[at]);
            self.activation_elements(kind, out)
        });
    }

    /// `grad_input = grad_output ⊙ f'(output)` where the derivative is
    /// expressed in terms of the activation *output* (see
    /// `ActivationKind::derivative_from_output`). Splits by element ranges.
    fn activation_grad_from_output(
        &self,
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
        let split = element_split(output.len());
        crew::split_mut(split, grad_input.data_mut(), 1, &|at, gi| {
            self.activation_grad_elements(
                kind,
                &output.data()[at.clone()],
                &grad_output.data()[at],
                gi,
            )
        });
    }

    /// The fused block-diagonal attention forward stage over a stacked batch
    /// of `items` independent items, each with `m` query rows and `n`
    /// key/value rows:
    ///
    /// ```text
    /// per item i (query rows i*m .. (i+1)*m, key/value rows i*n .. (i+1)*n):
    ///   A_i = softmax(Q_i · K_iᵀ * scale)      ([m, n])
    ///   mixed_i = A_i · V_i                     ([m, d])
    /// ```
    ///
    /// `q` and `mixed` are `[items * m, d]`, `k` and `v` `[items * n, d]`;
    /// `attn`, when present, receives the stacked `[items * m, n]` score
    /// blocks (the training cache; inference passes `None` and pays nothing
    /// for it). Self-attention is the square case `m = n`; grouped inference
    /// passes only an item's distinct query rows (`m < n`) against all of its
    /// keys. A query row's scores and mixed values depend on that row and its
    /// item's keys and values alone — never on `m` or on the other query rows
    /// — so a row computes the same bits at every `m` and in both forms (the
    /// equivalence suite pins this per backend). Splits by items;
    /// temporaries come from `scratch` (a helper's from its own pool).
    #[allow(clippy::too_many_arguments)]
    fn attention_forward_fused(
        &self,
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        items: usize,
        scale: f32,
        attn: Option<&mut Matrix>,
        mixed: &mut Matrix,
        scratch: &mut Scratch,
    ) {
        let (m, n) = reference::attention_forward_rows(q, k, v, items);
        let d = q.cols();
        assert_eq!(mixed.shape(), (items * m, d), "attention mixed shape");
        if let Some(attn) = attn.as_deref() {
            assert_eq!(attn.shape(), (items * m, n), "attention stacked-A shape");
        }
        let split = item_split(items, items * m * n * d * 2);
        let chunks = split.chunks();
        if chunks == 1 {
            let attn = attn.map(|a| a.data_mut());
            return self.attention_forward_items(
                q,
                k,
                v,
                items,
                0..items,
                scale,
                attn,
                mixed.data_mut(),
                scratch,
            );
        }
        let mut attn = attn.map(|a| crew::pieces(a.data_mut(), m * n, items, 1, chunks));
        let parts = Parts::new(
            crew::pieces(mixed.data_mut(), m * d, items, 1, chunks)
                .map(|mixed| (attn.as_mut().and_then(Iterator::next), mixed)),
        );
        crew::run(chunks, scratch, &|c, temps| {
            let (attn, mixed) = parts.take(c);
            let range = split.range(chunks, c);
            self.attention_forward_items(q, k, v, items, range, scale, attn, mixed, temps);
        });
    }

    /// The fused block-diagonal attention backward stage (square items only:
    /// training never groups rows): given the stacked
    /// gradient of the mixed values and the cached forward intermediates, it
    /// writes the stacked gradients with respect to `Q`, `K` and `V`
    /// (softmax backward included, pre-scaled by `scale`; the three arrive
    /// zero-filled). Parameter gradients stay with the caller. Splits by
    /// items; temporaries come from `scratch` (a helper's from its own
    /// pool).
    #[allow(clippy::too_many_arguments)]
    fn attention_backward_fused(
        &self,
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
        let n = reference::attention_item_rows(q, k, v, items);
        let d = q.cols();
        assert_eq!(grad_mixed.shape(), (items * n, d), "attention dM shape");
        assert_eq!(attn.shape(), (items * n, n), "attention stacked-A shape");
        assert_eq!(grad_q.shape(), (items * n, d), "attention dQ shape");
        assert_eq!(grad_k.shape(), (items * n, d), "attention dK shape");
        assert_eq!(grad_v.shape(), (items * n, d), "attention dV shape");
        let split = item_split(items, items * n * n * d * 4);
        let chunks = split.chunks();
        if chunks == 1 {
            return self.attention_backward_items(
                grad_mixed,
                q,
                k,
                v,
                attn,
                items,
                0..items,
                scale,
                grad_q.data_mut(),
                grad_k.data_mut(),
                grad_v.data_mut(),
                scratch,
            );
        }
        let block = n * d;
        let mut gk = crew::pieces(grad_k.data_mut(), block, items, 1, chunks);
        let mut gv = crew::pieces(grad_v.data_mut(), block, items, 1, chunks);
        let parts = Parts::new(
            crew::pieces(grad_q.data_mut(), block, items, 1, chunks).map(|gq| {
                (
                    gq,
                    gk.next().expect("a dK piece"),
                    gv.next().expect("a dV piece"),
                )
            }),
        );
        crew::run(chunks, scratch, &|c, temps| {
            let (gq, gk, gv) = parts.take(c);
            let range = split.range(chunks, c);
            self.attention_backward_items(
                grad_mixed, q, k, v, attn, items, range, scale, gq, gk, gv, temps,
            );
        });
    }
}

/// Row multiple at which GEMMs and gradient flushes split: the row block
/// height of both backends' micro-kernels.
const ROW_ALIGN: usize = 4;

/// Element multiple at which the activation kernels split: a multiple of
/// every vector step (8 lanes on AVX2), so a split never moves an element
/// between a vector body and a scalar tail.
const ELEMENT_ALIGN: usize = 64;

/// The split of a GEMM over `rows` output rows.
fn row_split(rows: usize, work: usize) -> Split {
    Split {
        units: rows,
        align: ROW_ALIGN,
        work,
        per_member: CHUNKS_PER_MEMBER,
    }
}

/// The split of a weight-gradient flush over the gradient's `rows`.
fn flush_split(rows: usize, work: usize) -> Split {
    Split {
        per_member: FLUSH_CHUNKS_PER_MEMBER,
        ..row_split(rows, work)
    }
}

/// The split of an activation kernel over `len` elements.
fn element_split(len: usize) -> Split {
    Split {
        units: len,
        align: ELEMENT_ALIGN,
        work: len,
        per_member: CHUNKS_PER_MEMBER,
    }
}

/// The split of a fused attention pass over `items`.
fn item_split(items: usize, work: usize) -> Split {
    Split {
        units: items,
        align: 1,
        work,
        per_member: CHUNKS_PER_MEMBER,
    }
}

/// Shape checks of the GEMMs.
fn check_gemm(a: &Matrix, b: &Matrix, out: &Matrix) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul shape mismatch: {}x{} * {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    assert_eq!(
        out.shape(),
        (a.rows(), b.cols()),
        "matmul output shape mismatch"
    );
}

/// Shape checks of a per-item flush `out += Σ_items a_iᵀ · b_i`; its split.
fn check_flush(out: &Matrix, a: &Matrix, b: &Matrix, items: usize) -> Split {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_transa shape mismatch: {}x{}ᵀ * {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    assert_eq!(
        out.shape(),
        (a.cols(), b.cols()),
        "matmul_transa output shape mismatch"
    );
    assert!(
        items > 0 && a.rows().is_multiple_of(items),
        "{} rows do not split into {items} items",
        a.rows()
    );
    let (r, c) = (a.cols(), b.cols());
    flush_split(r, r * c * a.rows())
}

/// Chunk body of the per-item flush `out += Σ_items a_iᵀ · b_i` over a
/// range of output rows: the items in ascending order, one flush each.
fn flush_body<'a, B: KernelBackend + ?Sized>(
    be: &'a B,
    a: &'a Matrix,
    b: &'a Matrix,
    items: usize,
) -> impl Fn(Range<usize>, &mut [f32]) + Sync + 'a {
    let rows = a.rows() / items;
    move |out_rows, out| {
        for item in 0..items {
            be.transa_rows(out, out_rows.clone(), a, b, item * rows, rows);
        }
    }
}

/// `out (+)= a · b (+ bias)`, split by output rows: each chunk runs the
/// backend's row kernel on its rows, then adds the bias to them.
fn gemm_split<B: KernelBackend + ?Sized>(
    be: &B,
    a: &Matrix,
    b: &Matrix,
    bias: Option<&Matrix>,
    out: &mut Matrix,
    accumulate: bool,
) {
    let (k, n) = (b.rows(), b.cols());
    let rows = a.rows();
    crew::split_mut(
        row_split(rows, rows * k * n),
        out.data_mut(),
        n,
        &|at, out| {
            be.gemm_rows(&a.data()[at.start * k..at.end * k], b, out, accumulate);
            if let Some(bias) = bias {
                for row in out.chunks_exact_mut(n.max(1)) {
                    for (v, b) in row.iter_mut().zip(bias.data()) {
                        *v += b;
                    }
                }
            }
        },
    );
}

/// The reference backend singleton (the process-wide fallback default).
static REFERENCE: ReferenceBackend = ReferenceBackend;
#[cfg(feature = "backend-simd")]
static SIMD: SimdBackend = SimdBackend::new();

/// The reference backend.
pub(crate) fn reference() -> BackendRef {
    &REFERENCE
}

/// Every backend compiled into this build, reference first.
pub fn all_backends() -> &'static [BackendRef] {
    #[cfg(feature = "backend-simd")]
    {
        static ALL: [BackendRef; 2] = [&REFERENCE, &SIMD];
        &ALL
    }
    #[cfg(not(feature = "backend-simd"))]
    {
        static ALL: [BackendRef; 1] = [&REFERENCE];
        &ALL
    }
}

/// Looks a backend up by its [`KernelBackend::name`].
///
/// # Errors
///
/// Returns a descriptive error for unknown names, including the case where
/// `simd` was requested but the build lacks the `backend-simd` feature.
pub fn backend_by_name(name: &str) -> Result<BackendRef, String> {
    if let Some(b) = all_backends().iter().find(|b| b.name() == name) {
        return Ok(*b);
    }
    if name == "simd" {
        return Err(
            "kernel backend 'simd' requires building with `--features backend-simd`".to_string(),
        );
    }
    let available: Vec<&str> = all_backends().iter().map(|b| b.name()).collect();
    Err(format!(
        "unknown kernel backend '{name}' (available: {})",
        available.join(", ")
    ))
}

/// Index into [`all_backends`] of the process-wide default, offset by one;
/// `0` means "not resolved yet".
static DEFAULT_BACKEND: AtomicUsize = AtomicUsize::new(0);

/// The process-wide default backend used by
/// [`Scratch::new`](crate::Scratch::new).
///
/// Resolved once: an explicit [`set_default_backend`] call wins; otherwise
/// the first call reads [`BACKEND_ENV`] (empty/unset means `reference`).
///
/// # Panics
///
/// Panics if [`BACKEND_ENV`] names an unknown or uncompiled backend — a
/// misconfigured deployment must fail loudly, not silently compute with the
/// wrong kernels.
pub fn default_backend() -> BackendRef {
    let all = all_backends();
    let idx = DEFAULT_BACKEND.load(Ordering::Relaxed);
    if idx > 0 {
        return all[idx - 1];
    }
    let chosen = match std::env::var(BACKEND_ENV) {
        Ok(name) if !name.is_empty() => {
            backend_by_name(&name).unwrap_or_else(|e| panic!("{BACKEND_ENV}: {e}"))
        }
        _ => &REFERENCE as BackendRef,
    };
    // Benign race: concurrent first calls resolve the same env value.
    set_default_backend(chosen);
    chosen
}

/// Programmatically sets the process-wide default backend (overrides
/// [`BACKEND_ENV`]). Affects [`Scratch::new`](crate::Scratch::new) pools
/// created *after* the call; existing pools keep the backend they were
/// built with.
///
/// # Panics
///
/// Panics if `backend` is not one of [`all_backends`].
pub fn set_default_backend(backend: BackendRef) {
    let idx = all_backends()
        .iter()
        .position(|b| b.name() == backend.name())
        .expect("backend is not registered in all_backends()");
    DEFAULT_BACKEND.store(idx + 1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_always_registered_and_first() {
        let all = all_backends();
        assert!(!all.is_empty());
        assert_eq!(all[0].name(), "reference");
        assert_eq!(all[0].tolerance(), Tolerance::Exact);
        assert_eq!(backend_by_name("reference").unwrap().name(), "reference");
    }

    #[test]
    fn unknown_backend_names_error_descriptively() {
        let err = backend_by_name("gpu").unwrap_err();
        assert!(err.contains("unknown kernel backend 'gpu'"), "{err}");
        assert!(err.contains("reference"), "{err}");
        #[cfg(not(feature = "backend-simd"))]
        {
            let err = backend_by_name("simd").unwrap_err();
            assert!(err.contains("backend-simd"), "{err}");
        }
    }

    #[test]
    fn default_backend_resolves_and_can_be_overridden() {
        // The suite runs with ACSO_BACKEND unset (or set to a valid name),
        // so resolution must not panic and must return a registered backend.
        let d = default_backend();
        assert!(all_backends().iter().any(|b| b.name() == d.name()));
        set_default_backend(d);
        assert_eq!(default_backend().name(), d.name());
    }

    #[test]
    fn tolerance_allows_and_joins() {
        let exact = Tolerance::Exact;
        assert!(exact.allows(1.25, 1.25));
        assert!(!exact.allows(1.25, 1.2500001));
        assert!(exact.allows(f32::NAN, f32::NAN));
        assert!(!exact.allows(f32::NAN, 1.0));

        let loose = Tolerance::Bounded {
            rel: 1e-3,
            abs: 1e-6,
        };
        assert!(loose.allows(1000.0, 1000.5));
        assert!(!loose.allows(1000.0, 1002.0));
        assert!(loose.allows(0.0, 5e-7));
        assert!(!loose.allows(f32::NAN, 1.0));

        assert_eq!(exact.join(loose), loose);
        assert_eq!(loose.join(exact), loose);
        let tighter = Tolerance::Bounded {
            rel: 1e-5,
            abs: 1e-7,
        };
        assert_eq!(loose.join(tighter), loose);
        assert_eq!(exact.join(exact), exact);
    }

    /// Seeded values in roughly `[-2, 2)`, with a NaN-free spread.
    fn filled(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut m = Matrix::zeros(rows, cols);
        for v in m.data_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = ((state >> 33) % 4000) as f32 / 1000.0 - 2.0;
        }
        m
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Runs `kernel` on a copy of `start` as one whole call (no crew), then
    /// split into 1 to 5 chunks on a crew of three, and asserts every split
    /// result equals the whole one bit for bit.
    fn assert_splits_match(what: &str, start: &Matrix, kernel: impl Fn(&mut Matrix)) {
        let mut whole = start.clone();
        kernel(&mut whole);
        for chunks in 1..=5 {
            crew::FORCED_CHUNKS.set(Some(chunks));
            let mut split = start.clone();
            crew::with_crew(3, || kernel(&mut split));
            crew::FORCED_CHUNKS.set(None);
            assert_eq!(bits(&split), bits(&whole), "{what}: {chunks} chunks");
        }
    }

    /// Every split kernel gives the whole call's bits on every backend:
    /// GEMMs and the bias add split by rows, flushes by gradient rows,
    /// activations by element ranges, and the fused attention by items.
    /// Row counts cover one row, 4-row blocks with and without a remainder,
    /// and 67; column counts leave vector tails.
    #[test]
    fn split_kernels_match_the_whole_call_bit_for_bit() {
        for &be in all_backends() {
            let name = be.name();
            for rows in [1usize, 3, 5, 67] {
                for (k, n) in [(7usize, 1usize), (33, 7), (16, 23), (5, 37)] {
                    let a = filled(rows, k, (rows * 100 + n) as u64);
                    let b = filled(k, n, (k * 100 + n) as u64);
                    let bias = filled(1, n, n as u64);
                    let start = filled(rows, n, 7);
                    let shape = format!("{name} {rows}x{k}x{n}");
                    assert_splits_match(&format!("matmul {shape}"), &start, |out| {
                        be.matmul_into(&a, &b, out)
                    });
                    assert_splits_match(&format!("add_matmul {shape}"), &start, |out| {
                        be.add_matmul(out, &a, &b)
                    });
                    assert_splits_match(&format!("affine {shape}"), &start, |out| {
                        be.affine_into(&a, &b, &bias, out)
                    });
                }
            }
            for r in [1usize, 3, 5, 67] {
                for c in [7usize, 23, 37] {
                    for (items, per_item) in [(1usize, 3usize), (2, 1), (3, 2), (64, 1), (64, 3)] {
                        let seed = (r * 1000 + c * 10 + items) as u64;
                        let a = filled(items * per_item, r, seed);
                        let b = filled(items * per_item, c, seed + 1);
                        let start = filled(r, c, seed + 2);
                        let shape = format!("{name} r={r} c={c} items={items}x{per_item}");
                        assert_splits_match(&format!("flush {shape}"), &start, |out| {
                            be.add_matmul_transa_items(out, &a, &b, items)
                        });
                    }
                }
            }
            for len in [1usize, 63, 64, 65, 200, 1_000] {
                for kind in [
                    ActivationKind::Relu,
                    ActivationKind::LeakyRelu,
                    ActivationKind::Tanh,
                ] {
                    let x = filled(1, len, len as u64);
                    let shape = format!("{name} {kind:?} len={len}");
                    assert_splits_match(&format!("activation {shape}"), &x, |m| {
                        be.activation_into(kind, &x, m)
                    });
                    let y = filled(1, len, len as u64 + 1);
                    let g = filled(1, len, len as u64 + 2);
                    assert_splits_match(&format!("activation grad {shape}"), &x, |m| {
                        be.activation_grad_from_output(kind, &y, &g, m)
                    });
                }
            }
        }
    }

    /// The fused attention passes split by items give the whole call's bits
    /// on every backend: the training forward (scores cached), inference
    /// with `m < n` query rows, and the backward.
    #[test]
    fn split_attention_matches_the_whole_call_bit_for_bit() {
        for &be in all_backends() {
            for items in [1usize, 2, 3, 64] {
                for (m, n, d) in [(3usize, 3usize, 7usize), (5, 5, 16), (2, 5, 9)] {
                    let seed = (items * 100 + n * 10 + d) as u64;
                    let q = filled(items * m, d, seed);
                    let k = filled(items * n, d, seed + 1);
                    let v = filled(items * n, d, seed + 2);
                    let scale = 0.3;
                    let shape = format!("{} items={items} m={m} n={n} d={d}", be.name());
                    // The scores and mixed values side by side in one matrix.
                    let forward = |out: &mut Matrix, cached: bool| {
                        let mut attn = Matrix::zeros(items * m, n);
                        let mut mixed = Matrix::zeros(items * m, d);
                        let mut scratch = Scratch::with_backend(be);
                        let scores = cached.then_some(&mut attn);
                        be.attention_forward_fused(
                            &q,
                            &k,
                            &v,
                            items,
                            scale,
                            scores,
                            &mut mixed,
                            &mut scratch,
                        );
                        let (a, x) = out.data_mut().split_at_mut(attn.len());
                        a.copy_from_slice(attn.data());
                        x.copy_from_slice(mixed.data());
                    };
                    let start = Matrix::zeros(1, items * m * (n + d));
                    assert_splits_match(&format!("attention forward {shape}"), &start, |out| {
                        forward(out, true)
                    });
                    assert_splits_match(&format!("attention inference {shape}"), &start, |out| {
                        forward(out, false)
                    });
                    if m != n {
                        continue;
                    }
                    let mut attn = Matrix::zeros(items * n, n);
                    let mut mixed = Matrix::zeros(items * n, d);
                    let mut scratch = Scratch::with_backend(be);
                    be.attention_forward_fused(
                        &q,
                        &k,
                        &v,
                        items,
                        scale,
                        Some(&mut attn),
                        &mut mixed,
                        &mut scratch,
                    );
                    let grad_mixed = filled(items * n, d, seed + 3);
                    let block = items * n * d;
                    let start = Matrix::zeros(1, 3 * block);
                    assert_splits_match(&format!("attention backward {shape}"), &start, |out| {
                        let mut grads = [0, 1, 2].map(|_| Matrix::zeros(items * n, d));
                        let [gq, gk, gv] = &mut grads;
                        be.attention_backward_fused(
                            &grad_mixed,
                            &q,
                            &k,
                            &v,
                            &attn,
                            items,
                            scale,
                            gq,
                            gk,
                            gv,
                            &mut Scratch::with_backend(be),
                        );
                        for (dst, g) in out.data_mut().chunks_exact_mut(block).zip(&grads) {
                            dst.copy_from_slice(g.data());
                        }
                    });
                }
            }
        }
    }
}
