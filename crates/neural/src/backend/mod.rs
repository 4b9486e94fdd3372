//! The kernel-backend seam: pluggable providers for the hot float kernels.
//!
//! Every layer routes its GEMM variants, transposes, axpy-style updates,
//! softmax rows, activation maps and the fused attention score/softmax/mix
//! stage through a [`KernelBackend`] carried by the [`Scratch`] pool instead
//! of hardcoding the scalar register-tiled kernels. Two providers exist:
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

use crate::layers::ActivationKind;
use crate::matrix::Matrix;
use crate::scratch::Scratch;
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
/// Every method has a default body that delegates to the exact-order
/// [`Matrix`] kernels, so [`ReferenceBackend`] implements nothing beyond its
/// name and tolerance, and an accelerated backend overrides exactly the
/// kernels it accelerates (anything it leaves alone stays bit-identical to
/// the reference).
///
/// Two structural contracts every implementation must keep:
///
/// * **row-count invariance** — for `matmul_into`/`add_matmul`, each output
///   element's value depends only on its own row of `a` and column of `b`,
///   never on how many other rows are stacked below it. This is what makes
///   batched passes bit-identical *per item* to solo passes within one
///   backend (the contract `batch_determinism` pins for every backend).
/// * **NaN propagation** — kernels take no data-dependent shortcuts:
///   `0 × NaN` stays `NaN` exactly as IEEE 754 requires.
pub trait KernelBackend: std::fmt::Debug + Send + Sync {
    /// Stable identifier used by `ACSO_BACKEND`, bench snapshots and logs.
    fn name(&self) -> &'static str;

    /// The accuracy contract of this backend's kernels relative to
    /// [`ReferenceBackend`].
    fn tolerance(&self) -> Tolerance;

    /// `out = a · b` (`out`'s previous contents are neither read nor
    /// zeroed).
    fn matmul_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        a.matmul_into(b, out);
    }

    /// `out += a · b`.
    fn add_matmul(&self, out: &mut Matrix, a: &Matrix, b: &Matrix) {
        out.add_matmul(a, b);
    }

    /// `out += a[rows]ᵀ · b[rows]` over the row range
    /// `row_start .. row_start + rows` of both inputs — the per-item
    /// parameter-gradient flush. Implementations must flush a local
    /// accumulator into `out` once per call so a per-item loop reproduces
    /// the serial per-sample accumulation order.
    fn add_matmul_transa_blocks(
        &self,
        out: &mut Matrix,
        a: &Matrix,
        b: &Matrix,
        row_start: usize,
        rows: usize,
    ) {
        out.add_matmul_transa_blocks(a, b, row_start, rows);
    }

    /// `out += aᵀ · b` over all rows (the stacked form of
    /// [`KernelBackend::add_matmul_transa_blocks`]).
    fn add_matmul_transa(&self, out: &mut Matrix, a: &Matrix, b: &Matrix) {
        self.add_matmul_transa_blocks(out, a, b, 0, a.rows());
    }

    /// `out = aᵀ · b` without materialising the transpose.
    fn matmul_transa_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        out.fill(0.0);
        self.add_matmul_transa(out, a, b);
    }

    /// `out = a · bᵀ` without materialising the transpose (the attention
    /// score kernel `Q·Kᵀ` and every `X·Wᵀ` backward product).
    fn matmul_transb_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        a.matmul_transb_into(b, out);
    }

    /// `out = aᵀ`.
    fn transpose_into(&self, a: &Matrix, out: &mut Matrix) {
        a.transpose_into(out);
    }

    /// `out += other` (element-wise).
    fn add_assign(&self, out: &mut Matrix, other: &Matrix) {
        out.add_assign(other);
    }

    /// `out += factor * other` (axpy).
    fn add_scaled(&self, out: &mut Matrix, other: &Matrix, factor: f32) {
        out.add_scaled(other, factor);
    }

    /// Row-wise softmax in place.
    fn softmax_rows_inplace(&self, m: &mut Matrix) {
        m.softmax_rows_inplace();
    }

    /// Applies an activation function element-wise in place.
    fn apply_activation(&self, kind: ActivationKind, m: &mut Matrix) {
        m.map_inplace(|x| kind.apply(x));
    }

    /// `grad_input = grad_output ⊙ f'(output)` where the derivative is
    /// expressed in terms of the activation *output* (see
    /// `ActivationKind::derivative_from_output`).
    fn activation_grad_from_output(
        &self,
        kind: ActivationKind,
        output: &Matrix,
        grad_output: &Matrix,
        grad_input: &mut Matrix,
    ) {
        reference::activation_grad_from_output(kind, output, grad_output, grad_input);
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
    /// equivalence suite pins this per backend). Temporaries come from
    /// `scratch`.
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
        reference::attention_forward_fused(q, k, v, items, scale, attn, mixed, scratch);
    }

    /// The fused block-diagonal attention backward stage (square items only:
    /// training never groups rows): given the stacked
    /// gradient of the mixed values and the cached forward intermediates, it
    /// writes the stacked gradients with respect to `Q`, `K` and `V`
    /// (softmax backward included, pre-scaled by `scale`). Parameter
    /// gradients stay with the caller. Temporaries come from `scratch`.
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
        reference::attention_backward_fused(
            grad_mixed, q, k, v, attn, items, scale, grad_q, grad_k, grad_v, scratch,
        );
    }
}

/// The reference backend singleton (the process-wide fallback default).
static REFERENCE: ReferenceBackend = ReferenceBackend;
#[cfg(feature = "backend-simd")]
static SIMD: SimdBackend = SimdBackend::new();

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
}
