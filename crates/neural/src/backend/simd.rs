//! The AVX2/FMA kernel backend (feature `backend-simd`).
//!
//! Explicit `std::arch` x86_64 intrinsics for the hot kernels: a
//! broadcast-FMA register-blocked GEMM (plain and `aᵀ·b` variants),
//! vectorized activation maps, and fused per-block attention kernels (built
//! on an FMA `a·bᵀ`, a polynomial-`exp` row softmax and its backward) that
//! run each batch item's score/softmax/mix stage directly on the stacked
//! block-diagonal layout (`m` query rows against `n` keys per item) — no
//! gather copies. The forward runs one fused pass per block of four query
//! rows, so each key and value row is loaded once per block.
//!
//! Dispatch is at runtime: AVX2+FMA support is checked with
//! `is_x86_feature_detected!` on every entry (the detection result is cached
//! by `std`), and on hardware without it — or on non-x86_64 targets, or via
//! [`SimdBackend::scalar_fallback`] — every call falls through to the
//! exact-order reference kernels, **bit for bit**.
//!
//! The vectorized paths reorder reductions (FMA lanes) and approximate
//! `exp`, so the backend declares a [`Tolerance::Bounded`] contract rather
//! than exactness; the cross-backend equivalence suite holds it to that
//! bound. Within the backend the same guarantees as the reference hold:
//! results are run-to-run deterministic, each GEMM output element reduces
//! over ascending `k` independently of the row count (so batched passes stay
//! bit-identical per item to one-item passes *within* this backend), and no
//! kernel takes data-dependent shortcuts (`0 × NaN` propagates `NaN`).

use super::{reference, KernelBackend, Tolerance};
use crate::layers::ActivationKind;
use crate::matrix::Matrix;
use crate::scratch::Scratch;
use std::ops::Range;

/// The feature-gated AVX2/FMA backend (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct SimdBackend {
    /// When set, the vectorized paths are never taken — the backend behaves
    /// exactly like [`super::ReferenceBackend`]. Exists so the
    /// runtime-dispatch fallback is testable on AVX2 hardware.
    force_scalar: bool,
}

impl SimdBackend {
    /// The normal runtime-dispatched backend.
    pub const fn new() -> Self {
        Self {
            force_scalar: false,
        }
    }

    /// A backend whose AVX2 paths are masked off, as if
    /// `is_x86_feature_detected!("avx2")` had returned false — every kernel
    /// takes the scalar fallback, which is bit-identical to the reference
    /// backend.
    pub const fn scalar_fallback() -> Self {
        Self { force_scalar: true }
    }

    /// Whether calls will take the vectorized AVX2/FMA paths.
    pub fn avx2_active(&self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            !self.force_scalar
                && is_x86_feature_detected!("avx2")
                && is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }
}

impl Default for SimdBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl KernelBackend for SimdBackend {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn tolerance(&self) -> Tolerance {
        // FMA-lane reductions over the inner dims used here (≤ a few
        // hundred) and the ~2-ulp polynomial exp stay well inside the
        // relative bound; the absolute floor covers cancellation-heavy
        // sums whose tiny results carry the rounding noise of much larger
        // intermediate partial sums.
        Tolerance::Bounded {
            rel: 1e-4,
            abs: 1e-5,
        }
    }

    // The range kernels check the lengths of the slices they are handed
    // before the unsafe AVX kernels address them.

    fn gemm_rows(&self, a: &[f32], b: &Matrix, out: &mut [f32], accumulate: bool) {
        #[cfg(target_arch = "x86_64")]
        if self.avx2_active() {
            let (kk, n) = (b.rows(), b.cols());
            let m = out.len().checked_div(n).unwrap_or(0);
            assert!(
                out.len() == m * n && a.len() == m * kk,
                "gemm rows: {} and {} values for a {kk}x{n} right operand",
                a.len(),
                out.len()
            );
            // SAFETY: AVX2+FMA were detected; `a` holds `m * kk` values,
            // `b` `kk * n` and `out` `m * n`.
            unsafe {
                avx::gemm(a, b.data(), out, m, kk, n, accumulate);
            }
            return;
        }
        crate::matrix::matmul_rows(a, b, out, accumulate);
    }

    fn transa_rows(
        &self,
        out: &mut [f32],
        out_rows: Range<usize>,
        a: &Matrix,
        b: &Matrix,
        row_start: usize,
        rows: usize,
    ) {
        #[cfg(target_arch = "x86_64")]
        if self.avx2_active() && rows > 0 {
            let (r, c) = (a.cols(), b.cols());
            assert_eq!(a.rows(), b.rows(), "matmul_transa row mismatch");
            assert!(
                out_rows.end <= r
                    && out.len() == out_rows.len() * c
                    && row_start + rows <= a.rows(),
                "transa rows {out_rows:?} of {r}, {} values, block {row_start}+{rows} of {}",
                out.len(),
                a.rows()
            );
            // SAFETY: AVX2+FMA were detected. The `a` block starts at column
            // `out_rows.start` of row `row_start` and the kernel reads
            // `out_rows.len()` columns of each of `rows` rows at stride `r`,
            // all inside `a`; the `b` block holds `rows * c` values and
            // `out` `out_rows.len() * c`.
            unsafe {
                avx::gemm_transa(
                    &a.data()[row_start * r + out_rows.start..(row_start + rows) * r],
                    &b.data()[row_start * c..(row_start + rows) * c],
                    out,
                    rows,
                    r,
                    out_rows.len(),
                    c,
                );
            }
            return;
        }
        crate::matrix::transa_rows(out, out_rows, a, b, row_start, rows);
    }

    // `transpose_into` keeps the trait default: a memory-bound copy the
    // auto-vectorizer already saturates, bit-exact for free.

    fn activation_elements(&self, kind: ActivationKind, data: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if self.avx2_active() {
            // Tanh stays scalar: a vector tanh would need its own polynomial
            // with a tolerance story, and the tanh heads are a tiny slice of
            // the per-state cost.
            if kind != ActivationKind::Tanh {
                unsafe {
                    avx::apply_activation(kind, data);
                }
                return;
            }
        }
        for v in data {
            *v = kind.apply(*v);
        }
    }

    fn activation_grad_elements(
        &self,
        kind: ActivationKind,
        output: &[f32],
        grad_output: &[f32],
        grad_input: &mut [f32],
    ) {
        #[cfg(target_arch = "x86_64")]
        if self.avx2_active() {
            assert!(
                grad_output.len() == output.len() && grad_input.len() == output.len(),
                "activation gradient length mismatch"
            );
            unsafe {
                avx::activation_grad(kind, output, grad_output, grad_input);
            }
            return;
        }
        reference::activation_grad_elements(kind, output, grad_output, grad_input);
    }

    fn attention_forward_items(
        &self,
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
        #[cfg(target_arch = "x86_64")]
        if self.avx2_active() {
            let (m, n) = reference::attention_forward_rows(q, k, v, items);
            let d = q.cols();
            assert!(range.end <= items, "items {range:?} of {items}");
            assert_eq!(mixed.len(), range.len() * m * d, "attention mixed length");
            if let Some(attn) = attn.as_deref() {
                assert_eq!(
                    attn.len(),
                    range.len() * m * n,
                    "attention stacked-A length"
                );
            }
            // One fused pass per block of query rows, directly on the
            // stacked block-diagonal layout — no per-item gather copies. A
            // block's score rows land in the stacked attention cache when
            // the caller wants it, otherwise in this reused block buffer.
            let mut score = scratch.take(avx::QUERY_BLOCK, n);
            for (at, item) in range.enumerate() {
                let (qr, kr) = (item * m, item * n);
                let qb = &q.data()[qr * d..(qr + m) * d];
                let kb = &k.data()[kr * d..(kr + n) * d];
                let vb = &v.data()[kr * d..(kr + n) * d];
                let mb = &mut mixed[at * m * d..(at + 1) * m * d];
                let ab = attn
                    .as_deref_mut()
                    .map(|a| &mut a[at * m * n..(at + 1) * m * n]);
                // SAFETY: AVX2+FMA were detected above.
                // `attention_forward_rows` and the length asserts make `qb`
                // and `mb` exactly `m * d` long, `kb` and `vb` `n * d` and
                // `ab` `m * n`, and `score` holds `QUERY_BLOCK * n`, so every
                // block the kernel addresses lies inside the slice it was
                // given.
                unsafe {
                    avx::attention_forward_item(
                        qb,
                        kb,
                        vb,
                        m,
                        n,
                        d,
                        scale,
                        ab,
                        mb,
                        score.data_mut(),
                    );
                }
            }
            scratch.recycle(score);
            return;
        }
        reference::attention_forward_items(q, k, v, items, range, scale, attn, mixed, scratch);
    }

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
        #[cfg(target_arch = "x86_64")]
        if self.avx2_active() {
            let n = reference::attention_item_rows(q, k, v, items);
            let d = q.cols();
            assert!(range.end <= items, "items {range:?} of {items}");
            assert_eq!(grad_mixed.shape(), (items * n, d), "attention dM shape");
            assert_eq!(attn.shape(), (items * n, n), "attention stacked-A shape");
            for (what, g) in [("dQ", &*grad_q), ("dK", &*grad_k), ("dV", &*grad_v)] {
                assert_eq!(g.len(), range.len() * n * d, "attention {what} length");
            }
            // dS is the only temporary; grad_q/k/v blocks are written in
            // place on the stacked layout (they arrive zero-filled, so the
            // accumulate-style transa kernel writes them exactly).
            let mut ds = scratch.take(n, n);
            for (at, item) in range.enumerate() {
                let r = item * n;
                let gm = &grad_mixed.data()[r * d..(r + n) * d];
                let qb = &q.data()[r * d..(r + n) * d];
                let kb = &k.data()[r * d..(r + n) * d];
                let vb = &v.data()[r * d..(r + n) * d];
                let ab = &attn.data()[r * n..(r + n) * n];
                let out = at * n * d..(at + 1) * n * d;
                unsafe {
                    // dA = dM·Vᵀ
                    avx::gemm_transb(gm, vb, ds.data_mut(), n, d, n);
                    // dV = Aᵀ·dM (into the zeroed block)
                    avx::gemm_transa(ab, gm, &mut grad_v[out.clone()], n, n, n, d);
                    // dS = A ⊙ (dA − (dA·A)) * scale, row by row
                    avx::softmax_backward_rows(ab, ds.data_mut(), n, scale);
                    // dQ = dS·K, dK = dSᵀ·Q
                    avx::gemm(ds.data(), kb, &mut grad_q[out.clone()], n, n, d, false);
                    avx::gemm_transa(ds.data(), qb, &mut grad_k[out], n, n, n, d);
                }
            }
            scratch.recycle(ds);
            return;
        }
        reference::attention_backward_items(
            grad_mixed, q, k, v, attn, items, range, scale, grad_q, grad_k, grad_v, scratch,
        );
    }
}

/// The raw AVX2/FMA kernels. Everything here requires `avx2` and `fma` at
/// runtime — callers gate on [`SimdBackend::avx2_active`] — and fully dense,
/// correctly sized row-major slices, which the safe wrappers assert.
#[cfg(target_arch = "x86_64")]
mod avx {
    #![allow(clippy::too_many_arguments)]

    use crate::layers::ActivationKind;
    use std::arch::x86_64::*;

    /// Horizontal sum of the eight lanes.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
        _mm_cvtss_f32(s)
    }

    /// Horizontal max of the eight lanes.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hmax(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_max_ps(lo, hi);
        let s = _mm_max_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 0x55));
        _mm_cvtss_f32(s)
    }

    /// FMA dot product over two accumulator lanes with a scalar tail.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot(a: *const f32, b: *const f32, len: usize) -> f32 {
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 16 <= len {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a.add(i)), _mm256_loadu_ps(b.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(a.add(i + 8)),
                _mm256_loadu_ps(b.add(i + 8)),
                acc1,
            );
            i += 16;
        }
        if i + 8 <= len {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a.add(i)), _mm256_loadu_ps(b.add(i)), acc0);
            i += 8;
        }
        let mut total = hsum(_mm256_add_ps(acc0, acc1));
        while i < len {
            total += *a.add(i) * *b.add(i);
            i += 1;
        }
        total
    }

    /// Cephes-style polynomial `exp` (~2 ulp over the clamped range), the
    /// softmax workhorse.
    // The first ln(2) reduction constant is the exactly-representable
    // 0.693359375 (Cephes' C1); spelling it with fewer digits would hide
    // that the two-step split depends on its low bits being zero.
    #[allow(clippy::excessive_precision)]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp256(x: __m256) -> __m256 {
        let x = _mm256_min_ps(x, _mm256_set1_ps(88.376_26));
        let x = _mm256_max_ps(x, _mm256_set1_ps(-88.376_26));
        // n = round(x * log2(e)) via floor(x * log2(e) + 0.5).
        let fx = _mm256_fmadd_ps(
            x,
            _mm256_set1_ps(std::f32::consts::LOG2_E),
            _mm256_set1_ps(0.5),
        );
        let fx = _mm256_floor_ps(fx);
        // r = x − n·ln(2), split in two steps for precision.
        let x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(0.693_359_375)));
        let x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(-2.121_944_4e-4)));
        let z = _mm256_mul_ps(x, x);
        let mut y = _mm256_set1_ps(1.987_569_1e-4);
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.398_199_9e-3));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.333_452e-3));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.166_579_5e-2));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(0.166_666_66));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(0.5));
        y = _mm256_fmadd_ps(y, z, x);
        let y = _mm256_add_ps(y, _mm256_set1_ps(1.0));
        // y · 2ⁿ via the exponent-field trick.
        let n = _mm256_cvttps_epi32(fx);
        let n = _mm256_add_epi32(n, _mm256_set1_epi32(0x7f));
        let pow2n = _mm256_castsi256_ps(_mm256_slli_epi32(n, 23));
        _mm256_mul_ps(y, pow2n)
    }

    /// `out (+)= a · b` — broadcast-FMA GEMM in 4-row × 16-column register
    /// tiles. Each output element reduces over ascending `k` independently
    /// of the row count (the per-item bit-exactness contract within this
    /// backend).
    pub unsafe fn gemm(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        kk: usize,
        n: usize,
        accumulate: bool,
    ) {
        debug_assert!(a.len() >= m * kk && b.len() >= kk * n && out.len() >= m * n);
        gemm_inner(
            a.as_ptr(),
            b.as_ptr(),
            out.as_mut_ptr(),
            m,
            kk,
            n,
            accumulate,
        );
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn gemm_inner(
        a: *const f32,
        b: *const f32,
        out: *mut f32,
        m: usize,
        kk: usize,
        n: usize,
        accumulate: bool,
    ) {
        let mut i0 = 0;
        while i0 + 4 <= m {
            gemm_rows::<4>(a, b, out, i0, kk, n, accumulate);
            i0 += 4;
        }
        while i0 < m {
            gemm_rows::<1>(a, b, out, i0, kk, n, accumulate);
            i0 += 1;
        }
    }

    /// One `IB`-row pass of the GEMM across all `n` columns: 16-wide tiles,
    /// then an 8-wide tile, then a scalar tail.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn gemm_rows<const IB: usize>(
        a: *const f32,
        b: *const f32,
        out: *mut f32,
        i0: usize,
        kk: usize,
        n: usize,
        accumulate: bool,
    ) {
        let mut j0 = 0;
        while j0 + 16 <= n {
            let mut acc = [[_mm256_setzero_ps(); 2]; IB];
            for k in 0..kk {
                let b0 = _mm256_loadu_ps(b.add(k * n + j0));
                let b1 = _mm256_loadu_ps(b.add(k * n + j0 + 8));
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*a.add((i0 + r) * kk + k));
                    acc_row[0] = _mm256_fmadd_ps(av, b0, acc_row[0]);
                    acc_row[1] = _mm256_fmadd_ps(av, b1, acc_row[1]);
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                let dst = out.add((i0 + r) * n + j0);
                if accumulate {
                    _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), acc_row[0]));
                    _mm256_storeu_ps(
                        dst.add(8),
                        _mm256_add_ps(_mm256_loadu_ps(dst.add(8)), acc_row[1]),
                    );
                } else {
                    _mm256_storeu_ps(dst, acc_row[0]);
                    _mm256_storeu_ps(dst.add(8), acc_row[1]);
                }
            }
            j0 += 16;
        }
        if j0 + 8 <= n {
            let mut acc = [_mm256_setzero_ps(); IB];
            for k in 0..kk {
                let b0 = _mm256_loadu_ps(b.add(k * n + j0));
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*a.add((i0 + r) * kk + k));
                    *acc_row = _mm256_fmadd_ps(av, b0, *acc_row);
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                let dst = out.add((i0 + r) * n + j0);
                if accumulate {
                    _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), *acc_row));
                } else {
                    _mm256_storeu_ps(dst, *acc_row);
                }
            }
            j0 += 8;
        }
        while j0 < n {
            for r in 0..IB {
                let mut s = 0.0f32;
                for k in 0..kk {
                    s += *a.add((i0 + r) * kk + k) * *b.add(k * n + j0);
                }
                let dst = out.add((i0 + r) * n + j0);
                if accumulate {
                    *dst += s;
                } else {
                    *dst = s;
                }
            }
            j0 += 1;
        }
    }

    /// `out = a · bᵀ` — one FMA [`dot`] per output element, both operands
    /// streaming row-major (the attention backward's `dA = dM·Vᵀ`).
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be available, and `a`, `b` and `out` must hold at
    /// least `m * kk`, `n * kk` and `m * n` values (checked only by a debug
    /// assertion).
    pub unsafe fn gemm_transb(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        kk: usize,
        n: usize,
    ) {
        debug_assert!(a.len() >= m * kk && b.len() >= n * kk && out.len() >= m * n);
        gemm_transb_inner(a.as_ptr(), b.as_ptr(), out.as_mut_ptr(), m, kk, n);
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn gemm_transb_inner(
        a: *const f32,
        b: *const f32,
        out: *mut f32,
        m: usize,
        kk: usize,
        n: usize,
    ) {
        for i in 0..m {
            let a_row = a.add(i * kk);
            for j in 0..n {
                *out.add(i * n + j) = dot(a_row, b.add(j * kk), kk);
            }
        }
    }

    /// `out += aᵀ · b` over `rows` stacked rows (always accumulating — the
    /// parameter-gradient flush; callers zero `out` for the `=` form), in
    /// 4-output-row × 16-column register tiles. `a`'s rows lie `lda` values
    /// apart and each contributes its first `r` values, one per output row,
    /// so a column range of a wider `a` yields that range of output rows.
    /// Each output element sums its own chain from zero over ascending rows
    /// and is added into `out` once, so the bits do not depend on the
    /// tiling or on which output rows one call covers.
    pub unsafe fn gemm_transa(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        rows: usize,
        lda: usize,
        r: usize,
        c: usize,
    ) {
        debug_assert!(rows == 0 || a.len() >= (rows - 1) * lda + r);
        debug_assert!(b.len() >= rows * c && out.len() >= r * c);
        gemm_transa_inner(a.as_ptr(), b.as_ptr(), out.as_mut_ptr(), rows, lda, r, c);
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn gemm_transa_inner(
        a: *const f32,
        b: *const f32,
        out: *mut f32,
        rows: usize,
        lda: usize,
        r: usize,
        c: usize,
    ) {
        let mut i0 = 0;
        while i0 + 4 <= r {
            gemm_transa_rows::<4>(a, b, out, i0, rows, lda, c);
            i0 += 4;
        }
        while i0 < r {
            gemm_transa_rows::<1>(a, b, out, i0, rows, lda, c);
            i0 += 1;
        }
    }

    /// Output rows `i0..i0 + IB` of `out += aᵀ · b` across all `c` columns:
    /// 16-wide tiles, then an 8-wide tile, then a scalar tail. Each step
    /// over `k` loads the `b` row once for all `IB` output rows.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn gemm_transa_rows<const IB: usize>(
        a: *const f32,
        b: *const f32,
        out: *mut f32,
        i0: usize,
        rows: usize,
        lda: usize,
        c: usize,
    ) {
        let mut j0 = 0;
        while j0 + 16 <= c {
            let mut acc = [[_mm256_setzero_ps(); 2]; IB];
            for k in 0..rows {
                let b0 = _mm256_loadu_ps(b.add(k * c + j0));
                let b1 = _mm256_loadu_ps(b.add(k * c + j0 + 8));
                for (ii, acc_row) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*a.add(k * lda + i0 + ii));
                    acc_row[0] = _mm256_fmadd_ps(av, b0, acc_row[0]);
                    acc_row[1] = _mm256_fmadd_ps(av, b1, acc_row[1]);
                }
            }
            for (ii, acc_row) in acc.iter().enumerate() {
                let dst = out.add((i0 + ii) * c + j0);
                _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), acc_row[0]));
                _mm256_storeu_ps(
                    dst.add(8),
                    _mm256_add_ps(_mm256_loadu_ps(dst.add(8)), acc_row[1]),
                );
            }
            j0 += 16;
        }
        if j0 + 8 <= c {
            let mut acc = [_mm256_setzero_ps(); IB];
            for k in 0..rows {
                let b0 = _mm256_loadu_ps(b.add(k * c + j0));
                for (ii, acc_row) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*a.add(k * lda + i0 + ii));
                    *acc_row = _mm256_fmadd_ps(av, b0, *acc_row);
                }
            }
            for (ii, acc_row) in acc.iter().enumerate() {
                let dst = out.add((i0 + ii) * c + j0);
                _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), *acc_row));
            }
            j0 += 8;
        }
        while j0 < c {
            for ii in 0..IB {
                let mut s = 0.0f32;
                for k in 0..rows {
                    s += *a.add(k * lda + i0 + ii) * *b.add(k * c + j0);
                }
                *out.add((i0 + ii) * c + j0) += s;
            }
            j0 += 1;
        }
    }

    /// In-place softmax of one row: vector max, polynomial exp, vector
    /// divide.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be available and `row` must address `cols` values.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn softmax_row(row: *mut f32, cols: usize) {
        let mut vmax = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut i = 0;
        while i + 8 <= cols {
            vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(row.add(i)));
            i += 8;
        }
        let mut max = hmax(vmax);
        while i < cols {
            max = max.max(*row.add(i));
            i += 1;
        }
        // NEG_INFINITY max'ed against NaN scores: _mm_max_ps keeps the
        // second operand on NaN, matching the scalar fold.

        let vmaxb = _mm256_set1_ps(max);
        let mut vsum = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= cols {
            let e = exp256(_mm256_sub_ps(_mm256_loadu_ps(row.add(i)), vmaxb));
            _mm256_storeu_ps(row.add(i), e);
            vsum = _mm256_add_ps(vsum, e);
            i += 8;
        }
        let mut sum = hsum(vsum);
        while i < cols {
            let e = (*row.add(i) - max).exp();
            *row.add(i) = e;
            sum += e;
            i += 1;
        }
        if sum > 0.0 {
            let vs = _mm256_set1_ps(sum);
            let mut i = 0;
            while i + 8 <= cols {
                _mm256_storeu_ps(row.add(i), _mm256_div_ps(_mm256_loadu_ps(row.add(i)), vs));
                i += 8;
            }
            while i < cols {
                *row.add(i) /= sum;
                i += 1;
            }
        }
    }

    /// Element-wise ReLU / LeakyReLU (tanh is handled scalar by the caller).
    pub unsafe fn apply_activation(kind: ActivationKind, data: &mut [f32]) {
        apply_activation_inner(kind, data.as_mut_ptr(), data.len());
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn apply_activation_inner(kind: ActivationKind, p: *mut f32, len: usize) {
        let zero = _mm256_setzero_ps();
        let slope = _mm256_set1_ps(0.01);
        let mut i = 0;
        while i + 8 <= len {
            let x = _mm256_loadu_ps(p.add(i));
            let y = match kind {
                // max(x, 0): the second operand wins on NaN inputs, exactly
                // like the scalar `x.max(0.0)`... except it doesn't — both
                // propagate the non-NaN operand, which is what we want, and
                // NaN inputs only arise in poisoned states anyway.
                ActivationKind::Relu => _mm256_max_ps(x, zero),
                ActivationKind::LeakyRelu => {
                    let mask = _mm256_cmp_ps::<_CMP_GT_OQ>(x, zero);
                    _mm256_blendv_ps(_mm256_mul_ps(x, slope), x, mask)
                }
                ActivationKind::Tanh => unreachable!("tanh is dispatched scalar"),
            };
            _mm256_storeu_ps(p.add(i), y);
            i += 8;
        }
        while i < len {
            let x = *p.add(i);
            *p.add(i) = match kind {
                ActivationKind::Relu => x.max(0.0),
                ActivationKind::LeakyRelu => {
                    if x > 0.0 {
                        x
                    } else {
                        0.01 * x
                    }
                }
                ActivationKind::Tanh => unreachable!("tanh is dispatched scalar"),
            };
            i += 1;
        }
    }

    /// `grad_input = grad_output ⊙ f'(output)` with the derivative taken
    /// from the activation output (matches
    /// [`ActivationKind::derivative_from_output`]).
    pub unsafe fn activation_grad(kind: ActivationKind, y: &[f32], go: &[f32], gi: &mut [f32]) {
        activation_grad_inner(kind, y.as_ptr(), go.as_ptr(), gi.as_mut_ptr(), y.len());
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn activation_grad_inner(
        kind: ActivationKind,
        y: *const f32,
        go: *const f32,
        gi: *mut f32,
        len: usize,
    ) {
        let zero = _mm256_setzero_ps();
        let one = _mm256_set1_ps(1.0);
        let slope = _mm256_set1_ps(0.01);
        let mut i = 0;
        while i + 8 <= len {
            let yv = _mm256_loadu_ps(y.add(i));
            let gv = _mm256_loadu_ps(go.add(i));
            // Multiply by the blended derivative (never mask with AND): a
            // NaN upstream gradient times derivative 0 must stay NaN.
            let d = match kind {
                ActivationKind::Relu => {
                    _mm256_blendv_ps(zero, one, _mm256_cmp_ps::<_CMP_GT_OQ>(yv, zero))
                }
                ActivationKind::LeakyRelu => {
                    _mm256_blendv_ps(slope, one, _mm256_cmp_ps::<_CMP_GT_OQ>(yv, zero))
                }
                ActivationKind::Tanh => _mm256_sub_ps(one, _mm256_mul_ps(yv, yv)),
            };
            _mm256_storeu_ps(gi.add(i), _mm256_mul_ps(gv, d));
            i += 8;
        }
        while i < len {
            *gi.add(i) = *go.add(i) * kind.derivative_from_output(*y.add(i));
            i += 1;
        }
    }

    /// Query rows per block of the attention forward. Each key and value
    /// row is loaded once per block instead of once per query row, and the
    /// block's `[QUERY_BLOCK, n]` score rows (16 KB at n = 1003) stay in L1
    /// between the score, softmax and mix stages.
    pub const QUERY_BLOCK: usize = 4;

    /// The query-blocked attention forward for one batch item of `m` query
    /// rows against `n` key/value rows. Per block of [`QUERY_BLOCK`] query
    /// rows: fill the block's scaled score rows (one pass over `K`), softmax
    /// each row in place, then mix them with [`gemm`]'s 4-row micro-kernel
    /// (one pass over `V`). A tail of `m % QUERY_BLOCK` rows runs one row at
    /// a time. Every score keeps [`dot`]'s arithmetic and every mixed element
    /// the ascending-key FMA chain, so a row's output depends neither on the
    /// block it lands in nor on `m`. Scores land in `attn_rows` (the stacked
    /// training cache) when present, otherwise in `score_buf`.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be available. `q` and `mixed` must hold at least
    /// `m * d` values, `k` and `v` `n * d`, `attn_rows` (when present)
    /// `m * n`, and `score_buf` `QUERY_BLOCK.min(m) * n`.
    pub unsafe fn attention_forward_item(
        q: &[f32],
        k: &[f32],
        v: &[f32],
        m: usize,
        n: usize,
        d: usize,
        scale: f32,
        mut attn_rows: Option<&mut [f32]>,
        mixed: &mut [f32],
        score_buf: &mut [f32],
    ) {
        debug_assert!(q.len() >= m * d && k.len() >= n * d && v.len() >= n * d);
        debug_assert!(mixed.len() >= m * d && score_buf.len() >= QUERY_BLOCK.min(m) * n);
        debug_assert!(attn_rows.as_deref().is_none_or(|a| a.len() >= m * n));
        let mut i0 = 0;
        while i0 < m {
            let rows = QUERY_BLOCK.min(m - i0);
            let s: *mut f32 = match attn_rows.as_deref_mut() {
                Some(a) => a.as_mut_ptr().add(i0 * n),
                None => score_buf.as_mut_ptr(),
            };
            attention_forward_block(
                q.as_ptr().add(i0 * d),
                k.as_ptr(),
                v.as_ptr(),
                rows,
                n,
                d,
                scale,
                s,
                mixed.as_mut_ptr().add(i0 * d),
            );
            i0 += rows;
        }
    }

    /// One block of `rows ≤ QUERY_BLOCK` query rows: scores into the
    /// `[rows, n]` rows at `s`, softmax, then `mixed = s · V`.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be available. `q`, `s` and `mixed` must address
    /// `rows * d`, `rows * n` and `rows * d` values, and `k` and `v` `n * d`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn attention_forward_block(
        q: *const f32,
        k: *const f32,
        v: *const f32,
        rows: usize,
        n: usize,
        d: usize,
        scale: f32,
        s: *mut f32,
        mixed: *mut f32,
    ) {
        if rows == QUERY_BLOCK {
            score_rows::<QUERY_BLOCK>(q, k, n, d, scale, s);
        } else {
            for r in 0..rows {
                score_rows::<1>(q.add(r * d), k, n, d, scale, s.add(r * n));
            }
        }
        for r in 0..rows {
            softmax_row(s.add(r * n), n);
        }
        gemm_inner(s, v, mixed, rows, n, d, false);
    }

    /// `s[r][j] = dot(q_r, k_j) * scale` for `R` query rows at once, loading
    /// each key row once. Per score this is [`dot`] step for step: two
    /// 8-lane accumulators over 16-column steps, one 8-column step, the same
    /// [`hsum`], a scalar tail, then the scale.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be available. `q` must address `R * d` values, `k`
    /// `n * d` and `s` `R * n`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn score_rows<const R: usize>(
        q: *const f32,
        k: *const f32,
        n: usize,
        d: usize,
        scale: f32,
        s: *mut f32,
    ) {
        for j in 0..n {
            let k_row = k.add(j * d);
            let mut acc = [[_mm256_setzero_ps(); 2]; R];
            let mut c = 0;
            while c + 16 <= d {
                let k0 = _mm256_loadu_ps(k_row.add(c));
                let k1 = _mm256_loadu_ps(k_row.add(c + 8));
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let q_at = q.add(r * d + c);
                    acc_row[0] = _mm256_fmadd_ps(_mm256_loadu_ps(q_at), k0, acc_row[0]);
                    acc_row[1] = _mm256_fmadd_ps(_mm256_loadu_ps(q_at.add(8)), k1, acc_row[1]);
                }
                c += 16;
            }
            if c + 8 <= d {
                let k0 = _mm256_loadu_ps(k_row.add(c));
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    acc_row[0] = _mm256_fmadd_ps(_mm256_loadu_ps(q.add(r * d + c)), k0, acc_row[0]);
                }
                c += 8;
            }
            for (r, acc_row) in acc.iter().enumerate() {
                let q_row = q.add(r * d);
                let mut total = hsum(_mm256_add_ps(acc_row[0], acc_row[1]));
                for t in c..d {
                    total += *q_row.add(t) * *k_row.add(t);
                }
                *s.add(r * n + j) = total * scale;
            }
        }
    }

    /// The softmax backward applied to every row of `ds` in place:
    /// `dS_i = A_i ⊙ (dA_i − (dA_i·A_i)) * scale`.
    pub unsafe fn softmax_backward_rows(a: &[f32], ds: &mut [f32], n: usize, scale: f32) {
        debug_assert!(a.len() >= n * n && ds.len() >= n * n);
        softmax_backward_rows_inner(a.as_ptr(), ds.as_mut_ptr(), n, scale);
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn softmax_backward_rows_inner(a: *const f32, ds: *mut f32, n: usize, scale: f32) {
        let vscale = _mm256_set1_ps(scale);
        for i in 0..n {
            let a_row = a.add(i * n);
            let d_row = ds.add(i * n);
            let dot = dot(a_row, d_row, n);
            let vdot = _mm256_set1_ps(dot);
            let mut j = 0;
            while j + 8 <= n {
                let av = _mm256_loadu_ps(a_row.add(j));
                let dv = _mm256_loadu_ps(d_row.add(j));
                let out = _mm256_mul_ps(_mm256_mul_ps(av, _mm256_sub_ps(dv, vdot)), vscale);
                _mm256_storeu_ps(d_row.add(j), out);
                j += 8;
            }
            while j < n {
                let av = *a_row.add(j);
                let dv = *d_row.add(j);
                *d_row.add(j) = av * (dv - dot) * scale;
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::ReferenceBackend;
    use super::*;
    use crate::matrix::Matrix;

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

    #[test]
    fn scalar_fallback_is_bit_identical_to_reference() {
        // The runtime-dispatch fallback (AVX2 masked off) must not just be
        // close to the reference backend — it must take the exact same code
        // paths.
        let simd = SimdBackend::scalar_fallback();
        assert!(!simd.avx2_active());
        let reference = ReferenceBackend;
        let a = filled(5, 37, 1);
        let b = filled(37, 19, 2);
        let mut out_s = Matrix::zeros(5, 19);
        let mut out_r = Matrix::zeros(5, 19);
        simd.matmul_into(&a, &b, &mut out_s);
        reference.matmul_into(&a, &b, &mut out_r);
        assert_eq!(out_s.data(), out_r.data());

        let x = filled(6, 11, 3);
        let g = filled(6, 19, 4);
        let mut flush_s = filled(11, 19, 5);
        let mut flush_r = flush_s.clone();
        simd.add_matmul_transa_items(&mut flush_s, &x, &g, 3);
        reference.add_matmul_transa_items(&mut flush_r, &x, &g, 3);
        assert_eq!(flush_s.data(), flush_r.data());
    }

    #[test]
    fn avx_gemm_matches_reference_within_tolerance() {
        let simd = SimdBackend::new();
        if !simd.avx2_active() {
            return; // Nothing to compare on non-AVX2 hardware.
        }
        let tol = simd.tolerance();
        for (m, k, n) in [(1, 1, 1), (4, 16, 16), (5, 37, 23), (12, 64, 37), (3, 7, 8)] {
            let a = filled(m, k, (m * 31 + n) as u64);
            let b = filled(k, n, (k * 17 + m) as u64);
            let mut out_s = Matrix::zeros(m, n);
            let mut out_r = Matrix::zeros(m, n);
            simd.matmul_into(&a, &b, &mut out_s);
            a.matmul_into(&b, &mut out_r);
            for (s, r) in out_s.data().iter().zip(out_r.data()) {
                assert!(tol.allows(*s, *r), "{s} vs {r} at {m}x{k}x{n}");
            }
        }
    }

    /// The register-blocked `aᵀ · b` flush against a scalar model of each
    /// output element's chain: from zero over ascending rows, fused
    /// multiply-adds in the vector columns and a plain `s += a * b` in the
    /// scalar-tail columns, then one add into a non-zero `out`. Output row
    /// counts cover full 4-row blocks, single-row remainders and both.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx_gemm_transa_keeps_each_elements_chain() {
        if !SimdBackend::new().avx2_active() {
            return;
        }
        for r in [1usize, 3, 5, 67, 128] {
            for c in [1usize, 7, 8, 23, 64] {
                for rows in [1usize, 16, 17] {
                    let seed = (r * 10_000 + c * 100 + rows) as u64;
                    let a = filled(rows, r, seed);
                    let b = filled(rows, c, seed + 1);
                    let start = filled(r, c, seed + 2);
                    let mut got = start.clone();
                    unsafe { avx::gemm_transa(a.data(), b.data(), got.data_mut(), rows, r, r, c) };
                    let vector_cols = c / 8 * 8;
                    for i in 0..r {
                        for j in 0..c {
                            let mut s = 0.0f32;
                            for k in 0..rows {
                                let (x, y) = (a.get(k, i), b.get(k, j));
                                s = if j < vector_cols {
                                    x.mul_add(y, s)
                                } else {
                                    s + x * y
                                };
                            }
                            let want = start.get(i, j) + s;
                            assert_eq!(
                                got.get(i, j).to_bits(),
                                want.to_bits(),
                                "r={r} c={c} rows={rows} at ({i}, {j})"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The vectorized `a · bᵀ` against a scalar model of [`avx::dot`] per
    /// output element: two 8-lane fused multiply-add chains over 16-column
    /// steps, one more 8-column step into the first, the lanes summed in
    /// `hsum`'s order, then a plain `total += a * b` over the scalar tail.
    /// Inner lengths cover every combination of 16- and 8-column steps and
    /// tails.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx_gemm_transb_keeps_each_elements_chain() {
        if !SimdBackend::new().avx2_active() {
            return;
        }
        let dot_model = |a: &[f32], b: &[f32]| {
            let len = a.len();
            let mut acc = [[0.0f32; 8]; 2];
            let mut i = 0;
            while i + 16 <= len {
                for (h, half) in acc.iter_mut().enumerate() {
                    for (l, lane) in half.iter_mut().enumerate() {
                        let k = i + 8 * h + l;
                        *lane = a[k].mul_add(b[k], *lane);
                    }
                }
                i += 16;
            }
            if i + 8 <= len {
                for (l, lane) in acc[0].iter_mut().enumerate() {
                    *lane = a[i + l].mul_add(b[i + l], *lane);
                }
                i += 8;
            }
            let v: [f32; 8] = std::array::from_fn(|l| acc[0][l] + acc[1][l]);
            let s: [f32; 4] = std::array::from_fn(|l| v[l] + v[l + 4]);
            let mut total = (s[0] + s[2]) + (s[1] + s[3]);
            for k in i..len {
                total += a[k] * b[k];
            }
            total
        };
        for kk in [1usize, 7, 8, 9, 15, 16, 17, 24, 31, 37, 64] {
            for (m, n) in [(1usize, 1usize), (3, 5), (4, 9)] {
                let seed = (kk * 100 + m * 10 + n) as u64;
                let a = filled(m, kk, seed);
                let b = filled(n, kk, seed + 1);
                let mut got = filled(m, n, seed + 2);
                // SAFETY: AVX2+FMA were detected; `a` holds `m * kk` values,
                // `b` `n * kk` and `got` `m * n`.
                unsafe { avx::gemm_transb(a.data(), b.data(), got.data_mut(), m, kk, n) };
                for i in 0..m {
                    for j in 0..n {
                        let want = dot_model(a.row(i), b.row(j));
                        assert_eq!(
                            got.get(i, j).to_bits(),
                            want.to_bits(),
                            "kk={kk} m={m} n={n} at ({i}, {j})"
                        );
                    }
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx_softmax_rows_match_reference_within_tolerance() {
        let simd = SimdBackend::new();
        if !simd.avx2_active() {
            return;
        }
        let tol = simd.tolerance();
        for cols in [1usize, 7, 8, 9, 30, 64] {
            let mut s = filled(3, cols, cols as u64);
            let mut r = s.clone();
            for i in 0..3 {
                // SAFETY: AVX2+FMA were detected; the row holds `cols` values.
                unsafe { avx::softmax_row(s.row_mut(i).as_mut_ptr(), cols) };
            }
            r.softmax_rows_inplace();
            for (a, b) in s.data().iter().zip(r.data()) {
                assert!(tol.allows(*a, *b), "{a} vs {b} at cols={cols}");
            }
            // Rows still sum to one.
            for i in 0..3 {
                let sum: f32 = s.row(i).iter().sum();
                assert!((sum - 1.0).abs() < 1e-5);
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn attention_row_output_does_not_depend_on_its_query_block() {
        // The forward scores query rows in blocks of four and runs the
        // `n % 4` tail rows one at a time. A query row repeated in the tail
        // must score and mix exactly as it does inside a full block.
        let simd = SimdBackend::new();
        if !simd.avx2_active() {
            return;
        }
        for n in [5usize, 6, 7, 9, 11, 13] {
            for d in [8usize, 16, 37, 64] {
                let tail_start = n - n % avx::QUERY_BLOCK;
                let mut q = filled(n, d, (n * 100 + d) as u64);
                for row in tail_start..n {
                    let src = q.row(row - tail_start).to_vec();
                    q.row_mut(row).copy_from_slice(&src);
                }
                let k = filled(n, d, (n * 100 + d + 1) as u64);
                let v = filled(n, d, (n * 100 + d + 2) as u64);
                let mut scratch = Scratch::new();
                let mut attn = Matrix::zeros(n, n);
                let mut mixed = Matrix::zeros(n, d);
                simd.attention_forward_fused(
                    &q,
                    &k,
                    &v,
                    1,
                    0.25,
                    Some(&mut attn),
                    &mut mixed,
                    &mut scratch,
                );
                let mut inference = Matrix::zeros(n, d);
                simd.attention_forward_fused(
                    &q,
                    &k,
                    &v,
                    1,
                    0.25,
                    None,
                    &mut inference,
                    &mut scratch,
                );
                for row in tail_start..n {
                    let block_row = row - tail_start;
                    for (what, m) in [
                        ("scores", &attn),
                        ("mixed", &mixed),
                        ("inference", &inference),
                    ] {
                        let tail: Vec<u32> = m.row(row).iter().map(|x| x.to_bits()).collect();
                        let block: Vec<u32> =
                            m.row(block_row).iter().map(|x| x.to_bits()).collect();
                        assert_eq!(
                            tail, block,
                            "{what}: tail row {row} vs block row {block_row} at n={n} d={d}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn avx_kernels_propagate_nan() {
        let simd = SimdBackend::new();
        if !simd.avx2_active() {
            return;
        }
        let a = Matrix::from_rows(&[&[0.0, 1.0]]);
        let b = Matrix::from_rows(&[&[f32::NAN], &[2.0]]);
        let mut out = Matrix::zeros(1, 1);
        simd.matmul_into(&a, &b, &mut out);
        assert!(out.get(0, 0).is_nan());

        let mut m = Matrix::from_rows(&[&[f32::NAN, 1.0, -3.0, 0.5, 2.0, -1.0, 0.0, 4.0, 7.0]]);
        simd.activation_grad_from_output(
            ActivationKind::Relu,
            &Matrix::full(1, 9, -1.0),
            &m.clone(),
            &mut m,
        );
        assert!(
            m.get(0, 0).is_nan(),
            "NaN grad × zero derivative must stay NaN"
        );
    }
}
