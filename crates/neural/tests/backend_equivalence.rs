//! Cross-backend equivalence: every registered kernel backend must match
//! [`ReferenceBackend`] at its declared [`Tolerance`] on every kernel, and
//! the runtime-dispatch scalar fallback of the SIMD backend must be
//! bit-identical to the reference.
//!
//! The reference backend itself is covered by construction (its kernels
//! *are* the pre-seam code; the golden fixtures pin it), so the tests here
//! focus on the seam mechanics plus — behind `backend-simd` — the AVX2/FMA
//! kernels across ragged shapes (37-column tails, the stacked `[b*n, n]`
//! block-diagonal attention case) driven by proptest.

use neural::backend::{all_backends, backend_by_name, BackendRef, ReferenceBackend, Tolerance};
use neural::{KernelBackend, Matrix, Scratch};

/// Asserts two matrices agree element-wise under `tol`.
fn assert_close(tol: Tolerance, got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert!(
            tol.allows(*g, *w),
            "{what}: element {i}: {g} vs {w} outside {tol:?}"
        );
    }
}

#[test]
fn scratch_carries_its_backend() {
    let reference: BackendRef = backend_by_name("reference").unwrap();
    let scratch = Scratch::with_backend(reference);
    assert_eq!(scratch.backend().name(), "reference");
    // The process-wide default is the reference backend unless overridden.
    if std::env::var("ACSO_BACKEND").unwrap_or_default().is_empty() {
        assert_eq!(Scratch::new().backend().name(), "reference");
    }
}

#[test]
fn every_registered_backend_matches_reference_at_declared_tolerance() {
    // A deterministic spot-check over every compiled-in backend (the
    // feature-gated proptests below hammer the SIMD kernels much harder).
    let reference = ReferenceBackend;
    let a = deterministic(7, 37, 3);
    let b = deterministic(37, 23, 4);
    for be in all_backends() {
        let tol = be.tolerance();
        let mut got = Matrix::zeros(7, 23);
        let mut want = Matrix::zeros(7, 23);
        be.matmul_into(&a, &b, &mut got);
        reference.matmul_into(&a, &b, &mut want);
        assert_close(tol, &got, &want, be.name());
    }
}

/// Deterministic pseudo-random matrix in `[-2, 2)` (no shared RNG state, so
/// tests stay order-independent).
fn deterministic(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut m = Matrix::zeros(rows, cols);
    for v in m.data_mut() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *v = ((state >> 33) % 4000) as f32 / 1000.0 - 2.0;
    }
    m
}

/// The fused attention forward with `m` query rows per item against `n`
/// key/value rows (grouped inference's shape), on one backend: its output
/// matches the reference backend within the backend's declared tolerance,
/// each query row's scores and mixed values are bit-identical to the same
/// row of the square pass on the same `K` and `V` (the query rows are
/// drawn out of order, so a row lands in a different query block than in
/// the square pass), and the inference form is bit-identical to the
/// training form, whose score cache is `[items * m, n]`.
fn check_grouped_attention(be: BackendRef, items: usize, m: usize, n: usize, d: usize) {
    let shape = format!("{} items={items} m={m} n={n} d={d}", be.name());
    let seed = (items * 100_000 + m * 1_000 + n) as u64;
    let q_all = deterministic(items * n, d, seed);
    let k = deterministic(items * n, d, seed + 1);
    let v = deterministic(items * n, d, seed + 2);
    let scale = 1.0 / (d as f32).sqrt();
    // Row j of item i's grouped queries is its square row `picks[j]`.
    let picks: Vec<usize> = (0..m).map(|j| (j * 7 + 1) % n).collect();
    let mut q = Matrix::zeros(items * m, d);
    for i in 0..items {
        for (j, &r) in picks.iter().enumerate() {
            q.row_mut(i * m + j).copy_from_slice(q_all.row(i * n + r));
        }
    }
    let mut scratch = Scratch::with_backend(be);
    let mut run = |q: &Matrix, rows: usize, cache: bool| {
        let mut attn = cache.then(|| Matrix::zeros(items * rows, n));
        let mut mixed = Matrix::zeros(items * rows, d);
        be.attention_forward_fused(
            q,
            &k,
            &v,
            items,
            scale,
            attn.as_mut(),
            &mut mixed,
            &mut scratch,
        );
        (attn, mixed)
    };
    let (square_attn, square_mixed) = run(&q_all, n, true);
    let (attn, mixed) = run(&q, m, true);
    let attn = attn.expect("training form caches scores");
    let (_, inference) = run(&q, m, false);
    let square_attn = square_attn.expect("training form caches scores");

    let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    assert_eq!(
        bits(inference.data()),
        bits(mixed.data()),
        "inference vs training {shape}"
    );
    for i in 0..items {
        for (j, &r) in picks.iter().enumerate() {
            let (row, square) = (i * m + j, i * n + r);
            assert_eq!(
                bits(attn.row(row)),
                bits(square_attn.row(square)),
                "scores row {row} vs square row {square}, {shape}"
            );
            assert_eq!(
                bits(mixed.row(row)),
                bits(square_mixed.row(square)),
                "mixed row {row} vs square row {square}, {shape}"
            );
        }
    }

    let mut want_attn = Matrix::zeros(items * m, n);
    let mut want_mixed = Matrix::zeros(items * m, d);
    ReferenceBackend.attention_forward_fused(
        &q,
        &k,
        &v,
        items,
        scale,
        Some(&mut want_attn),
        &mut want_mixed,
        &mut Scratch::with_backend(&ReferenceBackend),
    );
    assert_close(
        be.tolerance(),
        &attn,
        &want_attn,
        &format!("scores {shape}"),
    );
    assert_close(
        be.tolerance(),
        &mixed,
        &want_mixed,
        &format!("mixed {shape}"),
    );
}

#[test]
fn grouped_attention_rows_match_the_square_pass_on_every_backend() {
    for be in all_backends() {
        for n in [5usize, 33] {
            for m in [1usize, 3, 4, 5] {
                check_grouped_attention(*be, 3, m, n, 16);
            }
        }
    }
}

#[test]
fn grouped_attention_rows_match_the_square_pass_at_registry_1000_scale() {
    // Four distinct rows of a 1003-node state at the attention width.
    for be in all_backends() {
        check_grouped_attention(*be, 1, 4, 1003, 64);
    }
}

#[test]
fn item_flushes_equal_single_item_flushes_on_every_backend() {
    // The batched weight-gradient flush over b items is b one-item flushes
    // in item order, bit for bit: the per-item accumulation every layer's
    // batched backward relies on. 37 columns leave a vector tail.
    for be in all_backends() {
        for (items, rows) in [(1usize, 3usize), (2, 1), (3, 4), (64, 1), (5, 3)] {
            let seed = (items * 100 + rows) as u64;
            let a = deterministic(items * rows, 9, seed);
            let b = deterministic(items * rows, 37, seed + 1);
            let start = deterministic(9, 37, seed + 2);
            let mut batched = start.clone();
            be.add_matmul_transa_items(&mut batched, &a, &b, items);
            let mut single = start;
            let (mut ai, mut bi) = (Matrix::zeros(rows, 9), Matrix::zeros(rows, 37));
            for item in 0..items {
                a.copy_row_block_into(item * rows, &mut ai);
                b.copy_row_block_into(item * rows, &mut bi);
                be.add_matmul_transa_items(&mut single, &ai, &bi, 1);
            }
            assert_close(
                Tolerance::Exact,
                &batched,
                &single,
                &format!("{} items={items}x{rows}", be.name()),
            );
        }
    }
}

#[cfg(feature = "backend-simd")]
mod simd {
    use super::*;
    use neural::backend::SimdBackend;
    use neural::layers::SelfAttention;
    use neural::{Batch, Layer};
    use proptest::prelude::*;

    /// The scalar-fallback singleton: what the runtime dispatcher degrades
    /// to on hardware without AVX2+FMA.
    static SCALAR_FALLBACK: SimdBackend = SimdBackend::scalar_fallback();

    fn simd() -> BackendRef {
        backend_by_name("simd").expect("backend-simd build registers 'simd'")
    }

    #[test]
    fn simd_backend_is_registered_with_a_bounded_tolerance() {
        let be = simd();
        assert_eq!(be.name(), "simd");
        assert!(
            matches!(be.tolerance(), Tolerance::Bounded { .. }),
            "SIMD reorders reductions; it must not claim exactness"
        );
        // The registry default is still the reference backend.
        assert_eq!(all_backends()[0].name(), "reference");
    }

    #[test]
    fn scalar_fallback_dispatch_is_bit_identical_to_reference() {
        // With AVX2 masked off, every kernel must take the reference code
        // path — equality here is exact, not toleranced. This is the
        // behavior non-AVX2 hardware gets from runtime dispatch.
        let fallback: BackendRef = &SCALAR_FALLBACK;
        assert!(!SCALAR_FALLBACK.avx2_active());
        let reference = ReferenceBackend;
        let exact = Tolerance::Exact;

        let a = deterministic(5, 37, 11);
        let b = deterministic(37, 19, 12);
        let mut got = Matrix::zeros(5, 19);
        let mut want = Matrix::zeros(5, 19);
        fallback.matmul_into(&a, &b, &mut got);
        reference.matmul_into(&a, &b, &mut want);
        assert_close(exact, &got, &want, "fallback matmul");

        let x = deterministic(6, 9, 13);
        let g = deterministic(6, 30, 14);
        let mut got = deterministic(9, 30, 15);
        let mut want = got.clone();
        fallback.add_matmul_transa_items(&mut got, &x, &g, 3);
        reference.add_matmul_transa_items(&mut want, &x, &g, 3);
        assert_close(exact, &got, &want, "fallback gradient flush");

        // Whole-layer check through a Scratch pinned to the fallback.
        let mut attn_f = SelfAttention::new(8, 16, 4, 99);
        let mut attn_r = SelfAttention::new(8, 16, 4, 99);
        let mut scratch_f = Scratch::with_backend(fallback);
        let mut scratch_r = Scratch::with_backend(&ReferenceBackend);
        let x = deterministic(12, 8, 14);
        let batch = Batch::new(x, 3);
        let out_f = attn_f.forward_batch(&batch, &mut scratch_f);
        let out_r = attn_r.forward_batch(&batch, &mut scratch_r);
        assert_close(exact, out_f.matrix(), out_r.matrix(), "fallback attention");
    }

    /// Shapes covering register-tile boundaries: 16/8-wide column tiles,
    /// scalar tails (37 = 2·16 + 5), 4-row blocks with 1–3 row tails, and
    /// degenerate single-row/column cases.
    const GEMM_SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (4, 8, 16),
        (5, 37, 23),
        (3, 64, 37),
        (13, 7, 8),
        (2, 5, 40),
        (7, 19, 1),
    ];

    fn mat_from(data: &[f32], rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, data[..rows * cols].to_vec())
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|x| x.to_bits()).collect()
    }

    /// The fused attention forward over `items` stacked items of `n` rows
    /// at width `d` on both backends. Checks that SIMD matches the reference
    /// within its declared tolerance, that its inference form (no score
    /// cache) is bit-identical to its training form, and that each batched
    /// item is bit-identical to a solo pass on that item alone.
    fn check_attention_forward(items: usize, n: usize, d: usize) {
        let be = simd();
        let tol = be.tolerance();
        let rows = items * n;
        let seed = (items * 10_000 + n * 100 + d) as u64;
        let q = deterministic(rows, d, seed);
        let k = deterministic(rows, d, seed + 1);
        let v = deterministic(rows, d, seed + 2);
        let scale = 1.0 / (d as f32).sqrt();
        let shape = format!("items={items} n={n} d={d}");
        let mut scratch = Scratch::with_backend(be);

        let mut attn_s = Matrix::zeros(rows, n);
        let mut mixed_s = Matrix::zeros(rows, d);
        be.attention_forward_fused(
            &q,
            &k,
            &v,
            items,
            scale,
            Some(&mut attn_s),
            &mut mixed_s,
            &mut scratch,
        );
        let mut attn_r = Matrix::zeros(rows, n);
        let mut mixed_r = Matrix::zeros(rows, d);
        ReferenceBackend.attention_forward_fused(
            &q,
            &k,
            &v,
            items,
            scale,
            Some(&mut attn_r),
            &mut mixed_r,
            &mut Scratch::with_backend(&ReferenceBackend),
        );
        assert_close(tol, &attn_s, &attn_r, &format!("scores {shape}"));
        assert_close(tol, &mixed_s, &mixed_r, &format!("mixed {shape}"));

        let mut mixed_inf = Matrix::zeros(rows, d);
        be.attention_forward_fused(&q, &k, &v, items, scale, None, &mut mixed_inf, &mut scratch);
        assert_eq!(
            bits(&mixed_inf),
            bits(&mixed_s),
            "inference vs training {shape}"
        );

        for item in 0..items {
            let block = |m: &Matrix| mat_from(&m.data()[item * n * d..], n, d);
            let mut attn_solo = Matrix::zeros(n, n);
            let mut mixed_solo = Matrix::zeros(n, d);
            be.attention_forward_fused(
                &block(&q),
                &block(&k),
                &block(&v),
                1,
                scale,
                Some(&mut attn_solo),
                &mut mixed_solo,
                &mut scratch,
            );
            let batched_attn = mat_from(&attn_s.data()[item * n * n..], n, n);
            let batched_mixed = mat_from(&mixed_s.data()[item * n * d..], n, d);
            assert_eq!(
                bits(&attn_solo),
                bits(&batched_attn),
                "solo vs batched scores, item {item} {shape}"
            );
            assert_eq!(
                bits(&mixed_solo),
                bits(&batched_mixed),
                "solo vs batched mixed, item {item} {shape}"
            );
        }
    }

    #[test]
    fn attention_forward_holds_its_contracts_around_query_block_edges() {
        // Row counts below, at and around the four-row query block, plus
        // two with 1- and 3-row tails; widths with and without a scalar
        // column tail.
        for n in [1usize, 3, 4, 5, 8, 33, 67] {
            for d in [16usize, 37] {
                check_attention_forward(3, n, d);
            }
        }
    }

    #[test]
    fn attention_forward_holds_its_contracts_at_registry_1000_scale() {
        // The 1003-node world at the attention layers' width.
        check_attention_forward(2, 1003, 64);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn gemm_matches_reference_across_ragged_shapes(
            a_data in prop::collection::vec(-2.0f32..2.0, 13 * 64),
            b_data in prop::collection::vec(-2.0f32..2.0, 64 * 40),
        ) {
            let be = simd();
            let tol = be.tolerance();
            let reference = ReferenceBackend;
            for &(m, k, n) in GEMM_SHAPES {
                prop_assert!(a_data.len() >= m * k, "a buffer too small for {m}x{k}");
                prop_assert!(b_data.len() >= k * n && b_data.len() >= m * n,
                    "b buffer too small for {k}x{n}");
                let a = mat_from(&a_data, m, k);
                let b = mat_from(&b_data, k, n);
                let mut got = Matrix::zeros(m, n);
                let mut want = Matrix::zeros(m, n);

                be.matmul_into(&a, &b, &mut got);
                reference.matmul_into(&a, &b, &mut want);
                assert_close(tol, &got, &want, &format!("matmul {m}x{k}x{n}"));

                // Accumulating form on non-zero output.
                let mut got = mat_from(&b_data, m, n);
                let mut want = got.clone();
                be.add_matmul(&mut got, &a, &b);
                reference.add_matmul(&mut want, &a, &b);
                assert_close(tol, &got, &want, &format!("add_matmul {m}x{k}x{n}"));
            }
        }

        #[test]
        fn transa_item_flushes_match_reference(
            a_data in prop::collection::vec(-2.0f32..2.0, 12 * 9),
            b_data in prop::collection::vec(-2.0f32..2.0, 12 * 37),
        ) {
            // The per-item parameter-gradient flush: [12, 9]ᵀ · [12, 37] as
            // three 4-row items, then as one 12-row item, accumulated into a
            // non-zero out — the pattern backward_batch uses.
            let be = simd();
            let tol = be.tolerance();
            let reference = ReferenceBackend;
            let a = mat_from(&a_data, 12, 9);
            let b = mat_from(&b_data, 12, 37);
            for items in [3, 1] {
                let mut got = Matrix::full(9, 37, 0.25);
                let mut want = got.clone();
                be.add_matmul_transa_items(&mut got, &a, &b, items);
                reference.add_matmul_transa_items(&mut want, &a, &b, items);
                assert_close(tol, &got, &want, &format!("flush of {items} items"));
            }
        }

        #[test]
        fn fused_block_diagonal_attention_matches_reference(
            q_data in prop::collection::vec(-1.5f32..1.5, 4 * 9 * 16),
            k_data in prop::collection::vec(-1.5f32..1.5, 4 * 9 * 16),
            v_data in prop::collection::vec(-1.5f32..1.5, 4 * 9 * 16),
            g_data in prop::collection::vec(-1.0f32..1.0, 4 * 9 * 16),
        ) {
            // The stacked [b*n, ·] case the seam exists for: b=4 items of
            // n=9 rows (odd, exercises every tail) at d=16.
            let (b, n, d) = (4usize, 9usize, 16usize);
            let be = simd();
            let reference = ReferenceBackend;
            // Forward/backward chain several kernels, so the compounded
            // error bound is the declared kernel tolerance joined and
            // widened one order of magnitude — still far below anything a
            // greedy policy could notice.
            let tol = match be.tolerance().join(reference.tolerance()) {
                Tolerance::Bounded { rel, abs } => Tolerance::Bounded { rel: rel * 10.0, abs: abs * 10.0 },
                Tolerance::Exact => Tolerance::Exact,
            };
            let scale = 1.0 / (d as f32).sqrt();
            let q = Matrix::from_vec(b * n, d, q_data);
            let k = Matrix::from_vec(b * n, d, k_data);
            let v = Matrix::from_vec(b * n, d, v_data);
            let gm = Matrix::from_vec(b * n, d, g_data);

            let mut scratch_s = Scratch::with_backend(be);
            let mut scratch_r = Scratch::with_backend(&ReferenceBackend);

            let mut attn_s = Matrix::zeros(b * n, n);
            let mut attn_r = Matrix::zeros(b * n, n);
            let mut mixed_s = Matrix::zeros(b * n, d);
            let mut mixed_r = Matrix::zeros(b * n, d);
            be.attention_forward_fused(&q, &k, &v, b, scale, Some(&mut attn_s), &mut mixed_s, &mut scratch_s);
            reference.attention_forward_fused(&q, &k, &v, b, scale, Some(&mut attn_r), &mut mixed_r, &mut scratch_r);
            assert_close(tol, &attn_s, &attn_r, "fused attention scores");
            assert_close(tol, &mixed_s, &mixed_r, "fused attention mixed");

            // Inference form (no stacked-A materialisation) must agree with
            // the training form bit-for-bit within one backend.
            let mut mixed_inf = Matrix::zeros(b * n, d);
            be.attention_forward_fused(&q, &k, &v, b, scale, None, &mut mixed_inf, &mut scratch_s);
            assert_close(Tolerance::Exact, &mixed_inf, &mixed_s, "inference vs training mixed");

            // Backward off each backend's own cached scores.
            let mut gq_s = Matrix::zeros(b * n, d);
            let mut gk_s = Matrix::zeros(b * n, d);
            let mut gv_s = Matrix::zeros(b * n, d);
            let mut gq_r = Matrix::zeros(b * n, d);
            let mut gk_r = Matrix::zeros(b * n, d);
            let mut gv_r = Matrix::zeros(b * n, d);
            be.attention_backward_fused(&gm, &q, &k, &v, &attn_s, b, scale, &mut gq_s, &mut gk_s, &mut gv_s, &mut scratch_s);
            reference.attention_backward_fused(&gm, &q, &k, &v, &attn_r, b, scale, &mut gq_r, &mut gk_r, &mut gv_r, &mut scratch_r);
            assert_close(tol, &gq_s, &gq_r, "fused attention dQ");
            assert_close(tol, &gk_s, &gk_r, "fused attention dK");
            assert_close(tol, &gv_s, &gv_r, "fused attention dV");
        }

        #[test]
        fn full_attention_layer_passes_match_across_backends(
            x_data in prop::collection::vec(-1.0f32..1.0, 3 * 7 * 10),
        ) {
            // End-to-end through SelfAttention: stacked projections, fused
            // attention, output projection, then the batched backward with
            // parameter-gradient flushes. Error compounds through ~6 chained
            // kernels, so the bound is the joined kernel tolerance widened
            // by 100× — tight enough that a real kernel bug (wrong tail,
            // missed row) still fails by orders of magnitude.
            let (b, n, d_in) = (3usize, 7usize, 10usize);
            let be = simd();
            let tol = match be.tolerance() {
                Tolerance::Bounded { rel, abs } => Tolerance::Bounded { rel: rel * 100.0, abs: abs * 100.0 },
                Tolerance::Exact => Tolerance::Exact,
            };
            let x = Matrix::from_vec(b * n, d_in, x_data);

            let mut layer_s = SelfAttention::new(d_in, 16, 6, 42);
            let mut layer_r = SelfAttention::new(d_in, 16, 6, 42);
            let mut scratch_s = Scratch::with_backend(be);
            let mut scratch_r = Scratch::with_backend(&ReferenceBackend);

            let batch = Batch::new(x, b);
            let out_s = layer_s.forward_batch_train(&batch, &mut scratch_s);
            let out_r = layer_r.forward_batch_train(&batch, &mut scratch_r);
            assert_close(tol, out_s.matrix(), out_r.matrix(), "layer forward");

            let ones = Batch::new(Matrix::full(b * n, 6, 1.0), b);
            layer_s.zero_grad();
            layer_r.zero_grad();
            let gin_s = layer_s.backward_batch(&ones, &mut scratch_s);
            let gin_r = layer_r.backward_batch(&ones, &mut scratch_r);
            assert_close(tol, gin_s.matrix(), gin_r.matrix(), "layer grad_input");
            for (ps, pr) in layer_s.params_mut().iter().zip(layer_r.params_mut().iter()) {
                assert_close(tol, &ps.grad, &pr.grad, "layer param grad");
            }
        }
    }
}
