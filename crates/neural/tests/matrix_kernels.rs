//! Property tests for the blocked/in-place matrix kernels against naive
//! reference implementations.
//!
//! The tiled `matmul_into` kernel accumulates every output element in
//! ascending-`k` order — the naive dot-product order — so its output must
//! match the reference *exactly* on block-aligned sizes, and to at most
//! 1 ulp otherwise (in practice it is exact at every size; the tolerance
//! only documents the contract). The lane-parallel `matmul_transb_into`
//! reduction reorders sums by design and is held to a small ulp bound
//! instead.

use neural::Matrix;
use proptest::prelude::*;

/// Naive reference `a · b`: dot products accumulated in ascending `k`.
fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f32;
            for k in 0..a.cols() {
                acc += a.get(i, k) * b.get(k, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// Naive reference transpose.
fn reference_transpose(a: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), a.rows());
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            out.set(j, i, a.get(i, j));
        }
    }
    out
}

/// Distance in units-in-the-last-place between two finite `f32` values.
fn ulp_distance(a: f32, b: f32) -> u32 {
    let to_ordered = |x: f32| {
        let bits = x.to_bits() as i32;
        if bits < 0 {
            i32::MIN.wrapping_sub(bits)
        } else {
            bits
        }
    };
    to_ordered(a).abs_diff(to_ordered(b))
}

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // An inner dimension spanning several 32-column output tiles: the
    // "aligned" case where exact equality is required (and delivered —
    // the per-element ascending-k order matches the naive reference).
    #[test]
    fn blocked_matmul_is_exact_on_block_aligned_inner_dims(
        a in matrix(3, 64),
        b in matrix(64, 5),
    ) {
        let mut out = Matrix::zeros(3, 5);
        a.matmul_into(&b, &mut out);
        let reference = reference_matmul(&a, &b);
        prop_assert_eq!(out, reference);
    }

    #[test]
    fn blocked_matmul_matches_reference_within_one_ulp_on_odd_sizes(
        a in matrix(5, 67),
        b in matrix(67, 3),
    ) {
        let mut out = Matrix::zeros(5, 3);
        a.matmul_into(&b, &mut out);
        let reference = reference_matmul(&a, &b);
        for i in 0..out.rows() {
            for j in 0..out.cols() {
                let (x, y) = (out.get(i, j), reference.get(i, j));
                prop_assert!(
                    ulp_distance(x, y) <= 1,
                    "({}, {}): {} vs {} differ by more than 1 ulp", i, j, x, y
                );
            }
        }
    }

    #[test]
    fn transposed_variants_match_the_plain_kernel(
        a in matrix(4, 6),
        b in matrix(6, 3),
    ) {
        let reference = reference_matmul(&a, &b);

        // aᵀ presented transposed: (aᵀ)ᵀ·b via matmul_transa_into.
        let at = reference_transpose(&a);
        let mut out = Matrix::zeros(4, 3);
        at.matmul_transa_into(&b, &mut out);
        prop_assert_eq!(&out, &reference);

        // b presented transposed: a·(bᵀ)ᵀ via matmul_transb_into. Inner
        // dimension 6 stays below the 8-lane threshold, so this path is
        // sequential and exact.
        let bt = reference_transpose(&b);
        let mut out = Matrix::zeros(4, 3);
        a.matmul_transb_into(&bt, &mut out);
        prop_assert_eq!(&out, &reference);
    }

    // Inner dimension 37 exercises the lane-parallel reduction of
    // matmul_transb_into (4 full 8-lane chunks + a 5-element tail), whose
    // summation order differs from the naive reference by design: hold it
    // to a small ulp bound rather than exact equality.
    #[test]
    fn lane_parallel_transb_matches_reference_within_ulps(
        a in matrix(3, 37),
        b in matrix(37, 4),
    ) {
        let reference = reference_matmul(&a, &b);
        let bt = reference_transpose(&b);
        let mut out = Matrix::zeros(3, 4);
        a.matmul_transb_into(&bt, &mut out);
        for i in 0..out.rows() {
            for j in 0..out.cols() {
                let (x, y) = (out.get(i, j), reference.get(i, j));
                prop_assert!(
                    ulp_distance(x, y) <= 64 || (x - y).abs() <= 1e-5,
                    "({}, {}): {} vs {} reassociation error too large", i, j, x, y
                );
            }
        }
    }

    #[test]
    fn accumulating_kernels_add_onto_existing_contents(
        a in matrix(3, 4),
        b in matrix(4, 2),
        base in matrix(3, 2),
    ) {
        let mut out = base.clone();
        out.add_matmul(&a, &b);
        // Reference: the ascending-k dot product is accumulated in registers
        // and added onto the existing contents once — the kernel's
        // documented semantics.
        for i in 0..out.rows() {
            for j in 0..out.cols() {
                let mut acc = 0.0f32;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                prop_assert_eq!(out.get(i, j), base.get(i, j) + acc);
            }
        }
    }

    #[test]
    fn in_place_map_and_add_match_allocating_forms(
        a in matrix(4, 4),
        b in matrix(4, 4),
    ) {
        let mut m = a.clone();
        m.scale_inplace(0.5);
        let halves = a.data().iter().map(|x| 0.5 * x).collect();
        prop_assert_eq!(&m, &Matrix::from_vec(4, 4, halves));

        // Column sums added onto a non-zero row, rows in ascending order.
        let mut sums = Matrix::from_vec(1, 4, b.row(0).to_vec());
        sums.add_sum_rows(&a);
        for j in 0..4 {
            let mut want = b.get(0, j);
            for i in 0..4 {
                want += a.get(i, j);
            }
            prop_assert_eq!(sums.get(0, j), want);
        }

        let mut t = Matrix::zeros(4, 4);
        a.transpose_into(&mut t);
        prop_assert_eq!(&t, &reference_transpose(&a));
    }
}
