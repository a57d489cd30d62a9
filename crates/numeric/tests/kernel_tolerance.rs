//! Tolerance-pinned equivalence tests: every lane kernel vs its scalar
//! reference, across remainder widths `1..LANES-1` and larger sizes.
//!
//! The lane kernels split reductions across [`kernels::LANES`] independent
//! accumulators; that re-association changes rounding, so equality is
//! pinned to an explicit relative tolerance instead of bit identity.
//! `scripts/check.sh` runs this suite as a dedicated gate — if a bound
//! here is loosened, that is a reviewable change, not silent drift.
//!
//! The matrix kernels (`gemm`, `gemm_tn_acc`) lane-chunk only the output
//! dimension, so they are additionally pinned bit-exact against plain
//! scalar loops here, remainder widths included.

use powerlens_numeric::kernels;
use proptest::prelude::*;

/// Relative bound for a re-associated sum of `len` products of inputs
/// bounded by `bound`: a forgiving multiple of `len · bound² · ε`, loose
/// enough for any association order yet ~1e6x tighter than what an actual
/// kernel bug (wrong element, dropped tail) produces.
fn reduction_tol(len: usize, bound: f64) -> f64 {
    1e-13 * (len.max(1) as f64) * bound * bound.max(1.0)
}

/// Vector pairs whose length sweeps every lane remainder: the strategy
/// draws `base` full chunks plus an explicit `rem` in `0..LANES`, so widths
/// `1..LANES-1` are always exercised rather than left to chance.
fn lane_vectors() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (0usize..6, 0usize..kernels::LANES).prop_flat_map(|(base, rem)| {
        let len = (base * kernels::LANES + rem).max(1);
        (
            proptest::collection::vec(-100.0f64..100.0, len),
            proptest::collection::vec(-100.0f64..100.0, len),
        )
    })
}

/// Row-major matrix operand triple (m, k, n) with every dimension crossing
/// lane boundaries.
fn gemm_operands() -> impl Strategy<Value = (usize, usize, usize, Vec<f64>, Vec<f64>)> {
    (1usize..=9, 1usize..=9, 1usize..=9).prop_flat_map(|(m, k, n)| {
        (
            Just(m),
            Just(k),
            Just(n),
            proptest::collection::vec(-10.0f64..10.0, m * k),
            proptest::collection::vec(-10.0f64..10.0, k * n),
        )
    })
}

/// Operands for the transposed accumulation: `A` is `k x m`, `B` is `k x n`.
fn tn_operands() -> impl Strategy<Value = (usize, usize, usize, Vec<f64>, Vec<f64>)> {
    (1usize..=9, 1usize..=9, 1usize..=9).prop_flat_map(|(k, m, n)| {
        (
            Just(k),
            Just(m),
            Just(n),
            proptest::collection::vec(-10.0f64..10.0, k * m),
            proptest::collection::vec(-10.0f64..10.0, k * n),
        )
    })
}

proptest! {
    #[test]
    fn dot_lanes_matches_scalar(v in lane_vectors()) {
        let (a, b) = v;
        let fast = kernels::dot(&a, &b);
        let want = kernels::dot_scalar(&a, &b);
        prop_assert!(
            (fast - want).abs() <= reduction_tol(a.len(), 100.0),
            "len {}: {} vs {}", a.len(), fast, want
        );
    }

    #[test]
    fn squared_distance_lanes_matches_scalar(v in lane_vectors()) {
        let (a, b) = v;
        let fast = kernels::squared_distance(&a, &b);
        let want = kernels::squared_distance_scalar(&a, &b);
        prop_assert!(fast >= 0.0);
        prop_assert!(
            (fast - want).abs() <= reduction_tol(a.len(), 200.0),
            "len {}: {} vs {}", a.len(), fast, want
        );
    }

    #[test]
    fn axpy_is_bit_identical_to_scalar_loop(v in lane_vectors(), a in -10.0f64..10.0) {
        let (x, y) = v;
        let mut fast = y.clone();
        kernels::axpy(&mut fast, a, &x);
        let mut want = y;
        for (o, &xv) in want.iter_mut().zip(&x) {
            *o += a * xv;
        }
        // Each element is touched exactly once; lane chunking cannot
        // change the arithmetic, so this pin is exact.
        prop_assert_eq!(fast, want);
    }

    #[test]
    fn gemm_nt_matches_scalar_dots_within_tolerance(ops in gemm_operands()) {
        let (m, k, n, a, bt_rows) = ops;
        // Reinterpret the k·n buffer as n x k (row-major B of gemm_nt).
        let b = &bt_rows[..];
        let mut fast = vec![0.0; m * n];
        kernels::gemm_nt(m, k, n, &a, b, &mut fast);
        for i in 0..m {
            for j in 0..n {
                let want = kernels::dot_scalar(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                prop_assert!(
                    (fast[i * n + j] - want).abs() <= reduction_tol(k, 10.0),
                    "({}, {}): {} vs {}", i, j, fast[i * n + j], want
                );
            }
        }
    }

    #[test]
    fn matvec_matches_scalar_dots_within_tolerance(ops in gemm_operands()) {
        let (m, k, _n, a, b) = ops;
        let x = &b[..k];
        let mut fast = vec![0.0; m];
        kernels::matvec(m, k, &a, x, &mut fast);
        for i in 0..m {
            let want = kernels::dot_scalar(&a[i * k..(i + 1) * k], x);
            prop_assert!(
                (fast[i] - want).abs() <= reduction_tol(k, 10.0),
                "row {}: {} vs {}", i, fast[i], want
            );
        }
    }

    #[test]
    fn gemm_stays_bit_identical_to_ascending_k(ops in gemm_operands()) {
        let (m, k, n, a, b) = ops;
        let mut fast = vec![0.0; m * n];
        kernels::gemm(m, k, n, &a, &b, &mut fast);
        let mut want = vec![0.0; m * n];
        for i in 0..m {
            for s in 0..k {
                let v = a[i * k + s];
                for j in 0..n {
                    want[i * n + j] += v * b[s * n + j];
                }
            }
        }
        // Lane chunking touches only the j dimension; per-element k order
        // is untouched, so the blocked≡naive pin stays exact.
        prop_assert_eq!(fast, want);
    }

    #[test]
    fn gemm_tn_acc_stays_bit_identical_to_sample_loop(ops in tn_operands()) {
        let (k, m, n, a, b_kn) = ops;
        let mut fast = vec![0.5; m * n];
        kernels::gemm_tn_acc(k, m, n, &a, &b_kn, &mut fast);
        let mut want = vec![0.5; m * n];
        for s in 0..k {
            for i in 0..m {
                let g = a[s * m + i];
                for j in 0..n {
                    want[i * n + j] += g * b_kn[s * n + j];
                }
            }
        }
        prop_assert_eq!(fast, want);
    }
}

/// Deterministic remainder-width sweep: one explicit case per width
/// `0..LANES`, so a failure names the width directly instead of shrinking.
#[test]
fn every_remainder_width_is_exercised() {
    for rem in 0..kernels::LANES {
        let len = 2 * kernels::LANES + rem;
        let a: Vec<f64> = (0..len).map(|i| 0.37 * i as f64 - 1.0).collect();
        let b: Vec<f64> = (0..len).map(|i| -0.11 * i as f64 + 2.0).collect();
        let d_fast = kernels::dot(&a, &b);
        let d_want = kernels::dot_scalar(&a, &b);
        assert!(
            (d_fast - d_want).abs() <= reduction_tol(len, 10.0),
            "dot remainder {rem}: {d_fast} vs {d_want}"
        );
        let s_fast = kernels::squared_distance(&a, &b);
        let s_want = kernels::squared_distance_scalar(&a, &b);
        assert!(
            (s_fast - s_want).abs() <= reduction_tol(len, 20.0),
            "sqdist remainder {rem}: {s_fast} vs {s_want}"
        );
    }
}
