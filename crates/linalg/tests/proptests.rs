//! Property-based tests for the linear-algebra kernels on randomized
//! diagonally-dominant systems (the class the crossbar solver produces).

use proptest::prelude::*;
use xbar_linalg::dense::{DenseMatrix, LuDecomposition};
use xbar_linalg::norms::{inf_norm, max_abs_diff};
use xbar_linalg::tridiagonal::solve_tridiagonal;

/// A random strictly diagonally dominant dense system.
fn dd_system() -> impl Strategy<Value = (DenseMatrix, Vec<f64>)> {
    (2usize..12).prop_flat_map(|n| {
        (
            proptest::collection::vec(-1.0f64..1.0, n * n),
            proptest::collection::vec(-1.0f64..1.0, n),
        )
            .prop_map(move |(entries, rhs)| {
                let mut a = DenseMatrix::zeros(n, n);
                for i in 0..n {
                    let mut off = 0.0;
                    for j in 0..n {
                        if i != j {
                            let v = entries[i * n + j];
                            a.set(i, j, v);
                            off += v.abs();
                        }
                    }
                    a.set(i, i, off + 1.0);
                }
                (a, rhs)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn lu_solve_has_small_residual((a, b) in dd_system()) {
        let x = LuDecomposition::new(&a).unwrap().solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        prop_assert!(max_abs_diff(&ax, &b) < 1e-9 * inf_norm(&b).max(1.0));
    }

    #[test]
    fn lu_determinant_is_nonzero_for_dd((a, _) in dd_system()) {
        let det = LuDecomposition::new(&a).unwrap().determinant();
        prop_assert!(det.abs() > 0.0);
    }

    #[test]
    fn tridiagonal_matches_lu(
        n in 2usize..20,
        seed in 0u64..10_000,
    ) {
        let mut s = seed | 1;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 1000) as f64) / 1000.0 + 0.05
        };
        let sub: Vec<f64> = (0..n).map(|i| if i == 0 { 0.0 } else { -rnd() }).collect();
        let sup: Vec<f64> = (0..n).map(|i| if i == n - 1 { 0.0 } else { -rnd() }).collect();
        let diag: Vec<f64> = (0..n).map(|i| sub[i].abs() + sup[i].abs() + 0.5 + rnd()).collect();
        let rhs: Vec<f64> = (0..n).map(|_| rnd() - 0.5).collect();
        let fast = solve_tridiagonal(&sub, &diag, &sup, &rhs).unwrap();
        let mut dense = DenseMatrix::zeros(n, n);
        for i in 0..n {
            dense.set(i, i, diag[i]);
            if i > 0 {
                dense.set(i, i - 1, sub[i]);
            }
            if i + 1 < n {
                dense.set(i, i + 1, sup[i]);
            }
        }
        let exact = LuDecomposition::new(&dense).unwrap().solve(&rhs).unwrap();
        prop_assert!(max_abs_diff(&fast, &exact) < 1e-8);
    }
}
