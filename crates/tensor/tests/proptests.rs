//! Property-based tests for the tensor crate's core invariants.

use proptest::prelude::*;
use xbar_tensor::Tensor;

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn small_matrix() -> impl Strategy<Value = Tensor> {
    ((1usize..10), (1usize..10)).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-100.0f32..100.0, r * c)
            .prop_map(move |data| Tensor::from_vec(data, &[r, c]).expect("consistent"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn transpose_is_involution(m in small_matrix()) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_swaps_every_entry(m in small_matrix()) {
        let t = m.transpose();
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                prop_assert_eq!(m.at2(r, c), t.at2(c, r));
            }
        }
    }

    #[test]
    fn reshape_preserves_buffer(m in small_matrix()) {
        let n = m.len();
        let flat = m.reshape(&[n]).unwrap();
        prop_assert_eq!(flat.as_slice(), m.as_slice());
        let back = flat.reshape(&[m.rows(), m.cols()]).unwrap();
        prop_assert_eq!(back, m);
    }

    #[test]
    fn identity_matmul_is_noop(m in small_matrix()) {
        // Every product but one is ±0, and a sum from +0.0 never becomes −0,
        // so both identities reproduce `m` exactly.
        let left = Tensor::eye(m.rows()).matmul(&m).unwrap();
        let right = m.matmul(&Tensor::eye(m.cols())).unwrap();
        prop_assert_eq!(bits(&left), bits(&m));
        prop_assert_eq!(bits(&right), bits(&m));
    }

    #[test]
    fn matmul_transpose_identity(a in small_matrix(), seed in 0u64..1000) {
        // (A·B)ᵀ == Bᵀ·Aᵀ bit for bit for a random compatible B: the same
        // products (multiplication commutes) summed in the same order.
        let k = a.cols();
        let n = 1 + (seed as usize % 6);
        let mut s = seed | 1;
        let b = Tensor::from_fn(&[k, n], |_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 200) as f32 - 100.0) / 50.0
        });
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert_eq!(bits(&lhs), bits(&rhs));
    }

    #[test]
    fn matmul_variants_agree(a in small_matrix(), b in small_matrix()) {
        // matmul_at_b(A, B) == Aᵀ·B and matmul_a_bt(A, B) == A·Bᵀ, bit for
        // bit, whenever shapes allow.
        if a.rows() == b.rows() {
            let fused = a.matmul_at_b(&b).unwrap();
            let naive = a.transpose().matmul(&b).unwrap();
            prop_assert_eq!(bits(&fused), bits(&naive));
        }
        if a.cols() == b.cols() {
            let fused = a.matmul_a_bt(&b).unwrap();
            let naive = a.matmul(&b.transpose()).unwrap();
            prop_assert_eq!(bits(&fused), bits(&naive));
        }
    }

    #[test]
    fn submatrix_write_round_trip(
        m in small_matrix(),
        tr in 1usize..6,
        tc in 1usize..6,
    ) {
        let mut rebuilt = Tensor::zeros(&[m.rows(), m.cols()]);
        let mut r0 = 0;
        while r0 < m.rows() {
            let mut c0 = 0;
            while c0 < m.cols() {
                let tile = m.submatrix_padded(r0, c0, tr, tc);
                rebuilt.write_submatrix(r0, c0, &tile);
                c0 += tc;
            }
            r0 += tr;
        }
        prop_assert_eq!(rebuilt, m);
    }

    #[test]
    fn sum_axis_agrees_with_total(m in small_matrix()) {
        let by_rows = m.sum_axis(0).unwrap().sum();
        let by_cols = m.sum_axis(1).unwrap().sum();
        let total = m.sum();
        prop_assert!((by_rows - total).abs() < 1e-2 * total.abs().max(1.0));
        prop_assert!((by_cols - total).abs() < 1e-2 * total.abs().max(1.0));
    }

    #[test]
    fn clamp_is_idempotent_and_bounded(m in small_matrix(), limit in 0.0f32..50.0) {
        let mut once = m.clone();
        once.clamp_symmetric(limit);
        prop_assert!(once.abs_max() <= limit + 1e-6);
        let mut twice = once.clone();
        twice.clamp_symmetric(limit);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn quantile_is_monotone(
        data in proptest::collection::vec(-10.0f32..10.0, 1..50),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = xbar_tensor::stats::abs_quantile(&data, lo);
        let b = xbar_tensor::stats::abs_quantile(&data, hi);
        prop_assert!(a <= b + 1e-6);
    }
}
