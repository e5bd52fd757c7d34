//! Small vector-norm helpers shared by the solver tests.

/// Maximum absolute difference between two equally long slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_diff requires equal lengths");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Infinity norm of a slice.
pub fn inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |m, &x| m.max(x.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms_of_known_vectors() {
        assert_eq!(inf_norm(&[-7.0, 2.0]), 7.0);
        assert_eq!(max_abs_diff(&[1.0, 5.0], &[2.0, 3.0]), 2.0);
    }

    #[test]
    fn empty_vectors() {
        assert_eq!(inf_norm(&[]), 0.0);
        assert_eq!(max_abs_diff(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn mismatched_lengths_panic() {
        max_abs_diff(&[1.0], &[]);
    }
}
