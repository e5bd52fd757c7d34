//! Stuck-at device faults.
//!
//! Fabricated crossbars contain a fraction of devices stuck at low
//! conductance (stuck-at-`Gmin`, e.g. broken filament) or high conductance
//! (stuck-at-`Gmax`, e.g. shorted cell). Fault injection is applied after
//! programming (mapping + quantization) and before read-out, and is the
//! failure-injection hook used by the robustness tests: a pruned model's
//! few surviving weights make it disproportionately fragile to faults, the
//! same mechanism the paper identifies for parasitic non-idealities.
//!
//! Faults are drawn as a deterministic per-array *mask* ([`FaultModel::mask`])
//! from a seed of their own, so [`crate::program`] can locate every stuck
//! device and the same devices stay stuck whatever the programming-noise
//! draw.

use crate::conductance::ConductanceMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rates of stuck-at faults, as independent per-device probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultModel {
    /// Probability a device is stuck at `Gmin`.
    pub stuck_at_gmin: f64,
    /// Probability a device is stuck at `Gmax`.
    pub stuck_at_gmax: f64,
}

/// What a faulty device is stuck at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Stuck at the minimum conductance (broken filament): the device reads
    /// as `Gmin` regardless of what was programmed.
    StuckAtGmin,
    /// Stuck at the maximum conductance (shorted cell).
    StuckAtGmax,
}

/// Invalid fault-rate configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultConfigError {
    /// A rate is outside `[0, 1]`.
    RateOutOfRange {
        /// Which rate (`"stuck_at_gmin"` / `"stuck_at_gmax"`).
        which: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The rates sum above one, so they cannot be disjoint probabilities.
    RatesSumAboveOne {
        /// `stuck_at_gmin + stuck_at_gmax`.
        sum: f64,
    },
}

impl std::fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::RateOutOfRange { which, value } => write!(
                f,
                "fault rates must be probabilities: {which} = {value} is outside [0, 1]"
            ),
            Self::RatesSumAboveOne { sum } => write!(
                f,
                "fault rates sum above one ({sum}); stuck-at-Gmin and stuck-at-Gmax \
                 are disjoint per-device outcomes"
            ),
        }
    }
}

impl std::error::Error for FaultConfigError {}

impl FaultModel {
    /// A fault-free model.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether any fault can occur.
    pub fn is_active(&self) -> bool {
        self.stuck_at_gmin > 0.0 || self.stuck_at_gmax > 0.0
    }

    /// Validates the rates.
    ///
    /// # Errors
    ///
    /// Returns a descriptive [`FaultConfigError`] if either rate is outside
    /// `[0, 1]` or the rates sum above 1.
    pub fn validate(&self) -> std::result::Result<(), FaultConfigError> {
        for (which, value) in [
            ("stuck_at_gmin", self.stuck_at_gmin),
            ("stuck_at_gmax", self.stuck_at_gmax),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(FaultConfigError::RateOutOfRange { which, value });
            }
        }
        let sum = self.stuck_at_gmin + self.stuck_at_gmax;
        if sum > 1.0 {
            return Err(FaultConfigError::RatesSumAboveOne { sum });
        }
        Ok(())
    }

    /// Draws the deterministic stuck-device mask for one `rows × cols`
    /// array. Entry `r * cols + c` is `Some(kind)` when device `(r, c)` is
    /// stuck. The draw consumes exactly one RNG roll per device, so the mask
    /// is a pure function of `(rates, shape, seed)`.
    ///
    /// Rates are assumed valid (see [`FaultModel::validate`], enforced at
    /// configuration time); out-of-range values simply saturate the rolls.
    pub fn mask(&self, rows: usize, cols: usize, seed: u64) -> Vec<Option<FaultKind>> {
        if !self.is_active() {
            return vec![None; rows * cols];
        }
        let mut rng = StdRng::seed_from_u64(seed);
        (0..rows * cols)
            .map(|_| {
                let roll: f64 = rng.gen();
                if roll < self.stuck_at_gmin {
                    Some(FaultKind::StuckAtGmin)
                } else if roll < self.stuck_at_gmin + self.stuck_at_gmax {
                    Some(FaultKind::StuckAtGmax)
                } else {
                    None
                }
            })
            .collect()
    }

    /// Injects faults into a conductance array in place, deterministically
    /// from `seed`. Returns the number of faulted devices.
    pub fn inject(&self, g: &mut ConductanceMatrix, g_min: f64, g_max: f64, seed: u64) -> usize {
        if !self.is_active() {
            return 0;
        }
        let mask = self.mask(g.rows(), g.cols(), seed);
        apply_mask(g, &mask, g_min, g_max)
    }
}

/// Overrides masked devices with their stuck rail value. Returns the number
/// of faulted devices.
pub fn apply_mask(
    g: &mut ConductanceMatrix,
    mask: &[Option<FaultKind>],
    g_min: f64,
    g_max: f64,
) -> usize {
    debug_assert_eq!(mask.len(), g.as_slice().len());
    let mut faulted = 0usize;
    for (v, kind) in g.as_mut_slice().iter_mut().zip(mask) {
        match kind {
            Some(FaultKind::StuckAtGmin) => {
                *v = g_min;
                faulted += 1;
            }
            Some(FaultKind::StuckAtGmax) => {
                *v = g_max;
                faulted += 1;
            }
            None => {}
        }
    }
    faulted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive_noop() {
        let fm = FaultModel::none();
        assert!(!fm.is_active());
        let mut g = ConductanceMatrix::filled(4, 4, 5e-6);
        let orig = g.clone();
        assert_eq!(fm.inject(&mut g, 1e-6, 1e-5, 1), 0);
        assert_eq!(g, orig);
    }

    #[test]
    fn rates_produce_expected_fault_counts() {
        let fm = FaultModel {
            stuck_at_gmin: 0.1,
            stuck_at_gmax: 0.05,
        };
        let mut g = ConductanceMatrix::filled(100, 100, 5e-6);
        let n = fm.inject(&mut g, 1e-6, 1e-5, 42);
        let frac = n as f64 / 10_000.0;
        assert!((frac - 0.15).abs() < 0.02, "fault fraction {frac}");
        // Faulted values are exactly at the rails.
        let rails = g
            .as_slice()
            .iter()
            .filter(|&&v| v == 1e-6 || v == 1e-5)
            .count();
        assert_eq!(rails, n);
    }

    #[test]
    fn deterministic_given_seed() {
        let fm = FaultModel {
            stuck_at_gmin: 0.2,
            stuck_at_gmax: 0.0,
        };
        let mut a = ConductanceMatrix::filled(10, 10, 5e-6);
        let mut b = ConductanceMatrix::filled(10, 10, 5e-6);
        fm.inject(&mut a, 1e-6, 1e-5, 9);
        fm.inject(&mut b, 1e-6, 1e-5, 9);
        assert_eq!(a, b);
        let mut c = ConductanceMatrix::filled(10, 10, 5e-6);
        fm.inject(&mut c, 1e-6, 1e-5, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn mask_matches_inject() {
        let fm = FaultModel {
            stuck_at_gmin: 0.15,
            stuck_at_gmax: 0.1,
        };
        let mask = fm.mask(20, 20, 7);
        let mut g = ConductanceMatrix::filled(20, 20, 5e-6);
        let n = fm.inject(&mut g, 1e-6, 1e-5, 7);
        assert_eq!(mask.iter().filter(|k| k.is_some()).count(), n);
        for (i, kind) in mask.iter().enumerate() {
            let v = g.as_slice()[i];
            match kind {
                Some(FaultKind::StuckAtGmin) => assert_eq!(v, 1e-6),
                Some(FaultKind::StuckAtGmax) => assert_eq!(v, 1e-5),
                None => assert_eq!(v, 5e-6),
            }
        }
    }

    #[test]
    fn negative_rate_is_descriptive_error() {
        let fm = FaultModel {
            stuck_at_gmin: -0.1,
            stuck_at_gmax: 0.0,
        };
        let err = fm.validate().unwrap_err();
        assert_eq!(
            err,
            FaultConfigError::RateOutOfRange {
                which: "stuck_at_gmin",
                value: -0.1
            }
        );
        assert!(err.to_string().contains("probabilities"), "{err}");
    }

    #[test]
    fn rates_summing_above_one_are_rejected() {
        let fm = FaultModel {
            stuck_at_gmin: 0.7,
            stuck_at_gmax: 0.7,
        };
        let err = fm.validate().unwrap_err();
        assert!(
            matches!(err, FaultConfigError::RatesSumAboveOne { sum } if (sum - 1.4).abs() < 1e-12),
            "{err:?}"
        );
        assert!(err.to_string().contains("sum above one"), "{err}");
    }

    #[test]
    fn valid_rates_pass() {
        assert!(FaultModel::none().validate().is_ok());
        assert!(FaultModel {
            stuck_at_gmin: 0.5,
            stuck_at_gmax: 0.5,
        }
        .validate()
        .is_ok());
    }
}
