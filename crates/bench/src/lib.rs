//! # xbar-bench
//!
//! Shared experiment machinery for regenerating every table and figure of
//! the paper, run by the `suite` binary (`suite --only <artifact>` for one
//! artifact, `suite --list` for the catalogue).
//!
//! The harness trains width-scaled VGG models on the synthetic CIFAR-like
//! datasets (see `xbar-data` and `DESIGN.md` for the substitution note),
//! prunes them at initialisation with the paper's three structured methods,
//! maps them onto non-ideal crossbars of 16×16 / 32×32 / 64×64 and reports
//! software vs crossbar accuracies, NF statistics and compression rates.
//!
//! Absolute numbers differ from the paper (different dataset, width-scaled
//! models, our circuit parameters); the reproduced quantity is the *shape*:
//! orderings, trends with crossbar size and sparsity, and the effect of the
//! R and WCT mitigations. `EXPERIMENTS.md` records both sides.

pub mod artifacts;
pub mod loadcore;
pub mod openloop;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod suite;

pub use scenario::{DatasetKind, ExperimentScale, Scenario, TrainedModel};
