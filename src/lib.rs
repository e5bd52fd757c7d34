//! # xbar-repro
//!
//! Umbrella crate for the reproduction of *"Examining and Mitigating the
//! Impact of Crossbar Non-idealities for Accurate Implementation of Sparse
//! Deep Neural Networks"* (DATE 2022).
//!
//! This crate re-exports every workspace crate under one roof so the
//! examples under `examples/` and the integration tests under `tests/` can
//! exercise the full pipeline with a single dependency:
//!
//! * [`tensor`] — N-d `f32` tensors, matmul, im2col;
//! * [`linalg`] — dense LU and tridiagonal kernels for the crossbar circuit
//!   equations;
//! * [`nn`] — trainable DNNs (VGG11/VGG16) with manual backprop;
//! * [`data`] — deterministic synthetic CIFAR-like datasets;
//! * [`prune`] — structured pruning (C/F, XCS, XRS) and the T transformation;
//! * [`sim`] — the non-ideal crossbar circuit simulator;
//! * [`core`] — the Fig. 2 evaluation pipeline plus the R and WCT mitigations.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record.

// Compile the README's code examples as doctests so they can never rot.
#[doc = include_str!("../README.md")]
mod readme_doctests {}

pub use xbar_core as core;
pub use xbar_data as data;
pub use xbar_linalg as linalg;
pub use xbar_nn as nn;
pub use xbar_prune as prune;
pub use xbar_sim as sim;
pub use xbar_tensor as tensor;
