//! # xbar-tensor
//!
//! A small, dependency-light N-dimensional `f32` tensor library that serves as
//! the numerical substrate for the `xbar-repro` workspace (a reproduction of
//! the DATE 2022 paper *"Examining and Mitigating the Impact of Crossbar
//! Non-idealities for Accurate Implementation of Sparse Deep Neural
//! Networks"*).
//!
//! The crate provides:
//!
//! * [`Tensor`] — an owned, row-major, contiguous `f32` tensor with shape
//!   bookkeeping and checked reshaping;
//! * element-wise and reduction operations ([`ops`]);
//! * matrix multiplication through one register-blocked, optionally
//!   multi-threaded kernel whose sums are bit-identical to the naive loop
//!   ([`matmul`]);
//! * `im2col`/`col2im` convolution lowering ([`conv`]) used both by the DNN
//!   library and by the crossbar mapping framework (convolutions are unrolled
//!   into MAC operations exactly as the paper's Python wrapper does);
//! * weight initialisers ([`init`]) and summary statistics ([`stats`]).
//!
//! # Example
//!
//! ```
//! use xbar_tensor::Tensor;
//!
//! # fn main() -> Result<(), xbar_tensor::ShapeError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! # Ok(())
//! # }
//! ```

pub mod conv;
pub mod init;
pub mod matmul;
pub mod ops;
pub mod reduce;
pub mod shape;
pub mod stats;
mod tensor;
pub mod threads;

pub use shape::ShapeError;
pub use tensor::Tensor;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, ShapeError>;
