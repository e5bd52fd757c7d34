//! Parameter checkpointing.
//!
//! Saves and restores the full inference state of a [`Sequential`] model —
//! learnable parameters *and* BatchNorm running statistics — in a small
//! self-describing binary format (magic + per-tensor lengths +
//! little-endian `f32` data). The architecture itself is not serialised —
//! the caller rebuilds it (e.g. from a `VggConfig` with the same seed) and
//! loads the parameters into it, which also guards against loading weights
//! into a mismatched model.
//!
//! The generic functions take `R: Read` / `W: Write` by value; pass `&mut
//! reader` / `&mut writer` to keep using them afterwards.

use crate::serialize::{
    read_exact_or_truncated, read_tensor_block_into, write_tensor_block, TensorBlockError,
};
use crate::Sequential;
use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"XBARCKP2";

/// Error from checkpoint loading.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The data is not a checkpoint or is truncated; the message says what
    /// was wrong or what was being read when the data ran out.
    Malformed(String),
    /// Parameter counts or shapes disagree with the target model.
    Mismatch {
        /// What disagreed.
        detail: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CheckpointError::Mismatch { detail } => {
                write!(f, "checkpoint does not fit the model: {detail}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<TensorBlockError> for CheckpointError {
    fn from(e: TensorBlockError) -> Self {
        match e {
            TensorBlockError::Io(e) => CheckpointError::Io(e),
            TensorBlockError::Truncated(what) => {
                CheckpointError::Malformed(format!("truncated checkpoint: {what}"))
            }
            TensorBlockError::Mismatch(detail) => CheckpointError::Mismatch { detail },
        }
    }
}

/// Writes the model's full inference state (parameters and BatchNorm
/// running statistics) to `writer`.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on write failure.
pub fn save_params<W: Write>(model: &mut Sequential, mut writer: W) -> Result<(), CheckpointError> {
    let tensors = model.state_tensors_mut();
    writer.write_all(MAGIC)?;
    write_tensor_block(writer, tensors.iter().map(|t| &**t))?;
    Ok(())
}

/// Reads a checkpoint from `reader` into `model`, validating counts and
/// lengths, and restores the model's full inference state.
///
/// # Errors
///
/// * [`CheckpointError::Io`] on read failure;
/// * [`CheckpointError::Malformed`] for bad magic or truncation;
/// * [`CheckpointError::Mismatch`] if the checkpoint does not fit the model.
pub fn load_params<R: Read>(model: &mut Sequential, mut reader: R) -> Result<(), CheckpointError> {
    let mut magic = [0u8; 8];
    read_exact_or_truncated(&mut reader, &mut magic, || "reading magic".into())?;
    if &magic != MAGIC {
        return Err(CheckpointError::Malformed(format!(
            "bad magic {:?} (not an XBARCKP2 checkpoint)",
            String::from_utf8_lossy(&magic)
        )));
    }
    read_tensor_block_into(reader, &mut model.state_tensors_mut())?;
    Ok(())
}

/// Saves the model's parameters to a file.
///
/// # Errors
///
/// Propagates [`save_params`] errors.
pub fn save_params_to_file(
    model: &mut Sequential,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    // Crash-safe: temp file + atomic rename, so an interrupted save never
    // leaves a truncated checkpoint behind.
    crate::serialize::write_file_atomic(path, |writer| save_params(model, writer))
}

/// Loads the model's parameters from a file.
///
/// # Errors
///
/// Propagates [`load_params`] errors.
pub fn load_params_from_file(
    model: &mut Sequential,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    let file = std::fs::File::open(path)?;
    load_params(model, io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Linear};
    use crate::Layer;

    fn model(seed: u64) -> Sequential {
        Sequential::new(vec![
            Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 1, seed)),
            Layer::Linear(Linear::new(8, 4, seed + 1)),
        ])
    }

    #[test]
    fn round_trip_restores_parameters() {
        let mut src = model(1);
        let mut buf = Vec::new();
        save_params(&mut src, &mut buf).unwrap();
        let mut dst = model(2); // different init
        load_params(&mut dst, buf.as_slice()).unwrap();
        let mut src2 = src.clone();
        for (a, b) in src2.params_mut().iter().zip(dst.params_mut()) {
            assert_eq!(a.value, b.value);
        }
    }

    #[test]
    fn round_trip_restores_batchnorm_running_stats() {
        use crate::layers::{BatchNorm2d, Flatten};
        use crate::Mode;
        use xbar_tensor::Tensor;
        let build = || {
            Sequential::new(vec![
                Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 1, 8)),
                Layer::BatchNorm2d(BatchNorm2d::new(2)),
                Layer::Flatten(Flatten::new()),
                Layer::Linear(Linear::new(8, 2, 9)),
            ])
        };
        let mut src = build();
        // Drive a training-mode forward pass so running stats move off init.
        let x = Tensor::from_fn(&[4, 1, 2, 2], |i| i as f32);
        src.forward(&x, Mode::Train).unwrap();
        let src_out = src.forward(&x, Mode::Eval).unwrap();
        let mut buf = Vec::new();
        save_params(&mut src, &mut buf).unwrap();
        let mut dst = build();
        let before = dst.forward(&x, Mode::Eval).unwrap();
        assert_ne!(before, src_out, "fresh stats differ");
        load_params(&mut dst, buf.as_slice()).unwrap();
        let after = dst.forward(&x, Mode::Eval).unwrap();
        assert_eq!(after, src_out, "running stats restored exactly");
    }

    #[test]
    fn bad_magic_rejected() {
        let mut dst = model(3);
        let err = load_params(&mut dst, &b"NOTACKPT........."[..]).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed(_)));
        // The retired params-only layout is not read either.
        let mut src = model(3);
        let mut buf = Vec::new();
        save_params(&mut src, &mut buf).unwrap();
        buf[..8].copy_from_slice(b"XBARCKP1");
        let err = load_params(&mut dst, buf.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed(_)), "{err}");
    }

    #[test]
    fn truncated_data_is_descriptive_malformed_error() {
        let mut src = model(4);
        let mut buf = Vec::new();
        save_params(&mut src, &mut buf).unwrap();
        buf.truncate(buf.len() - 10);
        let mut dst = model(4);
        let err = load_params(&mut dst, buf.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed(_)), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("truncated"), "{msg}");
        assert!(msg.contains("tensor"), "{msg}");
    }

    #[test]
    fn mismatched_architecture_rejected() {
        let mut src = model(5);
        let mut buf = Vec::new();
        save_params(&mut src, &mut buf).unwrap();
        let mut wrong = Sequential::new(vec![Layer::Linear(Linear::new(8, 4, 0))]);
        let err = load_params(&mut wrong, buf.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }));
        // Same param count but wrong shape.
        let mut wrong_shape = Sequential::new(vec![
            Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 1, 0)),
            Layer::Linear(Linear::new(9, 4, 0)),
        ]);
        let err = load_params(&mut wrong_shape, buf.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }));
    }

    #[test]
    fn file_helpers_round_trip() {
        let dir = std::env::temp_dir().join("xbar_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.ckpt");
        let mut src = model(6);
        save_params_to_file(&mut src, &path).unwrap();
        let mut dst = model(7);
        load_params_from_file(&mut dst, &path).unwrap();
        let mut src2 = src.clone();
        for (a, b) in src2.params_mut().iter().zip(dst.params_mut()) {
            assert_eq!(a.value, b.value);
        }
        std::fs::remove_file(&path).ok();
    }
}
