//! Shared binary tensor-block (de)serialisation.
//!
//! Both the training checkpoint (`crate::checkpoint`) and the mapped-model
//! serving artifact (`xbar_core::artifact`) store model state as the same
//! block: a `u64` tensor count, then per tensor a `u64` element count
//! followed by little-endian `f32` data. This module owns that layout so
//! the two formats cannot drift, and turns short reads into descriptive
//! [`TensorBlockError::Truncated`] errors instead of bare I/O errors.

use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;
use xbar_tensor::Tensor;

/// Writes a file crash-safely: the payload goes to a temporary file in the
/// same directory, is flushed and synced, then atomically renamed over
/// `path`. A crash mid-write leaves the previous file (or nothing) in
/// place — never a truncated artifact that a later load would have to
/// reject.
///
/// # Errors
///
/// Propagates I/O errors and whatever the `write` closure returns; the
/// temporary file is removed on failure.
pub fn write_file_atomic<E, F>(path: impl AsRef<Path>, write: F) -> Result<(), E>
where
    E: From<io::Error>,
    F: FnOnce(&mut io::BufWriter<std::fs::File>) -> Result<(), E>,
{
    let path = path.as_ref();
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{} has no file name to write to", path.display()),
            )
        })?
        .to_string_lossy()
        .into_owned();
    let tmp = dir.join(format!(".{file_name}.tmp.{}", std::process::id()));
    let result = (|| {
        let file = std::fs::File::create(&tmp)?;
        let mut writer = io::BufWriter::new(file);
        write(&mut writer)?;
        writer.flush()?;
        writer.get_ref().sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

/// Error from reading a tensor block.
#[derive(Debug)]
pub enum TensorBlockError {
    /// Underlying I/O failure (not a short read).
    Io(io::Error),
    /// The data ended early; the message names what was being read.
    Truncated(String),
    /// The block does not fit the destination tensors; the message names
    /// the tensor and the disagreeing sizes.
    Mismatch(String),
}

impl fmt::Display for TensorBlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorBlockError::Io(e) => write!(f, "i/o error: {e}"),
            TensorBlockError::Truncated(what) => write!(f, "truncated data: {what}"),
            TensorBlockError::Mismatch(detail) => write!(f, "{detail}"),
        }
    }
}

impl std::error::Error for TensorBlockError {}

/// Reads exactly `buf.len()` bytes, reporting a short read as
/// [`TensorBlockError::Truncated`] with `what` as context.
pub fn read_exact_or_truncated<R: Read>(
    mut reader: R,
    buf: &mut [u8],
    what: impl FnOnce() -> String,
) -> Result<(), TensorBlockError> {
    reader.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TensorBlockError::Truncated(format!("{} (wanted {} bytes)", what(), buf.len()))
        } else {
            TensorBlockError::Io(e)
        }
    })
}

/// Writes a tensor block: count, then each tensor's length and data.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_tensor_block<'a, W: Write>(
    mut writer: W,
    tensors: impl ExactSizeIterator<Item = &'a Tensor>,
) -> io::Result<()> {
    writer.write_all(&(tensors.len() as u64).to_le_bytes())?;
    for t in tensors {
        writer.write_all(&(t.len() as u64).to_le_bytes())?;
        let mut bytes = Vec::with_capacity(4 * t.len());
        for &v in t.as_slice() {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        writer.write_all(&bytes)?;
    }
    Ok(())
}

/// Values decoded per read of [`read_tensor_block_into`]: its one staging
/// buffer is a 4 KiB stack array, so no tensor is ever copied whole
/// before it is decoded into place.
const STAGE_VALUES: usize = 1024;

/// Reads a tensor block into `slots`, validating the tensor count and each
/// tensor's element count against the destination. The data is decoded
/// straight into the slots through one small stack buffer, so reading from
/// a mapped file copies each weight once, from the mapping into its
/// tensor.
///
/// # Errors
///
/// * [`TensorBlockError::Io`] on genuine read failure;
/// * [`TensorBlockError::Truncated`] if the data ends early;
/// * [`TensorBlockError::Mismatch`] if counts or lengths disagree.
pub fn read_tensor_block_into<R: Read>(
    mut reader: R,
    slots: &mut [&mut Tensor],
) -> Result<(), TensorBlockError> {
    let mut len8 = [0u8; 8];
    let mut stage = [0u8; 4 * STAGE_VALUES];
    read_exact_or_truncated(&mut reader, &mut len8, || "reading tensor count".into())?;
    let count = u64::from_le_bytes(len8) as usize;
    if count != slots.len() {
        return Err(TensorBlockError::Mismatch(format!(
            "{count} saved tensors vs {} in model",
            slots.len()
        )));
    }
    for (idx, slot) in slots.iter_mut().enumerate() {
        read_exact_or_truncated(&mut reader, &mut len8, || {
            format!("reading length of tensor {idx}")
        })?;
        let len = u64::from_le_bytes(len8) as usize;
        if len != slot.len() {
            return Err(TensorBlockError::Mismatch(format!(
                "tensor {idx}: {len} saved values vs {} in model",
                slot.len()
            )));
        }
        for values in slot.as_mut_slice().chunks_mut(STAGE_VALUES) {
            let bytes = &mut stage[..4 * values.len()];
            read_exact_or_truncated(&mut reader, bytes, || {
                format!("reading data of tensor {idx} ({len} values)")
            })?;
            for (dst, chunk) in values.iter_mut().zip(bytes.chunks_exact(4)) {
                *dst = f32::from_le_bytes(chunk.try_into().expect("chunk of 4"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensors() -> Vec<Tensor> {
        vec![
            Tensor::from_fn(&[2, 3], |i| i as f32),
            Tensor::from_fn(&[4], |i| -(i as f32)),
        ]
    }

    fn write(ts: &[Tensor]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_tensor_block(&mut buf, ts.iter()).unwrap();
        buf
    }

    #[test]
    fn round_trip() {
        let src = tensors();
        let buf = write(&src);
        let mut dst = vec![Tensor::zeros(&[2, 3]), Tensor::zeros(&[4])];
        let mut slots: Vec<&mut Tensor> = dst.iter_mut().collect();
        read_tensor_block_into(buf.as_slice(), &mut slots).unwrap();
        assert_eq!(src, dst);
    }

    #[test]
    fn truncation_is_descriptive() {
        let buf = write(&tensors());
        let cut = &buf[..buf.len() - 3];
        let mut dst = [Tensor::zeros(&[2, 3]), Tensor::zeros(&[4])];
        let mut slots: Vec<&mut Tensor> = dst.iter_mut().collect();
        let err = read_tensor_block_into(cut, &mut slots).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("truncated"), "{msg}");
        assert!(msg.contains("tensor 1"), "{msg}");
    }

    #[test]
    fn length_mismatch_names_the_tensor() {
        let buf = write(&tensors());
        let mut dst = [Tensor::zeros(&[2, 3]), Tensor::zeros(&[5])];
        let mut slots: Vec<&mut Tensor> = dst.iter_mut().collect();
        let err = read_tensor_block_into(buf.as_slice(), &mut slots).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("tensor 1") && msg.contains('5'), "{msg}");
    }

    #[test]
    fn count_mismatch_reported() {
        let buf = write(&tensors());
        let mut dst = [Tensor::zeros(&[2, 3])];
        let mut slots: Vec<&mut Tensor> = dst.iter_mut().collect();
        let err = read_tensor_block_into(buf.as_slice(), &mut slots).unwrap_err();
        assert!(matches!(err, TensorBlockError::Mismatch(_)), "{err}");
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("xbar_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.bin");
        write_file_atomic::<io::Error, _>(&path, |w| w.write_all(b"first")).unwrap();
        write_file_atomic::<io::Error, _>(&path, |w| w.write_all(b"second")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_atomic_write_preserves_the_old_file() {
        let dir = std::env::temp_dir().join(format!("xbar_atomic_fail_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.bin");
        write_file_atomic::<io::Error, _>(&path, |w| w.write_all(b"good")).unwrap();
        let err = write_file_atomic::<io::Error, _>(&path, |w| {
            w.write_all(b"partial garbage")?;
            Err(io::Error::other("simulated crash mid-write"))
        })
        .unwrap_err();
        assert!(err.to_string().contains("simulated crash"));
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"good",
            "interrupted write must not clobber the previous file"
        );
        let leftovers = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .count();
        assert_eq!(leftovers, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
