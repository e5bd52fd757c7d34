//! Read-only memory-mapped files for artifact loading without a read buffer.
//!
//! [`MappedFile`] maps a file `PROT_READ`/`MAP_PRIVATE` and exposes it as a
//! `&[u8]`, so the `XBARMDL1` tensor-block parser decodes weights straight
//! out of the page cache into the model's tensors instead of first copying
//! the file through a `BufReader`.
//! The raw `mmap`/`munmap` calls are declared directly (`std` already links
//! the platform C library); on targets without a 64-bit `mmap` ABI the type
//! transparently falls back to reading the file into memory, so callers
//! never need to care which path they got.

use std::fs::File;
use std::io;
use std::path::Path;

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

/// A whole file mapped read-only into the address space (or, on targets
/// without the 64-bit `mmap` ABI, read into an owned buffer).
pub struct MappedFile {
    #[cfg(all(unix, target_pointer_width = "64"))]
    ptr: *const u8,
    #[cfg(all(unix, target_pointer_width = "64"))]
    len: usize,
    #[cfg(not(all(unix, target_pointer_width = "64")))]
    buf: Vec<u8>,
}

// The mapping is private and read-only: no writer can race the readers,
// so sharing the pointer across threads is sound.
#[cfg(all(unix, target_pointer_width = "64"))]
unsafe impl Send for MappedFile {}
#[cfg(all(unix, target_pointer_width = "64"))]
unsafe impl Sync for MappedFile {}

impl MappedFile {
    /// Maps `path` read-only.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be opened, its length cannot be read, or
    /// the kernel refuses the mapping.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::open(path)?;
        Self::from_file(&file)
    }

    #[cfg(all(unix, target_pointer_width = "64"))]
    fn from_file(file: &File) -> io::Result<Self> {
        use std::os::fd::AsRawFd;

        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
        if len == 0 {
            // Zero-length mmap is EINVAL; an empty slice needs no mapping.
            return Ok(MappedFile {
                ptr: std::ptr::null(),
                len: 0,
            });
        }
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(MappedFile {
            ptr: ptr.cast_const().cast(),
            len,
        })
    }

    #[cfg(not(all(unix, target_pointer_width = "64")))]
    fn from_file(file: &File) -> io::Result<Self> {
        use std::io::Read;
        let mut buf = Vec::new();
        (&*file).take(u64::MAX).read_to_end(&mut buf)?;
        Ok(MappedFile { buf })
    }

    /// The mapped bytes. `&[u8]` implements [`std::io::Read`], so this plugs
    /// straight into the streaming artifact loaders.
    pub fn as_slice(&self) -> &[u8] {
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            if self.len == 0 {
                &[]
            } else {
                // Sound: ptr/len came from a successful PROT_READ mapping
                // that lives exactly as long as `self`.
                unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
            }
        }
        #[cfg(not(all(unix, target_pointer_width = "64")))]
        {
            &self.buf
        }
    }

    /// Number of mapped bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the file was empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
impl Drop for MappedFile {
    fn drop(&mut self) {
        if self.len > 0 {
            // Failure here leaks the mapping but cannot corrupt memory.
            unsafe { sys::munmap(self.ptr.cast_mut().cast(), self.len) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("xbar_mmap_{}_{tag}", std::process::id()))
    }

    #[test]
    fn maps_bytes_identically_to_read() {
        let path = temp_path("bytes");
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &payload).unwrap();
        let map = MappedFile::open(&path).unwrap();
        assert_eq!(map.as_slice(), &payload[..]);
        assert_eq!(map.len(), payload.len());
        assert!(!map.is_empty());
        drop(map);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = temp_path("empty");
        std::fs::write(&path, b"").unwrap();
        let map = MappedFile::open(&path).unwrap();
        assert!(map.is_empty());
        assert_eq!(map.as_slice(), b"");
        drop(map);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        assert!(MappedFile::open(temp_path("missing_never_written")).is_err());
    }

    #[test]
    fn mapped_slice_reads_as_a_reader() {
        use std::io::Read;
        let path = temp_path("reader");
        std::fs::write(&path, b"stream me").unwrap();
        let map = MappedFile::open(&path).unwrap();
        let mut out = String::new();
        map.as_slice().read_to_string(&mut out).unwrap();
        assert_eq!(out, "stream me");
        drop(map);
        std::fs::remove_file(&path).ok();
    }
}
