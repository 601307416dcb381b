//! Durable artifacts: the one crash-safe file writer, the `.prev`
//! generation fallback, and the bounds-checked little-endian byte codec
//! behind every persisted format — `CCQCKPT` ([`crate::checkpoint`]),
//! `CCQRUNS` (ccq's run state), `CCQPACK` (ccq-infer's packed artifact)
//! and the text files of ccq-serve's job spool.
//!
//! The module is std-only and lives in ccq-nn because every crate that
//! persists state already depends on it. Formats keep their own error
//! types: each maps [`DurableError`] into the variants it returns.
//!
//! # Write protocol
//!
//! [`write_atomic`] writes a `<path>.tmp` sibling, fsyncs it, optionally
//! rotates the current file to `<path>.prev` ([`Rotate::KeepPrev`]),
//! renames the tmp file into place and fsyncs the parent directory, so
//! a crash at any point leaves either the old or the new bytes — never
//! a torn file. [`load_with_fallback`] reads the retained generation
//! when the current file is missing or corrupt.
//!
//! # Decoding
//!
//! [`ByteReader`] never panics and never allocates more than its input
//! can back: element counts use checked arithmetic, and every declared
//! length is checked against the bytes remaining before anything is
//! reserved. Lists of records are decoded element by element, so a
//! huge declared count fails at the first missing record.

use ccq_quant::{BitWidth, PolicyKind, QuantSpec};
use ccq_tensor::Tensor;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Highest tensor rank a decoder accepts.
const MAX_RANK: usize = 8;
/// Largest tensor (in elements) a decoder accepts.
const MAX_NUMEL: usize = 1 << 28;

/// Why a durable read or write failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableError {
    /// A filesystem step failed; the message names the step and path.
    Io(String),
    /// The bytes do not decode: truncation, an implausible length, or
    /// an invalid field.
    Format(String),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io(msg) | DurableError::Format(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for DurableError {}

/// Decoder result alias.
type Decoded<T> = std::result::Result<T, DurableError>;

fn invalid(msg: impl Into<String>) -> DurableError {
    DurableError::Format(msg.into())
}

/// What [`write_atomic`] does with the file it replaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rotate {
    /// Keep the replaced generation as `<path>.prev` (read back by
    /// [`load_with_fallback`]).
    KeepPrev,
    /// Overwrite the current file; no generation is retained.
    Replace,
}

/// `<path>.prev`: the retained previous generation of `path`.
pub fn prev_path(path: &Path) -> PathBuf {
    sibling(path, ".prev")
}

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(suffix);
    PathBuf::from(s)
}

/// Atomically replaces `path` with `bytes`: tmp sibling, fsync,
/// optional `.prev` rotation, rename, parent-directory fsync.
///
/// # Errors
///
/// Returns [`DurableError::Io`] naming the failing step. A failed
/// directory fsync is reported after the rename landed: the new file is
/// in place but not yet durable, and callers retry the whole write.
pub fn write_atomic(path: &Path, bytes: &[u8], rotate: Rotate) -> Result<(), DurableError> {
    write_atomic_faulted(path, bytes, rotate, false)
}

/// [`write_atomic`] with a fault seam at the post-rename directory
/// fsync: when `fail_dir_sync` is set, the write reports an injected
/// failure after the rename lands, exactly like a real barrier failure.
///
/// # Errors
///
/// Same contract as [`write_atomic`], plus the injected failure.
pub fn write_atomic_faulted(
    path: &Path,
    bytes: &[u8],
    rotate: Rotate,
    fail_dir_sync: bool,
) -> Result<(), DurableError> {
    let io =
        |what: &str, e: std::io::Error| DurableError::Io(format!("{what} {}: {e}", path.display()));
    let tmp = sibling(path, ".tmp");
    let mut f = fs::File::create(&tmp).map_err(|e| io("create tmp for", e))?;
    f.write_all(bytes).map_err(|e| io("write tmp for", e))?;
    f.sync_all().map_err(|e| io("fsync tmp for", e))?;
    drop(f);
    if rotate == Rotate::KeepPrev && path.exists() {
        fs::rename(path, prev_path(path)).map_err(|e| io("rotate previous for", e))?;
    }
    fs::rename(&tmp, path).map_err(|e| io("rename into", e))?;
    if fail_dir_sync {
        return Err(DurableError::Io(format!(
            "injected directory fsync failure for {}",
            path.display()
        )));
    }
    path.parent().map_or(Ok(()), sync_dir)
}

/// Fsyncs a directory so preceding renames in it survive power loss.
/// A directory that cannot be *opened* is skipped silently (some
/// filesystems refuse to open directories); a failed fsync on an opened
/// directory is a real durability error.
///
/// # Errors
///
/// Returns [`DurableError::Io`] when the fsync fails.
pub fn sync_dir(dir: &Path) -> Result<(), DurableError> {
    if let Ok(d) = fs::File::open(dir) {
        d.sync_all()
            .map_err(|e| DurableError::Io(format!("fsync dir {}: {e}", dir.display())))?;
    }
    Ok(())
}

/// Loads `path` with `load`, falling back to the retained
/// `<path>.prev` generation when the current file fails to load.
///
/// # Errors
///
/// Returns the current file's error when neither generation loads.
pub fn load_with_fallback<T, E>(
    path: &Path,
    mut load: impl FnMut(&Path) -> Result<T, E>,
) -> Result<T, E> {
    load(path).or_else(|primary| load(&prev_path(path)).map_err(|_| primary))
}

/// FNV-1a (64-bit) digest of a byte string; the byte-pin tests use it
/// to detect any drift in an encoding.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Little-endian encoder; the write half of the codec.
///
/// Counts and lengths are written as `u32` prefixes.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Appends bytes verbatim (magic numbers, pre-encoded sections).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// Appends a little-endian `f32`.
    pub fn f32(&mut self, v: f32) {
        self.raw(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    pub fn f64(&mut self, v: f64) {
        self.raw(&v.to_le_bytes());
    }

    /// Appends a count or length prefix.
    pub fn count(&mut self, n: usize) {
        self.u32(n as u32);
    }

    /// Appends a count-prefixed list, encoding each item with `item`.
    pub fn list<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) {
        self.count(items.len());
        for x in items {
            item(self, x);
        }
    }

    /// Appends length-prefixed bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.count(bytes.len());
        self.raw(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Appends a count-prefixed `f32` list.
    pub fn f32s(&mut self, vals: &[f32]) {
        self.count(vals.len());
        self.f32_run(vals);
    }

    fn f32_run(&mut self, vals: &[f32]) {
        self.buf.reserve(4 * vals.len());
        for &v in vals {
            self.f32(v);
        }
    }

    /// Appends a tensor shape: rank, then each dimension.
    pub fn shape(&mut self, dims: &[usize]) {
        self.list(dims, |w, &d| w.count(d));
    }

    /// Appends a tensor: its shape, then its elements (no count prefix;
    /// the shape implies it).
    pub fn tensor(&mut self, t: &Tensor) {
        self.shape(t.shape());
        self.f32_run(t.as_slice());
    }

    /// Appends a bit width as its raw `u32` bit count.
    pub fn bits(&mut self, b: BitWidth) {
        self.u32(b.bits());
    }

    /// Appends a quantization spec: policy code, weight bits, act bits.
    pub fn spec(&mut self, spec: QuantSpec) {
        self.u32(policy_code(spec.policy));
        self.bits(spec.weight_bits);
        self.bits(spec.act_bits);
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian decoder; the read half of the codec.
///
/// Every read returns [`DurableError::Format`] on truncation or an
/// invalid field, never panics, and reserves memory only for bytes that
/// are present.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Decoded<&'a [u8]> {
        if n > self.remaining() {
            return Err(invalid(format!(
                "truncated at byte {}: need {n} bytes, {} remain",
                self.pos,
                self.remaining()
            )));
        }
        self.pos += n;
        Ok(&self.buf[self.pos - n..self.pos])
    }

    fn array<const N: usize>(&mut self) -> Decoded<[u8; N]> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// Consumes a magic number; a mismatch reads "not a `what` (bad
    /// magic)".
    pub fn magic(&mut self, magic: &[u8], what: &str) -> Decoded<()> {
        match self.take(magic.len()) {
            Ok(m) if m == magic => Ok(()),
            _ => Err(invalid(format!("not a {what} (bad magic)"))),
        }
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Decoded<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Decoded<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Decoded<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `f32`.
    pub fn f32(&mut self) -> Decoded<f32> {
        self.array().map(f32::from_le_bytes)
    }

    /// Reads a little-endian `f64`.
    pub fn f64(&mut self) -> Decoded<f64> {
        self.array().map(f64::from_le_bytes)
    }

    /// Reads a `u32` count or length prefix.
    pub fn count(&mut self) -> Decoded<usize> {
        Ok(self.u32()? as usize)
    }

    /// Reads a count-prefixed list, decoding each item with `item`.
    /// Nothing is reserved up front: a declared count larger than the
    /// input fails at the first missing item.
    pub fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> Decoded<T>) -> Decoded<Vec<T>> {
        let n = self.count()?;
        (0..n).map(|_| item(self)).collect()
    }

    /// Reads length-prefixed bytes.
    pub fn bytes(&mut self) -> Decoded<&'a [u8]> {
        let n = self.count()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string; `what` names it in errors.
    pub fn string(&mut self, what: &str) -> Decoded<String> {
        let bytes = self.bytes()?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| invalid(format!("{what} is not UTF-8")))
    }

    /// Reads `n` consecutive `f32`s, checking the bytes exist first.
    fn f32_run(&mut self, n: usize) -> Decoded<Vec<f32>> {
        let len = n
            .checked_mul(4)
            .ok_or_else(|| invalid(format!("implausible f32 count {n}")))?;
        Ok(self
            .take(len)?
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Reads a count-prefixed `f32` list.
    pub fn f32s(&mut self) -> Decoded<Vec<f32>> {
        let n = self.count()?;
        self.f32_run(n)
    }

    /// Reads a tensor shape, rejecting a rank above 8 and an element
    /// count that overflows or exceeds 2^28.
    pub fn shape(&mut self) -> Decoded<Vec<usize>> {
        let rank = self.count()?;
        if rank > MAX_RANK {
            return Err(invalid(format!("implausible tensor rank {rank}")));
        }
        let dims = (0..rank)
            .map(|_| self.count())
            .collect::<Decoded<Vec<usize>>>()?;
        match dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d)) {
            Some(n) if n <= MAX_NUMEL => Ok(dims),
            _ => Err(invalid(format!("implausible tensor size {dims:?}"))),
        }
    }

    /// Reads a tensor written by [`ByteWriter::tensor`].
    pub fn tensor(&mut self) -> Decoded<Tensor> {
        let dims = self.shape()?;
        let data = self.f32_run(dims.iter().product())?;
        Tensor::from_vec(data, &dims).map_err(|e| invalid(e.to_string()))
    }

    /// Reads a bit width; zero (the pruning rung) is legal.
    pub fn bits(&mut self) -> Decoded<BitWidth> {
        BitWidth::new_allowing_zero(self.u32()?).map_err(|e| invalid(e.to_string()))
    }

    /// Reads a quantization spec written by [`ByteWriter::spec`].
    pub fn spec(&mut self) -> Decoded<QuantSpec> {
        let policy = policy_from_code(self.u32()?)?;
        Ok(QuantSpec::new(policy, self.bits()?, self.bits()?))
    }
}

fn policy_code(p: PolicyKind) -> u32 {
    match p {
        PolicyKind::Dorefa => 0,
        PolicyKind::Wrpn => 1,
        PolicyKind::Pact => 2,
        PolicyKind::Sawb => 3,
        PolicyKind::UniformAffine => 4,
        PolicyKind::MaxAbs => 5,
        PolicyKind::Aciq => 6,
        PolicyKind::Lsq => 7,
    }
}

fn policy_from_code(c: u32) -> Decoded<PolicyKind> {
    Ok(match c {
        0 => PolicyKind::Dorefa,
        1 => PolicyKind::Wrpn,
        2 => PolicyKind::Pact,
        3 => PolicyKind::Sawb,
        4 => PolicyKind::UniformAffine,
        5 => PolicyKind::MaxAbs,
        6 => PolicyKind::Aciq,
        7 => PolicyKind::Lsq,
        other => return Err(invalid(format!("unknown policy code {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_policy_code_round_trips() {
        let spec = |p| QuantSpec::new(p, BitWidth::ZERO, BitWidth::of(8));
        let mut w = ByteWriter::default();
        PolicyKind::ALL.into_iter().for_each(|p| w.spec(spec(p)));
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        for p in PolicyKind::ALL {
            assert_eq!(r.spec().unwrap(), spec(p));
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn hostile_fields_are_typed_errors_before_any_allocation() {
        let encode = |vals: &[u32]| {
            let mut w = ByteWriter::default();
            vals.iter().for_each(|&v| w.u32(v));
            w.finish()
        };
        let fails = |bytes: Vec<u8>, read: fn(&mut ByteReader<'_>) -> Decoded<()>| {
            matches!(
                read(&mut ByteReader::new(&bytes)),
                Err(DurableError::Format(_))
            )
        };
        // Overflowing element count; 2^27 elements (512 MiB) declared
        // with no data; rank 9; unknown policy code; huge lengths.
        assert!(fails(encode(&[3, u32::MAX, u32::MAX, u32::MAX]), |r| r
            .tensor()
            .map(drop)));
        assert!(fails(encode(&[3, 512, 512, 512]), |r| r.tensor().map(drop)));
        assert!(fails(encode(&[9]), |r| r.shape().map(drop)));
        assert!(fails(encode(&[99, 8, 8]), |r| r.spec().map(drop)));
        assert!(fails(encode(&[u32::MAX]), |r| r.bytes().map(drop)));
        assert!(fails(encode(&[u32::MAX]), |r| r.f32s().map(drop)));
        assert!(fails(encode(&[u32::MAX]), |r| r
            .list(ByteReader::u64)
            .map(drop)));
        assert!(fails(vec![0xFF, 0xFE], |r| r.magic(b"CCQ", "x")));
    }

    #[test]
    fn write_atomic_rotates_only_when_asked_and_falls_back() {
        let dir = std::env::temp_dir().join(format!("ccq_durable_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.bin");
        let read = |p: &Path| fs::read(p).map_err(|e| e.to_string());

        write_atomic(&path, b"one", Rotate::Replace).unwrap();
        write_atomic(&path, b"two", Rotate::Replace).unwrap();
        assert_eq!(read(&path).unwrap(), b"two");
        assert!(!prev_path(&path).exists());
        assert!(!sibling(&path, ".tmp").exists());

        write_atomic(&path, b"three", Rotate::KeepPrev).unwrap();
        assert_eq!(read(&prev_path(&path)).unwrap(), b"two");
        fs::remove_file(&path).unwrap();
        assert_eq!(load_with_fallback(&path, read).unwrap(), b"two");
        fs::remove_file(prev_path(&path)).unwrap();
        assert!(load_with_fallback(&path, read).is_err());

        // The fault seam reports after the rename lands.
        let err = write_atomic_faulted(&path, b"four", Rotate::KeepPrev, true).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert_eq!(read(&path).unwrap(), b"four");
        fs::remove_dir_all(&dir).ok();
    }
}
