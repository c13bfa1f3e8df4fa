//! The byte codec every binary format in the workspace is built on: the
//! `*.ccsnap` snapshot and `*.ccdelta` delta files and the `ccapsp serve`
//! wire protocol.
//!
//! * [`Fnv1a`] — streaming FNV-1a 64 with a byte step (the checksums) and
//!   a word step that absorbs a whole `u64` at once (the state
//!   fingerprints); [`fnv1a`] hashes one buffer.
//! * [`Reader`] — a bounded little-endian reader over untrusted bytes.
//!   Overruns are [`DecodeError::Truncated`], never a panic, and every
//!   length or count field goes through [`Reader::len_u64`], which
//!   converts with `usize::try_from`, so a 32-bit build rejects a value it
//!   cannot address instead of silently truncating it.
//! * [`put_u32`], [`put_u64`], [`put_bytes`] — the little-endian writers.
//! * [`SectionWriter`] and [`read_sections`] — the file framing ccsnap and
//!   ccdelta share; all integers little-endian:
//!
//! ```text
//! magic (8 bytes) · format version u32 · section count u32
//! per section: tag u32 · payload length u64 · FNV-1a checksum u64 · payload
//! ```
//!
//! * [`write_atomic`] — the crash-safe file writer every save goes through.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Streaming FNV-1a 64; `Fnv1a::default()` is the empty hash.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Absorbs `bytes` one byte per step.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Absorbs a whole word in one step (not the same as its 8 bytes).
    #[inline]
    pub fn word(&mut self, w: u64) -> &mut Self {
        self.0 = (self.0 ^ w).wrapping_mul(Self::PRIME);
        self
    }

    /// The hash so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 of one buffer.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv1a::default().bytes(bytes).finish()
}

/// Everything that can go wrong decoding codec bytes; each format maps
/// these one to one onto its own error type.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input does not start with the format's magic.
    BadMagic,
    /// The format version is not one the reader accepts.
    UnsupportedVersion(u32),
    /// The input ended before a declared length was satisfied.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// A section's payload does not match its stored checksum.
    ChecksumMismatch {
        /// The section's name.
        section: &'static str,
    },
    /// Structurally invalid content.
    Malformed(String),
}

/// Bounded little-endian reader; see the [module docs](self).
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Consumes the next `n` bytes; a failed read consumes nothing.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let available = self.remaining();
        if available < n {
            return Err(DecodeError::Truncated {
                needed: n,
                available,
            });
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a `u8`.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads `count` `u64`s in one bounds check, so a count the input
    /// cannot hold is Truncated before anything is allocated.
    pub fn u64s(&mut self, count: usize) -> Result<Vec<u64>, DecodeError> {
        let bytes = self.take(count.saturating_mul(8))?;
        Ok(bytes
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")))
            .collect())
    }

    /// Reads a `u64` length, count or node id as a `usize`, checked: the
    /// one path every decoder takes before looping, allocating or indexing
    /// on a field from untrusted bytes.
    #[inline]
    pub fn len_u64(&mut self) -> Result<usize, DecodeError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| {
            DecodeError::Malformed(format!(
                "length field {v} exceeds this platform's addressable size"
            ))
        })
    }

    /// Reads a `u64`-length-prefixed byte string (see [`put_bytes`]).
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.len_u64()?;
        self.take(len)
    }

    /// Reads a `u64`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| DecodeError::Malformed("non-utf8 string".into()))
    }

    /// Succeeds when every byte was consumed; otherwise Malformed, naming
    /// `what` the leftover bytes follow or sit in.
    pub fn finish(&self, what: &str) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(DecodeError::Malformed(format!("{n} trailing bytes {what}"))),
        }
    }
}

/// Appends a little-endian `u32`.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` length followed by the bytes (see [`Reader::bytes`]).
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

/// Builds a sectioned file (see the [module docs](self)); each payload is
/// written in place and its length and checksum filled in behind it.
#[derive(Debug)]
pub struct SectionWriter {
    out: Vec<u8>,
}

impl SectionWriter {
    /// Starts a file with `magic`, `version` and no sections.
    pub fn new(magic: &[u8; 8], version: u32) -> Self {
        let mut out = magic.to_vec();
        put_u32(&mut out, version);
        put_u32(&mut out, 0);
        Self { out }
    }

    /// Appends a section whose payload `body` writes.
    pub fn section(mut self, tag: u32, body: impl FnOnce(&mut Vec<u8>)) -> Self {
        put_u32(&mut self.out, tag);
        let head = self.out.len();
        self.out.extend_from_slice(&[0; 16]);
        body(&mut self.out);
        let payload = &self.out[head + 16..];
        let (len, sum) = (payload.len() as u64, fnv1a(payload));
        self.out[head..head + 8].copy_from_slice(&len.to_le_bytes());
        self.out[head + 8..head + 16].copy_from_slice(&sum.to_le_bytes());
        let count = u32::from_le_bytes(self.out[12..16].try_into().expect("4 bytes")) + 1;
        self.out[12..16].copy_from_slice(&count.to_le_bytes());
        self
    }

    /// The finished file bytes.
    pub fn finish(self) -> Vec<u8> {
        self.out
    }
}

/// Reads a sectioned file: checks `magic`, accepts only `versions`, and
/// verifies every section's checksum. Returns the version and the payload
/// of each `(tag, name)` in `sections`, in that order. Unknown, duplicate
/// and missing sections and trailing bytes are Malformed.
pub fn read_sections<'a, const N: usize>(
    data: &'a [u8],
    magic: &[u8; 8],
    versions: &[u32],
    sections: [(u32, &'static str); N],
) -> Result<(u32, [&'a [u8]; N]), DecodeError> {
    let mut r = Reader::new(data);
    if r.take(magic.len())? != magic {
        return Err(DecodeError::BadMagic);
    }
    let version = r.u32()?;
    if !versions.contains(&version) {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    let mut found: [Option<&[u8]>; N] = [None; N];
    for _ in 0..r.u32()? {
        let tag = r.u32()?;
        let len = r.len_u64()?;
        let checksum = r.u64()?;
        let payload = r.take(len)?;
        let Some(i) = sections.iter().position(|&(t, _)| t == tag) else {
            return Err(DecodeError::Malformed(format!("unknown section tag {tag}")));
        };
        let section = sections[i].1;
        if fnv1a(payload) != checksum {
            return Err(DecodeError::ChecksumMismatch { section });
        }
        if found[i].replace(payload).is_some() {
            return Err(DecodeError::Malformed(format!(
                "duplicate {section} section"
            )));
        }
    }
    r.finish("after the last section")?;
    if let Some(i) = found.iter().position(Option::is_none) {
        return Err(DecodeError::Malformed(format!(
            "missing {} section",
            sections[i].1
        )));
    }
    Ok((version, found.map(Option::unwrap_or_default)))
}

/// Writes `bytes` to `path` so that a crash or a failed write leaves
/// either the old file or the new one, never a torn mix: the bytes go to a
/// temporary file in the same directory, which is synced and then renamed
/// over `path`. On Unix the directory is synced too, so the rename
/// survives a crash.
///
/// # Errors
///
/// Any I/O error; the temporary file is removed on failure.
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<()> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let path = path.as_ref();
    let name = path.file_name().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
    })?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(name);
    let unique = NEXT.fetch_add(1, Ordering::Relaxed);
    tmp_name.push(format!(".{}.{unique}.tmp", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let written = (|| {
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written?;
    #[cfg(unix)]
    {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors_and_streams() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            Fnv1a::default().bytes(b"foo").bytes(b"bar").finish(),
            fnv1a(b"foobar")
        );
        // A word step is one absorption, not eight byte steps.
        assert_ne!(
            Fnv1a::default().word(7).finish(),
            fnv1a(&7u64.to_le_bytes())
        );
    }

    #[test]
    fn reads_are_bounds_checked() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.remaining(), 2);
        assert_eq!(
            r.u32(),
            Err(DecodeError::Truncated {
                needed: 4,
                available: 2
            })
        );
        // A failed read consumes nothing.
        assert_eq!(r.take(2), Ok(&[2, 3][..]));
        assert_eq!(r.finish("after the end"), Ok(()));
        assert_eq!(Reader::new(&7u64.to_le_bytes()).u64s(1), Ok(vec![7]));
        assert!(matches!(
            Reader::new(&[0; 16]).u64s(usize::MAX / 4),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn len_u64_is_checked_not_truncating() {
        let bytes = u64::MAX.to_le_bytes();
        let got = Reader::new(&bytes).len_u64();
        // On 64-bit targets u64::MAX fits; 32-bit targets get a typed
        // error instead of a silent truncation.
        if usize::BITS >= 64 {
            assert_eq!(got, Ok(usize::MAX));
        } else {
            assert!(matches!(got, Err(DecodeError::Malformed(_))));
        }
    }

    #[test]
    fn sections_round_trip_and_reject_bad_framing() {
        const MAGIC: [u8; 8] = *b"CCTEST\0\n";
        let write = |tags: &[u32]| {
            tags.iter()
                .fold(SectionWriter::new(&MAGIC, 3), |w, &tag| {
                    w.section(tag, |b| put_u64(b, u64::from(tag)))
                })
                .finish()
        };
        let names = [(1, "one"), (2, "two")];
        let bytes = write(&[2, 1]);
        let (version, [one, two]) = read_sections(&bytes, &MAGIC, &[3], names).unwrap();
        assert_eq!(
            (version, one, two),
            (3, &1u64.to_le_bytes()[..], &2u64.to_le_bytes()[..])
        );

        let malformed = |bytes: &[u8]| {
            matches!(
                read_sections(bytes, &MAGIC, &[3], names),
                Err(DecodeError::Malformed(_))
            )
        };
        assert!(malformed(&write(&[1])), "missing section");
        assert!(malformed(&write(&[1, 2, 1])), "duplicate section");
        assert!(malformed(&write(&[1, 2, 9])), "unknown section");
        assert!(
            malformed(&[bytes.clone(), vec![0]].concat()),
            "trailing byte"
        );
        assert_eq!(
            read_sections(&bytes, &MAGIC, &[4], names),
            Err(DecodeError::UnsupportedVersion(3))
        );
        let mut flipped = bytes.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert_eq!(
            read_sections(&flipped, &MAGIC, &[3], names),
            Err(DecodeError::ChecksumMismatch { section: "one" })
        );
    }

    #[test]
    fn write_atomic_overwrites_in_place_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("cc_codec_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.bin");
        write_atomic(&path, b"the old, longer contents").unwrap();
        write_atomic(&path, b"new").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["state.bin"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
