//! Low-level byte cursor primitives shared by the DEX, APK and native
//! library encodings.
//!
//! All multi-byte integers are little-endian. Strings are length-prefixed
//! UTF-8. The writer appends straight into its output buffer; the reader
//! borrows its input and hands out borrowed slices, so a caller copies
//! only what it keeps. The reader reports structured errors on truncation
//! or invalid data instead of panicking, which the decompiler failure-mode
//! analysis relies on.

use crate::DexError;

/// A growable little-endian byte writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Creates an empty writer with room for `n` bytes, for an encoder
    /// that knows its output size up front.
    pub fn with_capacity(n: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(n),
        }
    }

    /// Appends a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a `u32` length prefix followed by UTF-8 bytes.
    pub fn str(&mut self, v: &str) {
        self.blob(v.as_bytes());
    }

    /// Appends a `u32` length prefix followed by raw bytes.
    pub fn blob(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.bytes(v);
    }

    /// Overwrites the little-endian `u32` written at byte offset `at`
    /// (a header field patched once the bytes after it are known).
    ///
    /// # Panics
    ///
    /// Panics if fewer than 4 bytes were written from `at`.
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finishes and returns the accumulated bytes in an exact-size buffer
    /// (`capacity() == len()`): encoded files are often kept for a whole
    /// run, so they carry no growth slack.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.buf.shrink_to_fit();
        self.buf
    }
}

/// A checked little-endian byte reader over a borrowed buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Creates a reader over `data`, without copying it.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { buf: data }
    }

    fn truncated(&self, n: usize, what: &str) -> DexError {
        DexError::Truncated {
            what: what.to_string(),
            needed: n,
            available: self.buf.len(),
        }
    }

    /// Reads the next `N` bytes as an array.
    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], DexError> {
        let (head, rest) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or_else(|| self.truncated(N, what))?;
        self.buf = rest;
        Ok(*head)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`DexError::Truncated`] when the buffer is exhausted.
    pub fn u8(&mut self, what: &str) -> Result<u8, DexError> {
        self.array::<1>(what).map(|[b]| b)
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`DexError::Truncated`] when fewer than 2 bytes remain.
    pub fn u16(&mut self, what: &str) -> Result<u16, DexError> {
        self.array(what).map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`DexError::Truncated`] when fewer than 4 bytes remain.
    pub fn u32(&mut self, what: &str) -> Result<u32, DexError> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`DexError::Truncated`] when fewer than 8 bytes remain.
    pub fn u64(&mut self, what: &str) -> Result<u64, DexError> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// Returns [`DexError::Truncated`] when fewer than 8 bytes remain.
    pub fn i64(&mut self, what: &str) -> Result<i64, DexError> {
        self.array(what).map(i64::from_le_bytes)
    }

    /// Reads exactly `n` raw bytes, borrowed from the input.
    ///
    /// # Errors
    ///
    /// Returns [`DexError::Truncated`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], DexError> {
        if n > self.buf.len() {
            return Err(self.truncated(n, what));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Reads a length-prefixed UTF-8 string, borrowed from the input.
    ///
    /// # Errors
    ///
    /// Returns [`DexError::Truncated`] on short input or
    /// [`DexError::Invalid`] on non-UTF-8 bytes or an absurd length.
    pub fn str(&mut self, what: &str) -> Result<&'a str, DexError> {
        let raw = self.blob(what)?;
        std::str::from_utf8(raw).map_err(|_| DexError::Invalid(format!("{what}: invalid UTF-8")))
    }

    /// Reads a length-prefixed blob, borrowed from the input.
    ///
    /// # Errors
    ///
    /// Returns [`DexError::Truncated`] on short input.
    pub fn blob(&mut self, what: &str) -> Result<&'a [u8], DexError> {
        let len = self.u32(what)? as usize;
        self.take(len, what)
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Whether the reader is fully consumed.
    pub fn is_exhausted(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut w = Writer::new();
        w.u8(0xAB);
        w.u16(0x1234);
        w.u32(0xDEAD_BEEF);
        w.u64(0x0102_0304_0506_0708);
        w.i64(-42);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 0xAB);
        assert_eq!(r.u16("b").unwrap(), 0x1234);
        assert_eq!(r.u32("c").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("d").unwrap(), 0x0102_0304_0506_0708);
        assert_eq!(r.i64("e").unwrap(), -42);
        assert!(r.is_exhausted());
    }

    #[test]
    fn round_trip_strings_and_blobs() {
        let mut w = Writer::new();
        w.str("héllo");
        w.blob(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.str("s").unwrap(), "héllo");
        assert_eq!(r.blob("b").unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn reads_borrow_the_input() {
        let mut w = Writer::new();
        w.str("abc");
        w.blob(&[4, 5]);
        w.u8(6);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(std::ptr::eq(r.str("s").unwrap().as_ptr(), &bytes[4]));
        assert!(std::ptr::eq(r.blob("b").unwrap().as_ptr(), &bytes[11]));
        assert!(std::ptr::eq(r.take(1, "t").unwrap().as_ptr(), &bytes[13]));
        assert!(r.is_exhausted());
    }

    #[test]
    fn patched_u32_lands_in_place_and_output_is_exact_size() {
        let mut w = Writer::new();
        w.u16(7);
        w.u32(0);
        w.u8(9);
        w.patch_u32(2, 0xDEAD_BEEF);
        let bytes = w.into_bytes();
        assert_eq!(bytes, [7, 0, 0xEF, 0xBE, 0xAD, 0xDE, 9]);
        assert_eq!(bytes.capacity(), bytes.len());
    }

    #[test]
    fn truncation_is_reported() {
        let mut w = Writer::new();
        w.u32(10);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let err = r.str("name").unwrap_err();
        assert!(matches!(err, DexError::Truncated { .. }), "{err:?}");
    }

    #[test]
    fn invalid_utf8_is_reported() {
        let mut w = Writer::new();
        w.u32(2);
        w.bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let err = r.str("name").unwrap_err();
        assert!(matches!(err, DexError::Invalid(_)), "{err:?}");
    }

    #[test]
    fn oversized_length_prefix_is_truncation_not_alloc() {
        // A hostile length prefix must not cause a huge allocation.
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.blob("b"), Err(DexError::Truncated { .. })));
    }
}
