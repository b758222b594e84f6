//! Little-endian byte writer and reader.
//!
//! Every durable artifact is written in an explicit little-endian format
//! through this writer/reader pair: the primitives live here, and what a
//! record *is* — its fields and their order — is declared once upstream,
//! as a `Wire` impl in `pgdesign-inum`. Numbers are fixed-width
//! `to_le_bytes`; `f64` goes through `to_bits` so NaN payloads and signed
//! zeros round-trip exactly; variable-length data is a `u64` length prefix
//! followed by raw bytes.

use std::fmt;

/// A structural decode failure: what was being read and at which byte
/// offset the input ran out or stopped making sense.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    pub what: &'static str,
    pub at: usize,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {} at byte {}", self.what, self.at)
    }
}

impl std::error::Error for CodecError {}

/// Append-only little-endian encoder.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Forget what was written, keeping the buffer for the next encoding.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Collection length prefix (stored as `u64`).
    pub fn put_len(&mut self, n: usize) {
        self.put_u64(n as u64);
    }

    /// Raw bytes without a length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Length-prefixed byte blob.
    pub fn put_blob(&mut self, bytes: &[u8]) {
        self.put_len(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_blob(s.as_bytes());
    }
}

/// Cursor-based little-endian decoder over a borrowed buffer.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    pub fn position(&self) -> usize {
        self.pos
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError { what, at: self.pos });
        }
        let slice = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or(CodecError { what, at: self.pos })?;
        self.pos += n;
        Ok(slice)
    }

    /// Fixed-width read as an array — the panic-free backbone of every
    /// integer getter (a short buffer is a [`CodecError`], never a slice
    /// panic).
    fn take_array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], CodecError> {
        let at = self.pos;
        self.take(N, what)?
            .try_into()
            .map_err(|_| CodecError { what, at })
    }

    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        let [b] = self.take_array::<1>("u8")?;
        Ok(b)
    }

    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError {
                what: "bool",
                at: self.pos - 1,
            }),
        }
    }

    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take_array("u16")?))
    }

    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take_array("u32")?))
    }

    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take_array("u64")?))
    }

    pub fn get_u128(&mut self) -> Result<u128, CodecError> {
        Ok(u128::from_le_bytes(self.take_array("u128")?))
    }

    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take_array("i64")?))
    }

    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Collection length prefix. Guarded against lengths that could not
    /// possibly fit in the remaining input (each element is ≥ 1 byte), so
    /// corrupt data fails fast instead of triggering huge allocations.
    pub fn get_len(&mut self) -> Result<usize, CodecError> {
        let at = self.pos;
        let n = self.get_u64()?;
        if n > self.remaining() as u64 {
            return Err(CodecError {
                what: "length prefix exceeds remaining input",
                at,
            });
        }
        Ok(n as usize)
    }

    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n, "raw bytes")
    }

    pub fn get_blob(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.get_len()?;
        self.take(n, "blob")
    }

    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let at = self.pos;
        let bytes = self.get_blob()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError {
            what: "invalid utf-8 string",
            at,
        })
    }

    /// Assert that the whole input was consumed.
    pub fn expect_end(&self, what: &'static str) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError { what, at: self.pos })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u16(65535);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 1);
        w.put_u128(1u128 << 100);
        w.put_i64(-42);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_str("héllo");
        w.put_blob(&[1, 2, 3]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u16().unwrap(), 65535);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_u128().unwrap(), 1u128 << 100);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_f64().unwrap().is_nan());
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_blob().unwrap(), &[1, 2, 3]);
        r.expect_end("trailing").unwrap();
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let mut w = ByteWriter::new();
        w.put_u64(123);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        assert!(r.get_u64().is_err());
    }

    #[test]
    fn absurd_length_prefix_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // claims ~2^64 elements with no payload
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_len().is_err());
    }
}
