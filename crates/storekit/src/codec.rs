//! Little-endian byte codec for snapshot payloads.
//!
//! Every serialized integer is fixed-width little-endian and every string
//! is `u32` length-prefixed UTF-8, so encoded payloads are byte-identical
//! across platforms and builds — the raw material of the snapshot
//! byte-identity contract (DESIGN.md §12). Floats travel as `to_bits`
//! images, never as text, so `-0.0`, NaN payloads, and subnormals
//! round-trip exactly.

use crate::StoreError;

/// An append-only encode buffer.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian two's complement.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64` (fails loudly on 128-bit platforms at
    /// compile time via the cast).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` as its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a `u32`-length-prefixed byte run.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// A cursor over encoded bytes; every read is bounds-checked and returns
/// a typed [`StoreError::Decode`] on truncation instead of panicking.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// `Ok` when the cursor has consumed every byte: a decoder calls it
    /// after its last field, so bytes its encoder never wrote are a typed
    /// [`StoreError::Decode`], not ignored.
    pub fn finish(&self) -> Result<(), StoreError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(decode_err(&format!("{n} trailing bytes at {}", self.pos))),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(n).ok_or_else(|| decode_err("length overflow"))?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| decode_err(&format!("truncated: need {n} bytes at {}", self.pos)))?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, StoreError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, StoreError> {
        Ok(self.u64()? as i64)
    }

    /// Reads a `u64` back into `usize`, rejecting values that do not fit.
    pub fn usize(&mut self) -> Result<usize, StoreError> {
        usize::try_from(self.u64()?).map_err(|_| decode_err("usize overflow"))
    }

    /// Reads the element count of a collection whose every element
    /// encodes to at least one byte, rejecting a count larger than the
    /// bytes left — so a decoder can size its allocation by it.
    pub fn count(&mut self) -> Result<usize, StoreError> {
        let n = self.u64()?;
        usize::try_from(n).ok().filter(|&n| n <= self.remaining()).ok_or_else(|| {
            decode_err(&format!("count {n} exceeds the {} bytes left", self.remaining()))
        })
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`, rejecting bytes other than 0/1.
    pub fn bool(&mut self) -> Result<bool, StoreError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(decode_err(&format!("invalid bool byte {b}"))),
        }
    }

    /// Reads a `u32`-length-prefixed byte run.
    pub fn bytes(&mut self) -> Result<&'a [u8], StoreError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, StoreError> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|_| decode_err("invalid utf-8"))
    }
}

fn decode_err(reason: &str) -> StoreError {
    StoreError::Decode(reason.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_type() {
        let mut e = Encoder::new();
        e.u8(7);
        e.u16(0xBEEF);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX);
        e.i64(-42);
        e.usize(12345);
        e.f64(-0.0);
        e.bool(true);
        e.bytes(b"raw");
        e.str("héllo");
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 0xBEEF);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.usize().unwrap(), 12345);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(d.bool().unwrap());
        assert_eq!(d.bytes().unwrap(), b"raw");
        assert_eq!(d.str().unwrap(), "héllo");
        d.finish().unwrap();
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut e = Encoder::new();
        e.u32(9);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(d.finish().is_err(), "four bytes left");
        assert!(d.u64().is_err(), "reading past the end must not panic");
        let mut d2 = Decoder::new(&bytes);
        assert!(d2.bytes().is_err(), "length prefix larger than payload");
        let mut e = Encoder::new();
        e.u64(3);
        e.bytes(b"");
        let bytes = e.into_bytes();
        assert_eq!(Decoder::new(&bytes).count().unwrap(), 3, "one byte per element is enough");
        for huge in [5, 1 << 60, u64::MAX] {
            let mut e = Encoder::new();
            e.u64(huge);
            e.u32(0);
            let bytes = e.into_bytes();
            assert!(Decoder::new(&bytes).count().is_err(), "count {huge}");
        }
    }

    #[test]
    fn invalid_bool_and_utf8_rejected() {
        let mut d = Decoder::new(&[2]);
        assert!(d.bool().is_err());
        let mut e = Encoder::new();
        e.bytes(&[0xFF, 0xFE]);
        let bytes = e.into_bytes();
        assert!(Decoder::new(&bytes).str().is_err());
    }

    #[test]
    fn encoding_is_deterministic() {
        let enc = |x: f64| {
            let mut e = Encoder::new();
            e.f64(x);
            e.str("same");
            e.into_bytes()
        };
        assert_eq!(enc(1.5), enc(1.5));
        assert_ne!(enc(0.0), enc(-0.0), "float identity is bit-level");
    }
}
