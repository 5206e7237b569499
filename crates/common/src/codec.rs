//! Length-prefixed record codec.
//!
//! Two roles:
//!
//! 1. **Pangea page layout** — pages written by the sequential-write service
//!    contain a stream of length-prefixed records; the object iterator of the
//!    sequential-read service parses them back (paper §8).
//! 2. **Layer-boundary cost model** — the layered baselines must pay real
//!    serialization and copy costs at every layer crossing (paper §1,
//!    "Interfacing Overhead"). They do that by encoding/decoding through this
//!    codec, so the overhead is executed, not estimated.
//!
//! The format is deliberately simple: a `u32` little-endian length followed
//! by the payload bytes. Records are self-framing so a page can be scanned
//! without an index.

use crate::error::{PangeaError, Result};

/// Types that can be written into Pangea pages and read back.
///
/// Implementations should be cheap; the hot paths encode directly into page
/// memory without intermediate buffers where possible.
pub trait Record: Sized {
    /// Appends this record's payload bytes to `out` (no length prefix).
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes a record from its payload bytes.
    fn decode(bytes: &[u8]) -> Result<Self>;

    /// Encoded payload size, used for capacity planning. Implementations
    /// must return exactly the number of bytes `encode` appends.
    fn encoded_len(&self) -> usize;
}

impl Record for Vec<u8> {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }

    fn decode(bytes: &[u8]) -> Result<Self> {
        Ok(bytes.to_vec())
    }

    fn encoded_len(&self) -> usize {
        self.len()
    }
}

impl Record for String {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }

    fn decode(bytes: &[u8]) -> Result<Self> {
        String::from_utf8(bytes.to_vec())
            .map_err(|e| PangeaError::Corruption(format!("invalid utf-8 record: {e}")))
    }

    fn encoded_len(&self) -> usize {
        self.len()
    }
}

impl Record for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> Result<Self> {
        let arr: [u8; 8] = bytes
            .try_into()
            .map_err(|_| PangeaError::Corruption("u64 record with wrong length".into()))?;
        Ok(u64::from_le_bytes(arr))
    }

    fn encoded_len(&self) -> usize {
        8
    }
}

impl Record for i64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> Result<Self> {
        let arr: [u8; 8] = bytes
            .try_into()
            .map_err(|_| PangeaError::Corruption("i64 record with wrong length".into()))?;
        Ok(i64::from_le_bytes(arr))
    }

    fn encoded_len(&self) -> usize {
        8
    }
}

impl Record for Vec<f64> {
    fn encode(&self, out: &mut Vec<u8>) {
        for v in self {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn decode(bytes: &[u8]) -> Result<Self> {
        if !bytes.len().is_multiple_of(8) {
            return Err(PangeaError::Corruption(
                "f64 vector record not a multiple of 8 bytes".into(),
            ));
        }
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn encoded_len(&self) -> usize {
        self.len() * 8
    }
}

/// Encodes one record with its length prefix into a fresh buffer.
pub fn encode_record<R: Record>(r: &R) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + r.encoded_len());
    out.extend_from_slice(&(r.encoded_len() as u32).to_le_bytes());
    r.encode(&mut out);
    out
}

/// Decodes one length-prefixed record from the front of `bytes`, returning
/// the record and the number of bytes consumed.
pub fn decode_record<R: Record>(bytes: &[u8]) -> Result<(R, usize)> {
    let mut reader = ByteReader::new(bytes);
    let r = reader.read_record()?;
    Ok((r, reader.position()))
}

/// Sequentially writes length-prefixed records into a byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends one length-prefixed record.
    pub fn write_record<R: Record>(&mut self, r: &R) {
        self.buf
            .extend_from_slice(&(r.encoded_len() as u32).to_le_bytes());
        r.encode(&mut self.buf);
    }

    /// Appends raw bytes with a length prefix.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.buf
            .extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a bare little-endian `u64` (no length prefix), for
    /// fixed-position header fields.
    pub fn write_u64_le(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// Sequentially reads length-prefixed records from a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a byte slice for reading.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// True when all records have been read.
    pub fn is_exhausted(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    /// Reads a bare little-endian `u64` written by
    /// [`ByteWriter::write_u64_le`].
    pub fn read_u64_le(&mut self) -> Result<u64> {
        let end = self.pos + 8;
        let bytes = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| PangeaError::Corruption("truncated fixed u64 field".into()))?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(bytes);
        self.pos = end;
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads the next record's payload without copying.
    pub fn read_bytes(&mut self) -> Result<&'a [u8]> {
        if self.pos + 4 > self.bytes.len() {
            return Err(PangeaError::Corruption(
                "truncated record length prefix".into(),
            ));
        }
        let len =
            u32::from_le_bytes(self.bytes[self.pos..self.pos + 4].try_into().unwrap()) as usize;
        let start = self.pos + 4;
        let end = start + len;
        if end > self.bytes.len() {
            return Err(PangeaError::Corruption(format!(
                "record of {len} B overruns buffer of {} B",
                self.bytes.len()
            )));
        }
        self.pos = end;
        Ok(&self.bytes[start..end])
    }

    /// Reads and decodes the next record.
    pub fn read_record<R: Record>(&mut self) -> Result<R> {
        let payload = self.read_bytes()?;
        R::decode(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_u64_fields_roundtrip_and_truncate_to_corruption() {
        let mut w = ByteWriter::new();
        w.write_u64_le(7);
        w.write_record(&"x".to_string());
        assert_eq!(w.len(), 8 + 4 + 1);
        let mut r = ByteReader::new(w.as_bytes());
        assert_eq!(r.read_u64_le().unwrap(), 7);
        assert_eq!(r.remaining(), 5);
        assert_eq!(r.read_record::<String>().unwrap(), "x");
        assert!(matches!(
            ByteReader::new(&[1, 2, 3]).read_u64_le(),
            Err(PangeaError::Corruption(_))
        ));
    }

    #[test]
    fn roundtrip_mixed_records() {
        let mut w = ByteWriter::new();
        w.write_record(&"hello".to_string());
        w.write_record(&42u64);
        w.write_record(&vec![1.0f64, 2.5, -3.25]);
        let buf = w.into_bytes();

        let mut r = ByteReader::new(&buf);
        assert_eq!(r.read_record::<String>().unwrap(), "hello");
        assert_eq!(r.read_record::<u64>().unwrap(), 42);
        assert_eq!(r.read_record::<Vec<f64>>().unwrap(), vec![1.0, 2.5, -3.25]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_prefix_is_an_error() {
        let buf = [5u8, 0, 0]; // only 3 of 4 length bytes
        let mut r = ByteReader::new(&buf);
        assert!(matches!(r.read_bytes(), Err(PangeaError::Corruption(_))));
    }

    #[test]
    fn overrunning_payload_is_an_error() {
        let mut buf = (10u32).to_le_bytes().to_vec();
        buf.extend_from_slice(b"short"); // claims 10, provides 5
        let mut r = ByteReader::new(&buf);
        assert!(matches!(r.read_bytes(), Err(PangeaError::Corruption(_))));
    }

    #[test]
    fn empty_record_roundtrips() {
        let enc = encode_record(&Vec::<u8>::new());
        let (dec, used) = decode_record::<Vec<u8>>(&enc).unwrap();
        assert!(dec.is_empty());
        assert_eq!(used, 4);
    }

    #[test]
    fn wrong_width_u64_rejected() {
        let mut w = ByteWriter::new();
        w.write_bytes(&[1, 2, 3]); // 3 bytes, not 8
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert!(r.read_record::<u64>().is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = ByteWriter::new();
        w.write_bytes(&[0xff, 0xfe]);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert!(r.read_record::<String>().is_err());
    }

    #[test]
    fn encoded_len_contract_holds() {
        let s = "abcdef".to_string();
        let mut out = Vec::new();
        s.encode(&mut out);
        assert_eq!(out.len(), s.encoded_len());
        let v = vec![0.5f64; 7];
        let mut out = Vec::new();
        v.encode(&mut out);
        assert_eq!(out.len(), v.encoded_len());
    }
}
