//! Minimal binary codec used by the page store and the write-ahead log.
//!
//! Little-endian, length-prefixed, with a CRC32 helper for torn-write
//! detection. We deliberately avoid serde here: page and log layouts are
//! explicit on-disk formats whose byte layout is part of the system's
//! contract (and must stay stable for restart recovery to read old logs).

use crate::error::{Error, Result};
use crate::ids::{Lsn, NodeId, PageId, Psn, TxnId};

/// Appends primitive values to a byte buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// New empty encoder.
    pub fn new() -> Self {
        Encoder { buf: Vec::new() }
    }

    /// New encoder with preallocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, returning the buffer.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Writes a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a length-prefixed (u32) byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Writes a node id.
    pub fn put_node(&mut self, v: NodeId) {
        self.put_u32(v.0);
    }

    /// Writes a page id (packed u64).
    pub fn put_page(&mut self, v: PageId) {
        self.put_u64(v.to_u64());
    }

    /// Writes a transaction id.
    pub fn put_txn(&mut self, v: TxnId) {
        self.put_u32(v.node.0);
        self.put_u64(v.seq);
    }

    /// Writes an LSN.
    pub fn put_lsn(&mut self, v: Lsn) {
        self.put_u64(v.0);
    }

    /// Writes a PSN.
    pub fn put_psn(&mut self, v: Psn) {
        self.put_u64(v.0);
    }
}

/// Reads primitive values back from a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Decoder over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::Corrupt(format!(
                "decode underrun: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a single byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u16.
    pub fn get_u16(&mut self) -> Result<u16> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Reads a little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.get_u32()? as usize;
        self.take(n)
    }

    /// Reads a node id.
    pub fn get_node(&mut self) -> Result<NodeId> {
        Ok(NodeId(self.get_u32()?))
    }

    /// Reads a page id.
    pub fn get_page(&mut self) -> Result<PageId> {
        Ok(PageId::from_u64(self.get_u64()?))
    }

    /// Reads a transaction id.
    pub fn get_txn(&mut self) -> Result<TxnId> {
        let node = NodeId(self.get_u32()?);
        let seq = self.get_u64()?;
        Ok(TxnId { node, seq })
    }

    /// Reads an LSN.
    pub fn get_lsn(&mut self) -> Result<Lsn> {
        Ok(Lsn(self.get_u64()?))
    }

    /// Reads a PSN.
    pub fn get_psn(&mut self) -> Result<Psn> {
        Ok(Psn(self.get_u64()?))
    }
}

/// Incremental FNV-1a (64-bit) hasher.
///
/// Used by the model checker to fingerprint durable state so
/// convergent crash branches can be pruned; not a cryptographic hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// The offset-basis state.
    pub fn new() -> Self {
        Fnv1a::default()
    }

    /// Folds `data` into the state.
    pub fn write(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a u64 (little-endian) into the state.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Slice-by-16 lookup tables for [`crc32`]: `CRC_TABLES[0]` is the
/// classic bytewise table of the reflected IEEE polynomial, and
/// `CRC_TABLES[k][b]` advances `CRC_TABLES[0][b]` by `k` more zero
/// bytes, so one 16-byte block folds in with sixteen independent
/// lookups.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), slice-by-16.
///
/// Used to detect torn page writes and truncated log records. The
/// value is the standard CRC-32 of `data` — the same as a bytewise
/// table walk — so checksums already on disk stay valid.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        let x = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_primitives() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u16(0xBEEF);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(0x0123_4567_89AB_CDEF);
        e.put_bytes(b"hello");
        let v = e.into_vec();
        let mut d = Decoder::new(&v);
        assert_eq!(d.get_u8().unwrap(), 7);
        assert_eq!(d.get_u16().unwrap(), 0xBEEF);
        assert_eq!(d.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(d.get_bytes().unwrap(), b"hello");
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn round_trip_ids() {
        let mut e = Encoder::new();
        let pid = PageId::new(NodeId(9), 77);
        let tid = TxnId::new(NodeId(3), 12345);
        e.put_node(NodeId(9));
        e.put_page(pid);
        e.put_txn(tid);
        e.put_lsn(Lsn(42));
        e.put_psn(Psn(43));
        let v = e.into_vec();
        let mut d = Decoder::new(&v);
        assert_eq!(d.get_node().unwrap(), NodeId(9));
        assert_eq!(d.get_page().unwrap(), pid);
        assert_eq!(d.get_txn().unwrap(), tid);
        assert_eq!(d.get_lsn().unwrap(), Lsn(42));
        assert_eq!(d.get_psn().unwrap(), Psn(43));
    }

    #[test]
    fn underrun_is_corrupt_not_panic() {
        let mut d = Decoder::new(&[1, 2]);
        assert!(matches!(d.get_u64(), Err(Error::Corrupt(_))));
    }

    #[test]
    fn bytes_with_bogus_length_is_corrupt() {
        let mut e = Encoder::new();
        e.put_u32(1000); // claims 1000 bytes follow
        let v = e.into_vec();
        let mut d = Decoder::new(&v);
        assert!(matches!(d.get_bytes(), Err(Error::Corrupt(_))));
    }

    #[test]
    fn crc32_known_vector() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise table walk `crc32` used before slice-by-16: the
    /// reference every fast-path result must equal.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, e) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn crc32_matches_bytewise_reference_at_every_length_and_offset() {
        let mut rng = crate::Rng::seed_from_u64(0xC3C3);
        let buf: Vec<u8> = (0..316).map(|_| rng.next_u64() as u8).collect();
        for off in 0..16 {
            for len in 0..=300 {
                let s = &buf[off..off + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "off={off} len={len}");
            }
        }
    }

    #[test]
    fn crc32_matches_bytewise_reference_on_random_pages() {
        for seed in 0..32u64 {
            let mut rng = crate::Rng::seed_from_u64(seed);
            let buf: Vec<u8> = (0..4096).map(|_| rng.next_u64() as u8).collect();
            assert_eq!(crc32(&buf), crc32_bytewise(&buf), "seed={seed}");
        }
    }

    #[test]
    fn crc32_detects_single_bit_flip() {
        let mut data = b"the quick brown fox".to_vec();
        let c0 = crc32(&data);
        data[3] ^= 0x40;
        assert_ne!(crc32(&data), c0);
    }
}
