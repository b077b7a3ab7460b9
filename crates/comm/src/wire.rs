//! Explicit byte-level message encoding.
//!
//! Inter-rank messages in an HPC transport should have explicit, predictable
//! layouts — the original HOT code shipped C structs over NX/MPI. We encode
//! little-endian through the `bytes` crate rather than pulling in a serde
//! format; every transferred type spells out its layout here.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// A type with a defined little-endian wire format.
pub trait Wire: Sized {
    /// Append the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);
    /// Decode one value, advancing `buf`. Panics on malformed input —
    /// messages are produced by our own encoder, so corruption is a bug,
    /// not an error to recover from.
    fn decode(buf: &mut Bytes) -> Self;
    /// Exact number of bytes `encode` will append, used to pre-size buffers.
    fn wire_size(&self) -> usize;
}

macro_rules! impl_wire_prim {
    ($t:ty, $put:ident, $get:ident, $n:expr) => {
        impl Wire for $t {
            #[inline]
            fn encode(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }
            #[inline]
            fn decode(buf: &mut Bytes) -> Self {
                buf.$get()
            }
            #[inline]
            fn wire_size(&self) -> usize {
                $n
            }
        }
    };
}

impl_wire_prim!(u8, put_u8, get_u8, 1);
impl_wire_prim!(u16, put_u16_le, get_u16_le, 2);
impl_wire_prim!(u32, put_u32_le, get_u32_le, 4);
impl_wire_prim!(u64, put_u64_le, get_u64_le, 8);
impl_wire_prim!(i32, put_i32_le, get_i32_le, 4);
impl_wire_prim!(i64, put_i64_le, get_i64_le, 8);
impl_wire_prim!(f32, put_f32_le, get_f32_le, 4);
impl_wire_prim!(f64, put_f64_le, get_f64_le, 8);

impl Wire for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self as u8);
    }
    fn decode(buf: &mut Bytes) -> Self {
        buf.get_u8() != 0
    }
    fn wire_size(&self) -> usize {
        1
    }
}

impl Wire for usize {
    /// Encoded as `u64`: the paper itself hit the 32-bit limit ("several I/O
    /// routines in our code had to be extended to support 64-bit integers").
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(*self as u64);
    }
    fn decode(buf: &mut Bytes) -> Self {
        buf.get_u64_le() as usize
    }
    fn wire_size(&self) -> usize {
        8
    }
}

impl Wire for () {
    fn encode(&self, _: &mut BytesMut) {}
    fn decode(_: &mut Bytes) -> Self {}
    fn wire_size(&self) -> usize {
        0
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.len() as u64);
        for v in self {
            v.encode(buf);
        }
    }
    fn decode(buf: &mut Bytes) -> Self {
        let n = buf.get_u64_le() as usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(buf));
        }
        out
    }
    fn wire_size(&self) -> usize {
        8 + self.iter().map(Wire::wire_size).sum::<usize>()
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    fn encode(&self, buf: &mut BytesMut) {
        for v in self {
            v.encode(buf);
        }
    }
    fn decode(buf: &mut Bytes) -> Self {
        std::array::from_fn(|_| T::decode(buf))
    }
    fn wire_size(&self) -> usize {
        self.iter().map(Wire::wire_size).sum()
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Self {
        (A::decode(buf), B::decode(buf))
    }
    fn wire_size(&self) -> usize {
        self.0.wire_size() + self.1.wire_size()
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Self {
        (A::decode(buf), B::decode(buf), C::decode(buf))
    }
    fn wire_size(&self) -> usize {
        self.0.wire_size() + self.1.wire_size() + self.2.wire_size()
    }
}

impl<A: Wire, B: Wire, C: Wire, D: Wire> Wire for (A, B, C, D) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
        self.3.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Self {
        (A::decode(buf), B::decode(buf), C::decode(buf), D::decode(buf))
    }
    fn wire_size(&self) -> usize {
        self.0.wire_size() + self.1.wire_size() + self.2.wire_size() + self.3.wire_size()
    }
}

impl Wire for hot_base::Vec3 {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_f64_le(self.x);
        buf.put_f64_le(self.y);
        buf.put_f64_le(self.z);
    }
    #[inline]
    fn decode(buf: &mut Bytes) -> Self {
        let x = buf.get_f64_le();
        let y = buf.get_f64_le();
        let z = buf.get_f64_le();
        hot_base::Vec3::new(x, y, z)
    }
    fn wire_size(&self) -> usize {
        24
    }
}

impl Wire for hot_base::SymMat3 {
    fn encode(&self, buf: &mut BytesMut) {
        for v in self.m {
            buf.put_f64_le(v);
        }
    }
    fn decode(buf: &mut Bytes) -> Self {
        let mut m = [0.0; 6];
        for v in &mut m {
            *v = buf.get_f64_le();
        }
        hot_base::SymMat3 { m }
    }
    fn wire_size(&self) -> usize {
        48
    }
}

/// One coalesced remote-data request: every cell-children key and every
/// leaf-body key one rank wants from one owner in one service round,
/// carried in a single logical message instead of one message per key.
///
/// Both key lists are canonical — strictly ascending, no duplicates —
/// which [`KeyBatchRequest::new`] enforces by construction and
/// [`KeyBatchRequest::is_canonical`] checks after decode. Canonical form
/// matters beyond hygiene: the request bytes are then a pure function of
/// the *set* of wanted keys, independent of the order walks happened to
/// park, which is what keeps the coalesced walk's message traffic bitwise
/// identical across message schedules.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct KeyBatchRequest {
    /// Keys whose children (cell summaries) are wanted.
    pub cell_keys: Vec<u64>,
    /// Keys whose leaf bodies are wanted.
    pub body_keys: Vec<u64>,
}

impl KeyBatchRequest {
    /// Build a canonical request from arbitrary key collections: each list
    /// is sorted and deduplicated.
    #[must_use]
    pub fn new(mut cell_keys: Vec<u64>, mut body_keys: Vec<u64>) -> Self {
        cell_keys.sort_unstable();
        cell_keys.dedup();
        body_keys.sort_unstable();
        body_keys.dedup();
        KeyBatchRequest { cell_keys, body_keys }
    }

    /// Total keys requested.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cell_keys.len() + self.body_keys.len()
    }

    /// True when no keys are requested (a protocol error if ever sent).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cell_keys.is_empty() && self.body_keys.is_empty()
    }

    /// True when both lists are strictly ascending (so, duplicate-free).
    #[must_use]
    pub fn is_canonical(&self) -> bool {
        let ascending = |v: &[u64]| v.windows(2).all(|w| w[0] < w[1]);
        ascending(&self.cell_keys) && ascending(&self.body_keys)
    }
}

impl Wire for KeyBatchRequest {
    fn encode(&self, buf: &mut BytesMut) {
        self.cell_keys.encode(buf);
        self.body_keys.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Self {
        KeyBatchRequest {
            cell_keys: Vec::<u64>::decode(buf),
            body_keys: Vec::<u64>::decode(buf),
        }
    }
    fn wire_size(&self) -> usize {
        self.cell_keys.wire_size() + self.body_keys.wire_size()
    }
}

// ---------------------------------------------------------------------------
// CRC32 framing: the integrity layer under reliable delivery.
// ---------------------------------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB8_8320`) lookup
/// tables for slicing-by-8, built at compile time. `[0]` is the classic
/// byte-at-a-time table; `[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, so eight table reads advance the sum by eight bytes.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// One byte of the table-driven CRC recurrence.
#[inline]
fn crc32_byte(c: u32, b: u8) -> u32 {
    CRC32_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
}

/// CRC-32 (IEEE 802.3) of `data` — the checksum used by the reliable
/// transport frames, the ABM batch header, and the cosmology checkpoint
/// format. One implementation so every layer agrees on what "corrupt"
/// means. Eight bytes a step (slicing-by-8), the tail bytewise: every ABM
/// batch and frame is summed on both ends, and the bytewise loop alone
/// was most of the framing cost.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = crc32_byte(c, b);
    }
    !c
}

/// The byte-at-a-time CRC-32: the oracle [`crc32`] is tested against.
#[cfg(test)]
pub(crate) fn crc32_bytewise(data: &[u8]) -> u32 {
    !data.iter().fold(0xFFFF_FFFFu32, |c, &b| crc32_byte(c, b))
}

/// Bytes a transport frame adds around its payload: a 24-byte header
/// (`seq: u64`, `hb: u64`, `tag: u32`, `len: u32`) plus a trailing
/// `crc32: u32` over header and payload.
pub const FRAME_OVERHEAD_BYTES: usize = 28;

/// A decoded transport frame: one sequence-numbered, CRC-protected logical
/// message of a `(src, dst)` flow.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Per-flow sequence number (0-based, contiguous).
    pub seq: u64,
    /// Reserved: the transport writes 0 and reads nothing from it. The
    /// field stays so the frame layout (and [`FRAME_OVERHEAD_BYTES`]) does
    /// not change.
    pub hb: u64,
    /// The application tag the payload was sent under.
    pub tag: u32,
    /// The original payload bytes.
    pub payload: Bytes,
}

/// Why a frame failed to decode. Either way the frame must be discarded
/// and recovered via retransmission; a reliable receiver never delivers it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the fixed header + trailer, or the embedded length
    /// disagrees with the buffer size — framing itself was destroyed.
    Truncated,
    /// Checksum mismatch: at least one bit of header or payload flipped.
    CrcMismatch,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated or length field corrupt"),
            FrameError::CrcMismatch => write!(f, "frame CRC32 mismatch"),
        }
    }
}

/// Wrap `payload` in a sequence-numbered, CRC-protected transport frame.
/// `hb` fills the reserved header field ([`Frame::hb`]).
#[must_use]
pub fn frame_message(seq: u64, hb: u64, tag: u32, payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(FRAME_OVERHEAD_BYTES + payload.len());
    buf.put_u64_le(seq);
    buf.put_u64_le(hb);
    buf.put_u32_le(tag);
    buf.put_u32_le(payload.len() as u32);
    buf.put_slice(payload);
    let crc = crc32(&buf);
    buf.put_u32_le(crc);
    buf.freeze()
}

/// Decode and verify a transport frame produced by [`frame_message`].
///
/// Rejects (never panics on) arbitrary corruption: any single- or
/// multi-bit flip anywhere in the frame yields `Err`, pinned by the
/// property suite.
pub fn unframe_message(data: &Bytes) -> Result<Frame, FrameError> {
    if data.len() < FRAME_OVERHEAD_BYTES {
        return Err(FrameError::Truncated);
    }
    let mut trailer = data.clone();
    let mut body = trailer.split_to(data.len() - 4);
    let stored = trailer.get_u32_le();
    if crc32(&body) != stored {
        return Err(FrameError::CrcMismatch);
    }
    let seq = body.get_u64_le();
    let hb = body.get_u64_le();
    let tag = body.get_u32_le();
    let len = body.get_u32_le() as usize;
    // The CRC passed, so a length/size disagreement means the frame was
    // assembled wrong, not corrupted in flight — still refuse delivery.
    if len != body.remaining() {
        return Err(FrameError::Truncated);
    }
    Ok(Frame { seq, hb, tag, payload: body })
}

/// Encode a value into a standalone buffer.
pub fn to_bytes<T: Wire>(v: &T) -> Bytes {
    let mut buf = BytesMut::with_capacity(v.wire_size());
    v.encode(&mut buf);
    buf.freeze()
}

/// Decode a value that occupies the entire buffer.
///
/// # Panics
///
/// Panics when trailing bytes remain — a mismatched send/recv type pair is
/// a protocol bug that must not pass silently.
pub fn from_bytes<T: Wire>(mut b: Bytes) -> T {
    let v = T::decode(&mut b);
    assert!(b.is_empty(), "wire decode left {} trailing bytes", b.len());
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_base::{SymMat3, Vec3};

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
        let b = to_bytes(v);
        assert_eq!(b.len(), v.wire_size(), "wire_size mismatch for {v:?}");
        let back: T = from_bytes(b);
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives() {
        roundtrip(&0xABu8);
        roundtrip(&0xBEEFu16);
        roundtrip(&0xDEAD_BEEFu32);
        roundtrip(&0x0123_4567_89AB_CDEFu64);
        roundtrip(&-42i32);
        roundtrip(&-(1i64 << 40));
        roundtrip(&3.25f32);
        roundtrip(&-2.2250738585072014e-308f64);
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&123_456_789_012usize);
        roundtrip(&());
    }

    #[test]
    fn little_endian_layout() {
        let b = to_bytes(&0x0102_0304u32);
        assert_eq!(&b[..], &[0x04, 0x03, 0x02, 0x01]);
    }

    #[test]
    fn compounds() {
        roundtrip(&vec![1u64, 2, 3]);
        roundtrip(&Vec::<f64>::new());
        roundtrip(&[1.5f64, -2.5, 0.0]);
        roundtrip(&(42u32, -1.5f64));
        roundtrip(&(1u8, 2u16, vec![3u32]));
        roundtrip(&vec![vec![1u8], vec![], vec![2, 3]]);
    }

    #[test]
    fn math_types() {
        roundtrip(&Vec3::new(1.0, -2.0, 3.5));
        roundtrip(&SymMat3::new(1.0, 2.0, 3.0, 4.0, 5.0, 6.0));
    }

    #[test]
    #[should_panic(expected = "trailing bytes")]
    fn trailing_bytes_detected() {
        let b = to_bytes(&(1u32, 2u32));
        let _: u32 = from_bytes(b);
    }

    #[test]
    fn nested_vec_size_accounting() {
        let v = vec![vec![1.0f64; 3]; 4];
        assert_eq!(v.wire_size(), 8 + 4 * (8 + 24));
    }

    #[test]
    fn key_batch_request_canonicalizes_and_roundtrips() {
        let req = KeyBatchRequest::new(vec![9, 1, 9, 4, 1], vec![7, 7, 2]);
        assert_eq!(req.cell_keys, [1, 4, 9]);
        assert_eq!(req.body_keys, [2, 7]);
        assert!(req.is_canonical());
        assert_eq!(req.len(), 5);
        assert!(!req.is_empty());
        roundtrip(&req);
        assert!(KeyBatchRequest::default().is_empty());
        // A hand-built unsorted request is detectably non-canonical.
        let bad = KeyBatchRequest { cell_keys: vec![3, 1], body_keys: vec![] };
        assert!(!bad.is_canonical());
    }

    #[test]
    fn crc32_known_vectors() {
        // The standard IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    /// Every length around the eight-byte step, at every alignment.
    #[test]
    fn crc32_matches_bytewise_oracle_at_every_length_and_offset() {
        let data: Vec<u8> =
            (0..96u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
        for start in 0..8 {
            for end in start..=data.len() {
                let s = &data[start..end];
                assert_eq!(crc32(s), crc32_bytewise(s), "bytes {start}..{end}");
            }
        }
    }

    #[test]
    fn frame_roundtrip() {
        let payload = to_bytes(&(7u64, 2.5f64));
        let framed = frame_message(42, 1000, 9, &payload);
        assert_eq!(framed.len(), FRAME_OVERHEAD_BYTES + payload.len());
        let frame = unframe_message(&framed).expect("clean frame");
        assert_eq!(frame.seq, 42);
        assert_eq!(frame.hb, 1000);
        assert_eq!(frame.tag, 9);
        assert_eq!(&frame.payload[..], &payload[..]);
    }

    #[test]
    fn frame_empty_payload() {
        let framed = frame_message(0, 0, 1, &[]);
        assert_eq!(framed.len(), FRAME_OVERHEAD_BYTES);
        let frame = unframe_message(&framed).expect("clean frame");
        assert!(frame.payload.is_empty());
    }

    #[test]
    fn frame_heartbeat_is_crc_protected() {
        // The reserved `hb` field sits at bytes 8..16 of the header; the
        // CRC covers it like every other header byte.
        let framed = frame_message(1, 0xAABB_CCDD, 2, &[9, 9, 9]);
        for i in 8..16 {
            let mut bad = framed.to_vec();
            bad[i] ^= 0x01;
            assert!(unframe_message(&Bytes::from(bad)).is_err(), "hb byte {i}");
        }
    }

    #[test]
    fn frame_rejects_every_single_byte_corruption() {
        let framed = frame_message(3, 17, 5, &to_bytes(&0xDEAD_BEEF_u64));
        for i in 0..framed.len() {
            let mut bad = framed.to_vec();
            bad[i] ^= 0x10;
            let r = unframe_message(&Bytes::from(bad));
            assert!(r.is_err(), "corruption at byte {i} slipped through");
        }
    }

    #[test]
    fn frame_rejects_truncation() {
        let framed = frame_message(1, 0, 2, &to_bytes(&0x0123_4567_89AB_CDEFu64));
        let short = Bytes::copy_from_slice(&framed[..framed.len() - 5]);
        assert!(unframe_message(&short).is_err());
        let tiny = Bytes::copy_from_slice(&framed[..FRAME_OVERHEAD_BYTES - 1]);
        assert!(matches!(unframe_message(&tiny), Err(FrameError::Truncated)));
    }
}
