//! Offline stand-in for the `bytes` crate.
//!
//! The build container has no network access to crates.io, so the workspace
//! vendors the small slice of the `bytes` API it actually uses: cheaply
//! cloneable immutable byte buffers ([`Bytes`]), an append-only builder
//! ([`BytesMut`]), and little-endian cursor traits ([`Buf`], [`BufMut`]).
//! Semantics match the real crate for this surface; anything else is
//! intentionally absent so accidental divergence fails loudly at compile
//! time.

use std::ops::Deref;
use std::sync::Arc;

/// Longest payload stored in place instead of behind an `Arc`.
const INLINE: usize = 24;

/// Cheaply cloneable immutable byte buffer. Up to [`INLINE`] bytes live in
/// the value itself — a barrier token, a reduction scalar or a one-word
/// bucket travels inside its envelope, with no allocation for the sender
/// and no cold line for the receiver; anything longer is a view into
/// shared storage. Either way the value is 32 bytes.
#[derive(Clone)]
pub struct Bytes(Repr);

#[derive(Clone)]
enum Repr {
    Inline { start: u8, end: u8, buf: [u8; INLINE] },
    Shared { start: u32, end: u32, data: Arc<[u8]> },
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Bytes {
    /// Empty buffer.
    #[must_use]
    pub fn new() -> Bytes {
        Bytes(Repr::Inline { start: 0, end: 0, buf: [0; INLINE] })
    }

    /// Bytes remaining in the view.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { start, end, .. } => usize::from(end - start),
            Repr::Shared { start, end, .. } => (end - start) as usize,
        }
    }

    /// True when no bytes remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Split off the first `n` bytes into a new `Bytes`, advancing `self`
    /// past them. Panics when `n` exceeds the remaining length.
    pub fn split_to(&mut self, n: usize) -> Bytes {
        assert!(n <= self.len(), "split_to({n}) of {} bytes", self.len());
        let mut front = self.clone();
        match &mut front.0 {
            Repr::Inline { start, end, .. } => *end = *start + n as u8,
            Repr::Shared { start, end, .. } => *end = *start + n as u32,
        }
        self.advance(n);
        front
    }

    /// Copy a slice into a new buffer.
    #[must_use]
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        if data.len() <= INLINE {
            let mut buf = [0; INLINE];
            buf[..data.len()].copy_from_slice(data);
            Bytes(Repr::Inline { start: 0, end: data.len() as u8, buf })
        } else {
            let end = u32::try_from(data.len()).expect("a Bytes holds less than 4 GiB");
            Bytes(Repr::Shared { start: 0, end, data: Arc::from(data) })
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { start, end, buf } => &buf[usize::from(*start)..usize::from(*end)],
            Repr::Shared { start, end, data } => &data[*start as usize..*end as usize],
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        // `Arc<[u8]>` cannot adopt a `Vec`'s allocation: either way a copy.
        Bytes::copy_from_slice(&v)
    }
}

/// Growable byte buffer used to build messages before freezing them.
#[derive(Default, Debug)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// Empty builder.
    #[must_use]
    pub fn new() -> BytesMut {
        BytesMut { buf: Vec::new() }
    }

    /// Empty builder with reserved capacity.
    #[must_use]
    pub fn with_capacity(n: usize) -> BytesMut {
        BytesMut { buf: Vec::with_capacity(n) }
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Take the accumulated bytes, leaving `self` empty (the real crate
    /// splits at the write cursor; for an append-only builder that is the
    /// whole buffer).
    pub fn split(&mut self) -> BytesMut {
        BytesMut { buf: std::mem::take(&mut self.buf) }
    }

    /// Convert into an immutable [`Bytes`].
    #[must_use]
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

/// Read cursor over a byte buffer; all multi-byte reads are little-endian.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// View of the unread bytes.
    fn chunk(&self) -> &[u8];
    /// Skip `n` bytes.
    fn advance(&mut self, n: usize);

    /// True when any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Read a byte array of fixed size, advancing the cursor.
    fn get_array<const N: usize>(&mut self) -> [u8; N] {
        let out = first(self.chunk());
        self.advance(N);
        out
    }

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        u8::from_le_bytes(self.get_array())
    }
    /// Read a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        u16::from_le_bytes(self.get_array())
    }
    /// Read a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.get_array())
    }
    /// Read a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.get_array())
    }
    /// Read a little-endian `i32`.
    fn get_i32_le(&mut self) -> i32 {
        i32::from_le_bytes(self.get_array())
    }
    /// Read a little-endian `i64`.
    fn get_i64_le(&mut self) -> i64 {
        i64::from_le_bytes(self.get_array())
    }
    /// Read a little-endian `f32`.
    fn get_f32_le(&mut self) -> f32 {
        f32::from_le_bytes(self.get_array())
    }
    /// Read a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_le_bytes(self.get_array())
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    /// One representation match and one length check per field, where the
    /// generic read matches three times (`chunk`, `len`, `advance`).
    fn get_array<const N: usize>(&mut self) -> [u8; N] {
        match &mut self.0 {
            Repr::Inline { start, end, buf } => {
                let out = first::<N>(&buf[usize::from(*start)..usize::from(*end)]);
                *start += N as u8;
                out
            }
            Repr::Shared { start, end, data } => {
                let out = first::<N>(&data[*start as usize..*end as usize]);
                *start += N as u32;
                out
            }
        }
    }
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance({n}) of {} bytes", self.len());
        // Here as in `split_to`, `n` fits the offset type: it is at most `len()`.
        match &mut self.0 {
            Repr::Inline { start, .. } => *start += n as u8,
            Repr::Shared { start, .. } => *start += n as u32,
        }
    }
}

/// The first `N` bytes of a view, or the `Buf` underflow panic.
#[inline(always)]
fn first<const N: usize>(view: &[u8]) -> [u8; N] {
    match view.first_chunk::<N>() {
        Some(a) => *a,
        None => underflow(N, view.len()),
    }
}

#[cold]
#[inline(never)]
fn underflow(want: usize, have: usize) -> ! {
    panic!("buffer underflow: want {want}, have {have}")
}

/// Write cursor; all multi-byte writes are little-endian.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a little-endian `i32`.
    fn put_i32_le(&mut self, v: i32) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a little-endian `i64`.
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a little-endian `f32`.
    fn put_f32_le(&mut self, v: f32) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut b = BytesMut::with_capacity(64);
        b.put_u8(0xAB);
        b.put_u16_le(0xBEEF);
        b.put_u32_le(0xDEAD_BEEF);
        b.put_u64_le(0x0123_4567_89AB_CDEF);
        b.put_i32_le(-7);
        b.put_i64_le(-(1 << 40));
        b.put_f32_le(3.25);
        b.put_f64_le(-1.5e-300);
        let mut r = b.freeze();
        assert_eq!(r.get_u8(), 0xAB);
        assert_eq!(r.get_u16_le(), 0xBEEF);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64_le(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_i32_le(), -7);
        assert_eq!(r.get_i64_le(), -(1 << 40));
        assert_eq!(r.get_f32_le(), 3.25);
        assert_eq!(r.get_f64_le(), -1.5e-300);
        assert!(r.is_empty());
    }

    /// A field reader returning the bits it read.
    type Read = fn(&mut Bytes) -> u64;

    /// Every field reader, with its width.
    fn readers() -> [(usize, Read); 8] {
        [
            (1, |b| u64::from(b.get_u8())),
            (2, |b| u64::from(b.get_u16_le())),
            (4, |b| u64::from(b.get_u32_le())),
            (4, |b| u64::from(b.get_i32_le() as u32)),
            (4, |b| u64::from(b.get_f32_le().to_bits())),
            (8, |b| b.get_u64_le()),
            (8, |b| b.get_i64_le() as u64),
            (8, |b| b.get_f64_le().to_bits()),
        ]
    }

    #[test]
    fn every_field_width_reads_at_the_end_and_panics_one_byte_short() {
        // 24 bytes are stored in place, 4096 in shared storage.
        for len in [24, 4096] {
            let data = pattern(len);
            for (n, read) in readers() {
                let mut b = Bytes::from(data.clone());
                b.advance(len - n);
                let mut want = [0u8; 8];
                want[..n].copy_from_slice(&data[len - n..]);
                assert_eq!(read(&mut b), u64::from_le_bytes(want), "{n} bytes at the end of {len}");
                assert!(b.is_empty());

                let mut short = Bytes::from(data.clone());
                short.advance(len - n + 1);
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| read(&mut short)))
                    .expect_err("a read one byte short must panic");
                let msg = err.downcast_ref::<String>().map_or("", String::as_str);
                assert_eq!(msg, format!("buffer underflow: want {n}, have {}", n - 1), "{len} bytes");
            }
        }
    }

    #[test]
    fn split_to_advances() {
        let mut b = Bytes::copy_from_slice(&[1, 2, 3, 4, 5]);
        let front = b.split_to(2);
        assert_eq!(&front[..], &[1, 2]);
        assert_eq!(&b[..], &[3, 4, 5]);
    }

    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 7 + 3) as u8).collect()
    }

    /// Lengths either side of the in-place / shared boundary.
    const LENGTHS: [usize; 6] = [0, 1, 23, 24, 25, 4096];

    #[test]
    fn every_constructor_roundtrips_either_side_of_the_inline_boundary() {
        for n in LENGTHS {
            let want = pattern(n);
            let mut b = BytesMut::with_capacity(n);
            b.put_slice(&want);
            for got in [b.freeze(), Bytes::copy_from_slice(&want), Bytes::from(want.clone())] {
                assert_eq!(got.len(), n);
                assert_eq!(got.is_empty(), n == 0);
                assert_eq!(&got[..], &want[..], "{n} bytes");
            }
        }
        assert!(Bytes::new().is_empty() && Bytes::default().is_empty());
    }

    #[test]
    fn split_and_advance_across_the_inline_boundary() {
        let want = pattern(25);
        for at in [24, 1, 0] {
            // 25 bytes are shared storage; both halves may be short enough
            // to have been stored in place, and must read the same anyway.
            let mut rest = Bytes::from(want.clone());
            let front = rest.split_to(at);
            assert_eq!(&front[..], &want[..at], "front of split_to({at})");
            assert_eq!(&rest[..], &want[at..], "rest of split_to({at})");
            let mut skipped = Bytes::from(want.clone());
            skipped.advance(at);
            assert_eq!(&skipped[..], &want[at..], "advance({at})");
        }
        // The same on a buffer that starts in place.
        let mut rest = Bytes::from(pattern(24));
        rest.advance(3);
        let front = rest.split_to(20);
        assert_eq!(&front[..], &pattern(24)[3..23]);
        assert_eq!(&rest[..], &pattern(24)[23..]);
        assert!(rest.split_to(1).len() == 1 && rest.is_empty());
    }

    #[test]
    fn clones_are_independent_views() {
        for n in [24, 25] {
            let original = Bytes::from(pattern(n));
            let mut a = original.clone();
            let mut b = original.clone();
            a.advance(5);
            let b_front = b.split_to(2);
            assert_eq!(&original[..], &pattern(n)[..]);
            assert_eq!(&a[..], &pattern(n)[5..]);
            assert_eq!(&b[..], &pattern(n)[2..]);
            assert_eq!(&b_front[..], &pattern(n)[..2]);
        }
    }

    #[test]
    #[should_panic(expected = "split_to(25) of 24 bytes")]
    fn split_past_the_end_panics() {
        let _ = Bytes::from(pattern(24)).split_to(25);
    }

    /// A message is one cache line: `hot-comm`'s envelope is this plus a
    /// source and a tag, 40 bytes, whatever the payload's representation.
    #[test]
    fn bytes_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Bytes>(), 32);
    }

    #[test]
    fn little_endian_layout() {
        let mut b = BytesMut::new();
        b.put_u32_le(0x0102_0304);
        assert_eq!(&b.freeze()[..], &[4, 3, 2, 1]);
    }

    #[test]
    fn builder_split_leaves_empty() {
        let mut b = BytesMut::new();
        b.put_u8(9);
        let taken = b.split();
        assert_eq!(taken.len(), 1);
        assert!(b.is_empty());
    }
}
