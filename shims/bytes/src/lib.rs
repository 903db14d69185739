//! In-tree shim for the `bytes` crate.
//!
//! The build environment has no network access, so the workspace carries a
//! minimal re-implementation of the API surface it actually uses:
//! [`Bytes`] (a cheaply-clonable immutable byte buffer), [`BytesMut`], and
//! the [`BufMut`] write trait. Semantics match the real crate for this
//! subset; `Bytes::clone` is O(1) via a shared `Arc<Vec<u8>>`.
//!
//! A `Bytes` keeps the vector it was made from: `From<Vec<u8>>` and
//! [`BytesMut::freeze`] move the allocation in without copying it, and
//! [`Bytes::copy_from_slice`] copies once. Spare capacity is handed back
//! with `shrink_to_fit` (an in-place `realloc` on glibc), so a small
//! `Bytes` never pins a large buffer.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply clonable, immutable slice of bytes.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty `Bytes`.
    pub fn new() -> Self {
        Bytes::from_vec(Vec::new())
    }

    /// Creates `Bytes` from a static slice.
    pub fn from_static(s: &'static [u8]) -> Self {
        Bytes::from_vec(s.to_vec())
    }

    /// Copies `src` into a new `Bytes`.
    pub fn copy_from_slice(src: &[u8]) -> Self {
        Bytes::from_vec(src.to_vec())
    }

    fn from_vec(mut v: Vec<u8>) -> Self {
        v.shrink_to_fit();
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns a sub-slice sharing the same backing storage.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of range");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Copies the contents out into a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::from_vec(v)
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from_vec(s.into_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_ref().cmp(other.as_ref())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_ref() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Bytes::from_vec(iter.into_iter().collect())
    }
}

/// A growable byte buffer; freeze into [`Bytes`] when done writing.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    inner: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BytesMut { inner: Vec::new() }
    }

    /// Creates an empty buffer with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            inner: Vec::with_capacity(cap),
        }
    }

    /// Creates a buffer of `len` zero bytes.
    pub fn zeroed(len: usize) -> Self {
        BytesMut {
            inner: vec![0; len],
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Bytes the buffer can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// Reserves room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.inner.reserve(additional)
    }

    /// Appends `src`.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.inner.extend_from_slice(src)
    }

    /// Clears the buffer.
    pub fn clear(&mut self) {
        self.inner.clear()
    }

    /// Splits off and returns the current contents, leaving `self`
    /// empty but with its spare capacity intact — the encode-scratch
    /// reuse pattern (`real` bytes splits the shared buffer; here the
    /// contents move into an exact-sized allocation instead).
    pub fn split(&mut self) -> BytesMut {
        // `split_off(0)` moves the contents into an exact-sized vector
        // and leaves `self` empty with its original capacity.
        BytesMut {
            inner: self.inner.split_off(0),
        }
    }

    /// Removes and returns the first `len` bytes (the real crate's
    /// `split_to`; here the tail shifts down instead of sharing
    /// storage, so prefer one `advance` per batch over many small
    /// `split_to` calls on a large buffer).
    pub fn split_to(&mut self, len: usize) -> BytesMut {
        assert!(len <= self.inner.len(), "split_to out of range");
        let tail = self.inner.split_off(len);
        BytesMut {
            inner: std::mem::replace(&mut self.inner, tail),
        }
    }

    /// Discards the first `n` bytes (the real crate's `Buf::advance`,
    /// as an inherent method).
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.inner.len(), "advance out of range");
        self.inner.drain(..n);
    }

    /// Converts into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from_vec(self.inner)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.inner
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.inner
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.inner
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Bytes::copy_from_slice(&self.inner).fmt(f)
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(v: Vec<u8>) -> Self {
        BytesMut { inner: v }
    }
}

macro_rules! put_ints {
    ($($be:ident, $le:ident, $ty:ty;)*) => {
        $(
            /// Writes the value in big-endian byte order.
            fn $be(&mut self, v: $ty) {
                self.put_slice(&v.to_be_bytes())
            }
            /// Writes the value in little-endian byte order.
            fn $le(&mut self, v: $ty) {
                self.put_slice(&v.to_le_bytes())
            }
        )*
    };
}

/// Write-side buffer trait (subset of the real `bytes::BufMut`).
pub trait BufMut {
    /// Appends a slice of bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v])
    }

    /// Appends one signed byte.
    fn put_i8(&mut self, v: i8) {
        self.put_slice(&[v as u8])
    }

    put_ints! {
        put_u16, put_u16_le, u16;
        put_u32, put_u32_le, u32;
        put_u64, put_u64_le, u64;
        put_u128, put_u128_le, u128;
        put_i16, put_i16_le, i16;
        put_i32, put_i32_le, i32;
        put_i64, put_i64_le, i64;
        put_i128, put_i128_le, i128;
        put_f32, put_f32_le, f32;
        put_f64, put_f64_le, f64;
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.inner.extend_from_slice(src)
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_share_storage_and_compare() {
        let b = Bytes::from(vec![1u8, 2, 3, 4]);
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(b.slice(1..3), Bytes::from(vec![2u8, 3]));
        assert_eq!(&b[..], &[1, 2, 3, 4]);
    }

    #[test]
    fn bytes_mut_round_trips_ints() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u8(7);
        m.put_u32_le(0xdead_beef);
        m.put_u64(1);
        let b = m.freeze();
        assert_eq!(b.len(), 13);
        assert_eq!(b[0], 7);
        assert_eq!(u32::from_le_bytes(b[1..5].try_into().unwrap()), 0xdead_beef);
    }

    #[test]
    fn split_keeps_scratch_capacity() {
        let mut m = BytesMut::with_capacity(64);
        m.put_slice(b"hello");
        let split = m.split();
        assert_eq!(&split[..], b"hello");
        assert!(m.is_empty());
        assert!(m.capacity() >= 64);
        assert_eq!(split.freeze(), Bytes::from_static(b"hello"));
    }

    #[test]
    fn split_to_and_advance_consume_the_front() {
        let mut m = BytesMut::from(vec![1u8, 2, 3, 4, 5, 6]);
        let head = m.split_to(2);
        assert_eq!(&head[..], &[1, 2]);
        assert_eq!(&m[..], &[3, 4, 5, 6]);
        m.advance(1);
        assert_eq!(&m[..], &[4, 5, 6]);
        m.advance(3);
        assert!(m.is_empty());
    }

    #[test]
    fn from_vec_and_freeze_keep_the_allocation() {
        let v = vec![5u8; 4096];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr);
        assert_eq!(b.slice(16..).as_ptr(), ptr.wrapping_add(16));

        let mut m = BytesMut::with_capacity(4096);
        m.put_slice(&[7u8; 4096]);
        let ptr = m.as_ptr();
        assert_eq!(m.freeze().as_ptr(), ptr);
    }

    #[test]
    fn a_small_bytes_does_not_keep_a_large_capacity() {
        let mut v = Vec::with_capacity(1 << 20);
        v.extend_from_slice(b"tiny");
        let b = Bytes::from(v);
        assert_eq!(&b[..], b"tiny");
        assert!(b.data.capacity() < 64, "{}", b.data.capacity());

        let mut m = BytesMut::with_capacity(1 << 20);
        m.put_slice(b"tiny");
        assert!(m.freeze().data.capacity() < 64);
    }

    #[test]
    fn zeroed_is_mutable() {
        let mut m = BytesMut::zeroed(4);
        assert_eq!(&m[..], &[0, 0, 0, 0]);
        m[2] = 9;
        assert_eq!(m.freeze(), Bytes::from(vec![0u8, 0, 9, 0]));
    }
}
