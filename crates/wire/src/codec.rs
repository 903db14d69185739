//! A compact binary codec for the Eden kernel protocol.
//!
//! The codec is deliberately simple: fixed-width little-endian integers,
//! length-prefixed strings and byte strings, tag bytes for enums, and a
//! `u32` element count for sequences. Every decodable type rejects
//! malformed input with a [`CodecError`] rather than panicking, because
//! frames arrive from the network.

use std::collections::BTreeMap;

use bytes::{BufMut, Bytes, BytesMut};
use eden_capability::{Capability, NodeId, ObjName, Rights};

/// Errors produced while decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value was complete.
    UnexpectedEof,
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A length prefix exceeded the sanity limit ([`MAX_SEQ_LEN`]).
    LengthOverflow(u64),
    /// Bytes remained after the outermost value was decoded.
    TrailingBytes(usize),
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::BadTag { what, tag } => write!(f, "bad tag {tag:#04x} for {what}"),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            CodecError::LengthOverflow(n) => write!(f, "length prefix {n} exceeds limit"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Upper bound on any length prefix (strings, byte strings, sequences).
///
/// Eden invocation parameters are bounded in practice by what a node is
/// willing to buffer; 64 MiB rejects garbage prefixes early without
/// constraining any real workload in this reproduction.
pub const MAX_SEQ_LEN: u64 = 64 << 20;

/// An append-only encoder over a [`BytesMut`].
pub struct Writer {
    buf: BytesMut,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer {
            buf: BytesMut::with_capacity(256),
        }
    }

    /// Creates a writer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: BytesMut::with_capacity(cap),
        }
    }

    /// Finishes encoding and returns the frozen buffer.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Tests whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Writes a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.put_u16_le(v);
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Writes a little-endian `u128`.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.put_u128_le(v);
    }

    /// Writes a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.put_i64_le(v);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_u64_le(v.to_bits());
    }

    /// Writes a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.put_u8(v as u8);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.put_slice(s.as_bytes());
    }

    /// Writes a length-prefixed byte string.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u32(b.len() as u32);
        self.buf.put_slice(b);
    }

    /// Writes an `Option` as a presence byte followed by the value.
    pub fn put_option<T: WireEncode>(&mut self, v: &Option<T>) {
        match v {
            None => self.put_u8(0),
            Some(x) => {
                self.put_u8(1);
                x.encode(self);
            }
        }
    }

    /// Writes a sequence as a `u32` count followed by the elements.
    pub fn put_seq<T: WireEncode>(&mut self, items: &[T]) {
        self.put_u32(items.len() as u32);
        for item in items {
            item.encode(self);
        }
    }
}

impl Default for Writer {
    fn default() -> Self {
        Writer::new()
    }
}

/// A checked decoder over a byte slice.
///
/// Constructed with [`Reader::new`] over a plain slice, byte-string
/// fields are copied out. Constructed with [`Reader::shared`] over a
/// refcounted [`Bytes`] buffer, [`Reader::get_bytes`] returns slices of
/// the backing buffer instead ([`Bytes::slice`]) — zero-copy, which is
/// what the transport's receive path uses for blob-heavy frames.
pub struct Reader<'a> {
    buf: &'a [u8],
    /// The shared backing buffer in zero-copy mode; `pos` is the offset
    /// of `buf[0]` within it.
    backing: Option<&'a Bytes>,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            backing: None,
            pos: 0,
        }
    }

    /// Creates a zero-copy reader over a shared buffer: byte-string
    /// fields alias `buf` rather than being copied.
    pub fn shared(buf: &'a Bytes) -> Self {
        Reader {
            buf,
            backing: Some(buf),
            pos: 0,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        self.pos += n;
        Ok(head)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u128`.
    pub fn get_u128(&mut self) -> Result<u128, CodecError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool; any nonzero byte is `true`.
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.get_u8()? != 0)
    }

    fn get_len(&mut self) -> Result<usize, CodecError> {
        let n = self.get_u32()? as u64;
        if n > MAX_SEQ_LEN {
            return Err(CodecError::LengthOverflow(n));
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let n = self.get_len()?;
        let raw = self.take(n)?;
        // Validate before allocating: invalid input costs no copy, and
        // valid input costs exactly the one copy a String must own.
        core::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| CodecError::BadUtf8)
    }

    /// Reads a length-prefixed byte string.
    ///
    /// In [`Reader::shared`] mode this is a refcounted slice of the
    /// backing buffer; otherwise it is a fresh copy.
    pub fn get_bytes(&mut self) -> Result<Bytes, CodecError> {
        let n = self.get_len()?;
        let start = self.pos;
        let raw = self.take(n)?;
        Ok(match self.backing {
            Some(b) => b.slice(start..start + n),
            None => Bytes::copy_from_slice(raw),
        })
    }

    /// Reads an `Option` written by [`Writer::put_option`].
    pub fn get_option<T: WireDecode>(&mut self) -> Result<Option<T>, CodecError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(self)?)),
            tag => Err(CodecError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }

    /// Reads a sequence written by [`Writer::put_seq`].
    pub fn get_seq<T: WireDecode>(&mut self) -> Result<Vec<T>, CodecError> {
        let n = self.get_len()?;
        // Cap the preallocation: a hostile count must not OOM the decoder.
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(T::decode(self)?);
        }
        Ok(out)
    }

    /// Asserts the reader is exhausted (outermost-value decoding).
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes(self.buf.len()))
        }
    }
}

/// Types that can be appended to a [`Writer`].
pub trait WireEncode {
    /// Appends `self` to the writer.
    fn encode(&self, w: &mut Writer);

    /// Encodes `self` into a fresh buffer.
    fn encode_to_bytes(&self) -> Bytes {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.finish()
    }

    /// Encodes `self` into `scratch`'s spare capacity and returns the
    /// encoded value as a frozen split-off. The allocation stays with
    /// `scratch` for the next value, so steady-state encoding (the
    /// transport's per-frame hot path) allocates only when capacity
    /// runs out rather than once per frame.
    fn encode_reusing(&self, scratch: &mut BytesMut) -> Bytes {
        let mut w = Writer {
            buf: core::mem::take(scratch),
        };
        self.encode(&mut w);
        let mut buf = w.buf;
        let out = buf.split().freeze();
        *scratch = buf;
        out
    }
}

/// Types that can be read back from a [`Reader`].
pub trait WireDecode: Sized {
    /// Decodes one value from the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Decodes a value that must consume the entire buffer.
    fn decode_from_bytes(buf: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(buf);
        let v = Self::decode(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }

    /// Zero-copy variant of [`WireDecode::decode_from_bytes`]: byte-string
    /// fields become refcounted slices of `buf` instead of fresh copies.
    fn decode_shared(buf: &Bytes) -> Result<Self, CodecError> {
        let mut r = Reader::shared(buf);
        let v = Self::decode(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }
}

/// Defines a tagged wire enum from one table: one row per variant, as
/// `tag => Variant "kind-name"`, then its fields in wire order, named
/// `{ field: Type, … }` or tuple-style `(field: Type, …)`. The table
/// generates the enum, its kind-name accessor (named by the `fn` line),
/// and its `WireEncode`/`WireDecode` impls: the tag byte, then each field
/// through its type's own codec. A tag used twice fails to compile.
///
/// ```text
/// wire_enum! {
///     /// What a reply says.
///     #[derive(Debug, Clone, PartialEq)]
///     pub enum Answer {
///         /// A stable short label for logs.
///         pub fn label;
///
///         /// Nothing to say.
///         0 => Empty "empty",
///         /// A number.
///         1 => Count "count" (n: u64),
///         /// A named value.
///         2 => Named "named" { name: String, value: Option<u64> },
///     }
/// }
/// ```
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(#[$kind_meta:meta])*
            $kind_vis:vis fn $kind_fn:ident;
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $variant:ident $kind:literal
                $(($($tfield:ident: $tty:ty),* $(,)?))?
                $({$($(#[$fmeta:meta])* $field:ident: $fty:ty),* $(,)?})?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant $(($($tty),*))? $({$($(#[$fmeta])* $field: $fty),*})?,
            )*
        }

        impl $name {
            $(#[$kind_meta])*
            $kind_vis fn $kind_fn(&self) -> &'static str {
                match self {
                    $($name::$variant { .. } => $kind,)*
                }
            }
        }

        impl $crate::codec::WireEncode for $name {
            fn encode(&self, w: &mut $crate::codec::Writer) {
                match self {
                    $($name::$variant $(($($tfield),*))? $({$($field),*})? => {
                        w.put_u8($tag);
                        $($($crate::codec::WireEncode::encode($tfield, w);)*)?
                        $($($crate::codec::WireEncode::encode($field, w);)*)?
                    })*
                }
            }
        }

        impl $crate::codec::WireDecode for $name {
            #[deny(unreachable_patterns)]
            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok(match r.get_u8()? {
                    $($tag => $name::$variant
                        $(($(<$tty as $crate::codec::WireDecode>::decode(r)?),*))?
                        $({$($field: <$fty as $crate::codec::WireDecode>::decode(r)?),*})?,)*
                    tag => {
                        return Err($crate::codec::CodecError::BadTag {
                            what: stringify!($name),
                            tag,
                        })
                    }
                })
            }
        }
    };
}

pub(crate) use wire_enum;

impl WireEncode for String {
    fn encode(&self, w: &mut Writer) {
        w.put_str(self);
    }
}

impl WireDecode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_str()
    }
}

/// Implements the codec of a type that one `Writer::put_*` /
/// `Reader::get_*` pair writes and reads by value.
macro_rules! primitive_codec {
    ($($ty:ty => $put:ident, $get:ident;)*) => {$(
        impl WireEncode for $ty {
            fn encode(&self, w: &mut Writer) {
                w.$put(*self);
            }
        }

        impl WireDecode for $ty {
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                r.$get()
            }
        }
    )*};
}

primitive_codec! {
    u8 => put_u8, get_u8;
    bool => put_bool, get_bool;
    u64 => put_u64, get_u64;
    i64 => put_i64, get_i64;
    f64 => put_f64, get_f64;
}

/// An `i32` travels as its `u32` bit pattern.
impl WireEncode for i32 {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(*self as u32);
    }
}

impl WireDecode for i32 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(r.get_u32()? as i32)
    }
}

impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_seq(self);
    }
}

impl<T: WireDecode> WireDecode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_seq()
    }
}

impl<T: WireEncode> WireEncode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_option(self);
    }
}

impl<T: WireDecode> WireDecode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_option()
    }
}

/// A string-keyed map travels as a `u32` entry count followed by each
/// key and value, in key order.
impl<T: WireEncode> WireEncode for BTreeMap<String, T> {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.len() as u32);
        for (k, v) in self {
            w.put_str(k);
            v.encode(w);
        }
    }
}

impl<T: WireDecode> WireDecode for BTreeMap<String, T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.get_u32()? as usize;
        let mut m = BTreeMap::new();
        for _ in 0..n {
            let k = r.get_str()?;
            m.insert(k, T::decode(r)?);
        }
        Ok(m)
    }
}

impl WireEncode for Bytes {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self);
    }
}

impl WireDecode for Bytes {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_bytes()
    }
}

impl WireEncode for NodeId {
    fn encode(&self, w: &mut Writer) {
        w.put_u16(self.0);
    }
}

impl WireDecode for NodeId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(NodeId(r.get_u16()?))
    }
}

impl WireEncode for ObjName {
    fn encode(&self, w: &mut Writer) {
        w.put_u128(self.to_u128());
    }
}

impl WireDecode for ObjName {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ObjName::from_u128(r.get_u128()?))
    }
}

impl WireEncode for Rights {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.bits());
    }
}

impl WireDecode for Rights {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Rights::from_bits(r.get_u32()?))
    }
}

impl WireEncode for Capability {
    fn encode(&self, w: &mut Writer) {
        self.name().encode(w);
        self.rights().encode(w);
    }
}

impl WireDecode for Capability {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let name = ObjName::decode(r)?;
        let rights = Rights::decode(r)?;
        Ok(Capability::with_rights(name, rights))
    }
}

impl<A: WireEncode, B: WireEncode> WireEncode for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
}

impl<A: WireDecode, B: WireDecode> WireDecode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_capability::{NameGenerator, NodeId};
    use proptest::prelude::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_i64(-12345);
        w.put_f64(2.5);
        w.put_bool(true);
        w.put_str("héllo");
        w.put_bytes(&[1, 2, 3]);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 300);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), 1 << 40);
        assert_eq!(r.get_i64().unwrap(), -12345);
        assert_eq!(r.get_f64().unwrap(), 2.5);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(&r.get_bytes().unwrap()[..], &[1, 2, 3]);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_input_reports_eof() {
        let mut w = Writer::new();
        w.put_str("abcdef");
        let buf = w.finish();
        let mut r = Reader::new(&buf[..buf.len() - 2]);
        assert_eq!(r.get_str(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.get_str(), Err(CodecError::LengthOverflow(_))));
    }

    #[test]
    fn bad_utf8_is_rejected() {
        let mut w = Writer::new();
        w.put_bytes(&[0xff, 0xfe]);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_str(), Err(CodecError::BadUtf8));
    }

    #[test]
    fn option_round_trips() {
        let mut w = Writer::new();
        w.put_option(&Some(42u64));
        w.put_option::<u64>(&None);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_option::<u64>().unwrap(), Some(42));
        assert_eq!(r.get_option::<u64>().unwrap(), None);
    }

    #[test]
    fn bad_option_tag_is_rejected() {
        let mut r = Reader::new(&[9]);
        assert!(matches!(
            r.get_option::<u64>(),
            Err(CodecError::BadTag { what: "Option", .. })
        ));
    }

    #[test]
    fn trailing_bytes_detected_by_decode_from_bytes() {
        let mut w = Writer::new();
        w.put_u64(1);
        w.put_u8(0xcc);
        let buf = w.finish();
        assert_eq!(
            u64::decode_from_bytes(&buf),
            Err(CodecError::TrailingBytes(1))
        );
    }

    #[test]
    fn capability_round_trips() {
        let g = NameGenerator::with_epoch(NodeId(4), 77);
        let cap = Capability::mint(g.next_name()).restrict(Rights::READ | Rights::MOVE);
        let buf = cap.encode_to_bytes();
        assert_eq!(Capability::decode_from_bytes(&buf).unwrap(), cap);
    }

    #[test]
    fn shared_reader_slices_instead_of_copying() {
        let mut w = Writer::new();
        w.put_bytes(&[7u8; 64]);
        let buf = w.finish();
        let mut r = Reader::shared(&buf);
        let blob = r.get_bytes().unwrap();
        assert_eq!(&blob[..], &[7u8; 64]);
        // Zero-copy: the blob aliases the backing buffer's allocation.
        let range = buf.as_ptr() as usize..buf.as_ptr() as usize + buf.len();
        assert!(range.contains(&(blob.as_ptr() as usize)));
    }

    #[test]
    fn encode_reusing_round_trips_and_reuses_capacity() {
        let mut scratch = BytesMut::with_capacity(4096);
        for v in [42u64, 43, u64::MAX] {
            let b = v.encode_reusing(&mut scratch);
            assert_eq!(u64::decode_from_bytes(&b).unwrap(), v);
            // Each encode splits its frame off and hands the scratch
            // back empty but still holding its allocation, so the
            // steady state never grows a fresh buffer from zero.
            assert!(scratch.is_empty());
            assert!(scratch.capacity() >= 4096);
        }
    }

    proptest! {
        #[test]
        fn shared_and_copying_decoders_agree(
            blobs in proptest::collection::vec(
                proptest::collection::vec(0u8.., 0..128), 0..8),
            s in ".{0,64}",
        ) {
            let mut w = Writer::new();
            w.put_str(&s);
            w.put_u32(blobs.len() as u32);
            for b in &blobs {
                w.put_bytes(b);
            }
            let buf = w.finish();

            let mut copying = Reader::new(&buf);
            let mut shared = Reader::shared(&buf);
            prop_assert_eq!(copying.get_str().unwrap(), shared.get_str().unwrap());
            let n = copying.get_u32().unwrap();
            prop_assert_eq!(n, shared.get_u32().unwrap());
            for _ in 0..n {
                prop_assert_eq!(copying.get_bytes().unwrap(), shared.get_bytes().unwrap());
            }
            copying.expect_end().unwrap();
            shared.expect_end().unwrap();
        }

        #[test]
        fn objname_round_trips(node in 0u16.., epoch in 0u32.., seq in 0u64..) {
            let n = ObjName::from_parts(NodeId(node), epoch, seq);
            prop_assert_eq!(ObjName::decode_from_bytes(&n.encode_to_bytes()).unwrap(), n);
        }

        #[test]
        fn string_round_trips(s in ".{0,200}") {
            prop_assert_eq!(String::decode_from_bytes(&s.clone().encode_to_bytes()).unwrap(), s);
        }

        #[test]
        fn byte_seq_round_trips(v in proptest::collection::vec(0u64.., 0..64)) {
            let mut w = Writer::new();
            w.put_seq(&v);
            let buf = w.finish();
            let mut r = Reader::new(&buf);
            prop_assert_eq!(r.get_seq::<u64>().unwrap(), v);
            r.expect_end().unwrap();
        }

        #[test]
        fn random_garbage_never_panics(garbage in proptest::collection::vec(0u8.., 0..256)) {
            // Decoding arbitrary bytes as any wire type must fail cleanly,
            // never panic.
            let _ = Capability::decode_from_bytes(&garbage);
            let _ = String::decode_from_bytes(&garbage);
            let mut r = Reader::new(&garbage);
            let _ = r.get_seq::<(u64, String)>();
        }
    }
}
