//! Serialized object representations.
//!
//! An [`ObjectImage`] is the portable form of an object's long-term state:
//! "the data and capability segments that form the object's long-term
//! state" (§4.1), plus the type name needed to rebind the image to its
//! type manager's code on the destination node. Images travel in three
//! situations: checkpointing to a checksite (§4.4), object mobility
//! (§4.3 `move`), and replica distribution for frozen objects (§4.3).
//!
//! Short-term state is deliberately *not* representable: "the short-term
//! state … is never written to long-term storage" (§4.1), and mobility and
//! reincarnation both reconstruct it from scratch.

use bytes::Bytes;

use crate::codec::{CodecError, Reader, WireDecode, WireEncode, Writer};
use eden_capability::Capability;

/// The portable long-term state of one object.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectImage {
    /// The name of the type whose manager interprets this representation.
    pub type_name: String,
    /// Named data segments, in deterministic (sorted) order.
    pub data: Vec<(String, Bytes)>,
    /// Named capability slots, in deterministic (sorted) order.
    pub caps: Vec<(String, Capability)>,
    /// Whether the representation is frozen (immutable, cacheable).
    pub frozen: bool,
    /// Monotone representation version, advanced on every checkpoint.
    pub version: u64,
}

impl ObjectImage {
    /// An empty, unfrozen image of the given type at version 0.
    pub fn empty(type_name: impl Into<String>) -> Self {
        ObjectImage {
            type_name: type_name.into(),
            data: Vec::new(),
            caps: Vec::new(),
            frozen: false,
            version: 0,
        }
    }

    /// Total payload bytes across all data segments.
    pub fn data_size(&self) -> usize {
        self.data.iter().map(|(k, v)| k.len() + v.len()).sum()
    }

    /// The exact length of the image's encoding: each string and byte
    /// string is a `u32` length and its bytes, a capability is a `u128`
    /// name and `u32` rights, and `frozen` and `version` take 1 and 8.
    pub fn encoded_len(&self) -> usize {
        let data: usize = self.data.iter().map(|(k, v)| 8 + k.len() + v.len()).sum();
        let caps: usize = self.caps.iter().map(|(k, _)| 4 + k.len() + 20).sum();
        4 + self.type_name.len() + 4 + data + 4 + caps + 1 + 8
    }
}

impl WireEncode for ObjectImage {
    /// Encodes into a buffer sized once from [`ObjectImage::encoded_len`]:
    /// a checkpoint's image is written without regrowing the buffer and
    /// becomes the `Bytes` without another copy.
    fn encode_to_bytes(&self) -> Bytes {
        let mut w = Writer::with_capacity(self.encoded_len());
        self.encode(&mut w);
        debug_assert_eq!(w.len(), self.encoded_len());
        w.finish()
    }

    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.type_name);
        w.put_u32(self.data.len() as u32);
        for (k, v) in &self.data {
            w.put_str(k);
            w.put_bytes(v);
        }
        w.put_u32(self.caps.len() as u32);
        for (k, c) in &self.caps {
            w.put_str(k);
            c.encode(w);
        }
        w.put_bool(self.frozen);
        w.put_u64(self.version);
    }
}

impl WireDecode for ObjectImage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let type_name = r.get_str()?;
        let n = r.get_u32()? as usize;
        let mut data = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let k = r.get_str()?;
            let v = r.get_bytes()?;
            data.push((k, v));
        }
        let n = r.get_u32()? as usize;
        let mut caps = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let k = r.get_str()?;
            let c = Capability::decode(r)?;
            caps.push((k, c));
        }
        let frozen = r.get_bool()?;
        let version = r.get_u64()?;
        Ok(ObjectImage {
            type_name,
            data,
            caps,
            frozen,
            version,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_capability::{NameGenerator, NodeId, Rights};
    use proptest::prelude::*;

    #[test]
    fn empty_image_has_no_payload() {
        let img = ObjectImage::empty("file");
        assert_eq!(img.data_size(), 0);
        assert_eq!(img.version, 0);
        assert!(!img.frozen);
    }

    #[test]
    fn image_round_trips() {
        let g = NameGenerator::with_epoch(NodeId(2), 3);
        let img = ObjectImage {
            type_name: "mailbox".into(),
            data: vec![
                ("body".into(), Bytes::from_static(b"hello")),
                ("count".into(), Bytes::from_static(&[0, 0, 0, 4])),
            ],
            caps: vec![("owner".into(), Capability::mint(g.next_name()))],
            frozen: true,
            version: 9,
        };
        let buf = img.encode_to_bytes();
        assert_eq!(ObjectImage::decode_from_bytes(&buf).unwrap(), img);
    }

    proptest! {
        #[test]
        fn arbitrary_images_round_trip(
            type_name in "[a-z]{1,10}",
            data in proptest::collection::vec(("[a-z]{1,8}", proptest::collection::vec(0u8.., 0..128)), 0..8),
            frozen in proptest::bool::ANY,
            version in 0u64..,
        ) {
            let img = ObjectImage {
                type_name,
                data: data.into_iter().map(|(k, v)| (k, Bytes::from(v))).collect(),
                caps: Vec::new(),
                frozen,
                version,
            };
            let buf = img.encode_to_bytes();
            prop_assert_eq!(ObjectImage::decode_from_bytes(&buf).unwrap(), img);
        }

        #[test]
        fn encoded_len_is_exact(
            type_name in "[a-z]{0,10}",
            data in proptest::collection::vec(("[a-z]{0,8}", proptest::collection::vec(0u8.., 0..300)), 0..8),
            caps in proptest::collection::vec(("[a-z]{0,8}", 0u32..), 0..4),
            frozen in proptest::bool::ANY,
            version in 0u64..,
        ) {
            let g = NameGenerator::with_epoch(NodeId(1), 7);
            let img = ObjectImage {
                type_name,
                data: data.into_iter().map(|(k, v)| (k, Bytes::from(v))).collect(),
                caps: caps
                    .into_iter()
                    .map(|(k, bits)| (k, Capability::with_rights(g.next_name(), Rights::from_bits(bits))))
                    .collect(),
                frozen,
                version,
            };
            let buf = img.encode_to_bytes();
            prop_assert_eq!(img.encoded_len(), buf.len());
            // The sized buffer writes the bytes the generic encoder writes.
            let mut w = Writer::new();
            img.encode(&mut w);
            prop_assert_eq!(buf, w.finish());
        }

        #[test]
        fn decoding_garbage_never_panics(garbage in proptest::collection::vec(0u8.., 0..512)) {
            let _ = ObjectImage::decode_from_bytes(&garbage);
        }
    }
}
