//! The invocation parameter algebra.
//!
//! Invocation parameters and results are lists of [`Value`]s: plain data
//! (there is no shared memory between objects, §2) or capabilities, which
//! are the only way authority moves through the system.

use std::collections::BTreeMap;

use bytes::Bytes;
use eden_capability::Capability;

use crate::codec::wire_enum;

wire_enum! {
    /// A single invocation parameter or result.
    ///
    /// # Examples
    ///
    /// ```
    /// use eden_wire::Value;
    ///
    /// let v = Value::List(vec![Value::I64(1), Value::Str("two".into())]);
    /// assert_eq!(v.type_name(), "list");
    /// ```
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// A short name for the value's runtime type, used in error messages.
        pub fn type_name;

        /// The absence of a value.
        0 => Unit "unit",
        /// A boolean.
        1 => Bool "bool" (b: bool),
        /// A signed 64-bit integer.
        2 => I64 "i64" (v: i64),
        /// An unsigned 64-bit integer.
        3 => U64 "u64" (v: u64),
        /// A 64-bit IEEE-754 float.
        4 => F64 "f64" (v: f64),
        /// A UTF-8 string.
        5 => Str "str" (s: String),
        /// An uninterpreted byte string.
        6 => Blob "blob" (b: Bytes),
        /// An ordered list of values.
        7 => List "list" (items: Vec<Value>),
        /// A string-keyed map of values (deterministic order).
        8 => Map "map" (m: BTreeMap<String, Value>),
        /// A capability — the only value that conveys authority.
        9 => Cap "cap" (c: Capability),
    }
}

impl Value {
    /// Extracts a bool, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extracts an `i64`, if this is one.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts a `u64`, if this is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts an `f64`, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts a string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extracts the byte string, if this is a blob.
    pub fn as_blob(&self) -> Option<&Bytes> {
        match self {
            Value::Blob(b) => Some(b),
            _ => None,
        }
    }

    /// Extracts the element list, if this is a list.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(v) => Some(v),
            _ => None,
        }
    }

    /// Extracts the map, if this is a map.
    pub fn as_map(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Extracts a capability, if this is one.
    pub fn as_cap(&self) -> Option<Capability> {
        match self {
            Value::Cap(c) => Some(*c),
            _ => None,
        }
    }

    /// The approximate encoded size in bytes, used for flow accounting.
    pub fn wire_size(&self) -> usize {
        match self {
            Value::Unit => 1,
            Value::Bool(_) => 2,
            Value::I64(_) | Value::U64(_) | Value::F64(_) => 9,
            Value::Str(s) => 5 + s.len(),
            Value::Blob(b) => 5 + b.len(),
            Value::List(v) => 5 + v.iter().map(Value::wire_size).sum::<usize>(),
            Value::Map(m) => {
                5 + m
                    .iter()
                    .map(|(k, v)| 4 + k.len() + v.wire_size())
                    .sum::<usize>()
            }
            Value::Cap(_) => 21,
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<Bytes> for Value {
    fn from(v: Bytes) -> Self {
        Value::Blob(v)
    }
}

impl From<Capability> for Value {
    fn from(v: Capability) -> Self {
        Value::Cap(v)
    }
}

impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::List(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{WireDecode, WireEncode};
    use eden_capability::{NameGenerator, NodeId, Rights};
    use proptest::prelude::*;

    fn any_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Unit),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::I64),
            any::<u64>().prop_map(Value::U64),
            // NaN breaks PartialEq round-trip comparison; use finite floats.
            (-1e30f64..1e30).prop_map(Value::F64),
            ".{0,32}".prop_map(Value::Str),
            proptest::collection::vec(0u8.., 0..64).prop_map(|v| Value::Blob(Bytes::from(v))),
            (0u16.., 0u32.., 0u64.., 0u32..).prop_map(|(n, e, s, rights)| {
                Value::Cap(Capability::with_rights(
                    eden_capability::ObjName::from_parts(NodeId(n), e, s),
                    Rights::from_bits(rights),
                ))
            }),
        ];
        leaf.prop_recursive(3, 32, 8, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..8).prop_map(Value::List),
                proptest::collection::btree_map("[a-z]{1,5}", inner, 0..8).prop_map(Value::Map),
            ]
        })
    }

    proptest! {
        #[test]
        fn value_round_trips(v in any_value()) {
            let buf = v.encode_to_bytes();
            prop_assert_eq!(Value::decode_from_bytes(&buf).unwrap(), v);
        }

        #[test]
        fn wire_size_is_exact_for_every_value(v in any_value()) {
            prop_assert_eq!(v.wire_size(), v.encode_to_bytes().len());
        }
    }

    #[test]
    fn accessors_match_variants() {
        let g = NameGenerator::with_epoch(NodeId(1), 1);
        let cap = Capability::mint(g.next_name());
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::I64(-3).as_i64(), Some(-3));
        assert_eq!(Value::U64(3).as_u64(), Some(3));
        assert_eq!(Value::F64(1.5).as_f64(), Some(1.5));
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Cap(cap).as_cap(), Some(cap));
        assert_eq!(Value::I64(1).as_str(), None);
        assert_eq!(Value::Unit.as_cap(), None);
    }

    #[test]
    fn conversions_build_expected_variants() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(7i64), Value::I64(7));
        assert_eq!(Value::from("hi"), Value::Str("hi".into()));
        assert_eq!(
            Value::from(vec![Value::Unit]),
            Value::List(vec![Value::Unit])
        );
    }

    #[test]
    fn nested_value_round_trips() {
        let mut m = BTreeMap::new();
        m.insert(
            "k".to_string(),
            Value::List(vec![Value::I64(1), Value::Unit]),
        );
        let v = Value::Map(m);
        let buf = v.encode_to_bytes();
        assert_eq!(Value::decode_from_bytes(&buf).unwrap(), v);
    }
}
