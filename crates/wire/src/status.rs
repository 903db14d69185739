//! Invocation status words.
//!
//! §4.2: the target object "executes the request and responds with status
//! and return parameters". [`Status`] is that status word. Kernel-detected
//! failures (no such object, rights violation, timeout, …) and
//! type-manager-reported application errors share the one status channel,
//! exactly as the paper's `Returns (status)` sketch suggests.

use eden_capability::Rights;

use crate::codec::wire_enum;

wire_enum! {
    /// The outcome of an invocation.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Status {
        /// A stable short label for metrics and table output.
        pub fn label;

        /// The operation completed; results are valid.
        0 => Ok "ok",
        /// No object with the target name exists anywhere the kernel could find.
        1 => NoSuchObject "no-such-object",
        /// The target's type defines no such operation.
        2 => NoSuchOperation "no-such-operation" (operation: String),
        /// The capability lacked rights the operation requires.
        3 => RightsViolation "rights-violation" {
            /// Rights the operation requires.
            required: Rights,
            /// Rights the presented capability carried.
            held: Rights,
        },
        /// The user-supplied timeout expired before a reply arrived (§4.2:
        /// "the invoker wishes to be notified if the invocation is not
        /// completed within some time limit").
        4 => Timeout "timeout",
        /// The object crashed (§4.4) while the invocation was queued or
        /// in flight and could not be transparently recovered.
        5 => ObjectCrashed "object-crashed",
        /// A mutating operation was attempted on a frozen object (§4.3).
        6 => Frozen "frozen",
        /// Parameters did not match what the operation expects.
        7 => TypeError "type-error" (message: String),
        /// The node believed to hold the object could not be reached.
        8 => NodeUnreachable "node-unreachable",
        /// The object was destroyed; its name will never be reused.
        9 => Destroyed "destroyed",
        /// An error reported by the type manager itself.
        10 => AppError "app-error" {
            /// A type-manager-defined code.
            code: i32,
            /// Human-readable detail.
            message: String,
        },
        /// The serving node's virtual-processor pool is saturated: its task
        /// queue is at capacity and the invocation was shed rather than
        /// queued. Backpressure, not failure — the caller may retry.
        11 => Overloaded "overloaded",
    }
}

impl Status {
    /// Tests whether the invocation succeeded.
    pub fn is_ok(&self) -> bool {
        matches!(self, Status::Ok)
    }
}

impl core::fmt::Display for Status {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Status::NoSuchOperation(op) => write!(f, "no such operation: {op}"),
            Status::RightsViolation { required, held } => {
                write!(f, "rights violation: required {required:?}, held {held:?}")
            }
            Status::TypeError(msg) => write!(f, "type error: {msg}"),
            Status::AppError { code, message } => write!(f, "application error {code}: {message}"),
            other => f.write_str(other.label()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{WireDecode, WireEncode};
    use proptest::prelude::*;

    fn any_status() -> impl Strategy<Value = Status> {
        prop_oneof![
            Just(Status::Ok),
            Just(Status::NoSuchObject),
            "[a-z]{0,12}".prop_map(Status::NoSuchOperation),
            (0u32.., 0u32..).prop_map(|(r, h)| Status::RightsViolation {
                required: Rights::from_bits(r),
                held: Rights::from_bits(h),
            }),
            Just(Status::Timeout),
            Just(Status::ObjectCrashed),
            Just(Status::Frozen),
            ".{0,32}".prop_map(Status::TypeError),
            Just(Status::NodeUnreachable),
            Just(Status::Destroyed),
            (any::<i32>(), ".{0,32}")
                .prop_map(|(code, message)| Status::AppError { code, message }),
            Just(Status::Overloaded),
        ]
    }

    proptest! {
        #[test]
        fn status_round_trips(s in any_status()) {
            prop_assert_eq!(Status::decode_from_bytes(&s.encode_to_bytes()).unwrap(), s);
        }
    }

    #[test]
    fn only_ok_is_ok() {
        assert!(Status::Ok.is_ok());
        assert!(!Status::Timeout.is_ok());
        assert!(!Status::AppError {
            code: 0,
            message: String::new()
        }
        .is_ok());
    }

    #[test]
    fn display_mentions_operation_name() {
        let s = format!("{}", Status::NoSuchOperation("put".into()));
        assert!(s.contains("put"));
    }

    #[test]
    fn labels_are_distinct_for_distinct_variants() {
        let variants = [
            Status::Ok,
            Status::NoSuchObject,
            Status::NoSuchOperation(String::new()),
            Status::RightsViolation {
                required: Rights::READ,
                held: Rights::empty(),
            },
            Status::Timeout,
            Status::ObjectCrashed,
            Status::Frozen,
            Status::TypeError(String::new()),
            Status::NodeUnreachable,
            Status::Destroyed,
            Status::AppError {
                code: 0,
                message: String::new(),
            },
            Status::Overloaded,
        ];
        let labels: std::collections::HashSet<_> = variants.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), variants.len());
    }
}
