//! Values, messages and the binary codec of the Eden kernel protocol.
//!
//! §4.2: "To invoke an operation on an object, the user supplies a
//! capability for the object, the name of the operation to be invoked, and
//! optionally a list of data and/or capability parameters." The kernel
//! "builds the invocation message from the invocation request, locates the
//! specified object, and sends the message to the object"; replies carry
//! "status and return parameters".
//!
//! This crate defines:
//!
//! * [`Value`] — the data/capability parameter algebra passed through
//!   invocations (there is no shared memory; parameters are values).
//! * [`Status`] — the status word of an invocation reply.
//! * [`Message`] and [`Frame`] — the kernel-to-kernel protocol: invocation
//!   requests/replies, location queries, object transfer for mobility,
//!   replica distribution for frozen objects, and remote checkpointing.
//! * [`codec`] — a compact, hand-rolled binary encoding with exhaustive
//!   round-trip property tests. No external serialization framework is
//!   used: the codec is small enough to audit and keeps the reproduction
//!   dependency-light.
//!
//! Every tagged enum on the wire is one table: a `wire_enum!` row per
//! variant gives its tag byte, its kind name and its fields in wire
//! order, and the table generates the enum, the kind-name accessor and
//! both codec directions, each field going through its type's own
//! codec. A new message is one row; a tag used twice fails to compile.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod codec;
#[cfg(test)]
mod golden;
pub mod image;
pub mod message;
pub mod obs_codec;
pub mod status;
pub mod value;

pub use codec::{CodecError, Reader, WireDecode, WireEncode, Writer};
pub use image::ObjectImage;
pub use message::{
    Dest, DirRegisterKind, DirState, Frame, HeldState, MemberStatus, MemberUpdate, Message,
};
pub use status::Status;
pub use value::Value;
