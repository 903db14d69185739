//! The Eden kernel: location-independent object support.
//!
//! "The Eden kernel simply provides the set of primitives needed to
//! support the object programming base of the system; for example, object
//! and type manager creation and object addressing and invocation" (§4).
//! Its synopsis (§4.5) lists exactly four primitive groups, and this crate
//! implements all of them:
//!
//! * **creation of new types and objects** — [`TypeManager`],
//!   [`TypeRegistry`], [`Node::create_object`];
//! * **location-independent object invocation** — [`Node::invoke`] and
//!   friends, backed by the location service (hint cache, birth-node hint,
//!   broadcast search, forwarding after moves);
//! * **preservation of object long-term state over failures** — the
//!   checkpoint / checksite / crash primitives on [`OpCtx`], with
//!   reincarnation on the next invocation;
//! * **intra-object communication and synchronization** — invocation
//!   classes with per-class concurrency limits, [`EdenSemaphore`],
//!   [`MessagePort`], and detached [`behavior`](OpCtx::spawn_behavior)
//!   processes.
//!
//! A [`Node`] is the abstraction of §4.3: "an object that supplies virtual
//! memory to store the segments of active objects and virtual processors
//! to execute invocations". One process can host many nodes (the
//! [`Cluster`] harness runs a whole Figure-1 system in-process over a
//! [`LoopbackMesh`](eden_transport::LoopbackMesh)), or one node per
//! process over TCP.
//!
//! ## A minimal type manager
//!
//! ```
//! use eden_kernel::{Cluster, OpCtx, OpError, OpResult, TypeManager, TypeSpec};
//! use eden_capability::Rights;
//! use eden_wire::Value;
//!
//! struct Greeter;
//!
//! impl TypeManager for Greeter {
//!     fn spec(&self) -> TypeSpec {
//!         TypeSpec::new("greeter")
//!             .class("reads", 4)
//!             .op("greet", "reads", Rights::READ)
//!     }
//!
//!     fn dispatch(&self, _ctx: &OpCtx<'_>, op: &str, args: &[Value]) -> OpResult {
//!         match op {
//!             "greet" => {
//!                 let who = args
//!                     .first()
//!                     .and_then(Value::as_str)
//!                     .ok_or_else(|| OpError::type_error("greet(name: str)"))?;
//!                 Ok(vec![Value::Str(format!("hello, {who}"))])
//!             }
//!             _ => Err(OpError::no_such_op(op)),
//!         }
//!     }
//! }
//!
//! let cluster = Cluster::builder()
//!     .nodes(2)
//!     .register(|| Box::new(Greeter))
//!     .build();
//! let cap = cluster.node(0).create_object("greeter", &[]).unwrap();
//! // Location-independent: invoked from node 1, executed on node 0.
//! let out = cluster.node(1).invoke(cap, "greet", &[Value::from("eden")]).unwrap();
//! assert_eq!(out[0].as_str(), Some("hello, eden"));
//! cluster.shutdown();
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod behavior;
pub mod cluster;
pub mod ctx;
pub mod error;
pub mod lru;
pub mod metrics;
pub mod node;
pub mod object;
pub mod pipeline;
pub mod policy;
pub mod repr;
pub mod sync;
pub mod types;
pub mod vproc;
pub mod waiter;

pub use cluster::{Cluster, ClusterBuilder};
pub use ctx::OpCtx;
pub use eden_directory::GossipConfig;
pub use error::{EdenError, Result};
pub use metrics::KernelMetrics;
pub use node::{node_object_cap, node_object_name, Node, NodeConfig, ObjectInfo, ReliabilityLevel};
pub use object::ObjStatus;
pub use pipeline::{PendingCall, PipelinedClient};
pub use repr::Representation;
pub use sync::{EdenSemaphore, MessagePort};
pub use types::{ClassSpec, OpError, OpResult, OpSpec, TypeManager, TypeRegistry, TypeSpec};
pub use vproc::VprocStats;
