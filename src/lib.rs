//! # Eden — a reproduction of *The Architecture of the Eden System* (SOSP 1981)
//!
//! Eden is an "integrated distributed" computing system: a set of node
//! machines on a local network presenting users with a single,
//! location-independent address space of **objects**. Each object has a
//! unique name, a representation, a type (a type manager defining its
//! operations) and some number of invocations; objects refer to one another
//! with **capabilities** and interact only by **invocation**.
//!
//! This crate is a facade re-exporting the public API of the workspace:
//!
//! * [`capability`] — names, rights, capabilities, capability lists.
//! * [`wire`] — values, invocation messages and the binary codec.
//! * [`transport`] — frame delivery between kernels (in-process mesh, TCP).
//! * [`ethersim`] — a discrete-event CSMA/CD Ethernet simulator.
//! * [`store`] — crash-safe checkpoint storage with replication.
//! * [`kernel`] — the Eden kernel: nodes, objects, invocation, location,
//!   mobility, freezing, checkpoint/crash, behaviors, intra-object sync.
//! * [`efs`] — the Eden File System: versions, directories, transactions.
//! * [`apps`] — example type managers (mail, calendar, shared queue).
//! * [`obs`] — observability: distributed invocation tracing, lock-free
//!   latency histograms, and the per-node flight recorder.
//!
//! ## Quickstart
//!
//! ```
//! use eden::kernel::Cluster;
//! use eden::apps::counter::CounterType;
//! use eden::wire::Value;
//!
//! // Build a two-node Eden system connected by an in-process network.
//! let cluster = Cluster::builder()
//!     .nodes(2)
//!     .register(|| Box::new(CounterType))
//!     .build();
//!
//! // Create a counter object on node 0 and invoke it from node 1:
//! // the invocation is location-independent.
//! let cap = cluster.node(0).create_object("counter", &[]).unwrap();
//! let reply = cluster.node(1).invoke(cap, "add", &[Value::I64(5)]).unwrap();
//! assert_eq!(reply, vec![Value::I64(5)]);
//! cluster.shutdown();
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub use eden_apps as apps;
pub use eden_capability as capability;
pub use eden_efs as efs;
pub use eden_ethersim as ethersim;
pub use eden_kernel as kernel;
pub use eden_obs as obs;
pub use eden_store as store;
pub use eden_transport as transport;
pub use eden_wire as wire;
