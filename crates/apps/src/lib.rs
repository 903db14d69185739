//! Example Eden applications: the "advanced distributed applications"
//! the system was built to host (§1, §2).
//!
//! Each module is a complete type manager (plus a small client facade)
//! exercising a different slice of the kernel:
//!
//! * [`counter`] — the minimal quickstart type.
//! * [`mail`] — a distributed mail system: per-user mailbox objects
//!   named through an EFS directory; senders and readers on any node.
//! * [`calendar`] — per-user calendars plus a multi-object meeting
//!   scheduler — a transactionless distributed application where one
//!   invocation fans out into many.
//! * [`queue`] — a shared work queue whose invocation classes provide
//!   all the synchronization (no locks in the type code).
//! * [`monitor`] — cluster-wide telemetry as an object: holds one
//!   read-only capability per node and scrapes metrics, traces and
//!   flight events purely through invocation.
//! * [`policy`] — a policy *object* (§4.3) that makes location decisions
//!   for other objects, wrapping the kernel `move` primitive.
//! * [`hierarchy`] — the §5 abstract type hierarchy: a three-level
//!   subtype family inheriting display code and location operations.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod calendar;
pub mod counter;
pub mod hierarchy;
pub mod mail;
pub mod monitor;
pub mod policy;
pub mod queue;

pub use calendar::{CalendarType, MeetingScheduler};
pub use counter::CounterType;
pub use hierarchy::{AuditedQueueType, NamedQueueType, ResourceType};
pub use mail::{MailClient, MailboxType};
pub use monitor::{ClusterMembership, ClusterMetrics, MemberRow, MonitorClient, MonitorType};
pub use policy::PolicyObjectType;
pub use queue::SharedQueueType;

use eden_kernel::ClusterBuilder;

/// Registers every application type (and the EFS types they build on).
pub fn with_apps(builder: ClusterBuilder) -> ClusterBuilder {
    eden_efs::with_efs(builder)
        .register(|| Box::new(CounterType))
        .register(|| Box::new(MailboxType))
        .register(|| Box::new(CalendarType))
        .register(|| Box::new(SharedQueueType))
        .register(|| Box::new(PolicyObjectType))
        .register(|| Box::new(ResourceType))
        .register(|| Box::new(NamedQueueType))
        .register(|| Box::new(AuditedQueueType))
        .register(|| Box::new(MonitorType))
}
