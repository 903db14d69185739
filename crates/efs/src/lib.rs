//! The Eden File System (EFS).
//!
//! §5: "A user-level system for naming, storing and retrieving Eden
//! objects, to which we refer as the Eden File System (EFS). EFS will be
//! transaction-based, storing immutable versions that may be replicated
//! at multiple sites for reliability or performance enhancement. …
//! concurrency control will be encapsulated to facilitate experimentation
//! with alternate approaches."
//!
//! Faithful to Figure 3's layering, EFS is built **entirely as Eden
//! objects using only kernel-supplied primitives** — every EFS structure
//! is a type manager dispatching invocations:
//!
//! * [`FileType`] — a file is a sequence of immutable versions; writes
//!   append a version and checkpoint; reads address any retained version.
//!   Files also export the lock/prepare/commit operations the transaction
//!   machinery drives (two-phase commit participants).
//! * [`BlobType`] — one immutable version published as a frozen object,
//!   so the kernel's replica caching (§4.3) gives EFS its "replicated at
//!   multiple sites" reads.
//! * [`DirectoryType`] — hierarchical naming: capability bindings in the
//!   directory object's capability segment.
//! * [`TxnManagerType`] — a transaction coordinator driving two-phase
//!   commit over file objects, with the concurrency-control discipline
//!   *encapsulated* behind [`ConcurrencyControl`]: strict two-phase
//!   locking ([`TwoPhaseLocking`]) and optimistic validation
//!   ([`OptimisticCC`]) ship, and experiments compare them (E8).
//! * [`RecordFileType`] — the "record management" layer of Figure 3:
//!   a keyed record store with ordered prefix scans and batched
//!   checkpointing.
//! * [`Efs`] — a client-side convenience facade (paths, read/write,
//!   transactions) so downstream code reads like file-system code.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod dir;
pub mod efs;
pub mod file;
pub mod records;
pub mod txn;

pub use dir::DirectoryType;
pub use efs::{Efs, EfsError};
pub use file::{BlobType, FileType};
pub use records::{RecordFileType, Records};
pub use txn::{ConcurrencyControl, OptimisticCC, Transaction, TwoPhaseLocking, TxnManagerType};

use eden_kernel::ClusterBuilder;

/// Registers every EFS type on a cluster builder.
///
/// # Examples
///
/// ```
/// use eden_kernel::Cluster;
///
/// let cluster = eden_efs::with_efs(Cluster::builder().nodes(2)).build();
/// let efs = eden_efs::Efs::format(cluster.node(0).clone()).unwrap();
/// efs.write("/notes/today", b"hello eden").unwrap();
/// assert_eq!(&efs.read("/notes/today").unwrap()[..], b"hello eden");
/// cluster.shutdown();
/// ```
pub fn with_efs(builder: ClusterBuilder) -> ClusterBuilder {
    builder
        .register(|| Box::new(FileType))
        .register(|| Box::new(BlobType))
        .register(|| Box::new(DirectoryType))
        .register(|| Box::new(TxnManagerType::two_phase_locking()))
        .register(|| Box::new(TxnManagerType::optimistic()))
        .register(|| Box::new(RecordFileType))
}
