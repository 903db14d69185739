//! Long-term storage for Eden object state.
//!
//! §4.4: "an object can request that the kernel record its long-term state
//! (representation) on a reliable storage medium through invocation of the
//! kernel checkpoint primitive. … Following a node failure, if an
//! invocation is received, the object will be reincarnated from the state
//! that existed at the time the most recent checkpoint was executed."
//!
//! This crate provides the storage media behind that contract:
//!
//! * [`MemStore`] — a volatile store for tests and benchmarks that do not
//!   exercise durability.
//! * [`DiskStore`] — an append-only, versioned log with recovery that
//!   truncates torn tails; the reproduction's equivalent of the
//!   file-server node's 300 MB disk (§3). Its memory holds one index
//!   entry per live object; older versions are read back from the log.
//!   Every record carries a CRC-32 (slicing-by-16 in four lanes,
//!   [`crc`]) that is checked on every read, so a damaged record surfaces
//!   as [`StoreError::Corrupt`] instead of feeding reincarnation.
//! * [`ReplicatedStore`] — a k-way replicated composite implementing the
//!   §4.4 notion of *reliability levels*: "Different reliability levels may
//!   cause different actions when a checkpoint is issued."
//! * [`FaultyStore`] — a fault-injecting wrapper used by the test suite to
//!   exercise recovery paths.
//!
//! All stores are keyed by [`ObjName`] and hold uninterpreted checkpoint
//! bytes (encoded `eden_wire::ObjectImage`s in practice —
//! the store does not care). Versions are per-object, monotone, and
//! assigned by the store at `put` time.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod crc;
pub mod disk;
pub mod faulty;
pub mod mem;
pub mod replicated;

use std::sync::Arc;

use bytes::Bytes;
use eden_capability::ObjName;
use eden_obs::ObsRegistry;

pub use disk::DiskStore;
pub use faulty::{FaultPlan, FaultyStore};
pub use mem::MemStore;
pub use replicated::ReplicatedStore;

/// Errors produced by checkpoint stores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An I/O failure, with the underlying error rendered.
    Io(String),
    /// A record failed its integrity check while being read.
    Corrupt {
        /// The object whose record was damaged.
        name: ObjName,
        /// The damaged version.
        version: u64,
    },
    /// An injected fault (see [`FaultyStore`]).
    Injected(&'static str),
    /// Fewer than the required number of replicas acknowledged a write.
    QuorumFailed {
        /// Replicas that acknowledged.
        acked: usize,
        /// Replicas required.
        needed: usize,
    },
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage I/O error: {e}"),
            StoreError::Corrupt { name, version } => {
                write!(f, "corrupt checkpoint record for {name} v{version}")
            }
            StoreError::Injected(what) => write!(f, "injected fault: {what}"),
            StoreError::QuorumFailed { acked, needed } => {
                write!(f, "only {acked}/{needed} replicas acknowledged")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

/// A versioned, crash-safe map from object names to checkpoint bytes.
///
/// Implementations must be safe to share between the kernel's virtual
/// processors (`Send + Sync`); `put` must be atomic — after a crash, either
/// the new version is fully readable or it is absent, never torn.
pub trait CheckpointStore: Send + Sync {
    /// Persists a new checkpoint for `name`, returning its version number.
    ///
    /// Versions are monotone per object: each successful `put` returns a
    /// number strictly greater than any previously returned for `name`.
    fn put(&self, name: ObjName, image: &[u8]) -> Result<u64, StoreError>;

    /// Returns the most recent checkpoint, if any.
    fn latest(&self, name: ObjName) -> Result<Option<(u64, Bytes)>, StoreError>;

    /// Returns a specific checkpoint version, if retained.
    fn get(&self, name: ObjName, version: u64) -> Result<Option<Bytes>, StoreError>;

    /// Lists the retained versions of `name`, oldest first.
    fn versions(&self, name: ObjName) -> Result<Vec<u64>, StoreError>;

    /// Removes every checkpoint of `name` (object destruction).
    fn delete(&self, name: ObjName) -> Result<(), StoreError>;

    /// Lists every object with at least one retained checkpoint.
    fn names(&self) -> Result<Vec<ObjName>, StoreError>;

    /// Forces buffered state to the medium.
    fn flush(&self) -> Result<(), StoreError>;

    /// Attaches an observability registry: stores that touch real media
    /// record `store.write` / `store.fsync` duration histograms into it.
    /// The default does nothing (in-memory stores have nothing worth
    /// timing).
    fn attach_obs(&self, obs: Arc<ObsRegistry>) {
        let _ = obs;
    }
}

#[cfg(test)]
pub(crate) mod contract {
    use super::*;
    use eden_capability::{NameGenerator, NodeId};

    /// The contract shared by all store implementations.
    pub(crate) fn exercise_store_contract(store: &dyn CheckpointStore) {
        let g = NameGenerator::with_epoch(NodeId(1), 0xabcd);
        let a = g.next_name();
        let b = g.next_name();

        assert_eq!(store.latest(a).unwrap(), None);
        assert!(store.versions(a).unwrap().is_empty());

        let v1 = store.put(a, b"state-1").unwrap();
        let v2 = store.put(a, b"state-2").unwrap();
        assert!(v2 > v1, "versions must be monotone");

        let (latest_v, latest_bytes) = store.latest(a).unwrap().unwrap();
        assert_eq!(latest_v, v2);
        assert_eq!(&latest_bytes[..], b"state-2");
        assert_eq!(&store.get(a, v1).unwrap().unwrap()[..], b"state-1");
        assert_eq!(store.get(a, 999_999).unwrap(), None);

        store.put(b, b"other").unwrap();
        let mut names = store.names().unwrap();
        names.sort();
        assert_eq!(names, vec![a, b]);

        store.delete(a).unwrap();
        assert_eq!(store.latest(a).unwrap(), None);
        assert_eq!(store.names().unwrap(), vec![b]);
        store.flush().unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_capability::{NameGenerator, NodeId};

    #[test]
    fn mem_store_satisfies_contract() {
        contract::exercise_store_contract(&MemStore::new());
    }

    #[test]
    fn stores_are_object_safe_and_shareable() {
        let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
        let g = NameGenerator::with_epoch(NodeId(2), 1);
        let name = g.next_name();
        let mut handles = Vec::new();
        for i in 0..8u8 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                store.put(name, &[i; 16]).unwrap()
            }));
        }
        let mut versions: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        versions.sort_unstable();
        versions.dedup();
        assert_eq!(
            versions.len(),
            8,
            "concurrent puts must get distinct versions"
        );
    }
}
