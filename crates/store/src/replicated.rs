//! K-way replicated checkpoint storage.
//!
//! §4.4: "an object may specify, through the checksite primitive, which
//! node is responsible for maintaining its long-term storage, and what
//! level of reliability is required. Different reliability levels may
//! cause different actions when a checkpoint is issued."
//!
//! [`ReplicatedStore`] composes several [`CheckpointStore`]s (typically the
//! checksite's disk plus backups on other nodes) and implements the
//! higher reliability levels: a `put` succeeds only when a write quorum
//! acknowledges, and reads fall back across replicas, repairing any
//! replica that missed the write.

use std::sync::Arc;

use bytes::Bytes;
use eden_capability::ObjName;

use crate::{CheckpointStore, StoreError};

/// A quorum-writing, fallback-reading composite store.
pub struct ReplicatedStore {
    replicas: Vec<Arc<dyn CheckpointStore>>,
    write_quorum: usize,
}

impl ReplicatedStore {
    /// Composes `replicas` with a required write quorum.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty or `write_quorum` is zero or exceeds
    /// the replica count — all configuration errors.
    pub fn new(replicas: Vec<Arc<dyn CheckpointStore>>, write_quorum: usize) -> Self {
        assert!(!replicas.is_empty(), "at least one replica required");
        assert!(
            (1..=replicas.len()).contains(&write_quorum),
            "write quorum must be within 1..=replica count"
        );
        ReplicatedStore {
            replicas,
            write_quorum,
        }
    }

    /// Full replication: every replica must acknowledge each checkpoint.
    pub fn fully_synchronous(replicas: Vec<Arc<dyn CheckpointStore>>) -> Self {
        let q = replicas.len();
        ReplicatedStore::new(replicas, q)
    }

    /// Direct access to one replica (failure-injection tests).
    pub fn replica(&self, i: usize) -> &Arc<dyn CheckpointStore> {
        &self.replicas[i]
    }

    /// Copies the latest version of `name` from the first replica that has
    /// it onto every replica that does not (read repair / anti-entropy).
    pub fn repair(&self, name: ObjName) -> Result<usize, StoreError> {
        let Some((version, data)) = self.latest(name)? else {
            return Ok(0);
        };
        let mut repaired = 0;
        for rep in &self.replicas {
            let has = rep
                .latest(name)?
                .map(|(v, _)| v >= version)
                .unwrap_or(false);
            if !has {
                rep.put(name, &data)?;
                repaired += 1;
            }
        }
        Ok(repaired)
    }
}

impl CheckpointStore for ReplicatedStore {
    fn put(&self, name: ObjName, image: &[u8]) -> Result<u64, StoreError> {
        let mut acked = 0usize;
        let mut version = 0u64;
        for rep in &self.replicas {
            match rep.put(name, image) {
                Ok(v) => {
                    acked += 1;
                    version = version.max(v);
                }
                Err(_) => continue,
            }
        }
        if acked >= self.write_quorum {
            Ok(version)
        } else {
            Err(StoreError::QuorumFailed {
                acked,
                needed: self.write_quorum,
            })
        }
    }

    fn latest(&self, name: ObjName) -> Result<Option<(u64, Bytes)>, StoreError> {
        let mut best: Option<(u64, Bytes)> = None;
        let mut last_err = None;
        for rep in &self.replicas {
            match rep.latest(name) {
                Ok(Some((v, b))) => {
                    if best.as_ref().map(|(bv, _)| v > *bv).unwrap_or(true) {
                        best = Some((v, b));
                    }
                }
                Ok(None) => {}
                Err(e) => last_err = Some(e),
            }
        }
        match (best, last_err) {
            (Some(found), _) => Ok(Some(found)),
            (None, Some(e)) => Err(e),
            (None, None) => Ok(None),
        }
    }

    fn get(&self, name: ObjName, version: u64) -> Result<Option<Bytes>, StoreError> {
        let mut last_err = None;
        for rep in &self.replicas {
            match rep.get(name, version) {
                Ok(Some(b)) => return Ok(Some(b)),
                Ok(None) => {}
                Err(e) => last_err = Some(e),
            }
        }
        match last_err {
            Some(e) => Err(e),
            None => Ok(None),
        }
    }

    fn versions(&self, name: ObjName) -> Result<Vec<u64>, StoreError> {
        let mut all: Vec<u64> = Vec::new();
        for rep in &self.replicas {
            if let Ok(vs) = rep.versions(name) {
                all.extend(vs);
            }
        }
        all.sort_unstable();
        all.dedup();
        Ok(all)
    }

    fn delete(&self, name: ObjName) -> Result<(), StoreError> {
        let mut ok = 0usize;
        for rep in &self.replicas {
            if rep.delete(name).is_ok() {
                ok += 1;
            }
        }
        if ok >= self.write_quorum {
            Ok(())
        } else {
            Err(StoreError::QuorumFailed {
                acked: ok,
                needed: self.write_quorum,
            })
        }
    }

    fn names(&self) -> Result<Vec<ObjName>, StoreError> {
        let mut all: Vec<ObjName> = Vec::new();
        for rep in &self.replicas {
            if let Ok(ns) = rep.names() {
                all.extend(ns);
            }
        }
        all.sort();
        all.dedup();
        Ok(all)
    }

    fn flush(&self) -> Result<(), StoreError> {
        for rep in &self.replicas {
            rep.flush()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faulty::{FaultPlan, FaultyStore};
    use crate::mem::MemStore;
    use eden_capability::{NameGenerator, NodeId};

    fn gen() -> NameGenerator {
        NameGenerator::with_epoch(NodeId(3), 0xcafe)
    }

    fn three_mem() -> Vec<Arc<dyn CheckpointStore>> {
        (0..3)
            .map(|_| Arc::new(MemStore::new()) as Arc<dyn CheckpointStore>)
            .collect()
    }

    #[test]
    fn replicated_store_satisfies_contract() {
        let store = ReplicatedStore::fully_synchronous(three_mem());
        crate::contract::exercise_store_contract(&store);
    }

    #[test]
    fn write_lands_on_every_replica() {
        let store = ReplicatedStore::fully_synchronous(three_mem());
        let n = gen().next_name();
        store.put(n, b"replicated").unwrap();
        for i in 0..3 {
            assert_eq!(
                &store.replica(i).latest(n).unwrap().unwrap().1[..],
                b"replicated"
            );
        }
    }

    #[test]
    fn quorum_write_tolerates_minority_failure() {
        let dead = Arc::new(FaultyStore::new(
            MemStore::new(),
            FaultPlan::fail_all_writes(),
        ));
        let replicas: Vec<Arc<dyn CheckpointStore>> =
            vec![Arc::new(MemStore::new()), Arc::new(MemStore::new()), dead];
        let store = ReplicatedStore::new(replicas, 2);
        let n = gen().next_name();
        store.put(n, b"still durable").unwrap();
        assert_eq!(&store.latest(n).unwrap().unwrap().1[..], b"still durable");
    }

    #[test]
    fn quorum_write_fails_when_majority_fails() {
        let replicas: Vec<Arc<dyn CheckpointStore>> = vec![
            Arc::new(FaultyStore::new(
                MemStore::new(),
                FaultPlan::fail_all_writes(),
            )),
            Arc::new(FaultyStore::new(
                MemStore::new(),
                FaultPlan::fail_all_writes(),
            )),
            Arc::new(MemStore::new()),
        ];
        let store = ReplicatedStore::new(replicas, 2);
        let n = gen().next_name();
        assert!(matches!(
            store.put(n, b"won't make it"),
            Err(StoreError::QuorumFailed {
                acked: 1,
                needed: 2
            })
        ));
    }

    #[test]
    fn read_falls_back_past_failed_replica() {
        let good = Arc::new(MemStore::new());
        let n = gen().next_name();
        good.put(n, b"survivor").unwrap();
        let replicas: Vec<Arc<dyn CheckpointStore>> = vec![
            Arc::new(FaultyStore::new(
                MemStore::new(),
                FaultPlan::fail_all_reads(),
            )),
            good,
        ];
        let store = ReplicatedStore::new(replicas, 1);
        assert_eq!(&store.latest(n).unwrap().unwrap().1[..], b"survivor");
    }

    #[test]
    fn repair_heals_a_lagging_replica() {
        let a = Arc::new(MemStore::new());
        let b = Arc::new(MemStore::new());
        let n = gen().next_name();
        a.put(n, b"v1").unwrap();
        let store = ReplicatedStore::new(
            vec![
                a as Arc<dyn CheckpointStore>,
                b.clone() as Arc<dyn CheckpointStore>,
            ],
            1,
        );
        assert_eq!(b.latest(n).unwrap(), None);
        let repaired = store.repair(n).unwrap();
        assert_eq!(repaired, 1);
        assert_eq!(&b.latest(n).unwrap().unwrap().1[..], b"v1");
    }

    #[test]
    #[should_panic(expected = "write quorum")]
    fn zero_quorum_is_rejected() {
        let _ = ReplicatedStore::new(three_mem(), 0);
    }
}
