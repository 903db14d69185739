//! The cluster harness: a whole Eden system in one process.
//!
//! Figure 1 of the paper shows node machines and a file-server node on
//! one Ethernet. [`Cluster`] builds exactly that — N kernels over a
//! [`LoopbackMesh`] (optionally traffic-shaped to feel like the wire) —
//! and gives tests and benchmarks handles to every node plus failure
//! controls (kill, partition, heal).

use std::path::PathBuf;
use std::sync::Arc;

use eden_store::{CheckpointStore, DiskStore, MemStore};
use eden_transport::{LoopbackMesh, MeshOptions};
use parking_lot::Mutex;

use crate::node::{Node, NodeConfig};
use crate::types::{TypeManager, TypeRegistry};

type TypeFactory = Box<dyn Fn() -> Box<dyn TypeManager> + Send + Sync>;

/// Builds a [`Cluster`].
pub struct ClusterBuilder {
    /// Number of node machines.
    nodes: usize,
    /// Per-node kernel configuration.
    node_config: NodeConfig,
    /// Network shaping.
    mesh_options: MeshOptions,
    /// When set, each node gets a [`DiskStore`] log under this directory;
    /// otherwise checkpoints live in per-node [`MemStore`]s.
    disk_dir: Option<PathBuf>,
    factories: Vec<TypeFactory>,
}

impl ClusterBuilder {
    /// Number of node machines (ids `0..n`).
    #[must_use]
    pub fn nodes(mut self, n: usize) -> Self {
        self.nodes = n;
        self
    }

    /// Per-node kernel configuration.
    #[must_use]
    pub fn node_config(mut self, config: NodeConfig) -> Self {
        self.node_config = config;
        self
    }

    /// Network traffic shaping (latency, loss, seed).
    #[must_use]
    pub fn mesh(mut self, options: MeshOptions) -> Self {
        self.mesh_options = options;
        self
    }

    /// Store checkpoints on disk under `dir` (one log per node).
    #[must_use]
    pub fn disk_stores(mut self, dir: impl Into<PathBuf>) -> Self {
        self.disk_dir = Some(dir.into());
        self
    }

    /// Registers a type on every node; the factory runs once per node,
    /// mirroring the paper's per-node sharing of type code.
    #[must_use]
    pub fn register<F>(mut self, factory: F) -> Self
    where
        F: Fn() -> Box<dyn TypeManager> + Send + Sync + 'static,
    {
        self.factories.push(Box::new(factory));
        self
    }

    /// Boots the cluster.
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration (zero nodes, bad type specs, or an
    /// unwritable disk directory) — construction errors in a test
    /// harness.
    pub fn build(self) -> Cluster {
        assert!(self.nodes >= 1, "a cluster needs at least one node");
        let mesh = Arc::new(LoopbackMesh::with_options(self.nodes, self.mesh_options));
        let mut nodes = Vec::with_capacity(self.nodes);
        for i in 0..self.nodes {
            let registry = Arc::new(TypeRegistry::new());
            for factory in &self.factories {
                registry
                    .register(Arc::from(factory()))
                    .expect("type registration failed");
            }
            let store: Arc<dyn CheckpointStore> = match &self.disk_dir {
                Some(dir) => Arc::new(
                    DiskStore::open(
                        dir.join(format!("node-{i}.log")),
                        eden_store::disk::SyncPolicy::Never,
                    )
                    .expect("open disk store"),
                ),
                None => Arc::new(MemStore::new()),
            };
            let endpoint = mesh.endpoint(i);
            nodes.push(Node::new(
                self.node_config.clone(),
                endpoint,
                store,
                registry,
            ));
        }
        Cluster {
            nodes,
            mesh,
            down: Mutex::new(vec![false; self.nodes]),
        }
    }
}

/// A running in-process Eden system.
pub struct Cluster {
    nodes: Vec<Node>,
    mesh: Arc<LoopbackMesh>,
    down: Mutex<Vec<bool>>,
}

impl Cluster {
    /// Starts a builder.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder {
            nodes: 2,
            node_config: NodeConfig::default(),
            mesh_options: MeshOptions::default(),
            disk_dir: None,
            factories: Vec::new(),
        }
    }

    /// The kernel of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node(&self, i: usize) -> &Node {
        &self.nodes[i]
    }

    /// All kernels.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes (including killed ones).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no nodes (never true post-build).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The underlying mesh, for partitions and traffic inspection.
    pub fn mesh(&self) -> &LoopbackMesh {
        &self.mesh
    }

    /// Simulates a node-machine failure: the kernel stops and every
    /// frame to it vanishes. Active objects on it are lost (§4.4: "Eden
    /// makes no attempt to restore any state that existed in memory at
    /// the time of a crash"); checkpointed ones reincarnate elsewhere on
    /// their next invocation.
    pub fn kill(&self, i: usize) {
        // Claim the flag in its own scope: `shutdown()` joins the node's
        // threads, and holding `down` across that join would stall a
        // concurrent `kill` of another node for the whole teardown.
        {
            let mut down = self.down.lock();
            if down[i] {
                return;
            }
            down[i] = true;
        }
        self.mesh.kill(eden_capability::NodeId(i as u16));
        self.nodes[i].shutdown();
    }

    /// Stops every kernel and the mesh.
    pub fn shutdown(&self) {
        for node in &self.nodes {
            node.shutdown();
        }
        self.mesh.shutdown();
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}
