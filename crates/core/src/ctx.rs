//! The operation context: what a type manager sees from inside an object.
//!
//! §4.1: "When viewed from the inside … an object may have more
//! sophistication and complexity. The designer of the object … will wish
//! to achieve desired goals of reliability, performance, and fault
//! tolerance." [`OpCtx`] is the inside view — the §2 "Eden type
//! programmer" interface: representation access, nested invocation,
//! object creation, the checkpoint / checksite / crash primitives (§4.4),
//! freeze and move (§4.3), and the intra-object concurrency facilities
//! (§4.2).

use std::sync::Arc;

use eden_capability::{Capability, NodeId, ObjName, Rights};
use eden_wire::Value;

use crate::behavior::{spawn_behavior, BehaviorCtx};
use crate::error::{EdenError, Result};
use crate::node::Node;
use crate::object::{ObjectSlot, ReliabilityLevel};
use crate::repr::Representation;
use crate::sync::{EdenSemaphore, MessagePort};
use crate::types::OpError;

/// The inside view of one executing invocation (or initialization or
/// reincarnation handler) of one object.
pub struct OpCtx<'a> {
    pub(crate) node: &'a Node,
    pub(crate) slot: &'a Arc<ObjectSlot>,
    /// The capability the invoker presented.
    pub(crate) presented: Capability,
    /// The node the invocation came from.
    pub(crate) caller: NodeId,
    /// The operation being executed (empty for initialize/reincarnate).
    pub(crate) op: String,
}

impl<'a> OpCtx<'a> {
    pub(crate) fn new(
        node: &'a Node,
        slot: &'a Arc<ObjectSlot>,
        presented: Capability,
        caller: NodeId,
        op: impl Into<String>,
    ) -> Self {
        OpCtx {
            node,
            slot,
            presented,
            caller,
            op: op.into(),
        }
    }

    /// This object's unique name.
    pub fn name(&self) -> ObjName {
        self.slot.name
    }

    /// A full-rights capability for this object (an object trusts
    /// itself; restrict before handing out).
    pub fn self_cap(&self) -> Capability {
        Capability::mint(self.slot.name)
    }

    /// The node currently executing this object.
    pub fn node_id(&self) -> NodeId {
        self.node.node_id()
    }

    /// The kernel executing this object (policy objects consult it for
    /// peers and kernel-level moves).
    pub fn node(&self) -> &Node {
        self.node
    }

    /// The node the invocation arrived from.
    pub fn caller(&self) -> NodeId {
        self.caller
    }

    /// The rights carried by the presented capability (already checked
    /// against the operation's requirement; inspect for finer grading).
    pub fn presented_rights(&self) -> Rights {
        self.presented.rights()
    }

    /// The operation name being executed.
    pub fn op(&self) -> &str {
        &self.op
    }

    /// Whether this object's representation is frozen.
    pub fn is_frozen(&self) -> bool {
        self.slot.is_frozen()
    }

    /// Whether this execution runs against a cached frozen replica
    /// rather than the object's home instance.
    pub fn is_replica(&self) -> bool {
        self.slot.is_replica()
    }

    // ----- Representation access -----

    /// Reads the representation under the shared lock.
    pub fn read_repr<R>(&self, f: impl FnOnce(&Representation) -> R) -> R {
        f(&self.slot.repr.read())
    }

    /// Mutates the representation under the exclusive lock.
    ///
    /// Fails with [`OpError::Frozen`] once the object is frozen (§4.3:
    /// "When an object is frozen its representation is made immutable").
    pub fn mutate_repr<R>(
        &self,
        f: impl FnOnce(&mut Representation) -> R,
    ) -> std::result::Result<R, OpError> {
        if self.slot.is_frozen() {
            return Err(OpError::Frozen);
        }
        Ok(f(&mut self.slot.repr.write()))
    }

    // ----- Invocation and creation -----

    /// Invokes an operation on another object, location-independently.
    ///
    /// The calling invocation process blocks. It is an ordinary
    /// [`Node::invoke`](crate::Node::invoke), whose wait for the reply
    /// yields this process's virtual processor, so nested invocation
    /// cannot starve the node.
    pub fn invoke(&self, cap: Capability, op: &str, args: &[Value]) -> Result<Vec<Value>> {
        self.node.invoke(cap, op, args)
    }

    /// Creates a new object of `type_name` on this node, returning its
    /// full-rights capability.
    pub fn create_object(&self, type_name: &str, args: &[Value]) -> Result<Capability> {
        self.node.create_object(type_name, args)
    }

    // ----- Reliability primitives (§4.4) -----

    /// Records the representation on long-term storage at the checksite.
    ///
    /// "The type programmer must ensure that the object's representation
    /// is in a consistent state at the time the checkpoint is requested."
    /// Returns the durable version number.
    pub fn checkpoint(&self) -> Result<u64> {
        self.node.checkpoint_slot(self.slot)
    }

    /// Selects which node keeps this object's long-term state, and at
    /// what reliability level.
    pub fn set_checksite(&self, node: NodeId, level: ReliabilityLevel) -> Result<()> {
        self.node.set_checksite(self.slot, node, level)
    }

    /// Crashes this object: all active state is destroyed after the
    /// current invocations complete; if checkpointed, the object becomes
    /// passive and reincarnates on its next invocation. "An object may
    /// use crash to recover from its own internal failures, or as a form
    /// of exit operation to release system virtual memory resources."
    pub fn crash(&self) {
        self.node.request_crash(self.slot);
    }

    /// Destroys this object permanently: active state and checkpoints are
    /// discarded; the name is never reused.
    pub fn destroy(&self) {
        self.node.request_destroy(self.slot);
    }

    // ----- Location primitives (§4.3) -----

    /// Freezes the representation: it becomes immutable (and is
    /// checkpointed in frozen form) but remains invocable, and other
    /// kernels may cache replicas.
    pub fn freeze(&self) -> Result<u64> {
        self.node.freeze_slot(self.slot)
    }

    /// Requests that this object move to `dst`. The move is deferred
    /// until in-flight invocations (including the requesting one)
    /// complete; new invocations queue and follow the object.
    pub fn move_to(&self, dst: NodeId) -> Result<()> {
        self.node.request_move(self.slot, dst)
    }

    // ----- Intra-object concurrency (§4.2) -----

    /// The named intra-object semaphore (created with `initial` permits
    /// on first use).
    pub fn semaphore(&self, name: &str, initial: u64) -> Arc<EdenSemaphore> {
        self.slot.semaphore(name, initial)
    }

    /// The named intra-object message port (unbounded on first use).
    pub fn port(&self, name: &str) -> Arc<MessagePort> {
        self.slot.port(name)
    }

    /// Spawns a detached behavior process for this object. Typically
    /// called from [`TypeManager::reincarnate`](crate::TypeManager::reincarnate)
    /// or `initialize`.
    pub fn spawn_behavior(&self, label: &str, body: impl FnOnce(BehaviorCtx) + Send + 'static) {
        spawn_behavior(self.node.clone(), self.slot.clone(), label, body);
    }

    // ----- Short-term scratch data -----

    /// Reads a scratch (short-term, never checkpointed) value.
    pub fn scratch_get(&self, key: &str) -> Option<Value> {
        self.slot.short.scratch.lock().get(key).cloned()
    }

    /// Writes a scratch value.
    pub fn scratch_put(&self, key: &str, value: Value) {
        self.slot
            .short
            .scratch
            .lock()
            .insert(key.to_string(), value);
    }

    /// Removes a scratch value.
    pub fn scratch_remove(&self, key: &str) -> Option<Value> {
        self.slot.short.scratch.lock().remove(key)
    }

    /// A capability for an argument position, with a type error if absent.
    pub fn cap_arg(args: &[Value], index: usize) -> std::result::Result<Capability, OpError> {
        args.get(index)
            .and_then(Value::as_cap)
            .ok_or_else(|| OpError::type_error(format!("argument {index} must be a capability")))
    }

    /// A string argument accessor with a type error if absent.
    pub fn str_arg(args: &[Value], index: usize) -> std::result::Result<&str, OpError> {
        args.get(index)
            .and_then(Value::as_str)
            .ok_or_else(|| OpError::type_error(format!("argument {index} must be a string")))
    }

    /// An integer argument accessor with a type error if absent.
    pub fn i64_arg(args: &[Value], index: usize) -> std::result::Result<i64, OpError> {
        args.get(index)
            .and_then(Value::as_i64)
            .ok_or_else(|| OpError::type_error(format!("argument {index} must be an i64")))
    }

    /// An unsigned argument accessor with a type error if absent.
    pub fn u64_arg(args: &[Value], index: usize) -> std::result::Result<u64, OpError> {
        args.get(index)
            .and_then(Value::as_u64)
            .ok_or_else(|| OpError::type_error(format!("argument {index} must be a u64")))
    }

    /// Ensures the presented capability carries `required` beyond the
    /// operation's declared minimum (dynamic, data-dependent checks).
    pub fn require_rights(&self, required: Rights) -> std::result::Result<(), OpError> {
        if self.presented.permits(required) {
            Ok(())
        } else {
            Err(OpError::Kernel(EdenError::Invoke(
                eden_wire::Status::RightsViolation {
                    required,
                    held: self.presented.rights(),
                },
            )))
        }
    }
}
