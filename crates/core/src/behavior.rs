//! Behaviors: detached caretaker processes within an object.
//!
//! §4.2: "the reincarnation condition handler may wish to spawn one or
//! more detached processes to execute concurrently with invocation
//! processing. Such processes, called *behaviors* in Eden, operate
//! independently of invocations, except that they may exchange signals or
//! data through any of the intra-object communication mechanisms.
//! Behaviors can be used to perform object caretaking, for example, tree
//! balancing or internal garbage collection."
//!
//! A behavior is a plain OS thread bound to its object through a
//! [`BehaviorCtx`]. Behaviors are cooperative: the kernel requests a stop
//! (on crash, move-out, or node shutdown) by raising a flag and closing
//! the object's ports; a well-written behavior loop checks
//! [`BehaviorCtx::should_stop`] (or blocks in [`BehaviorCtx::wait`],
//! which the request wakes, or on a port, which unblocks with `None` on
//! closure) and exits. "A simple, single-thread traditional
//! program might be implemented as an object with a single behavior and
//! no invocable operations."

use std::sync::Arc;
use std::time::{Duration, Instant};

use eden_capability::Capability;
use eden_wire::Value;
use parking_lot::{Condvar, Mutex};

use crate::error::Result;
use crate::node::Node;
use crate::object::ObjectSlot;
use crate::repr::Representation;
use crate::sync::{EdenSemaphore, MessagePort};
use crate::types::OpError;

/// A behavior's stop request: a flag the kernel raises once, and the
/// condition a behavior sleeping in [`BehaviorCtx::wait`] blocks on.
type Stop = (Mutex<bool>, Condvar);

/// The kernel's handle on one running behavior.
pub struct BehaviorHandle {
    label: String,
    stop: Arc<Stop>,
}

impl BehaviorHandle {
    /// Raises the stop flag and wakes the behavior if it sleeps in
    /// [`BehaviorCtx::wait`]. The thread is detached; it observes the
    /// flag (or a closed port) and exits on its own.
    pub fn request_stop(&self) {
        *self.stop.0.lock() = true;
        self.stop.1.notify_all();
    }

    /// The label given at spawn time.
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// What a behavior thread can do: a subset of [`OpCtx`](crate::OpCtx)
/// bound to its object, plus stop-flag plumbing.
pub struct BehaviorCtx {
    pub(crate) node: Node,
    pub(crate) slot: Arc<ObjectSlot>,
    pub(crate) stop: Arc<Stop>,
}

impl BehaviorCtx {
    /// Whether the kernel has asked this behavior to exit.
    pub fn should_stop(&self) -> bool {
        *self.stop.0.lock()
    }

    /// Sleeps up to `d`, waking early if a stop is requested. Returns
    /// `true` if the behavior should keep running.
    pub fn wait(&self, d: Duration) -> bool {
        let deadline = Instant::now() + d;
        let mut stop = self.stop.0.lock();
        while !*stop && Instant::now() < deadline {
            let left = deadline.saturating_duration_since(Instant::now());
            self.stop.1.wait_for(&mut stop, left);
        }
        !*stop
    }

    /// A full-rights capability for the behavior's own object.
    pub fn self_cap(&self) -> Capability {
        Capability::mint(self.slot.name)
    }

    /// Reads the representation under the shared lock.
    pub fn read_repr<R>(&self, f: impl FnOnce(&Representation) -> R) -> R {
        f(&self.slot.repr.read())
    }

    /// Mutates the representation; fails on frozen objects.
    pub fn mutate_repr<R>(
        &self,
        f: impl FnOnce(&mut Representation) -> R,
    ) -> std::result::Result<R, OpError> {
        if self.slot.is_frozen() {
            return Err(OpError::Frozen);
        }
        Ok(f(&mut self.slot.repr.write()))
    }

    /// Invokes an operation on another object (location-independent).
    pub fn invoke(&self, cap: Capability, op: &str, args: &[Value]) -> Result<Vec<Value>> {
        self.node.invoke(cap, op, args)
    }

    /// Checkpoints the object's current representation.
    pub fn checkpoint(&self) -> Result<u64> {
        self.node.checkpoint_slot(&self.slot)
    }

    /// The named intra-object semaphore.
    pub fn semaphore(&self, name: &str, initial: u64) -> Arc<EdenSemaphore> {
        self.slot.semaphore(name, initial)
    }

    /// The named intra-object message port.
    pub fn port(&self, name: &str) -> Arc<MessagePort> {
        self.slot.port(name)
    }
}

/// Spawns a behavior thread for `slot`, registering its handle in the
/// object's short-term state.
pub(crate) fn spawn_behavior(
    node: Node,
    slot: Arc<ObjectSlot>,
    label: &str,
    body: impl FnOnce(BehaviorCtx) + Send + 'static,
) {
    let stop = Arc::new(Stop::default());
    let handle = BehaviorHandle {
        label: label.to_string(),
        stop: stop.clone(),
    };
    slot.short.behaviors.lock().push(handle);
    let ctx = BehaviorCtx { node, slot, stop };
    // Behaviors are *detached, long-lived* caretaker processes (§4.2):
    // routing one through the bounded virtual-processor pool would pin a
    // pool worker for the object's whole lifetime, starving invocation
    // processing. A dedicated thread is the correct resource model here,
    // so the pool-discipline lint is suppressed rather than obeyed.
    std::thread::Builder::new()
        .name(format!("eden-behavior-{label}"))
        // eden-lint: allow(pool-discipline)
        .spawn(move || body(ctx))
        .expect("spawn behavior thread");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_raises_the_flag() {
        let stop = Arc::new(Stop::default());
        let h = BehaviorHandle {
            label: "gc".into(),
            stop: stop.clone(),
        };
        assert_eq!(h.label(), "gc");
        assert!(!*stop.0.lock());
        h.request_stop();
        assert!(*stop.0.lock());
    }
}
