//! §4.3: mobility. An active object moves between nodes, leaving a
//! forwarding address behind; a frozen object's representation is
//! immutable, so replicas of it can be cached wherever it is invoked.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use eden_capability::{Capability, NodeId, ObjName, Rights};
use eden_obs::{now_ns, KernelEvent};
use eden_wire::{DirRegisterKind, Message, ObjectImage, Status};

use super::Node;
use crate::error::{EdenError, Result};
use crate::object::{ObjStatus, ObjectSlot};
use crate::repr::Representation;

/// Budget for a move transfer to be acknowledged.
const MOVE_TIMEOUT: Duration = Duration::from_secs(2);

impl Node {
    /// Requests that a local active object move to `dst` (rights already
    /// verified by the caller: the object itself via [`OpCtx::move_to`](crate::OpCtx::move_to),
    /// or [`Node::move_object`] which checks `Rights::MOVE`).
    pub(crate) fn request_move(&self, slot: &Arc<ObjectSlot>, dst: NodeId) -> Result<()> {
        if dst == self.inner.id {
            return Ok(());
        }
        if !self.inner.endpoint.peers().contains(&dst) {
            return Err(EdenError::BadRequest(format!("{dst} is not a known node")));
        }
        self.pump_with(slot, |coord| {
            if coord.status == ObjStatus::Moving || coord.pending_move.is_some() {
                return Err(EdenError::BadRequest("move already in progress".into()));
            }
            coord.pending_move = Some(dst);
            Ok(())
        })
    }

    /// The kernel-level move operation, usable by policy objects holding
    /// `Rights::MOVE` on the target (§4.3: "some objects may have the
    /// ability to make location decisions for other objects").
    pub fn move_object(&self, cap: Capability, dst: NodeId) -> Result<()> {
        self.check_rights(cap, Rights::MOVE)
            .map_err(EdenError::Invoke)?;
        let slot = self.inner.objects.read().get(&cap.name()).cloned();
        let not_here = "move_object requires the object to be active on this node";
        let slot = slot.ok_or(EdenError::BadRequest(not_here.into()))?;
        self.request_move(&slot, dst)
    }

    /// Executes a quiesced move: ship the image, then hand over the
    /// queue and leave a forwarding address.
    pub(super) fn start_move(&self, slot: Arc<ObjectSlot>, dst: NodeId) {
        let image = {
            let repr = slot.repr.read();
            repr.to_image(&slot.type_name, slot.is_frozen(), slot.checkpoint_version())
        };
        let ack = self.request(dst, MOVE_TIMEOUT, |xfer_id| Message::MoveTransfer {
            xfer_id,
            name: slot.name,
            image,
            reply_to: self.inner.id,
        });
        match ack {
            Some(Message::MoveAck { accepted: true, .. }) => {
                self.inner.metrics.bump_move_out();
                self.log_event(KernelEvent::MoveOut {
                    obj: slot.name.to_u128(),
                    dst: dst.0,
                });
                slot.short.teardown();
                self.inner.objects.write().remove(&slot.name);
                self.inner
                    .location
                    .forwards
                    .write()
                    .insert(slot.name, (dst, now_ns()));
                self.cache_insert(slot.name, dst);
                let queued = self.drain_queue(&mut slot.coord.lock());
                let mut ready = Vec::new();
                for pending in queued {
                    self.reroute(pending, &mut ready);
                }
                self.dispatch(ready);
            }
            other => {
                // Rejected or timed out: resume in place. The rejection
                // reason is recorded for introspection.
                if let Some(Message::MoveAck { reason, .. }) = other {
                    *self.inner.last_move_rejection.lock() = Some(reason);
                }
                self.pump_with(&slot, |coord| {
                    coord.status = ObjStatus::Active;
                    coord.pending_move = None;
                });
            }
        }
    }

    /// The reason the most recent outbound move was rejected, if any —
    /// diagnostic surface for policy objects and tests.
    pub fn last_move_rejection(&self) -> Option<String> {
        self.inner.last_move_rejection.lock().clone()
    }

    /// Installs an object shipped to us by a move.
    pub(super) fn install_moved(
        &self,
        src: NodeId,
        xfer_id: u64,
        name: ObjName,
        image: ObjectImage,
    ) {
        let reject = |reason: &str| {
            self.send_msg(
                src,
                Message::MoveAck {
                    xfer_id,
                    accepted: false,
                    reason: reason.to_string(),
                },
            );
        };
        if !self.inner.registry.has(&image.type_name) {
            reject(&format!("type '{}' not registered here", image.type_name));
            return;
        }
        let Ok(slot) = self.install_image(name, &image, image.version) else {
            reject("object already present");
            return;
        };
        // The object's short-term state is rebuilt from scratch on the new
        // node: run the reincarnation condition handler.
        match self.run_reincarnation_handler(&slot, src) {
            Ok(()) => {
                self.inner.metrics.bump_move_in();
                self.log_event(KernelEvent::MoveIn {
                    obj: name.to_u128(),
                    src: src.0,
                });
                // If we had previously moved this object away, the old
                // forwarding entry is now wrong.
                self.inner.location.forwards.write().remove(&name);
                self.dir_register(name, self.inner.id, DirRegisterKind::Active);
                self.send_msg(
                    src,
                    Message::MoveAck {
                        xfer_id,
                        accepted: true,
                        reason: String::new(),
                    },
                );
                self.pump_with(&slot, |coord| coord.status = ObjStatus::Active);
            }
            Err(reason) => {
                self.inner.objects.write().remove(&name);
                reject(&format!("reincarnation failed: {reason}"));
            }
        }
    }

    /// Freezes `slot`: representation becomes immutable, a frozen
    /// checkpoint is taken, and replicas may be cached elsewhere.
    pub(crate) fn freeze_slot(&self, slot: &Arc<ObjectSlot>) -> Result<u64> {
        slot.frozen.store(true, Ordering::Release);
        self.checkpoint_slot(slot)
    }

    /// Fetches a frozen object's representation and installs a local
    /// replica, so subsequent invocations run locally (§4.3: "Such an
    /// object can be replicated and cached at several sites in order to
    /// save the overhead of remote invocations").
    ///
    /// Requires `Rights::READ`: a replica is a readable copy of the
    /// whole representation, so a capability that cannot read the
    /// object must not be able to pull its bytes across the network.
    pub fn cache_replica(&self, cap: Capability) -> Result<()> {
        self.check_rights(cap, Rights::READ)
            .map_err(EdenError::Invoke)?;
        let name = cap.name();
        if let Some(slot) = self.inner.objects.read().get(&name) {
            return if slot.is_frozen() {
                Ok(()) // Already local (home or replica).
            } else {
                Err(EdenError::BadRequest(
                    "object is local and not frozen".into(),
                ))
            };
        }
        // Ask the candidates the location search names, in its order,
        // until one sends an image: only a holder of a frozen copy does.
        let budget = self.inner.config.remote_try_timeout;
        let (holder, image) = self
            .fetch_located(name, |h| {
                let reply = self.request(h, budget, |req_id| Message::ReplicaRequest {
                    req_id,
                    name,
                    reply_to: self.inner.id,
                });
                match reply {
                    Some(Message::ReplicaPush {
                        image: Some(image), ..
                    }) => Ok((h, image)),
                    Some(_) => Err(Status::NoSuchObject),
                    None => Err(Status::Timeout),
                }
            })
            .map_err(EdenError::Invoke)?;
        if !image.frozen {
            return Err(EdenError::BadRequest("object is not frozen".into()));
        }
        if !self.inner.registry.has(&image.type_name) {
            return Err(EdenError::UnknownType(image.type_name));
        }
        let repr = Representation::from_image(&image);
        let slot =
            ObjectSlot::new_replica(name, image.type_name.clone(), repr, image.version, holder);
        self.inner.objects.write().insert(name, slot);
        self.inner.metrics.bump_replica();
        Ok(())
    }
}
