//! §4.4: an object's life. Creation makes it active; a checkpoint
//! records its long-term state at its checksite; a crash destroys its
//! active state; an invocation of a passive object reincarnates it from
//! its last checkpoint; destruction ends it everywhere.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use eden_capability::{Capability, NodeId, ObjName, Rights};
use eden_obs::KernelEvent;
use eden_wire::{
    DirRegisterKind, HeldState, Message, ObjectImage, Reader, Status, Value, WireEncode, Writer,
};

use super::location::Here;
use super::Node;
use crate::ctx::OpCtx;
use crate::error::{EdenError, Result};
use crate::object::{Checksite, ObjStatus, ObjectSlot, ReliabilityLevel, CHECKSITE_SEGMENT};
use crate::repr::Representation;

/// The status invocations queued on a failed reincarnation receive.
fn reincarnation_failed(reason: impl std::fmt::Display) -> Status {
    Status::AppError {
        code: -2,
        message: format!("reincarnation failed: {reason}"),
    }
}

impl Node {
    /// Creates a new object of `type_name` on this node; `args` go to the
    /// type manager's `initialize`. Returns the full-rights capability.
    pub fn create_object(&self, type_name: &str, args: &[Value]) -> Result<Capability> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(EdenError::ShuttingDown);
        }
        let manager = self
            .inner
            .registry
            .manager(type_name)
            .ok_or_else(|| EdenError::UnknownType(type_name.to_string()))?;
        let name = self.inner.names.next_name();
        let slot = ObjectSlot::new(
            name,
            type_name.to_string(),
            Representation::new(),
            ObjStatus::Active,
            Checksite {
                node: self.inner.id,
                level: ReliabilityLevel::Local,
            },
        );
        self.inner.objects.write().insert(name, slot.clone());
        let cap = Capability::mint(name);
        let ctx = OpCtx::new(self, &slot, cap, self.inner.id, "<initialize>");
        match manager.initialize(&ctx, args) {
            Ok(()) => {
                self.dir_register(name, self.inner.id, DirRegisterKind::Active);
                Ok(cap)
            }
            Err(e) => {
                self.inner.objects.write().remove(&name);
                Err(EdenError::Invoke(e.into_status()))
            }
        }
    }

    /// Persists `slot`'s representation at its checksite; returns the
    /// durable version.
    pub(crate) fn checkpoint_slot(&self, slot: &Arc<ObjectSlot>) -> Result<u64> {
        let cs = slot.checksite();
        let image = {
            let repr = slot.repr.read();
            repr.to_image(
                &slot.type_name,
                slot.is_frozen(),
                slot.checkpoint_version() + 1,
            )
        };
        let version = self.put_checkpoint(cs.node, slot, &image)?;
        if let ReliabilityLevel::Replicated(k) = cs.level {
            // Best-effort replication to k additional sites: a down
            // replica does not fail the checkpoint (the checksite copy is
            // the durability contract; replicas raise availability).
            let mut peers = self.inner.endpoint.peers();
            peers.sort();
            let mut sent = 0;
            for peer in peers.into_iter().filter(|&p| p != cs.node).take(k) {
                let _ = self.put_checkpoint(peer, slot, &image);
                sent += 1;
            }
            if sent < k && cs.node != self.inner.id {
                // Fall back to a local copy to honour the replica count
                // as far as possible.
                let _ = self.put_checkpoint(self.inner.id, slot, &image);
            }
        }
        slot.version.store(version, Ordering::Release);
        self.inner.metrics.bump_checkpoint();
        self.log_event(KernelEvent::CheckpointWrite {
            obj: slot.name.to_u128(),
            version,
        });
        Ok(version)
    }

    /// Writes one checkpoint image of `slot` at `site` (local store or
    /// remote checksite over the wire). The slot's first local write
    /// registers this node as a checksite with the directory; the home
    /// keeps that registration, so later writes need not repeat it.
    fn put_checkpoint(&self, site: NodeId, slot: &ObjectSlot, image: &ObjectImage) -> Result<u64> {
        let name = slot.name;
        if site == self.inner.id {
            let version = self.inner.store.put(name, &image.encode_to_bytes())?;
            if !slot.checkpoint_registered.swap(true, Ordering::AcqRel) {
                self.dir_register(name, self.inner.id, DirRegisterKind::Checkpoint);
            }
            return Ok(version);
        }
        let budget = self.inner.config.remote_try_timeout;
        let reply = self.request(site, budget, |req_id| Message::CheckpointPut {
            req_id,
            name,
            image: image.clone(),
            reply_to: self.inner.id,
        });
        match reply {
            Some(Message::CheckpointAck {
                ok: true, version, ..
            }) => Ok(version),
            Some(Message::CheckpointAck { ok: false, .. }) => Err(EdenError::Store(
                eden_store::StoreError::Io(format!("checksite {site} refused the checkpoint")),
            )),
            _ => Err(EdenError::Invoke(Status::NodeUnreachable)),
        }
    }

    /// Sets the checksite of `slot` and persists it into the
    /// representation so it survives checkpoints and moves.
    pub(crate) fn set_checksite(
        &self,
        slot: &Arc<ObjectSlot>,
        node: NodeId,
        level: ReliabilityLevel,
    ) -> Result<()> {
        if slot.is_frozen() {
            return Err(EdenError::BadRequest(
                "cannot change the checksite of a frozen object".into(),
            ));
        }
        if node != self.inner.id && !self.inner.endpoint.peers().contains(&node) {
            return Err(EdenError::BadRequest(format!(
                "checksite {node} is not a known node"
            )));
        }
        *slot.checksite.lock() = Checksite { node, level };
        let (replicated, k) = match level {
            ReliabilityLevel::Local => (0, 0),
            ReliabilityLevel::Replicated(k) => (1, k as u32),
        };
        let mut w = Writer::new();
        w.put_u16(node.0);
        w.put_u8(replicated);
        w.put_u32(k);
        slot.repr.write().put(CHECKSITE_SEGMENT, w.finish());
        Ok(())
    }

    /// Parses a checksite persisted by [`Node::set_checksite`].
    fn parse_checksite(repr: &Representation, fallback: NodeId) -> Checksite {
        let parse = |bytes: &[u8]| -> std::result::Result<Checksite, eden_wire::CodecError> {
            let mut r = Reader::new(bytes);
            let node = NodeId(r.get_u16()?);
            let level = match r.get_u8()? {
                1 => ReliabilityLevel::Replicated(r.get_u32()? as usize),
                _ => ReliabilityLevel::Local,
            };
            Ok(Checksite { node, level })
        };
        let parsed = repr.get(CHECKSITE_SEGMENT).and_then(|b| parse(b).ok());
        parsed.unwrap_or(Checksite {
            node: fallback,
            level: ReliabilityLevel::Local,
        })
    }

    /// Requests a crash (§4.4): active state is destroyed once running
    /// invocations complete; queued invocations reincarnate the object
    /// from its last checkpoint if one exists.
    pub(crate) fn request_crash(&self, slot: &Arc<ObjectSlot>) {
        self.pump_with(slot, |coord| coord.crash_requested = true);
    }

    /// Requests permanent destruction, once running invocations complete.
    pub(crate) fn request_destroy(&self, slot: &Arc<ObjectSlot>) {
        self.pump_with(slot, |coord| coord.destroy_requested = true);
    }

    /// Destroys active state: the crash primitive's teardown half.
    pub(super) fn finish_crash(&self, slot: &Arc<ObjectSlot>) {
        self.inner.metrics.bump_crash();
        self.log_event(KernelEvent::Crash {
            obj: slot.name.to_u128(),
        });
        slot.short.teardown();
        self.inner.objects.write().remove(&slot.name);
        // Retract the holder registration before any reincarnation below
        // re-registers it (per-peer FIFO delivery keeps the order).
        self.dir_register(slot.name, self.inner.id, DirRegisterKind::Drop);
        let queued = self.drain_queue(&mut slot.coord.lock());
        if queued.is_empty() {
            return;
        }
        // The single-level-store illusion: invocations that arrived
        // during the crash reincarnate the object if it checkpointed.
        match self.local_slot(slot.name) {
            Ok(new_slot) => {
                let mut ready = Vec::new();
                for pending in queued {
                    self.enqueue(&new_slot, pending, &mut ready);
                }
                self.dispatch(ready);
            }
            // Without a checkpoint the object is gone; a saturated pool
            // leaves it passive, to reincarnate later.
            Err((Status::Overloaded, _)) => self.refuse(queued, Status::Overloaded),
            Err(_) => self.refuse(queued, Status::ObjectCrashed),
        }
    }

    /// Destroys the object and its checkpoints everywhere we know of.
    pub(super) fn finish_destroy(&self, slot: &Arc<ObjectSlot>) {
        slot.short.teardown();
        self.inner.objects.write().remove(&slot.name);
        self.inner.destroyed.lock().insert(slot.name);
        self.dir_register(slot.name, self.inner.id, DirRegisterKind::Drop);
        let _ = self.inner.store.delete(slot.name);
        let cs = slot.checksite();
        if cs.node != self.inner.id {
            let req_id = self.fresh_id();
            self.send_msg(
                cs.node,
                Message::CheckpointDelete {
                    req_id,
                    name: slot.name,
                    reply_to: self.inner.id,
                },
            );
        }
        let queued = self.drain_queue(&mut slot.coord.lock());
        self.refuse(queued, Status::Destroyed);
    }

    /// Reincarnates `name` from `image`, the checkpoint of `version`
    /// held here.
    ///
    /// Returns the (possibly still-reincarnating) slot; invocations may be
    /// queued against it immediately. Fails with `NoSuchObject` when the
    /// image's type is not registered here, and with `Overloaded` when
    /// the pool refuses the reincarnation.
    pub(super) fn reincarnate(
        &self,
        name: ObjName,
        version: u64,
        image: &ObjectImage,
    ) -> std::result::Result<Arc<ObjectSlot>, Status> {
        if !self.inner.registry.has(&image.type_name) {
            return Err(Status::NoSuchObject);
        }
        let slot = match self.install_image(name, image, version) {
            Ok(slot) => slot,
            Err(existing) => return Ok(existing), // Raced with another activation.
        };
        let node = self.clone();
        let task_slot = slot.clone();
        if self
            .inner
            .vprocs
            .submit(move || node.run_reincarnation(task_slot))
            .is_err()
        {
            // Pool saturated: back out; the object stays passive and a
            // later invocation retries the reincarnation.
            self.fail_reincarnation(&slot, Status::Overloaded);
            return Err(Status::Overloaded);
        }
        Ok(slot)
    }

    /// The object's slot here: active, or a passive copy reincarnated.
    /// `Err` carries the status a local attempt ends with — `Destroyed`,
    /// `Overloaded` when the pool refused the reincarnation, else
    /// `NoSuchObject` — and the forwarding address if the object moved
    /// away.
    pub(super) fn local_slot(
        &self,
        name: ObjName,
    ) -> std::result::Result<Arc<ObjectSlot>, (Status, Option<NodeId>)> {
        match self.known_here(name) {
            Here::Active(slot) => Ok(slot),
            Here::Passive(version, image) => self
                .reincarnate(name, version, &image)
                .map_err(|status| (status, None)),
            Here::Destroyed => Err((Status::Destroyed, None)),
            Here::Forwarded(fwd) => Err((Status::NoSuchObject, Some(fwd))),
            Here::Absent => Err((Status::NoSuchObject, None)),
        }
    }

    /// Puts a reincarnating slot built from `image` into the object
    /// table; `Err` hands back the slot already there.
    pub(super) fn install_image(
        &self,
        name: ObjName,
        image: &ObjectImage,
        version: u64,
    ) -> std::result::Result<Arc<ObjectSlot>, Arc<ObjectSlot>> {
        let mut objects = self.inner.objects.write();
        if let Some(existing) = objects.get(&name) {
            return Err(existing.clone());
        }
        let repr = Representation::from_image(image);
        let checksite = Self::parse_checksite(&repr, self.inner.id);
        let slot = ObjectSlot::new(
            name,
            image.type_name.clone(),
            repr,
            ObjStatus::Reincarnating,
            checksite,
        );
        slot.version.store(version, Ordering::Release);
        slot.frozen.store(image.frozen, Ordering::Release);
        objects.insert(name, slot.clone());
        Ok(slot)
    }

    /// Runs `slot`'s reincarnation condition handler (§4.2) on behalf of
    /// `caller`; `Err` says why it failed.
    pub(super) fn run_reincarnation_handler(
        &self,
        slot: &Arc<ObjectSlot>,
        caller: NodeId,
    ) -> std::result::Result<(), String> {
        let manager = self.inner.registry.manager(&slot.type_name);
        let manager = manager.ok_or_else(|| "type manager vanished".to_string())?;
        let ctx = OpCtx::new(
            self,
            slot,
            Capability::mint(slot.name),
            caller,
            "<reincarnate>",
        );
        manager
            .reincarnate(&ctx)
            .map_err(|e| e.into_status().to_string())
    }

    /// Runs the reincarnation condition handler, then opens the gate for
    /// queued invocations (§4.2).
    fn run_reincarnation(&self, slot: Arc<ObjectSlot>) {
        match self.run_reincarnation_handler(&slot, self.inner.id) {
            Ok(()) => {
                self.inner.metrics.bump_reincarnation();
                self.log_event(KernelEvent::Reincarnation {
                    obj: slot.name.to_u128(),
                    version: slot.checkpoint_version(),
                });
                self.dir_register(slot.name, self.inner.id, DirRegisterKind::Active);
                self.pump_with(&slot, |coord| coord.status = ObjStatus::Active);
            }
            Err(reason) => self.fail_reincarnation(&slot, reincarnation_failed(reason)),
        }
    }

    /// Takes a slot that never became active out of the table and
    /// answers the invocations queued on it with `status`.
    fn fail_reincarnation(&self, slot: &Arc<ObjectSlot>, status: Status) {
        self.inner.objects.write().remove(&slot.name);
        let queued = self.drain_queue(&mut slot.coord.lock());
        self.refuse(queued, status);
    }

    /// Activates a passive object *on this node*, pulling its latest
    /// checkpoint from whichever nodes hold one (§4.4: "the checksite
    /// node that is responsible for maintaining an object's long-term
    /// state need not be the node responsible for supporting its active
    /// execution"). Picks the highest version among the answering
    /// holders. Fails if the object is already active anywhere or no
    /// checkpoint can be found.
    ///
    /// Requires `Rights::MOVE`, matching [`Node::move_object`]:
    /// activation decides *where* the object runs, which §4.3 reserves
    /// to holders of the location-decision right.
    pub fn activate_here(&self, cap: Capability) -> Result<()> {
        self.check_rights(cap, Rights::MOVE)
            .map_err(EdenError::Invoke)?;
        let name = cap.name();
        let active_elsewhere =
            || EdenError::BadRequest("object is active elsewhere; use move_object instead".into());
        match self.local_slot(name) {
            Ok(_) => return Ok(()),
            Err((_, Some(_))) => return Err(active_elsewhere()),
            Err((Status::Destroyed, _)) => return Err(EdenError::Invoke(Status::Destroyed)),
            Err(_) => {}
        }
        let answers = self.locate_broadcast(name);
        if answers.iter().any(|a| a.state == HeldState::Active) {
            return Err(active_elsewhere());
        }
        // Fetch from every passive holder; keep the newest image.
        let mut best: Option<ObjectImage> = None;
        for answer in answers.iter().filter(|a| a.state == HeldState::Passive) {
            let budget = self.inner.config.remote_try_timeout;
            let reply = self.request(answer.holder, budget, |req_id| Message::CheckpointFetch {
                req_id,
                name,
                reply_to: self.inner.id,
            });
            if let Some(Message::CheckpointData {
                image: Some(image), ..
            }) = reply
            {
                if best.as_ref().is_none_or(|b| image.version > b.version) {
                    best = Some(image);
                }
            }
        }
        let Some(image) = best else {
            return Err(EdenError::Invoke(Status::NoSuchObject));
        };
        if !self.inner.registry.has(&image.type_name) {
            return Err(EdenError::UnknownType(image.type_name));
        }
        // Persist the fetched image locally so this node can answer
        // passive queries and re-reincarnate after its own crashes.
        let version = self.inner.store.put(name, &image.encode_to_bytes())?;
        self.reincarnate(name, version, &image)
            .map(|_| ())
            .map_err(EdenError::Invoke)
    }
}
