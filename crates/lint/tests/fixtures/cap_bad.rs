// Fixture: L1 capability-discipline violations (scanned as
// crates/core/src/node.rs). Both entry points reach transport/store
// effects without a rights check or checked delegation.

impl Node {
    pub fn replicate(&self, cap: Capability) -> Result<()> {
        let name = cap.name();
        self.inner.endpoint.send(Frame::to(self.inner.id, name.birth_node(), msg))?;
        Ok(())
    }

    pub fn persist(&self, cap: Capability, image: &[u8]) -> Result<()> {
        self.inner.store.put(cap.name(), image)?;
        Ok(())
    }
}
