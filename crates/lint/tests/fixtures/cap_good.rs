// Fixture: L1 capability-discipline clean file (scanned as
// crates/core/src/node.rs): a rights check before the effect, a
// delegation of the capability into a checked entry point, a
// capability-free helper, and a pub(crate) fn (out of scope).

impl Node {
    pub fn replicate(&self, cap: Capability) -> Result<()> {
        if !cap.permits(Rights::READ) {
            return Err(EdenError::Invoke(Status::RightsViolation {
                required: Rights::READ,
                held: cap.rights(),
            }));
        }
        self.inner.endpoint.send(frame)?;
        Ok(())
    }

    pub fn invoke(&self, cap: Capability, op: &str) -> Result<Vec<Value>> {
        self.do_invoke(cap, op)
    }

    pub fn peers(&self) -> Vec<NodeId> {
        self.inner.endpoint.peers()
    }

    pub(crate) fn raw_send(&self, cap: Capability) {
        self.inner.endpoint.send(cap.into());
    }
}
