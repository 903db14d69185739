//! Unique names, access rights, capabilities and capability lists.
//!
//! This crate implements the addressing and protection substrate of the Eden
//! system (SOSP '81, §2 and §4.1):
//!
//! * [`ObjName`] — "a system-wide, unique-for-all-time binary identifier for
//!   the object; the name is location-independent, although it may indicate
//!   where the object was created."
//! * [`Rights`] — the access-right set carried by a capability. Operations
//!   declared by a type manager each require a subset of rights; the kernel
//!   verifies the invoker's rights before dispatching.
//! * [`Capability`] — "Eden objects refer to one another by means of
//!   capabilities, which contain both unique names and access rights."
//! * [`CList`] — the capability segment of an object's representation: the
//!   only place capabilities are stored long-term.
//!
//! Rights are *monotonic*: a holder can construct a capability with fewer
//! rights (see [`Capability::restrict`]) but the safe API offers no way to
//! add rights back. On the iAPX 432 unforgeability was enforced by tagged
//! hardware; in this reproduction it is enforced by convention — only the
//! kernel mints full-rights capabilities (at object creation), and type
//! managers receive capabilities exclusively through kernel-mediated
//! invocation parameters.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod clist;
pub mod name;
pub mod rights;

pub use clist::CList;
pub use name::{NameGenerator, NodeId, ObjName};
pub use rights::Rights;

/// A reference to an Eden object: a unique name plus access rights.
///
/// Possession of a capability with appropriate rights is the *only* way to
/// interact with an object (§4.1: "Only a user possessing a capability with
/// appropriate rights can request such a service from an object").
///
/// # Examples
///
/// ```
/// use eden_capability::{Capability, NameGenerator, NodeId, Rights};
///
/// let mut names = NameGenerator::new(NodeId(3));
/// let full = Capability::mint(names.next_name());
/// let read_only = full.restrict(Rights::READ);
/// assert!(read_only.rights().contains(Rights::READ));
/// assert!(!read_only.rights().contains(Rights::WRITE));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Capability {
    name: ObjName,
    rights: Rights,
}

impl Capability {
    /// Mints a full-rights capability for a freshly created object.
    ///
    /// Conceptually a kernel-only operation: the kernel returns the minted
    /// capability to the creator, who may then delegate restricted copies.
    pub fn mint(name: ObjName) -> Self {
        Capability {
            name,
            rights: Rights::all(),
        }
    }

    /// Builds a capability carrying an explicit rights set.
    ///
    /// Used by the kernel when reconstructing capabilities received in
    /// messages or loaded from a checkpoint; user code should derive
    /// capabilities with [`Capability::restrict`] instead.
    pub fn with_rights(name: ObjName, rights: Rights) -> Self {
        Capability { name, rights }
    }

    /// The unique name of the object this capability designates.
    pub fn name(&self) -> ObjName {
        self.name
    }

    /// The rights this capability carries.
    pub fn rights(&self) -> Rights {
        self.rights
    }

    /// Returns a copy of this capability restricted to `keep`.
    ///
    /// The result carries the intersection of the current rights and `keep`,
    /// so restriction is monotonic: no sequence of `restrict` calls can
    /// amplify rights.
    #[must_use]
    pub fn restrict(&self, keep: Rights) -> Self {
        Capability {
            name: self.name,
            rights: self.rights & keep,
        }
    }

    /// Tests whether this capability carries every right in `required`.
    pub fn permits(&self, required: Rights) -> bool {
        self.rights.contains(required)
    }
}

impl core::fmt::Debug for Capability {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Cap({:?}, {:?})", self.name, self.rights)
    }
}

impl core::fmt::Display for Capability {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}#{}", self.name, self.rights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name() -> ObjName {
        NameGenerator::new(NodeId(1)).next_name()
    }

    #[test]
    fn mint_carries_all_rights() {
        let cap = Capability::mint(name());
        assert!(cap.permits(Rights::all()));
        assert!(cap.permits(Rights::READ | Rights::WRITE | Rights::OWNER));
    }

    #[test]
    fn restrict_is_monotonic() {
        let cap = Capability::mint(name());
        let ro = cap.restrict(Rights::READ);
        assert!(ro.permits(Rights::READ));
        assert!(!ro.permits(Rights::WRITE));
        // Restricting to a superset does not add rights back.
        let attempted = ro.restrict(Rights::READ | Rights::WRITE);
        assert!(!attempted.permits(Rights::WRITE));
        assert_eq!(attempted.rights(), Rights::READ);
    }

    #[test]
    fn restrict_to_empty_permits_nothing_but_empty() {
        let cap = Capability::mint(name()).restrict(Rights::empty());
        assert!(cap.permits(Rights::empty()));
        assert!(!cap.permits(Rights::READ));
    }

    #[test]
    fn display_round_trips_name() {
        let cap = Capability::mint(name());
        let shown = format!("{cap}");
        assert!(shown.contains('#'));
    }

    #[test]
    fn equality_includes_rights() {
        let n = name();
        assert_ne!(
            Capability::with_rights(n, Rights::READ),
            Capability::with_rights(n, Rights::WRITE)
        );
        assert_eq!(
            Capability::with_rights(n, Rights::READ),
            Capability::with_rights(n, Rights::READ)
        );
    }
}
