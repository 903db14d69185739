//! One module per rule. Rules 1–4 are per-file token rules; rules 5–6
//! are workspace graph rules built on the [`model`](crate::model).

pub(crate) mod blocking;
pub(crate) mod capability;
pub(crate) mod lock_order;
pub(crate) mod metric;
pub(crate) mod panic;
pub(crate) mod wire_exhaustive;
