//! One module per rule. Rules 1–5 are per-file token rules; rules 6–7
//! are workspace graph rules built on the [`model`](crate::model).

pub(crate) mod blocking;
pub(crate) mod capability;
pub(crate) mod lock_order;
pub(crate) mod metric;
pub(crate) mod panic;
pub(crate) mod pool;
pub(crate) mod wire_exhaustive;
