//! Dataflow over the captured CFG: one forward analysis (constant and copy
//! propagation, [`constprop`]) and one backward analysis (liveness of
//! registers, flags and frame slots, `liveness`) with the dead-code
//! elimination it drives. Both run before slot allocation and register
//! allocation; the allocator's cleanup sub-passes share the liveness.

pub mod constprop;
pub(crate) mod liveness;

pub use constprop::propagate_constants;
