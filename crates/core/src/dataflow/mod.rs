//! Dataflow over the captured CFG: the analysis context every pass stage
//! shares (`cx`: decoded effects, CFG order, slot table, one liveness
//! solution), one forward analysis (constant and copy propagation,
//! `constprop`) and the backward one's state types with the dead-code
//! elimination it drives (`liveness`). Both run before slot allocation and
//! register allocation; the allocator's cleanup sub-passes share the
//! liveness.

pub(crate) mod constprop;
pub(crate) mod cx;
pub(crate) mod liveness;

pub(crate) use constprop::propagate_constants;
