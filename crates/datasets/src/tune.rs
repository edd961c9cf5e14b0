//! Compatibility shim: [`decision`] returns the process-wide kernel dispatch.
//!
//! Nothing is timed at startup, so configuration never depends on machine
//! load: `auto` kernels resolve by feature detection alone
//! ([`crate::kernels::kernels_for`]) and shards are sized by the fixed
//! [`crate::sharded::SHARD_L2_BUDGET_BYTES`]. The module stays only for
//! existing callers of [`decision`].

use crate::kernels::Kernels;

/// The process-wide kernel dispatch ([`crate::kernels::kernels`]), resolved
/// on first use.
pub fn decision() -> &'static Kernels {
    crate::kernels::kernels()
}
