//! Process-wide mining dispatch counters.
//!
//! Operators running the multi-tenant service need to see which mining code
//! path production traffic actually takes — an auto-selected backend or miner
//! can silently route everything down an unexpected path, and a counter is
//! the cheapest way to notice. Every mining *entry point* increments exactly
//! one counter here (relaxed atomics — the cost is one increment per mining
//! pass, not per itemset):
//!
//! * the four CSR miners count in [`crate::miner::MinerKind::mine_k`] —
//!   Algorithm 1's CSR replicates go through it too, one `eclat` pass per
//!   replicate,
//! * the bitset Eclat counts in [`crate::eclat::Eclat::mine_k_bitmap`],
//! * the level-wise sharded miner counts in [`crate::sharded::mine_k_sharded`]
//!   (and its spilled twin, [`crate::sharded::mine_k_spilled`]).
//!
//! The service aggregates a [`dispatch_counts`] snapshot into `/v1/stats`.
//! Counters are process-global and monotone; they are a telemetry surface,
//! not a correctness one.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

static APRIORI: AtomicU64 = AtomicU64::new(0);
static ECLAT: AtomicU64 = AtomicU64::new(0);
static FP_GROWTH: AtomicU64 = AtomicU64::new(0);
static BRUTE_FORCE: AtomicU64 = AtomicU64::new(0);
static ECLAT_BITMAP: AtomicU64 = AtomicU64::new(0);
static SHARDED: AtomicU64 = AtomicU64::new(0);

/// The mining entry point a pass went through (see the module docs for where
/// each is recorded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DispatchPath {
    Apriori,
    Eclat,
    FpGrowth,
    BruteForce,
    EclatBitmap,
    Sharded,
}

/// Record one mining pass through `path`.
pub(crate) fn record(path: DispatchPath) {
    let counter = match path {
        DispatchPath::Apriori => &APRIORI,
        DispatchPath::Eclat => &ECLAT,
        DispatchPath::FpGrowth => &FP_GROWTH,
        DispatchPath::BruteForce => &BRUTE_FORCE,
        DispatchPath::EclatBitmap => &ECLAT_BITMAP,
        DispatchPath::Sharded => &SHARDED,
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// A snapshot of the per-miner dispatch counters, one field per mining entry
/// point. Monotone per process; differences between snapshots measure
/// traffic. The two `par_eclat*` fields belong to the retired subtree-parallel
/// Eclat: nothing records them any more, so they always read 0. They stay so
/// that existing consumers of the snapshot keep building and decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DispatchCounts {
    /// CSR-path Apriori passes ([`crate::apriori::Apriori`]).
    pub apriori: u64,
    /// CSR-path occurrence-delivery Eclat passes.
    pub eclat: u64,
    /// CSR-path FP-Growth passes.
    pub fp_growth: u64,
    /// CSR-path brute-force reference passes.
    pub brute_force: u64,
    /// Sequential bitset Eclat passes (`Eclat::mine_k_bitmap`).
    pub eclat_bitmap: u64,
    /// Level-wise shard-parallel passes (`mine_k_sharded`).
    pub sharded: u64,
    /// Retired (subtree-parallel bitset Eclat passes); always 0.
    pub par_eclat: u64,
    /// Retired (subtree-parallel passes over shards); always 0.
    pub par_eclat_sharded: u64,
}

impl DispatchCounts {
    /// Total mining passes across every entry point.
    pub fn total(&self) -> u64 {
        self.apriori
            + self.eclat
            + self.fp_growth
            + self.brute_force
            + self.eclat_bitmap
            + self.sharded
            + self.par_eclat
            + self.par_eclat_sharded
    }
}

/// Snapshot the process-wide dispatch counters.
pub fn dispatch_counts() -> DispatchCounts {
    DispatchCounts {
        apriori: APRIORI.load(Ordering::Relaxed),
        eclat: ECLAT.load(Ordering::Relaxed),
        fp_growth: FP_GROWTH.load(Ordering::Relaxed),
        brute_force: BRUTE_FORCE.load(Ordering::Relaxed),
        eclat_bitmap: ECLAT_BITMAP.load(Ordering::Relaxed),
        sharded: SHARDED.load(Ordering::Relaxed),
        par_eclat: 0,
        par_eclat_sharded: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_increments_the_matching_counter() {
        // Counters are process-global and other tests mine concurrently, so
        // assert monotone growth of the targeted field rather than absolute
        // values.
        let before = dispatch_counts();
        record(DispatchPath::Sharded);
        record(DispatchPath::EclatBitmap);
        let after = dispatch_counts();
        assert!(after.sharded > before.sharded);
        assert!(after.eclat_bitmap > before.eclat_bitmap);
        assert!(after.total() >= before.total() + 2);
        // The retired parallel-Eclat fields are never recorded.
        assert_eq!((after.par_eclat, after.par_eclat_sharded), (0, 0));
    }

    #[test]
    fn snapshot_serde_round_trips() {
        let snapshot = dispatch_counts();
        let value = serde::Serialize::to_value(&snapshot);
        let back: DispatchCounts = serde::Deserialize::from_value(&value).unwrap();
        assert_eq!(back, snapshot);
    }
}
