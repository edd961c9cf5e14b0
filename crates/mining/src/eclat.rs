//! Eclat: depth-first frequent itemset mining, by occurrence delivery on CSR
//! datasets and by bit-column intersection on bitmaps.
//!
//! Both variants walk the prefix tree of item combinations depth-first, in
//! ascending item order, pruning a prefix as soon as its support drops below
//! the threshold; the search depth is bounded by the target size `k`.
//!
//! On a CSR [`TransactionDataset`] the miner uses *occurrence delivery* (Uno,
//! Kiyomi & Arimura, LCM ver. 2, FIMI'04): for a prefix `P` with occurrence
//! list `T` (the ids of the transactions containing `P`), one pass over the
//! transactions in `T` appends each transaction `t` to the bucket of every
//! frequent item of `t` that comes after `P`'s last item. That single pass
//! builds the occurrence lists of *all* one-item extensions of `P` at once —
//! no per-extension tid-list intersection — and each touched item whose
//! bucket reaches the threshold is recursed into. One bucket array per depth
//! is reused across siblings, and the last level only counts, so the search
//! allocates nothing per visited itemset beyond the output itself. The cost
//! of a node is the total length of its transactions' suffixes, which on
//! sparse data at a floor of 1 is far below the `O(|T| · #items)` of pairwise
//! intersections.
//!
//! On a [`BitmapDataset`] the bitset variant ([`Eclat::mine_k_bitmap`]) keeps
//! the classic vertical form: extending a prefix is a word-parallel AND +
//! popcount of two bit-columns.

use sigfim_datasets::bitmap::{and_into, BitmapDataset};
use sigfim_datasets::transaction::{ItemId, TransactionDataset, TransactionId};

use crate::itemset::{sort_canonical, ItemsetSupport};
use crate::miner::{validate_mining_args, KItemsetMiner};
use crate::Result;

/// The Eclat miner. Stateless: every invocation derives its occurrence lists
/// (or reads its bit-columns) from the dataset afresh, so one value serves any
/// number of datasets and threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Eclat;

struct SearchState<'a> {
    min_support: u64,
    target: usize,
    collect_prefixes: bool,
    output: &'a mut Vec<ItemsetSupport>,
}

/// The reusable scratch of one search depth: `buckets[i]` collects the
/// occurrence list of `prefix ∪ {i}` (or, at the last depth, `counts[i]` its
/// support), and `touched` lists the items written since the last reset.
struct Level {
    buckets: Vec<Vec<TransactionId>>,
    counts: Vec<u64>,
    touched: Vec<ItemId>,
}

/// Occurrence delivery below `prefix`, whose occurrence list is
/// `occurrences`. `levels[0]` is this node's scratch; the node appends to its
/// buckets while deeper levels remain and only counts at the last one. Items
/// are visited in ascending order and a prefix is emitted before its
/// extensions, so the output comes out in canonical order.
fn deliver(
    dataset: &TransactionDataset,
    frequent: &[bool],
    prefix: &mut Vec<ItemId>,
    occurrences: &[TransactionId],
    levels: &mut [Level],
    state: &mut SearchState<'_>,
) {
    let (level, deeper) = levels
        .split_first_mut()
        .expect("one level per prefix length below the target");
    let last_level = deeper.is_empty();
    for &tid in occurrences {
        let items = dataset.transaction(tid as usize);
        let start = prefix
            .last()
            .map_or(0, |&last| items.partition_point(|&item| item <= last));
        for &item in &items[start..] {
            let slot = item as usize;
            if !frequent[slot] {
                continue;
            }
            if last_level {
                if level.counts[slot] == 0 {
                    level.touched.push(item);
                }
                level.counts[slot] += 1;
            } else {
                if level.buckets[slot].is_empty() {
                    level.touched.push(item);
                }
                level.buckets[slot].push(tid);
            }
        }
    }
    level.touched.sort_unstable();
    for &item in &level.touched {
        let slot = item as usize;
        let support = if last_level {
            std::mem::take(&mut level.counts[slot])
        } else {
            level.buckets[slot].len() as u64
        };
        if support >= state.min_support {
            prefix.push(item);
            if last_level || state.collect_prefixes {
                state.output.push(ItemsetSupport {
                    items: prefix.clone(),
                    support,
                });
            }
            if !last_level {
                deliver(
                    dataset,
                    frequent,
                    prefix,
                    &level.buckets[slot],
                    deeper,
                    state,
                );
            }
            prefix.pop();
        }
        if !last_level {
            level.buckets[slot].clear();
        }
    }
    level.touched.clear();
}

/// Depth-first extension over vertical bit-columns: each extension is a
/// word-parallel AND + popcount into per-depth scratch buffers. `scratch`
/// holds one buffer per remaining depth; `split_at_mut` peels the current
/// level off so the parent's buffer can be read while the child's is written.
fn dfs_bitmap(
    dataset: &BitmapDataset,
    tail: &[(ItemId, u64)],
    prefix: &mut Vec<ItemId>,
    current: Option<&[u64]>,
    scratch: &mut [Vec<u64>],
    state: &mut SearchState<'_>,
) {
    for (idx, &(item, item_support)) in tail.iter().enumerate() {
        let column = dataset.column(item);
        match current {
            None => {
                // Depth 1: the item's own column is the covering set; no copy.
                debug_assert!(item_support >= state.min_support);
                prefix.push(item);
                if prefix.len() == state.target
                    || (state.collect_prefixes && prefix.len() < state.target)
                {
                    state.output.push(ItemsetSupport {
                        items: prefix.clone(),
                        support: item_support,
                    });
                }
                if prefix.len() < state.target {
                    dfs_bitmap(
                        dataset,
                        &tail[idx + 1..],
                        prefix,
                        Some(column),
                        scratch,
                        state,
                    );
                }
                prefix.pop();
            }
            Some(covering) => {
                let (level, deeper) = scratch.split_at_mut(1);
                let combined = &mut level[0];
                let support = and_into(combined, covering, column);
                if support < state.min_support {
                    continue;
                }
                prefix.push(item);
                let depth = prefix.len();
                if depth == state.target || (state.collect_prefixes && depth < state.target) {
                    state.output.push(ItemsetSupport {
                        items: prefix.clone(),
                        support,
                    });
                }
                if depth < state.target {
                    dfs_bitmap(
                        dataset,
                        &tail[idx + 1..],
                        prefix,
                        Some(combined),
                        deeper,
                        state,
                    );
                }
                prefix.pop();
            }
        }
    }
}

impl Eclat {
    /// The bitset Eclat variant: mine all k-itemsets with support at least
    /// `min_support` directly from a vertical bitmap. Same answers as
    /// [`KItemsetMiner::mine_k`] on the equivalent CSR dataset (exact supports,
    /// canonical order), but every intersection is an AND + popcount over
    /// `⌈t/64⌉` words, and the whole search allocates exactly `k − 1` scratch
    /// buffers regardless of how many itemsets it visits.
    ///
    /// # Errors
    ///
    /// Returns [`crate::MiningError::InvalidParameter`] for `k == 0` or
    /// `min_support == 0`.
    pub fn mine_k_bitmap(
        &self,
        dataset: &BitmapDataset,
        k: usize,
        min_support: u64,
    ) -> Result<Vec<ItemsetSupport>> {
        validate_mining_args(k, min_support)?;
        crate::dispatch::record(crate::dispatch::DispatchPath::EclatBitmap);
        let tail: Vec<(ItemId, u64)> = (0..dataset.num_items())
            .map(|item| (item, dataset.item_support(item)))
            .filter(|&(_, support)| support >= min_support)
            .collect();
        let mut output = Vec::new();
        let mut state = SearchState {
            min_support,
            target: k,
            collect_prefixes: false,
            output: &mut output,
        };
        let words = dataset.words_per_column();
        let mut scratch: Vec<Vec<u64>> = vec![vec![0u64; words]; k.saturating_sub(1)];
        let mut prefix = Vec::with_capacity(k);
        dfs_bitmap(dataset, &tail, &mut prefix, None, &mut scratch, &mut state);
        sort_canonical(&mut output);
        Ok(output)
    }

    fn mine(
        &self,
        dataset: &TransactionDataset,
        k: usize,
        min_support: u64,
        collect_prefixes: bool,
    ) -> Result<Vec<ItemsetSupport>> {
        validate_mining_args(k, min_support)?;
        let frequent: Vec<bool> = dataset
            .item_supports()
            .into_iter()
            .map(|support| support >= min_support)
            .collect();
        let num_items = frequent.len();
        // Depth d (prefix length d) delivers into levels[d]: k levels in all,
        // the last of which only counts.
        let mut levels: Vec<Level> = (0..k)
            .map(|depth| {
                let last = depth + 1 == k;
                Level {
                    buckets: if last {
                        Vec::new()
                    } else {
                        vec![Vec::new(); num_items]
                    },
                    counts: if last { vec![0; num_items] } else { Vec::new() },
                    touched: Vec::new(),
                }
            })
            .collect();
        let all: Vec<TransactionId> = (0..dataset.num_transactions() as TransactionId).collect();
        let mut output = Vec::new();
        let mut state = SearchState {
            min_support,
            target: k,
            collect_prefixes,
            output: &mut output,
        };
        let mut prefix = Vec::with_capacity(k);
        deliver(
            dataset,
            &frequent,
            &mut prefix,
            &all,
            &mut levels,
            &mut state,
        );
        debug_assert!(output.windows(2).all(|pair| pair[0].items < pair[1].items));
        Ok(output)
    }
}

impl KItemsetMiner for Eclat {
    fn mine_k(
        &self,
        dataset: &TransactionDataset,
        k: usize,
        min_support: u64,
    ) -> Result<Vec<ItemsetSupport>> {
        self.mine(dataset, k, min_support, false)
    }

    fn mine_up_to(
        &self,
        dataset: &TransactionDataset,
        max_k: usize,
        min_support: u64,
    ) -> Result<Vec<ItemsetSupport>> {
        self.mine(dataset, max_k, min_support, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::Apriori;

    fn toy() -> TransactionDataset {
        TransactionDataset::from_transactions(
            5,
            vec![
                vec![0, 1, 2],
                vec![0, 1, 2, 3],
                vec![0, 1],
                vec![0, 1, 3],
                vec![0, 2, 3],
                vec![1, 2, 4],
                vec![0, 1, 2],
            ],
        )
        .unwrap()
    }

    #[test]
    fn matches_apriori_on_toy_data() {
        let d = toy();
        for k in 1..=4 {
            for s in 1..=5 {
                assert_eq!(
                    Eclat.mine_k(&d, k, s).unwrap(),
                    Apriori::default().mine_k(&d, k, s).unwrap(),
                    "k = {k}, s = {s}"
                );
            }
        }
    }

    #[test]
    fn pair_supports_are_exact() {
        let d = toy();
        let mined = Eclat.mine_k(&d, 2, 4).unwrap();
        for m in &mined {
            assert_eq!(m.support, d.itemset_support(&m.items));
        }
        assert_eq!(mined.len(), 3);
    }

    #[test]
    fn mine_up_to_includes_all_sizes() {
        let d = toy();
        let all = Eclat.mine_up_to(&d, 3, 3).unwrap();
        let by_level: usize = (1..=3).map(|k| Eclat.mine_k(&d, k, 3).unwrap().len()).sum();
        assert_eq!(all.len(), by_level);
        // Every reported support is exact.
        for m in &all {
            assert_eq!(m.support, d.itemset_support(&m.items));
        }
    }

    #[test]
    fn deep_target_on_shallow_data_is_empty() {
        let d = toy();
        assert!(Eclat.mine_k(&d, 5, 1).unwrap().is_empty());
    }

    #[test]
    fn bitmap_variant_matches_tidlist_variant() {
        let d = toy();
        let bitmap = BitmapDataset::from_dataset(&d);
        for k in 1..=4 {
            for s in 1..=5 {
                assert_eq!(
                    Eclat.mine_k_bitmap(&bitmap, k, s).unwrap(),
                    Eclat.mine_k(&d, k, s).unwrap(),
                    "k = {k}, s = {s}"
                );
            }
        }
        // Argument validation is shared with the tid-list path.
        assert!(Eclat.mine_k_bitmap(&bitmap, 0, 1).is_err());
        assert!(Eclat.mine_k_bitmap(&bitmap, 2, 0).is_err());
        // Deep targets and empty bitmaps degenerate cleanly.
        assert!(Eclat.mine_k_bitmap(&bitmap, 6, 1).unwrap().is_empty());
        let empty = BitmapDataset::new(4, 0);
        assert!(Eclat.mine_k_bitmap(&empty, 2, 1).unwrap().is_empty());
    }

    #[test]
    fn empty_dataset() {
        let d = TransactionDataset::empty(4);
        assert!(Eclat.mine_k(&d, 2, 1).unwrap().is_empty());
    }
}
