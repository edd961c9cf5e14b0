//! Planted-pattern datasets: Bernoulli background plus known correlated itemsets.
//!
//! The paper evaluates on real FIMI benchmarks, where the "true" significant
//! itemsets are unknown. To validate FDR control and statistical power — and to
//! build stand-ins for those benchmarks that *qualitatively* reproduce the paper's
//! findings — we generate datasets where the ground truth is known by construction:
//! a Bernoulli background (the null model itself) into which a chosen set of
//! itemsets is *planted* with a specified extra support.
//!
//! Planting an itemset `X` with extra support `e` picks `e` random transactions and
//! inserts every item of `X` into them. The items of `X` therefore co-occur far more
//! often than independence would predict, while the marginal item frequencies are
//! only mildly inflated (by at most `e / t`).

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::random::bernoulli::BernoulliModel;
use crate::random::sampling::{sample_distinct_indices, DistinctScratch};
use crate::transaction::{DatasetBuilder, ItemId, TransactionDataset};
use crate::{DatasetError, Result};

/// A single itemset to plant, with the number of transactions it is forced into.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlantedPattern {
    /// The items of the pattern (sorted, distinct).
    pub items: Vec<ItemId>,
    /// How many (distinct, randomly chosen) transactions the full pattern is
    /// inserted into. The pattern's final support is at least this (background
    /// co-occurrences can add a few more).
    pub extra_support: usize,
}

impl PlantedPattern {
    /// Create a pattern, normalizing (sorting/deduplicating) the item list.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidParameter`] if the item list is empty.
    pub fn new(mut items: Vec<ItemId>, extra_support: usize) -> Result<Self> {
        items.sort_unstable();
        items.dedup();
        if items.is_empty() {
            return Err(DatasetError::InvalidParameter {
                name: "items",
                reason: "a planted pattern needs at least one item".into(),
            });
        }
        Ok(PlantedPattern {
            items,
            extra_support,
        })
    }

    /// Size (number of items) of the pattern.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if the pattern has no items (cannot happen for validated patterns).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Configuration of a planted-pattern generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlantedConfig {
    /// The Bernoulli background model.
    pub background: BernoulliModel,
    /// The patterns to plant.
    pub patterns: Vec<PlantedPattern>,
}

/// A generator that produces datasets with known planted structure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlantedModel {
    config: PlantedConfig,
}

impl PlantedModel {
    /// Create a planted model.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidParameter`] if a pattern references an item
    /// outside the background model's universe, or if its `extra_support` exceeds
    /// the number of transactions.
    pub fn new(config: PlantedConfig) -> Result<Self> {
        let n = config.background.num_items() as ItemId;
        let t = config.background.num_transactions();
        for (idx, pat) in config.patterns.iter().enumerate() {
            if let Some(&bad) = pat.items.iter().find(|&&i| i >= n) {
                return Err(DatasetError::InvalidParameter {
                    name: "patterns",
                    reason: format!(
                        "pattern {idx} references item {bad} outside universe of {n} items"
                    ),
                });
            }
            if pat.extra_support > t {
                return Err(DatasetError::InvalidParameter {
                    name: "patterns",
                    reason: format!(
                        "pattern {idx} wants extra support {} but there are only {t} transactions",
                        pat.extra_support
                    ),
                });
            }
        }
        Ok(PlantedModel { config })
    }

    /// The planted patterns (the ground truth).
    pub fn patterns(&self) -> &[PlantedPattern] {
        &self.config.patterns
    }

    /// The background model.
    pub fn background(&self) -> &BernoulliModel {
        &self.config.background
    }

    /// Sample a dataset: Bernoulli background, then each pattern inserted into
    /// `extra_support` random transactions.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> TransactionDataset {
        let base = self.config.background.sample(rng);
        plant_into(&base, &self.config.patterns, rng)
    }

    /// The ground-truth k-itemsets of a given size that were planted (useful when
    /// evaluating discoveries of a fixed size `k`, as the paper's procedures do).
    pub fn planted_of_size(&self, k: usize) -> Vec<Vec<ItemId>> {
        self.config
            .patterns
            .iter()
            .filter(|p| p.items.len() == k)
            .map(|p| p.items.clone())
            .collect()
    }
}

/// Insert each pattern into `extra_support` random transactions of an existing
/// dataset, returning the modified dataset. Exposed separately so callers can plant
/// into real datasets too (e.g. to spike a benchmark with known signal).
pub fn plant_into<R: Rng + ?Sized>(
    dataset: &TransactionDataset,
    patterns: &[PlantedPattern],
    rng: &mut R,
) -> TransactionDataset {
    let t = dataset.num_transactions();
    let mut transactions: Vec<Vec<ItemId>> = dataset.to_vecs();
    let mut scratch = DistinctScratch::default();
    for pattern in patterns {
        if t == 0 {
            break;
        }
        let count = pattern.extra_support.min(t);
        sample_distinct_indices(rng, t, count, &mut scratch, |tid| {
            transactions[tid].extend_from_slice(&pattern.items);
        });
    }
    let mut builder = DatasetBuilder::with_capacity(
        dataset.num_items(),
        t,
        transactions.iter().map(|x| x.len()).sum(),
    );
    for txn in transactions {
        builder
            .add_transaction(txn)
            .expect("items already validated against the universe");
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn background(t: usize, n: usize, f: f64) -> BernoulliModel {
        BernoulliModel::new(t, vec![f; n]).unwrap()
    }

    #[test]
    fn pattern_normalization_and_validation() {
        let p = PlantedPattern::new(vec![3, 1, 3, 2], 5).unwrap();
        assert_eq!(p.items, vec![1, 2, 3]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert!(PlantedPattern::new(vec![], 5).is_err());
    }

    #[test]
    fn model_validation() {
        let bg = background(100, 10, 0.05);
        let ok = PlantedConfig {
            background: bg.clone(),
            patterns: vec![PlantedPattern::new(vec![0, 1], 20).unwrap()],
        };
        assert!(PlantedModel::new(ok).is_ok());

        let bad_item = PlantedConfig {
            background: bg.clone(),
            patterns: vec![PlantedPattern::new(vec![0, 99], 20).unwrap()],
        };
        assert!(PlantedModel::new(bad_item).is_err());

        let bad_support = PlantedConfig {
            background: bg,
            patterns: vec![PlantedPattern::new(vec![0, 1], 1000).unwrap()],
        };
        assert!(PlantedModel::new(bad_support).is_err());
    }

    #[test]
    fn planted_pattern_reaches_its_support() {
        let bg = background(2000, 50, 0.02);
        let pattern = PlantedPattern::new(vec![3, 7, 11], 60).unwrap();
        let model = PlantedModel::new(PlantedConfig {
            background: bg,
            patterns: vec![pattern.clone()],
        })
        .unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let d = model.sample(&mut rng);
        let support = d.itemset_support(&[3, 7, 11]);
        assert!(
            support >= 60,
            "planted support {support} below the planted 60"
        );
        // Background-only triple of rare items should have essentially zero support:
        // expected support is 2000 * 0.02^3 = 0.016.
        let control = d.itemset_support(&[20, 30, 40]);
        assert!(
            control <= 2,
            "control triple support {control} suspiciously high"
        );
        // Ground-truth accessors.
        assert_eq!(model.planted_of_size(3), vec![vec![3, 7, 11]]);
        assert!(model.planted_of_size(2).is_empty());
        assert_eq!(model.patterns().len(), 1);
        assert_eq!(model.background().num_items(), 50);
    }

    #[test]
    fn marginal_frequencies_only_mildly_inflated() {
        let t = 5000;
        let bg = background(t, 20, 0.1);
        let model = PlantedModel::new(PlantedConfig {
            background: bg,
            patterns: vec![PlantedPattern::new(vec![0, 1], 100).unwrap()],
        })
        .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let d = model.sample(&mut rng);
        let f0 = d.item_frequencies()[0];
        // Background 0.1, planting adds at most 100/5000 = 0.02.
        assert!(
            f0 < 0.15,
            "frequency {f0} inflated more than planting can explain"
        );
        assert!(f0 > 0.07);
    }

    #[test]
    fn plant_into_existing_dataset() {
        let d = TransactionDataset::from_transactions(4, vec![vec![0], vec![1], vec![2], vec![3]])
            .unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let planted = plant_into(&d, &[PlantedPattern::new(vec![0, 1], 4).unwrap()], &mut rng);
        assert_eq!(planted.itemset_support(&[0, 1]), 4);
        assert_eq!(planted.num_transactions(), 4);
    }

    #[test]
    fn planting_into_empty_dataset_is_a_noop() {
        let d = TransactionDataset::empty(5);
        let mut rng = StdRng::seed_from_u64(9);
        let planted = plant_into(&d, &[PlantedPattern::new(vec![0, 1], 3).unwrap()], &mut rng);
        assert_eq!(planted.num_transactions(), 0);
    }
}
