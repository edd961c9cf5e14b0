//! The paper's reference random-dataset model (§1.1).
//!
//! Given an observed dataset `D` with `t` transactions over items `I` where item `i`
//! has frequency `f_i = n(i)/t`, the associated probability space contains datasets
//! with the same `t` and `I` in which item `i` is included in each transaction with
//! probability `f_i`, independently of all other items and transactions.
//!
//! Sampling is done column-wise: for each item `i` the number of containing
//! transactions is drawn as `Binomial(t, f_i)` and then that many distinct
//! transaction indices are chosen uniformly, de-duplicated by test-and-set in a
//! bitset (the bitmap column itself when sampling into a bitmap). This is
//! equivalent to the row-wise definition but runs in `O(expected number of
//! incidences)` draws instead of `O(n t)`.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::bitmap::BitmapDataset;
use crate::random::sampling::{
    sample_bernoulli_indices_by_gaps, sample_binomial, sample_distinct_bits,
    sample_distinct_indices, DistinctScratch,
};
use crate::transaction::{DatasetBuilder, ItemId, TransactionDataset};
use crate::{DatasetError, Result};

/// The Bernoulli (independent-items) null model of the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BernoulliModel {
    num_transactions: usize,
    frequencies: Vec<f64>,
}

impl BernoulliModel {
    /// Build a model from an explicit frequency vector and transaction count.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidParameter`] if any frequency is outside
    /// `[0, 1]` or NaN, or if the frequency vector is empty.
    pub fn new(num_transactions: usize, frequencies: Vec<f64>) -> Result<Self> {
        if frequencies.is_empty() {
            return Err(DatasetError::InvalidParameter {
                name: "frequencies",
                reason: "must contain at least one item".into(),
            });
        }
        for (i, &f) in frequencies.iter().enumerate() {
            if !(0.0..=1.0).contains(&f) || f.is_nan() {
                return Err(DatasetError::InvalidParameter {
                    name: "frequencies",
                    reason: format!("frequency of item {i} is {f}, outside [0,1]"),
                });
            }
        }
        Ok(BernoulliModel {
            num_transactions,
            frequencies,
        })
    }

    /// The null model matched to an observed dataset: same `t`, same item
    /// frequencies. This is exactly how the paper associates a random dataset `D̂`
    /// with a real dataset `D`.
    pub fn from_dataset(dataset: &TransactionDataset) -> Self {
        BernoulliModel {
            num_transactions: dataset.num_transactions(),
            frequencies: dataset.item_frequencies(),
        }
    }

    /// Number of transactions each sampled dataset will have.
    #[inline]
    pub fn num_transactions(&self) -> usize {
        self.num_transactions
    }

    /// Number of items.
    #[inline]
    pub fn num_items(&self) -> usize {
        self.frequencies.len()
    }

    /// The item frequency vector.
    #[inline]
    pub fn frequencies(&self) -> &[f64] {
        &self.frequencies
    }

    /// Expected average transaction length, `sum_i f_i`.
    pub fn expected_transaction_len(&self) -> f64 {
        self.frequencies.iter().sum()
    }

    /// Expected support of a specific itemset (product of its item frequencies,
    /// times `t`). The itemset is given as item ids into this model's universe.
    ///
    /// # Panics
    ///
    /// Panics if an item id is out of range.
    pub fn expected_support(&self, itemset: &[ItemId]) -> f64 {
        let p: f64 = itemset
            .iter()
            .map(|&i| self.frequencies[i as usize])
            .product();
        p * self.num_transactions as f64
    }

    /// Probability that a specific itemset appears in a single random transaction
    /// (the product of its item frequencies).
    pub fn itemset_probability(&self, itemset: &[ItemId]) -> f64 {
        itemset
            .iter()
            .map(|&i| self.frequencies[i as usize])
            .product()
    }

    /// Draw one random dataset from the model.
    ///
    /// Per item, one binomial draw sizes the column and
    /// [`sample_distinct_indices`] places it, sharing one `t`-bit scratch
    /// across the items of this draw.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> TransactionDataset {
        let t = self.num_transactions;
        let mut transactions: Vec<Vec<ItemId>> = vec![Vec::new(); t];
        let mut scratch = DistinctScratch::default();
        for (item, &f) in self.frequencies.iter().enumerate() {
            if f <= 0.0 || t == 0 {
                continue;
            }
            let count = sample_binomial(rng, t as u64, f) as usize;
            sample_distinct_indices(rng, t, count.min(t), &mut scratch, |tid| {
                transactions[tid].push(item as ItemId);
            });
        }
        let mut builder = DatasetBuilder::with_capacity(
            self.frequencies.len() as u32,
            t,
            transactions.iter().map(|x| x.len()).sum(),
        );
        for mut txn in transactions {
            // Items were appended in increasing item order (outer loop), so each
            // transaction is already sorted and duplicate-free.
            txn.shrink_to_fit();
            builder
                .add_sorted_transaction(&txn)
                .expect("items generated in range by construction");
        }
        builder.build()
    }

    /// Draw one random dataset directly into a (reusable) vertical bitmap:
    /// [`BernoulliModel::sample_into_bitmap_counted`] without the supports.
    pub fn sample_into_bitmap<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut BitmapDataset) {
        self.sample_into_bitmap_counted(rng, out);
    }

    /// Draw one random dataset directly into a (reusable) vertical bitmap,
    /// returning every item's support (the k = 1 pass, fused in for free:
    /// the per-item binomial draw *is* the column's exact popcount).
    ///
    /// The item loop makes *exactly* the same RNG calls in the same order as
    /// [`BernoulliModel::sample`] — one binomial draw plus one distinct-index
    /// sample per item — so for any starting RNG state the two methods produce
    /// the same dataset, just in different physical representations. This is
    /// what keeps Monte-Carlo estimates bit-identical across backends. No
    /// per-transaction buffers are built: the freshly reset column is itself
    /// the distinct-index set, each draw a test-and-set of one bit (or, for
    /// items in more than half the transactions, a clear of one excluded bit
    /// in an all-ones column), and `out`'s backing buffer is reused across
    /// calls (see [`BitmapDataset::reset`]).
    pub fn sample_into_bitmap_counted<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        out: &mut BitmapDataset,
    ) -> Vec<u64> {
        let t = self.num_transactions;
        out.reset(self.frequencies.len() as u32, t);
        let mut supports = Vec::with_capacity(self.frequencies.len());
        let mut total = 0;
        for (item, &f) in self.frequencies.iter().enumerate() {
            if f <= 0.0 || t == 0 {
                supports.push(0);
                continue;
            }
            let count = (sample_binomial(rng, t as u64, f) as usize).min(t);
            sample_distinct_bits(rng, t, count, out.column_mut(item as ItemId), |_| {});
            supports.push(count as u64);
            total += count;
        }
        out.add_entries(total);
        supports
    }

    /// Geometric-jump sparse sampling (`SIGFIM_SAMPLER=gaps`): per item,
    /// draw only the set bits via geometric skip distances
    /// ([`sample_bernoulli_indices_by_gaps`]) and write them word-wise into
    /// the column, accumulating the popcount as it goes. `O(set bits)` draws
    /// and work with no per-item allocation — but a **different RNG stream**
    /// than [`BernoulliModel::sample`]/[`BernoulliModel::sample_into_bitmap`]
    /// (both are exact draws from the same distribution; see
    /// [`crate::sampler`] for the selection contract).
    pub fn sample_into_bitmap_gaps<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        out: &mut BitmapDataset,
    ) -> Vec<u64> {
        use crate::bitmap::WORD_BITS;
        let t = self.num_transactions;
        out.reset(self.frequencies.len() as u32, t);
        let mut supports = Vec::with_capacity(self.frequencies.len());
        let mut total = 0u64;
        for (item, &f) in self.frequencies.iter().enumerate() {
            let column = out.column_mut(item as ItemId);
            let count = sample_bernoulli_indices_by_gaps(rng, t as u64, f, |tid| {
                column[tid as usize / WORD_BITS] |= 1u64 << (tid as usize % WORD_BITS);
            });
            supports.push(count);
            total += count;
        }
        out.add_entries(total as usize);
        supports
    }

    /// Draw `count` independent random datasets.
    pub fn sample_many<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        count: usize,
    ) -> Vec<TransactionDataset> {
        (0..count).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constructor_validation() {
        assert!(BernoulliModel::new(10, vec![]).is_err());
        assert!(BernoulliModel::new(10, vec![0.5, 1.5]).is_err());
        assert!(BernoulliModel::new(10, vec![0.5, -0.1]).is_err());
        assert!(BernoulliModel::new(10, vec![0.5, f64::NAN]).is_err());
        assert!(BernoulliModel::new(10, vec![0.0, 1.0]).is_ok());
    }

    #[test]
    fn model_from_dataset_matches_frequencies() {
        let d = TransactionDataset::from_transactions(
            3,
            vec![vec![0, 1], vec![0], vec![0, 2], vec![1]],
        )
        .unwrap();
        let m = BernoulliModel::from_dataset(&d);
        assert_eq!(m.num_transactions(), 4);
        assert_eq!(m.num_items(), 3);
        assert!((m.frequencies()[0] - 0.75).abs() < 1e-12);
        assert!((m.frequencies()[1] - 0.5).abs() < 1e-12);
        assert!((m.frequencies()[2] - 0.25).abs() < 1e-12);
        assert!((m.expected_transaction_len() - 1.5).abs() < 1e-12);
        assert!((m.expected_support(&[0, 1]) - 0.75 * 0.5 * 4.0).abs() < 1e-12);
        assert!((m.itemset_probability(&[0, 2]) - 0.1875).abs() < 1e-12);
    }

    #[test]
    fn sampled_dataset_has_right_shape() {
        let model = BernoulliModel::new(500, vec![0.3, 0.01, 0.0, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let d = model.sample(&mut rng);
        assert_eq!(d.num_transactions(), 500);
        assert_eq!(d.num_items(), 4);
        let supports = d.item_supports();
        // Item 2 has frequency 0: never appears. Item 3 has frequency 1: always appears.
        assert_eq!(supports[2], 0);
        assert_eq!(supports[3], 500);
        // Item 0 should be near 150, item 1 near 5 (loose bounds to stay deterministic-free).
        assert!(
            supports[0] > 100 && supports[0] < 200,
            "item0 support {}",
            supports[0]
        );
        assert!(supports[1] < 25, "item1 support {}", supports[1]);
        // Transactions are sorted.
        for txn in d.iter() {
            assert!(txn.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn empirical_frequencies_converge_to_model() {
        let freqs = vec![0.5, 0.2, 0.05, 0.001];
        let model = BernoulliModel::new(20_000, freqs.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let d = model.sample(&mut rng);
        let observed = d.item_frequencies();
        for (i, (&f, &o)) in freqs.iter().zip(observed.iter()).enumerate() {
            let sigma = (f * (1.0 - f) / 20_000.0).sqrt();
            assert!(
                (o - f).abs() < 6.0 * sigma + 1e-4,
                "item {i}: observed {o}, expected {f}"
            );
        }
    }

    #[test]
    fn pair_supports_behave_like_independent_items() {
        // With f = 0.1 for both items and t = 10_000, the pair support should be
        // near 100 (= t * 0.01) because the model has no correlations.
        let model = BernoulliModel::new(10_000, vec![0.1, 0.1]).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let d = model.sample(&mut rng);
        let pair_support = d.itemset_support(&[0, 1]);
        assert!(
            (30..=200).contains(&(pair_support as i64)),
            "pair support {pair_support} wildly off its expectation of 100"
        );
    }

    #[test]
    fn sample_many_produces_independent_datasets() {
        let model = BernoulliModel::new(50, vec![0.5; 8]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let datasets = model.sample_many(&mut rng, 5);
        assert_eq!(datasets.len(), 5);
        // Vanishingly unlikely that two 50x8 half-density datasets are identical.
        assert!(datasets.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn bitmap_sampling_is_rng_identical_to_csr_sampling() {
        use crate::bitmap::BitmapDataset;
        let model = BernoulliModel::new(333, vec![0.4, 0.0, 0.07, 1.0, 0.2]).unwrap();
        for seed in [1u64, 7, 42] {
            let csr = model.sample(&mut StdRng::seed_from_u64(seed));
            let mut bitmap = BitmapDataset::new(0, 0);
            let mut rng_a = StdRng::seed_from_u64(seed);
            model.sample_into_bitmap(&mut rng_a, &mut bitmap);
            assert_eq!(
                bitmap.to_transaction_dataset(),
                csr,
                "seed {seed}: bitmap sampling diverged from CSR sampling"
            );
            // Both paths leave the RNG in the same state (same draw count).
            let mut rng_b = StdRng::seed_from_u64(seed);
            let _ = model.sample(&mut rng_b);
            assert_eq!(rng_a.random::<u64>(), rng_b.random::<u64>());
        }
        // Reuse: a second, smaller sample into the same buffer fully overwrites it.
        let small = BernoulliModel::new(10, vec![1.0, 0.5]).unwrap();
        let mut bitmap = BitmapDataset::new(0, 0);
        model.sample_into_bitmap(&mut StdRng::seed_from_u64(3), &mut bitmap);
        small.sample_into_bitmap(&mut StdRng::seed_from_u64(3), &mut bitmap);
        assert_eq!(
            bitmap.to_transaction_dataset(),
            small.sample(&mut StdRng::seed_from_u64(3))
        );
    }

    #[test]
    fn counted_sampling_is_rng_identical_and_returns_exact_supports() {
        let model = BernoulliModel::new(333, vec![0.4, 0.0, 0.07, 1.0, 0.2]).unwrap();
        for seed in [1u64, 7, 42] {
            let mut plain = BitmapDataset::new(0, 0);
            let mut rng_a = StdRng::seed_from_u64(seed);
            model.sample_into_bitmap(&mut rng_a, &mut plain);
            let mut counted = BitmapDataset::new(0, 0);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let supports = model.sample_into_bitmap_counted(&mut rng_b, &mut counted);
            assert_eq!(counted, plain, "seed {seed}: counted sampling diverged");
            assert_eq!(supports, counted.item_supports(), "seed {seed}");
            // Identical RNG consumption: the fused pass is a free byproduct.
            assert_eq!(rng_a.random::<u64>(), rng_b.random::<u64>());
        }
    }

    #[test]
    fn counted_bitmap_equals_a_column_rebuild_of_csr_sampling() {
        // Frequencies straddle 1/2, so both the test-and-set and the
        // all-ones-minus-excluded branches write columns, at transaction
        // counts with and without a partial tail word.
        let freqs = vec![0.0, 0.01, 0.3, 0.49, 0.5, 0.51, 0.8, 0.999, 1.0];
        let mut bitmap = BitmapDataset::new(0, 0);
        for t in [1usize, 63, 64, 65, 127, 4113] {
            let model = BernoulliModel::new(t, freqs.clone()).unwrap();
            for seed in [2u64, 19] {
                let mut rng_csr = StdRng::seed_from_u64(seed);
                let csr = model.sample(&mut rng_csr);
                let rebuilt = BitmapDataset::from_dataset(&csr);
                let mut rng = StdRng::seed_from_u64(seed);
                let supports = model.sample_into_bitmap_counted(&mut rng, &mut bitmap);
                assert_eq!(bitmap.words(), rebuilt.words(), "t = {t}, seed = {seed}");
                assert_eq!(supports, csr.item_supports(), "t = {t}, seed = {seed}");
                assert_eq!(bitmap.num_entries(), csr.num_entries(), "t = {t}");
                assert_eq!(rng.random::<u64>(), rng_csr.random::<u64>(), "t = {t}");
            }
        }
    }

    #[test]
    fn gaps_sampling_is_deterministic_with_exact_fused_supports() {
        let model = BernoulliModel::new(500, vec![0.02, 0.0, 0.5, 1.0, 0.008]).unwrap();
        let mut a = BitmapDataset::new(0, 0);
        let supports_a = model.sample_into_bitmap_gaps(&mut StdRng::seed_from_u64(9), &mut a);
        // Fused counts equal the rescanned column popcounts, and the entry
        // count invariant holds (num_entries debug-asserts a full popcount).
        assert_eq!(supports_a, a.item_supports());
        assert_eq!(
            a.num_entries() as u64,
            supports_a.iter().sum::<u64>(),
            "entry accounting out of sync"
        );
        // Degenerate frequencies behave exactly: 0 → empty, 1 → full column.
        assert_eq!(supports_a[1], 0);
        assert_eq!(supports_a[3], 500);
        // Same seed, same dataset — including through a reused buffer.
        let mut b = BitmapDataset::new(0, 0);
        model.sample_into_bitmap_gaps(&mut StdRng::seed_from_u64(11), &mut b);
        let supports_b = model.sample_into_bitmap_gaps(&mut StdRng::seed_from_u64(9), &mut b);
        assert_eq!(b, a);
        assert_eq!(supports_b, supports_a);
    }

    #[test]
    fn gaps_sampling_matches_the_model_distribution() {
        // The gap sampler draws from the same Bernoulli matrix distribution
        // as the cellwise path: compare empirical frequencies over many
        // replicates (different RNG streams, same law).
        let freqs = vec![0.05, 0.2, 0.001];
        let model = BernoulliModel::new(400, freqs.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let reps = 200usize;
        let mut totals = vec![0u64; freqs.len()];
        let mut bitmap = BitmapDataset::new(0, 0);
        for _ in 0..reps {
            let supports = model.sample_into_bitmap_gaps(&mut rng, &mut bitmap);
            for (t, s) in totals.iter_mut().zip(&supports) {
                *t += s;
            }
        }
        let draws = (400 * reps) as f64;
        for (i, (&f, &total)) in freqs.iter().zip(&totals).enumerate() {
            let observed = total as f64 / draws;
            let sigma = (f * (1.0 - f) / draws).sqrt();
            assert!(
                (observed - f).abs() < 6.0 * sigma + 1e-4,
                "item {i}: observed {observed}, expected {f}"
            );
        }
    }

    #[test]
    fn zero_transactions_model_is_fine() {
        let model = BernoulliModel::new(0, vec![0.5, 0.5]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let d = model.sample(&mut rng);
        assert_eq!(d.num_transactions(), 0);
        assert_eq!(d.num_entries(), 0);
    }
}
