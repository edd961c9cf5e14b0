//! Low-level sampling primitives shared by the random dataset generators.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

use rand::Rng;

use crate::bitmap::WORD_BITS;

/// Draw an exact `Binomial(n, p)` variate.
///
/// * For small means (`n p <= 30`) the inversion ("chop-down") method is used:
///   walk the pmf from `k = 0` accumulating probability until the uniform draw is
///   covered. Expected cost is `O(n p)`.
/// * For larger means a normal approximation with continuity correction is used and
///   the result clamped to `[0, n]`. At `n p (1-p) > 25` the total-variation error of
///   this approximation is far below anything the Monte-Carlo estimates downstream
///   can resolve, and it keeps dataset generation `O(1)` per item regardless of `t`.
pub fn sample_binomial<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let mean = n as f64 * p;
    if n <= 64 {
        // Direct Bernoulli counting is cheapest and exact.
        let mut count = 0;
        for _ in 0..n {
            if rng.random::<f64>() < p {
                count += 1;
            }
        }
        return count;
    }
    if mean <= 30.0 {
        return binomial_inversion(rng, n, p);
    }
    let q = 1.0 - p;
    let sigma = (mean * q).sqrt();
    // Box-Muller from two uniforms (avoids needing rand_distr).
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random::<f64>();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    let draw = (mean + sigma * z + 0.5).floor();
    draw.clamp(0.0, n as f64) as u64
}

/// Inversion sampling of a Binomial with small mean: accumulate pmf terms from 0.
fn binomial_inversion<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    let q = 1.0 - p;
    // pmf(0) = q^n, computed in log space to survive large n.
    let mut pmf = (n as f64 * q.ln()).exp();
    let mut cdf = pmf;
    let u: f64 = rng.random();
    let mut k = 0u64;
    // Guard: if q^n underflowed to zero the mean is actually large; fall back to a
    // crude but safe loop cap of n.
    while u > cdf && k < n {
        // pmf(k+1) = pmf(k) * (n - k)/(k + 1) * p/q
        pmf *= (n - k) as f64 / (k + 1) as f64 * (p / q);
        k += 1;
        cdf += pmf;
        if pmf == 0.0 {
            break;
        }
    }
    k
}

/// Draw `count` *distinct* indices from `0..n` into the bitset `words`,
/// which must be all-zero over its first `n.div_ceil(64)` words on entry; on
/// return exactly the `count` chosen bits are set (bit `i` is
/// `words[i / 64] >> (i % 64)`). Returns `true` when the complement branch
/// ran, in which case `picked` was never called.
///
/// The set is the bitset itself — a test-and-set per draw, no hashing:
///
/// * `count <= n / 2`: rejection sampling, one `random_range(0..n)` per
///   attempt until `count` distinct indices are set; `picked` sees each new
///   index in draw order. Expected `O(count)` draws.
/// * otherwise: fill the first `n` bits with ones, then draw the `n - count`
///   excluded indices the same way and clear them. `O(n / 64 + n - count)`.
///
/// The RNG calls (one `random_range(0..n)` per attempt, in this order, with
/// this accept rule) are the `cellwise` stream the parity suites pin: any
/// change to them moves every Monte-Carlo estimate.
///
/// # Panics
///
/// Panics if `count > n` or `words` is shorter than `n.div_ceil(64)`.
pub(crate) fn sample_distinct_bits<R, F>(
    rng: &mut R,
    n: usize,
    count: usize,
    words: &mut [u64],
    mut picked: F,
) -> bool
where
    R: Rng + ?Sized,
    F: FnMut(usize),
{
    assert!(
        count <= n,
        "cannot sample {count} distinct indices from 0..{n}"
    );
    let words = &mut words[..n.div_ceil(WORD_BITS)];
    if count <= n / 2 {
        let mut chosen = 0;
        while chosen < count {
            let idx = rng.random_range(0..n);
            let (word, mask) = (&mut words[idx / WORD_BITS], 1u64 << (idx % WORD_BITS));
            if *word & mask == 0 {
                *word |= mask;
                chosen += 1;
                picked(idx);
            }
        }
        return false;
    }
    words.fill(u64::MAX);
    let tail = n % WORD_BITS;
    if tail != 0 {
        words[n / WORD_BITS] = (1u64 << tail) - 1;
    }
    let mut excluded = 0;
    while excluded < n - count {
        let idx = rng.random_range(0..n);
        let (word, mask) = (&mut words[idx / WORD_BITS], 1u64 << (idx % WORD_BITS));
        if *word & mask != 0 {
            *word &= !mask;
            excluded += 1;
        }
    }
    true
}

/// Reusable scratch of [`sample_distinct_indices`]: an `n`-bit membership
/// set, all-zero between calls, plus the indices the sparse branch set so it
/// can unset just those. One scratch serves every item of a dataset draw.
#[derive(Debug, Default)]
pub struct DistinctScratch {
    seen: Vec<u64>,
    picked: Vec<usize>,
}

/// Sample `count` *distinct* indices from `0..n` and invoke `visit` on each.
///
/// Draws by test-and-set in `scratch`'s bitset, with no hashing:
/// when `count <= n / 2` indices are visited in draw order and only their
/// bits are cleared afterwards (`O(count)` work, never `O(n / 64)`);
/// otherwise the complement is drawn and every remaining index is visited in
/// increasing order while the bitset is swept back to zero. Panics if
/// `count > n`.
pub fn sample_distinct_indices<R, F>(
    rng: &mut R,
    n: usize,
    count: usize,
    scratch: &mut DistinctScratch,
    mut visit: F,
) where
    R: Rng + ?Sized,
    F: FnMut(usize),
{
    let words = n.div_ceil(WORD_BITS);
    if scratch.seen.len() < words {
        scratch.seen.resize(words, 0);
    }
    let DistinctScratch { seen, picked } = scratch;
    let complement = sample_distinct_bits(rng, n, count, seen, |idx| {
        picked.push(idx);
        visit(idx);
    });
    if complement {
        for (w, word) in seen[..words].iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                visit(w * WORD_BITS + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    } else {
        for idx in picked.drain(..) {
            seen[idx / WORD_BITS] &= !(1u64 << (idx % WORD_BITS));
        }
    }
}

/// Largest geometric-jump inversion table: 16 KiB of thresholds per distinct
/// probability. Natural saturation (`cdf` rounding to 1 on the `2^32` grid)
/// ends the table first for all but tiny `p`; below that, draws landing past
/// the table use the memoryless tail escape in
/// [`GeometricJumper::sample_indices`].
const MAX_JUMP_TABLE: usize = 4096;

/// Bound on the process-wide [`GeometricJumper`] cache; each entry holds up
/// to ~32 KiB of threshold plus guide tables. Distinct item frequencies in
/// real models are `n(i)/t` rationals — at most a few hundred per model — so
/// the cap only bites pathological many-tenant mixes, where extra jumpers
/// are built per call instead of cached.
const JUMPER_CACHE_LIMIT: usize = 256;

/// Guide-table resolution: the top `GUIDE_BITS` bits of a draw index straight
/// into a bucket holding at most a handful of thresholds, so the remaining
/// scan is a short branch-predictable sweep instead of a binary search whose
/// data-dependent branches mispredict on every level.
const GUIDE_BITS: u32 = 12;

/// Draws are pulled from the RNG in 64-byte blocks (one ChaCha refill) and
/// consumed four bytes at a time: per-call overhead in the block RNG is a
/// measurable fraction of the per-bit cost, so batching it matters.
const DRAW_BLOCK: usize = 64;

/// Buffered `u32` draws over a byte-filling RNG.
///
/// The stream it produces is the RNG's canonical little-endian byte stream
/// reinterpreted as `u32` words, so it is identical across platforms; a
/// partially consumed block at end of use is discarded by the owner.
struct DrawBuffer {
    bytes: [u8; DRAW_BLOCK],
    next: usize,
}

impl DrawBuffer {
    fn new() -> Self {
        DrawBuffer {
            bytes: [0u8; DRAW_BLOCK],
            next: DRAW_BLOCK,
        }
    }

    #[inline]
    fn next_u32<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u32 {
        if self.next == DRAW_BLOCK {
            rng.fill_bytes(&mut self.bytes);
            self.next = 0;
        }
        let u = u32::from_le_bytes([
            self.bytes[self.next],
            self.bytes[self.next + 1],
            self.bytes[self.next + 2],
            self.bytes[self.next + 3],
        ]);
        self.next += 4;
        u
    }
}

/// Precomputed integer-inversion table for the geometric skip distances of a
/// Bernoulli(`p`) row.
///
/// `thresholds[k]` is `P(skip ≤ k)` on a `2^32` fixed-point grid, so one
/// uniform `u32` inverts the skip CDF with a `GUIDE_BITS`-indexed guide
/// table plus a short linear sweep — no `ln` per set bit, and each 64-byte
/// RNG block feeds sixteen jumps, which matters because the ChaCha12
/// substreams are the single largest per-bit cost of the replicate loop. The
/// quantisation error is `2^-32` per threshold, orders of magnitude below
/// anything the Monte-Carlo estimates downstream can resolve, and the table
/// is bit-reproducible across platforms (IEEE-754 arithmetic only).
#[derive(Debug)]
pub struct GeometricJumper {
    /// `thresholds[k] = round(2^32 · P(skip ≤ k))`, non-decreasing, ended by
    /// saturation at `u32::MAX` or the [`MAX_JUMP_TABLE`] cap.
    thresholds: Vec<u32>,
    /// `guide[j]` = first `k` with `thresholds[k] > (j << (32 - GUIDE_BITS))`
    /// for `j ∈ 0..2^GUIDE_BITS`, and a final entry of `thresholds.len()`:
    /// brackets the sweep by the draw's top bits.
    guide: Vec<u32>,
}

impl GeometricJumper {
    /// Build the inversion table for success probability `p ∈ (0, 1)`.
    pub fn new(p: f64) -> Self {
        debug_assert!(p > 0.0 && p < 1.0, "degenerate p must be handled before");
        const TWO32: f64 = 4_294_967_296.0;
        let q = 1.0 - p;
        let mut thresholds = Vec::new();
        let mut tail = 1.0f64; // P(skip > k - 1) = q^k before pushing entry k.
        loop {
            tail *= q;
            let cdf = 1.0 - tail; // P(skip ≤ k)
            let scaled = ((cdf * TWO32) as u64).min(u64::from(u32::MAX)) as u32;
            thresholds.push(scaled);
            if scaled == u32::MAX || thresholds.len() >= MAX_JUMP_TABLE {
                break;
            }
        }
        let buckets = 1usize << GUIDE_BITS;
        let mut guide = vec![0u32; buckets + 1];
        let mut k = 0usize;
        for (j, slot) in guide.iter_mut().take(buckets).enumerate() {
            let bucket = (j as u32) << (32 - GUIDE_BITS);
            while k < thresholds.len() && thresholds[k] <= bucket {
                k += 1;
            }
            *slot = k as u32;
        }
        guide[buckets] = thresholds.len() as u32;
        GeometricJumper { thresholds, guide }
    }

    /// Visit the set positions of a length-`n` Bernoulli row in increasing
    /// order, one buffered `u32` draw per jump (a trailing partial RNG block
    /// is discarded at row end), returning how many were set.
    pub fn sample_indices<R, F>(&self, rng: &mut R, n: u64, mut visit: F) -> u64
    where
        R: Rng + ?Sized,
        F: FnMut(u64),
    {
        let len = self.thresholds.len();
        let mut draws = DrawBuffer::new();
        let mut count = 0u64;
        let mut pos = 0u64;
        while pos < n {
            let u = draws.next_u32(rng);
            // First k with u < thresholds[k]. Any k below the guide entry has
            // thresholds[k] ≤ (j << shift) ≤ u, and the next guide entry
            // brackets from above since u < ((j + 1) << shift). Buckets hold
            // well under one threshold on average, so a counting sweep beats
            // a binary search here.
            let j = (u >> (32 - GUIDE_BITS)) as usize;
            let lo = self.guide[j] as usize;
            let hi = self.guide[j + 1] as usize;
            let mut k = lo;
            for &t in &self.thresholds[lo..hi] {
                k += usize::from(t <= u);
            }
            if k == len {
                // Tail escape (probability q^len): the skip is at least
                // `len`, so advance that far and redraw — geometric skips
                // are memoryless.
                pos += len as u64;
                continue;
            }
            pos += k as u64;
            if pos >= n {
                break;
            }
            visit(pos);
            count += 1;
            pos += 1;
        }
        count
    }
}

/// The process-wide jumper cache: item frequencies repeat across every
/// replicate of a Monte-Carlo batch, so each distinct `p` builds its table
/// once. Beyond [`JUMPER_CACHE_LIMIT`] distinct probabilities, new jumpers
/// are built per call rather than evicting warm entries.
fn jumper_for(p: f64) -> Arc<GeometricJumper> {
    static CACHE: OnceLock<RwLock<HashMap<u64, Arc<GeometricJumper>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| RwLock::new(HashMap::new()));
    let key = p.to_bits();
    {
        let map = cache
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(jumper) = map.get(&key) {
            return Arc::clone(jumper);
        }
    }
    let jumper = Arc::new(GeometricJumper::new(p));
    let mut map = cache
        .write()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    if let Some(existing) = map.get(&key) {
        return Arc::clone(existing);
    }
    if map.len() < JUMPER_CACHE_LIMIT {
        map.insert(key, Arc::clone(&jumper));
    }
    jumper
}

/// Visit the set positions of a length-`n` Bernoulli(`p`) indicator row in
/// increasing order via geometric skip distances, returning how many were set.
///
/// One uniform `u64` draw per *set* position: the gap to the next success of
/// independent Bernoulli(`p`) trials is geometric, and a cached
/// [`GeometricJumper`] inversion table turns each draw into the skip with a
/// table lookup instead of a `ln` evaluation. Expected cost is `O(n p)` draws
/// with no per-call allocation — the sparse counterpart of
/// [`sample_binomial`] + [`sample_distinct_indices`], with a *different* RNG
/// stream. Positions arrive sorted, which is what lets callers write bitmap
/// words directly.
pub fn sample_bernoulli_indices_by_gaps<R, F>(rng: &mut R, n: u64, p: f64, mut visit: F) -> u64
where
    R: Rng + ?Sized,
    F: FnMut(u64),
{
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        for i in 0..n {
            visit(i);
        }
        return n;
    }
    jumper_for(p).sample_indices(rng, n, visit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    /// The hash-set formulation the bitset sampler replaced, kept as the
    /// oracle for its RNG consumption and visit order.
    fn reference_distinct_indices<R: Rng + ?Sized>(
        rng: &mut R,
        n: usize,
        count: usize,
        mut visit: impl FnMut(usize),
    ) {
        assert!(count <= n);
        if count == 0 {
            return;
        }
        if count == n {
            (0..n).for_each(visit);
            return;
        }
        if count <= n / 2 {
            let mut chosen = HashSet::with_capacity(count * 2);
            while chosen.len() < count {
                let idx = rng.random_range(0..n);
                if chosen.insert(idx) {
                    visit(idx);
                }
            }
        } else {
            let mut excluded = HashSet::with_capacity((n - count) * 2);
            while excluded.len() < n - count {
                excluded.insert(rng.random_range(0..n));
            }
            (0..n).filter(|i| !excluded.contains(i)).for_each(visit);
        }
    }

    /// Run the bitset sampler and the oracle from the same seed: the visit
    /// sequences and the next draw after them must agree, and the scratch
    /// must be left all-zero for the next call.
    fn assert_matches_reference(n: usize, count: usize, seed: u64, scratch: &mut DistinctScratch) {
        let mut expected = Vec::new();
        let mut rng_ref = StdRng::seed_from_u64(seed);
        reference_distinct_indices(&mut rng_ref, n, count, |i| expected.push(i));
        let mut got = Vec::new();
        let mut rng = StdRng::seed_from_u64(seed);
        sample_distinct_indices(&mut rng, n, count, scratch, |i| got.push(i));
        assert_eq!(got, expected, "n = {n}, count = {count}, seed = {seed}");
        assert_eq!(
            rng.random::<u64>(),
            rng_ref.random::<u64>(),
            "RNG state diverged: n = {n}, count = {count}, seed = {seed}"
        );
        assert!(scratch.seen.iter().all(|&w| w == 0), "scratch not cleared");
        assert!(scratch.picked.is_empty());
    }

    #[test]
    fn bitset_sampler_matches_the_hash_set_reference() {
        // One scratch across every shape, so sizes shrinking and growing
        // between calls are covered too.
        let mut scratch = DistinctScratch::default();
        for n in [1usize, 63, 64, 65, 127, 4113] {
            for count in [0, 1, n / 2, n / 2 + 1, n - 1, n] {
                for seed in [3u64, 17] {
                    assert_matches_reference(n, count, seed, &mut scratch);
                }
            }
        }
    }

    #[test]
    fn bits_hold_exactly_the_visited_indices() {
        for (n, count) in [(65usize, 7usize), (65, 60), (130, 130), (4113, 2057)] {
            let mut expected = Vec::new();
            reference_distinct_indices(&mut StdRng::seed_from_u64(5), n, count, |i| {
                expected.push(i)
            });
            expected.sort_unstable();
            let mut words = vec![0u64; n.div_ceil(WORD_BITS)];
            sample_distinct_bits(&mut StdRng::seed_from_u64(5), n, count, &mut words, |_| {});
            let set: Vec<usize> = (0..n)
                .filter(|&i| words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1)
                .collect();
            assert_eq!(set, expected, "n = {n}, count = {count}");
            let tail = n % WORD_BITS;
            if tail != 0 {
                assert_eq!(words[n / WORD_BITS] >> tail, 0, "tail bits set");
            }
        }
    }

    proptest! {
        #[test]
        fn bitset_sampler_matches_reference_for_any_shape(
            n in 0usize..600,
            fraction in 0.0f64..=1.0,
            seed in 0u64..u64::MAX,
        ) {
            let count = ((n as f64) * fraction).round() as usize;
            assert_matches_reference(n, count.min(n), seed, &mut DistinctScratch::default());
        }
    }

    #[test]
    fn binomial_degenerate_cases() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sample_binomial(&mut rng, 0, 0.5), 0);
        assert_eq!(sample_binomial(&mut rng, 100, 0.0), 0);
        assert_eq!(sample_binomial(&mut rng, 100, 1.0), 100);
        assert_eq!(sample_binomial(&mut rng, 100, -0.5), 0);
    }

    #[test]
    fn binomial_small_mean_matches_expectation() {
        let mut rng = StdRng::seed_from_u64(42);
        let (n, p) = (10_000u64, 5e-4);
        let reps = 4000;
        let mut total = 0u64;
        let mut max = 0u64;
        for _ in 0..reps {
            let x = sample_binomial(&mut rng, n, p);
            total += x;
            max = max.max(x);
            assert!(x <= n);
        }
        let mean = total as f64 / reps as f64;
        // True mean is 5.0; with 4000 reps the standard error is ~0.035.
        assert!(
            (mean - 5.0).abs() < 0.2,
            "empirical mean {mean} too far from 5"
        );
        assert!(max < 30, "implausibly large draw {max}");
    }

    #[test]
    fn binomial_large_mean_matches_expectation_and_spread() {
        let mut rng = StdRng::seed_from_u64(43);
        let (n, p) = (100_000u64, 0.1);
        let reps = 2000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..reps {
            let x = sample_binomial(&mut rng, n, p) as f64;
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / reps as f64;
        let var = sum_sq / reps as f64 - mean * mean;
        assert!((mean - 10_000.0).abs() < 30.0, "mean {mean}");
        // True variance is 9000.
        assert!((var - 9000.0).abs() < 2000.0, "variance {var}");
    }

    #[test]
    fn binomial_small_n_exact_counting() {
        let mut rng = StdRng::seed_from_u64(44);
        for _ in 0..200 {
            let x = sample_binomial(&mut rng, 20, 0.3);
            assert!(x <= 20);
        }
    }

    #[test]
    fn distinct_indices_are_distinct_and_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut scratch = DistinctScratch::default();
        for &(n, count) in &[
            (100usize, 5usize),
            (100, 50),
            (100, 95),
            (100, 100),
            (100, 0),
            (1, 1),
        ] {
            let mut seen = HashSet::new();
            sample_distinct_indices(&mut rng, n, count, &mut scratch, |i| {
                assert!(i < n);
                assert!(seen.insert(i), "duplicate index {i}");
            });
            assert_eq!(seen.len(), count);
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn distinct_indices_rejects_overdraw() {
        let mut rng = StdRng::seed_from_u64(7);
        sample_distinct_indices(&mut rng, 3, 4, &mut DistinctScratch::default(), |_| {});
    }

    #[test]
    fn gap_sampling_degenerate_cases() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            sample_bernoulli_indices_by_gaps(&mut rng, 0, 0.5, |_| {}),
            0
        );
        assert_eq!(
            sample_bernoulli_indices_by_gaps(&mut rng, 100, 0.0, |_| panic!("no bits at p=0")),
            0
        );
        let mut all = Vec::new();
        assert_eq!(
            sample_bernoulli_indices_by_gaps(&mut rng, 5, 1.0, |i| all.push(i)),
            5
        );
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn gap_sampling_visits_sorted_distinct_in_range_positions() {
        let mut rng = StdRng::seed_from_u64(23);
        for &(n, p) in &[(1000u64, 0.02f64), (64, 0.5), (10, 0.99), (1, 0.3)] {
            for _ in 0..50 {
                let mut last: Option<u64> = None;
                let count = sample_bernoulli_indices_by_gaps(&mut rng, n, p, |i| {
                    assert!(i < n, "position {i} out of range 0..{n}");
                    if let Some(prev) = last {
                        assert!(i > prev, "positions not strictly increasing");
                    }
                    last = Some(i);
                });
                if let Some(prev) = last {
                    assert!(count > 0 && prev >= count - 1);
                } else {
                    assert_eq!(count, 0);
                }
            }
        }
    }

    #[test]
    fn gap_sampling_mean_matches_binomial_expectation() {
        let mut rng = StdRng::seed_from_u64(77);
        let (n, p) = (2000u64, 0.02f64);
        let reps = 500;
        let mut total = 0u64;
        for _ in 0..reps {
            total += sample_bernoulli_indices_by_gaps(&mut rng, n, p, |_| {});
        }
        let mean = total as f64 / reps as f64;
        // True mean 40, sd per rep ~6.26, standard error ~0.28.
        assert!(
            (mean - 40.0).abs() < 2.0,
            "empirical mean {mean} far from 40"
        );
    }

    #[test]
    fn jumper_tables_are_deterministic_and_well_formed() {
        for &p in &[0.001f64, 0.02, 0.25, 0.9] {
            let a = GeometricJumper::new(p);
            let b = GeometricJumper::new(p);
            assert_eq!(a.thresholds, b.thresholds, "p = {p}");
            assert_eq!(a.guide, b.guide, "p = {p}");
            assert!(a.thresholds.len() <= MAX_JUMP_TABLE);
            assert!(a.thresholds.windows(2).all(|w| w[0] <= w[1]), "p = {p}");
            // The first threshold is pmf(0) = p on the fixed-point grid.
            let expected = (p * 4_294_967_296.0) as u32;
            assert!(a.thresholds[0].abs_diff(expected) <= 2, "p = {p}");
            // Draws through the table match draws through the public entry
            // point (same stream).
            let direct: Vec<u64> = {
                let mut rng = StdRng::seed_from_u64(3);
                let mut out = Vec::new();
                a.sample_indices(&mut rng, 5000, |i| out.push(i));
                out
            };
            let mut rng = StdRng::seed_from_u64(3);
            let mut via_entry = Vec::new();
            sample_bernoulli_indices_by_gaps(&mut rng, 5000, p, |i| via_entry.push(i));
            assert_eq!(direct, via_entry, "p = {p}");
        }
    }

    #[test]
    fn jumper_tail_escape_keeps_the_mean_for_tiny_p() {
        // p = 1e-4 caps the table at MAX_JUMP_TABLE, so most draws take the
        // memoryless escape; the sampler must still be an exact Bernoulli
        // row sampler.
        let mut rng = StdRng::seed_from_u64(11);
        let (n, p) = (100_000u64, 1e-4f64);
        let reps = 400;
        let mut total = 0u64;
        for _ in 0..reps {
            let mut last = None;
            total += sample_bernoulli_indices_by_gaps(&mut rng, n, p, |i| {
                assert!(i < n);
                if let Some(prev) = last {
                    assert!(i > prev);
                }
                last = Some(i);
            });
        }
        // True mean 10, sd per rep ~3.16, standard error ~0.16.
        let mean = total as f64 / reps as f64;
        assert!(
            (mean - 10.0).abs() < 1.0,
            "empirical mean {mean} far from 10"
        );
    }

    #[test]
    fn distinct_indices_are_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(99);
        let n = 50;
        let mut hits = vec![0u32; n];
        let mut scratch = DistinctScratch::default();
        for _ in 0..2000 {
            sample_distinct_indices(&mut rng, n, 10, &mut scratch, |i| hits[i] += 1);
        }
        // Each index should be hit about 2000 * 10 / 50 = 400 times.
        for (i, &h) in hits.iter().enumerate() {
            assert!((h as f64 - 400.0).abs() < 120.0, "index {i} hit {h} times");
        }
    }
}
