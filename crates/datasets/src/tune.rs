//! One-shot startup auto-tuner for kernel mode, shard width, and the
//! replicate sampler preference.
//!
//! PR 5 selected the counting kernel by a static preference order and sized
//! transaction shards by a fixed 256 KiB L2 budget. Both are machine
//! properties, not workload properties, so this module measures them once per
//! process instead of guessing: a short micro-benchmark times every kernel
//! this CPU supports on a deterministic bit pattern and picks the fastest,
//! then times the sharded counting access pattern (a hot covering buffer
//! against a streaming column sweep) at several shard budgets and keeps the
//! largest budget within 10% of the fastest — larger shards mean fewer
//! reduction partials, so ties break toward coarser sharding.
//!
//! The whole measurement runs well under ~10 ms, is cached in a `OnceLock`,
//! and is consulted lazily: the first [`crate::kernels::kernels`] dispatch
//! with mode `auto` asks for [`tuned_kernel_mode`], and
//! [`crate::sharded::ShardedBitmapDataset::tuned_shard_rows`] asks for
//! [`tuned_shard_budget_bytes`]. Tuning never changes results — every kernel
//! computes exact counts and the shard reduction is bit-identical at any
//! width — it only changes speed, so a noisy measurement is harmless.
//!
//! Control it with `SIGFIM_TUNE`:
//!
//! * `auto` (or unset) — run the micro-benchmark once, cache the decision;
//! * `off` — skip measurement entirely: the kernel falls back to the static
//!   preference order (AVX-512 > AVX2 > unrolled) and the shard budget to the
//!   static 256 KiB default.
//!
//! An explicit `SIGFIM_KERNELS` / `--kernels` mode always wins over the
//! tuner's kernel pick; the tuner only decides what `auto` means. The
//! replicate sampler is different: the tuner still times one sparse
//! replicate fill through each strategy ([`tuned_sampler_mode`]) and reports
//! the faster one, but sampler resolution never consults it
//! ([`crate::sampler::resolve_sampler`] decides `auto` from the model
//! alone). Kernel and shard choices never change results; the sampler choice
//! changes the RNG stream, so letting a timing pick it would make estimates
//! depend on machine load.

use std::sync::OnceLock;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::bitmap::BitmapDataset;
use crate::kernels::{kernels_for, static_auto_mode, KernelMode};
use crate::random::BernoulliModel;
use crate::sampler::SamplerMode;

/// The static shard budget used when tuning is off (and the PR 5 default):
/// one shard's column set sized to a typical L2 slice.
pub const DEFAULT_SHARD_BUDGET_BYTES: usize = 256 * 1024;

/// Shard budgets the tuner measures, ascending.
const SHARD_BUDGET_CANDIDATES: [usize; 4] = [128 * 1024, 256 * 1024, 512 * 1024, 1024 * 1024];

/// Whether the startup tuner runs, resolved from `SIGFIM_TUNE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TuneMode {
    /// Measure once at startup (the default).
    #[default]
    Auto,
    /// Skip measurement; use the static kernel preference and shard budget.
    Off,
}

impl std::str::FromStr for TuneMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(TuneMode::Auto),
            "off" => Ok(TuneMode::Off),
            other => Err(format!(
                "unknown tune mode `{other}` (expected auto or off)"
            )),
        }
    }
}

/// Validate the process's `SIGFIM_TUNE` setting at startup (CLI / server
/// argument validation) instead of panicking at first dispatch. This is the
/// one sanctioned read of `SIGFIM_TUNE` outside [`decision`] — callers
/// elsewhere must not read the variable themselves.
pub fn startup_tune_request() -> Result<TuneMode, String> {
    resolve_tune_request(std::env::var("SIGFIM_TUNE").ok().as_deref())
}

/// Validate an optional `SIGFIM_TUNE` value at startup (CLI / server argument
/// validation) instead of panicking at first dispatch.
pub fn resolve_tune_request(env: Option<&str>) -> Result<TuneMode, String> {
    match env {
        Some(value) => value
            .parse::<TuneMode>()
            .map_err(|error| format!("SIGFIM_TUNE: {error}")),
        None => Ok(TuneMode::Auto),
    }
}

/// One micro-benchmark sample: what was measured and its median wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneTiming {
    /// The kernel name or shard budget being measured.
    pub subject: TuneSubject,
    /// Median of the timed repetitions, in nanoseconds.
    pub median_ns: u64,
}

/// What a [`TuneTiming`] measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuneSubject {
    /// A counting kernel, by mode.
    Kernel(KernelMode),
    /// A shard budget, in bytes.
    ShardBudgetBytes(usize),
    /// A replicate sampler strategy, by mode.
    Sampler(SamplerMode),
}

/// The cached per-process tuner decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneDecision {
    /// `true` when the micro-benchmark actually ran (`SIGFIM_TUNE=auto`);
    /// `false` means the static fallbacks below were used unmeasured.
    pub tuned: bool,
    /// The concrete kernel `auto` dispatch resolves to.
    pub kernel: KernelMode,
    /// The shard budget [`crate::sharded::ShardedBitmapDataset::tuned_shard_rows`] sizes shards by.
    pub shard_budget_bytes: usize,
    /// The replicate sampler that measured faster on a sparse fill (always a
    /// concrete mode, never [`SamplerMode::Auto`]; statically
    /// [`SamplerMode::Gaps`] with tuning off). Reported in telemetry only:
    /// [`crate::sampler::resolve_sampler`] does not consult it.
    pub sampler: SamplerMode,
    /// Every micro-bench measurement that informed the decision (empty when
    /// tuning was off).
    pub timings: Vec<TuneTiming>,
}

/// The process-wide tuner decision, measured at most once.
///
/// # Panics
///
/// Panics (at first use) when `SIGFIM_TUNE` is set to an unknown value —
/// validate with [`resolve_tune_request`] at startup to report it cleanly.
pub fn decision() -> &'static TuneDecision {
    static DECISION: OnceLock<TuneDecision> = OnceLock::new();
    DECISION.get_or_init(|| {
        let mode = resolve_tune_request(std::env::var("SIGFIM_TUNE").ok().as_deref())
            .unwrap_or_else(|error| panic!("{error}"));
        match mode {
            TuneMode::Off => TuneDecision {
                tuned: false,
                kernel: static_auto_mode(),
                shard_budget_bytes: DEFAULT_SHARD_BUDGET_BYTES,
                sampler: SamplerMode::Gaps,
                timings: Vec::new(),
            },
            TuneMode::Auto => measure(),
        }
    })
}

/// The concrete kernel mode `auto` dispatch should use on this machine.
pub fn tuned_kernel_mode() -> KernelMode {
    decision().kernel
}

/// The shard budget (bytes of column data per shard) sharded datasets should
/// default to on this machine.
pub fn tuned_shard_budget_bytes() -> usize {
    decision().shard_budget_bytes
}

/// The replicate sampler that measured faster on this machine — telemetry
/// only; sampler resolution is a pure function of the model (see
/// [`crate::sampler::resolve_sampler`]).
pub fn tuned_sampler_mode() -> SamplerMode {
    decision().sampler
}

/// Deterministic word pattern for the measurement buffers (mixed density so
/// popcounts are not degenerate).
fn pattern(len: usize, salt: u64) -> Vec<u64> {
    (0..len as u64)
        .map(|i| {
            let mut z = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
            z ^= z >> 29;
            z.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        })
        .collect()
}

/// Median of a small sample set (sorts in place).
fn median_ns(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Run the micro-benchmark and derive the decision.
fn measure() -> TuneDecision {
    let mut timings = Vec::new();

    // Kernel pick: time `and_count` over a 32 KiB-per-operand buffer (large
    // enough to leave the store buffer, small enough to stay in cache so the
    // kernel, not memory, is measured). 3 timed repetitions per sample,
    // median of 5 samples.
    const KERNEL_WORDS: usize = 4096;
    const KERNEL_REPS: u32 = 3;
    const KERNEL_SAMPLES: usize = 5;
    let a = pattern(KERNEL_WORDS, 11);
    let b = pattern(KERNEL_WORDS, 97);
    let mut best = (static_auto_mode(), u64::MAX);
    for mode in KernelMode::supported() {
        if mode == KernelMode::Auto {
            continue;
        }
        let kernels = kernels_for(mode);
        // Warm-up pass (page-in + branch history) before timing.
        std::hint::black_box(kernels.and_count(&a, &b));
        let mut samples = [0u64; KERNEL_SAMPLES];
        for sample in &mut samples {
            let start = Instant::now();
            for _ in 0..KERNEL_REPS {
                std::hint::black_box(kernels.and_count(&a, &b));
            }
            *sample = (start.elapsed().as_nanos() / u128::from(KERNEL_REPS)) as u64;
        }
        let median = median_ns(&mut samples);
        timings.push(TuneTiming {
            subject: TuneSubject::Kernel(mode),
            median_ns: median,
        });
        if median < best.1 {
            best = (mode, median);
        }
    }
    let kernel = best.0;

    // Shard-budget pick: replay the sharded counting access pattern — a hot
    // covering buffer of half the budget ANDed against a streaming 4 MiB
    // column sweep in budget-sized chunks — and keep the largest budget
    // within 10% of the fastest (coarser shards mean fewer partials).
    const STREAM_WORDS: usize = 512 * 1024; // 4 MiB of streamed columns.
    const SHARD_SAMPLES: usize = 3;
    let stream = pattern(STREAM_WORDS, 3);
    let kernels = kernels_for(kernel);
    let mut measured: Vec<(usize, u64)> = Vec::new();
    for budget in SHARD_BUDGET_CANDIDATES {
        let segment_words = (budget / 2 / 8).min(STREAM_WORDS);
        let hot = pattern(segment_words, 7);
        let mut samples = [0u64; SHARD_SAMPLES];
        for sample in &mut samples {
            let start = Instant::now();
            let mut total = 0u64;
            for chunk in stream.chunks(segment_words) {
                total = total.wrapping_add(kernels.and_count(&hot[..chunk.len()], chunk));
            }
            std::hint::black_box(total);
            *sample = start.elapsed().as_nanos() as u64;
        }
        let median = median_ns(&mut samples);
        timings.push(TuneTiming {
            subject: TuneSubject::ShardBudgetBytes(budget),
            median_ns: median,
        });
        measured.push((budget, median));
    }
    let fastest = measured.iter().map(|&(_, ns)| ns).min().unwrap_or(0);
    let shard_budget_bytes = measured
        .iter()
        .rev() // largest candidate first
        .find(|&&(_, ns)| ns <= fastest + fastest / 10)
        .map(|&(budget, _)| budget)
        .unwrap_or(DEFAULT_SHARD_BUDGET_BYTES);

    // Sampler pick (reported, never used to resolve a sampler): one full
    // replicate fill of a sparse 4096×32 null matrix (density 0.02 — the
    // regime the `auto` sampler gates `gaps` to) through each strategy,
    // median of 5 fills.
    const SAMPLER_SAMPLES: usize = 5;
    let model =
        BernoulliModel::new(4096, vec![0.02; 32]).expect("static sampler-bench model is valid");
    let mut bitmap = BitmapDataset::new(0, 0);
    let mut rng = StdRng::seed_from_u64(0x5a6d_706c);
    let mut sampler = (SamplerMode::Gaps, u64::MAX);
    for mode in [SamplerMode::Cellwise, SamplerMode::Gaps] {
        let fill = |rng: &mut StdRng, out: &mut BitmapDataset| match mode {
            SamplerMode::Cellwise => {
                std::hint::black_box(model.sample_into_bitmap_counted(rng, out));
            }
            SamplerMode::Gaps => {
                std::hint::black_box(model.sample_into_bitmap_gaps(rng, out));
            }
            SamplerMode::Auto => unreachable!("only concrete samplers are measured"),
        };
        fill(&mut rng, &mut bitmap); // Warm-up (page-in + scratch growth).
        let mut samples = [0u64; SAMPLER_SAMPLES];
        for sample in &mut samples {
            let start = Instant::now();
            fill(&mut rng, &mut bitmap);
            *sample = start.elapsed().as_nanos() as u64;
        }
        let median = median_ns(&mut samples);
        timings.push(TuneTiming {
            subject: TuneSubject::Sampler(mode),
            median_ns: median,
        });
        // `<=`: ties break toward gaps (measured second), the asymptotically
        // cheaper strategy in the sparse regime this benchmark models.
        if median <= sampler.1 {
            sampler = (mode, median);
        }
    }

    TuneDecision {
        tuned: true,
        kernel,
        shard_budget_bytes,
        sampler: sampler.0,
        timings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tune_mode_parses() {
        assert_eq!("auto".parse::<TuneMode>().unwrap(), TuneMode::Auto);
        assert_eq!("off".parse::<TuneMode>().unwrap(), TuneMode::Off);
        assert!("fast".parse::<TuneMode>().is_err());
        assert_eq!(resolve_tune_request(None).unwrap(), TuneMode::Auto);
        assert_eq!(resolve_tune_request(Some("off")).unwrap(), TuneMode::Off);
        let err = resolve_tune_request(Some("never")).unwrap_err();
        assert!(err.contains("SIGFIM_TUNE"), "{err}");
        assert!(err.contains("auto or off"), "{err}");
    }

    #[test]
    fn measured_decision_is_concrete_and_supported() {
        // Run the measurement directly (independent of the SIGFIM_TUNE cache)
        // and check its invariants.
        let d = measure();
        assert!(d.tuned);
        assert_ne!(d.kernel, KernelMode::Auto);
        assert!(d.kernel.is_supported());
        assert!(SHARD_BUDGET_CANDIDATES.contains(&d.shard_budget_bytes));
        // The sampler pick is always concrete.
        assert!(matches!(
            d.sampler,
            SamplerMode::Cellwise | SamplerMode::Gaps
        ));
        // One timing per supported concrete kernel, one per budget, and one
        // per concrete sampler strategy.
        let concrete = KernelMode::supported()
            .iter()
            .filter(|&&m| m != KernelMode::Auto)
            .count();
        assert_eq!(
            d.timings.len(),
            concrete + SHARD_BUDGET_CANDIDATES.len() + 2
        );
        assert!(d.timings.iter().all(|t| t.median_ns > 0));
    }

    #[test]
    fn process_decision_is_cached_and_consistent() {
        let first = decision();
        let second = decision();
        assert!(std::ptr::eq(first, second));
        assert!(first.kernel.is_supported());
        assert_ne!(first.kernel, KernelMode::Auto);
        assert!(first.shard_budget_bytes >= 128 * 1024);
        assert_ne!(first.sampler, SamplerMode::Auto);
        assert_eq!(tuned_kernel_mode(), first.kernel);
        assert_eq!(tuned_shard_budget_bytes(), first.shard_budget_bytes);
        assert_eq!(tuned_sampler_mode(), first.sampler);
    }
}
