//! The `table3-*` workloads: one cold multi-k analysis of a Table 3 stand-in
//! per operation, each through a fresh `AnalysisEngine`.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sigfim_core::engine::{AnalysisEngine, AnalysisRequest, AnalysisResponse, CacheStatus};
use sigfim_core::montecarlo::{FindPoissonThreshold, ThresholdEstimate};
use sigfim_core::procedure2::Procedure2;
use sigfim_core::replicate_stats;
use sigfim_datasets::benchmarks::BenchmarkDataset;
use sigfim_datasets::bitmap::{
    with_bitmap_scratch, BitmapDataset, DatasetBackend, ResolvedBackend,
};
use sigfim_datasets::random::{BernoulliModel, NullModel};
use sigfim_datasets::sampler::{resolve_sampler, ResolvedSampler, SamplerMode};
use sigfim_datasets::transaction::{ItemId, TransactionDataset};
use sigfim_exec::{substream, ExecutionPolicy};
use sigfim_mining::{dispatch_counts, Eclat, ItemsetSupport, KItemsetMiner, MinerKind};

use crate::trace::{
    dispatch_delta, median, peak_rss_mb, ratio, reset_peak_rss, write_trace, Recorder, StageSpans,
};
use crate::{pin_problems, Args, Layers, Outcome, Pin, DEFAULT_SEED};

/// How many times a measured run repeats its set-up; `setup_s` is the median.
const SETUP_REPEATS: usize = 9;

/// A Table 3 workload: one stand-in, one multi-k request.
pub struct Workload {
    pub name: &'static str,
    pub bench: BenchmarkDataset,
    /// Down-scaling of the stand-in's transaction count (1 = Table 1 size).
    pub scale: f64,
    pub ks: &'static [usize],
    /// Monte-Carlo replicates Δ of Algorithm 1.
    pub replicates: usize,
    /// Outputs pinned at [`DEFAULT_SEED`], one per k.
    pub pins: &'static [Pin],
}

/// Bms1 at table3's default 1/8 scale: sparse, so Algorithm 1 mines every
/// replicate at floor 1 on the CSR path and pools ~2·10^5 itemsets. Δ = 8
/// keeps one analysis near 2 s, so a run holds a dozen of them.
pub const SPARSE: Workload = Workload {
    name: "table3-sparse",
    bench: BenchmarkDataset::Bms1,
    scale: 8.0,
    ks: &[3],
    replicates: 8,
    pins: &[Pin {
        k: 3,
        s_min: 4,
        s_star: Some(4),
        q: 255,
        pool_size: 186_983,
    }],
};

/// Pumsb* at full Table 1 size: dense, so the replicates ride the bitmap
/// sampler and the bitset Eclat, and the pool holds one itemset per k.
pub const DENSE: Workload = Workload {
    name: "table3-dense",
    bench: BenchmarkDataset::PumsbStar,
    scale: 1.0,
    ks: &[2, 3, 4],
    replicates: 8,
    pins: &[
        Pin {
            k: 2,
            s_min: 28_309,
            s_star: Some(28_309),
            q: 1,
            pool_size: 1,
        },
        Pin {
            k: 3,
            s_min: 17_238,
            s_star: Some(17_238),
            q: 16,
            pool_size: 1,
        },
        Pin {
            k: 4,
            s_min: 9_512,
            s_star: Some(9_512),
            q: 85,
            pool_size: 1,
        },
    ],
};

pub fn run(workload: &Workload, args: &Args) -> Outcome {
    if args.trace {
        traced(workload, args)
    } else {
        measured(workload, args)
    }
}

fn request(workload: &Workload, seed: u64) -> AnalysisRequest {
    AnalysisRequest::for_ks(workload.ks.iter().copied())
        .with_replicates(workload.replicates)
        .with_seed(seed)
        .with_baseline(false)
}

/// Generate the stand-in and build an engine over it once, after forcing
/// the process-wide tuners the first analysis would otherwise pay for.
///
/// The stand-in is drawn from [`DEFAULT_SEED`] whatever the run's seed,
/// which draws the Monte-Carlo replicates: the pool size, and with it an
/// analysis' time and memory, moves with the stand-in's draw, and runs
/// with different seeds must be comparable.
fn setup(workload: &Workload) -> (TransactionDataset, f64) {
    let start = Instant::now();
    black_box(sigfim_datasets::tune::decision());
    black_box(sigfim_mining::miner_decision());
    let dataset = workload
        .bench
        .sample_standin(workload.scale, &mut StdRng::seed_from_u64(DEFAULT_SEED))
        .expect("the stand-in scale is valid");
    let engine = AnalysisEngine::from_dataset(dataset.clone()).expect("the stand-in is non-empty");
    black_box(&engine);
    (dataset, start.elapsed().as_secs_f64())
}

/// The resolved configuration, printed with the result.
fn config_note(workload: &Workload, dataset: &TransactionDataset) -> String {
    let model = BernoulliModel::from_dataset(dataset);
    let sampler = resolve_sampler(
        SamplerMode::Auto,
        model.supports_gaps_sampler(),
        model.expected_density(),
    );
    let replicate_backend = DatasetBackend::Auto.resolve(
        model.num_items() as u32,
        model.num_transactions(),
        model.expected_density(),
    );
    format!(
        "workload={} transactions={} items={} density={:.4} kernel={} sampler={} \
         replicate_backend={:?} dataset_backend={:?} workers={}",
        workload.name,
        dataset.num_transactions(),
        dataset.num_items(),
        model.expected_density(),
        sigfim_datasets::kernels::kernels().name(),
        sampler.name(),
        replicate_backend,
        DatasetBackend::Auto.resolve_for_dataset(dataset),
        ExecutionPolicy::default().worker_threads(),
    )
}

/// One cold analysis: a fresh engine over the stand-in, then the request.
fn cold_analysis(
    dataset: &TransactionDataset,
    request: &AnalysisRequest,
) -> Result<(AnalysisResponse, u64, f64), String> {
    let sampled = replicate_stats().total_sampled();
    let start = Instant::now();
    let mut engine = AnalysisEngine::from_dataset(dataset.clone()).map_err(|e| e.to_string())?;
    let response = engine.run(request).map_err(|e| e.to_string())?;
    let secs = start.elapsed().as_secs_f64();
    Ok((response, replicate_stats().total_sampled() - sampled, secs))
}

/// Seconds spent in Procedure 2's two mining passes, called directly.
pub struct Procedure2Mines {
    pub profile_s: f64,
    pub family_s: f64,
    /// Passes that failed or disagreed with the response.
    pub problems: Vec<String>,
}

/// Mine, per k of `response`, Procedure 2's floor profile at `s_min`
/// (`Procedure2::mine_profile`) and its significant family at `s*` (the
/// miner the engine picks for that view), on the view the engine builds for
/// `dataset`, with `mining.profile_mine` and `mining.family_mine` spans. The
/// family must have the response's `Q_{k,s*}` itemsets.
pub fn procedure2_mines(
    recorder: &Recorder,
    dataset: &TransactionDataset,
    response: &AnalysisResponse,
    miner: MinerKind,
    parent: Option<usize>,
    request: u64,
) -> Procedure2Mines {
    let bitmap = (DatasetBackend::Auto.resolve_for_dataset(dataset) == ResolvedBackend::Bitmap)
        .then(|| BitmapDataset::from_dataset(dataset));
    let mut mines = Procedure2Mines {
        profile_s: 0.0,
        family_s: 0.0,
        problems: Vec::new(),
    };
    for run in &response.runs {
        let k = run.k;
        let (profile, secs) = recorder.time("mining.profile_mine", k, parent, request, || {
            Procedure2::mine_profile(
                miner,
                dataset,
                bitmap.as_ref(),
                None,
                None,
                k,
                run.report.threshold.s_min,
                ExecutionPolicy::default(),
            )
        });
        mines.profile_s += secs;
        if let Err(error) = profile {
            mines
                .problems
                .push(format!("k = {k}: profile mine failed: {error}"));
        }
        if let Some(s_star) = run.report.procedure2.s_star {
            let (family, secs) =
                recorder.time("mining.family_mine", k, parent, request, || match &bitmap {
                    Some(bitmap) => Eclat.mine_k_bitmap(bitmap, k, s_star),
                    None => miner.mine_k(dataset, k, s_star),
                });
            mines.family_s += secs;
            let found = family.map_or(usize::MAX, |family| family.len());
            if found != run.report.procedure2.num_significant() {
                mines.problems.push(format!(
                    "k = {k}: the family re-mine found {found} itemsets"
                ));
            }
        }
    }
    mines
}

/// The output gate of one analysis: every k ran Algorithm 1 cold, the
/// response repeats the first one of the run, and at the default seed the
/// pinned values hold.
fn check(
    outcome: &mut Outcome,
    workload: &Workload,
    seed: u64,
    response: &AnalysisResponse,
    sampled: u64,
    first: Option<&AnalysisResponse>,
) {
    let mut problems = Vec::new();
    let ks: Vec<usize> = response.runs.iter().map(|run| run.k).collect();
    if ks != workload.ks {
        problems.push(format!("response covers k = {ks:?}"));
    }
    if response
        .runs
        .iter()
        .any(|run| run.threshold_cache != CacheStatus::Miss)
    {
        problems.push("a threshold was served from a cache".to_string());
    }
    if sampled < (workload.replicates * workload.ks.len()) as u64 {
        problems.push(format!("only {sampled} replicates were sampled"));
    }
    if first.is_some_and(|first| first != response) {
        problems.push("the response differs from the run's first response".to_string());
    }
    if seed == DEFAULT_SEED {
        problems.extend(pin_problems(workload.pins, response));
    }
    outcome.check(problems.is_empty(), || {
        format!("{}: {}", workload.name, problems.join("; "))
    });
}

fn measured(workload: &Workload, args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut dataset = None;
    for _ in 0..SETUP_REPEATS {
        let (generated, secs) = setup(workload);
        setups.push(secs);
        dataset = Some(generated);
    }
    let dataset = dataset.expect("at least one set-up ran");
    outcome.notes.push(config_note(workload, &dataset));
    let request = request(workload, args.seed);

    let start = Instant::now();
    let mut times = Vec::new();
    let mut peaks = Vec::new();
    let mut rss_reset = true;
    let mut first: Option<AnalysisResponse> = None;
    loop {
        rss_reset &= reset_peak_rss();
        let analysis = cold_analysis(&dataset, &request);
        peaks.extend(peak_rss_mb());
        match analysis {
            Ok((response, sampled, secs)) => {
                check(
                    &mut outcome,
                    workload,
                    args.seed,
                    &response,
                    sampled,
                    first.as_ref(),
                );
                times.push(secs);
                first.get_or_insert(response);
            }
            Err(error) => outcome.fail(|| format!("{}: analysis failed: {error}", workload.name)),
        }
        // Start another analysis only if it should end inside the window.
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / outcome.attempted as f64 > args.seconds {
            break;
        }
    }

    let millis: Vec<f64> = times.iter().map(|secs| secs * 1e3).collect();
    outcome.notes.push(format!(
        "per analysis: ms={millis:.0?} peak_rss_mb={peaks:.1?}"
    ));
    outcome.notes.push(format!("per set-up: s={setups:.4?}"));
    outcome.metric("setup_s", median(&setups), "s", setups.len());
    outcome.metric("analysis_ms_p50", median(&millis), "ms", times.len());
    // Analyses run one at a time, so the rate of each is 1 / its time; the
    // median over the run, like `analysis_ms_p50`, is not moved by a burst
    // of load on the machine that slows one or two of them.
    let rates: Vec<f64> = times.iter().map(|secs| 1.0 / secs).collect();
    outcome.metric("ops_per_s", median(&rates), "1/s", times.len());
    if rss_reset && !peaks.is_empty() {
        outcome.metric("peak_rss_mb", median(&peaks), "MB", peaks.len());
    } else {
        outcome
            .notes
            .push("peak_rss_mb omitted: the peak-RSS reset was refused".to_string());
    }
    outcome
}

/// What a single-thread replay of Algorithm 1 for one k found.
struct Replay {
    replicates: u64,
    pool_size: usize,
    /// Pool itemsets whose largest support reaches the curve's first s.
    kept: usize,
    itemsets_at_floor: u64,
    exact: bool,
}

/// Replay Algorithm 1 for `estimate.k` through the public sampler and miner,
/// one replicate at a time, with `datasets.sample` and
/// `mining.replicate_mine` spans. The batch keys are drawn from the request
/// seed exactly as the engine draws them, every round is replayed (the
/// rounds follow from the final floor), and the final round's pool is
/// compared with the engine's.
fn replay(
    recorder: &Recorder,
    model: &BernoulliModel,
    estimate: &ThresholdEstimate,
    seed: u64,
    replicates: usize,
) -> Replay {
    const REQUEST: u64 = 3;
    let k = estimate.k;
    let parent = Some(recorder.open("replay", k, None, REQUEST));
    let mut floors = Vec::new();
    let mut floor = FindPoissonThreshold::new(k).initial_floor(model);
    loop {
        floors.push(floor);
        if floor <= estimate.s_tilde || floor == 1 {
            break;
        }
        floor = (floor / 2).max(1);
    }
    let sampler = resolve_sampler(
        SamplerMode::Auto,
        model.supports_gaps_sampler(),
        model.expected_density(),
    );
    let backend = DatasetBackend::Auto.resolve(
        model.num_items() as u32,
        model.num_transactions(),
        model.expected_density(),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let run_key: Option<u64> = match sampler {
        ResolvedSampler::Gaps => Some(rng.random()),
        ResolvedSampler::Cellwise => None,
    };

    let mut result = Replay {
        replicates: 0,
        pool_size: 0,
        kept: 0,
        itemsets_at_floor: 0,
        exact: floors.last() == Some(&estimate.s_tilde),
    };
    for (round, &floor) in floors.iter().enumerate() {
        let batch_key: u64 = match run_key {
            Some(key) => key,
            None => rng.random(),
        };
        let last_round = round + 1 == floors.len();
        let mut max_support: HashMap<Vec<ItemId>, u64> = HashMap::new();
        for index in 0..replicates as u64 {
            let mut local = substream(batch_key, index);
            let mine = |mine: &dyn Fn() -> sigfim_mining::Result<Vec<ItemsetSupport>>| {
                recorder
                    .time("mining.replicate_mine", k, parent, REQUEST, mine)
                    .0
                    .expect("k and the floor are valid")
            };
            // The bitmap paths fuse the k = 1 mine into sampling, as the
            // engine does.
            let mine_bitmap = |scratch: &BitmapDataset, supports: Vec<u64>| {
                if k == 1 {
                    (0..)
                        .zip(supports)
                        .filter(|&(_, support)| support >= floor)
                        .map(|(item, support)| ItemsetSupport {
                            items: vec![item],
                            support,
                        })
                        .collect()
                } else {
                    mine(&|| Eclat.mine_k_bitmap(scratch, k, floor))
                }
            };
            let mined: Vec<ItemsetSupport> = match (sampler, backend) {
                (ResolvedSampler::Cellwise, ResolvedBackend::Csr) => {
                    let (sample, _) = recorder.time("datasets.sample", k, parent, REQUEST, || {
                        model.sample_dataset(&mut local)
                    });
                    mine(&|| Eclat.mine_k(&sample, k, floor))
                }
                (ResolvedSampler::Cellwise, _) => with_bitmap_scratch(|scratch| {
                    let (supports, _) =
                        recorder.time("datasets.sample", k, parent, REQUEST, || {
                            model.sample_into_bitmap_counted(&mut local, scratch)
                        });
                    mine_bitmap(scratch, supports)
                }),
                (ResolvedSampler::Gaps, _) => with_bitmap_scratch(|scratch| {
                    let (supports, _) =
                        recorder.time("datasets.sample", k, parent, REQUEST, || {
                            model.sample_into_bitmap_gaps(&mut local, scratch)
                        });
                    mine_bitmap(scratch, supports)
                }),
            };
            result.replicates += 1;
            result.itemsets_at_floor += mined.len() as u64;
            if last_round {
                for itemset in mined {
                    let max = max_support.entry(itemset.items).or_insert(0);
                    *max = (*max).max(itemset.support);
                }
            }
        }
        if last_round {
            let first_s = estimate.curve.first().map_or(floor, |point| point.s);
            result.pool_size = max_support.len();
            result.kept = max_support.values().filter(|&&max| max >= first_s).count();
        }
    }
    if let Some(parent) = parent {
        recorder.close(parent);
    }
    result.exact &= result.pool_size == estimate.pool_size;
    result
}

fn traced(workload: &Workload, args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let (dataset, _) = setup(workload);
    outcome.notes.push(config_note(workload, &dataset));
    let request = request(workload, args.seed);
    let recorder = Recorder::new();
    let mut layers = Layers::default();

    // The untraced reference for the tracing overhead.
    let (reference, untraced_secs) = match cold_analysis(&dataset, &request) {
        Ok((response, sampled, secs)) => {
            check(&mut outcome, workload, args.seed, &response, sampled, None);
            (response, secs)
        }
        Err(error) => {
            outcome.fail(|| format!("{}: analysis failed: {error}", workload.name));
            return outcome;
        }
    };

    // Request 1: the traced cold analysis at the default execution policy.
    reset_peak_rss();
    let dispatch_before = dispatch_counts();
    let sampled_before = replicate_stats().total_sampled();
    let root = recorder.open("analysis", 0, None, 1);
    let (engine, view_secs) = recorder.time("datasets.view_build", 0, Some(root), 1, || {
        AnalysisEngine::from_dataset(dataset.clone())
    });
    let mut engine = engine.expect("the stand-in is non-empty");
    let observer = StageSpans::new(&recorder, Some(root), 1);
    let response = match engine.run_observed(&request, &observer) {
        Ok(response) => response,
        Err(error) => {
            outcome.fail(|| format!("{}: traced analysis failed: {error}", workload.name));
            return outcome;
        }
    };
    let (body, encode_secs) = recorder.time("service.encode", 0, Some(root), 1, || {
        serde_json::to_string(&response)
    });
    let traced_secs = recorder.close(root);
    let sampled = replicate_stats().total_sampled() - sampled_before;
    outcome.check(response == reference, || {
        format!(
            "{}: the traced response differs from the untraced one",
            workload.name
        )
    });
    layers.dispatch = dispatch_delta(dispatch_before, dispatch_counts());
    layers.replicates = sampled;
    layers.view_build_ms = view_secs * 1e3;
    layers.alg1_s = recorder.total("core.threshold", 1);
    layers.alg1_rss_mb = observer.threshold_peak_mb();
    layers.procedure2_ms = recorder.total("core.procedure2", 1) * 1e3;
    layers.procedure1_ms = recorder.total("core.procedure1", 1) * 1e3;
    layers.encode_ms = encode_secs * 1e3;
    layers.response_bytes = body.map_or(0, |body| body.len() as u64);
    layers.coverage = recorder.child_coverage(root);
    layers.overhead_ms = (traced_secs - encode_secs - untraced_secs) * 1e3;
    let cache = engine.cache_stats();
    layers.threshold_hit_ratio = ratio(cache.hits as f64, (cache.hits + cache.misses) as f64);
    let profiles = engine.profile_cache_stats();
    layers.profile_hit_ratio = ratio(
        profiles.hits as f64,
        (profiles.hits + profiles.misses) as f64,
    );

    // Request 2: the same analysis at one thread, for the speed-up and the
    // self time of pooling and curve estimation.
    let sequential_root = recorder.open("analysis.sequential", 0, None, 2);
    let sequential = AnalysisEngine::from_dataset(dataset.clone())
        .expect("the stand-in is non-empty")
        .with_threads(1)
        .run_observed(
            &request,
            &StageSpans::new(&recorder, Some(sequential_root), 2).with_replicate_spans(),
        );
    recorder.close(sequential_root);
    outcome.check(sequential.as_ref().ok() == Some(&response), || {
        format!("{}: the one-thread response differs", workload.name)
    });
    let alg1_sequential = recorder.total("core.threshold", 2);
    layers.alg1_speedup = ratio(alg1_sequential, layers.alg1_s);

    // Request 3: the one-thread replay of Algorithm 1's rounds.
    let model = BernoulliModel::from_dataset(&dataset);
    let mut replayed = 0;
    let mut pool = 0;
    let mut kept = 0;
    let mut exact = true;
    for run in &response.runs {
        let replay = replay(
            &recorder,
            &model,
            &run.report.threshold,
            args.seed,
            workload.replicates,
        );
        replayed += replay.replicates;
        pool += replay.pool_size;
        kept += replay.kept;
        layers.itemsets_at_floor += replay.itemsets_at_floor;
        exact &= replay.exact;
        layers.pool_size += run.report.threshold.pool_size as u64;
    }
    layers.replay_exact = exact && replayed == sampled;
    if !layers.replay_exact {
        eprintln!(
            "e2ebench: the replay is not exact (replicates {replayed} vs {sampled}); \
             replay-derived layer figures are reported as -1"
        );
    }
    layers.sample_s = recorder.total("datasets.sample", 3);
    layers.replicate_mine_s = recorder.total("mining.replicate_mine", 3);
    layers.pool_curve_s = alg1_sequential - recorder.total("core.replicate", 2);
    layers.kept_ratio = ratio(kept as f64, pool as f64);

    // Request 4: Procedure 2's profile and family mines, called directly.
    let mines = procedure2_mines(&recorder, &dataset, &response, request.miner, None, 4);
    layers.profile_mine_ms = mines.profile_s * 1e3;
    layers.family_mine_ms = mines.family_s * 1e3;
    outcome.check(mines.problems.is_empty(), || mines.problems.join("; "));

    outcome.note_coverage(layers.coverage);
    layers.report(&mut outcome);
    write_trace(&recorder, &args.workload, args.seed, &outcome.notes);
    outcome
}
