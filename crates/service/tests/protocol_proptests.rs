//! Property tests for the wire protocol: every envelope and every error
//! variant must survive a JSON round-trip unchanged — the contract that makes
//! loopback responses reconstruct exactly what in-process calls return.

use proptest::collection::vec;
use proptest::prelude::*;

use sigfim_core::engine::{AnalysisRequest, CacheStats, CacheStatus, LambdaMode, ThresholdRun};
use sigfim_core::montecarlo::{CurvePoint, ThresholdEstimate};
use sigfim_core::ReplicateStats;
use sigfim_datasets::bitmap::DatasetBackend;
use sigfim_mining::miner::MinerKind;
use sigfim_mining::DispatchCounts;
use sigfim_service::{
    ApiError, ApiRequest, ApiRequestBody, ApiResponse, ApiResult, EngineInfo, JobStats,
    KernelStats, ModelSpec, ResidencyStats, ServiceStats, StoreStats, TunerTiming,
    PROTOCOL_VERSION,
};

/// A JSON round-trip through the wire format.
fn round_trip<T: serde::Serialize + serde::Deserialize>(value: &T) -> T {
    let json = serde_json::to_string(value).expect("serialization is infallible");
    serde_json::from_str(&json).expect("round-trip parse")
}

fn miner_from(index: u64) -> MinerKind {
    match index % 3 {
        0 => MinerKind::Apriori,
        1 => MinerKind::Eclat,
        _ => MinerKind::FpGrowth,
    }
}

fn backend_from(index: u64) -> DatasetBackend {
    DatasetBackend::ALL[index as usize % DatasetBackend::ALL.len()]
}

fn request_from(ks: Vec<usize>, knobs: (f64, f64, f64), flags: u64, seed: u64) -> AnalysisRequest {
    let (alpha, beta, epsilon) = knobs;
    AnalysisRequest::for_ks(ks)
        .with_alpha(alpha)
        .with_beta(beta)
        .with_epsilon(epsilon)
        .with_replicates((flags % 200 + 1) as usize)
        .with_seed(seed)
        .with_miner(miner_from(flags))
        .with_lambda_mode(if flags.is_multiple_of(2) {
            LambdaMode::Faithful
        } else {
            LambdaMode::Conservative
        })
        .with_baseline(flags.is_multiple_of(3))
        .with_max_restarts((flags % 7 + 1) as usize)
}

/// Every error variant, with payloads derived from the given seeds.
fn all_error_variants(n: u64, text: &str) -> Vec<ApiError> {
    vec![
        ApiError::UnsupportedProtocolVersion {
            requested: (n % 1000) as u32,
            supported: PROTOCOL_VERSION,
        },
        ApiError::MalformedRequest {
            detail: format!("malformed-{text}"),
        },
        ApiError::UnknownDataset {
            dataset: format!("dataset-{text}"),
        },
        ApiError::InvalidRequest {
            detail: format!("invalid-{text}"),
        },
        ApiError::EngineFailure {
            detail: format!("failure-{text}"),
        },
        ApiError::NotFound {
            path: format!("/v9/{text}"),
        },
        ApiError::MethodNotAllowed {
            method: if n.is_multiple_of(2) { "PUT" } else { "DELETE" }.into(),
            path: format!("/v1/{text}"),
        },
        ApiError::Overloaded {
            retry_after_secs: n % 120,
        },
        ApiError::UnknownJob {
            job: format!("job-{text}"),
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn analysis_requests_round_trip(
        ks in vec(1usize..7, 1..5),
        alpha in 0.001f64..0.5,
        beta in 0.001f64..0.5,
        epsilon in 0.0001f64..0.2,
        flags in 0u64..10_000,
        seed in 0u64..u64::MAX,
    ) {
        let request = request_from(ks, (alpha, beta, epsilon), flags, seed);
        prop_assert_eq!(round_trip(&request), request);
    }

    #[test]
    fn legacy_par_eclat_requests_decode_as_eclat(
        ks in vec(1usize..7, 1..5),
        flags in 0u64..10_000,
        seed in 0u64..u64::MAX,
    ) {
        // Stored and in-flight requests may name the retired subtree-parallel
        // miner; it was bit-identical to Eclat, so it decodes as Eclat.
        let request = request_from(ks, (0.05, 0.05, 0.01), flags, seed)
            .with_miner(MinerKind::Eclat);
        let json = serde_json::to_string(&request).unwrap();
        prop_assert!(json.contains("\"miner\":\"Eclat\""));
        let legacy = json.replace("\"miner\":\"Eclat\"", "\"miner\":\"ParEclat\"");
        let parsed: AnalysisRequest = serde_json::from_str(&legacy).unwrap();
        prop_assert_eq!(parsed, request);
        for unknown in ["par-eclat", "Warp", "eclat"] {
            let bad = json.replace("\"miner\":\"Eclat\"", &format!("\"miner\":\"{unknown}\""));
            prop_assert!(serde_json::from_str::<AnalysisRequest>(&bad).is_err());
        }
    }

    #[test]
    fn analyze_and_threshold_envelopes_round_trip(
        ks in vec(1usize..7, 1..4),
        flags in 0u64..10_000,
        seed in 0u64..u64::MAX,
        id in 0u64..1_000_000,
        transactions in 1usize..5_000,
        frequencies in vec(0.0f64..1.0, 1..12),
    ) {
        let request = request_from(ks, (0.05, 0.05, 0.01), flags, seed);
        let analyze = ApiRequest::analyze(format!("tenant-{id}"), request.clone());
        prop_assert_eq!(round_trip(&analyze), analyze);

        let thresholds = ApiRequest::thresholds(
            ModelSpec::Bernoulli { transactions, frequencies },
            request,
        );
        let parsed = round_trip(&thresholds);
        prop_assert_eq!(parsed, thresholds);
    }

    #[test]
    fn error_envelopes_round_trip_with_codes_and_statuses(
        n in 0u64..1_000_000,
        text_seed in 0u64..1_000_000,
    ) {
        let text = format!("t{text_seed}");
        let variants = all_error_variants(n, &text);
        prop_assert_eq!(variants.len(), 9, "update this test when the taxonomy grows");
        for error in variants {
            // The error itself round-trips...
            let json = serde_json::to_string(&error).unwrap();
            let parsed: ApiError = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(&parsed, &error);
            // ...and so does the full error envelope, preserving status codes.
            let response = ApiResponse::error(error.clone());
            let wired = round_trip(&response);
            prop_assert_eq!(wired.http_status(), error.http_status());
            prop_assert_eq!(wired.as_error().unwrap().code(), error.code());
            prop_assert_eq!(wired, response);
        }
    }

    #[test]
    fn result_envelopes_round_trip(
        k in 1usize..6,
        s_min in 1u64..10_000,
        lambda in 0.0f64..50.0,
        hit in 0u64..2,
        engines in vec(0u64..1_000, 0..5),
        counters in vec(0u64..1_000_000, 6),
    ) {
        // Thresholds result with a synthetic (finite-float) estimate.
        let estimate = ThresholdEstimate {
            k,
            epsilon: 0.01,
            replicates: 32,
            s_tilde: s_min.saturating_sub(1).max(1),
            s_min,
            pool_size: 7,
            curve: vec![CurvePoint { s: s_min, b1: 0.001, b2: 0.0005, lambda }],
        };
        let runs = vec![ThresholdRun {
            k,
            threshold_cache: if hit == 0 { CacheStatus::Miss } else { CacheStatus::Hit },
            estimate,
        }];
        let response = ApiResponse::ok(ApiResult::Thresholds(runs));
        prop_assert_eq!(round_trip(&response), response);

        // Engine listing.
        let infos: Vec<EngineInfo> = engines
            .iter()
            .enumerate()
            .map(|(i, &fp)| EngineInfo {
                id: format!("engine-{i}"),
                transactions: (fp % 500 + 1) as usize,
                items: (fp % 60 + 1) as usize,
                has_dataset: fp.is_multiple_of(2),
                backend: backend_from(fp),
                fingerprint: fp.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            })
            .collect();
        let response = ApiResponse::ok(ApiResult::Engines(infos));
        prop_assert_eq!(round_trip(&response), response);

        // Service stats (including the cache counters the acceptance criteria
        // inspect: evictions and capacity).
        let stats = ServiceStats {
            engines: counters[0] as usize,
            analyze_requests: counters[1],
            threshold_requests: counters[2],
            threshold_store: CacheStats {
                hits: counters[3],
                misses: counters[4],
                entries: counters[5] as usize,
                evictions: counters[1] / 2,
                capacity: if counters[2].is_multiple_of(2) {
                    None
                } else {
                    Some(counters[2] as usize)
                },
            },
            profile_caches: CacheStats {
                hits: counters[5],
                misses: counters[3],
                entries: counters[4] as usize,
                evictions: counters[0] / 3,
                capacity: if counters[1].is_multiple_of(2) {
                    Some(counters[1] as usize)
                } else {
                    None
                },
            },
            kernels: KernelStats {
                mode: "avx512".to_string(),
                tuned: counters[0].is_multiple_of(2),
                tuner_kernel: "avx2".to_string(),
                shard_budget_bytes: (counters[3] as usize + 1) * 1024,
                tuner_timings: vec![
                    TunerTiming {
                        subject: "kernel:scalar".to_string(),
                        median_ns: counters[4],
                    },
                    TunerTiming {
                        subject: format!("shard_budget_bytes:{}", counters[5]),
                        median_ns: counters[5],
                    },
                    TunerTiming {
                        subject: "sampler:gaps".to_string(),
                        median_ns: counters[0],
                    },
                    TunerTiming {
                        subject: "miner:par-eclat".to_string(),
                        median_ns: counters[1],
                    },
                ],
                tuner_sampler: if counters[1].is_multiple_of(2) { "gaps" } else { "cellwise" }
                    .to_string(),
                tuner_miner: if counters[2].is_multiple_of(2) { "par-eclat" } else { "eclat" }
                    .to_string(),
            },
            miner_dispatch: DispatchCounts {
                apriori: counters[0],
                eclat: counters[1],
                fp_growth: counters[2],
                brute_force: counters[3],
                eclat_bitmap: counters[4],
                sharded: counters[5],
                par_eclat: counters[0].wrapping_add(counters[1]),
                par_eclat_sharded: counters[2].wrapping_add(counters[3]),
            },
            replicates: ReplicateStats {
                sampled_cellwise: counters[4],
                sampled_gaps: counters[5],
                observations_reused: counters[0].wrapping_add(counters[5]),
            },
            jobs: JobStats {
                queued: counters[0],
                running: counters[1] % 8,
                done: counters[2],
                failed: counters[3],
                capacity: counters[4] % 1024 + 1,
            },
            store: if counters[5].is_multiple_of(2) {
                None
            } else {
                Some(StoreStats {
                    segments: counters[0] % 64 + 1,
                    live_bytes: counters[1],
                    dead_bytes: counters[2],
                    compactions: counters[3] % 32,
                    last_compaction_op: counters[4].is_multiple_of(2).then_some(counters[5]),
                })
            },
            residency: ResidencyStats {
                mode: if counters[0].is_multiple_of(2) { "mmap" } else { "read" }.to_string(),
                budget_bytes: counters[1],
                spilled_datasets: counters[2],
                spilled_shards: counters[3],
                evictions: counters[4],
                refaults: counters[5],
            },
        };
        let response = ApiResponse::ok(ApiResult::Stats(stats));
        prop_assert_eq!(round_trip(&response), response);

        // Health.
        let health = ApiResponse::ok(ApiResult::Health);
        prop_assert_eq!(round_trip(&health), health);
    }
}

#[test]
fn analysis_result_envelopes_round_trip_a_real_response() {
    // A real engine response (reports, curves, itemsets and all) survives the
    // wire unchanged — the typed backbone of the loopback bit-identity test.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sigfim_core::engine::AnalysisEngine;
    use sigfim_datasets::random::BernoulliModel;

    let dataset = BernoulliModel::new(150, vec![0.15; 8])
        .unwrap()
        .sample(&mut StdRng::seed_from_u64(5));
    let mut engine = AnalysisEngine::from_dataset(dataset).unwrap();
    let response = engine
        .run(&AnalysisRequest::for_k_range(2..=3).with_replicates(6))
        .unwrap();
    let envelope = ApiResponse::ok(ApiResult::Analysis(response));
    let parsed: ApiResponse =
        serde_json::from_str(&serde_json::to_string(&envelope).unwrap()).unwrap();
    assert_eq!(parsed, envelope);
}

#[test]
fn stats_payloads_from_older_servers_still_parse() {
    // The replicate counters, tuner sampler/miner picks, and the job/store
    // counters are additive, `#[serde(default)]` fields: a stats payload
    // serialized before they existed must still parse, reading as
    // zeroed/empty values.
    let modern = ServiceStats {
        engines: 3,
        analyze_requests: 11,
        threshold_requests: 7,
        threshold_store: CacheStats::default(),
        profile_caches: CacheStats::default(),
        kernels: KernelStats::default(),
        miner_dispatch: DispatchCounts::default(),
        replicates: ReplicateStats::default(),
        jobs: JobStats::default(),
        store: None,
        residency: ResidencyStats::default(),
    };
    let mut json = serde_json::to_string(&modern).unwrap();
    // Strip the new fields to reconstruct the previous release's payload.
    let jobs_json = "\"jobs\":{\"queued\":0,\"running\":0,\"done\":0,\"failed\":0,\"capacity\":0}";
    let residency_json = "\"residency\":{\"mode\":\"\",\"budget_bytes\":0,\"spilled_datasets\":0,\
                          \"spilled_shards\":0,\"evictions\":0,\"refaults\":0}";
    for field in [
        "\"replicates\":{\"sampled_cellwise\":0,\"sampled_gaps\":0,\"observations_reused\":0},",
        ",\"replicates\":{\"sampled_cellwise\":0,\"sampled_gaps\":0,\"observations_reused\":0}",
        "\"tuner_sampler\":\"\",",
        ",\"tuner_sampler\":\"\"",
        "\"tuner_miner\":\"\",",
        ",\"tuner_miner\":\"\"",
        &format!("{jobs_json},"),
        &format!(",{jobs_json}"),
        "\"store\":null,",
        ",\"store\":null",
        &format!("{residency_json},"),
        &format!(",{residency_json}"),
    ] {
        json = json.replace(field, "");
    }
    assert!(
        !json.contains("replicates")
            && !json.contains("tuner_sampler")
            && !json.contains("\"jobs\"")
            && !json.contains("\"store\"")
            && !json.contains("\"residency\""),
        "stale-payload reconstruction failed: {json}"
    );
    let parsed: ServiceStats = serde_json::from_str(&json).expect("old payload parses");
    assert_eq!(parsed, modern);

    // A pre-jobs server also omits individual JobStats fields when the
    // struct itself arrives from a mixed-version aggregator: every field is
    // independently defaulted.
    let partial: JobStats = serde_json::from_str("{\"queued\":4}").unwrap();
    assert_eq!(
        partial,
        JobStats {
            queued: 4,
            ..JobStats::default()
        }
    );
}

#[test]
fn request_body_accessors_cover_both_kinds() {
    let analyze = ApiRequest::analyze("d", AnalysisRequest::for_k(2));
    assert!(matches!(analyze.body, ApiRequestBody::Analyze { .. }));
    let thresholds = ApiRequest::thresholds(
        ModelSpec::Bernoulli {
            transactions: 10,
            frequencies: vec![0.5],
        },
        AnalysisRequest::for_k(2),
    );
    assert!(matches!(thresholds.body, ApiRequestBody::Thresholds { .. }));
    // Unknown kinds and missing fields are parse errors, not panics.
    assert!(
        serde_json::from_str::<ApiRequest>("{\"protocol_version\":1,\"kind\":\"zap\"}").is_err()
    );
    assert!(serde_json::from_str::<ApiRequest>("{\"kind\":\"analyze\"}").is_err());
    assert!(serde_json::from_str::<ApiError>("{\"code\":\"mystery\"}").is_err());
}
