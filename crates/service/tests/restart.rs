//! Crash-restart integration test for the durable service tier: everything
//! `sigfim serve --data-dir` persists must come back after the process dies.
//!
//! The "crash" is simulated in-process: a first registry + store are built,
//! loaded with a dataset, a finished analysis, queued jobs and a
//! mid-flight job record, then dropped without any orderly teardown — every
//! record was already durable at write time (the store fsyncs per frame), so
//! dropping is exactly what `kill -9` leaves behind. A second registry over
//! the same `--data-dir` must then:
//!
//! * re-register the persisted dataset;
//! * answer the same analysis request with `CacheStatus::Hit` and **zero**
//!   new Monte-Carlo replicates (the threshold cache restarts warm);
//! * re-enqueue jobs that were `Queued` at the crash and run them to
//!   completion once workers start;
//! * deterministically mark the job that was `Running` at the crash as
//!   `Failed` (its partial Monte-Carlo state died with the process).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sigfim_core::engine::{AnalysisRequest, CacheStatus};
use sigfim_datasets::random::BernoulliModel;
use sigfim_mining::miner::MinerKind;
use sigfim_service::{ApiError, EngineRegistry, JobInfo, JobState, ServiceDb};
use sigfim_store::{ns, Db, DbOptions, NamespaceDef};

fn temp_data_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sigfim-restart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fimi_payload(seed: u64) -> String {
    let dataset = BernoulliModel::new(220, vec![0.12; 10])
        .unwrap()
        .sample(&mut StdRng::seed_from_u64(seed));
    let mut bytes = Vec::new();
    sigfim_datasets::fimi::write_fimi(&dataset, &mut bytes).unwrap();
    String::from_utf8(bytes).unwrap()
}

fn poll_terminal(registry: &EngineRegistry, id: &str) -> JobInfo {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        let job = registry.job_status(id).expect("recovered job is pollable");
        if job.state.is_terminal() {
            return job;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "job {id} never finished: {job:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
}

#[test]
fn restart_restores_datasets_warm_thresholds_and_the_job_table() {
    let dir = temp_data_dir("full");
    let fimi = fimi_payload(17);
    let request = AnalysisRequest::for_k(2).with_replicates(8).with_seed(3);

    // ---- Phase 1: a server accumulates durable state, then "crashes". ----
    let cold_report = {
        let registry = Arc::new(EngineRegistry::new());
        let summary = registry.attach_db(ServiceDb::open(&dir).unwrap()).unwrap();
        assert_eq!(summary, Default::default(), "fresh store restores nothing");

        // Upload a dataset (persisted as FIMI) and analyze it synchronously:
        // the threshold estimate write-throughs into the store.
        registry.put_dataset("retail", &fimi).unwrap();
        let cold = registry.analyze("retail", &request).unwrap();
        assert_eq!(cold.runs[0].threshold_cache, CacheStatus::Miss);

        // Enqueue two detached jobs and start NO workers: they are accepted,
        // persisted as Queued, and still pending when the process dies —
        // the kill-mid-queue shape.
        let q1 = registry
            .submit_job(
                "retail",
                AnalysisRequest::for_k(2).with_replicates(6).with_seed(9),
            )
            .unwrap();
        let q2 = registry
            .submit_job(
                "retail",
                AnalysisRequest::for_k(2).with_replicates(6).with_seed(10),
            )
            .unwrap();
        assert_eq!(
            (q1.state, q2.state),
            (JobState::Queued, JobState::Queued),
            "no workers are draining; submissions return without running"
        );

        cold.runs[0].report.clone()
    };

    // Simulate a job caught mid-run by the crash: append a Running record
    // with a short-lived handle, after the first registry (and its store
    // handle) is fully dropped — exactly the record a worker's claim
    // transition would have left in the log the next open replays.
    {
        let db = ServiceDb::open(&dir).unwrap();
        let interrupted = JobInfo {
            id: "job-00000077".into(),
            dataset: "retail".into(),
            request: request.clone(),
            state: JobState::Running,
            progress: Default::default(),
            result: None,
            error: None,
        };
        db.put_job(&interrupted).unwrap();
    }

    // ---- Phase 2: a new process over the same --data-dir. ----
    let registry = Arc::new(EngineRegistry::new());
    let summary = registry.attach_db(ServiceDb::open(&dir).unwrap()).unwrap();
    assert_eq!(summary.datasets, 1, "the persisted dataset re-registers");
    assert!(
        summary.thresholds >= 1,
        "threshold records preload the cache"
    );
    assert_eq!(
        summary.jobs_requeued, 2,
        "queued jobs wait their turn again"
    );
    assert_eq!(summary.jobs_interrupted, 1, "the mid-run job is closed out");

    // The dataset is served again under its id.
    let engines = registry.engines();
    assert_eq!(engines.len(), 1);
    assert_eq!(engines[0].id, "retail");

    // The same query is warm: a cache hit, an identical report, and — the
    // acceptance criterion — zero new null replicates sampled.
    let sampled_before = sigfim_core::replicate_stats().total_sampled();
    let warm = registry.analyze("retail", &request).unwrap();
    assert_eq!(warm.runs[0].threshold_cache, CacheStatus::Hit);
    assert_eq!(warm.runs[0].report, cold_report);
    assert_eq!(
        sigfim_core::replicate_stats().total_sampled(),
        sampled_before,
        "a restored threshold must not re-run Algorithm 1"
    );

    // The job that was Running at the crash is deterministically Failed.
    let interrupted = registry.job_status("job-00000077").unwrap();
    assert_eq!(interrupted.state, JobState::Failed);
    assert!(matches!(
        interrupted.error,
        Some(ApiError::EngineFailure { ref detail }) if detail.contains("restart")
    ));

    // The re-queued jobs run to completion once workers start.
    registry.start_job_workers(1);
    let done1 = poll_terminal(&registry, "job-00000001");
    let done2 = poll_terminal(&registry, "job-00000002");
    assert_eq!(done1.state, JobState::Done);
    assert_eq!(done2.state, JobState::Done);
    assert!(done1.result.is_some() && done2.result.is_some());

    // New ids mint above everything recovered (including the hand-written
    // 77), and the store stats surface through the service.
    let fresh = registry
        .submit_job("retail", AnalysisRequest::for_k(2).with_replicates(4))
        .unwrap();
    assert_eq!(fresh.id, "job-00000078");
    let stats = registry.stats();
    let store = stats.store.expect("an attached store reports its counters");
    assert!(store.segments >= 1);
    assert!(store.live_bytes > 0);
    let _ = poll_terminal(&registry, &fresh.id);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn v1_job_records_naming_the_retired_par_eclat_miner_reopen() {
    // Stores written before the subtree-parallel Eclat was retired hold job
    // records whose request names `"miner":"ParEclat"`. It was bit-identical
    // to Eclat, so the store must reopen with those jobs decoded as Eclat
    // and runnable.
    let dir = temp_data_dir("legacy-miner");
    let request = AnalysisRequest::for_k(2)
        .with_replicates(6)
        .with_seed(4)
        .with_miner(MinerKind::Eclat);
    let job = JobInfo {
        id: "job-00000005".into(),
        dataset: "retail".into(),
        request: request.clone(),
        state: JobState::Queued,
        progress: Default::default(),
        result: None,
        error: None,
    };
    {
        let db = ServiceDb::open(&dir).unwrap();
        db.put_dataset("retail", &fimi_payload(21)).unwrap();
    }
    {
        // Write the record as an older binary would have: raw JSON bytes
        // under the v1 `jobs` namespace.
        let namespaces = [ns::DATASETS, ns::THRESHOLDS, ns::OBSERVATIONS, ns::JOBS]
            .map(|name| NamespaceDef::new(name, 1));
        let raw = Db::open(&dir, &namespaces, DbOptions::default()).unwrap();
        let json = serde_json::to_string(&job).unwrap();
        assert!(json.contains("\"miner\":\"Eclat\""));
        let legacy = json.replace("\"miner\":\"Eclat\"", "\"miner\":\"ParEclat\"");
        raw.put(ns::JOBS, &job.id, legacy.as_bytes()).unwrap();
    }

    let stored = ServiceDb::open(&dir).unwrap().jobs().unwrap();
    assert_eq!(stored, vec![job.clone()]);

    let registry = Arc::new(EngineRegistry::new());
    let summary = registry.attach_db(ServiceDb::open(&dir).unwrap()).unwrap();
    assert_eq!(summary.jobs_requeued, 1);
    registry.start_job_workers(1);
    let done = poll_terminal(&registry, &job.id);
    assert_eq!(done.state, JobState::Done);
    assert_eq!(done.request.miner, MinerKind::Eclat);
    let direct = registry.analyze("retail", &request).unwrap();
    assert_eq!(
        done.result.expect("a done job carries its response").runs[0].report,
        direct.runs[0].report
    );

    let _ = std::fs::remove_dir_all(&dir);
}
