//! The `serve-mixed` workload: an in-process `serve()` on loopback over a
//! durable registry, driven by closed-loop clients with a seeded mix of warm
//! analyze reads and upload cycles (PUT a dataset under a new id, analyze
//! it, DELETE it).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sigfim_core::engine::{AnalysisEngine, AnalysisRequest, AnalysisResponse};
use sigfim_core::replicate_stats;
use sigfim_datasets::benchmarks::BenchmarkDataset;
use sigfim_datasets::bitmap::DatasetBackend;
use sigfim_datasets::fimi::{read_fimi_bytes, write_fimi};
use sigfim_datasets::random::{BernoulliModel, NullModel};
use sigfim_datasets::sampler::{resolve_sampler, SamplerMode};
use sigfim_exec::ExecutionPolicy;
use sigfim_mining::dispatch_counts;
use sigfim_service::{
    serve, ApiRequest, ApiResponse, ApiResult, EngineRegistry, ServerConfig, ServerHandle,
    ServiceDb, ServiceStats,
};

use crate::table3::procedure2_mines;
use crate::trace::{
    dispatch_delta, mean, median, peak_rss_mb, quantile, ratio, reset_peak_rss, write_trace,
    Recorder, StageSpans,
};
use crate::{pin_problems, Args, Layers, Outcome, Pin, DEFAULT_SEED};

/// How many times a measured run repeats its set-up; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
/// Monte-Carlo replicates Δ of every served request. Reads are warm, so Δ
/// only sizes the threshold warm-up of the set-up.
const REPLICATES: usize = 8;
/// Warm analyze reads per upload cycle, per tenant: nine of every ten
/// operations are reads.
const READS_PER_UPLOAD: usize = 9;
/// Closed-loop clients, each holding at most one connection.
const CLIENTS: u64 = 2;
const HTTP_WORKERS: usize = 2;
const JOB_WORKERS: usize = 1;
/// Repetitions of each tenant's request in the layer split of a traced run.
const LAYER_REPEATS: usize = 7;
/// The load phase's peak RSS and operation rate are read per window of this
/// length and reported as the median window: the phase-wide maximum RSS
/// depends on whether two large uploads happen to overlap, and a burst of
/// load on the machine slows one or two windows, not the median.
const WINDOW: std::time::Duration = std::time::Duration::from_secs(5);

/// One served dataset and the request its clients send.
struct Tenant {
    id: &'static str,
    bench: BenchmarkDataset,
    scale: f64,
    ks: &'static [usize],
    /// The outputs every run must reproduce.
    pins: &'static [Pin],
}

/// Five Table 3 stand-ins at table3's default scales. The k choice keeps
/// one tenant with `s* = ∞` (Bmspos at k = 3) and one dense multi-k tenant.
const TENANTS: [Tenant; 5] = [
    Tenant {
        id: "retail",
        bench: BenchmarkDataset::Retail,
        scale: 16.0,
        ks: &[4],
        pins: &[Pin {
            k: 4,
            s_min: 40,
            s_star: Some(40),
            q: 18,
            pool_size: 2,
        }],
    },
    Tenant {
        id: "kosarak",
        bench: BenchmarkDataset::Kosarak,
        scale: 64.0,
        ks: &[4],
        pins: &[Pin {
            k: 4,
            s_min: 118,
            s_star: Some(118),
            q: 100,
            pool_size: 1,
        }],
    },
    Tenant {
        id: "bms1",
        bench: BenchmarkDataset::Bms1,
        scale: 8.0,
        ks: &[2],
        pins: &[Pin {
            k: 2,
            s_min: 26,
            s_star: Some(26),
            q: 8,
            pool_size: 2,
        }],
    },
    Tenant {
        id: "bmspos",
        bench: BenchmarkDataset::Bmspos,
        scale: 32.0,
        ks: &[3],
        pins: &[Pin {
            k: 3,
            s_min: 745,
            s_star: None,
            q: 0,
            pool_size: 1,
        }],
    },
    Tenant {
        id: "pumsb-star",
        bench: BenchmarkDataset::PumsbStar,
        scale: 8.0,
        ks: &[2, 3, 4],
        pins: &[
            Pin {
                k: 2,
                s_min: 3531,
                s_star: Some(3531),
                q: 1,
                pool_size: 1,
            },
            Pin {
                k: 3,
                s_min: 2158,
                s_star: Some(2158),
                q: 16,
                pool_size: 1,
            },
            Pin {
                k: 4,
                s_min: 1225,
                s_star: Some(1225),
                q: 85,
                pool_size: 1,
            },
        ],
    },
];

fn tenant_request(tenant: &Tenant) -> AnalysisRequest {
    AnalysisRequest::for_ks(tenant.ks.iter().copied())
        .with_replicates(REPLICATES)
        .with_seed(DEFAULT_SEED)
}

/// The FIMI bodies of every tenant's stand-in.
///
/// The stand-ins and the requests are the same for every `--seed`, which
/// draws the traffic instead: the operation order of every client and the
/// upload ids. A read's cost grows with the square of the number of items
/// above the tenant's `s_min` (the Apriori passes of Procedures 1 and 2), so
/// with seed-drawn data Bms1's reads alone swung 2.5-fold between seeds, and
/// the mix's latency would measure the seed rather than the service. The
/// table3 workloads vary their data with the seed.
fn generate() -> Vec<String> {
    TENANTS
        .iter()
        .enumerate()
        .map(|(index, tenant)| {
            let mut rng = StdRng::seed_from_u64(DEFAULT_SEED + index as u64);
            let dataset = tenant
                .bench
                .sample_standin(tenant.scale, &mut rng)
                .expect("the stand-in scale is valid");
            let mut body = Vec::new();
            write_fimi(&dataset, &mut body).expect("writing to memory cannot fail");
            String::from_utf8(body).expect("FIMI is ASCII")
        })
        .collect()
}

/// Everything the clients send and expect, computed once and untimed. The
/// expected bodies come from a direct in-process `AnalysisEngine::run` of
/// the same request on the same FIMI body: a cold run (the warm-up answer)
/// and a warm re-run (every later answer).
struct Catalogue {
    fimi: Vec<String>,
    requests: Vec<AnalysisRequest>,
    read_bodies: Vec<String>,
    expected_cold: Vec<String>,
    expected_warm: Vec<String>,
    /// The direct warm responses, for the layer split.
    responses: Vec<AnalysisResponse>,
}

fn envelope(response: AnalysisResponse) -> String {
    serde_json::to_string(&ApiResponse::ok(ApiResult::Analysis(response)))
        .expect("responses serialize")
}

impl Catalogue {
    fn build(outcome: &mut Outcome) -> Catalogue {
        let fimi = generate();
        let requests: Vec<AnalysisRequest> = TENANTS.iter().map(tenant_request).collect();
        let mut catalogue = Catalogue {
            read_bodies: TENANTS
                .iter()
                .zip(&requests)
                .map(|(tenant, request)| {
                    serde_json::to_string(&ApiRequest::analyze(tenant.id, request.clone()))
                        .expect("requests serialize")
                })
                .collect(),
            fimi,
            requests,
            expected_cold: Vec::new(),
            expected_warm: Vec::new(),
            responses: Vec::new(),
        };
        for (index, tenant) in TENANTS.iter().enumerate() {
            let dataset = read_fimi_bytes(&catalogue.fimi[index])
                .expect("generated FIMI parses")
                .dataset;
            let model = BernoulliModel::from_dataset(&dataset);
            outcome.notes.push(format!(
                "tenant={} transactions={} items={} ks={:?} sampler={} backend={:?}",
                tenant.id,
                dataset.num_transactions(),
                dataset.num_items(),
                tenant.ks,
                resolve_sampler(
                    SamplerMode::Auto,
                    model.supports_gaps_sampler(),
                    model.expected_density()
                )
                .name(),
                DatasetBackend::Auto.resolve_for_dataset(&dataset),
            ));
            let mut engine = AnalysisEngine::from_dataset(dataset).expect("non-empty stand-in");
            let request = &catalogue.requests[index];
            let cold = engine.run(request).expect("the direct analysis runs");
            let warm = engine.run(request).expect("the direct analysis runs");
            let problems = pin_problems(tenant.pins, &cold);
            outcome.check(problems.is_empty(), || {
                format!("{}: {}", tenant.id, problems.join("; "))
            });
            for run in &cold.runs {
                let report = &run.report;
                outcome.notes.push(format!(
                    "tenant={} k={} s_min={} s_star={:?} q={} pool_size={}",
                    tenant.id,
                    run.k,
                    report.threshold.s_min,
                    report.procedure2.s_star,
                    report.procedure2.num_significant(),
                    report.threshold.pool_size
                ));
            }
            catalogue.expected_cold.push(envelope(cold));
            catalogue.expected_warm.push(envelope(warm.clone()));
            catalogue.responses.push(warm);
        }
        catalogue
    }
}

/// A running service over a fresh data directory.
struct Service {
    registry: Arc<EngineRegistry>,
    server: ServerHandle,
    db: ServiceDb,
    dir: PathBuf,
    addr: SocketAddr,
}

impl Service {
    fn stop(self) {
        self.server.shutdown();
        drop(self.registry);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Generate the stand-ins, start the durable service, upload every tenant
/// and warm its thresholds. Returns the service, the set-up time, and the
/// generated bodies and warm-up answers for checking.
fn start(
    attempt: usize,
    read_bodies: &[String],
) -> Result<(Service, f64, Vec<String>, Vec<String>), String> {
    let begin = Instant::now();
    let fimi = generate();
    let dir = PathBuf::from(".bench_tmp").join(format!("serve-{}-{attempt}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let db = ServiceDb::open(&dir).map_err(|e| format!("opening the store: {e}"))?;
    let registry = Arc::new(EngineRegistry::new());
    registry
        .attach_db(db.clone())
        .map_err(|e| format!("attaching the store: {e}"))?;
    registry.start_job_workers(JOB_WORKERS);
    let server = serve(
        Arc::clone(&registry),
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: HTTP_WORKERS,
        },
    )
    .map_err(|e| format!("binding loopback: {e}"))?;
    let addr = server.addr();
    let service = Service {
        registry,
        server,
        db,
        dir,
        addr,
    };
    let mut warmups = Vec::new();
    for (index, tenant) in TENANTS.iter().enumerate() {
        let path = format!("/v1/datasets/{}", tenant.id);
        match http(addr, "PUT", &path, &fimi[index]) {
            Ok((200, _)) => {}
            other => {
                service.stop();
                return Err(format!("uploading {}: {other:?}", tenant.id));
            }
        }
    }
    for (tenant, body) in TENANTS.iter().zip(read_bodies) {
        match http(addr, "POST", "/v1/analyze", body) {
            Ok((_, answer)) => warmups.push(answer),
            Err(error) => {
                service.stop();
                return Err(format!("warming {}: {error}", tenant.id));
            }
        }
    }
    let secs = begin.elapsed().as_secs_f64();
    Ok((service, secs, fimi, warmups))
}

/// One HTTP/1.1 exchange on a fresh connection; returns the status and body.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let raw = String::from_utf8(raw).map_err(|_| "the response is not UTF-8".to_string())?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or("the response has no header end")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or("the response has no status")?;
    Ok((status, body.to_string()))
}

/// What one client did.
#[derive(Default)]
struct ClientLog {
    /// `(tenant, seconds)` of every read.
    reads: Vec<(usize, f64)>,
    cycles: Vec<f64>,
    puts: Vec<f64>,
    /// When each read or upload cycle completed.
    finished: Vec<Instant>,
    /// Operations whose answers were right.
    passed: u64,
    /// What went wrong in every other operation.
    failures: Vec<String>,
}

impl ClientLog {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failures.push(what());
        }
    }
}

/// One round of the mix in a seeded random order: for every tenant,
/// `READS_PER_UPLOAD` reads (`true`) and one upload cycle (`false`). Dealing
/// operations from such rounds keeps the mix at its nominal shares in every
/// run, whatever the seed.
fn shuffled_deck(rng: &mut StdRng) -> Vec<(usize, bool)> {
    let mut deck: Vec<(usize, bool)> = (0..TENANTS.len())
        .flat_map(|tenant| {
            std::iter::repeat_n((tenant, true), READS_PER_UPLOAD).chain([(tenant, false)])
        })
        .collect();
    for index in (1..deck.len()).rev() {
        deck.swap(index, rng.random_range(0..=index));
    }
    deck
}

/// A closed-loop client: the next operation starts when the previous one
/// has completed, until `deadline`. With a recorder, every operation and
/// every HTTP exchange is a span.
fn client(
    addr: SocketAddr,
    catalogue: &Catalogue,
    seed: u64,
    index: u64,
    deadline: Instant,
    recorder: Option<&Recorder>,
) -> ClientLog {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00C1_1E17_u64.wrapping_mul(index + 1));
    let mut log = ClientLog::default();
    let mut sequence = 0u64;
    let mut deck = Vec::new();
    let open = |name: &str, parent: Option<usize>, request: u64| {
        recorder.map(|recorder| recorder.open(name, 0, parent, request))
    };
    let close = |span: Option<usize>| {
        if let (Some(recorder), Some(span)) = (recorder, span) {
            recorder.close(span);
        }
    };
    while Instant::now() < deadline {
        sequence += 1;
        let request_id = (index + 1) * 1_000_000 + sequence;
        if deck.is_empty() {
            deck = shuffled_deck(&mut rng);
        }
        let (tenant, read) = deck.pop().expect("the deck was just refilled");
        let expected = &catalogue.expected_warm[tenant];
        if read {
            let span = open("client.read", None, request_id);
            let start = Instant::now();
            let answer = http(addr, "POST", "/v1/analyze", &catalogue.read_bodies[tenant]);
            log.reads.push((tenant, start.elapsed().as_secs_f64()));
            log.finished.push(Instant::now());
            close(span);
            let ok = matches!(&answer, Ok((200, body)) if body == expected);
            log.check(ok, || {
                format!("read {}: {}", TENANTS[tenant].id, brief(&answer))
            });
        } else {
            let id = format!("{}-c{index}-{sequence}", TENANTS[tenant].id);
            let path = format!("/v1/datasets/{id}");
            let analyze = serde_json::to_string(&ApiRequest::analyze(
                id.clone(),
                catalogue.requests[tenant].clone(),
            ))
            .expect("requests serialize");
            let span = open("client.upload_cycle", None, request_id);
            let start = Instant::now();
            let put_span = open("http.put", span, request_id);
            let put = http(addr, "PUT", &path, &catalogue.fimi[tenant]);
            log.puts.push(start.elapsed().as_secs_f64());
            close(put_span);
            let analyze_span = open("http.analyze", span, request_id);
            let answer = http(addr, "POST", "/v1/analyze", &analyze);
            close(analyze_span);
            let delete_span = open("http.delete", span, request_id);
            let delete = http(addr, "DELETE", &path, "");
            close(delete_span);
            log.cycles.push(start.elapsed().as_secs_f64());
            log.finished.push(Instant::now());
            close(span);
            let ok = matches!(&put, Ok((200, _)))
                && matches!(&answer, Ok((200, body)) if body == expected)
                && matches!(&delete, Ok((200, _)));
            log.check(ok, || {
                format!(
                    "upload cycle {id}: put {}, analyze {}, delete {}",
                    brief(&put),
                    brief(&answer),
                    brief(&delete)
                )
            });
        }
    }
    log
}

fn brief(answer: &Result<(u16, String), String>) -> String {
    match answer {
        Ok((status, body)) => format!("{status} {}", body.chars().take(160).collect::<String>()),
        Err(error) => error.clone(),
    }
}

/// The merged logs of one load phase and the service counters around it.
struct Phase {
    /// VmHWM of each `WINDOW` of the phase; empty when the kernel
    /// refused a reset.
    rss_peaks: Vec<f64>,
    reads: Vec<f64>,
    /// The reads of each tenant, in `TENANTS` order.
    tenant_reads: Vec<Vec<f64>>,
    cycles: Vec<f64>,
    puts: Vec<f64>,
    /// Operations completed per second in each `WINDOW` of the phase.
    op_rates: Vec<f64>,
    before: ServiceStats,
    after: ServiceStats,
    sampled: u64,
}

impl Phase {
    /// The read latency of the mix: each tenant's median read, averaged over
    /// the tenants. Unlike the median of all reads, it does not jump between
    /// the tenants' latency modes as the drawn mix shifts.
    fn read_p50(&self) -> f64 {
        mean(
            &self
                .tenant_reads
                .iter()
                .map(|reads| median(reads))
                .collect::<Vec<_>>(),
        )
    }
}

/// Run the closed-loop clients for `seconds` and check every answer and the
/// phase invariants: no replicate sampled, no threshold missed.
fn load(
    service: &Service,
    catalogue: &Catalogue,
    seed: u64,
    seconds: f64,
    recorder: Option<&Recorder>,
    outcome: &mut Outcome,
) -> Phase {
    let before = service.registry.stats();
    let sampled = replicate_stats().total_sampled();
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    let mut rss_reset = reset_peak_rss();
    let mut peaks = Vec::new();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|index| {
                scope
                    .spawn(move || client(service.addr, catalogue, seed, index, deadline, recorder))
            })
            .collect();
        // The peak RSS of every window, read and reset from this thread.
        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            std::thread::sleep(WINDOW.min(deadline - now));
            peaks.extend(peak_rss_mb());
            rss_reset &= reset_peak_rss();
        }
        handles
            .into_iter()
            .map(|handle| handle.join().expect("a client panicked"))
            .collect()
    });
    let sampled = replicate_stats().total_sampled() - sampled;
    let after = service.registry.stats();
    let mut phase = Phase {
        rss_peaks: if rss_reset { peaks } else { Vec::new() },
        reads: Vec::new(),
        tenant_reads: vec![Vec::new(); TENANTS.len()],
        cycles: Vec::new(),
        puts: Vec::new(),
        op_rates: Vec::new(),
        before,
        after,
        sampled,
    };
    let mut finished = Vec::new();
    for log in logs {
        finished.extend(
            log.finished
                .iter()
                .map(|at| at.duration_since(start).as_secs_f64()),
        );
        for (tenant, secs) in log.reads {
            phase.reads.push(secs);
            phase.tenant_reads[tenant].push(secs);
        }
        phase.cycles.extend(log.cycles);
        phase.puts.extend(log.puts);
        outcome.attempted += log.passed;
        for failure in log.failures {
            outcome.fail(|| failure);
        }
    }
    phase.op_rates = window_rates(finished, seconds);
    let misses = phase.after.threshold_store.misses - phase.before.threshold_store.misses;
    if phase.sampled != 0 || misses != 0 {
        outcome.fail(|| {
            format!(
                "the load phase sampled {} replicates and missed {misses} thresholds",
                phase.sampled
            )
        });
    }
    phase
}

/// The operation rate of each `WINDOW` of a phase of `seconds`, from the
/// operations' completion times in seconds since the phase began: the
/// operations completed in the window, divided by the time from the last
/// completion before it to the last one in it. Operations that end after
/// the phase, and windows in which none ends, are left out.
fn window_rates(mut finished: Vec<f64>, seconds: f64) -> Vec<f64> {
    finished.sort_by(f64::total_cmp);
    let window = WINDOW.as_secs_f64();
    let mut rates = Vec::new();
    let (mut previous, mut next) = (0.0, 0);
    let mut end = 0.0;
    while end < seconds {
        end = (end + window).min(seconds);
        let first = next;
        while next < finished.len() && finished[next] < end {
            next += 1;
        }
        if next > first {
            rates.push((next - first) as f64 / (finished[next - 1] - previous));
            previous = finished[next - 1];
        }
    }
    rates
}

fn config_notes(outcome: &mut Outcome) {
    outcome.notes.push(format!(
        "workload=serve-mixed kernel={} http_workers={HTTP_WORKERS} job_workers={JOB_WORKERS} \
         clients={CLIENTS} reads_per_upload={READS_PER_UPLOAD} replicates={REPLICATES} engine_workers={}",
        sigfim_datasets::kernels::kernels().name(),
        ExecutionPolicy::default().worker_threads(),
    ));
}

pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    config_notes(&mut outcome);
    let catalogue = Catalogue::build(&mut outcome);

    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::with_capacity(repeats);
    let mut service = None;
    for attempt in 0..repeats {
        let (started, secs, fimi, warmups) = match start(attempt, &catalogue.read_bodies) {
            Ok(started) => started,
            Err(error) => {
                outcome.fail(|| format!("set-up failed: {error}"));
                return outcome;
            }
        };
        setups.push(secs);
        outcome.check(fimi == catalogue.fimi, || {
            "the stand-ins differ between set-ups".to_string()
        });
        for (index, answer) in warmups.iter().enumerate() {
            outcome.check(answer == &catalogue.expected_cold[index], || {
                format!(
                    "warm-up of {} differs from the direct engine: {}",
                    TENANTS[index].id,
                    answer.chars().take(160).collect::<String>()
                )
            });
        }
        if let Some(previous) = service.replace(started) {
            previous.stop();
        }
    }
    let service = service.expect("at least one set-up ran");

    if args.trace {
        traced(&service, &catalogue, args, &mut outcome);
    } else {
        let phase = load(
            &service,
            &catalogue,
            args.seed,
            args.seconds,
            None,
            &mut outcome,
        );
        outcome.metric("setup_s", median(&setups), "s", setups.len());
        outcome.metric(
            "analysis_ms_p50",
            phase.read_p50() * 1e3,
            "ms",
            phase.reads.len(),
        );
        outcome.metric(
            "ops_per_s",
            median(&phase.op_rates),
            "1/s",
            phase.op_rates.len(),
        );
        outcome
            .notes
            .push(format!("ops_per_s per window: {:.2?}", phase.op_rates));
        if phase.rss_peaks.is_empty() {
            outcome
                .notes
                .push("peak_rss_mb omitted: the peak-RSS reset was refused".to_string());
        } else {
            outcome.metric(
                "peak_rss_mb",
                median(&phase.rss_peaks),
                "MB",
                phase.rss_peaks.len(),
            );
            outcome
                .notes
                .push(format!("peak_rss_mb per window: {:.1?}", phase.rss_peaks));
        }
        outcome.notes.push(format!(
            "read_ms_p90={:.3} (n={}) write_ms_p50={:.3} (n={}) put_ms_p50={:.3}",
            quantile(&phase.reads, 0.9) * 1e3,
            phase.reads.len(),
            median(&phase.cycles) * 1e3,
            phase.cycles.len(),
            median(&phase.puts) * 1e3,
        ));
        for (tenant, reads) in TENANTS.iter().zip(&phase.tenant_reads) {
            outcome.notes.push(format!(
                "tenant={} read_ms_p50={:.3} (n={})",
                tenant.id,
                median(reads) * 1e3,
                reads.len()
            ));
        }
    }
    service.stop();
    outcome
}

fn traced(service: &Service, catalogue: &Catalogue, args: &Args, outcome: &mut Outcome) {
    let recorder = Recorder::new();
    let mut layers = Layers {
        replay_exact: true,
        ..Layers::default()
    };
    let half = args.seconds / 2.0;

    let untraced = load(service, catalogue, args.seed, half, None, outcome);
    layers.read_ms_p90 = quantile(&untraced.reads, 0.9) * 1e3;
    layers.write_ms_p50 = median(&untraced.cycles) * 1e3;

    let dispatch_before = dispatch_counts();
    let traced = load(
        service,
        catalogue,
        args.seed,
        half,
        Some(&recorder),
        outcome,
    );
    layers.dispatch = dispatch_delta(dispatch_before, dispatch_counts());
    layers.overhead_ms = (traced.read_p50() - untraced.read_p50()) * 1e3;
    layers.replicates = traced.sampled;
    let (before, after) = (&traced.before, &traced.after);
    layers.threshold_hit_ratio = ratio(
        (after.threshold_store.hits - before.threshold_store.hits) as f64,
        (after.threshold_store.hits + after.threshold_store.misses
            - before.threshold_store.hits
            - before.threshold_store.misses) as f64,
    );
    layers.profile_hit_ratio = ratio(
        (after.profile_caches.hits - before.profile_caches.hits) as f64,
        (after.profile_caches.hits + after.profile_caches.misses
            - before.profile_caches.hits
            - before.profile_caches.misses) as f64,
    );
    if let Some(store) = &after.store {
        layers.live_bytes = store.live_bytes;
        layers.dead_bytes = store.dead_bytes;
        layers.compactions = store.compactions;
    }

    // The layer split, one request at a time on a quiet server.
    let mut samples: Vec<(usize, LayerSample)> = Vec::new();
    let mut request_id = 10_000_000u64;
    for (index, tenant) in TENANTS.iter().enumerate() {
        for _ in 0..LAYER_REPEATS {
            request_id += 1;
            let sample = layer_sample(&recorder, service, catalogue, index, request_id);
            outcome.check(sample.problems.is_empty(), || {
                format!(
                    "layer split of {}: {}",
                    tenant.id,
                    sample.problems.join("; ")
                )
            });
            samples.push((index, sample));
        }
    }
    // Per tenant the median over its repetitions; reported as the mean over
    // the tenants, the expected cost of one operation under the uniform mix.
    let mix = |field: fn(&LayerSample) -> f64| {
        let medians: Vec<f64> = (0..TENANTS.len())
            .map(|tenant| {
                let values: Vec<f64> = samples
                    .iter()
                    .filter(|(index, _)| *index == tenant)
                    .map(|(_, sample)| field(sample))
                    .collect();
                median(&values)
            })
            .collect();
        mean(&medians)
    };
    layers.transport_ms = mix(|s| s.transport) * 1e3;
    layers.decode_ms = mix(|s| s.decode) * 1e3;
    layers.handle_ms = mix(|s| s.handle) * 1e3;
    layers.encode_ms = mix(|s| s.encode) * 1e3;
    layers.response_bytes = mix(|s| s.response_bytes).round() as u64;
    layers.procedure2_ms = mix(|s| s.procedure2) * 1e3;
    layers.procedure1_ms = mix(|s| s.procedure1) * 1e3;
    layers.fimi_parse_ms = mix(|s| s.fimi_parse) * 1e3;
    layers.view_build_ms = mix(|s| s.view_build) * 1e3;
    layers.put_dataset_ms = mix(|s| s.put_dataset) * 1e3;
    layers.profile_mine_ms = mix(|s| s.profile_mine) * 1e3;
    layers.family_mine_ms = mix(|s| s.family_mine) * 1e3;
    // The share of a read's round trip that its separately measured parts
    // account for. On a shared machine one request's timings scatter by
    // ±30%, and the noise only ever adds time, so each part's fastest
    // repetition per tenant is compared.
    let fastest = |field: fn(&LayerSample) -> f64| -> f64 {
        (0..TENANTS.len())
            .map(|tenant| {
                samples
                    .iter()
                    .filter(|(index, _)| *index == tenant)
                    .map(|(_, sample)| field(sample))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    };
    layers.coverage = ratio(
        fastest(|s| s.transport)
            + fastest(|s| s.decode)
            + fastest(|s| s.handle)
            + fastest(|s| s.encode),
        fastest(|s| s.round_trip),
    );

    outcome.note_coverage(layers.coverage);
    layers.report(outcome);
    write_trace(&recorder, &args.workload, args.seed, &outcome.notes);
}

/// One tenant request taken apart layer by layer (seconds, bytes).
struct LayerSample {
    /// The served read's round trip.
    round_trip: f64,
    /// A `GET /healthz` round trip: connect, HTTP parse and write, close.
    transport: f64,
    /// The request envelope's JSON decode, as the server does it.
    decode: f64,
    /// `EngineRegistry::handle` on the decoded envelope.
    handle: f64,
    /// The response envelope's JSON encode.
    encode: f64,
    response_bytes: f64,
    /// Stage spans of `EngineRegistry::analyze_observed`.
    procedure2: f64,
    procedure1: f64,
    /// The layers of an upload cycle, called directly.
    fimi_parse: f64,
    view_build: f64,
    put_dataset: f64,
    profile_mine: f64,
    family_mine: f64,
    /// Answers that were wrong.
    problems: Vec<String>,
}

/// Take one read of tenant `index`, and the layers of one upload of its
/// dataset, apart with spans.
fn layer_sample(
    recorder: &Recorder,
    service: &Service,
    catalogue: &Catalogue,
    index: usize,
    request: u64,
) -> LayerSample {
    let expected = &catalogue.expected_warm[index];
    let root = Some(recorder.open("read", 0, None, request));
    let (answer, round_trip) = recorder.time("client.read", 0, root, request, || {
        http(
            service.addr,
            "POST",
            "/v1/analyze",
            &catalogue.read_bodies[index],
        )
    });
    let (health, transport) = recorder.time("service.transport", 0, root, request, || {
        http(service.addr, "GET", "/healthz", "")
    });
    let (envelope, decode) = recorder.time("service.decode", 0, root, request, || {
        serde_json::from_str::<serde::Value>(&catalogue.read_bodies[index])
            .and_then(|value| serde_json::from_value::<ApiRequest>(&value))
    });
    let (response, handle) = recorder.time("service.handle", 0, root, request, || {
        envelope
            .as_ref()
            .map(|envelope| service.registry.handle(envelope))
            .ok()
    });
    let (body, encode) = recorder.time("service.encode", 0, root, request, || {
        response.as_ref().map(serde_json::to_string)
    });
    let body = body.and_then(Result::ok).unwrap_or_default();
    if let Some(root) = root {
        recorder.close(root);
    }
    let mut problems = Vec::new();
    if !matches!(&answer, Ok((200, served)) if served == expected) || body != *expected {
        problems.push(format!("read: {}", brief(&answer)));
    }
    if !matches!(health, Ok((200, _))) {
        problems.push(format!("healthz: {}", brief(&health)));
    }

    let stages = StageSpans::new(recorder, None, request);
    let observed =
        service
            .registry
            .analyze_observed(TENANTS[index].id, &catalogue.requests[index], &stages);
    if observed.as_ref().ok() != Some(&catalogue.responses[index]) {
        problems.push("the observed analysis differs".to_string());
    }

    let fimi = &catalogue.fimi[index];
    let root = Some(recorder.open("upload", 0, None, request));
    let (parsed, fimi_parse) = recorder.time("datasets.fimi_parse", 0, root, request, || {
        read_fimi_bytes(fimi)
    });
    let dataset = parsed.expect("generated FIMI parses").dataset;
    let (engine, view_build) = recorder.time("datasets.view_build", 0, root, request, || {
        AnalysisEngine::from_dataset_dyn(dataset.clone())
    });
    drop(engine);
    let key = format!("e2e-trace-{request}");
    let (stored, put_dataset) = recorder.time("store.put_dataset", 0, root, request, || {
        service.db.put_dataset(&key, fimi)
    });
    if let Err(error) = stored.and_then(|()| service.db.delete_dataset(&key)) {
        problems.push(format!("store: {error}"));
    }
    let mines = procedure2_mines(
        recorder,
        &dataset,
        &catalogue.responses[index],
        catalogue.requests[index].miner,
        root,
        request,
    );
    problems.extend(mines.problems);
    if let Some(root) = root {
        recorder.close(root);
    }
    LayerSample {
        round_trip,
        transport,
        decode,
        handle,
        encode,
        response_bytes: body.len() as f64,
        procedure2: recorder.total("core.procedure2", request),
        procedure1: recorder.total("core.procedure1", request),
        fimi_parse,
        view_build,
        put_dataset,
        profile_mine: mines.profile_s,
        family_mine: mines.family_s,
        problems,
    }
}
