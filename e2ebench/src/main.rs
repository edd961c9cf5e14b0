//! End-to-end benchmark of the `sigfim` workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <table3-sparse|table3-dense|serve-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process, through the public
//! API of the workspace crates, and checks every output it measures. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it makes a
//! separate traced pass, with spans recorded around the calls into each
//! layer, and reports the per-layer metrics (see `e2ebench/WORKLOADS.md`).
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! The lines before it repeat every metric with its sample count and record
//! the resolved kernel, sampler, backend and worker count. A failed or wrong
//! output makes the command exit with code 1 after printing the result.

mod serve;
mod table3;
mod trace;

use std::fmt::Write as _;

use sigfim_core::engine::AnalysisResponse;

/// The seed whose outputs are pinned in the output gate.
pub const DEFAULT_SEED: u64 = 1;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarizes.
    pub samples: usize,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// `key=value` notes printed before the result (resolved configuration,
    /// secondary figures).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Record an output check: counts one attempt, and one failure (with the
    /// reason on standard error) when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("e2ebench: check failed: {}", what());
        }
    }

    /// The spans of a traced run should account for at least 95% of its
    /// wall time, or the layer split misses a layer. A shortfall is a gap in
    /// the measurement, not a wrong output, so it is flagged, not failed.
    pub fn note_coverage(&mut self, coverage: f64) {
        if coverage < 0.95 {
            eprintln!("e2ebench: trace coverage {coverage:.3} is below 0.95");
            self.notes.push(format!(
                "warning: trace.coverage {coverage:.3} is below 0.95"
            ));
        }
    }

    /// A gate failure outside the operation count (e.g. a phase-level
    /// invariant): counts as a failed attempt.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.check(false, what);
    }
}

/// The outputs of one k pinned at the default seed.
pub struct Pin {
    pub k: usize,
    pub s_min: u64,
    pub s_star: Option<u64>,
    /// `Q_{k,s*}`, the size of the significant family.
    pub q: usize,
    pub pool_size: usize,
}

/// Where `response` disagrees with the pinned outputs.
pub fn pin_problems(pins: &[Pin], response: &AnalysisResponse) -> Vec<String> {
    let mut problems = Vec::new();
    for pin in pins {
        let Some(report) = response.report_for(pin.k) else {
            problems.push(format!("k = {} is missing", pin.k));
            continue;
        };
        let got = (
            report.threshold.s_min,
            report.procedure2.s_star,
            report.procedure2.num_significant(),
            report.threshold.pool_size,
        );
        if got != (pin.s_min, pin.s_star, pin.q, pin.pool_size) {
            problems.push(format!(
                "k = {}: (s_min, s*, Q, pool) = {got:?}, pinned ({}, {:?}, {}, {})",
                pin.k, pin.s_min, pin.s_star, pin.q, pin.pool_size
            ));
        }
    }
    problems
}

/// The per-layer figures of one traced run. Every workload reports every
/// field; a layer the workload bypasses reports 0.
#[derive(Default)]
pub struct Layers {
    pub sample_s: f64,
    pub fimi_parse_ms: f64,
    pub view_build_ms: f64,
    pub replicate_mine_s: f64,
    pub itemsets_at_floor: u64,
    pub profile_mine_ms: f64,
    pub family_mine_ms: f64,
    pub dispatch: sigfim_mining::DispatchCounts,
    pub alg1_speedup: f64,
    pub alg1_s: f64,
    pub pool_curve_s: f64,
    pub alg1_rss_mb: f64,
    pub replicates: u64,
    pub pool_size: u64,
    pub kept_ratio: f64,
    pub procedure2_ms: f64,
    pub procedure1_ms: f64,
    pub threshold_hit_ratio: f64,
    pub profile_hit_ratio: f64,
    pub handle_ms: f64,
    pub transport_ms: f64,
    pub decode_ms: f64,
    pub encode_ms: f64,
    pub response_bytes: u64,
    pub read_ms_p90: f64,
    pub write_ms_p50: f64,
    pub put_dataset_ms: f64,
    pub live_bytes: u64,
    pub dead_bytes: u64,
    pub compactions: u64,
    pub coverage: f64,
    pub overhead_ms: f64,
    /// Whether the single-thread replay reproduced the engine's pool sizes
    /// and replicate count; when it did not, the replay-derived figures are
    /// reported as -1 (invalid).
    pub replay_exact: bool,
}

impl Layers {
    /// Append every per-layer metric to `outcome`.
    pub fn report(&self, outcome: &mut Outcome) {
        let replay = |value: f64| if self.replay_exact { value } else { -1.0 };
        let d = &self.dispatch;
        let rows: [(&'static str, f64, &'static str); 40] = [
            ("datasets.sample_s", replay(self.sample_s), "s"),
            ("datasets.fimi_parse_ms", self.fimi_parse_ms, "ms"),
            ("datasets.view_build_ms", self.view_build_ms, "ms"),
            (
                "mining.replicate_mine_s",
                replay(self.replicate_mine_s),
                "s",
            ),
            (
                "mining.itemsets_at_floor",
                replay(self.itemsets_at_floor as f64),
                "count",
            ),
            ("mining.profile_mine_ms", self.profile_mine_ms, "ms"),
            ("mining.family_mine_ms", self.family_mine_ms, "ms"),
            ("mining.dispatch.apriori", d.apriori as f64, "count"),
            ("mining.dispatch.eclat", d.eclat as f64, "count"),
            ("mining.dispatch.fp_growth", d.fp_growth as f64, "count"),
            ("mining.dispatch.brute_force", d.brute_force as f64, "count"),
            (
                "mining.dispatch.eclat_bitmap",
                d.eclat_bitmap as f64,
                "count",
            ),
            ("mining.dispatch.sharded", d.sharded as f64, "count"),
            ("mining.dispatch.par_eclat", d.par_eclat as f64, "count"),
            (
                "mining.dispatch.par_eclat_sharded",
                d.par_eclat_sharded as f64,
                "count",
            ),
            ("exec.alg1_speedup", self.alg1_speedup, "x"),
            ("core.alg1_s", self.alg1_s, "s"),
            ("core.alg1.pool_curve_s", self.pool_curve_s, "s"),
            ("core.alg1.rss_mb", self.alg1_rss_mb, "MB"),
            ("core.alg1.replicates", self.replicates as f64, "count"),
            ("core.alg1.pool_size", self.pool_size as f64, "count"),
            ("core.alg1.kept_ratio", replay(self.kept_ratio), "ratio"),
            ("core.procedure2_ms", self.procedure2_ms, "ms"),
            ("core.procedure1_ms", self.procedure1_ms, "ms"),
            (
                "core.threshold_cache.hit_ratio",
                self.threshold_hit_ratio,
                "ratio",
            ),
            (
                "core.profile_cache.hit_ratio",
                self.profile_hit_ratio,
                "ratio",
            ),
            ("service.handle_ms", self.handle_ms, "ms"),
            ("service.transport_ms", self.transport_ms, "ms"),
            ("service.decode_ms", self.decode_ms, "ms"),
            ("service.encode_ms", self.encode_ms, "ms"),
            (
                "service.response_bytes",
                self.response_bytes as f64,
                "bytes",
            ),
            ("service.read_ms_p90", self.read_ms_p90, "ms"),
            ("service.write_ms_p50", self.write_ms_p50, "ms"),
            ("store.put_dataset_ms", self.put_dataset_ms, "ms"),
            ("store.live_bytes", self.live_bytes as f64, "bytes"),
            ("store.dead_bytes", self.dead_bytes as f64, "bytes"),
            ("store.compactions", self.compactions as f64, "count"),
            ("trace.coverage", self.coverage, "ratio"),
            ("trace.overhead_ms", self.overhead_ms, "ms"),
            (
                "trace.replay_exact",
                f64::from(u8::from(self.replay_exact)),
                "flag",
            ),
        ];
        for (name, value, unit) in rows {
            outcome.metric(name, value, unit, 1);
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 30.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Remove inherited `SIGFIM_*` overrides before any workspace code reads
/// them, so the program runs its own defaults; returns the removed names.
fn clear_sigfim_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .filter(|name| name.starts_with("SIGFIM_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

fn main() {
    let cleared = clear_sigfim_env();
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("e2ebench: {error}");
            eprintln!(
                "usage: --workload <table3-sparse|table3-dense|serve-mixed> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "table3-sparse" => table3::run(&table3::SPARSE, &args),
        "table3-dense" => table3::run(&table3::DENSE, &args),
        "serve-mixed" => serve::run(&args),
        other => {
            eprintln!("e2ebench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    if !cleared.is_empty() {
        outcome
            .notes
            .insert(0, format!("cleared_env={}", cleared.join(",")));
    }

    for note in &outcome.notes {
        println!("# {note}");
    }
    for metric in &outcome.metrics {
        println!(
            "{:<34} {:>16.6} {:<6} n={}",
            metric.name, metric.value, metric.unit, metric.samples
        );
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let mut json = String::new();
    for (index, metric) in outcome.metrics.iter().enumerate() {
        if index > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            metric.name,
            finite(metric.value),
            metric.unit
        );
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        outcome.attempted, outcome.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

/// JSON has no NaN or infinity; a non-finite figure is a benchmark bug.
fn finite(value: f64) -> f64 {
    assert!(value.is_finite(), "non-finite metric value {value}");
    value
}
