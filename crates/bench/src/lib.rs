//! # sigfim-bench
//!
//! The experiment harness of the `sigfim` workspace: one binary per table of the
//! paper's evaluation (Section 4) plus the Criterion micro/macro benchmarks.
//!
//! | target | reproduces |
//! |--------|------------|
//! | `cargo run -p sigfim-bench --release --bin table1` | Table 1 — benchmark dataset parameters |
//! | `cargo run -p sigfim-bench --release --bin table2` | Table 2 — `ŝ_min` on random datasets (Algorithm 1) |
//! | `cargo run -p sigfim-bench --release --bin table3` | Table 3 — Procedure 2: `s*`, `Q_{k,s*}`, `λ(s*)` |
//! | `cargo run -p sigfim-bench --release --bin table4` | Table 4 — robustness on random instances |
//! | `cargo run -p sigfim-bench --release --bin table5` | Table 5 — Procedure 1 vs Procedure 2 |
//! | `cargo bench --workspace` | performance characterization (not in the paper) |
//!
//! The original FIMI files are not available offline, so the binaries run on the
//! synthetic stand-ins of [`sigfim_datasets::benchmarks`] (see DESIGN.md §4 for the
//! substitution argument). All binaries accept:
//!
//! * `--full` — run at full Table-1 scale with the paper's Δ = 1000 replicates and
//!   100 robustness instances (slow; the default is a reduced configuration that
//!   preserves the qualitative shape),
//! * `--scale <x>` — override the per-dataset down-scaling factor,
//! * `--replicates <n>` — override the number of Monte-Carlo replicates Δ,
//! * `--instances <n>` — override the number of robustness instances (table4),
//! * `--datasets <a,b,…>` — restrict to a subset of the six benchmarks
//!   (case-insensitive; `pumsb` names `Pumsb*`),
//! * `--backend <auto|csr|bitmap|sharded>` — force the physical dataset
//!   representation (results are identical either way; only the speed changes),
//! * `--k <list>` — restrict the itemset sizes (default `2,3,4`).
//!
//! A bad argument prints the error and the valid flags and exits with status 2.

use sigfim_datasets::benchmarks::BenchmarkDataset;
use sigfim_datasets::bitmap::DatasetBackend;

/// Configuration shared by the table binaries, parsed from the command line.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Run at the paper's full scale (Δ = 1000, 100 instances, scale 1).
    pub full: bool,
    /// Override of the per-dataset scale factor.
    pub scale_override: Option<f64>,
    /// Override of the Monte-Carlo replicate count Δ.
    pub replicates_override: Option<usize>,
    /// Override of the number of robustness instances (Table 4).
    pub instances_override: Option<usize>,
    /// Restriction of the benchmark set (empty = all six).
    pub datasets: Vec<BenchmarkDataset>,
    /// The itemset sizes to evaluate.
    pub ks: Vec<usize>,
    /// Base random seed.
    pub seed: u64,
    /// Physical dataset backend for the pipeline ({auto, csr, bitmap}).
    pub backend: DatasetBackend,
    /// Run the Section 4.1 closed-itemset analysis where applicable (table3).
    pub closed_analysis: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            full: false,
            scale_override: None,
            replicates_override: None,
            instances_override: None,
            datasets: Vec::new(),
            ks: vec![2, 3, 4],
            seed: 0xF1A1,
            backend: DatasetBackend::Auto,
            closed_analysis: false,
        }
    }
}

/// The flags every table binary accepts, printed after an argument error.
pub const USAGE: &str = "valid flags: --full --scale <x> --replicates <n> --instances <n> \
                         --seed <n> --k <list> --datasets <list> \
                         --backend <auto|csr|bitmap|sharded> --closed-analysis";

impl ExperimentConfig {
    /// Parse a configuration from an iterator of command-line arguments (without the
    /// program name).
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the offending argument for an
    /// unknown flag, a missing or malformed value, or an unknown dataset.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut config = ExperimentConfig::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--full" => config.full = true,
                "--closed-analysis" => config.closed_analysis = true,
                "--scale" => config.scale_override = Some(parse_value(&mut iter, "--scale")?),
                "--replicates" => {
                    config.replicates_override = Some(parse_value(&mut iter, "--replicates")?);
                }
                "--instances" => {
                    config.instances_override = Some(parse_value(&mut iter, "--instances")?);
                }
                "--seed" => config.seed = parse_value(&mut iter, "--seed")?,
                "--k" => {
                    config.ks = expect_value(&mut iter, "--k")?
                        .split(',')
                        .map(|k| {
                            k.trim()
                                .parse()
                                .map_err(|_| format!("--k expects integers, got `{k}`"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "--backend" => config.backend = parse_value(&mut iter, "--backend")?,
                "--datasets" => {
                    config.datasets = expect_value(&mut iter, "--datasets")?
                        .split(',')
                        .map(|name| parse_dataset(name.trim()))
                        .collect::<Result<_, _>>()?;
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(config)
    }

    /// Parse from the process arguments; on a bad argument print the error
    /// and [`USAGE`] to stderr and exit with status 2.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|error| {
            eprintln!("error: {error}\n{USAGE}");
            std::process::exit(2)
        })
    }

    /// The benchmarks this run covers.
    pub fn benchmarks(&self) -> Vec<BenchmarkDataset> {
        if self.datasets.is_empty() {
            BenchmarkDataset::ALL.to_vec()
        } else {
            self.datasets.clone()
        }
    }

    /// The down-scaling factor applied to a benchmark's transaction count.
    pub fn scale_for(&self, bench: BenchmarkDataset) -> f64 {
        if let Some(scale) = self.scale_override {
            return scale;
        }
        if self.full {
            return 1.0;
        }
        default_scale(bench)
    }

    /// The number of Monte-Carlo replicates Δ for Algorithm 1.
    pub fn replicates(&self) -> usize {
        if let Some(r) = self.replicates_override {
            return r;
        }
        if self.full {
            1_000 // the paper's Δ
        } else {
            32
        }
    }

    /// The number of random instances per configuration for the robustness study.
    pub fn instances(&self) -> usize {
        if let Some(i) = self.instances_override {
            return i;
        }
        if self.full {
            100 // the paper's count
        } else {
            10
        }
    }
}

fn expect_value<I: Iterator<Item = String>>(iter: &mut I, flag: &str) -> Result<String, String> {
    iter.next()
        .ok_or_else(|| format!("flag {flag} requires a value"))
}

fn parse_value<T, I>(iter: &mut I, flag: &str) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
    I: Iterator<Item = String>,
{
    let value = expect_value(iter, flag)?;
    value
        .parse()
        .map_err(|error| format!("{flag} `{value}`: {error}"))
}

/// A benchmark by its [`BenchmarkDataset::name`], case-insensitively; the
/// `*` of `Pumsb*` may be left off, since shells glob it.
fn parse_dataset(name: &str) -> Result<BenchmarkDataset, String> {
    BenchmarkDataset::ALL
        .into_iter()
        .find(|b| {
            b.name().eq_ignore_ascii_case(name)
                || b.name().trim_end_matches('*').eq_ignore_ascii_case(name)
        })
        .ok_or_else(|| {
            format!(
                "unknown dataset `{name}`; valid names: {}",
                BenchmarkDataset::ALL.map(|b| b.name()).join(", ")
            )
        })
}

/// The default down-scaling factor per benchmark, chosen so that every table binary
/// completes in minutes on a laptop while keeping thousands of transactions per
/// dataset (supports, and therefore every statistic the procedures consume, scale
/// linearly with `t`).
pub fn default_scale(bench: BenchmarkDataset) -> f64 {
    match bench {
        BenchmarkDataset::Retail => 16.0,
        BenchmarkDataset::Kosarak => 64.0,
        BenchmarkDataset::Bms1 => 8.0,
        BenchmarkDataset::Bms2 => 8.0,
        BenchmarkDataset::Bmspos => 32.0,
        BenchmarkDataset::PumsbStar => 8.0,
    }
}

/// Format an `Option<u64>` threshold the way the paper's tables do (`∞` for "no
/// threshold found").
pub fn format_threshold(s_star: Option<u64>) -> String {
    match s_star {
        Some(s) => s.to_string(),
        None => "inf".to_string(),
    }
}

/// Render a separator line matching a header width.
pub fn rule(width: usize) -> String {
    "-".repeat(width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config() {
        let config = ExperimentConfig::default();
        assert!(!config.full);
        assert_eq!(config.ks, vec![2, 3, 4]);
        assert_eq!(config.benchmarks().len(), 6);
        assert_eq!(config.replicates(), 32);
        assert_eq!(config.instances(), 10);
        assert!(
            config.scale_for(BenchmarkDataset::Kosarak) > config.scale_for(BenchmarkDataset::Bms1)
        );
    }

    #[test]
    fn full_mode_uses_paper_parameters() {
        let config = ExperimentConfig::parse(vec!["--full".to_string()]).unwrap();
        assert!(config.full);
        assert_eq!(config.replicates(), 1_000);
        assert_eq!(config.instances(), 100);
        for bench in BenchmarkDataset::ALL {
            assert_eq!(config.scale_for(bench), 1.0);
        }
    }

    #[test]
    fn overrides_win() {
        let config = ExperimentConfig::parse(
            [
                "--scale",
                "4",
                "--replicates",
                "7",
                "--instances",
                "3",
                "--seed",
                "9",
                "--k",
                "2,4",
            ]
            .map(str::to_string),
        )
        .unwrap();
        assert_eq!(config.scale_for(BenchmarkDataset::Retail), 4.0);
        assert_eq!(config.replicates(), 7);
        assert_eq!(config.instances(), 3);
        assert_eq!(config.seed, 9);
        assert_eq!(config.ks, vec![2, 4]);
    }

    #[test]
    fn dataset_filter() {
        let config =
            ExperimentConfig::parse(["--datasets", "bms1,Pumsb*"].map(str::to_string)).unwrap();
        assert_eq!(
            config.benchmarks(),
            vec![BenchmarkDataset::Bms1, BenchmarkDataset::PumsbStar]
        );
        // `pumsb` names Pumsb* without a shell-globbed `*`.
        let alias = ExperimentConfig::parse(["--datasets", "pumsb"].map(str::to_string)).unwrap();
        assert_eq!(alias.benchmarks(), vec![BenchmarkDataset::PumsbStar]);
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let error = ExperimentConfig::parse(vec!["--bogus".to_string()]).unwrap_err();
        assert_eq!(error, "unknown argument `--bogus`");
    }

    #[test]
    fn unknown_dataset_is_an_error() {
        let error =
            ExperimentConfig::parse(["--datasets", "nope"].map(str::to_string)).unwrap_err();
        assert!(error.starts_with("unknown dataset `nope`"), "{error}");
        assert!(error.contains("Pumsb*"), "{error}");
    }

    #[test]
    fn malformed_values_are_errors() {
        let error =
            ExperimentConfig::parse(["--replicates", "many"].map(str::to_string)).unwrap_err();
        assert!(error.starts_with("--replicates `many`"), "{error}");
        let error = ExperimentConfig::parse(["--k", "2,x"].map(str::to_string)).unwrap_err();
        assert!(error.contains("`x`"), "{error}");
        let error = ExperimentConfig::parse(["--backend", "gpu"].map(str::to_string)).unwrap_err();
        assert!(error.contains("unknown backend `gpu`"), "{error}");
        let error = ExperimentConfig::parse(vec!["--seed".to_string()]).unwrap_err();
        assert_eq!(error, "flag --seed requires a value");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(format_threshold(Some(42)), "42");
        assert_eq!(format_threshold(None), "inf");
        assert_eq!(rule(3), "---");
    }
}
