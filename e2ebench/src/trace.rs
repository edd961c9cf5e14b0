//! Outside-in tracing: spans recorded by the benchmark around its calls into
//! the workspace crates, plus the process-level probes (peak RSS) and the
//! small statistics the report needs.
//!
//! Spans stay in memory while a run executes and are written out once, at
//! exit, so recording costs a lock and a `Vec` push per span.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use sigfim_core::engine::{AnalysisStage, ProgressObserver};
use sigfim_mining::DispatchCounts;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// The itemset size the span belongs to (0 when it covers no single k).
    pub k: usize,
    /// Seconds since the recorder's epoch.
    pub start: f64,
    /// Seconds since the recorder's epoch; `None` while the span is open.
    pub end: Option<f64>,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request (one analysis, one HTTP operation) share this id.
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end.map_or(0.0, |end| end - self.start)
    }
}

/// An in-memory span recorder shared by every thread of a run.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("no span holder panics")
    }

    /// Open a span now; close it with [`Recorder::close`].
    pub fn open(&self, name: &str, k: usize, parent: Option<usize>, request: u64) -> usize {
        let start = self.epoch.elapsed().as_secs_f64();
        let mut spans = self.lock();
        spans.push(Span {
            name: name.to_string(),
            k,
            start,
            end: None,
            parent,
            request,
        });
        spans.len() - 1
    }

    /// Seconds since the recorder's epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Record an already finished span.
    pub fn record(
        &self,
        name: &str,
        k: usize,
        start: f64,
        end: f64,
        parent: Option<usize>,
        request: u64,
    ) {
        self.lock().push(Span {
            name: name.to_string(),
            k,
            start,
            end: Some(end),
            parent,
            request,
        });
    }

    pub fn close(&self, id: usize) -> f64 {
        let end = self.epoch.elapsed().as_secs_f64();
        let mut spans = self.lock();
        spans[id].end = Some(end);
        spans[id].duration()
    }

    /// Run `f` inside a span and return its result and the span's duration.
    pub fn time<T>(
        &self,
        name: &str,
        k: usize,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, k, parent, request);
        let value = f();
        (value, self.close(id))
    }

    /// Summed duration of every closed span called `name` in `request`.
    pub fn total(&self, name: &str, request: u64) -> f64 {
        self.lock()
            .iter()
            .filter(|span| span.name == name && span.request == request)
            .map(Span::duration)
            .fold(0.0, |total, duration| total + duration)
    }

    /// The share of span `id` covered by its direct children (overlaps
    /// counted once).
    pub fn child_coverage(&self, id: usize) -> f64 {
        let spans = self.lock();
        let parent = &spans[id];
        let mut children: Vec<(f64, f64)> = spans
            .iter()
            .filter(|span| span.parent == Some(id))
            .filter_map(|span| span.end.map(|end| (span.start, end)))
            .collect();
        children.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = parent.start;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        let total = parent.duration();
        if total > 0.0 {
            covered / total
        } else {
            0.0
        }
    }

    /// Write every span as one JSON document.
    pub fn write_json(&self, path: &Path, header: &[(&str, String)]) -> std::io::Result<()> {
        let spans = self.lock();
        let mut out = String::from("{");
        for (key, value) in header {
            let _ = write!(out, "\"{key}\":\"{}\",", escape(value));
        }
        out.push_str("\"spans\":[");
        for (index, span) in spans.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{index},\"name\":\"{}\",\"k\":{},\"start_s\":{},\"end_s\":{},\"parent\":{},\"request\":{}}}",
                escape(&span.name),
                span.k,
                span.start,
                span.end.map_or("null".to_string(), |end| end.to_string()),
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.request,
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

/// A [`ProgressObserver`] that turns the engine's stage events into spans
/// named `core.threshold`, `core.procedure2` and `core.procedure1`, and reads
/// the peak RSS when an Algorithm 1 stage completes.
///
/// On a sequential engine it can also span each replicate
/// (`core.replicate`): replicates then run back to back, so replicate `i`
/// lasts from the previous replicate event (or the stage start) to its own
/// completion event. The first replicate of a restart round is not spanned,
/// because the previous round's pooling precedes it.
pub struct StageSpans<'a> {
    recorder: &'a Recorder,
    parent: Option<usize>,
    request: u64,
    open: Mutex<HashMap<(usize, &'static str), usize>>,
    threshold_peak_mb: Mutex<f64>,
    /// Per k: the time of the last stage-start or replicate event, when
    /// replicate spans are recorded.
    replicate_marks: Option<Mutex<HashMap<usize, (f64, bool)>>>,
}

impl<'a> StageSpans<'a> {
    pub fn new(recorder: &'a Recorder, parent: Option<usize>, request: u64) -> Self {
        StageSpans {
            recorder,
            parent,
            request,
            open: Mutex::new(HashMap::new()),
            threshold_peak_mb: Mutex::new(0.0),
            replicate_marks: None,
        }
    }

    /// Also record a `core.replicate` span per replicate (sequential engines
    /// only).
    pub fn with_replicate_spans(mut self) -> Self {
        self.replicate_marks = Some(Mutex::new(HashMap::new()));
        self
    }

    /// The largest VmHWM read at the end of an Algorithm 1 stage.
    pub fn threshold_peak_mb(&self) -> f64 {
        *self.threshold_peak_mb.lock().expect("no holder panics")
    }
}

/// The span name of an engine stage.
pub fn stage_span(stage: AnalysisStage) -> &'static str {
    match stage {
        AnalysisStage::Threshold => "core.threshold",
        AnalysisStage::Procedure2 => "core.procedure2",
        AnalysisStage::Procedure1 => "core.procedure1",
    }
}

impl ProgressObserver for StageSpans<'_> {
    fn stage_started(&self, k: usize, stage: AnalysisStage) {
        let name = stage_span(stage);
        let id = self.recorder.open(name, k, self.parent, self.request);
        self.open
            .lock()
            .expect("no holder panics")
            .insert((k, name), id);
        if let (Some(marks), AnalysisStage::Threshold) = (&self.replicate_marks, stage) {
            let now = self.recorder.now();
            marks
                .lock()
                .expect("no holder panics")
                .insert(k, (now, false));
        }
    }

    fn replicate_completed(&self, k: usize, completed: usize, total: usize) {
        let Some(marks) = &self.replicate_marks else {
            return;
        };
        let now = self.recorder.now();
        let mut marks = marks.lock().expect("no holder panics");
        let (last, restarted) = marks.get(&k).copied().unwrap_or((now, false));
        if completed > 1 || !restarted {
            self.recorder
                .record("core.replicate", k, last, now, self.parent, self.request);
        }
        marks.insert(k, (now, restarted || completed == total));
    }

    fn stage_completed(&self, k: usize, stage: AnalysisStage) {
        let name = stage_span(stage);
        let id = self
            .open
            .lock()
            .expect("no holder panics")
            .remove(&(k, name));
        if let Some(id) = id {
            self.recorder.close(id);
        }
        if stage == AnalysisStage::Threshold {
            if let Some(peak) = peak_rss_mb() {
                let mut max = self.threshold_peak_mb.lock().expect("no holder panics");
                *max = max.max(peak);
            }
        }
    }
}

extern "C" {
    /// glibc: return the free memory of every malloc arena to the kernel.
    fn malloc_trim(pad: usize) -> std::ffi::c_int;
}

/// Reset the kernel's peak-RSS mark (VmHWM) of this process; `false` when
/// the kernel refuses.
///
/// Free heap memory is handed back to the kernel first. Otherwise what the
/// set-up and earlier operations left in the allocator's free lists stays
/// resident, and how much of it does depends on thread timing, so the peak
/// of the same analysis varied by ±10 MB between processes.
pub fn reset_peak_rss() -> bool {
    // SAFETY: `malloc_trim` takes no pointers and only releases memory the
    // allocator holds as free; it is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// This process's peak resident set (VmHWM) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation between
/// order statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `part / whole`, or 0 when nothing happened.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The mining passes between two `dispatch_counts()` snapshots.
pub fn dispatch_delta(before: DispatchCounts, after: DispatchCounts) -> DispatchCounts {
    DispatchCounts {
        apriori: after.apriori - before.apriori,
        eclat: after.eclat - before.eclat,
        fp_growth: after.fp_growth - before.fp_growth,
        brute_force: after.brute_force - before.brute_force,
        eclat_bitmap: after.eclat_bitmap - before.eclat_bitmap,
        sharded: after.sharded - before.sharded,
        par_eclat: after.par_eclat - before.par_eclat,
        par_eclat_sharded: after.par_eclat_sharded - before.par_eclat_sharded,
    }
}

/// Write the spans of a traced run under `.bench_trace/`.
pub fn write_trace(recorder: &Recorder, workload: &str, seed: u64, notes: &[String]) {
    let path = std::path::PathBuf::from(".bench_trace").join(format!("{workload}-seed{seed}.json"));
    let header = [
        ("workload", workload.to_string()),
        ("seed", seed.to_string()),
        ("config", notes.join("; ")),
    ];
    if let Err(error) = recorder.write_json(&path, &header) {
        eprintln!("e2ebench: could not write {}: {error}", path.display());
    }
}
