//! A minimal, dependency-free stand-in for the slice of the Criterion API the
//! benches use (`benchmark_group`, `bench_function`, `bench_with_input`,
//! `iter`, `iter_batched`, throughput annotation).
//!
//! The container this reproduction builds in has no network access to
//! crates.io, so the benches run on this shim instead of the real Criterion:
//! each benchmark executes `sample_size` timed samples and prints the
//! min / mean / max wall-clock time (plus throughput when annotated).  The
//! statistical machinery of Criterion (outlier rejection, regression
//! analysis) is intentionally out of scope — these benches guard against
//! order-of-magnitude regressions, not single-digit-percent ones.
//!
//! In addition to the stderr report every run **appends machine-readable
//! results to `BENCH.json`** at the workspace root (override the path with
//! `TC_BENCH_JSON`), so the perf trajectory of the repository is tracked
//! across PRs.  Entries are keyed by `(bin, name)`: re-running a bench binary
//! replaces its own previous entries and leaves the other binaries' entries
//! in place.

use std::cell::RefCell;
use std::fmt::Display;
use std::hint::black_box;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// One benchmark result, as serialized into `BENCH.json`.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Bench binary this result came from (e.g. `pipeline`).
    pub bin: String,
    /// Full benchmark name, `group/id`.
    pub name: String,
    /// Mean sample wall-clock time in nanoseconds.
    pub mean_ns: u128,
    /// Fastest sample in nanoseconds.
    pub min_ns: u128,
    /// Slowest sample in nanoseconds.
    pub max_ns: u128,
    /// Number of timed samples.
    pub samples: usize,
    /// Logical CPUs visible to the bench process — records the hardware
    /// context a row was measured under, so scaling rows from a 1-CPU CI
    /// container are never mistaken for real multi-core speedups.
    pub cores: usize,
    /// Client streams driven (independent client runtimes injecting
    /// concurrently), when the group annotated it.  Distinct from `cores`:
    /// `threads` is workload shape, `cores` is hardware budget.
    pub threads: Option<usize>,
    /// Work-per-iteration annotation, if the group declared one.
    pub throughput: Option<Throughput>,
}

impl BenchRecord {
    /// Derived rate: bytes/s or elements/s from the mean time, when the
    /// benchmark was annotated with a [`Throughput`].
    pub fn per_second(&self) -> Option<f64> {
        let mean_s = self.mean_ns as f64 / 1e9;
        self.throughput.map(|t| match t {
            Throughput::Bytes(b) => b as f64 / mean_s,
            Throughput::Elements(n) => n as f64 / mean_s,
        })
    }

    fn to_json_line(&self) -> String {
        let mut extra = String::new();
        match self.throughput {
            Some(Throughput::Bytes(b)) => {
                extra = format!(
                    ",\"bytes_per_iter\":{b},\"bytes_per_sec\":{:.1}",
                    self.per_second().unwrap_or(0.0)
                );
            }
            Some(Throughput::Elements(n)) => {
                extra = format!(
                    ",\"elems_per_iter\":{n},\"elems_per_sec\":{:.1}",
                    self.per_second().unwrap_or(0.0)
                );
            }
            None => {}
        }
        if let Some(threads) = self.threads {
            extra.push_str(&format!(",\"threads\":{threads}"));
        }
        format!(
            "{{\"bin\":{},\"name\":{},\"mean_ns\":{},\"min_ns\":{},\"max_ns\":{},\"samples\":{},\"cores\":{}{extra}}}",
            json_string(&self.bin),
            json_string(&self.name),
            self.mean_ns,
            self.min_ns,
            self.max_ns,
            self.samples,
            self.cores,
        )
    }
}

/// Minimal JSON string escaping (names are ASCII identifiers in practice).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Resolve where `BENCH.json` lives: `TC_BENCH_JSON` wins; otherwise walk up
/// from the crate manifest dir to the workspace root (the directory holding
/// `Cargo.lock`), falling back to the current directory.
pub fn bench_json_path() -> PathBuf {
    if let Ok(p) = std::env::var("TC_BENCH_JSON") {
        return PathBuf::from(p);
    }
    let start = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|_| std::env::current_dir())
        .unwrap_or_else(|_| PathBuf::from("."));
    let mut dir = start.as_path();
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir.join("BENCH.json");
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => return PathBuf::from("BENCH.json"),
        }
    }
}

/// Logical CPUs visible to this process (what the OS would schedule onto).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Name of the running bench binary with cargo's trailing `-<hash>` stripped.
fn bin_name() -> String {
    let raw = std::env::args()
        .next()
        .map(|a| {
            PathBuf::from(a)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default()
        })
        .unwrap_or_default();
    // cargo bench executables are named e.g. `pipeline-0a1b2c3d4e5f6789`.
    match raw.rsplit_once('-') {
        Some((stem, hash)) if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) => {
            stem.to_string()
        }
        _ => raw,
    }
}

/// Merge `new` records into the JSON file.  The *first* write of a bench
/// process drops every existing row of this binary (so renamed or deleted
/// benchmarks leave no stale entries); subsequent writes from the same
/// process (one per `criterion_group!`) merge by `(bin, name)`.  Rows from
/// other bench binaries are always preserved.  The file is line-oriented
/// (one entry object per line) precisely so this merge needs no JSON
/// parser.
fn write_bench_json(new: &[BenchRecord]) {
    use std::sync::atomic::{AtomicBool, Ordering};
    static PURGED_OWN_ROWS: AtomicBool = AtomicBool::new(false);
    if new.is_empty() {
        return;
    }
    let first_write = !PURGED_OWN_ROWS.swap(true, Ordering::SeqCst);
    let own_bin_prefix = format!("{{\"bin\":{},", json_string(&bin_name()));
    let path = bench_json_path();
    let mut kept: Vec<String> = Vec::new();
    if let Ok(existing) = std::fs::read_to_string(&path) {
        for line in existing.lines() {
            let entry = line.trim().trim_end_matches(',');
            if !entry.starts_with("{\"bin\":") {
                continue;
            }
            if first_write && entry.starts_with(&own_bin_prefix) {
                continue;
            }
            let replaced = new.iter().any(|r| {
                entry.contains(&format!(
                    "\"bin\":{},\"name\":{}",
                    json_string(&r.bin),
                    json_string(&r.name)
                ))
            });
            if !replaced {
                kept.push(entry.to_string());
            }
        }
    }
    kept.extend(new.iter().map(BenchRecord::to_json_line));
    let mut out = String::from("{\n\"schema\":1,\n\"benches\":[\n");
    for (i, line) in kept.iter().enumerate() {
        out.push_str(line);
        if i + 1 < kept.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n}\n");
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

type Results = Rc<RefCell<Vec<BenchRecord>>>;

/// Top-level benchmark driver, handed to every `criterion_group!` target.
/// Writes collected results to `BENCH.json` when dropped.
#[derive(Debug, Default)]
pub struct Criterion {
    results: Results,
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        let name = name.into();
        eprintln!("\n== {name} ==");
        BenchmarkGroup {
            name,
            sample_size: default_sample_size(),
            throughput: None,
            threads: None,
            results: Rc::clone(&self.results),
        }
    }
}

impl Drop for Criterion {
    fn drop(&mut self) {
        write_bench_json(&self.results.borrow());
    }
}

fn default_sample_size() -> usize {
    std::env::var("TC_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10)
}

/// Work-per-iteration annotation used to derive rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical elements processed per iteration.
    Elements(u64),
}

/// How `iter_batched` amortises setup (accepted for API compatibility; the
/// shim always times routine-only, excluding setup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// A fresh batch every iteration.
    PerIteration,
}

/// Identifier of one parameterised benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    full: String,
}

impl BenchmarkId {
    /// `name/parameter`, mirroring Criterion's display form.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            full: format!("{}/{}", name.into(), parameter),
        }
    }
}

/// A group of benchmarks sharing a name prefix and sample settings.
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    threads: Option<usize>,
    results: Results,
}

impl BenchmarkGroup {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        if std::env::var("TC_BENCH_SAMPLES").is_err() {
            self.sample_size = n.max(1);
        }
        self
    }

    /// Annotate the work performed by one iteration.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Annotate how many client streams the following benchmarks drive
    /// (shim extension, not part of the Criterion API).  Recorded as the
    /// `threads` field of each row until changed or reset with `None`.
    pub fn threads(&mut self, threads: impl Into<Option<usize>>) -> &mut Self {
        self.threads = threads.into();
        self
    }

    /// Run one benchmark.
    pub fn bench_function(
        &mut self,
        id: impl Into<String>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let mut bencher = Bencher {
            samples: Vec::with_capacity(self.sample_size),
            sample_size: self.sample_size,
        };
        f(&mut bencher);
        self.report(&id.into(), &bencher.samples);
        self
    }

    /// Run one benchmark parameterised by `input`.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let mut bencher = Bencher {
            samples: Vec::with_capacity(self.sample_size),
            sample_size: self.sample_size,
        };
        f(&mut bencher, input);
        self.report(&id.full, &bencher.samples);
        self
    }

    /// Close the group (accepted for API compatibility).
    pub fn finish(&mut self) {}

    fn report(&self, id: &str, samples: &[Duration]) {
        if samples.is_empty() {
            eprintln!("{}/{id}: no samples", self.name);
            return;
        }
        let total: Duration = samples.iter().sum();
        let mean = total / samples.len() as u32;
        let min = samples.iter().min().copied().unwrap_or_default();
        let max = samples.iter().max().copied().unwrap_or_default();
        self.results.borrow_mut().push(BenchRecord {
            bin: bin_name(),
            name: format!("{}/{id}", self.name),
            mean_ns: mean.as_nanos(),
            min_ns: min.as_nanos(),
            max_ns: max.as_nanos(),
            samples: samples.len(),
            cores: host_cores(),
            threads: self.threads,
            throughput: self.throughput,
        });
        let rate = self.throughput.map(|t| match t {
            Throughput::Bytes(b) => {
                format!(
                    "  {:.1} MiB/s",
                    b as f64 / mean.as_secs_f64() / (1024.0 * 1024.0)
                )
            }
            Throughput::Elements(n) => {
                format!("  {:.0} elem/s", n as f64 / mean.as_secs_f64())
            }
        });
        eprintln!(
            "{}/{id}: mean {mean:?}  min {min:?}  max {max:?}  ({} samples){}",
            self.name,
            samples.len(),
            rate.unwrap_or_default()
        );
    }
}

/// Collects timed samples for one benchmark.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Time `sample_size` executions of `routine`.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        for _ in 0..self.sample_size {
            let start = Instant::now();
            black_box(routine());
            self.samples.push(start.elapsed());
        }
    }

    /// Time `sample_size` executions of `routine`, excluding `setup` from the
    /// measurement.
    pub fn iter_batched<S, O>(
        &mut self,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> O,
        _size: BatchSize,
    ) {
        for _ in 0..self.sample_size {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.samples.push(start.elapsed());
        }
    }
}

/// Define a function running a list of benchmark targets, mirroring
/// Criterion's macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::crit::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Define `main` for a `harness = false` bench binary, mirroring Criterion's
/// macro of the same name.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
