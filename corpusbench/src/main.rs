//! Full-corpus benchmark of the DyDroid sweep.
//!
//! ```text
//! cargo run --release --offline --manifest-path corpusbench/Cargo.toml -- \
//!     --workload store-sweep|memory-sweep --seed N --seconds S --trace 0|1 [--scale F]
//! ```
//!
//! One process runs one workload over the seeded synthetic store corpus
//! (scale 1.0 = 58,739 apps unless `--scale` says otherwise). With
//! `--trace 0` it times only the public entry points — `generate`,
//! `Pipeline::new`, `Pipeline::run`, `Pipeline::run_resumable` — with
//! telemetry off, and prints the end-to-end metrics. With `--trace 1` it
//! drives the same corpus app by app through each layer's public
//! functions, timed from outside (see `traced.rs`), and prints the
//! per-layer metrics. Every metric goes to stderr with its unit; the
//! last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A failed correctness check exits 1.

mod traced;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dydroid::scheduler::virtual_makespan_us;
use dydroid::{Journal, MeasurementReport, Pipeline, PipelineConfig};
use dydroid_workload::{generate, CorpusSpec, SyntheticApp};

const USAGE: &str = "corpusbench --workload store-sweep|memory-sweep --seed N --seconds S \
--trace 0|1 [--scale F]";

/// Set-ups timed at least per end-to-end run; `setup_s` is their median. Host
/// speed drifts between processes, so several samples per run keep one
/// slow set-up from deciding the run's figure.
const SETUP_SAMPLES: usize = 4;

/// Rounds per end-to-end run at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 2;

/// Table renders timed per `memory-sweep` round for its `reopen_s`.
const TABLE_RENDERS: usize = 10;

/// The two workloads. Both sweep the whole corpus once per round; they
/// differ in which layers carry the wall time (see README.md).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Journaled `run_resumable` on every core (sharded multi-writer
    /// streams, work-stealing scheduler), then a reopen of the finished
    /// journal with a fresh pipeline.
    Store,
    /// Plain in-memory `run` on one worker: no journal, no scheduler
    /// contention, so static and AVM work carry it.
    Memory,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "store-sweep" => Some(Workload::Store),
            "memory-sweep" => Some(Workload::Memory),
            _ => None,
        }
    }

    /// Pipeline defaults (provenance, Table VIII re-runs and the
    /// checkpoint sync policy on) with telemetry off; only the worker
    /// count differs (`0` resolves to every available core).
    pub fn config(self) -> PipelineConfig {
        PipelineConfig {
            workers: match self {
                Workload::Store => 0,
                Workload::Memory => 1,
            },
            telemetry: false,
            ..PipelineConfig::default()
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = 1.0;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--scale" => {
                scale = value.parse::<f64>().map_err(|_| bad())?;
                if !(scale.is_finite() && scale > 0.0 && scale <= 1.0) {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

/// Named metrics in print order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// Correctness checks of one run; every failed check counts as one
/// failed operation.
#[derive(Default)]
pub struct Gate {
    failures: u64,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            eprintln!("corpusbench: CHECK FAILED: {}", what());
            self.failures += 1;
        }
    }
}

/// What a run hands back for the result line.
pub struct Outcome {
    /// Apps analysed, summed over every sweep of the run.
    pub attempted: u64,
    /// Records that ended in a harness failure, over the same sweeps.
    pub harness_failures: u64,
    pub metrics: Metrics,
}

/// Byte length and FNV-1a hash of a report's serialized measurement:
/// its records, Table VIII counts and per-file re-run outcomes, hashed
/// piece by piece so the benchmark never holds the whole JSON text (it
/// would add to the peak RSS being measured). Two reports of one corpus
/// compare equal only when they serialize identically.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Digest {
    len: usize,
    hash: u64,
}

impl Digest {
    pub fn of(report: &MeasurementReport) -> Self {
        let mut digest = Digest {
            len: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        };
        for record in report.records() {
            digest.feed(serde_json::to_string(record));
        }
        digest.feed(serde_json::to_string(report.env_counts()));
        digest.feed(serde_json::to_string(report.env_loads()));
        digest
    }

    fn feed(&mut self, json: Result<String, serde_json::Error>) {
        let json = json.expect("report serializes");
        // A newline after each piece keeps piece boundaries in the hash.
        for b in json.bytes().chain([b'\n']) {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self.len += json.len() + 1;
    }
}

/// Per-process directory for journals and ledgers, beside the benchmark
/// binary in the build tree; removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    fn create() -> std::io::Result<Self> {
        let exe = std::env::current_exe()?;
        let dir = exe
            .parent()
            .unwrap_or(Path::new("."))
            .join(format!("corpusbench-run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn journal(&self, name: &str) -> Journal {
        Journal::new(self.0.join(name))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if let Err(e) = std::fs::remove_dir_all(&self.0) {
            eprintln!("corpusbench: failed to remove {}: {e}", self.0.display());
        }
    }
}

pub fn corpus_spec(args: &Args) -> CorpusSpec {
    CorpusSpec {
        scale: args.scale,
        seed: args.seed,
    }
}

pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

pub fn harness_failures(report: &MeasurementReport) -> u64 {
    report
        .records()
        .iter()
        .filter(|r| r.harness_failure().is_some())
        .count() as u64
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// `generate` plus `Pipeline::new`, plus the journal reset on
/// `store-sweep`: the set-up a user pays before a sweep starts.
fn set_up(args: &Args, journal: &Journal, corpus: &mut Vec<SyntheticApp>) -> (Pipeline, Duration) {
    // One corpus in memory at a time, so peak RSS is one sweep's.
    drop(std::mem::take(corpus));
    let t = Instant::now();
    *corpus = generate(&corpus_spec(args));
    let pipeline = Pipeline::new(args.workload.config());
    if args.workload == Workload::Store {
        journal.reset().expect("reset the store journal");
    }
    (pipeline, t.elapsed())
}

/// The untraced run: rounds of set-up, sweep and reopen for `--seconds`
/// (at least [`MIN_ROUNDS`]), each round on a fresh pipeline so the
/// analysis cache starts cold as it does for users.
///
/// The host slows down in phases of several seconds that have nothing to
/// do with the program, and a slowdown only ever makes a round slower.
/// So `apps_per_s` and `reopen_s` are the run's fastest round: the
/// figure least disturbed by the host. Set-up time is the median.
fn run_e2e(args: &Args, scratch: &Scratch, gate: &mut Gate) -> Outcome {
    let journal = scratch.journal("store.jsonl");
    let mut corpus = Vec::new();
    let mut setups = Vec::new();
    let mut sweeps = Vec::new();
    let mut reopens = Vec::new();
    let mut makespans = Vec::new();
    let mut reference: Option<Digest> = None;
    let mut attempted = 0u64;
    let mut harness = 0u64;
    let mut peak_rss = None;
    let start = Instant::now();
    let mut longest_round = Duration::ZERO;
    while sweeps.len() < MIN_ROUNDS
        || (start.elapsed() + longest_round).as_secs_f64() <= args.seconds
    {
        let round = Instant::now();
        let (pipeline, setup) = set_up(args, &journal, &mut corpus);
        setups.push(setup.as_secs_f64());
        let apps = corpus.len();

        let t = Instant::now();
        let report = match args.workload {
            Workload::Store => pipeline
                .run_resumable(&corpus, &journal)
                .expect("journaled sweep"),
            Workload::Memory => pipeline.run(&corpus),
        };
        let sweep = t.elapsed().as_secs_f64();
        drop(pipeline);
        let swept = Digest::of(&report);
        gate.check(report.records().len() == apps, || {
            format!("{} records for {apps} apps", report.records().len())
        });
        gate.check(*reference.get_or_insert(swept) == swept, || {
            "report differs between rounds".to_string()
        });
        attempted += apps as u64;
        harness += harness_failures(&report);
        makespans.push(virtual_makespan_us(&report.stats().worker_stats) as f64 / 1e6);

        let reopen = match args.workload {
            Workload::Store => {
                drop(report);
                let fresh = Pipeline::new(args.workload.config());
                let t = Instant::now();
                let reopened = fresh
                    .run_resumable(&corpus, &journal)
                    .expect("reopen the finished journal");
                std::hint::black_box(reopened.render_all());
                let reopen = t.elapsed().as_secs_f64();
                // Recovery read every frame of the finalized journal and
                // ledger: all of them must have survived intact.
                let stats = reopened.stats();
                gate.check(
                    stats.recovered_records == apps as u64
                        && stats.recovery_dropped == 0
                        && stats.inconsistent_apps == 0,
                    || {
                        format!(
                            "reopen recovered {} of {apps} records ({} frames dropped, {} inconsistent)",
                            stats.recovered_records, stats.recovery_dropped, stats.inconsistent_apps
                        )
                    },
                );
                gate.check(Digest::of(&reopened) == swept, || {
                    "reopened report differs from the sweep's".to_string()
                });
                reopen
            }
            // Every end-to-end metric is reported on both workloads. With
            // no journal to reopen, the finished run's tables are
            // regenerated from the report it returned. One render takes
            // well under a second, so the round keeps the fastest of
            // several.
            Workload::Memory => (0..TABLE_RENDERS)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(report.render_all());
                    t.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min),
        };
        sweeps.push(apps as f64 / sweep);
        reopens.push(reopen);
        longest_round = longest_round.max(round.elapsed());
        // The high-water mark only grows, and later rounds inherit the
        // allocator state earlier ones left behind: the figure is the
        // first round's, one set-up, sweep and reopen in a fresh process.
        if sweeps.len() == 1 {
            peak_rss = peak_rss_mb();
        }
        eprintln!(
            "corpusbench: round {}: {apps} apps, sweep {sweep:.3} s, reopen {reopen:.3} s, set-up {:.3} s",
            sweeps.len(),
            setup.as_secs_f64()
        );
    }
    // Runs with fewer rounds than set-up samples top up with set-ups
    // that are timed and dropped.
    while setups.len() < SETUP_SAMPLES {
        setups.push(set_up(args, &journal, &mut corpus).1.as_secs_f64());
    }
    drop(corpus);

    eprintln!(
        "corpusbench: round medians: {:.1} apps/s, reopen {:.3} s",
        median(sweeps.clone()),
        median(reopens.clone())
    );
    let mut metrics = Metrics::default();
    metrics.push("apps_per_s", sweeps.iter().copied().fold(0.0, f64::max), "1/s");
    metrics.push("reopen_s", reopens.iter().copied().fold(f64::INFINITY, f64::min), "s");
    metrics.push("setup_s", median(setups), "s");
    if let Some(rss) = peak_rss {
        metrics.push("peak_rss_mb", rss, "MB");
    }
    metrics.push("virtual_makespan_s", median(makespans), "s");
    Outcome {
        attempted,
        harness_failures: harness,
        metrics,
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("corpusbench: {e}\nusage: {USAGE}");
            std::process::exit(2);
        }
    };
    let scratch = match Scratch::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("corpusbench: cannot create the scratch directory: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "corpusbench: scale {}, seed {}, {} workers available, journals in {}",
        args.scale,
        args.seed,
        Workload::Store.config().effective_workers(),
        scratch.0.display()
    );
    let mut gate = Gate::default();
    let outcome = if args.trace {
        traced::run(&args, &scratch, &mut gate)
    } else {
        run_e2e(&args, &scratch, &mut gate)
    };
    drop(scratch);

    let mut fields = Vec::new();
    for (name, value, unit) in &outcome.metrics.0 {
        eprintln!("corpusbench: {name:<28} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        ));
    }
    let correct = gate.failures == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.harness_failures + gate.failures,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
