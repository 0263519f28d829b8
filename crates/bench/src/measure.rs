//! The unified measurement record every DyDroid bench binary emits.
//!
//! Modeled on rebar's wire measurements (one record per benchmark
//! execution, aggregate statistics over explicit samples, throughput
//! with explicit units) and the exar statistics aggregator (mean /
//! median / stddev per measurement): each `BENCH_*.json` is one
//! [`Measurement`] — a common envelope (bench name, workload, scale,
//! seed, git commit, warmup/iteration discipline, a counters map fed
//! from the telemetry metrics registry) over a list of named
//! [`Metric`]s, with the bench's legacy document nested verbatim under
//! `payload`. The same record, compact-framed, is what each bench
//! appends to `BENCH_history.jsonl` (see [`crate::history`]) and what
//! `benchcmp` diffs with noise-aware thresholds (see
//! [`crate::compare`](mod@crate::compare)).

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

/// Schema tag carried by every record, for forward compatibility.
pub const SCHEMA: &str = "dydroid-measurement/v1";

/// Which way a metric is "good": used by `benchcmp` to classify a
/// significant delta as an improvement or a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Direction {
    /// Bigger is better (throughput, speedup).
    Higher,
    /// Smaller is better (wall time, makespan).
    #[default]
    Lower,
    /// The value is an identity that should not move at all (retired
    /// instruction counts, deterministic event totals): a significant
    /// delta in *either* direction is a regression.
    Steady,
}

/// Aggregate statistics over one metric's samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Stats {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (p50).
    pub median: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub stddev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// 50th percentile (nearest rank).
    pub p50: f64,
    /// 95th percentile (nearest rank).
    pub p95: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // Nearest-rank: the smallest sample covering quantile q.
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl Stats {
    /// Computes the full summary over `samples`.
    pub fn from_samples(samples: &[f64]) -> Stats {
        if samples.is_empty() {
            return Stats::default();
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let stddev = if n < 2 {
            0.0
        } else {
            (samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64).sqrt()
        };
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median = if n.is_multiple_of(2) {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        } else {
            sorted[n / 2]
        };
        Stats {
            n,
            mean,
            median,
            stddev,
            min: sorted[0],
            max: sorted[n - 1],
            p50: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
            p99: percentile(&sorted, 0.99),
        }
    }
}

/// One named, unit-carrying series of samples inside a [`Measurement`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Metric name, unique within the record ("cached_wall_ms", …).
    pub name: String,
    /// Explicit unit ("ms", "instructions/sec", "ratio", "count").
    pub unit: String,
    /// Which way is good.
    pub direction: Direction,
    /// Machine-independent: derived from the deterministic virtual
    /// clock, retired-instruction counts, or other seed-determined
    /// quantities, so it is meaningful across hosts (including
    /// single-core CI runners). `benchcmp` gates on these by default.
    pub virtual_metric: bool,
    /// The raw samples, in recording order.
    pub samples: Vec<f64>,
    /// Aggregates over `samples`.
    pub stats: Stats,
}

impl Metric {
    /// Builds a metric, computing its aggregate statistics.
    pub fn new(
        name: impl Into<String>,
        unit: impl Into<String>,
        direction: Direction,
        virtual_metric: bool,
        samples: Vec<f64>,
    ) -> Metric {
        let stats = Stats::from_samples(&samples);
        Metric {
            name: name.into(),
            unit: unit.into(),
            direction,
            virtual_metric,
            samples,
            stats,
        }
    }
}

/// The unified record one bench run produces: written pretty to
/// `BENCH_<bench>.json` and appended compact (one framed line) to
/// `BENCH_history.jsonl`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// Bench name ("sweep", "detect", "trace", "avm", "crash").
    pub bench: String,
    /// Workload identifier within the bench ("default", or a shape
    /// string like "f6x4-t120-b120").
    pub workload: String,
    /// Corpus scale knob (0 when the bench has no corpus).
    pub scale: f64,
    /// Deterministic seed driving the run.
    pub seed: u64,
    /// Short git commit hash of the working tree ("unknown" outside a
    /// repo), so history lines map back to the code they measured.
    pub git_commit: String,
    /// Unrecorded warmup rounds before sampling (rebar discipline).
    pub warmup: usize,
    /// Recorded sample rounds.
    pub samples: usize,
    /// Counters fed from the telemetry metrics registry / `SweepStats`
    /// (cache hits, inline-cache hits, worker accounting, recovery
    /// counters), keyed by metric name.
    pub counters: BTreeMap<String, u64>,
    /// The named measurements.
    pub metrics: Vec<Metric>,
    /// The bench-specific document (the pre-unification JSON shape),
    /// nested verbatim.
    pub payload: serde::Value,
}

impl Measurement {
    /// Starts an empty record for `bench`, stamping schema and commit.
    pub fn new(bench: &str, workload: &str, scale: f64, seed: u64) -> Measurement {
        Measurement {
            schema: SCHEMA.to_string(),
            bench: bench.to_string(),
            workload: workload.to_string(),
            scale,
            seed,
            git_commit: git_commit(),
            warmup: 0,
            samples: 0,
            counters: BTreeMap::new(),
            metrics: Vec::new(),
            payload: serde::Value::Null,
        }
    }

    /// Adds a metric (computing its statistics).
    pub fn push_metric(
        &mut self,
        name: &str,
        unit: &str,
        direction: Direction,
        virtual_metric: bool,
        samples: Vec<f64>,
    ) {
        self.metrics
            .push(Metric::new(name, unit, direction, virtual_metric, samples));
    }

    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Sets one counter.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Merges every counter of a telemetry
    /// [`MetricsSnapshot`](dydroid::obs::MetricsSnapshot) into the
    /// record (the registry names are kept verbatim).
    pub fn counters_from_snapshot(&mut self, snap: &dydroid::obs::MetricsSnapshot) {
        for (name, value) in snap.counter_map() {
            self.counters.insert(name, value);
        }
    }

    /// Merges the sweep-level counters of a finished run (cache and
    /// inline-cache hit counters, worker virtual time, recovery and
    /// durability counters) into the record.
    pub fn counters_from_stats(&mut self, stats: &dydroid::SweepStats) {
        for (name, value) in stats.counter_map() {
            self.counters.insert(name, value);
        }
    }

    /// The compact one-line JSON body framed into `BENCH_history.jsonl`.
    pub fn to_body(&self) -> String {
        self.to_json().to_compact_string()
    }

    /// Parses a record from JSON text (a history line body or a
    /// `BENCH_*.json` file).
    ///
    /// # Errors
    ///
    /// Returns a message when the text is not valid JSON or does not
    /// carry the measurement schema.
    pub fn parse(text: &str) -> Result<Measurement, String> {
        let value: serde::Value =
            serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let record = Measurement::from_json(&value).map_err(|e| e.to_string())?;
        if record.schema != SCHEMA {
            return Err(format!(
                "not a {SCHEMA} record (schema = {:?})",
                record.schema
            ));
        }
        Ok(record)
    }

    /// Writes the record pretty-printed to `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write errors.
    pub fn write_pretty(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json().to_pretty_string() + "\n")
    }
}

/// Short commit hash of the enclosing git work tree, or "unknown".
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// rebar-style sampling discipline: runs `warmup` unrecorded rounds of
/// `round`, then records `samples` rounds and returns their values.
pub fn sample_rounds(samples: usize, warmup: usize, mut round: impl FnMut() -> f64) -> Vec<f64> {
    for _ in 0..warmup {
        round();
    }
    (0..samples).map(|_| round()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_match_hand_computed_values() {
        let s = Stats::from_samples(&[4.0, 2.0, 6.0, 8.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.median - 5.0).abs() < 1e-12);
        // Sample stddev of {2,4,6,8} = sqrt(20/3).
        assert!((s.stddev - (20.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 8.0);
        assert_eq!(s.p95, 8.0);

        let single = Stats::from_samples(&[7.5]);
        assert_eq!(single.stddev, 0.0);
        assert_eq!(single.median, 7.5);
        assert_eq!(Stats::from_samples(&[]), Stats::default());
    }

    #[test]
    fn record_round_trips_through_json() {
        let mut m = Measurement::new("avm", "default", 0.0, 42);
        m.warmup = 3;
        m.samples = 10;
        m.counter("ic.call_hits", 1234);
        m.push_metric(
            "aggregate_ips",
            "instructions/sec",
            Direction::Higher,
            false,
            vec![1.0e6, 1.1e6, 0.9e6],
        );
        m.push_metric(
            "instructions_retired",
            "count",
            Direction::Steady,
            true,
            vec![5.0e5],
        );
        m.payload = serde_json::json!({"nested": serde_json::json!({"speedup": 5.05})});

        let body = m.to_body();
        let back = Measurement::parse(&body).expect("parse");
        assert_eq!(back, m);
        assert_eq!(back.metric("aggregate_ips").unwrap().stats.n, 3);
        assert!(back.metric("instructions_retired").unwrap().virtual_metric);
        assert_eq!(back.counters.get("ic.call_hits"), Some(&1234));
    }

    #[test]
    fn parse_rejects_foreign_documents() {
        assert!(Measurement::parse("{\"bench\":\"sweep\"}").is_err());
        assert!(Measurement::parse("not json").is_err());
    }

    #[test]
    fn sampling_discipline_runs_warmup_unrecorded() {
        let mut calls = 0u32;
        let out = sample_rounds(3, 2, || {
            calls += 1;
            f64::from(calls)
        });
        assert_eq!(calls, 5);
        // Only the post-warmup rounds are recorded.
        assert_eq!(out, vec![3.0, 4.0, 5.0]);
    }
}
