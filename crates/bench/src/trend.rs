//! `benchcmp --trend`: per-metric median trajectories over the bench
//! history stream.
//!
//! Where [`crate::compare`](mod@crate::compare) judges one old/new pair, the trend view
//! walks the whole committed `BENCH_history.jsonl` and renders, per
//! bench and per metric, the median of every record oldest → newest —
//! the repo's perf trajectory at a glance. The *last* step of each
//! trajectory is judged with the same noise-aware
//! [`significant`] test and each metric's
//! [`Direction`], so a row ends in `improving`, `steady`, or
//! `REGRESSING` rather than a bare number. Single-entry benches (a
//! freshly added bench has exactly one committed record) still render,
//! marked `(single)`.

use std::fmt::Write as _;

use crate::compare::significant;
use crate::measure::{Direction, Measurement, Metric};

/// Direction-aware judgement of a metric's most recent step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trend {
    /// Only one history record carries the metric — no trajectory yet.
    Single,
    /// The last step is inside the noise band.
    Steady,
    /// The last step moved the good way, beyond noise.
    Improving,
    /// The last step moved the bad way (or moved at all, for `Steady`
    /// identities), beyond noise.
    Regressing,
}

impl Trend {
    /// The marker rendered in the trend table.
    pub fn marker(self) -> &'static str {
        match self {
            Trend::Single => "(single)",
            Trend::Steady => "steady",
            Trend::Improving => "improving",
            Trend::Regressing => "REGRESSING",
        }
    }
}

/// One metric's median trajectory across every history record of its
/// bench.
#[derive(Debug, Clone)]
pub struct TrendRow {
    /// Bench the metric belongs to.
    pub bench: String,
    /// Metric name.
    pub name: String,
    /// Metric unit.
    pub unit: String,
    /// Whether the metric is machine-independent.
    pub virtual_metric: bool,
    /// Median per history record of this bench, oldest first (`None`
    /// when that record does not carry the metric).
    pub medians: Vec<Option<f64>>,
    /// Judgement of the last step.
    pub trend: Trend,
}

fn judge(history: &[&Measurement], metric: &Metric, floor: f64, k: f64) -> Trend {
    let present: Vec<&Metric> = history
        .iter()
        .filter_map(|r| r.metric(&metric.name))
        .collect();
    let [.., prev, last] = present.as_slice() else {
        return Trend::Single;
    };
    let (is_significant, _) = significant(&prev.samples, &last.samples, floor, k);
    if !is_significant {
        return Trend::Steady;
    }
    match (metric.direction, last.stats.median > prev.stats.median) {
        (Direction::Steady, _) => Trend::Regressing,
        (Direction::Higher, true) | (Direction::Lower, false) => Trend::Improving,
        (Direction::Higher, false) | (Direction::Lower, true) => Trend::Regressing,
    }
}

/// Builds one [`TrendRow`] per metric of each bench's *latest* record,
/// benches in first-appearance order, using the same `floor`/`k` noise
/// thresholds as [`crate::compare`](mod@crate::compare).
pub fn trend_rows(records: &[Measurement], floor: f64, k: f64) -> Vec<TrendRow> {
    let mut benches: Vec<&str> = Vec::new();
    for r in records {
        if !benches.contains(&r.bench.as_str()) {
            benches.push(&r.bench);
        }
    }
    let mut rows = Vec::new();
    for bench in benches {
        let history: Vec<&Measurement> = records.iter().filter(|r| r.bench == bench).collect();
        let Some(latest) = history.last() else {
            continue;
        };
        for m in &latest.metrics {
            let medians = history
                .iter()
                .map(|r| r.metric(&m.name).map(|mm| mm.stats.median))
                .collect();
            rows.push(TrendRow {
                bench: bench.to_string(),
                name: m.name.clone(),
                unit: m.unit.clone(),
                virtual_metric: m.virtual_metric,
                medians,
                trend: judge(&history, m, floor, k),
            });
        }
    }
    rows
}

fn fmt_median(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Renders the trend table: one section per bench, one row per metric,
/// medians oldest → newest with `—` for records missing the metric.
pub fn render(history_path: &str, records: &[Measurement], rows: &[TrendRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "benchcmp trend: {} record(s) in {history_path}",
        records.len()
    );
    let mut benches: Vec<&str> = Vec::new();
    for row in rows {
        if !benches.contains(&row.bench.as_str()) {
            benches.push(&row.bench);
        }
    }
    for bench in benches {
        let history: Vec<&Measurement> = records.iter().filter(|r| r.bench == bench).collect();
        let commits = match history.as_slice() {
            [one] => one.git_commit.clone(),
            [first, .., last] => format!("{} → {}", first.git_commit, last.git_commit),
            [] => String::new(),
        };
        let _ = writeln!(out, "{bench} · {} record(s) ({commits})", history.len());
        let bench_rows: Vec<&TrendRow> = rows.iter().filter(|r| r.bench == bench).collect();
        let width = bench_rows
            .iter()
            .map(|r| r.name.len())
            .max()
            .unwrap_or(6)
            .max(6);
        for row in bench_rows {
            let trajectory = row
                .medians
                .iter()
                .map(|m| m.map_or_else(|| "—".to_string(), fmt_median))
                .collect::<Vec<_>>()
                .join(" → ");
            let vmark = if row.virtual_metric { " virtual" } else { "" };
            let _ = writeln!(
                out,
                "  {:<width$}  {:<6} {trajectory}  {}{vmark}",
                row.name,
                row.unit,
                row.trend.marker(),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(bench: &str, metrics: Vec<(&str, Direction, Vec<f64>)>) -> Measurement {
        let mut m = Measurement::new(bench, "default", 0.01, 7);
        for (name, dir, samples) in metrics {
            m.push_metric(name, "ms", dir, true, samples);
        }
        m
    }

    #[test]
    fn every_latest_metric_gets_a_row_in_bench_order() {
        let records = vec![
            record("sweep", vec![("wall_ms", Direction::Lower, vec![100.0])]),
            record("avm", vec![("ips", Direction::Higher, vec![1.0e6])]),
            record("sweep", vec![("wall_ms", Direction::Lower, vec![90.0])]),
        ];
        let rows = trend_rows(&records, 0.05, 3.0);
        assert_eq!(rows.len(), 2);
        assert_eq!(
            (rows[0].bench.as_str(), rows[0].name.as_str()),
            ("sweep", "wall_ms")
        );
        assert_eq!(rows[0].medians, vec![Some(100.0), Some(90.0)]);
        assert_eq!(
            rows[0].trend,
            Trend::Improving,
            "10% drop on a Lower metric"
        );
        assert_eq!(rows[1].bench, "avm");
        assert_eq!(rows[1].trend, Trend::Single);
    }

    #[test]
    fn single_record_benches_still_render() {
        let records = vec![record(
            "trace",
            vec![("overhead", Direction::Lower, vec![1.5])],
        )];
        let rows = trend_rows(&records, 0.05, 3.0);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].trend, Trend::Single);
        let text = render("BENCH_history.jsonl", &records, &rows);
        assert!(text.contains("overhead"), "{text}");
        assert!(text.contains("(single)"), "{text}");
    }

    #[test]
    fn regression_and_noise_are_marked_direction_aware() {
        let records = vec![
            record(
                "sweep",
                vec![("makespan_us", Direction::Lower, vec![1000.0])],
            ),
            record(
                "sweep",
                vec![("makespan_us", Direction::Lower, vec![1300.0])],
            ),
        ];
        let rows = trend_rows(&records, 0.05, 3.0);
        assert_eq!(
            rows[0].trend,
            Trend::Regressing,
            "30% rise on a Lower metric"
        );
        let text = render("h.jsonl", &records, &rows);
        assert!(text.contains("REGRESSING"), "{text}");
        assert!(text.contains("1000 → 1300"), "{text}");

        // The same shift inside the 5% floor reads as steady.
        let records = vec![
            record(
                "sweep",
                vec![("makespan_us", Direction::Lower, vec![1000.0])],
            ),
            record(
                "sweep",
                vec![("makespan_us", Direction::Lower, vec![1030.0])],
            ),
        ];
        assert_eq!(trend_rows(&records, 0.05, 3.0)[0].trend, Trend::Steady);
    }

    #[test]
    fn records_missing_a_metric_render_a_gap() {
        let records = vec![
            record("sweep", vec![]),
            record("sweep", vec![("fresh_ms", Direction::Lower, vec![5.0])]),
        ];
        let rows = trend_rows(&records, 0.05, 3.0);
        assert_eq!(rows[0].medians, vec![None, Some(5.0)]);
        assert_eq!(rows[0].trend, Trend::Single, "one appearance only");
        let text = render("h.jsonl", &records, &rows);
        assert!(text.contains("— → 5.00"), "{text}");
    }
}
