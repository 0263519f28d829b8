//! Noise-aware comparison of two unified measurement records.
//!
//! A delta between two runs of the same bench only *counts* when it
//! clears both a configured relative floor and a multiple of the pooled
//! sample noise:
//!
//! ```text
//! significant  ⇔  |new.median − old.median| > max(floor · |old.median|,
//!                                                 k · pooled_stddev)
//! ```
//!
//! where `pooled_stddev` is the usual two-sample pooled estimate
//! `√(((n₁−1)s₁² + (n₂−1)s₂²) / (n₁+n₂−2))`. A wall-clock pair whose
//! difference is inside the run-to-run noise band therefore reads
//! "unchanged", not "0.99x regression" — the failure mode the old
//! single-pair sweepbench comparison had.
//!
//! Each metric's [`Direction`] turns a
//! significant delta into an improvement or a regression; `Steady`
//! metrics (instruction-retirement identities, deterministic event
//! totals) regress on *any* significant movement. Gating — what makes
//! `benchcmp` exit 1 — defaults to **virtual metrics only** (virtual
//! makespan, instruction counts, seed-determined totals), because those
//! are machine-independent: a slow CI runner cannot fake a regression
//! on them, and a fast one cannot mask one.

use crate::measure::{Direction, Measurement, Metric};

/// What a significant delta means for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Moved the good way, beyond noise.
    Improvement,
    /// Moved the bad way (or moved at all, for `Steady`), beyond noise.
    Regression,
    /// Inside the noise band (or both medians zero).
    Unchanged,
}

/// Which metrics a regression verdict gates (exit 1) on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Gate {
    /// Machine-independent metrics only (the CI default).
    #[default]
    Virtual,
    /// Every metric present in both records.
    All,
    /// Report only; never gate.
    None,
}

/// Comparison thresholds.
#[derive(Debug, Clone, Copy)]
pub struct CompareConfig {
    /// Relative floor: deltas under `floor · |old.median|` never count.
    pub floor: f64,
    /// Noise multiplier: deltas under `k · pooled_stddev` never count.
    pub k: f64,
    /// Gating policy.
    pub gate: Gate,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            floor: 0.05,
            k: 3.0,
            gate: Gate::default(),
        }
    }
}

/// One metric's comparison outcome.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// Metric name.
    pub name: String,
    /// Metric unit.
    pub unit: String,
    /// Whether the metric is machine-independent.
    pub virtual_metric: bool,
    /// Old median.
    pub old: f64,
    /// New median.
    pub new: f64,
    /// Signed relative delta `(new − old) / |old|` (0 when both zero).
    pub delta_rel: f64,
    /// The absolute threshold that was applied:
    /// `max(floor · |old|, k · pooled_stddev)`.
    pub threshold: f64,
    /// The outcome.
    pub verdict: Verdict,
    /// Whether a `Regression` here makes the comparison exit 1.
    pub gated: bool,
}

/// Pooled two-sample standard deviation (0 when both samples are
/// singletons — deterministic metrics compare on the floor alone).
pub fn pooled_stddev(a: &[f64], b: &[f64]) -> f64 {
    let (na, nb) = (a.len(), b.len());
    let dof = (na.saturating_sub(1) + nb.saturating_sub(1)) as f64;
    if dof == 0.0 {
        return 0.0;
    }
    let var = |xs: &[f64]| {
        let n = xs.len();
        if n < 2 {
            return 0.0;
        }
        let mean = xs.iter().sum::<f64>() / n as f64;
        xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
    };
    ((var(a) + var(b)) / dof).sqrt()
}

/// The noise-aware significance test on two raw sample sets: returns
/// whether the medians differ beyond `max(floor·|old median|, k·pooled
/// stddev)`, plus the threshold that was applied. This is the single
/// judgement both `benchcmp` and the in-bench comparisons (e.g.
/// sweepbench's cached-vs-baseline speedup) share.
pub fn significant(old: &[f64], new: &[f64], floor: f64, k: f64) -> (bool, f64) {
    let old_med = crate::measure::Stats::from_samples(old).median;
    let new_med = crate::measure::Stats::from_samples(new).median;
    let threshold = (floor * old_med.abs()).max(k * pooled_stddev(old, new));
    ((new_med - old_med).abs() > threshold, threshold)
}

fn classify(old: &Metric, new: &Metric, cfg: &CompareConfig) -> MetricDelta {
    let (is_significant, threshold) = significant(&old.samples, &new.samples, cfg.floor, cfg.k);
    let (old_med, new_med) = (old.stats.median, new.stats.median);
    let delta_rel = if old_med.abs() > 0.0 {
        (new_med - old_med) / old_med.abs()
    } else if new_med == 0.0 {
        0.0
    } else {
        f64::INFINITY * new_med.signum()
    };
    let verdict = if !is_significant {
        Verdict::Unchanged
    } else {
        match (old.direction, new_med > old_med) {
            (Direction::Steady, _) => Verdict::Regression,
            (Direction::Higher, true) | (Direction::Lower, false) => Verdict::Improvement,
            (Direction::Higher, false) | (Direction::Lower, true) => Verdict::Regression,
        }
    };
    let gated = match cfg.gate {
        Gate::Virtual => old.virtual_metric && new.virtual_metric,
        Gate::All => true,
        Gate::None => false,
    };
    MetricDelta {
        name: old.name.clone(),
        unit: old.unit.clone(),
        virtual_metric: old.virtual_metric && new.virtual_metric,
        old: old_med,
        new: new_med,
        delta_rel,
        threshold,
        verdict,
        gated,
    }
}

/// The full comparison report `benchcmp` renders and gates on.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Per-metric outcomes, in the new record's metric order.
    pub deltas: Vec<MetricDelta>,
    /// Metric names present in only one record (reported, never gated).
    pub unmatched: Vec<String>,
    /// Context keys (workload/scale/seed) differ between the records:
    /// `Steady` identities are incomparable, so they were left ungated.
    pub shape_mismatch: bool,
}

impl Comparison {
    /// Gated regressions — the count that decides exit 1.
    pub fn gated_regressions(&self) -> usize {
        self.deltas
            .iter()
            .filter(|d| d.gated && d.verdict == Verdict::Regression)
            .count()
    }

    /// All regressions, gated or not.
    pub fn regressions(&self) -> usize {
        self.deltas
            .iter()
            .filter(|d| d.verdict == Verdict::Regression)
            .count()
    }

    /// Improvements beyond noise.
    pub fn improvements(&self) -> usize {
        self.deltas
            .iter()
            .filter(|d| d.verdict == Verdict::Improvement)
            .count()
    }
}

/// Compares two records of the same bench, metric by metric (matched by
/// name). When workload, scale, or seed differ, deterministic `Steady`
/// identities are meaningless across the shapes, so their deltas are
/// reported but never gated.
///
/// # Errors
///
/// Returns a message when the records belong to different benches —
/// that comparison has no meaning at all.
pub fn compare(
    old: &Measurement,
    new: &Measurement,
    cfg: &CompareConfig,
) -> Result<Comparison, String> {
    if old.bench != new.bench {
        return Err(format!(
            "records are from different benches ({:?} vs {:?})",
            old.bench, new.bench
        ));
    }
    let shape_mismatch = old.workload != new.workload
        || old.scale.to_bits() != new.scale.to_bits()
        || old.seed != new.seed;
    let mut deltas = Vec::new();
    let mut unmatched: Vec<String> = Vec::new();
    for m in &new.metrics {
        match old.metric(&m.name) {
            Some(o) => {
                let mut d = classify(o, m, cfg);
                if shape_mismatch && o.direction == Direction::Steady {
                    d.gated = false;
                }
                deltas.push(d);
            }
            None => unmatched.push(format!("{} (new only)", m.name)),
        }
    }
    for o in &old.metrics {
        if new.metric(&o.name).is_none() {
            unmatched.push(format!("{} (old only)", o.name));
        }
    }
    Ok(Comparison {
        deltas,
        unmatched,
        shape_mismatch,
    })
}

/// Renders the comparison as the aligned table `benchcmp` prints.
pub fn render(old: &Measurement, new: &Measurement, cmp: &Comparison) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "benchcmp: {} · old {} ({}) vs new {} ({})",
        new.bench, old.git_commit, old.workload, new.git_commit, new.workload
    );
    if cmp.shape_mismatch {
        let _ = writeln!(
            out,
            "benchcmp: note — workload/scale/seed differ; steady identities not gated"
        );
    }
    let width = cmp
        .deltas
        .iter()
        .map(|d| d.name.len())
        .max()
        .unwrap_or(6)
        .max(6);
    for d in &cmp.deltas {
        let verdict = match d.verdict {
            Verdict::Improvement => "improved",
            Verdict::Regression => "REGRESSED",
            Verdict::Unchanged => "~ (noise)",
        };
        let gate = if d.gated { " [gated]" } else { "" };
        let vmark = if d.virtual_metric { " virtual" } else { "" };
        let _ = writeln!(
            out,
            "  {:<width$}  {:>14.4} -> {:>14.4} {:<6} {:>+8.2}%  {verdict}{gate}{vmark}",
            d.name,
            d.old,
            d.new,
            d.unit,
            d.delta_rel * 100.0,
        );
    }
    for name in &cmp.unmatched {
        let _ = writeln!(out, "  {name:<width$}  (not compared)");
    }
    let _ = writeln!(
        out,
        "benchcmp: {} improved, {} regressed ({} gated), {} within noise",
        cmp.improvements(),
        cmp.regressions(),
        cmp.gated_regressions(),
        cmp.deltas
            .iter()
            .filter(|d| d.verdict == Verdict::Unchanged)
            .count(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Direction;

    fn record(bench: &str, metrics: Vec<Metric>) -> Measurement {
        let mut m = Measurement::new(bench, "default", 0.01, 7);
        m.metrics = metrics;
        m
    }

    fn metric(name: &str, dir: Direction, virt: bool, samples: &[f64]) -> Metric {
        Metric::new(name, "ms", dir, virt, samples.to_vec())
    }

    #[test]
    fn identical_records_compare_clean() {
        let m = record(
            "sweep",
            vec![
                metric("wall_ms", Direction::Lower, false, &[100.0, 101.0, 99.0]),
                metric("makespan_us", Direction::Lower, true, &[5000.0]),
            ],
        );
        let cmp = compare(&m, &m, &CompareConfig::default()).expect("compare");
        assert_eq!(cmp.gated_regressions(), 0);
        assert_eq!(cmp.regressions(), 0);
        assert_eq!(cmp.improvements(), 0);
        assert!(cmp
            .deltas
            .iter()
            .all(|d| d.verdict == Verdict::Unchanged && d.delta_rel == 0.0));
    }

    #[test]
    fn planted_twenty_percent_regression_is_detected_and_gated() {
        let old = record(
            "sweep",
            vec![metric(
                "makespan_us",
                Direction::Lower,
                true,
                &[1000.0, 1010.0, 990.0],
            )],
        );
        let new = record(
            "sweep",
            vec![metric(
                "makespan_us",
                Direction::Lower,
                true,
                &[1200.0, 1212.0, 1188.0],
            )],
        );
        let cmp = compare(&old, &new, &CompareConfig::default()).expect("compare");
        assert_eq!(cmp.gated_regressions(), 1);
        let d = &cmp.deltas[0];
        assert_eq!(d.verdict, Verdict::Regression);
        assert!((d.delta_rel - 0.20).abs() < 1e-9, "delta {}", d.delta_rel);

        // The same movement the good way is an improvement, not a gate.
        let cmp = compare(&new, &old, &CompareConfig::default()).expect("compare");
        assert_eq!(cmp.gated_regressions(), 0);
        assert_eq!(cmp.improvements(), 1);
    }

    #[test]
    fn noisy_delta_is_not_significant() {
        // ±30% run-to-run spread; a 10% median shift must read as noise.
        let old = metric("wall_ms", Direction::Lower, false, &[700.0, 1000.0, 1300.0]);
        let new = metric("wall_ms", Direction::Lower, false, &[770.0, 1100.0, 1430.0]);
        let cfg = CompareConfig {
            gate: Gate::All,
            ..CompareConfig::default()
        };
        let cmp = compare(
            &record("sweep", vec![old]),
            &record("sweep", vec![new]),
            &cfg,
        )
        .expect("compare");
        assert_eq!(cmp.deltas[0].verdict, Verdict::Unchanged);
        assert_eq!(cmp.gated_regressions(), 0);
    }

    #[test]
    fn steady_metrics_regress_in_both_directions() {
        let old = record(
            "avm",
            vec![metric("insns", Direction::Steady, true, &[1000.0])],
        );
        for moved in [1250.0, 750.0] {
            let new = record(
                "avm",
                vec![metric("insns", Direction::Steady, true, &[moved])],
            );
            let cmp = compare(&old, &new, &CompareConfig::default()).expect("compare");
            assert_eq!(cmp.gated_regressions(), 1, "moved to {moved}");
        }
    }

    #[test]
    fn floor_suppresses_tiny_deterministic_deltas() {
        // Singleton samples → pooled stddev 0; only the floor applies.
        let old = record(
            "sweep",
            vec![metric("makespan_us", Direction::Lower, true, &[1000.0])],
        );
        let new = record(
            "sweep",
            vec![metric("makespan_us", Direction::Lower, true, &[1030.0])],
        );
        let cmp = compare(&old, &new, &CompareConfig::default()).expect("compare");
        assert_eq!(cmp.deltas[0].verdict, Verdict::Unchanged, "3% < 5% floor");

        let cfg = CompareConfig {
            floor: 0.01,
            ..CompareConfig::default()
        };
        let cmp = compare(&old, &new, &cfg).expect("compare");
        assert_eq!(cmp.deltas[0].verdict, Verdict::Regression, "3% > 1% floor");
    }

    #[test]
    fn gate_policy_controls_exit_relevance() {
        let old = record(
            "sweep",
            vec![
                metric("wall_ms", Direction::Lower, false, &[100.0]),
                metric("makespan_us", Direction::Lower, true, &[1000.0]),
            ],
        );
        let new = record(
            "sweep",
            vec![
                metric("wall_ms", Direction::Lower, false, &[200.0]),
                metric("makespan_us", Direction::Lower, true, &[2000.0]),
            ],
        );
        let regressions_under = |gate| {
            let cfg = CompareConfig {
                gate,
                ..CompareConfig::default()
            };
            compare(&old, &new, &cfg)
                .expect("compare")
                .gated_regressions()
        };
        assert_eq!(regressions_under(Gate::Virtual), 1);
        assert_eq!(regressions_under(Gate::All), 2);
        assert_eq!(regressions_under(Gate::None), 0);
    }

    #[test]
    fn cross_bench_comparison_is_refused_and_shape_mismatch_ungates_steady() {
        let a = record("sweep", vec![]);
        let b = record("avm", vec![]);
        assert!(compare(&a, &b, &CompareConfig::default()).is_err());

        let old = record(
            "avm",
            vec![metric("insns", Direction::Steady, true, &[1000.0])],
        );
        let mut new = record(
            "avm",
            vec![metric("insns", Direction::Steady, true, &[2000.0])],
        );
        new.scale = 9.9;
        let cmp = compare(&old, &new, &CompareConfig::default()).expect("compare");
        assert!(cmp.shape_mismatch);
        assert_eq!(cmp.regressions(), 1, "still reported");
        assert_eq!(cmp.gated_regressions(), 0, "but not gated across shapes");
    }

    #[test]
    fn missing_metrics_are_reported_not_gated() {
        let old = record(
            "sweep",
            vec![metric("gone", Direction::Lower, true, &[1.0])],
        );
        let new = record(
            "sweep",
            vec![metric("fresh", Direction::Lower, true, &[1.0])],
        );
        let cmp = compare(&old, &new, &CompareConfig::default()).expect("compare");
        assert_eq!(cmp.deltas.len(), 0);
        assert_eq!(cmp.unmatched.len(), 2);
        assert_eq!(cmp.gated_regressions(), 0);
    }
}
