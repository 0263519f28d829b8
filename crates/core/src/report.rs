//! Aggregated measurement results and regeneration of every table and
//! figure in the paper's evaluation section.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dydroid_analysis::taint::PrivacyType;
use dydroid_analysis::{DetectorStats, VulnKind};
use serde::{Deserialize, Serialize};

use crate::cache::CacheStats;
use crate::environment::{EnvCounts, EnvLoad};
use crate::pipeline::{AppRecord, DynamicStatus};
use crate::profile::StragglerEntry;
use crate::provenance::ProvenanceIndex;
use crate::scheduler::{idle_workers, parallel_balance, virtual_makespan_us, WorkerStats};
use crate::telemetry::HistogramSummary;

/// Per-phase wall-times and cache counters of one measurement run.
///
/// Perf telemetry, not a measurement result: it is *excluded* from the
/// report's serialized form so sweeps over the same corpus produce
/// byte-identical JSON however warm their analysis cache was, and so
/// journaled reports stay replayable. Read it via
/// [`MeasurementReport::stats`] / render it via
/// [`MeasurementReport::render_perf`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepStats {
    /// Wall-clock of the parallel corpus sweep, in milliseconds.
    pub sweep_ms: u64,
    /// Wall-clock of the Table VIII environment re-runs, in milliseconds.
    pub env_ms: u64,
    /// Apps analysed.
    pub analyzed_apps: usize,
    /// Whether telemetry was on for the run. The AVM truncation and
    /// inline-cache counters and the watchdog count are only collected
    /// then; with it off they are not measured, not 0.
    pub telemetry: bool,
    /// Whether the run wrote durable streams (a journaled run). The stream
    /// counters (`journal_syncs` through `finalized_streams`) are measured
    /// only then; a plain run opens no stream, so they are not
    /// measured, not 0, and the perf outputs leave them out.
    pub journaled: bool,
    /// Analysis-cache counters for this run.
    pub cache: CacheStats,
    /// Signature-matcher counters for this run: candidates generated by
    /// the inverted index, candidates pruned by the threshold bound, and
    /// candidates fully scored.
    pub detector: DetectorStats,
    /// Events evicted by the per-app `EventLog` ring bound, summed over
    /// the baseline sweep.
    pub dropped_events: u64,
    /// Distinct flow edges dropped at the `FlowGraph` edge cap.
    pub flow_truncated: u64,
    /// Duplicate flow-rule firings folded into edge multiplicities.
    pub flow_deduped: u64,
    /// Interpreter call-site inline-cache hits across the baseline
    /// sweep.
    pub ic_call_hits: u64,
    /// Interpreter call-site inline-cache misses (first executions and
    /// receiver-class flips at a site).
    pub ic_call_misses: u64,
    /// Field/static slot-cache hits (iget/iput/sget/sput).
    pub ic_field_hits: u64,
    /// Field/static slot-cache misses.
    pub ic_field_misses: u64,
    /// Fsyncs issued on the sweep journal (see
    /// `PipelineConfig::sync_policy`).
    pub journal_syncs: u64,
    /// Transient I/O errors retried across the three persistent streams.
    pub io_retries: u64,
    /// Virtual backoff charged across those retries, in microseconds.
    pub io_backoff_us: u64,
    /// Telemetry events, metrics snapshot lines included, shed under
    /// disk pressure (shed level ≥ 1 — the first stream sacrificed).
    pub shed_events: u64,
    /// Provenance records shed under disk pressure (shed level ≥ 2).
    pub shed_provenance: u64,
    /// How many of the journal and the ledger finalize replaced (0–2):
    /// a stream recovery found already finalized, on a session that
    /// appended nothing to it, is kept as it lies.
    pub finalized_streams: u64,
    /// Journal records recovered from a prior interrupted session.
    pub recovered_records: u64,
    /// Corrupt or torn journal and ledger frames dropped at recovery
    /// (the event stream is not read by recovery, so its frames never
    /// count here).
    pub recovery_dropped: u64,
    /// Apps whose journal and ledger disagreed at recovery (re-analysed).
    pub inconsistent_apps: u64,
    /// Always 0: one writer appends every frame of a journaled sweep, so
    /// no append waits on another. Kept while corpusbench's
    /// `streams.shard_contention` metric still reads it; never serialized.
    #[serde(skip)]
    pub shard_contention: u64,
    /// Per-worker accounting, one entry per sweep thread that ran: tasks
    /// executed, wall busy-time and deterministic virtual cost (see
    /// [`crate::scheduler::WorkerStats`]). Its length is the sweep's
    /// worker count. Empty for non-sweep runs.
    pub worker_stats: Vec<WorkerStats>,
    /// Apps the straggler watchdog flagged (total over the run; see
    /// [`crate::config::WATCHDOG_K`]).
    pub straggler_warnings: u64,
    /// The top-N flagged stragglers, slowest first, with per-phase
    /// breakdowns (bounded by [`crate::config::STRAGGLER_TOP`]).
    pub stragglers: Vec<StragglerEntry>,
    /// Per-app wall-time distribution (microseconds) from the telemetry
    /// registry; empty when telemetry is disabled.
    pub app_wall: HistogramSummary,
    /// Every other latency histogram the run recorded, keyed by metric
    /// name (e.g. `span.monkey.us`), sorted by name.
    pub phases: Vec<(String, HistogramSummary)>,
}

impl SweepStats {
    /// Total wall-clock across phases, in milliseconds.
    pub fn total_ms(&self) -> u64 {
        self.sweep_ms + self.env_ms
    }

    /// Apps analysed per second of total wall-clock.
    pub fn apps_per_sec(&self) -> f64 {
        let ms = self.total_ms();
        if ms == 0 {
            0.0
        } else {
            self.analyzed_apps as f64 * 1000.0 / ms as f64
        }
    }

    /// The run's headline counters as an ordered name → value map: the
    /// cache, inline-cache, scheduler, durability and recovery
    /// counters the unified bench measurement record (`dydroid-bench`)
    /// carries in its `counters` envelope. Names use the same dotted
    /// convention as the telemetry metrics registry. Counters only
    /// telemetry collects (`ic.*`, `events.dropped`, `flow.*`,
    /// `watchdog.stragglers`) are absent when the run had it off, and the
    /// stream counters (`streams.*`, `io.*`) when it wrote no stream.
    pub fn counter_map(&self) -> std::collections::BTreeMap<String, u64> {
        let mut map = std::collections::BTreeMap::new();
        let mut put = |k: &str, v: u64| {
            map.insert(k.to_string(), v);
        };
        put("apps.analyzed", self.analyzed_apps as u64);
        put("cache.hits", self.cache.hits);
        put("cache.misses", self.cache.misses);
        put("cache.entries", self.cache.entries);
        put("cache.sig_builds", self.cache.sig_builds);
        put("cache.taint_runs", self.cache.taint_runs);
        put("detector.candidates", self.detector.candidates);
        put("detector.pruned", self.detector.pruned);
        put("detector.fully_scored", self.detector.fully_scored);
        put("detector.early_exits", self.detector.early_exits);
        if self.telemetry {
            put("ic.call_hits", self.ic_call_hits);
            put("ic.call_misses", self.ic_call_misses);
            put("ic.field_hits", self.ic_field_hits);
            put("ic.field_misses", self.ic_field_misses);
            put("events.dropped", self.dropped_events);
            put("flow.truncated", self.flow_truncated);
            put("flow.deduped", self.flow_deduped);
            put("watchdog.stragglers", self.straggler_warnings);
        }
        put(
            "scheduler.virtual_us",
            self.worker_stats.iter().map(|w| w.virtual_us).sum(),
        );
        if self.journaled {
            put("io.journal_syncs", self.journal_syncs);
            put("io.retries", self.io_retries);
            put("io.backoff_us", self.io_backoff_us);
            put("io.shed_events", self.shed_events);
            put("io.shed_provenance", self.shed_provenance);
        }
        put(
            "scheduler.idle_workers",
            idle_workers(&self.worker_stats) as u64,
        );
        put("recovery.records", self.recovered_records);
        put("recovery.dropped_frames", self.recovery_dropped);
        put("recovery.inconsistent_apps", self.inconsistent_apps);
        map
    }

    /// The stats as the `stats` object of a perf JSON dump: every field,
    /// except that a run without streams leaves out the stream counters
    /// it never measured.
    pub fn perf_json(&self) -> serde::Value {
        let mut json = self.to_json();
        if let (false, serde::Value::Object(fields)) = (self.journaled, &mut json) {
            fields.retain(|(name, _)| !STREAM_FIELDS.contains(&name.as_str()));
        }
        json
    }
}

/// The [`SweepStats`] fields only a journaled run measures: the I/O
/// accounting of its stream sinks and what its finalize replaced.
const STREAM_FIELDS: [&str; 6] = [
    "journal_syncs",
    "io_retries",
    "io_backoff_us",
    "shed_events",
    "shed_provenance",
    "finalized_streams",
];

/// The complete measurement output: per-app records plus the Table VIII
/// environment counts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeasurementReport {
    records: Vec<AppRecord>,
    env: EnvCounts,
    /// Per-file environment-rerun outcomes (the detail behind `env`),
    /// deterministic and config-independent, so it is part of the
    /// serialized measurement. Empty when re-runs were disabled.
    env_loads: Vec<EnvLoad>,
    /// Perf telemetry; deliberately excluded from the serialized form
    /// (see [`SweepStats`]) via `#[serde(skip)]` — serialization omits
    /// the field, deserialization restores `SweepStats::default()`.
    #[serde(skip)]
    stats: SweepStats,
}

/// One column (DEX or native) of Table II.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table2Column {
    /// Apps with this kind of DCL code (the column denominator).
    pub total: usize,
    /// Rewriting failures.
    pub rewriting_failure: usize,
    /// Apps without a launchable activity.
    pub no_activity: usize,
    /// Runtime crashes.
    pub crash: usize,
    /// Harness failures: analyzer panics, blown per-app deadlines, and
    /// resource-sanity rejections — failures of the measurement, not of
    /// the app.
    pub harness_failure: usize,
    /// Successfully exercised apps.
    pub exercised: usize,
    /// Apps whose DCL executed and was intercepted.
    pub intercepted: usize,
}

impl Table2Column {
    /// Total failures (rewriting + no activity + crash + harness).
    pub fn failure(&self) -> usize {
        self.rewriting_failure + self.no_activity + self.crash + self.harness_failure
    }
}

/// Table II: dynamic-analysis summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table2 {
    /// DEX column.
    pub dex: Table2Column,
    /// Native column.
    pub native: Table2Column,
}

/// One row of Table III.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PopularityRow {
    /// Number of apps in the group.
    pub apps: usize,
    /// Mean download count.
    pub mean_downloads: f64,
    /// Mean rating count.
    pub mean_ratings: f64,
    /// Mean average rating.
    pub mean_rating: f64,
}

/// Table III: DCL vs. application popularity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Table3 {
    /// Apps with DEX DCL code.
    pub dex: PopularityRow,
    /// Apps without DEX DCL code.
    pub without_dex: PopularityRow,
    /// Apps with native DCL code.
    pub native: PopularityRow,
    /// Apps without native DCL code.
    pub without_native: PopularityRow,
}

/// One row (DEX or native) of Table IV.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table4Row {
    /// Intercepted apps (denominator).
    pub total: usize,
    /// Apps with any third-party-initiated load.
    pub third_party: usize,
    /// Apps with any own-code-initiated load.
    pub own: usize,
    /// Apps with both.
    pub both: usize,
}

/// Table IV: responsible entity of DCL.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table4 {
    /// DEX row.
    pub dex: Table4Row,
    /// Native row.
    pub native: Table4Row,
}

/// Table V: apps executing remotely fetched code.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table5 {
    /// `(package, source URLs)` per violating app.
    pub apps: Vec<(String, Vec<String>)>,
}

/// Table VI: obfuscation technique adoption.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table6 {
    /// Corpus size (denominator).
    pub total: usize,
    /// Lexical obfuscation.
    pub lexical: usize,
    /// Reflection.
    pub reflection: usize,
    /// Native code (confirmed dynamically, as in the paper).
    pub native: usize,
    /// DEX encryption (packing).
    pub dex_encryption: usize,
    /// Anti-decompilation.
    pub anti_decompilation: usize,
}

/// Figure 3: DEX-encryption apps per category.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Figure3 {
    /// `(category name, #apps)`, descending, zero categories omitted.
    pub counts: Vec<(String, usize)>,
}

/// One family row of Table VII.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Table7Row {
    /// Family name.
    pub family: String,
    /// Whether the payloads are native code.
    pub native: bool,
    /// Number of apps loading this family.
    pub apps: usize,
    /// Number of distinct malicious files.
    pub files: usize,
    /// Sample app: `(package, downloads)` of the most-downloaded carrier.
    pub sample: Option<(String, u64)>,
}

/// Table VII: malware detected in dynamically loaded code.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Table7 {
    /// Family rows.
    pub rows: Vec<Table7Row>,
}

/// Table IX: vulnerable applications.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table9 {
    /// DEX loaded from external storage: `(package, downloads)`.
    pub dex_external: Vec<(String, u64)>,
    /// Native code from other apps' internal storage.
    pub native_foreign: Vec<(String, u64)>,
}

/// One privacy-type row of Table X.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table10Row {
    /// The privacy type.
    pub privacy: PrivacyType,
    /// Apps leaking it through loaded code.
    pub apps: usize,
    /// Of those, apps where the leak is exclusively third-party.
    pub exclusively_third_party: usize,
}

/// Table X: privacy tracking in dynamically loaded code.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Table10 {
    /// Intercepted-DEX app population (denominator).
    pub population: usize,
    /// One row per privacy type, Table X order.
    pub rows: Vec<Table10Row>,
}

fn pct(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        (part as f64) * 100.0 / (whole as f64)
    }
}

impl MeasurementReport {
    /// Builds a report.
    pub fn new(records: Vec<AppRecord>, env: EnvCounts) -> Self {
        MeasurementReport {
            records,
            env,
            env_loads: Vec::new(),
            stats: SweepStats::default(),
        }
    }

    /// The per-app records.
    pub fn records(&self) -> &[AppRecord] {
        &self.records
    }

    /// The environment-rerun counts.
    pub fn env_counts(&self) -> &EnvCounts {
        &self.env
    }

    /// Per-file environment-rerun outcomes (empty when re-runs were off).
    pub fn env_loads(&self) -> &[EnvLoad] {
        &self.env_loads
    }

    /// Attaches per-file environment outcomes (called by the pipeline).
    pub fn set_env_loads(&mut self, loads: Vec<EnvLoad>) {
        self.env_loads = loads;
    }

    /// The corpus-level provenance index: remote-origin chains per
    /// entity, top staging directories, and the environment-divergence
    /// set — computed on demand from the records and env outcomes.
    pub fn provenance_index(&self) -> ProvenanceIndex {
        let mut remote_apps = 0usize;
        let mut remote_files: std::collections::BTreeSet<&str> = Default::default();
        let mut by_entity: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut dirs: BTreeMap<String, usize> = BTreeMap::new();
        for record in &self.records {
            let Some(d) = &record.dynamic else { continue };
            if !d.remote_loads.is_empty() {
                remote_apps += 1;
            }
            for (path, _) in &d.remote_loads {
                remote_files.insert(path);
                // Entity of the chain = entity of the call sites that
                // loaded the file (a path loaded by both counts once
                // per entity).
                let mut own = false;
                let mut third = false;
                for event in d.dex_events.iter().chain(d.native_events.iter()) {
                    if event.path == *path {
                        match dydroid_analysis::entity::classify(
                            &record.package,
                            &event.call_site_class,
                        ) {
                            dydroid_analysis::Entity::Own => own = true,
                            dydroid_analysis::Entity::ThirdParty => third = true,
                        }
                    }
                }
                if own {
                    *by_entity.entry("own").or_insert(0) += 1;
                }
                if third {
                    *by_entity.entry("third-party").or_insert(0) += 1;
                }
            }
            for event in d.dex_events.iter().chain(d.native_events.iter()) {
                let dir = match event.path.rsplit_once('/') {
                    Some((dir, _)) if !dir.is_empty() => dir.to_string(),
                    _ => "/".to_string(),
                };
                *dirs.entry(dir).or_insert(0) += 1;
            }
        }
        let mut staging_dirs: Vec<(String, usize)> = dirs.into_iter().collect();
        staging_dirs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        staging_dirs.truncate(10);
        let n_configs = crate::environment::config_names().len();
        let divergent: Vec<(String, String, Vec<String>)> = self
            .env_loads
            .iter()
            .filter(|l| l.configs.len() < n_configs)
            .map(|l| (l.package.clone(), l.path.clone(), l.configs.clone()))
            .collect();
        ProvenanceIndex {
            remote_apps,
            remote_files: remote_files.len(),
            remote_by_entity: by_entity
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            staging_dirs,
            divergent,
        }
    }

    /// Perf telemetry of the run that produced this report (zeroed on
    /// deserialized reports — it is not part of the measurement).
    pub fn stats(&self) -> &SweepStats {
        &self.stats
    }

    /// Attaches perf telemetry (called by the pipeline).
    pub fn set_stats(&mut self, stats: SweepStats) {
        self.stats = stats;
    }

    /// Renders the perf telemetry: per-phase wall-times plus cache
    /// hit/miss/unique-binary counters. Kept separate from
    /// [`MeasurementReport::render_all`] so rendered measurement output
    /// stays deterministic.
    pub fn render_perf(&self) -> String {
        let mut s = String::new();
        let st = &self.stats;
        let _ = writeln!(
            s,
            "PERF — {} apps in {} ms ({:.1} apps/sec)",
            st.analyzed_apps,
            st.total_ms(),
            st.apps_per_sec()
        );
        let _ = writeln!(s, "{:<26}{:>8} ms", "  corpus sweep", st.sweep_ms);
        let _ = writeln!(s, "{:<26}{:>8} ms", "  environment re-runs", st.env_ms);
        let c = &st.cache;
        let hit_rate = c.hit_rate().map_or_else(
            || "hit rate not measured".to_string(),
            |r| format!("{:.2}% hit rate", r * 100.0),
        );
        let _ = writeln!(
            s,
            "  cache: {} hits / {} misses ({hit_rate}), {} unique binaries",
            c.hits, c.misses, c.entries
        );
        let _ = writeln!(
            s,
            "  analyses: {} signature builds, {} taint runs",
            c.sig_builds, c.taint_runs
        );
        let d = &st.detector;
        let _ = writeln!(
            s,
            "  detector: {} candidates, {} pruned ({:.1}%), {} fully scored, {} exact-match exits",
            d.candidates,
            d.pruned,
            d.prune_rate() * 100.0,
            d.fully_scored,
            d.early_exits
        );
        // Only telemetry collects these counters (see `counter_map`).
        if st.telemetry {
            let _ = writeln!(
                s,
                "  instrumentation bounds: {} events dropped, {} flow edges truncated, {} deduped",
                st.dropped_events, st.flow_truncated, st.flow_deduped
            );
        }
        let ic_total = st.ic_call_hits + st.ic_call_misses + st.ic_field_hits + st.ic_field_misses;
        if ic_total > 0 {
            let hits = st.ic_call_hits + st.ic_field_hits;
            let _ = writeln!(
                s,
                "  avm inline caches: {} call hits / {} misses, {} field hits / {} misses ({:.2}% hit rate)",
                st.ic_call_hits,
                st.ic_call_misses,
                st.ic_field_hits,
                st.ic_field_misses,
                hits as f64 / ic_total as f64 * 100.0
            );
        }
        if st.journaled {
            let _ = writeln!(
                s,
                "  durability: {} journal fsyncs, {} transient retries ({} µs backoff), {} events / {} provenance records shed",
                st.journal_syncs, st.io_retries, st.io_backoff_us, st.shed_events, st.shed_provenance
            );
        }
        if st.recovered_records > 0 || st.recovery_dropped > 0 || st.inconsistent_apps > 0 {
            let _ = writeln!(
                s,
                "  recovery: {} records resumed, {} corrupt frames dropped, {} inconsistent apps re-analysed",
                st.recovered_records, st.recovery_dropped, st.inconsistent_apps
            );
        }
        if st.app_wall.count > 0 {
            let _ = writeln!(
                s,
                "  per-app wall: p50 {} µs / p95 {} µs / p99 {} µs over {} apps (mean {:.0} µs)",
                st.app_wall.p50,
                st.app_wall.p95,
                st.app_wall.p99,
                st.app_wall.count,
                st.app_wall.mean()
            );
            let workers = st.worker_stats.len();
            let budget_us = (workers as u64).saturating_mul(st.sweep_ms) * 1_000;
            if budget_us > 0 {
                let _ = writeln!(
                    s,
                    "  worker utilization: {:.1}% of {} workers × {} ms",
                    100.0 * st.app_wall.sum as f64 / budget_us as f64,
                    workers,
                    st.sweep_ms
                );
            }
        }
        if !st.worker_stats.is_empty() {
            let executed: u64 = st.worker_stats.iter().map(|w| w.executed).sum();
            let makespan = virtual_makespan_us(&st.worker_stats);
            let total_virtual: u64 = st.worker_stats.iter().map(|w| w.virtual_us).sum();
            let _ = writeln!(
                s,
                "  scheduler: {} tasks over {} workers",
                executed,
                st.worker_stats.len(),
            );
            if makespan > 0 {
                let _ = writeln!(
                    s,
                    "  virtual makespan: {} µs (balance {:.1}% of {} µs total virtual cost)",
                    makespan,
                    100.0 * total_virtual as f64
                        / (makespan.saturating_mul(st.worker_stats.len() as u64)).max(1) as f64,
                    total_virtual
                );
            }
            for (i, w) in st.worker_stats.iter().enumerate() {
                let _ = writeln!(
                    s,
                    "    worker {:<3} {:>6} tasks {:>12} µs busy {:>12} µs virtual",
                    i, w.executed, w.busy_us, w.virtual_us
                );
            }
        }
        // Observatory stall section: straggler apps, idle workers, and
        // virtual imbalance from the same WorkerStats the scheduler block
        // reports — rendered only when something actually stalled.
        let idle = idle_workers(&st.worker_stats);
        let balance = parallel_balance(&st.worker_stats);
        let imbalanced = st.worker_stats.len() > 1 && balance < 0.5;
        if st.straggler_warnings > 0 || idle > 0 || imbalanced {
            let _ = writeln!(
                s,
                "  stalls: {} straggler(s) flagged, {} idle worker(s), virtual balance {:.1}%",
                st.straggler_warnings,
                idle,
                balance * 100.0
            );
        }
        if !st.stragglers.is_empty() {
            let _ = writeln!(
                s,
                "  slowest stragglers (virtual µs vs running median at flag time):"
            );
            for entry in &st.stragglers {
                let phases = if entry.phases.is_empty() {
                    String::new()
                } else {
                    let parts: Vec<String> = entry
                        .phases
                        .iter()
                        .map(|(name, us)| format!("{name} {us} µs"))
                        .collect();
                    format!(" — {}", parts.join(", "))
                };
                let _ = writeln!(
                    s,
                    "    {:<40} {:>10} µs vs {:>8} µs{phases}",
                    entry.package, entry.virtual_us, entry.median_virtual_us
                );
            }
        }
        if !st.phases.is_empty() {
            let _ = writeln!(
                s,
                "  {:<26}{:>10}{:>12}{:>12}{:>12}",
                "phase histograms", "count", "p50 µs", "p95 µs", "p99 µs"
            );
            for (name, h) in &st.phases {
                let _ = writeln!(
                    s,
                    "    {:<24}{:>10}{:>12}{:>12}{:>12}",
                    name, h.count, h.p50, h.p95, h.p99
                );
            }
        }
        s
    }

    fn dex_population(&self) -> impl Iterator<Item = &AppRecord> {
        self.records.iter().filter(|r| r.filter.has_dex_dcl)
    }

    fn native_population(&self) -> impl Iterator<Item = &AppRecord> {
        self.records.iter().filter(|r| r.filter.has_native_dcl)
    }

    /// Computes Table II.
    pub fn table2(&self) -> Table2 {
        let column = |records: Vec<&AppRecord>, dex: bool| {
            let mut col = Table2Column {
                total: records.len(),
                ..Default::default()
            };
            for r in records {
                match r.dynamic.as_ref().map(|d| &d.status) {
                    Some(DynamicStatus::RewriteFailure) => col.rewriting_failure += 1,
                    Some(DynamicStatus::NoActivity) => col.no_activity += 1,
                    Some(DynamicStatus::Crash) => col.crash += 1,
                    Some(DynamicStatus::AnalysisFailure { .. }) => col.harness_failure += 1,
                    Some(DynamicStatus::Exercised) => {
                        col.exercised += 1;
                        let intercepted = if dex {
                            r.dex_intercepted()
                        } else {
                            r.native_intercepted()
                        };
                        if intercepted {
                            col.intercepted += 1;
                        }
                    }
                    None => {}
                }
            }
            col
        };
        Table2 {
            dex: column(self.dex_population().collect(), true),
            native: column(self.native_population().collect(), false),
        }
    }

    /// Computes Table III.
    pub fn table3(&self) -> Table3 {
        let row = |pred: &dyn Fn(&AppRecord) -> bool| {
            let group: Vec<&AppRecord> = self.records.iter().filter(|r| pred(r)).collect();
            let n = group.len();
            if n == 0 {
                return PopularityRow::default();
            }
            PopularityRow {
                apps: n,
                mean_downloads: group
                    .iter()
                    .map(|r| r.metadata.downloads as f64)
                    .sum::<f64>()
                    / n as f64,
                mean_ratings: group
                    .iter()
                    .map(|r| r.metadata.rating_count as f64)
                    .sum::<f64>()
                    / n as f64,
                mean_rating: group.iter().map(|r| r.metadata.avg_rating).sum::<f64>() / n as f64,
            }
        };
        Table3 {
            dex: row(&|r| r.filter.has_dex_dcl),
            without_dex: row(&|r| !r.filter.has_dex_dcl),
            native: row(&|r| r.filter.has_native_dcl),
            without_native: row(&|r| !r.filter.has_native_dcl),
        }
    }

    /// Computes Table IV.
    pub fn table4(&self) -> Table4 {
        let mut t = Table4::default();
        for r in &self.records {
            let Some(d) = &r.dynamic else { continue };
            if r.dex_intercepted() {
                t.dex.total += 1;
                if d.dex_entity.third_party {
                    t.dex.third_party += 1;
                }
                if d.dex_entity.own {
                    t.dex.own += 1;
                }
                if d.dex_entity.both() {
                    t.dex.both += 1;
                }
            }
            if r.native_intercepted() {
                t.native.total += 1;
                if d.native_entity.third_party {
                    t.native.third_party += 1;
                }
                if d.native_entity.own {
                    t.native.own += 1;
                }
                if d.native_entity.both() {
                    t.native.both += 1;
                }
            }
        }
        t
    }

    /// Computes Table V.
    pub fn table5(&self) -> Table5 {
        let mut apps = Vec::new();
        for r in &self.records {
            let Some(d) = &r.dynamic else { continue };
            if d.status != DynamicStatus::Exercised || d.remote_loads.is_empty() {
                continue;
            }
            let mut urls: Vec<String> =
                d.remote_loads.iter().flat_map(|(_, u)| u.clone()).collect();
            urls.sort();
            urls.dedup();
            apps.push((r.package.clone(), urls));
        }
        apps.sort();
        Table5 { apps }
    }

    /// Computes Table VI. The native row is confirmed dynamically, as in
    /// the paper ("identified by confirming with the output of our
    /// dynamic analysis").
    pub fn table6(&self) -> Table6 {
        let mut t = Table6 {
            total: self.records.len(),
            ..Default::default()
        };
        for r in &self.records {
            if r.obfuscation.lexical {
                t.lexical += 1;
            }
            if r.obfuscation.reflection {
                t.reflection += 1;
            }
            if r.native_intercepted() {
                t.native += 1;
            }
            if r.obfuscation.dex_encryption {
                t.dex_encryption += 1;
            }
            if r.obfuscation.anti_decompilation {
                t.anti_decompilation += 1;
            }
        }
        t
    }

    /// Computes Figure 3.
    pub fn figure3(&self) -> Figure3 {
        let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
        for r in &self.records {
            if r.obfuscation.dex_encryption {
                *counts.entry(r.metadata.category).or_insert(0) += 1;
            }
        }
        let mut counts: Vec<(String, usize)> = counts
            .into_iter()
            .map(|(cat, n)| {
                (
                    dydroid_workload::categories::CATEGORIES
                        .get(cat)
                        .copied()
                        .unwrap_or("Unknown")
                        .to_string(),
                    n,
                )
            })
            .collect();
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        Figure3 { counts }
    }

    /// Computes Table VII.
    pub fn table7(&self) -> Table7 {
        let mut families: BTreeMap<String, Table7Row> = BTreeMap::new();
        for r in &self.records {
            let Some(d) = &r.dynamic else { continue };
            if d.malware.is_empty() {
                continue;
            }
            let mut seen_families: Vec<&str> = Vec::new();
            for hit in &d.malware {
                let row = families
                    .entry(hit.family.clone())
                    .or_insert_with(|| Table7Row {
                        family: hit.family.clone(),
                        native: hit.native,
                        ..Default::default()
                    });
                row.files += 1;
                if !seen_families.contains(&hit.family.as_str()) {
                    seen_families.push(&hit.family);
                    row.apps += 1;
                    let downloads = r.metadata.downloads;
                    if row
                        .sample
                        .as_ref()
                        .map(|(_, d)| downloads > *d)
                        .unwrap_or(true)
                    {
                        row.sample = Some((r.package.clone(), downloads));
                    }
                }
            }
        }
        Table7 {
            rows: families.into_values().collect(),
        }
    }

    /// Computes Table IX.
    pub fn table9(&self) -> Table9 {
        let mut t = Table9::default();
        for r in &self.records {
            let Some(d) = &r.dynamic else { continue };
            for v in &d.vulns {
                match v {
                    VulnKind::ExternalStorage => {
                        t.dex_external
                            .push((r.package.clone(), r.metadata.downloads));
                    }
                    VulnKind::ForeignInternalStorage { .. } => {
                        t.native_foreign
                            .push((r.package.clone(), r.metadata.downloads));
                    }
                }
            }
        }
        t.dex_external
            .sort_by_key(|(_, downloads)| std::cmp::Reverse(*downloads));
        t.native_foreign
            .sort_by_key(|(_, downloads)| std::cmp::Reverse(*downloads));
        t
    }

    /// Computes Table X.
    pub fn table10(&self) -> Table10 {
        let population = self.records.iter().filter(|r| r.dex_intercepted()).count();
        let rows = PrivacyType::ALL
            .iter()
            .map(|&privacy| {
                let mut apps = 0;
                let mut excl = 0;
                for r in &self.records {
                    if !r.dex_intercepted() {
                        continue;
                    }
                    let Some(d) = &r.dynamic else { continue };
                    if let Some(l) = d.leak_types.iter().find(|l| l.privacy == privacy) {
                        apps += 1;
                        if l.exclusively_third_party {
                            excl += 1;
                        }
                    }
                }
                Table10Row {
                    privacy,
                    apps,
                    exclusively_third_party: excl,
                }
            })
            .collect();
        Table10 { population, rows }
    }

    /// Renders every table and the figure as one text report.
    pub fn render_all(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.table2().render());
        out.push('\n');
        out.push_str(&self.table3().render());
        out.push('\n');
        out.push_str(&self.table4().render());
        out.push('\n');
        out.push_str(&self.table5().render());
        out.push('\n');
        out.push_str(&self.table6().render());
        out.push('\n');
        out.push_str(&self.figure3().render());
        out.push('\n');
        out.push_str(&self.table7().render());
        out.push('\n');
        out.push_str(&self.env.render());
        out.push('\n');
        out.push_str(&self.table9().render());
        out.push('\n');
        out.push_str(&self.table10().render());
        out.push('\n');
        out.push_str(&self.provenance_index().render());
        out
    }
}

impl Table2 {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "TABLE II — Dynamic analysis summary ({} apps DEX, {} apps native)",
            self.dex.total, self.native.total
        );
        let _ = writeln!(s, "{:<22}{:>18}{:>18}", "", "DEX", "Native");
        let row = |s: &mut String, label: &str, d: usize, dt: usize, n: usize, nt: usize| {
            let _ = writeln!(
                s,
                "{:<22}{:>10} ({:>5.2}%){:>10} ({:>5.2}%)",
                label,
                d,
                pct(d, dt),
                n,
                pct(n, nt)
            );
        };
        row(
            &mut s,
            "Failure",
            self.dex.failure(),
            self.dex.total,
            self.native.failure(),
            self.native.total,
        );
        row(
            &mut s,
            "  Rewriting failure",
            self.dex.rewriting_failure,
            self.dex.total,
            self.native.rewriting_failure,
            self.native.total,
        );
        row(
            &mut s,
            "  No activity",
            self.dex.no_activity,
            self.dex.total,
            self.native.no_activity,
            self.native.total,
        );
        row(
            &mut s,
            "  Crash",
            self.dex.crash,
            self.dex.total,
            self.native.crash,
            self.native.total,
        );
        row(
            &mut s,
            "  Harness failure",
            self.dex.harness_failure,
            self.dex.total,
            self.native.harness_failure,
            self.native.total,
        );
        row(
            &mut s,
            "Exercised",
            self.dex.exercised,
            self.dex.total,
            self.native.exercised,
            self.native.total,
        );
        row(
            &mut s,
            "Intercepted",
            self.dex.intercepted,
            self.dex.total,
            self.native.intercepted,
            self.native.total,
        );
        s
    }
}

impl Table3 {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "TABLE III — DCL vs. application popularity");
        let _ = writeln!(
            s,
            "{:<16}{:>8}{:>14}{:>12}{:>9}",
            "", "#Apps", "#Downloads", "#Ratings", "Rating"
        );
        let row = |s: &mut String, label: &str, r: &PopularityRow| {
            let _ = writeln!(
                s,
                "{:<16}{:>8}{:>14.0}{:>12.0}{:>9.2}",
                label, r.apps, r.mean_downloads, r.mean_ratings, r.mean_rating
            );
        };
        row(&mut s, "DEX", &self.dex);
        row(&mut s, "Without DEX", &self.without_dex);
        row(&mut s, "Native", &self.native);
        row(&mut s, "Without Native", &self.without_native);
        s
    }
}

impl Table4 {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "TABLE IV — Responsible entity of DCL");
        let _ = writeln!(
            s,
            "{:<8}{:>22}{:>22}{:>22}",
            "", "3rd-party (#Apps)", "Own (#Apps)", "3rd-party & Own"
        );
        let row = |s: &mut String, label: &str, r: &Table4Row| {
            let _ = writeln!(
                s,
                "{:<8}{:>13} ({:>5.2}%){:>13} ({:>5.2}%){:>13} ({:>5.2}%)",
                label,
                r.third_party,
                pct(r.third_party, r.total),
                r.own,
                pct(r.own, r.total),
                r.both,
                pct(r.both, r.total)
            );
        };
        row(&mut s, "DEX", &self.dex);
        row(&mut s, "Native", &self.native);
        s
    }
}

impl Table5 {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "TABLE V — Apps executing remotely fetched code ({} apps)",
            self.apps.len()
        );
        for (pkg, urls) in &self.apps {
            let _ = writeln!(s, "  {pkg}  <- {}", urls.join(", "));
        }
        s
    }
}

impl Table6 {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "TABLE VI — Obfuscation techniques out of {} applications",
            self.total
        );
        let row = |s: &mut String, label: &str, n: usize, total: usize| {
            let _ = writeln!(s, "{:<22}{:>8} ({:>5.2}%)", label, n, pct(n, total));
        };
        row(&mut s, "Lexical", self.lexical, self.total);
        row(&mut s, "Reflection", self.reflection, self.total);
        row(&mut s, "Native", self.native, self.total);
        row(&mut s, "DEX encryption", self.dex_encryption, self.total);
        row(
            &mut s,
            "Anti-decompilation",
            self.anti_decompilation,
            self.total,
        );
        s
    }
}

impl Figure3 {
    /// Renders the figure as a text histogram.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "FIGURE 3 — #Apps with DEX encryption vs. category");
        for (cat, n) in &self.counts {
            let _ = writeln!(s, "{:<22}{:>4} {}", cat, n, "#".repeat(*n));
        }
        s
    }
}

impl Table7 {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let total_apps: usize = self.rows.iter().map(|r| r.apps).sum();
        let total_files: usize = self.rows.iter().map(|r| r.files).sum();
        let _ = writeln!(
            s,
            "TABLE VII — Malware detected in DCL ({total_apps} apps, {total_files} files)"
        );
        let _ = writeln!(
            s,
            "{:<8}{:<26}{:>7}{:>7}  Sample app (#Downloads)",
            "Kind", "Family", "#Apps", "#Files"
        );
        for row in &self.rows {
            let sample = row
                .sample
                .as_ref()
                .map(|(p, d)| format!("{p} ({d})"))
                .unwrap_or_default();
            let _ = writeln!(
                s,
                "{:<8}{:<26}{:>7}{:>7}  {}",
                if row.native { "Native" } else { "DEX" },
                row.family,
                row.apps,
                row.files,
                sample
            );
        }
        s
    }
}

impl EnvCounts {
    /// Renders Table VIII.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "TABLE VIII — Malicious code loaded in various configurations over {} files",
            self.total_files
        );
        let row = |s: &mut String, label: &str, n: usize, total: usize| {
            let _ = writeln!(s, "{:<26}{:>6} ({:>5.2}%)", label, n, pct(n, total));
        };
        row(
            &mut s,
            "System time",
            self.time_before_release,
            self.total_files,
        );
        row(
            &mut s,
            "Airplane mode/WiFi ON",
            self.airplane_wifi_on,
            self.total_files,
        );
        row(
            &mut s,
            "Airplane mode/WiFi OFF",
            self.airplane_wifi_off,
            self.total_files,
        );
        row(&mut s, "Location OFF", self.location_off, self.total_files);
        s
    }
}

impl Table9 {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "TABLE IX — Vulnerable applications ({} apps)",
            self.dex_external.len() + self.native_foreign.len()
        );
        let _ = writeln!(
            s,
            "DEX / External storage (< Android 4.4): {}",
            self.dex_external.len()
        );
        for (pkg, downloads) in &self.dex_external {
            let _ = writeln!(s, "  {pkg} ({downloads})");
        }
        let _ = writeln!(
            s,
            "Native / Internal storage of other applications: {}",
            self.native_foreign.len()
        );
        for (pkg, downloads) in &self.native_foreign {
            let _ = writeln!(s, "  {pkg} ({downloads})");
        }
        s
    }
}

impl Table10 {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "TABLE X — Privacy tracking in dynamically loaded code ({} apps)",
            self.population
        );
        let _ = writeln!(
            s,
            "{:<26}{:>6}{:>8}  Exclusively 3rd-party (%)",
            "Data type", "Categ", "#Apps"
        );
        for row in &self.rows {
            let cat = match row.privacy.category() {
                dydroid_analysis::PrivacyCategory::Location => "L",
                dydroid_analysis::PrivacyCategory::PhoneIdentity => "PI",
                dydroid_analysis::PrivacyCategory::UserIdentity => "UI",
                dydroid_analysis::PrivacyCategory::UsagePattern => "UP",
                dydroid_analysis::PrivacyCategory::ContentProvider => "CP",
            };
            let _ = writeln!(
                s,
                "{:<26}{:>6}{:>8}  {} ({:.2}%)",
                row.privacy.label(),
                cat,
                row.apps,
                row.exclusively_third_party,
                pct(row.exclusively_third_party, row.apps)
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{DynamicOutcome, DynamicStatus, LeakSummary, MalwareHit};
    use dydroid_analysis::entity::EntityMix;
    use dydroid_avm::{DclEvent, DclKind};
    use dydroid_workload::AppMetadata;

    const TELEMETRY_COUNTERS: [&str; 8] = [
        "ic.call_hits",
        "ic.call_misses",
        "ic.field_hits",
        "ic.field_misses",
        "events.dropped",
        "flow.truncated",
        "flow.deduped",
        "watchdog.stragglers",
    ];

    #[test]
    fn counter_map_omits_telemetry_counters_when_telemetry_was_off() {
        let stats = SweepStats {
            telemetry: false,
            analyzed_apps: 3,
            ..SweepStats::default()
        };
        let map = stats.counter_map();
        assert_eq!(map.get("apps.analyzed"), Some(&3));
        for name in TELEMETRY_COUNTERS {
            assert!(!map.contains_key(name), "{name} reported without telemetry");
        }
    }

    #[test]
    fn counter_map_reports_telemetry_counters_when_telemetry_was_on() {
        let stats = SweepStats {
            telemetry: true,
            ic_call_hits: 7,
            straggler_warnings: 2,
            ..SweepStats::default()
        };
        let map = stats.counter_map();
        for name in TELEMETRY_COUNTERS {
            assert!(map.contains_key(name), "{name} missing with telemetry on");
        }
        assert_eq!(map.get("ic.call_hits"), Some(&7));
        assert_eq!(map.get("watchdog.stragglers"), Some(&2));
        assert_eq!(map.get("flow.deduped"), Some(&0));
    }

    #[test]
    fn stream_counters_are_reported_only_for_a_journaled_run() {
        let stream_counters = [
            "io.journal_syncs",
            "io.retries",
            "io.backoff_us",
            "io.shed_events",
            "io.shed_provenance",
        ];
        let worker = WorkerStats {
            executed: 3,
            ..WorkerStats::default()
        };
        for journaled in [false, true] {
            let stats = SweepStats {
                journaled,
                journal_syncs: 4,
                worker_stats: vec![worker],
                ..SweepStats::default()
            };
            let map = stats.counter_map();
            for name in stream_counters {
                assert_eq!(map.contains_key(name), journaled, "{name}");
            }
            let json = stats.perf_json();
            for field in STREAM_FIELDS {
                assert_eq!(json.get(field).is_some(), journaled, "{field}");
            }
            assert_eq!(
                json.get("journal_syncs").and_then(|v| v.as_u64()),
                journaled.then_some(4)
            );
            let mut report = MeasurementReport::new(Vec::new(), Default::default());
            report.set_stats(stats);
            let perf = report.render_perf();
            assert_eq!(perf.contains("durability:"), journaled, "{perf}");
            assert!(!perf.contains("shard"), "{perf}");
            assert!(json.get("shard_contention").is_none());
            assert!(perf.contains("scheduler: 3 tasks over 1 workers"), "{perf}");
        }
    }

    #[test]
    fn render_perf_prints_instrumentation_bounds_only_when_telemetry_was_on() {
        for telemetry in [false, true] {
            let mut report = MeasurementReport::new(Vec::new(), Default::default());
            report.set_stats(SweepStats {
                telemetry,
                ..SweepStats::default()
            });
            let perf = report.render_perf();
            assert_eq!(
                perf.contains("instrumentation bounds:"),
                telemetry,
                "{perf}"
            );
        }
    }

    #[test]
    fn render_perf_says_when_the_cache_hit_rate_was_not_measured() {
        // A resume that analysed nothing made no cache lookup.
        let report = MeasurementReport::new(Vec::new(), Default::default());
        let perf = report.render_perf();
        assert!(
            perf.contains("0 hits / 0 misses (hit rate not measured)"),
            "{perf}"
        );
        assert!(!perf.contains("0.00% hit rate"), "{perf}");
    }

    fn metadata(category: usize, downloads: u64) -> AppMetadata {
        AppMetadata {
            category,
            downloads,
            rating_count: downloads / 30,
            avg_rating: 4.0,
        }
    }

    fn dcl_event(kind: DclKind, path: &str, call_site: &str) -> DclEvent {
        DclEvent {
            kind,
            path: path.to_string(),
            odex_dir: None,
            call_site_class: call_site.to_string(),
            stack: vec![format!("{call_site}->init")],
            package: "t".to_string(),
            success: true,
        }
    }

    fn empty_dynamic(status: DynamicStatus) -> DynamicOutcome {
        DynamicOutcome {
            status,
            dex_events: Vec::new(),
            native_events: Vec::new(),
            remote_loads: Vec::new(),
            dex_entity: EntityMix::default(),
            native_entity: EntityMix::default(),
            vulns: Vec::new(),
            malware: Vec::new(),
            leaks: Vec::new(),
            leak_types: Vec::new(),
        }
    }

    fn record(package: &str) -> AppRecord {
        AppRecord {
            package: package.to_string(),
            metadata: metadata(0, 1000),
            decompiled: true,
            filter: dydroid_analysis::DclFilter {
                has_dex_dcl: true,
                has_native_dcl: false,
            },
            obfuscation: Default::default(),
            rewritten: false,
            dynamic: Some(empty_dynamic(DynamicStatus::Exercised)),
        }
    }

    #[test]
    fn table2_classifies_statuses() {
        let mut records = Vec::new();
        for (i, status) in [
            DynamicStatus::Exercised,
            DynamicStatus::Crash,
            DynamicStatus::NoActivity,
            DynamicStatus::RewriteFailure,
            DynamicStatus::AnalysisFailure {
                reason: "worker panicked: boom".to_string(),
            },
        ]
        .into_iter()
        .enumerate()
        {
            let mut r = record(&format!("app{i}"));
            r.dynamic = Some(empty_dynamic(status));
            records.push(r);
        }
        // One exercised app actually intercepted.
        let mut hit = record("app.hit");
        let mut d = empty_dynamic(DynamicStatus::Exercised);
        d.dex_events
            .push(dcl_event(DclKind::DexClassLoader, "/p", "com.sdk.X"));
        hit.dynamic = Some(d);
        records.push(hit);

        let report = MeasurementReport::new(records, EnvCounts::default());
        let t2 = report.table2();
        assert_eq!(t2.dex.total, 6);
        assert_eq!(t2.dex.crash, 1);
        assert_eq!(t2.dex.no_activity, 1);
        assert_eq!(t2.dex.rewriting_failure, 1);
        assert_eq!(t2.dex.harness_failure, 1);
        assert_eq!(t2.dex.failure(), 4);
        assert_eq!(t2.dex.exercised, 2);
        assert_eq!(t2.dex.intercepted, 1);
        // No native population at all.
        assert_eq!(t2.native.total, 0);
        assert!(report.table2().render().contains("Harness failure"));
    }

    #[test]
    fn table4_entity_mix_counting() {
        let mk = |own, third| {
            let mut r = record("x");
            let mut d = empty_dynamic(DynamicStatus::Exercised);
            d.dex_events
                .push(dcl_event(DclKind::DexClassLoader, "/p", "c"));
            d.dex_entity = EntityMix {
                own,
                third_party: third,
            };
            r.dynamic = Some(d);
            r
        };
        let report = MeasurementReport::new(
            vec![mk(false, true), mk(true, false), mk(true, true)],
            EnvCounts::default(),
        );
        let t4 = report.table4();
        assert_eq!(t4.dex.total, 3);
        assert_eq!(t4.dex.third_party, 2);
        assert_eq!(t4.dex.own, 2);
        assert_eq!(t4.dex.both, 1);
    }

    #[test]
    fn table7_groups_families_and_picks_top_sample() {
        let mk = |pkg: &str, downloads, family: &str, files| {
            let mut r = record(pkg);
            r.metadata = metadata(0, downloads);
            let mut d = empty_dynamic(DynamicStatus::Exercised);
            for i in 0..files {
                d.malware.push(MalwareHit {
                    path: format!("/m{i}"),
                    family: family.to_string(),
                    score: 1.0,
                    native: false,
                });
            }
            r.dynamic = Some(d);
            r
        };
        let report = MeasurementReport::new(
            vec![
                mk("a.small", 100, "fam", 1),
                mk("a.big", 9_999, "fam", 2),
                mk("b.other", 5, "other_fam", 1),
            ],
            EnvCounts::default(),
        );
        let t7 = report.table7();
        assert_eq!(t7.rows.len(), 2);
        let fam = t7.rows.iter().find(|r| r.family == "fam").unwrap();
        assert_eq!(fam.apps, 2);
        assert_eq!(fam.files, 3);
        assert_eq!(fam.sample.as_ref().unwrap().0, "a.big");
    }

    #[test]
    fn table10_counts_types_and_exclusivity() {
        let mk = |pkg: &str, privacy, excl| {
            let mut r = record(pkg);
            let mut d = empty_dynamic(DynamicStatus::Exercised);
            d.dex_events
                .push(dcl_event(DclKind::DexClassLoader, "/p", "c"));
            d.leak_types.push(LeakSummary {
                privacy,
                exclusively_third_party: excl,
            });
            r.dynamic = Some(d);
            r
        };
        let report = MeasurementReport::new(
            vec![
                mk("a", PrivacyType::Imei, true),
                mk("b", PrivacyType::Imei, false),
                mk("c", PrivacyType::Location, true),
            ],
            EnvCounts::default(),
        );
        let t10 = report.table10();
        assert_eq!(t10.population, 3);
        let imei = t10
            .rows
            .iter()
            .find(|r| r.privacy == PrivacyType::Imei)
            .unwrap();
        assert_eq!(imei.apps, 2);
        assert_eq!(imei.exclusively_third_party, 1);
        let sms = t10
            .rows
            .iter()
            .find(|r| r.privacy == PrivacyType::Sms)
            .unwrap();
        assert_eq!(sms.apps, 0);
    }

    #[test]
    fn figure3_sorted_descending() {
        let mk = |cat| {
            let mut r = record("x");
            r.metadata = metadata(cat, 10);
            r.obfuscation.dex_encryption = true;
            r
        };
        let report = MeasurementReport::new(vec![mk(5), mk(5), mk(21)], EnvCounts::default());
        let fig = report.figure3();
        assert_eq!(fig.counts[0], ("Entertainment".to_string(), 2));
        assert_eq!(fig.counts[1], ("Tools".to_string(), 1));
    }

    #[test]
    fn table5_only_exercised_remote_apps() {
        let mut remote = record("r");
        let mut d = empty_dynamic(DynamicStatus::Exercised);
        d.remote_loads
            .push(("/f".to_string(), vec!["http://x.com/p".to_string()]));
        remote.dynamic = Some(d);
        let mut crashed_remote = record("c");
        let mut d = empty_dynamic(DynamicStatus::Crash);
        d.remote_loads
            .push(("/f".to_string(), vec!["http://y.com/p".to_string()]));
        crashed_remote.dynamic = Some(d);
        let report = MeasurementReport::new(vec![remote, crashed_remote], EnvCounts::default());
        let t5 = report.table5();
        assert_eq!(t5.apps.len(), 1);
        assert_eq!(t5.apps[0].0, "r");
    }

    #[test]
    fn percentage_helper() {
        assert_eq!(pct(1, 4), 25.0);
        assert_eq!(pct(0, 0), 0.0);
    }

    #[test]
    fn empty_report_renders() {
        let report = MeasurementReport::new(Vec::new(), EnvCounts::default());
        let text = report.render_all();
        assert!(text.contains("TABLE II"));
        assert!(text.contains("TABLE X"));
        assert!(text.contains("FIGURE 3"));
    }

    #[test]
    fn table2_failure_sums() {
        let col = Table2Column {
            total: 100,
            rewriting_failure: 3,
            no_activity: 2,
            crash: 5,
            harness_failure: 4,
            exercised: 86,
            intercepted: 40,
        };
        assert_eq!(col.failure(), 14);
    }
}
