//! The per-app analysis pipeline and the parallel corpus sweep.
//!
//! The sweep is fault-tolerant: every app is analysed under
//! [`std::panic::catch_unwind`] with a per-app deadline and bounded
//! retries, so one hostile app can neither kill a worker nor stall the
//! corpus. See `DESIGN.md`, "Failure taxonomy & fault tolerance".

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, TryLockError};
use std::time::Instant;

use crossbeam::channel;
use dydroid_analysis::decompiler::{self, DecompileError};
use dydroid_analysis::entity::EntityMix;
use dydroid_analysis::obfuscation::{self, ObfuscationReport};
use dydroid_analysis::taint::{Leak, PrivacyType, TaintAnalysis};
use dydroid_analysis::{DclFilter, MalwareDetector, VulnKind};
use dydroid_avm::{AvmError, DclEvent, Device, Owner};
use dydroid_dex::apk::CLASSES_ENTRY;
use dydroid_dex::Apk;
use dydroid_monkey::{ExerciseOutcome, Monkey, MonkeyConfig};
use dydroid_workload::{AppMetadata, SyntheticApp};
use serde::{Deserialize, Serialize};

use crate::cache::{content_hash, AnalysisCache, BinaryVerdict, CacheStats};
use crate::config::{
    PipelineConfig, MAX_EVENTS_PER_APP, MAX_RETRIES, METRICS_INTERVAL_US, MONKEY_SEED,
    QUARANTINE_THRESHOLD, STRAGGLER_TOP,
};
use crate::durable::{encode_records, IoHarness, IoState, SinkOptions, StreamEnd, StreamKind};
use crate::profile::{SpanProfile, StragglerEntry, Watchdog};
use crate::provenance::{AppProvenance, ProvenanceLedger};
use crate::report::{MeasurementReport, SweepStats};
use crate::scheduler::{idle_workers, virtual_makespan_us, Lane, Scheduler, WorkerStats};
use crate::sweep::QuarantineEntry;
use crate::telemetry::{HistogramSummary, MetricsSnapshot, Progress, Telemetry};
use crate::training;

/// Outcome category of the dynamic phase (Table II rows).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DynamicStatus {
    /// Repackaging (permission injection) crashed.
    RewriteFailure,
    /// No launchable activity: the Monkey cannot drive the app.
    NoActivity,
    /// The app crashed at runtime.
    Crash,
    /// Successfully exercised.
    Exercised,
    /// The *harness* failed on this app — an analyzer panic, a blown
    /// per-app deadline, or a resource-sanity rejection — as opposed to
    /// the app itself failing. Table II reports these separately so
    /// harness bugs cannot masquerade as app behaviour.
    AnalysisFailure {
        /// Human-readable cause (panic message, deadline report, ...).
        reason: String,
    },
}

/// A malware detection hit on one intercepted file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MalwareHit {
    /// Path of the loaded file.
    pub path: String,
    /// Matched family.
    pub family: String,
    /// ACFG match score.
    pub score: f64,
    /// Whether the file was native code.
    pub native: bool,
}

/// A privacy type leaked by an app's loaded code, with entity attribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeakSummary {
    /// The leaked type.
    pub privacy: PrivacyType,
    /// Whether every leaking class lives outside the app package.
    pub exclusively_third_party: bool,
}

/// Results of the dynamic phase for one app.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicOutcome {
    /// Status category.
    pub status: DynamicStatus,
    /// Successful DEX DCL events.
    pub dex_events: Vec<DclEvent>,
    /// Successful native DCL events.
    pub native_events: Vec<DclEvent>,
    /// Remote-provenance loads: `(loaded path, source URLs)`.
    pub remote_loads: Vec<(String, Vec<String>)>,
    /// Entity mix of DEX loads.
    pub dex_entity: EntityMix,
    /// Entity mix of native loads.
    pub native_entity: EntityMix,
    /// Code-injection vulnerability classifications.
    pub vulns: Vec<VulnKind>,
    /// Malware detections over intercepted binaries.
    pub malware: Vec<MalwareHit>,
    /// Raw taint leaks from intercepted DEX code.
    pub leaks: Vec<Leak>,
    /// Per-type leak summary with entity exclusivity.
    pub leak_types: Vec<LeakSummary>,
}

impl DynamicOutcome {
    /// An outcome with the given status and no observations.
    pub fn empty(status: DynamicStatus) -> Self {
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

    /// A harness-failure outcome with the given reason.
    pub fn failure(reason: impl Into<String>) -> Self {
        DynamicOutcome::empty(DynamicStatus::AnalysisFailure {
            reason: reason.into(),
        })
    }
}

/// The full analysis record of one app.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppRecord {
    /// Package name.
    pub package: String,
    /// Store metadata (popularity, category).
    pub metadata: AppMetadata,
    /// Whether decompilation succeeded.
    pub decompiled: bool,
    /// Static DCL filter result.
    pub filter: DclFilter,
    /// Obfuscation detector results.
    pub obfuscation: ObfuscationReport,
    /// Whether the app was rewritten (permission injection).
    pub rewritten: bool,
    /// Dynamic phase results; `None` when the app never entered it.
    pub dynamic: Option<DynamicOutcome>,
}

impl AppRecord {
    /// Whether DEX DCL was intercepted for this app.
    pub fn dex_intercepted(&self) -> bool {
        self.dynamic
            .as_ref()
            .map(|d| d.status == DynamicStatus::Exercised && !d.dex_events.is_empty())
            .unwrap_or(false)
    }

    /// Whether native DCL was intercepted for this app.
    pub fn native_intercepted(&self) -> bool {
        self.dynamic
            .as_ref()
            .map(|d| d.status == DynamicStatus::Exercised && !d.native_events.is_empty())
            .unwrap_or(false)
    }

    /// The harness-failure reason, if the harness (not the app) failed.
    pub fn harness_failure(&self) -> Option<&str> {
        match self.dynamic.as_ref().map(|d| &d.status) {
            Some(DynamicStatus::AnalysisFailure { reason }) => Some(reason),
            _ => None,
        }
    }
}

/// The DyDroid pipeline.
#[derive(Debug)]
pub struct Pipeline {
    config: PipelineConfig,
    detector: MalwareDetector,
    cache: AnalysisCache,
    telemetry: Telemetry,
    io_harness: Option<Arc<IoHarness>>,
}

impl Pipeline {
    /// Creates a pipeline, training the reference malware detector (the
    /// inverted block index is built once here, at train time).
    pub fn new(config: PipelineConfig) -> Self {
        let telemetry = Telemetry::new(config.telemetry);
        let detector = training::reference_detector_traced(
            dydroid_analysis::acfg::DEFAULT_THRESHOLD,
            &telemetry,
        );
        let cache = AnalysisCache::new().with_telemetry(telemetry.clone());
        Pipeline {
            config,
            detector,
            cache,
            telemetry,
            io_harness: None,
        }
    }

    /// Attaches an I/O fault harness: every persistent-stream write of
    /// subsequent runs is routed through it, so crash-torture tests can
    /// kill the sweep at any write boundary on the deterministic virtual
    /// op clock (see [`crate::durable`]).
    pub fn set_io_harness(&mut self, harness: Arc<IoHarness>) {
        self.io_harness = Some(harness);
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Sink options for `stream`, threading the run's shared I/O state,
    /// the configured sync policy, and any attached fault harness.
    fn sink_options(&self, stream: StreamKind, state: &Arc<IoState>) -> SinkOptions {
        SinkOptions {
            stream,
            policy: self.config.sync_policy,
            state: Arc::clone(state),
            harness: self.io_harness.clone(),
        }
    }

    /// The pipeline's telemetry handle (a no-op handle when
    /// `PipelineConfig::telemetry` is off).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// A point-in-time snapshot of every telemetry metric — counters,
    /// gauges, and per-phase latency histograms (empty when telemetry is
    /// disabled).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.telemetry.snapshot()
    }

    /// A snapshot of the analysis-cache counters (monotonic across runs
    /// of this pipeline; see [`CacheStats::since`] for per-run deltas).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// A snapshot of the signature-matcher counters (monotonic; see
    /// [`dydroid_analysis::DetectorStats::since`] for per-run deltas).
    pub fn detector_stats(&self) -> dydroid_analysis::DetectorStats {
        self.detector.stats()
    }

    /// Runs the full measurement over a corpus, in parallel, and returns
    /// the aggregated report. Per-app failures (panics, deadlines) are
    /// isolated into [`DynamicStatus::AnalysisFailure`] records; the
    /// sweep itself always completes.
    pub fn run(&self, corpus: &[SyntheticApp]) -> MeasurementReport {
        let cache_mark = self.cache.stats();
        let detector_mark = self.detector.stats();
        let avm_marks = self.avm_counter_marks();
        let io_state = IoState::new(self.config.io_retry_budget);
        let (slots, perf, observatory) = self.plain_sweep(corpus);
        self.assemble(
            corpus,
            slots,
            HashMap::new(),
            Vec::new(),
            None,
            &io_state,
            None,
            perf,
            observatory,
            cache_mark,
            detector_mark,
            avm_marks,
        )
    }

    /// The sweep of a plain [`Pipeline::run`]: every corpus app, in
    /// memory. It opens no stream and keeps no provenance graph.
    fn plain_sweep(
        &self,
        corpus: &[SyntheticApp],
    ) -> (Vec<SweepSlot>, SweepPerf, Option<Observatory>) {
        let observatory = Observatory::open(self, false);
        let sweep_start = Instant::now();
        let indices: Vec<usize> = (0..corpus.len()).collect();
        let mut sweep_span = self.telemetry.span("sweep");
        sweep_span.field("apps", indices.len());
        let (slots, worker_stats) = self.sweep(
            corpus,
            &indices,
            None,
            &HashSet::new(),
            observatory.as_ref(),
            sweep_span.id(),
        );
        drop(sweep_span);
        if let Some(obs) = &observatory {
            obs.finish(self);
        }
        let perf = SweepPerf {
            worker_stats,
            stream_shards: 1,
            shard_contention: 0,
            sweep_ms: sweep_start.elapsed().as_millis() as u64,
        };
        (slots, perf, observatory)
    }

    /// Marks of the monotonic avm counters (truncation + inline caches),
    /// for per-run deltas.
    fn avm_counter_marks(&self) -> AvmMarks {
        AvmMarks {
            events_dropped: self.telemetry.counter_value("avm.events_dropped"),
            flow_truncated: self.telemetry.counter_value("avm.flow_edges_truncated"),
            flow_deduped: self.telemetry.counter_value("avm.flow_edges_deduped"),
            ic_call_hits: self.telemetry.counter_value("avm.ic_call_hits"),
            ic_call_misses: self.telemetry.counter_value("avm.ic_call_misses"),
            ic_field_hits: self.telemetry.counter_value("avm.ic_field_hits"),
            ic_field_misses: self.telemetry.counter_value("avm.ic_field_misses"),
        }
    }

    /// Like [`Pipeline::run`], but streams every completed record to
    /// `journal` and skips corpus packages the journal already holds, so
    /// a killed sweep resumes where it left off.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from reading or appending the journal file;
    /// analysis failures never surface as errors.
    pub fn run_resumable(
        &self,
        corpus: &[SyntheticApp],
        journal: &crate::sweep::Journal,
    ) -> std::io::Result<MeasurementReport> {
        // Stitch spans from the previous session — base stream plus any
        // shard streams a killed multi-writer sweep left behind — before
        // recovery merges the shards away.
        if self.telemetry.is_enabled() {
            let mut event_paths = vec![journal.events_path()];
            event_paths.extend(
                journal
                    .discover_shards()
                    .unwrap_or_default()
                    .into_iter()
                    .map(|k| journal.shard_events_path(k)),
            );
            let mut stitched = 0usize;
            for path in &event_paths {
                match self.telemetry.stitch_from(path) {
                    Ok(n) => stitched += n,
                    Err(e) => {
                        eprintln!(
                            "dydroid: failed to stitch events from {}: {e}",
                            path.display()
                        )
                    }
                }
            }
            if stitched > 0 {
                self.telemetry
                    .counter_add("telemetry.spans_stitched", stitched as u64);
            }
        }
        let mut outcome = self.recover_all(journal)?;
        let recovered = outcome.records.len();
        let ledger = ProvenanceLedger::new(journal.provenance_path());
        let io_state = IoState::new(self.config.io_retry_budget);
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter_add("journal.recovered_records", recovered as u64);
            self.telemetry
                .counter_add("journal.dropped_lines", outcome.journal_dropped as u64);
            self.telemetry
                .counter_add("ledger.dropped_lines", outcome.ledger_dropped as u64);
            self.telemetry
                .counter_add("sweep.inconsistent_apps", outcome.inconsistent.len() as u64);
            self.telemetry
                .counter_add("sweep.quarantined_apps", outcome.quarantined.len() as u64);
        }
        let mut done: HashMap<String, AppRecord> = std::mem::take(&mut outcome.records)
            .into_iter()
            .map(|r| (r.package.clone(), r))
            .collect();
        let prior_provenance = std::mem::take(&mut outcome.provenance);
        // Apps that exhausted their interrupted-attempt budget are not
        // re-analysed: a deterministic failure record stands in for them
        // and is excluded from the pending set.
        let mut quarantined = Vec::new();
        for entry in &outcome.quarantine {
            if entry.attempts < QUARANTINE_THRESHOLD || done.contains_key(entry.package.as_str()) {
                continue;
            }
            let Some(app) = corpus.iter().find(|a| a.package() == entry.package) else {
                continue;
            };
            let record = self.failure_record(
                app,
                format!("quarantined after {} interrupted attempts", entry.attempts),
            );
            done.insert(record.package.clone(), record);
            quarantined.push(app);
        }
        let pending: Vec<usize> = (0..corpus.len())
            .filter(|&i| !done.contains_key(corpus[i].package()))
            .collect();
        // One stream shard per sweep worker: shard 0 is the base triplet,
        // so a one-worker (or nothing-pending) run keeps the single-writer
        // layout.
        let shard_count = self.config.effective_workers().min(pending.len()).max(1);
        let shards = StreamShards::open(
            self,
            (journal, Some(outcome.journal_end)),
            (&ledger, outcome.ledger_end),
            shard_count,
            &io_state,
        )?;
        // Quarantine records are persisted through the same append as
        // every analysed app, so the journal and the ledger stay
        // mutually consistent.
        for app in quarantined {
            let record = &done[app.package()];
            let provenance = AppProvenance::from_record(record);
            shards.append(
                shards.shard_of(app),
                record,
                Some(&provenance),
                0,
                &self.telemetry,
            );
        }
        // Apps invalidated by recovery re-run in the low-priority retry
        // lane so a crash loop cannot starve first-pass coverage.
        let retry: HashSet<String> = outcome.inconsistent.iter().cloned().collect();
        let cache_mark = self.cache.stats();
        let detector_mark = self.detector.stats();
        let avm_marks = self.avm_counter_marks();
        let observatory = Observatory::open(self, true);
        let sweep_start = Instant::now();
        let mut sweep_span = self.telemetry.span("sweep");
        sweep_span.field("apps", pending.len());
        sweep_span.field("resumed", recovered);
        let (slots, worker_stats) = self.sweep(
            corpus,
            &pending,
            Some(&shards),
            &retry,
            observatory.as_ref(),
            sweep_span.id(),
        );
        drop(sweep_span);
        if let Some(obs) = &observatory {
            obs.finish(self);
        }
        let shard_contention = shards.contention();
        // Close the shard writers before finalize merges and removes the
        // shard files (the telemetry event sinks close inside
        // `finalize_event_sink`).
        drop(shards);
        let perf = SweepPerf {
            worker_stats,
            stream_shards: shard_count,
            shard_contention,
            sweep_ms: sweep_start.elapsed().as_millis() as u64,
        };
        let summary = RecoverySummary {
            recovered: recovered as u64,
            dropped: (outcome.journal_dropped + outcome.ledger_dropped) as u64,
            inconsistent: outcome.inconsistent.len() as u64,
            quarantined: outcome.quarantined,
        };
        Ok(self.assemble(
            corpus,
            slots,
            done,
            prior_provenance,
            Some(journal),
            &io_state,
            Some(summary),
            perf,
            observatory,
            cache_mark,
            detector_mark,
            avm_marks,
        ))
    }

    /// Reconciles the two record streams of an interrupted run — the
    /// journal and the provenance ledger — to their longest mutually
    /// consistent prefix.
    ///
    /// Per stream, corrupt or torn frames are dropped (with a uniform
    /// stderr warning) and the file is rewritten to its valid prefix.
    /// An app then counts as recovered when the journal holds its record
    /// and the ledger beside it holds its graph. The telemetry
    /// event stream is observability only: it is never read here, so a
    /// shed, cut or missing event stream loses no measured app. Apps
    /// present in one stream but not the other are re-analysed; each such
    /// interruption bumps the app's quarantine attempt count, and apps at
    /// or over [`QUARANTINE_THRESHOLD`] are reported in
    /// [`RecoveryOutcome::quarantined`] and skipped by
    /// [`Pipeline::run_resumable`].
    ///
    /// # Errors
    ///
    /// Returns I/O errors from reading or rewriting the journal and its
    /// quarantine sidecar; ledger read failures degrade to warnings (its
    /// records are simply not recovered).
    pub fn recover_all(&self, journal: &crate::sweep::Journal) -> std::io::Result<RecoveryOutcome> {
        // The base pair and every shard pair a killed multi-writer sweep
        // left behind are reconciled with the same per-segment rule:
        // longest mutually consistent prefix of that segment's journal
        // and ledger.
        let base_ledger = ProvenanceLedger::new(journal.provenance_path());
        let base = self.recover_segment(journal, &base_ledger)?;
        let shard_ids = journal.discover_shards()?;
        let mut shard_segments = Vec::with_capacity(shard_ids.len());
        for &k in &shard_ids {
            let shard_ledger = ProvenanceLedger::new(journal.shard_provenance_path(k));
            shard_segments.push(self.recover_segment(&journal.shard(k), &shard_ledger)?);
        }

        // Merge: base records first, then shards in ascending shard
        // order, first record per package wins. Duplicates only arise
        // from a crash between the base finalize and shard removal,
        // where both copies are identical.
        let base_record_count = base.records.len();
        let mut journal_end = base.journal_end;
        let mut ledger_end = base.ledger_end;
        let mut seen: HashSet<String> = HashSet::new();
        let mut consistent: Vec<AppRecord> = Vec::new();
        let mut provenance: Vec<AppProvenance> = Vec::new();
        let mut inconsistent: BTreeSet<String> = BTreeSet::new();
        let mut journal_dropped = 0usize;
        let mut ledger_dropped = 0usize;
        let mut base_journal_count = 0usize;
        let mut prov_by_pkg: HashMap<String, AppProvenance> = HashMap::new();
        for (idx, segment) in std::iter::once(base).chain(shard_segments).enumerate() {
            if idx == 0 {
                base_journal_count = segment.journal_count;
            }
            journal_dropped += segment.journal_dropped;
            ledger_dropped += segment.ledger_dropped;
            inconsistent.extend(segment.inconsistent);
            for p in segment.provenance {
                prov_by_pkg.entry(p.package.clone()).or_insert(p);
            }
            for record in segment.records {
                if seen.insert(record.package.clone()) {
                    if let Some(p) = prov_by_pkg.remove(record.package.as_str()) {
                        provenance.push(p);
                    }
                    consistent.push(record);
                }
            }
        }
        drop(prov_by_pkg);
        // A package consistent in any segment is recovered; it is not
        // re-analysed even if another segment holds a torn copy of it.
        inconsistent.retain(|p| !seen.contains(p.as_str()));
        let shards_contributed = consistent.len() > base_record_count;

        // Rewrite the base journal and ledger to the merged consistent
        // set so this session's appends extend files that agree with
        // each other (and hold everything the shards contributed).
        if consistent.len() != base_journal_count || shards_contributed {
            journal_end = journal.rewrite(&consistent)?;
        }
        if !inconsistent.is_empty() || shards_contributed {
            match base_ledger.rewrite(&provenance) {
                Ok(end) => ledger_end = Some(end),
                Err(e) => {
                    // The file is in an unknown state: the writer scans
                    // it afresh.
                    ledger_end = None;
                    eprintln!(
                        "dydroid: failed to rewrite ledger {}: {e}",
                        base_ledger.path().display()
                    );
                }
            }
        }
        if !shard_ids.is_empty() {
            journal.remove_shards()?;
        }

        // Quarantine bookkeeping: every cross-stream-inconsistent app
        // burned one interrupted attempt; apps that completed since then
        // shed their entries.
        let mut quarantine = journal.load_quarantine()?;
        for package in &inconsistent {
            match quarantine.iter_mut().find(|e| &e.package == package) {
                Some(entry) => entry.attempts = entry.attempts.saturating_add(1),
                None => quarantine.push(QuarantineEntry {
                    package: package.clone(),
                    attempts: 1,
                }),
            }
        }
        quarantine.retain(|e| !seen.contains(e.package.as_str()));
        drop(seen);
        journal.write_quarantine(&quarantine)?;
        let quarantined: Vec<String> = quarantine
            .iter()
            .filter(|e| e.attempts >= QUARANTINE_THRESHOLD)
            .map(|e| e.package.clone())
            .collect();

        Ok(RecoveryOutcome {
            records: consistent,
            provenance,
            journal_dropped,
            ledger_dropped,
            inconsistent: inconsistent.into_iter().collect(),
            quarantine,
            quarantined,
            journal_end,
            ledger_end,
        })
    }

    /// Reconciles one segment — a (journal, ledger) pair, either the base
    /// streams or one shard's — to its longest mutually consistent
    /// prefix. Each stream is cut back to its own valid prefix;
    /// cross-stream rewrites happen at the merge layer. The journal and
    /// the ledger are recovered on two threads.
    fn recover_segment(
        &self,
        journal: &crate::sweep::Journal,
        ledger: &ProvenanceLedger,
    ) -> std::io::Result<SegmentRecovery> {
        let (recovery, ledger_recovery) = std::thread::scope(|scope| {
            let ledger_job = scope.spawn(|| ledger.recover_counted());
            let recovery = journal.recover_counted();
            let ledger_recovery = ledger_job
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (recovery, ledger_recovery)
        });
        let recovery = recovery?;
        warn_recovered(
            "journal",
            journal.path(),
            recovery.records.len(),
            recovery.dropped_lines,
        );
        let journal_dropped = recovery.dropped_lines;
        let journal_count = recovery.records.len();

        let mut ledger_records: Vec<AppProvenance> = Vec::new();
        let mut ledger_dropped = 0usize;
        let mut ledger_end = None;
        match ledger_recovery {
            Ok(r) => {
                warn_recovered("ledger", ledger.path(), r.records.len(), r.dropped_lines);
                ledger_dropped = r.dropped_lines;
                ledger_records = r.records;
                ledger_end = Some(r.end);
            }
            Err(e) => eprintln!(
                "dydroid: failed to recover ledger {}: {e}",
                ledger.path().display()
            ),
        }
        let ledger_active = ledger_end.is_some();

        let ledgered: HashSet<&str> = ledger_records.iter().map(|p| p.package.as_str()).collect();
        let mut inconsistent: BTreeSet<String> = BTreeSet::new();
        let mut records: Vec<AppRecord> = Vec::new();
        for record in recovery.records {
            if !ledger_active || ledgered.contains(record.package.as_str()) {
                records.push(record);
            } else {
                inconsistent.insert(record.package.clone());
            }
        }
        drop(ledgered);
        let consistent_set: HashSet<&str> = records.iter().map(|r| r.package.as_str()).collect();
        for p in ledger_records.iter().map(|p| p.package.as_str()) {
            if !consistent_set.contains(p) {
                inconsistent.insert(p.to_string());
            }
        }
        let provenance: Vec<AppProvenance> = ledger_records
            .into_iter()
            .filter(|p| consistent_set.contains(p.package.as_str()))
            .collect();
        drop(consistent_set);

        Ok(SegmentRecovery {
            records,
            provenance,
            journal_dropped,
            ledger_dropped,
            inconsistent,
            journal_count,
            journal_end: recovery.end,
            ledger_end,
        })
    }

    /// The parallel worker loop. Every worker owns a two-lane deque in
    /// the work-stealing [`Scheduler`] (new work ahead of recovery
    /// re-scans) and analyses each app inside a panic-isolation
    /// boundary. With `shards` attached, the worker itself appends the
    /// finished record to its app's stream shard — the sweep's only
    /// append path. Results flow through a bounded channel so a slow
    /// collector backpressures workers instead of buffering the whole
    /// corpus in memory; the collector files each one at its corpus
    /// index, so the returned slots are `corpus.len()` long and empty
    /// wherever no result arrived. Provenance graphs are built only when
    /// `shards` are attached, whose ledgers receive them.
    fn sweep(
        &self,
        corpus: &[SyntheticApp],
        indices: &[usize],
        shards: Option<&StreamShards>,
        retry: &HashSet<String>,
        observatory: Option<&Observatory>,
        parent_span: u64,
    ) -> (Vec<SweepSlot>, Vec<WorkerStats>) {
        let workers = self.config.effective_workers().min(indices.len().max(1));
        let keep_graphs = shards.is_some();
        let scheduler = Scheduler::new(workers);
        for (pos, &i) in indices.iter().enumerate() {
            let lane = if retry.contains(corpus[i].package()) {
                Lane::Retry
            } else {
                Lane::New
            };
            scheduler.seed(pos % workers, i, lane);
        }
        if self.telemetry.is_enabled() {
            // Baseline gauges for the --progress line, the metrics
            // snapshots, and `dcltrace top`. The total is the corpus, not
            // this session's pending apps: `top` counts an app done once
            // any session checkpointed it.
            self.telemetry.gauge_set("sweep.workers", workers as u64);
            self.telemetry
                .gauge_set("sweep.total_apps", corpus.len() as u64);
            self.telemetry.gauge_set("sweep.done", 0);
        }
        let (result_tx, result_rx) =
            channel::bounded::<(usize, AppRecord, Option<AppProvenance>, u64, u64)>(4 * workers);
        let progress =
            (self.config.progress && !indices.is_empty()).then(|| Progress::new(indices.len()));

        // Collected outside the scope so partial results survive even a
        // worker-thread panic that escapes the per-app isolation.
        let mut slots: Vec<SweepSlot> = Vec::new();
        slots.resize_with(corpus.len(), || None);
        let scope_result = crossbeam::thread::scope(|scope| {
            for worker in 0..workers {
                let result_tx = result_tx.clone();
                let scheduler = &scheduler;
                scope.spawn(move |_| {
                    while let Some(i) = scheduler.next_task(worker) {
                        let app = &corpus[i];
                        // Scope this thread's event lines (spans, then the
                        // checkpoint/provenance links of the shard append)
                        // to the app's shard for the whole task.
                        let shard = shards.map(|s| s.shard_of(app));
                        let _scope = shard.map(|k| self.telemetry.event_shard_scope(k));
                        let started = Instant::now();
                        let (record, provenance, span_id, virtual_us) =
                            self.analyze_app_traced(app, parent_span, keep_graphs);
                        if let (Some(shards), Some(k)) = (shards, shard) {
                            shards.append(
                                k,
                                &record,
                                provenance.as_ref(),
                                span_id,
                                &self.telemetry,
                            );
                        }
                        scheduler.note_executed(
                            worker,
                            started.elapsed().as_micros() as u64,
                            virtual_us,
                        );
                        if result_tx
                            .send((i, record, provenance, span_id, virtual_us))
                            .is_err()
                        {
                            // Receiver gone: the sweep is shutting down.
                            break;
                        }
                    }
                });
            }
            drop(result_tx);
            let mut collected_count = 0u64;
            while let Ok((i, record, provenance, span_id, virtual_us)) = result_rx.recv() {
                if self.telemetry.is_enabled() {
                    // Observatory bookkeeping, all on the collector
                    // thread: worker/utilization gauges from the live
                    // scheduler counters, then the watchdog and metrics
                    // snapshot hooks.
                    collected_count += 1;
                    let stats = scheduler.worker_stats();
                    self.telemetry
                        .gauge_set("sweep.busy_us", stats.iter().map(|w| w.busy_us).sum());
                    self.telemetry
                        .gauge_set("sweep.virtual_makespan_us", virtual_makespan_us(&stats));
                    self.telemetry.gauge_set("sweep.done", collected_count);
                    if let Some(obs) = observatory {
                        obs.on_app_done(self, &record.package, span_id, virtual_us);
                    }
                }
                if let Some(progress) = &progress {
                    let failed = record.harness_failure().is_some();
                    if let Some(line) = progress.on_app_done(failed, &self.telemetry) {
                        eprintln!("dydroid: {line}");
                    }
                }
                slots[i] = Some((record, provenance));
            }
        });
        if scope_result.is_err() {
            eprintln!("dydroid: a sweep thread panicked outside per-app isolation; continuing with partial results");
        }
        (slots, scheduler.worker_stats())
    }

    /// Merges sweep results (and any journaled records) into a complete,
    /// corpus-ordered report; apps lost to a non-isolated thread death
    /// are recorded as harness failures rather than dropped. A journaled
    /// run's streams are finalized here (see
    /// [`Pipeline::finalize_streams`]).
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        &self,
        corpus: &[SyntheticApp],
        slots: Vec<SweepSlot>,
        mut done: HashMap<String, AppRecord>,
        prior_provenance: Vec<AppProvenance>,
        journal: Option<&crate::sweep::Journal>,
        io_state: &Arc<IoState>,
        recovery: Option<RecoverySummary>,
        perf: SweepPerf,
        observatory: Option<Observatory>,
        cache_mark: CacheStats,
        detector_mark: dydroid_analysis::DetectorStats,
        avm_marks: AvmMarks,
    ) -> MeasurementReport {
        // Live results win; recovered journal records fill only the
        // slots this session never re-ran. Graphs are gathered only on a
        // journaled run, whose ledger keeps them.
        let mut records: Vec<AppRecord> = Vec::with_capacity(corpus.len());
        let mut graphs: Vec<Option<AppProvenance>> =
            Vec::with_capacity(if journal.is_some() { corpus.len() } else { 0 });
        for (app, slot) in corpus.iter().zip(slots) {
            let (record, graph) = slot.unwrap_or_else(|| {
                let record = done.remove(app.package()).unwrap_or_else(|| {
                    self.failure_record(app, "record lost: sweep worker died".to_string())
                });
                (record, None)
            });
            if journal.is_some() {
                graphs.push(graph);
            }
            records.push(record);
        }
        let env_start = Instant::now();
        let env = if self.config.environment_reruns {
            let mut env_span = self.telemetry.span("environment");
            let env = crate::environment::rerun_all(self, corpus, &records);
            env_span.field("flagged_files", env.counts.total_files);
            env
        } else {
            crate::environment::EnvOutcome::default()
        };
        if let Some(journal) = journal {
            self.finalize_streams(journal, &records, graphs, prior_provenance, &env.loads);
        }
        // Observatory wrap-up: idle-worker warnings, then the straggler
        // appendix — per-phase breakdowns filled from the flagged apps'
        // child spans in one pass over the span store.
        let (straggler_warnings, stragglers) = match &observatory {
            Some(obs) => {
                let idle = idle_workers(&perf.worker_stats);
                if idle > 0 {
                    self.telemetry
                        .counter_add("watchdog.idle_workers", idle as u64);
                    self.telemetry
                        .emit_warning("idle_workers", "", &[("workers", idle as u64)]);
                }
                let (flagged, mut entries) = obs.take_stragglers();
                entries.sort_by(|a, b| {
                    b.0.virtual_us
                        .cmp(&a.0.virtual_us)
                        .then_with(|| a.0.package.cmp(&b.0.package))
                });
                entries.truncate(STRAGGLER_TOP);
                let wanted: HashSet<u64> = entries.iter().map(|(_, id)| *id).collect();
                let mut children: HashMap<u64, Vec<(String, u64)>> = HashMap::new();
                if !wanted.is_empty() {
                    for span in self.telemetry.spans() {
                        if wanted.contains(&span.parent) {
                            children
                                .entry(span.parent)
                                .or_default()
                                .push((span.name, span.dur_us));
                        }
                    }
                }
                let entries: Vec<StragglerEntry> = entries
                    .into_iter()
                    .map(|(mut entry, id)| {
                        let mut phases = children.remove(&id).unwrap_or_default();
                        phases.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                        entry.phases = phases;
                        entry
                    })
                    .collect();
                (flagged, entries)
            }
            None => (0, Vec::new()),
        };
        let snapshot = self.telemetry.snapshot();
        let app_wall = snapshot
            .histogram("span.app.us")
            .copied()
            .unwrap_or_default();
        let phases: Vec<(String, HistogramSummary)> = snapshot
            .histograms
            .iter()
            .filter(|(name, _)| name != "span.app.us")
            .cloned()
            .collect();
        let io = io_state.snapshot();
        let recovery = recovery.unwrap_or_default();
        let stats = SweepStats {
            sweep_ms: perf.sweep_ms,
            env_ms: env_start.elapsed().as_millis() as u64,
            analyzed_apps: records.len(),
            telemetry: self.telemetry.is_enabled(),
            cache: self.cache.stats().since(&cache_mark),
            detector: self.detector.stats().since(&detector_mark),
            workers: self.config.effective_workers(),
            dropped_events: self
                .telemetry
                .counter_value("avm.events_dropped")
                .saturating_sub(avm_marks.events_dropped),
            flow_truncated: self
                .telemetry
                .counter_value("avm.flow_edges_truncated")
                .saturating_sub(avm_marks.flow_truncated),
            flow_deduped: self
                .telemetry
                .counter_value("avm.flow_edges_deduped")
                .saturating_sub(avm_marks.flow_deduped),
            ic_call_hits: self
                .telemetry
                .counter_value("avm.ic_call_hits")
                .saturating_sub(avm_marks.ic_call_hits),
            ic_call_misses: self
                .telemetry
                .counter_value("avm.ic_call_misses")
                .saturating_sub(avm_marks.ic_call_misses),
            ic_field_hits: self
                .telemetry
                .counter_value("avm.ic_field_hits")
                .saturating_sub(avm_marks.ic_field_hits),
            ic_field_misses: self
                .telemetry
                .counter_value("avm.ic_field_misses")
                .saturating_sub(avm_marks.ic_field_misses),
            journal_syncs: io.syncs[StreamKind::Journal.index()],
            io_retries: io.retries,
            io_backoff_us: io.backoff_us,
            shed_events: io.shed[StreamKind::Events.index()],
            shed_provenance: io.shed[StreamKind::Ledger.index()],
            recovered_records: recovery.recovered,
            recovery_dropped: recovery.dropped,
            inconsistent_apps: recovery.inconsistent,
            quarantined: recovery.quarantined,
            stream_shards: perf.stream_shards,
            shard_contention: perf.shard_contention,
            worker_stats: perf.worker_stats,
            straggler_warnings,
            stragglers,
            app_wall,
            phases,
        };
        let mut report = MeasurementReport::new(records, env.counts);
        report.set_env_loads(env.loads);
        report.set_stats(stats);
        if let Some(path) = &self.config.trace_out {
            if let Err(e) = self.telemetry.write_chrome_trace(Path::new(path)) {
                eprintln!("dydroid: failed to write chrome trace to {path}: {e}");
            }
        }
        // Span profile exports: the configured `profile_out`, plus a
        // `<journal>.profile.folded` artifact beside every journaled
        // telemetry run — the canonical event stream drops span lines at
        // finalize, so this artifact is what `dcltrace profile` falls
        // back to once a run completes.
        if self.telemetry.is_enabled() && (self.config.profile_out.is_some() || journal.is_some()) {
            let folded = SpanProfile::from_spans(&self.telemetry.spans()).folded();
            if let Some(path) = &self.config.profile_out {
                if let Err(e) = std::fs::write(path, &folded) {
                    eprintln!("dydroid: failed to write span profile to {path}: {e}");
                }
            }
            if let Some(journal) = journal {
                let path = journal.profile_path();
                if let Err(e) = std::fs::write(&path, &folded) {
                    eprintln!(
                        "dydroid: failed to write span profile to {}: {e}",
                        path.display()
                    );
                }
            }
        }
        report
    }

    /// Finalizes a journaled run's three streams, each atomically
    /// rewritten in corpus order, so a completed run's streams are
    /// byte-identical however the sweep interleaved and however many
    /// resumes it took. The ledger holds one graph per corpus app with
    /// its environment outcomes attached: `graphs` are this session's
    /// live graphs by corpus index, `prior_provenance` the recovered ones
    /// for resumed apps, and an app whose graph is gone (resumed with a
    /// torn ledger line) gets a degraded reconstruction. The canonical
    /// event stream keeps only the per-app checkpoint and
    /// provenance-link facts; live span timings are interleave-dependent
    /// and are dropped. The ledger and the journal are encoded on two
    /// threads; the writes then go out one at a time in a fixed order
    /// (ledger, journal, events), so a fault harness sees the same ops in
    /// the same order.
    fn finalize_streams(
        &self,
        journal: &crate::sweep::Journal,
        records: &[AppRecord],
        graphs: Vec<Option<AppProvenance>>,
        prior_provenance: Vec<AppProvenance>,
        env_loads: &[crate::environment::EnvLoad],
    ) {
        let mut prior: HashMap<String, AppProvenance> = prior_provenance
            .into_iter()
            .map(|p| (p.package.clone(), p))
            .collect();
        let mut loads_by_app: HashMap<&str, Vec<&crate::environment::EnvLoad>> = HashMap::new();
        for load in env_loads {
            loads_by_app
                .entry(load.package.as_str())
                .or_default()
                .push(load);
        }
        let final_provenance: Vec<AppProvenance> = graphs
            .into_iter()
            .zip(records)
            .map(|(graph, record)| {
                let mut p = graph
                    .or_else(|| prior.remove(record.package.as_str()))
                    .unwrap_or_else(|| AppProvenance::from_record(record));
                p.env_loads = loads_by_app
                    .get(record.package.as_str())
                    .into_iter()
                    .flatten()
                    .map(|l| crate::provenance::EnvLoadOutcome {
                        path: l.path.clone(),
                        configs: l.configs.clone(),
                    })
                    .collect();
                p
            })
            .collect();
        drop(prior);
        let (ledger_frames, journal_frames) = std::thread::scope(|scope| {
            let ledger_job = scope.spawn(|| encode_records(&final_provenance));
            let journal_frames = encode_records(records);
            let ledger_frames = ledger_job
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (ledger_frames, journal_frames)
        });
        drop(final_provenance);
        let mut finalized = true;
        let ledger = ProvenanceLedger::new(journal.provenance_path());
        if let Err(e) = ledger.replace(ledger_frames, self.io_harness.as_ref()) {
            finalized = false;
            eprintln!(
                "dydroid: failed to finalize ledger {}: {e}",
                ledger.path().display()
            );
        }
        if let Err(e) = journal.replace(journal_frames, self.io_harness.as_ref()) {
            finalized = false;
            eprintln!(
                "dydroid: failed to finalize journal {}: {e}",
                journal.path().display()
            );
        }
        if self.telemetry.is_enabled() {
            let mut bodies = Vec::with_capacity(records.len() * 2);
            for record in records {
                bodies.push(canonical_event(&record.package, "checkpoint"));
                bodies.push(canonical_event(&record.package, "provenance"));
            }
            let events_path = journal.events_path();
            if let Err(e) =
                self.telemetry
                    .finalize_event_sink(&events_path, &bodies, self.io_harness.as_ref())
            {
                finalized = false;
                eprintln!(
                    "dydroid: failed to finalize events {}: {e}",
                    events_path.display()
                );
            }
        }
        // A sharded sweep's per-shard files are fully folded into the
        // canonical streams above; drop them so the layout a completed
        // run leaves behind is identical to a serial one. Only once every
        // stream actually finalized: a failed finalize — or a
        // crash-frozen harness, whose post-crash writes report success
        // without touching disk — must leave the shard files for the next
        // session's recovery to merge.
        if self.io_harness.as_ref().is_some_and(|h| h.crashed()) {
            finalized = false;
        }
        if finalized {
            if let Err(e) = journal.remove_shards() {
                eprintln!(
                    "dydroid: failed to remove shard files beside {}: {e}",
                    journal.path().display()
                );
            }
        }
    }

    /// Analyses one app inside the fault-isolation boundary: panics are
    /// caught, harness failures are retried up to [`MAX_RETRIES`] times
    /// (reseeding the Monkey on each retry), and the final
    /// failure is recorded as [`DynamicStatus::AnalysisFailure`].
    pub fn analyze_app_resilient(&self, app: &SyntheticApp) -> AppRecord {
        self.analyze_app_traced(app, 0, false).0
    }

    /// [`Pipeline::analyze_app_resilient`] under a per-app telemetry span
    /// (parented to the sweep span); returns the record and, with
    /// `keep_graphs`, its provenance graph, together with the span id (so
    /// the shard append can checkpoint and ledger them) and the app's
    /// deterministic virtual cost in microseconds, summed across
    /// attempts, which the scheduler charges to the worker that ran it.
    fn analyze_app_traced(
        &self,
        app: &SyntheticApp,
        parent_span: u64,
        keep_graphs: bool,
    ) -> (AppRecord, Option<AppProvenance>, u64, u64) {
        let mut span = self.telemetry.span_with_parent("app", parent_span);
        span.field("app", &app.plan.package);
        let span_id = span.id();
        let attempts = MAX_RETRIES + 1;
        let mut last: Option<AppRecord> = None;
        let mut total_virtual_us = 0u64;
        // The static phases are input-deterministic, so a multi-attempt
        // failure spiral decompiles the app once, not once per attempt.
        let mut statics: Option<StaticPhases> = None;
        for attempt in 0..attempts {
            if attempt > 0 && self.telemetry.is_enabled() {
                self.telemetry.counter_add("sweep.retries", 1);
            }
            let salt = RETRY_SEED_SALT.wrapping_mul(u64::from(attempt));
            match catch_unwind(AssertUnwindSafe(|| {
                self.analyze_app_salted(app, salt, span_id, keep_graphs)
            })) {
                Ok((record, provenance, virtual_us)) => {
                    total_virtual_us += virtual_us;
                    if record.harness_failure().is_none() {
                        span.field("attempt", attempt + 1);
                        span.field("verdict", verdict_label(&record));
                        // Apps that never reached the dynamic phase carry
                        // no live device state; they still get a ledger
                        // entry, reconstructed from the record, so the
                        // ledger's app set always matches the journal's.
                        let provenance = keep_graphs.then(|| {
                            let mut p =
                                provenance.unwrap_or_else(|| AppProvenance::from_record(&record));
                            p.span = span_id;
                            p
                        });
                        return (record, provenance, span_id, total_virtual_us);
                    }
                    last = Some(record);
                }
                Err(payload) => {
                    let reason = format!(
                        "panic in attempt {}/{}: {}",
                        attempt + 1,
                        attempts,
                        panic_message(payload.as_ref())
                    );
                    let statics = *statics.get_or_insert_with(|| Self::static_phases(app));
                    last = Some(Self::record_from_statics(app, reason, statics));
                }
            }
        }
        let record =
            last.unwrap_or_else(|| self.failure_record(app, "no analysis attempt ran".to_string()));
        span.field("attempt", attempts);
        span.field("verdict", verdict_label(&record));
        // Harness failures carry no live device state; the ledger gets a
        // degraded record reconstructed from the app record at finalize.
        let provenance = keep_graphs.then(|| {
            let mut p = AppProvenance::from_record(&record);
            p.span = span_id;
            p
        });
        (record, provenance, span_id, total_virtual_us)
    }

    /// Re-runs the cheap static phases under their own panic guard, so a
    /// failed app still lands in the right Table II population.
    fn static_phases(app: &SyntheticApp) -> StaticPhases {
        let static_phases =
            catch_unwind(AssertUnwindSafe(|| match decompiler::decompile(&app.apk) {
                Ok(d) => (true, DclFilter::scan(&d.classes), obfuscation::analyze(&d)),
                Err(DecompileError::AntiDecompilation { .. }) => (
                    false,
                    DclFilter::default(),
                    ObfuscationReport::anti_decompilation_only(),
                ),
                Err(_) => (false, DclFilter::default(), ObfuscationReport::default()),
            }));
        static_phases.unwrap_or((false, DclFilter::default(), ObfuscationReport::default()))
    }

    /// Builds the record for an app whose dynamic analysis was lost to a
    /// panic or deadline.
    fn failure_record(&self, app: &SyntheticApp, reason: String) -> AppRecord {
        Self::record_from_statics(app, reason, Self::static_phases(app))
    }

    fn record_from_statics(
        app: &SyntheticApp,
        reason: String,
        (decompiled, filter, obfuscation): StaticPhases,
    ) -> AppRecord {
        AppRecord {
            package: app.plan.package.clone(),
            metadata: app.plan.metadata.clone(),
            decompiled,
            filter,
            obfuscation,
            rewritten: false,
            dynamic: Some(DynamicOutcome::failure(reason)),
        }
    }

    /// Analyses a standalone APK (e.g. a file from disk) with optional
    /// environment fixtures; the package is taken from the manifest.
    ///
    /// # Errors
    ///
    /// Returns the parse error when the archive or its manifest is
    /// malformed beyond even the anti-decompilation failure modes.
    pub fn analyze_apk(
        &self,
        apk: Vec<u8>,
        remote_resources: Vec<(String, String, Vec<u8>)>,
        device_files: Vec<(String, String, Vec<u8>)>,
    ) -> Result<AppRecord, dydroid_dex::ApkError> {
        let package = dydroid_dex::Apk::parse(&apk)?.manifest()?.package;
        let app = SyntheticApp {
            plan: dydroid_workload::AppPlan::external(package),
            apk,
            remote_resources,
            device_files,
        };
        Ok(self.analyze_app(&app))
    }

    /// Analyses a single app end to end (no panic isolation or retries;
    /// see [`Pipeline::analyze_app_resilient`] for the sweep wrapper).
    pub fn analyze_app(&self, app: &SyntheticApp) -> AppRecord {
        let mut span = self.telemetry.span("app");
        span.field("app", &app.plan.package);
        let (record, _, _) = self.analyze_app_salted(app, 0, span.id(), false);
        span.field("verdict", verdict_label(&record));
        record
    }

    /// [`Pipeline::analyze_app`] with a Monkey seed salt (non-zero on
    /// reseeded retries) and a parent span for the phase children. Also
    /// returns the app's provenance graph when the dynamic phase ran and
    /// `keep_graphs` is set (the graph is built from live device state —
    /// flow graph, event log — that the record drops).
    fn analyze_app_salted(
        &self,
        app: &SyntheticApp,
        seed_salt: u64,
        parent_span: u64,
        keep_graphs: bool,
    ) -> (AppRecord, Option<AppProvenance>, u64) {
        let metadata = app.plan.metadata.clone();
        let package = app.plan.package.clone();

        // Phase 1+2: decompile, static filter, obfuscation analysis —
        // one "static" span; its early returns drop the guard on exit.
        let static_span = self.telemetry.span_with_parent("static", parent_span);

        let decompiled = match decompiler::decompile(&app.apk) {
            Ok(d) => d,
            Err(DecompileError::AntiDecompilation { .. }) => {
                return (
                    AppRecord {
                        package,
                        metadata,
                        decompiled: false,
                        filter: DclFilter::default(),
                        obfuscation: ObfuscationReport::anti_decompilation_only(),
                        rewritten: false,
                        dynamic: None,
                    },
                    None,
                    0,
                );
            }
            Err(_) => {
                return (
                    AppRecord {
                        package,
                        metadata,
                        decompiled: false,
                        filter: DclFilter::default(),
                        obfuscation: ObfuscationReport::default(),
                        rewritten: false,
                        dynamic: None,
                    },
                    None,
                    0,
                );
            }
        };

        // Resource-sanity guard: a manifest blown up far past anything a
        // store-distributed app declares would stall the rewriter and the
        // Monkey's callback enumeration. Reject it as a harness-level
        // failure instead of burning the deadline on it.
        let manifest_entries =
            decompiled.manifest.permissions.len() + decompiled.manifest.components.len();
        if manifest_entries > MANIFEST_SANITY_LIMIT {
            return (
                AppRecord {
                    package,
                    metadata,
                    decompiled: true,
                    filter: DclFilter::default(),
                    obfuscation: ObfuscationReport::default(),
                    rewritten: false,
                    dynamic: Some(DynamicOutcome::failure(format!(
                        "manifest exceeds sanity bounds: {manifest_entries} entries > {MANIFEST_SANITY_LIMIT}"
                    ))),
                },
                None,
                0,
            );
        }

        // Phase 2: static filter + obfuscation analysis.
        let filter = DclFilter::scan(&decompiled.classes);
        let obfuscation = obfuscation::analyze(&decompiled);
        drop(static_span);
        if !filter.any() {
            return (
                AppRecord {
                    package,
                    metadata,
                    decompiled: true,
                    filter,
                    obfuscation,
                    rewritten: false,
                    dynamic: None,
                },
                None,
                0,
            );
        }

        // Phase 3: rewrite if needed. Apps that already hold the
        // permission install their original bytes — borrowed, not
        // cloned: a full-APK copy per app is pure overhead at corpus
        // scale.
        let (install_bytes, rewritten): (Cow<[u8]>, bool) =
            if decompiler::needs_rewriting(&decompiled.manifest) {
                let _span = self.telemetry.span_with_parent("rewrite", parent_span);
                match decompiler::repackage_with_permission(&decompiled) {
                    Ok(bytes) => (Cow::Owned(bytes), true),
                    Err(_) => {
                        return (
                            AppRecord {
                                package,
                                metadata,
                                decompiled: true,
                                filter,
                                obfuscation,
                                rewritten: false,
                                dynamic: Some(DynamicOutcome::empty(DynamicStatus::RewriteFailure)),
                            },
                            None,
                            0,
                        );
                    }
                }
            } else {
                (Cow::Borrowed(app.apk.as_slice()), false)
            };

        // Phase 4: dynamic analysis.
        let mut device = self.prepare_device(app, self.config.device_config());
        let (dynamic, path_leaks, virtual_us) = self.exercise_and_analyze_salted(
            app,
            &mut device,
            &install_bytes,
            &decompiled,
            seed_salt,
            parent_span,
        );
        // Per-app instrumentation-bound counters (the env re-runs bypass
        // this path, so these count the baseline sweep only).
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter_add("avm.events_dropped", device.log.dropped_events());
            self.telemetry.counter_add(
                "avm.flow_edges_truncated",
                device.hooks.flow.truncated_edges(),
            );
            self.telemetry.counter_add(
                "avm.flow_edges_deduped",
                device.hooks.flow.duplicate_edges(),
            );
        }
        // The flight recorder fuses the device state the record is about
        // to drop (flow graph, raw event log) with the outcome.
        let provenance = keep_graphs.then(|| {
            AppProvenance::build(
                &package,
                status_label(&dynamic.status),
                &device.log,
                &device.hooks.flow,
                &dynamic.dex_events,
                &dynamic.native_events,
                &dynamic.malware,
                &path_leaks,
            )
        });

        (
            AppRecord {
                package,
                metadata,
                decompiled: true,
                filter,
                obfuscation,
                rewritten,
                dynamic: Some(dynamic),
            },
            provenance,
            virtual_us,
        )
    }

    /// Builds a device with the app's environment fixtures in place. The
    /// caller's `config` decides everything about the device, the
    /// interpreter engine included.
    pub fn prepare_device(&self, app: &SyntheticApp, config: dydroid_avm::DeviceConfig) -> Device {
        let mut device = Device::new(config);
        device.hooks.suppress_file_ops = self.config.suppress_file_ops;
        device.log.set_capacity(MAX_EVENTS_PER_APP);
        for (domain, path, bytes) in &app.remote_resources {
            device.net.host(domain, path, bytes.clone());
        }
        for (path, owner, bytes) in &app.device_files {
            device
                .fs
                .write_system(path, bytes.clone(), Owner::app(owner.clone()));
        }
        device
    }

    /// Installs, exercises and post-processes one app on a prepared
    /// device. Also used by the environment re-runs.
    pub fn exercise_and_analyze(
        &self,
        app: &SyntheticApp,
        device: &mut Device,
        install_bytes: &[u8],
        decompiled: &decompiler::DecompiledApp,
    ) -> DynamicOutcome {
        self.exercise_and_analyze_salted(app, device, install_bytes, decompiled, 0, 0)
            .0
    }

    /// [`Pipeline::exercise_and_analyze`] under a caller-supplied parent
    /// span (the environment re-runs parent their per-configuration
    /// spans here).
    pub(crate) fn exercise_and_analyze_traced(
        &self,
        app: &SyntheticApp,
        device: &mut Device,
        install_bytes: &[u8],
        decompiled: &decompiler::DecompiledApp,
        parent_span: u64,
    ) -> DynamicOutcome {
        self.exercise_and_analyze_salted(app, device, install_bytes, decompiled, 0, parent_span)
            .0
    }

    /// [`Pipeline::exercise_and_analyze`] with a Monkey seed salt. Also
    /// returns per-path privacy-leak attribution `(loaded path, privacy
    /// type label)` — the verdict edges of the provenance graph, which
    /// the aggregate [`DynamicOutcome`] no longer resolves to paths —
    /// and the app's deterministic virtual cost in microseconds (from
    /// instructions retired), which the scheduler charges to its worker.
    fn exercise_and_analyze_salted(
        &self,
        app: &SyntheticApp,
        device: &mut Device,
        install_bytes: &[u8],
        decompiled: &decompiler::DecompiledApp,
        seed_salt: u64,
        parent_span: u64,
    ) -> (DynamicOutcome, Vec<(String, String)>, u64) {
        let package = &app.plan.package;

        {
            let mut install_span = self.telemetry.span_with_parent("install", parent_span);
            install_span.field("bytes", install_bytes.len());
            if install(device, install_bytes, decompiled).is_err() {
                install_span.field("result", "error");
                return (
                    DynamicOutcome::empty(DynamicStatus::RewriteFailure),
                    Vec::new(),
                    0,
                );
            }
        }

        let mut monkey = Monkey::new(MonkeyConfig {
            seed: MONKEY_SEED ^ hash_pkg(package) ^ seed_salt,
            event_budget: self.config.monkey_events,
            deadline_ms: self.config.deadline_ms(),
        });
        let mut monkey_span = self.telemetry.span_with_parent("monkey", parent_span);
        let instructions_before = device.instructions_retired();
        let ic_before = device.ic_stats();
        let fires_before = device.hooks.fire_count();
        let exercised = monkey.exercise(device, package);
        // The avm contributes instruction-retirement, inline-cache and
        // hook-fire deltas to the monkey span and the run-wide counters.
        let instructions = device.instructions_retired() - instructions_before;
        let virtual_us = dydroid_monkey::virtual_us(instructions);
        let ic = device.ic_stats().since(&ic_before);
        let hook_fires = device.hooks.fire_count() - fires_before;
        if monkey_span.is_recording() {
            monkey_span.field("instructions", instructions);
            monkey_span.field("hook_fires", hook_fires);
            monkey_span.field("ic_hits", ic.hits());
            monkey_span.field("ic_misses", ic.misses());
            self.telemetry.counter_add("avm.instructions", instructions);
            self.telemetry.counter_add("avm.hook_fires", hook_fires);
            self.telemetry.counter_add("avm.ic_call_hits", ic.call_hits);
            self.telemetry
                .counter_add("avm.ic_call_misses", ic.call_misses);
            self.telemetry
                .counter_add("avm.ic_field_hits", ic.field_hits);
            self.telemetry
                .counter_add("avm.ic_field_misses", ic.field_misses);
            self.telemetry.counter_add("monkey.virtual_us", virtual_us);
        }
        let status = match exercised {
            Ok(ExerciseOutcome::NoActivity) => DynamicStatus::NoActivity,
            Ok(ExerciseOutcome::Exercised { crashed: true, .. }) => DynamicStatus::Crash,
            Ok(ExerciseOutcome::Exercised { crashed: false, .. }) => DynamicStatus::Exercised,
            Ok(ExerciseOutcome::DeadlineExceeded {
                events_fired,
                elapsed_ms,
            }) => {
                monkey_span.field("status", "deadline_exceeded");
                return (
                    DynamicOutcome::failure(format!(
                        "deadline exceeded after {events_fired} events: {elapsed_ms} ms charged, budget {} ms",
                        self.config.app_deadline_ms
                    )),
                    Vec::new(),
                    virtual_us,
                );
            }
            Err(_) => DynamicStatus::RewriteFailure,
        };
        monkey_span.field("status", status_label(&status));
        drop(monkey_span);
        if matches!(
            status,
            DynamicStatus::NoActivity | DynamicStatus::RewriteFailure
        ) {
            return (DynamicOutcome::empty(status), Vec::new(), virtual_us);
        }
        // Crashed apps count as failures in Table II (see
        // `AppRecord::dex_intercepted`), but the instrumentation still
        // recorded whatever loaded before the crash — the environment
        // re-runs of Table VIII rely on those events.

        // Collect DCL observations.
        let mut collect_span = self.telemetry.span_with_parent("collect", parent_span);
        let mut dex_events = Vec::new();
        let mut native_events = Vec::new();
        for event in device.log.dcl_events() {
            if !event.success {
                continue;
            }
            if event.kind.is_dex() {
                dex_events.push(event.clone());
            } else {
                native_events.push(event.clone());
            }
        }

        // Provenance via the download tracker.
        let mut remote_loads = Vec::new();
        for event in dex_events.iter().chain(native_events.iter()) {
            let urls = device.hooks.flow.url_sources(&event.path);
            if !urls.is_empty() {
                remote_loads.push((event.path.clone(), urls));
            }
        }
        remote_loads.sort();
        remote_loads.dedup();

        // Entity attribution from call sites.
        let dex_entity = EntityMix::from_call_sites(
            package,
            dex_events.iter().map(|e| e.call_site_class.as_str()),
        );
        let native_entity = EntityMix::from_call_sites(
            package,
            native_events.iter().map(|e| e.call_site_class.as_str()),
        );

        // Vulnerability classification over loaded paths.
        let vulns = dydroid_analysis::vuln::classify_all(
            package,
            &decompiled.manifest,
            dex_events
                .iter()
                .chain(native_events.iter())
                .map(|e| e.path.as_str()),
        );
        if collect_span.is_recording() {
            collect_span.field("dex_events", dex_events.len());
            collect_span.field("native_events", native_events.len());
            collect_span.field("remote_loads", remote_loads.len());
            collect_span.field("dropped_events", device.log.dropped_events());
            collect_span.field("flow_truncated", device.hooks.flow.truncated_edges());
            collect_span.field("flow_deduped", device.hooks.flow.duplicate_edges());
        }
        drop(collect_span);

        // Static analysis of intercepted binaries: each path analysed
        // once per app however many times it was loaded, and — through
        // the content-addressed cache — each unique byte content
        // analysed once per *sweep* however many apps load it. The
        // batch hands cold payloads to a small worker fan-out so their
        // detections (the indexed matcher) resolve in parallel.
        let mut seen_paths: HashSet<&str> = HashSet::new();
        let unique: Vec<_> = device
            .hooks
            .intercepted()
            .iter()
            .filter(|binary| seen_paths.insert(binary.path.as_str()))
            .collect();
        let contents: Vec<&[u8]> = unique.iter().map(|b| b.data.as_slice()).collect();
        let taint = TaintAnalysis::new();
        let mut analysis_span = self
            .telemetry
            .span_with_parent("binary_analysis", parent_span);
        // Delta marks cost shard locks, so take them only when recording.
        let marks = analysis_span
            .is_recording()
            .then(|| (self.cache.stats(), self.detector.stats()));
        let verdicts = self.cache.analyze_batch(
            &contents,
            &self.detector,
            &taint,
            self.config.effective_workers().min(BATCH_ANALYSIS_WORKERS),
        );
        if let Some((cache_mark, detector_mark)) = marks {
            let cache_delta = self.cache.stats().since(&cache_mark);
            let detector_delta = self.detector.stats().since(&detector_mark);
            analysis_span.field("binaries", unique.len());
            analysis_span.field("cache_hits", cache_delta.hits);
            analysis_span.field("cache_misses", cache_delta.misses);
            analysis_span.field("candidates", detector_delta.candidates);
            analysis_span.field("pruned", detector_delta.pruned);
            analysis_span.field("fully_scored", detector_delta.fully_scored);
        }
        drop(analysis_span);
        let mut malware = Vec::new();
        let mut leaks: Vec<Leak> = Vec::new();
        let mut leak_seen: HashSet<Leak> = HashSet::new();
        let mut leak_classes: HashMap<PrivacyType, Vec<String>> = HashMap::new();
        let mut path_leaks: Vec<(String, String)> = Vec::new();
        for (binary, verdict) in unique.iter().zip(&verdicts) {
            let BinaryVerdict::Parsed {
                native,
                malware: family_hit,
                leaks: binary_leaks,
            } = &**verdict
            else {
                continue;
            };
            if let Some(hit) = family_hit {
                malware.push(MalwareHit {
                    path: binary.path.clone(),
                    family: hit.family.clone(),
                    score: hit.score,
                    native: *native,
                });
            }
            for leak in binary_leaks {
                leak_classes
                    .entry(leak.privacy)
                    .or_default()
                    .push(leak.class.clone());
                path_leaks.push((binary.path.clone(), format!("{:?}", leak.privacy)));
                if leak_seen.insert(leak.clone()) {
                    leaks.push(leak.clone());
                }
            }
        }
        path_leaks.sort();
        path_leaks.dedup();
        let mut leak_types: Vec<LeakSummary> = leak_classes
            .into_iter()
            .map(|(privacy, classes)| LeakSummary {
                privacy,
                exclusively_third_party: classes.iter().all(|c| {
                    dydroid_analysis::entity::classify(package, c)
                        == dydroid_analysis::Entity::ThirdParty
                }),
            })
            .collect();
        leak_types.sort_by_key(|l| l.privacy);

        (
            DynamicOutcome {
                status,
                dex_events,
                native_events,
                remote_loads,
                dex_entity,
                native_entity,
                vulns,
                malware,
                leaks,
                leak_types,
            },
            path_leaks,
            virtual_us,
        )
    }
}

/// The one append path of a journaled sweep: per-shard writers of the
/// journal and its provenance ledger, with the telemetry event sinks
/// registered at the same indices. Shard 0 writes the base streams
/// (`<journal>`, `.provenance.jsonl`, `.events.jsonl`) and shard `k >= 1`
/// the `shard-K` files beside them. Apps are routed by APK content hash
/// (the same key the analysis cache stripes on), so each worker appends
/// to the shard owning its current app with no collector bottleneck; the
/// shard files are merged back into the base streams by
/// [`Pipeline::finalize_streams`] and by [`Pipeline::recover_all`] after
/// a crash. A plain [`Pipeline::run`] opens none.
struct StreamShards {
    shards: Vec<Mutex<ShardStreams>>,
    /// Appends that found their shard mutex held by another worker
    /// (they block and proceed; the count sizes the contention report).
    contention: AtomicU64,
}

struct ShardStreams {
    journal: crate::sweep::JournalWriter,
    ledger: crate::provenance::LedgerWriter,
}

impl StreamShards {
    /// Opens `count` shards of `journal` and its `ledger`: a journal and
    /// a ledger writer per shard and, on a telemetry run, one event sink
    /// per shard. Per-shard frame sequences continue from each file's
    /// valid prefix: shard 0 resumes at the base streams' ends when this
    /// session's recovery found them, and every other file is scanned.
    fn open(
        pipeline: &Pipeline,
        (journal, journal_end): (&crate::sweep::Journal, Option<StreamEnd>),
        (ledger, ledger_end): (&ProvenanceLedger, Option<StreamEnd>),
        count: usize,
        io_state: &Arc<IoState>,
    ) -> std::io::Result<StreamShards> {
        let sink = |stream| pipeline.sink_options(stream, io_state);
        let mut shards = Vec::with_capacity(count);
        shards.push(Mutex::new(ShardStreams {
            journal: journal.open_writer(sink(StreamKind::Journal), journal_end)?,
            ledger: ledger.open_writer(sink(StreamKind::Ledger), ledger_end)?,
        }));
        for k in 1..count {
            let ledger_k = ProvenanceLedger::new(journal.shard_provenance_path(k));
            shards.push(Mutex::new(ShardStreams {
                journal: journal
                    .shard(k)
                    .open_writer(sink(StreamKind::Journal), None)?,
                ledger: ledger_k.open_writer(sink(StreamKind::Ledger), None)?,
            }));
        }
        if pipeline.telemetry.is_enabled() {
            let mut paths = vec![journal.events_path()];
            paths.extend((1..count).map(|k| journal.shard_events_path(k)));
            if let Err(e) = pipeline
                .telemetry
                .set_event_sinks(&paths, &sink(StreamKind::Events))
            {
                eprintln!(
                    "dydroid: failed to open event sinks beside {}: {e}",
                    journal.path().display()
                );
            }
        }
        Ok(StreamShards {
            shards,
            contention: AtomicU64::new(0),
        })
    }

    /// The shard owning `app`, by APK content hash.
    fn shard_of(&self, app: &SyntheticApp) -> usize {
        (content_hash(&app.apk) % self.shards.len() as u64) as usize
    }

    /// Appends one completed app to shard `k`, holding the shard lock
    /// through the journal append → checkpoint → ledger append →
    /// provenance-link quad so the virtual op clock orders the four
    /// writes as a unit. Recovery's journal ∩ ledger intersection
    /// depends on the journal frame landing before the ledger frame: a
    /// crash between them leaves a journal record without its graph,
    /// never the reverse. The two event lines go to shard `k`'s sink as
    /// observability only (recovery never reads them): a checkpoint
    /// mirrors every successful journal append, and the provenance link
    /// is the durable span cross-reference the ledger itself omits.
    fn append(
        &self,
        k: usize,
        record: &AppRecord,
        provenance: Option<&AppProvenance>,
        span_id: u64,
        telemetry: &Telemetry,
    ) {
        let mut shard = match self.shards[k].try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                match self.shards[k].lock() {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                }
            }
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        };
        let _scope = telemetry.event_shard_scope(k);
        match shard.journal.append(record) {
            Ok(()) => telemetry.emit_checkpoint(&record.package, span_id),
            Err(e) => eprintln!(
                "dydroid: shard {k} journal append failed for {}: {e}",
                record.package
            ),
        }
        if let Some(provenance) = provenance {
            match shard.ledger.append(provenance) {
                Ok(()) => telemetry.emit_provenance_link(&record.package, span_id),
                Err(e) => eprintln!(
                    "dydroid: shard {k} ledger append failed for {}: {e}",
                    record.package
                ),
            }
        }
    }

    /// Total contended shard appends so far.
    fn contention(&self) -> u64 {
        self.contention.load(Ordering::Relaxed)
    }
}

/// Scheduler/shard accounting of one sweep, carried into [`SweepStats`].
#[derive(Debug, Default)]
struct SweepPerf {
    worker_stats: Vec<WorkerStats>,
    stream_shards: usize,
    shard_contention: u64,
    sweep_ms: u64,
}

/// The live observability rig of one telemetry-on sweep (DESIGN.md
/// §5j): the straggler watchdog and, on journaled runs, the metrics
/// snapshot lines of the live event stream, fed by the collector as apps
/// complete. Built only when telemetry is enabled, so the disabled fast
/// path stays a single branch per app.
#[derive(Debug)]
struct Observatory {
    /// `monkey.virtual_us` at the last metrics snapshot; `None` on a
    /// plain run, which keeps no event stream for snapshots to join.
    last_snapshot_us: Option<AtomicU64>,
    watchdog: Mutex<Watchdog>,
    /// Flagged stragglers paired with their app span ids, so assemble
    /// can fill per-phase breakdowns from the spans' children.
    stragglers: Mutex<Vec<(StragglerEntry, u64)>>,
}

impl Observatory {
    /// Builds the rig for one run; `None` when telemetry is off.
    fn open(pipeline: &Pipeline, journaled: bool) -> Option<Observatory> {
        let telemetry = &pipeline.telemetry;
        telemetry.is_enabled().then(|| Observatory {
            last_snapshot_us: journaled
                .then(|| AtomicU64::new(telemetry.counter_value("monkey.virtual_us"))),
            watchdog: Mutex::default(),
            stragglers: Mutex::default(),
        })
    }

    /// Collector hook, once per completed app: feeds the watchdog the
    /// app's deterministic virtual cost (static-only apps charge none
    /// and are not observations) and emits a metrics snapshot line when
    /// the virtual clock has advanced [`METRICS_INTERVAL_US`].
    fn on_app_done(&self, pipeline: &Pipeline, package: &str, span_id: u64, virtual_us: u64) {
        if virtual_us > 0 {
            let flagged = self
                .watchdog
                .lock()
                .ok()
                .and_then(|mut w| w.observe(virtual_us));
            if let Some(median) = flagged {
                pipeline.telemetry.counter_add("watchdog.stragglers", 1);
                pipeline.telemetry.emit_warning(
                    "straggler",
                    package,
                    &[("virtual_us", virtual_us), ("median_us", median)],
                );
                if let Ok(mut stragglers) = self.stragglers.lock() {
                    stragglers.push((
                        StragglerEntry {
                            package: package.to_string(),
                            virtual_us,
                            median_virtual_us: median,
                            phases: Vec::new(),
                        },
                        span_id,
                    ));
                }
            }
        }
        if let Some(last) = &self.last_snapshot_us {
            let now = pipeline.telemetry.counter_value("monkey.virtual_us");
            if now.saturating_sub(last.load(Ordering::Relaxed)) >= METRICS_INTERVAL_US {
                last.store(now, Ordering::Relaxed);
                pipeline.telemetry.emit_metrics(now);
            }
        }
    }

    /// End-of-sweep: one final snapshot, so the live stream ends on the
    /// full registry until finalize rewrites it (or for good, when the
    /// run dies first).
    fn finish(&self, pipeline: &Pipeline) {
        if self.last_snapshot_us.is_some() {
            let now = pipeline.telemetry.counter_value("monkey.virtual_us");
            pipeline.telemetry.emit_metrics(now);
        }
    }

    /// Drains the flagged stragglers (with span ids) and the total flag
    /// count, for [`SweepStats`].
    fn take_stragglers(&self) -> (u64, Vec<(StragglerEntry, u64)>) {
        let flagged = self.watchdog.lock().map_or(0, |w| w.flagged());
        let entries = self
            .stragglers
            .lock()
            .map(|mut s| std::mem::take(&mut *s))
            .unwrap_or_default();
        (flagged, entries)
    }
}

/// Manifest-entry ceiling of the resource-sanity guard (permissions +
/// components); real store apps sit orders of magnitude below this.
pub const MANIFEST_SANITY_LIMIT: usize = 4_096;

/// Per-app ceiling on the batch-analysis fan-out. Each sweep worker may
/// open its own batch, so this stays small to bound transient
/// oversubscription; the fan-out only happens when an app produced at
/// least two distinct cold payloads.
pub const BATCH_ANALYSIS_WORKERS: usize = 4;

/// Mixed into the Monkey seed on reseeded retry attempts.
const RETRY_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// `(decompiled, filter, obfuscation)` from the cheap static phases.
type StaticPhases = (bool, DclFilter, ObfuscationReport);

/// One corpus index's sweep result: the record and, when a ledger keeps
/// them, its provenance graph; `None` when no result arrived.
type SweepSlot = Option<(AppRecord, Option<AppProvenance>)>;

/// What [`Pipeline::recover_all`] reconciled out of the two record
/// streams (journal and provenance ledger) of an interrupted journaled
/// run. The telemetry event stream plays no part.
#[derive(Debug, Default)]
pub struct RecoveryOutcome {
    /// Journal records of the longest mutually consistent prefix, in
    /// journal order: the journal and its ledger hold each of these apps.
    pub records: Vec<AppRecord>,
    /// Recovered provenance graphs for exactly the consistent apps.
    pub provenance: Vec<AppProvenance>,
    /// Corrupt or torn journal frames dropped during recovery.
    pub journal_dropped: usize,
    /// Corrupt or torn ledger frames dropped during recovery.
    pub ledger_dropped: usize,
    /// Packages present in the journal or the ledger but not both
    /// (sorted); these are re-analysed on resume.
    pub inconsistent: Vec<String>,
    /// The quarantine ledger after this reconciliation: interrupted
    /// attempts accumulated per package across resumes.
    pub quarantine: Vec<QuarantineEntry>,
    /// Packages at or over [`QUARANTINE_THRESHOLD`]
    /// (sorted); [`Pipeline::run_resumable`] records these as analysis
    /// failures instead of re-analysing them.
    pub quarantined: Vec<String>,
    /// Where the base journal's frames end after this reconciliation,
    /// so the session's writer resumes there without a second scan.
    pub(crate) journal_end: StreamEnd,
    /// The same for the base ledger; `None` when it was not recovered
    /// or its rewrite failed (the writer then scans it).
    pub(crate) ledger_end: Option<StreamEnd>,
}

/// One segment's reconciliation: the longest mutually consistent prefix
/// of a (journal, ledger) pair — the base streams or one shard's —
/// before the per-segment results are merged.
#[derive(Debug, Default)]
struct SegmentRecovery {
    records: Vec<AppRecord>,
    provenance: Vec<AppProvenance>,
    journal_dropped: usize,
    ledger_dropped: usize,
    inconsistent: BTreeSet<String>,
    journal_count: usize,
    /// Where the segment's journal frames end after its recovery.
    journal_end: StreamEnd,
    /// Where its ledger frames end, when the ledger was recovered.
    ledger_end: Option<StreamEnd>,
}

/// Marks of the monotonic avm telemetry counters taken at sweep start,
/// so [`Pipeline::assemble`] can report per-run deltas.
#[derive(Debug, Default, Clone, Copy)]
struct AvmMarks {
    events_dropped: u64,
    flow_truncated: u64,
    flow_deduped: u64,
    ic_call_hits: u64,
    ic_call_misses: u64,
    ic_field_hits: u64,
    ic_field_misses: u64,
}

/// Recovery counts carried into [`Pipeline::assemble`] for [`SweepStats`].
#[derive(Debug, Default)]
struct RecoverySummary {
    recovered: u64,
    dropped: u64,
    inconsistent: u64,
    quarantined: Vec<String>,
}

/// Uniform stream-recovery warning, emitted only when frames were lost.
fn warn_recovered(stream: &str, path: &Path, recovered: usize, dropped: usize) {
    if dropped > 0 {
        eprintln!(
            "dydroid: {stream} {}: recovered {recovered} record(s), dropped {dropped} corrupt frame(s)",
            path.display()
        );
    }
}

/// One line of the canonical (finalized) event stream: a bare per-app
/// fact, free of span ids and timestamps so the finalized stream is
/// byte-identical however the sweep interleaved.
fn canonical_event(package: &str, kind: &str) -> String {
    serde::Value::Object(vec![
        ("type".to_string(), serde::Value::Str(kind.to_string())),
        ("app".to_string(), serde::Value::Str(package.to_string())),
    ])
    .to_compact_string()
}

/// Installs `install_bytes` on `device` as [`Device::install`] does — the
/// archive and its manifest are parsed and CRC-checked, so a rewrite that
/// produced an uninstallable archive still fails here — but reuses the
/// decompiler's parsed class space when the archive's `classes.dex` is
/// byte-equal to the one it was parsed from. The rewrite touches only the
/// manifest, so install never re-parses bytecode the decompiler parsed,
/// and the four Table VIII re-runs of an app share one parse.
fn install(
    device: &mut Device,
    install_bytes: &[u8],
    decompiled: &decompiler::DecompiledApp,
) -> Result<String, AvmError> {
    let apk = Apk::parse(install_bytes)?;
    let manifest = apk.manifest()?;
    let classes = match apk.entry(CLASSES_ENTRY) {
        Some(dex) if decompiled.apk.entry(CLASSES_ENTRY) == Some(dex) => {
            Arc::clone(&decompiled.classes)
        }
        _ => Arc::new(apk.classes()?),
    };
    device.install_parsed(apk, manifest, classes)
}

/// Stable label for a [`DynamicStatus`], used as a span field value.
fn status_label(status: &DynamicStatus) -> &'static str {
    match status {
        DynamicStatus::Exercised => "exercised",
        DynamicStatus::Crash => "crash",
        DynamicStatus::NoActivity => "no_activity",
        DynamicStatus::RewriteFailure => "rewrite_failure",
        DynamicStatus::AnalysisFailure { .. } => "harness_failure",
    }
}

/// Span-field verdict for a completed app record (also the provenance
/// ledger's per-app verdict label).
pub(crate) fn verdict_label(record: &AppRecord) -> &'static str {
    match record.dynamic.as_ref() {
        None => "static_only",
        Some(outcome) => status_label(&outcome.status),
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

pub(crate) fn hash_pkg(pkg: &str) -> u64 {
    pkg.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dydroid_workload::{generate, CorpusSpec};

    fn tiny_corpus() -> Vec<SyntheticApp> {
        generate(&CorpusSpec {
            scale: 0.004, // ~235 apps
            seed: 99,
        })
    }

    #[test]
    fn empty_corpus_is_fine() {
        let pipeline = Pipeline::new(PipelineConfig {
            environment_reruns: true,
            ..Default::default()
        });
        let report = pipeline.run(&[]);
        assert!(report.records().is_empty());
        assert_eq!(report.env_counts().total_files, 0);
        // All tables render from nothing.
        let _ = report.render_all();
    }

    #[test]
    fn a_plain_sweep_keeps_graphs_only_for_a_ledger() {
        let corpus = tiny_corpus();
        let corpus = &corpus[..60];
        let pipeline = Pipeline::new(PipelineConfig {
            workers: 2,
            environment_reruns: false,
            ..Default::default()
        });
        let (slots, _, _) = pipeline.plain_sweep(corpus);
        assert_eq!(slots.len(), corpus.len());
        for (app, slot) in corpus.iter().zip(&slots) {
            let (record, graph) = slot.as_ref().expect("every app is swept");
            assert_eq!(record.package, app.package());
            assert!(
                graph.is_none(),
                "plain sweep kept a graph of `{}`",
                app.package()
            );
        }

        // A journaled sweep appends to the ledger beside its journal and
        // keeps one graph per app for its finalize.
        let dir = std::env::temp_dir().join(format!("dydroid_graph_gate_{}", std::process::id()));
        let journal = crate::sweep::Journal::new(dir.join("sweep.jsonl"));
        journal.reset().expect("reset journal");
        let ledger = ProvenanceLedger::new(journal.provenance_path());
        let io_state = IoState::new(pipeline.config.io_retry_budget);
        let shards = StreamShards::open(&pipeline, (&journal, None), (&ledger, None), 2, &io_state)
            .expect("open stream shards");
        let indices: Vec<usize> = (0..corpus.len()).collect();
        let (slots, _) = pipeline.sweep(corpus, &indices, Some(&shards), &HashSet::new(), None, 0);
        for (app, slot) in corpus.iter().zip(&slots) {
            let (_, graph) = slot.as_ref().expect("every app is swept");
            assert_eq!(
                graph.as_ref().map(|g| g.package.as_str()),
                Some(app.package()),
                "journaled sweep lost the graph of `{}`",
                app.package()
            );
        }
        drop(shards);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_serialises_to_json_and_back() {
        let corpus = tiny_corpus();
        let pipeline = Pipeline::new(PipelineConfig {
            environment_reruns: false,
            workers: 2,
            ..Default::default()
        });
        let report = pipeline.run(&corpus[..20.min(corpus.len())]);
        let json = serde_json::to_string(&report).expect("serialise");
        let back: MeasurementReport = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back.table2(), report.table2());
        assert_eq!(back.records().len(), report.records().len());
    }

    #[test]
    fn pipeline_runs_over_tiny_corpus() {
        let corpus = tiny_corpus();
        let pipeline = Pipeline::new(PipelineConfig {
            workers: 2,
            environment_reruns: false,
            ..Default::default()
        });
        let report = pipeline.run(&corpus);
        assert_eq!(report.records().len(), corpus.len());
        // Somebody must have been intercepted.
        assert!(report.records().iter().any(AppRecord::dex_intercepted));
        assert!(report.records().iter().any(AppRecord::native_intercepted));
    }

    #[test]
    fn anti_decompilation_app_recorded() {
        let corpus = tiny_corpus();
        let pipeline = Pipeline::new(PipelineConfig {
            workers: 1,
            environment_reruns: false,
            ..Default::default()
        });
        let app = corpus
            .iter()
            .find(|a| a.plan.anti_decompilation)
            .expect("plan includes anti-decompilation apps");
        let record = pipeline.analyze_app(app);
        assert!(!record.decompiled);
        assert!(record.obfuscation.anti_decompilation);
        assert!(record.dynamic.is_none());
    }

    #[test]
    fn remote_fetch_app_detected_as_remote() {
        let corpus = tiny_corpus();
        let pipeline = Pipeline::new(PipelineConfig::default());
        let app = corpus
            .iter()
            .find(|a| a.plan.remote_fetch)
            .expect("plan includes remote-fetch apps");
        let record = pipeline.analyze_app(app);
        let dynamic = record.dynamic.expect("dynamic phase ran");
        assert_eq!(dynamic.status, DynamicStatus::Exercised);
        assert!(!dynamic.remote_loads.is_empty(), "must be flagged remote");
        assert!(dynamic.remote_loads[0].1[0].contains("mobads.baidu.com"));
        assert!(dynamic.dex_entity.third_party);
    }

    #[test]
    fn malware_app_detected() {
        let corpus = tiny_corpus();
        let pipeline = Pipeline::new(PipelineConfig::default());
        let app = corpus
            .iter()
            .find(|a| {
                matches!(
                    a.plan.malware,
                    Some((dydroid_workload::MalwareFamily::ChathookPtrace, _))
                ) && a
                    .plan
                    .malware
                    .as_ref()
                    .map(|(_, t)| t.iter().all(|x| *x == dydroid_workload::TriggerSet::none()))
                    .unwrap_or(false)
            })
            .or_else(|| corpus.iter().find(|a| a.plan.malware.is_some()));
        if let Some(app) = app {
            let record = pipeline.analyze_app(app);
            let dynamic = record.dynamic.expect("dynamic phase ran");
            // Under the baseline environment every trigger fires, so the
            // payload loads and must be flagged.
            assert!(
                !dynamic.malware.is_empty(),
                "expected detection for {}: {dynamic:?}",
                app.plan.package
            );
        }
    }

    #[test]
    fn crash_app_categorised() {
        let corpus = tiny_corpus();
        let pipeline = Pipeline::new(PipelineConfig::default());
        let app = corpus
            .iter()
            .find(|a| a.plan.crash_on_launch)
            .expect("plan includes crash apps");
        let record = pipeline.analyze_app(app);
        assert_eq!(record.dynamic.unwrap().status, DynamicStatus::Crash);
    }

    #[test]
    fn rewrite_failure_categorised() {
        let corpus = tiny_corpus();
        let pipeline = Pipeline::new(PipelineConfig::default());
        let app = corpus
            .iter()
            .find(|a| a.plan.anti_repackaging)
            .expect("plan includes anti-repackaging apps");
        let record = pipeline.analyze_app(app);
        assert_eq!(
            record.dynamic.unwrap().status,
            DynamicStatus::RewriteFailure
        );
        assert!(!record.rewritten);
    }

    #[test]
    fn vulnerable_app_flagged() {
        let corpus = tiny_corpus();
        let pipeline = Pipeline::new(PipelineConfig::default());
        let app = corpus
            .iter()
            .find(|a| matches!(a.plan.vuln, Some(dydroid_workload::VulnPlan::DexExternal)))
            .expect("plan includes vulnerable apps");
        let record = pipeline.analyze_app(app);
        let dynamic = record.dynamic.unwrap();
        assert!(dynamic
            .vulns
            .iter()
            .any(|v| matches!(v, VulnKind::ExternalStorage)));
    }

    #[test]
    fn privacy_leaks_surface_in_record() {
        let corpus = tiny_corpus();
        let pipeline = Pipeline::new(PipelineConfig::default());
        let app = corpus
            .iter()
            .find(|a| a.plan.google_ads)
            .expect("plan includes ad apps");
        let record = pipeline.analyze_app(app);
        let dynamic = record.dynamic.unwrap();
        assert!(dynamic
            .leak_types
            .iter()
            .any(|l| l.privacy == PrivacyType::Settings && l.exclusively_third_party));
    }
}
