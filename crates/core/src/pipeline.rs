//! The per-app analysis pipeline and the parallel corpus sweep.
//!
//! The sweep is fault-tolerant: every app is analysed under
//! [`std::panic::catch_unwind`] with a per-app deadline and bounded
//! retries, so one hostile app can neither kill a worker nor stall the
//! corpus. See `DESIGN.md`, "Failure taxonomy & fault tolerance".

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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

use crate::cache::{AnalysisCache, BinaryVerdict, CacheStats};
use crate::config::{
    PipelineConfig, MAX_EVENTS_PER_APP, MAX_RETRIES, METRICS_INTERVAL_US, MONKEY_SEED,
    STRAGGLER_TOP,
};
use crate::durable::{self, IoHarness, IoState, Replacement, SinkOptions, StreamEnd, StreamKind};
use crate::profile::{StragglerEntry, Watchdog};
use crate::provenance::{AppProvenance, ProvenanceLedger};
use crate::report::{MeasurementReport, SweepStats};
use crate::scheduler::{idle_workers, virtual_makespan_us, DispatchCursor, WorkerStats};
use crate::telemetry::{ChildTable, HistogramSummary, MetricsSnapshot, SpanGuard, Telemetry};
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
        Self::with_telemetry(config, telemetry)
    }

    /// A pipeline on a telemetry handle the caller made, in place of the
    /// one `config.telemetry` asks for: an exporter the caller opened on
    /// it (a streamed trace, an event sink) sees every span, the
    /// detector's training at construction included.
    pub fn with_telemetry(config: PipelineConfig, telemetry: Telemetry) -> Self {
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
        let (slots, perf, observatory) = self.plain_sweep(corpus);
        self.assemble(
            corpus,
            slots,
            None,
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
    fn plain_sweep(&self, corpus: &[SyntheticApp]) -> (SweepSlots, SweepPerf, Option<Observatory>) {
        let observatory = Observatory::open(self, false);
        let sweep_start = Instant::now();
        let order: Vec<usize> = (0..corpus.len()).collect();
        let mut slots = SweepSlots::new(corpus.len(), false);
        let mut sweep_span = self.telemetry.span("sweep");
        sweep_span.field("apps", order.len());
        let worker_stats = self.sweep(
            corpus,
            &order,
            &mut slots,
            None,
            observatory.as_ref(),
            &sweep_span,
        );
        drop(sweep_span);
        if let Some(obs) = &observatory {
            obs.finish(self);
        }
        let perf = SweepPerf {
            worker_stats,
            sweep_ms: sweep_start.elapsed().as_millis() as u64,
        };
        (slots, perf, observatory)
    }

    /// Marks of the monotonic avm counters (truncation + inline caches),
    /// for per-run deltas.
    fn avm_counter_marks(&self) -> AvmMarks {
        AVM_COUNTERS.map(|name| self.telemetry.counter_value(name))
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
        // Stitch spans from the previous session into this timeline.
        if self.telemetry.is_enabled() {
            let path = journal.events_path();
            match self.telemetry.stitch_from(&path) {
                Ok(0) => {}
                Ok(stitched) => self
                    .telemetry
                    .counter_add("telemetry.spans_stitched", stitched as u64),
                Err(e) => eprintln!(
                    "dydroid: failed to stitch events from {}: {e}",
                    path.display()
                ),
            }
        }
        // Recovered apps (with their graphs) are filed straight into the
        // slots of their corpus indices; the sweep fills the rest. Apps of
        // a larger corpus than this one count as recovered but take no
        // slot.
        let index: HashMap<&str, usize> = corpus
            .iter()
            .enumerate()
            .rev()
            .map(|(i, app)| (app.package(), i))
            .collect();
        let mut slots = SweepSlots::new(corpus.len(), true);
        let (outcome, outside) = self.recover_streams(journal, &index, &mut slots)?;
        let recovered = slots.records.iter().flatten().count() + outside.len();
        drop(outside);
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
        }
        drop(index);
        let pending: Vec<usize> = (0..corpus.len())
            .filter(|&i| slots.records[i].is_none())
            .collect();
        // Only a session that analyses and appends nothing leaves a
        // stream as recovery verified it; any append lands in completion
        // order and must be finalized.
        let canonical = if pending.is_empty() {
            outcome.canonical
        } else {
            Canonical::default()
        };
        let mut writers = StreamWriters::open(
            self,
            (journal, outcome.journal_end),
            (&ledger, outcome.ledger_end),
            &io_state,
        )?;
        let cache_mark = self.cache.stats();
        let detector_mark = self.detector.stats();
        let avm_marks = self.avm_counter_marks();
        let observatory = Observatory::open(self, true);
        let sweep_start = Instant::now();
        let mut sweep_span = self.telemetry.span("sweep");
        sweep_span.field("apps", pending.len());
        sweep_span.field("resumed", recovered);
        let worker_stats = self.sweep(
            corpus,
            &pending,
            &mut slots,
            Some(&mut writers),
            observatory.as_ref(),
            &sweep_span,
        );
        drop(sweep_span);
        if let Some(obs) = &observatory {
            obs.finish(self);
        }
        // Close the writers before finalize replaces their files (the
        // telemetry event sink closes in finalize).
        drop(writers);
        let perf = SweepPerf {
            worker_stats,
            sweep_ms: sweep_start.elapsed().as_millis() as u64,
        };
        let summary = RecoverySummary {
            recovered: recovered as u64,
            dropped: (outcome.journal_dropped + outcome.ledger_dropped) as u64,
            inconsistent: outcome.inconsistent.len() as u64,
        };
        Ok(self.assemble(
            corpus,
            slots,
            Some((journal, &io_state, canonical)),
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
    /// shed, cut or missing event stream loses no measured app. An app
    /// present in one stream but not the other is inconsistent: a crash
    /// cut its append, so it is unfinished work and is re-analysed like
    /// any pending app.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from reading or rewriting the journal; ledger
    /// read failures degrade to warnings (its
    /// records are simply not recovered).
    pub fn recover_all(&self, journal: &crate::sweep::Journal) -> std::io::Result<RecoveryOutcome> {
        // With no corpus, every package is filed outside one, in order of
        // first appearance.
        let mut slots = SweepSlots::new(0, true);
        let (mut outcome, apps) = self.recover_streams(journal, &HashMap::new(), &mut slots)?;
        outcome.records.reserve_exact(apps.len());
        for (record, graph) in apps {
            outcome.records.push(record);
            outcome.provenance.extend(graph);
        }
        Ok(outcome)
    }

    /// [`Pipeline::recover_all`] in one pass per stream, filing as it
    /// reads: the journal and the ledger each on a thread of its own,
    /// each record or graph of a package `index` maps to a corpus index
    /// goes straight into that slot of `slots`, and the first one per
    /// package wins. Recovered apps outside the corpus are returned, each
    /// record paired with its graph in journal order, beside an outcome
    /// whose `records` and `provenance` stay empty.
    ///
    /// Neither stream is read on the calling thread: a fresh thread
    /// allocates from an idle allocator arena, such as one a finished
    /// sweep's workers freed their records into, where the caller's own
    /// heap would grow by every record (a scale-1.0 reopen's high-water
    /// mark is about 35 MB lower this way).
    fn recover_streams(
        &self,
        journal: &crate::sweep::Journal,
        index: &HashMap<&str, usize>,
        slots: &mut SweepSlots,
    ) -> std::io::Result<(RecoveryOutcome, Vec<AppResult>)> {
        let ledger = ProvenanceLedger::new(journal.provenance_path());
        let SweepSlots { records, graphs } = slots;
        let (journal_read, ledger_read) = std::thread::scope(|scope| {
            let ledger_job = scope.spawn(|| {
                file_stream(&ledger, index, graphs, |graph: &AppProvenance| {
                    graph.package.as_str()
                })
            });
            let journal_job = scope.spawn(|| {
                file_stream(journal, index, records, |record: &AppRecord| {
                    record.package.as_str()
                })
            });
            let journal_read = journal_job
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            let ledger_read = ledger_job
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (journal_read, ledger_read)
        });
        let (journal_loaded, outside_records, journal_in_order) = journal_read?;
        warn_recovered(
            "journal",
            journal.path(),
            journal_loaded.records,
            journal_loaded.dropped_lines,
        );
        let mut journal_end = journal_loaded.end;

        let mut ledger_dropped = 0usize;
        let mut ledger_end = None;
        let mut ledger_in_order = false;
        let mut outside_graphs = Outside::default();
        match ledger_read {
            Ok((loaded, outside, in_order)) => {
                warn_recovered(
                    "ledger",
                    ledger.path(),
                    loaded.records,
                    loaded.dropped_lines,
                );
                ledger_dropped = loaded.dropped_lines;
                ledger_end = Some(loaded.end);
                ledger_in_order = in_order;
                outside_graphs = outside;
            }
            Err(e) => {
                // An unrecovered ledger keeps none of its graphs.
                graphs.iter_mut().for_each(|graph| *graph = None);
                eprintln!(
                    "dydroid: failed to recover ledger {}: {e}",
                    ledger.path().display()
                );
            }
        }
        let ledger_active = ledger_end.is_some();

        // Reconcile slot by slot: a record without a graph (with the
        // ledger recovered) is inconsistent, as is a graph without a
        // record. An unrecovered ledger keeps every record, graph-less.
        let mut inconsistent: BTreeSet<String> = BTreeSet::new();
        for (record, graph) in records.iter_mut().zip(graphs.iter_mut()) {
            let unpaired = match (&*record, &*graph) {
                (Some(_), None) if ledger_active => record.take().map(|r| r.package),
                (None, Some(_)) => graph.take().map(|g| g.package),
                _ => None,
            };
            inconsistent.extend(unpaired);
        }
        let mut outside: Vec<AppResult> = Vec::new();
        for record in outside_records.records.into_iter().flatten() {
            match outside_graphs.take(&record.package) {
                Some(graph) => outside.push((record, Some(graph))),
                None if !ledger_active => outside.push((record, None)),
                None => {
                    inconsistent.insert(record.package);
                }
            }
        }
        inconsistent.extend(
            outside_graphs
                .records
                .into_iter()
                .flatten()
                .map(|graph| graph.package),
        );

        // Rewrite the journal and ledger to the consistent set so this
        // session's appends extend files that agree with each other.
        let recovered = records.iter().flatten().count() + outside.len();
        if recovered != journal_loaded.records {
            journal_end = journal.rewrite(
                records
                    .iter()
                    .flatten()
                    .chain(outside.iter().map(|(record, _)| record)),
            )?;
        }
        if !inconsistent.is_empty() {
            let kept = graphs
                .iter()
                .flatten()
                .chain(outside.iter().filter_map(|(_, graph)| graph.as_ref()));
            match ledger.rewrite(kept) {
                Ok(end) => ledger_end = Some(end),
                Err(e) => {
                    // The file is in an unknown state: the writer scans
                    // it afresh.
                    ledger_end = None;
                    eprintln!(
                        "dydroid: failed to rewrite ledger {}: {e}",
                        ledger.path().display()
                    );
                }
            }
        }

        // A stream in corpus order keeps that verdict only while recovery
        // had nothing to reconcile.
        let settled = inconsistent.is_empty();
        let canonical = Canonical {
            journal: settled && journal_in_order,
            ledger: settled && ledger_in_order && ledger_end.is_some(),
        };
        let outcome = RecoveryOutcome {
            records: Vec::new(),
            provenance: Vec::new(),
            journal_dropped: journal_loaded.dropped_lines,
            ledger_dropped,
            inconsistent: inconsistent.into_iter().collect(),
            journal_end,
            ledger_end,
            canonical,
        };
        Ok((outcome, outside))
    }

    /// The parallel worker loop. Workers take the corpus indices of
    /// `order` through one shared atomic cursor — every app is known up
    /// front and none spawns another, so the next position is all a
    /// worker needs — and analyse each app inside a panic-isolation
    /// boundary. Results flow through a bounded channel so a slow
    /// collector backpressures workers instead of buffering the whole
    /// corpus in memory; the collector files each one in `slots` at its
    /// corpus index and charges it to the worker that ran it, and a slot
    /// stays as it was wherever no result arrived. With `writers`
    /// attached, workers also build each app's provenance graph and
    /// encode its journal and ledger bodies, and the collector appends
    /// them — the sweep's only append path, with one writer per stream.
    fn sweep(
        &self,
        corpus: &[SyntheticApp],
        order: &[usize],
        slots: &mut SweepSlots,
        mut writers: Option<&mut StreamWriters>,
        observatory: Option<&Observatory>,
        parent: &SpanGuard,
    ) -> Vec<WorkerStats> {
        let workers = self.config.effective_workers().min(order.len().max(1));
        let keep_graphs = writers.is_some();
        let cursor = DispatchCursor::new(order);
        if self.telemetry.is_enabled() {
            // Baseline gauges for the metrics snapshots, `dcltrace top`
            // and a caller's live poller. The total is the corpus:
            // `top` counts an app done once any session checkpointed it.
            // `sweep.done` and `sweep.failed` count this session's
            // collected apps and harness failures, out of its
            // `sweep.pending` apps.
            self.telemetry.gauge_set("sweep.workers", workers as u64);
            self.telemetry
                .gauge_set("sweep.total_apps", corpus.len() as u64);
            self.telemetry.gauge_set("sweep.done", 0);
            self.telemetry.gauge_set("sweep.failed", 0);
            self.telemetry
                .gauge_set("sweep.pending", order.len() as u64);
        }
        let (result_tx, result_rx) = channel::bounded::<Finished>(4 * workers);
        // Filled by the collector outside the scope, so partial results
        // and their accounting survive even a worker-thread panic that
        // escapes the per-app isolation.
        let mut worker_stats = vec![WorkerStats::default(); workers];
        let scope_result = crossbeam::thread::scope(|scope| {
            for worker in 0..workers {
                let result_tx = result_tx.clone();
                let cursor = &cursor;
                scope.spawn(move |_| {
                    while let Some(index) = cursor.next() {
                        let started = Instant::now();
                        let (record, graph, span_id, virtual_us, phases) =
                            self.analyze_app_traced(&corpus[index], parent, keep_graphs);
                        let bodies = graph.as_ref().map(|g| AppBodies::encode(&record, g));
                        let finished = Finished {
                            worker,
                            index,
                            record,
                            graph,
                            bodies,
                            span_id,
                            busy_us: started.elapsed().as_micros() as u64,
                            virtual_us,
                            phases,
                        };
                        if result_tx.send(finished).is_err() {
                            // Receiver gone: the sweep is shutting down.
                            break;
                        }
                    }
                });
            }
            drop(result_tx);
            let mut collected_count = 0u64;
            let mut failed_count = 0u64;
            while let Ok(done) = result_rx.recv() {
                if let (Some(writers), Some(bodies)) = (writers.as_deref_mut(), &done.bodies) {
                    writers.append(&done.record.package, bodies, done.span_id, &self.telemetry);
                }
                let stats = &mut worker_stats[done.worker];
                stats.executed += 1;
                stats.busy_us += done.busy_us;
                stats.virtual_us += done.virtual_us;
                if self.telemetry.is_enabled() {
                    // Observatory bookkeeping, all on the collector
                    // thread: worker/utilization gauges from the
                    // collected accounting, then the watchdog and
                    // metrics snapshot hooks.
                    collected_count += 1;
                    self.telemetry.gauge_set(
                        "sweep.busy_us",
                        worker_stats.iter().map(|w| w.busy_us).sum(),
                    );
                    self.telemetry.gauge_set(
                        "sweep.virtual_makespan_us",
                        virtual_makespan_us(&worker_stats),
                    );
                    if done.record.harness_failure().is_some() {
                        failed_count += 1;
                        self.telemetry.gauge_set("sweep.failed", failed_count);
                    }
                    self.telemetry.gauge_set("sweep.done", collected_count);
                    if let Some(obs) = observatory {
                        obs.on_app_done(self, &done.record.package, done.virtual_us, done.phases);
                    }
                }
                slots.file(done.index, done.record, done.graph);
            }
        });
        if scope_result.is_err() {
            eprintln!("dydroid: a sweep thread panicked outside per-app isolation; continuing with partial results");
        }
        worker_stats
    }

    /// Merges sweep results (and any recovered records) into a complete,
    /// corpus-ordered report; apps lost to a non-isolated thread death
    /// are recorded as harness failures rather than dropped. A journaled
    /// run's streams are finalized here (see
    /// [`Pipeline::finalize_streams`]); `streams` is its journal, the I/O
    /// state its sinks counted into and which of its streams are already
    /// canonical, `None` on a plain run.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        &self,
        corpus: &[SyntheticApp],
        slots: SweepSlots,
        streams: Option<(&crate::sweep::Journal, &Arc<IoState>, Canonical)>,
        recovery: Option<RecoverySummary>,
        perf: SweepPerf,
        observatory: Option<Observatory>,
        cache_mark: CacheStats,
        detector_mark: dydroid_analysis::DetectorStats,
        avm_marks: AvmMarks,
    ) -> MeasurementReport {
        // Graphs are gathered only on a journaled run, whose ledger keeps
        // them: this session's live graphs and the recovered ones alike.
        // The record slots become the records in place (an empty slot
        // and a record share one layout), so assembling allocates no
        // second corpus-length buffer.
        let journal = streams.map(|(journal, _, _)| journal);
        let SweepSlots { records, graphs } = slots;
        let records: Vec<AppRecord> = records
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.unwrap_or_else(|| {
                    self.failure_record(&corpus[i], "record lost: sweep worker died".to_string())
                })
            })
            .collect();
        let env_start = Instant::now();
        let env = if self.config.environment_reruns {
            let mut env_span = self.telemetry.span("environment");
            let env = crate::environment::rerun_all(self, corpus, &records);
            env_span.field("flagged_files", env.counts.total_files);
            env
        } else {
            crate::environment::EnvOutcome::default()
        };
        let finalized_streams = match streams {
            Some((journal, _, canonical)) => {
                self.finalize_streams(journal, &records, graphs, &env.loads, canonical)
            }
            None => 0,
        };
        // Observatory wrap-up: idle-worker warnings, then the straggler
        // appendix, whose phase breakdowns the collector kept as it
        // flagged each app.
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
                    b.virtual_us
                        .cmp(&a.virtual_us)
                        .then_with(|| a.package.cmp(&b.package))
                });
                entries.truncate(STRAGGLER_TOP);
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
        let io = streams
            .map(|(_, io_state, _)| io_state.snapshot())
            .unwrap_or_default();
        let recovery = recovery.unwrap_or_default();
        let avm_now = self.avm_counter_marks();
        let deltas: AvmMarks = std::array::from_fn(|i| avm_now[i].saturating_sub(avm_marks[i]));
        let stats = SweepStats {
            sweep_ms: perf.sweep_ms,
            env_ms: env_start.elapsed().as_millis() as u64,
            analyzed_apps: records.len(),
            telemetry: self.telemetry.is_enabled(),
            journaled: journal.is_some(),
            cache: self.cache.stats().since(&cache_mark),
            detector: self.detector.stats().since(&detector_mark),
            dropped_events: deltas[0],
            flow_truncated: deltas[1],
            flow_deduped: deltas[2],
            ic_call_hits: deltas[3],
            ic_call_misses: deltas[4],
            ic_field_hits: deltas[5],
            ic_field_misses: deltas[6],
            journal_syncs: io.syncs[StreamKind::Journal.index()],
            io_retries: io.retries,
            io_backoff_us: io.backoff_us,
            shed_events: io.shed[StreamKind::Events.index()],
            shed_provenance: io.shed[StreamKind::Ledger.index()],
            finalized_streams,
            recovered_records: recovery.recovered,
            recovery_dropped: recovery.dropped,
            inconsistent_apps: recovery.inconsistent,
            shard_contention: 0,
            worker_stats: perf.worker_stats,
            straggler_warnings,
            stragglers,
            app_wall,
            phases,
        };
        let mut report = MeasurementReport::new(records, env.counts);
        report.set_env_loads(env.loads);
        report.set_stats(stats);
        report
    }

    /// Finalizes a journaled run's two record streams into corpus order,
    /// so a completed run's journal and ledger are byte-identical however
    /// the sweep interleaved and however many resumes it took. The ledger
    /// holds one graph per corpus app with its environment outcomes
    /// attached: `graphs` are the live or recovered graphs by corpus
    /// index, and an app whose graph is gone (resumed with a torn ledger
    /// line) gets a degraded reconstruction.
    ///
    /// The journal and the ledger are atomically rewritten unless
    /// `canonical` says recovery found them already in corpus order (and
    /// this session appended nothing), so a rewrite would only put the
    /// same bytes back. The ledger is kept only if each of its graphs also
    /// carries the environment outcomes this session's re-runs found. A
    /// kept stream takes no harness op and is not renamed, but it is
    /// synced like a replaced one. A live sweep's streams are in
    /// completion order and are always rewritten.
    ///
    /// Every rewritten stream is encoded frame by frame as it is written,
    /// so no stream is ever held whole. The ledger's and the journal's
    /// harness ops are taken in that order, their temp files are written
    /// on two threads (the ledger's bodies built on the fly, each graph
    /// dropped once written), and then they commit in a fixed order:
    /// ledger rename, journal rename, one directory sync. A fault harness
    /// therefore sees the same ops in the same order, and a crash leaves
    /// the same on-disk states, as one replace after another. Once the
    /// journal is final (renamed or kept), the event log is removed and
    /// this session's span stacks are appended to the
    /// `<journal>.profile.folded` artifact; neither is a harness op.
    /// Returns how many of the journal and the ledger were replaced.
    fn finalize_streams(
        &self,
        journal: &crate::sweep::Journal,
        records: &[AppRecord],
        graphs: Vec<Option<AppProvenance>>,
        env_loads: &[crate::environment::EnvLoad],
        canonical: Canonical,
    ) -> u64 {
        let mut loads_by_app: HashMap<&str, Vec<&crate::environment::EnvLoad>> = HashMap::new();
        for load in env_loads {
            loads_by_app
                .entry(load.package.as_str())
                .or_default()
                .push(load);
        }
        let ledger = ProvenanceLedger::new(journal.provenance_path());
        let harness = self.io_harness.as_ref();
        let fail = |stream: &str, path: &Path, e: std::io::Error| {
            eprintln!(
                "dydroid: failed to finalize {stream} {}: {e}",
                path.display()
            );
        };
        // A replace whose op swallowed it (crash) or failed (fault) has
        // no temp file to write.
        fn write_begun(
            replace: &std::io::Result<Option<Replacement>>,
            frames: impl FnOnce(&mut durable::FrameOut) -> std::io::Result<()>,
        ) -> Option<std::io::Result<StreamEnd>> {
            match replace {
                Ok(Some(replace)) => Some(replace.write(frames)),
                _ => None,
            }
        }
        let keep_ledger = canonical.ledger
            && graphs.iter().zip(records).all(|(graph, record)| {
                let loads = loads_by_app
                    .get(record.package.as_str())
                    .map_or(&[][..], Vec::as_slice);
                graph.as_ref().is_some_and(|graph| {
                    graph.env_loads.len() == loads.len()
                        && graph.env_loads.iter().zip(loads).all(|(kept, load)| {
                            kept.path == load.path && kept.configs == load.configs
                        })
                })
            });
        // A kept stream begins no replace, just as one a crashed harness
        // swallowed: nothing is written and nothing renamed.
        let begin = |keep: bool, path: &Path| {
            if keep {
                Ok(None)
            } else {
                Replacement::begin(path, harness)
            }
        };
        let ledger_replace = begin(keep_ledger, ledger.path());
        let journal_replace = begin(canonical.journal, journal.path());
        let (ledger_written, journal_written) = std::thread::scope(|scope| {
            let ledger_job = scope.spawn(|| {
                write_begun(&ledger_replace, |out| {
                    for (graph, record) in graphs.into_iter().zip(records) {
                        let mut p = graph.unwrap_or_else(|| AppProvenance::from_record(record));
                        p.env_loads = loads_by_app
                            .get(record.package.as_str())
                            .into_iter()
                            .flatten()
                            .map(|l| crate::provenance::EnvLoadOutcome {
                                path: l.path.clone(),
                                configs: l.configs.clone(),
                            })
                            .collect();
                        out.push_record(&p)?;
                    }
                    Ok(())
                })
            });
            let journal_written = write_begun(&journal_replace, |out| {
                records.iter().try_for_each(|r| out.push_record(r))
            });
            let ledger_written = ledger_job
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (ledger_written, journal_written)
        });
        let mut renamed = [false; 2];
        for (done, (stream, path, replace, written)) in renamed.iter_mut().zip([
            ("ledger", ledger.path(), ledger_replace, ledger_written),
            ("journal", journal.path(), journal_replace, journal_written),
        ]) {
            let committed = match (replace, written) {
                (Ok(Some(replace)), Some(Ok(_))) => replace.commit().map(|()| *done = true),
                (Err(e), _) | (_, Some(Err(e))) => Err(e),
                // A crashed harness swallowed the replace.
                _ => Ok(()),
            };
            if let Err(e) = committed {
                fail(stream, path, e);
            }
        }
        let [_, journal_renamed] = renamed;
        // A kept stream is made as durable as a replaced one: a killed
        // one-worker sweep can leave every frame in corpus order with the
        // last ones unsynced, and a killed finalize its renames.
        let kept = [
            (keep_ledger, "ledger", ledger.path()),
            (canonical.journal, "journal", journal.path()),
        ];
        for (_, stream, path) in kept.iter().filter(|(keep, _, _)| *keep) {
            if let Err(e) = durable::sync_file(path) {
                fail(stream, path, e);
            }
        }
        if renamed.contains(&true) || kept.iter().any(|(keep, _, _)| *keep) {
            if let Err(e) = durable::sync_dir(journal.path()) {
                fail("journal", journal.path(), e);
            }
        }
        // The event log ends with the run. Once the journal is final, this
        // session's span stacks (the stitched ones of earlier sessions
        // included) are appended to the profile artifact, which thus keeps
        // every session's, and the log goes: it holds nothing the journal
        // does not. Neither is a harness op. A journal that did not commit
        // keeps the log for the next resume to stitch.
        self.telemetry.close_event_sink();
        if journal_renamed || canonical.journal {
            if self.telemetry.is_enabled() {
                let path = journal.profile_path();
                let folded = self.telemetry.profile().folded();
                let appended = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)
                    .and_then(|mut file| file.write_all(folded.as_bytes()));
                if let Err(e) = appended {
                    fail("profile", &path, e);
                }
            }
            let events_path = journal.events_path();
            if let Err(e) = durable::remove_if_exists(&events_path) {
                fail("events", &events_path, e);
            }
        }
        renamed.iter().filter(|&&done| done).count() as u64
    }

    /// Analyses one app inside the fault-isolation boundary: panics are
    /// caught, harness failures are retried up to [`MAX_RETRIES`] times
    /// (reseeding the Monkey on each retry), and the final
    /// failure is recorded as [`DynamicStatus::AnalysisFailure`].
    pub fn analyze_app_resilient(&self, app: &SyntheticApp) -> AppRecord {
        self.analyze_app_traced(app, &SpanGuard::default(), false).0
    }

    /// [`Pipeline::analyze_app_resilient`] under a per-app telemetry span
    /// opened under `parent` (the sweep span); returns the record and,
    /// with `keep_graphs`, its provenance graph, together with the span
    /// id (so the collector can checkpoint and ledger them), the app's
    /// deterministic virtual cost in microseconds, summed across
    /// attempts, which the collector charges to the worker that ran it,
    /// and the span's [`ChildTable`] (a retried app's repeated phases
    /// summed by name), which it keeps for a flagged straggler.
    fn analyze_app_traced(
        &self,
        app: &SyntheticApp,
        parent: &SpanGuard,
        keep_graphs: bool,
    ) -> (AppRecord, Option<AppProvenance>, u64, u64, ChildTable) {
        let mut span = self.telemetry.span_with_parent("app", parent);
        span.field("app", &app.plan.package);
        let span_id = span.id();
        let attempts = MAX_RETRIES + 1;
        let mut last: Option<AppRecord> = None;
        let mut total_virtual_us = 0u64;
        // The static phases are input-deterministic, so a multi-attempt
        // failure spiral decompiles the app once, not once per attempt.
        let mut statics: Option<StaticPhases> = None;
        let (record, provenance, tries) = 'attempts: {
            for attempt in 0..attempts {
                if attempt > 0 && self.telemetry.is_enabled() {
                    self.telemetry.counter_add("sweep.retries", 1);
                }
                let salt = RETRY_SEED_SALT.wrapping_mul(u64::from(attempt));
                match catch_unwind(AssertUnwindSafe(|| {
                    self.analyze_app_salted(app, salt, &span, keep_graphs)
                })) {
                    Ok((record, provenance, virtual_us)) => {
                        total_virtual_us += virtual_us;
                        if record.harness_failure().is_none() {
                            break 'attempts (record, provenance, attempt + 1);
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
                        last = Some(Self::app_record(
                            app,
                            statics,
                            false,
                            Some(DynamicOutcome::failure(reason)),
                        ));
                    }
                }
            }
            let record = last
                .unwrap_or_else(|| self.failure_record(app, "no analysis attempt ran".to_string()));
            (record, None, attempts)
        };
        span.field("attempt", tries);
        span.field("verdict", verdict_label(&record));
        // Apps that never reached the dynamic phase, and harness failures,
        // carry no live device state; they still get a ledger entry,
        // reconstructed from the record, so the ledger's app set always
        // matches the journal's.
        let provenance = keep_graphs.then(|| {
            let mut p = provenance.unwrap_or_else(|| AppProvenance::from_record(&record));
            p.span = span_id;
            p
        });
        (record, provenance, span_id, total_virtual_us, span.close())
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
        Self::app_record(
            app,
            Self::static_phases(app),
            false,
            Some(DynamicOutcome::failure(reason)),
        )
    }

    /// The record of `app` from its phase results — the one place an
    /// [`AppRecord`] is put together.
    fn app_record(
        app: &SyntheticApp,
        (decompiled, filter, obfuscation): StaticPhases,
        rewritten: bool,
        dynamic: Option<DynamicOutcome>,
    ) -> AppRecord {
        AppRecord {
            package: app.plan.package.clone(),
            metadata: app.plan.metadata.clone(),
            decompiled,
            filter,
            obfuscation,
            rewritten,
            dynamic,
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
        let (record, _, _) = self.analyze_app_salted(app, 0, &span, false);
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
        parent: &SpanGuard,
        keep_graphs: bool,
    ) -> (AppRecord, Option<AppProvenance>, u64) {
        // The early returns of the phases below record no dynamic cost
        // and keep no graph.
        let early = |statics: StaticPhases, dynamic: Option<DynamicOutcome>| {
            (Self::app_record(app, statics, false, dynamic), None, 0)
        };

        // Phase 1+2: decompile, static filter, obfuscation analysis —
        // one "static" span; its early returns drop the guard on exit.
        let static_span = self.telemetry.span_with_parent("static", parent);

        let decompiled = match decompiler::decompile(&app.apk) {
            Ok(d) => d,
            Err(err) => {
                let obfuscation = if matches!(err, DecompileError::AntiDecompilation { .. }) {
                    ObfuscationReport::anti_decompilation_only()
                } else {
                    ObfuscationReport::default()
                };
                return early((false, DclFilter::default(), obfuscation), None);
            }
        };

        // Resource-sanity guard: a manifest blown up far past anything a
        // store-distributed app declares would stall the rewriter and the
        // Monkey's callback enumeration. Reject it as a harness-level
        // failure instead of burning the deadline on it.
        let manifest_entries =
            decompiled.manifest.permissions.len() + decompiled.manifest.components.len();
        if manifest_entries > MANIFEST_SANITY_LIMIT {
            return early(
                (true, DclFilter::default(), ObfuscationReport::default()),
                Some(DynamicOutcome::failure(format!(
                    "manifest exceeds sanity bounds: {manifest_entries} entries > {MANIFEST_SANITY_LIMIT}"
                ))),
            );
        }

        // Phase 2: static filter + obfuscation analysis.
        let filter = DclFilter::scan(&decompiled.classes);
        let obfuscation = obfuscation::analyze(&decompiled);
        drop(static_span);
        let statics = (true, filter, obfuscation);
        if !filter.any() {
            return early(statics, None);
        }

        // Phase 3: rewrite if needed. Apps that already hold the
        // permission install their original bytes — borrowed, not
        // cloned: a full-APK copy per app is pure overhead at corpus
        // scale.
        let (install_bytes, rewritten): (Cow<[u8]>, bool) =
            if decompiler::needs_rewriting(&decompiled.manifest) {
                let _span = self.telemetry.span_with_parent("rewrite", parent);
                match decompiler::repackage_with_permission(&decompiled) {
                    Ok(bytes) => (Cow::Owned(bytes), true),
                    Err(_) => {
                        let failure = DynamicOutcome::empty(DynamicStatus::RewriteFailure);
                        return early(statics, Some(failure));
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
            parent,
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
                &app.plan.package,
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
            Self::app_record(app, statics, rewritten, Some(dynamic)),
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
    /// device.
    pub fn exercise_and_analyze(
        &self,
        app: &SyntheticApp,
        device: &mut Device,
        install_bytes: &[u8],
        decompiled: &decompiler::DecompiledApp,
    ) -> DynamicOutcome {
        let root = SpanGuard::default();
        self.exercise_and_analyze_salted(app, device, install_bytes, decompiled, 0, &root)
            .0
    }

    /// [`Pipeline::exercise_and_analyze`] with a Monkey seed salt. Also
    /// returns per-path privacy-leak attribution `(loaded path, privacy
    /// type label)` — the verdict edges of the provenance graph, which
    /// the aggregate [`DynamicOutcome`] no longer resolves to paths —
    /// and the app's deterministic virtual cost in microseconds (from
    /// instructions retired), which the collector charges to its worker.
    /// The environment re-runs call it unsalted, under their own
    /// per-configuration `parent` span.
    pub(crate) fn exercise_and_analyze_salted(
        &self,
        app: &SyntheticApp,
        device: &mut Device,
        install_bytes: &[u8],
        decompiled: &decompiler::DecompiledApp,
        seed_salt: u64,
        parent: &SpanGuard,
    ) -> (DynamicOutcome, Vec<(String, String)>, u64) {
        let package = &app.plan.package;

        {
            let mut install_span = self.telemetry.span_with_parent("install", parent);
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
        let mut monkey_span = self.telemetry.span_with_parent("monkey", parent);
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
        if self.telemetry.is_enabled() {
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
        let mut collect_span = self.telemetry.span_with_parent("collect", parent);
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
        if self.telemetry.is_enabled() {
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
        // analysed once per *sweep* however many apps load it.
        let mut seen_paths: HashSet<&str> = HashSet::new();
        let unique: Vec<_> = device
            .hooks
            .intercepted()
            .iter()
            .filter(|binary| seen_paths.insert(binary.path.as_str()))
            .collect();
        let taint = TaintAnalysis::new();
        let mut analysis_span = self.telemetry.span_with_parent("binary_analysis", parent);
        // Delta marks lock every cache stripe, so take them only when
        // the span keeps the fields they feed.
        let marks = analysis_span
            .keeps_fields()
            .then(|| (self.cache.stats(), self.detector.stats()));
        let verdicts: Vec<_> = unique
            .iter()
            .map(|binary| self.cache.analyze(&binary.data, &self.detector, &taint))
            .collect();
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

/// The one writer of a journaled sweep: the append handles of the journal
/// and its provenance ledger, owned by the sweep's collector, which also
/// opens the telemetry event sink beside them. Workers hand it each
/// finished app's encoded bodies, so every frame of a stream is appended
/// by one thread and no lock guards it. A plain [`Pipeline::run`] opens
/// none.
struct StreamWriters {
    journal: crate::sweep::JournalWriter,
    ledger: crate::provenance::LedgerWriter,
}

impl StreamWriters {
    /// Opens the writers of `journal` and its `ledger` to append after
    /// the ends this session's recovery found (a ledger without one is
    /// scanned), and, on a telemetry run, the event sink.
    fn open(
        pipeline: &Pipeline,
        (journal, journal_end): (&crate::sweep::Journal, StreamEnd),
        (ledger, ledger_end): (&ProvenanceLedger, Option<StreamEnd>),
        io_state: &Arc<IoState>,
    ) -> std::io::Result<StreamWriters> {
        let sink = |stream| pipeline.sink_options(stream, io_state);
        let writers = StreamWriters {
            journal: journal.open_writer(sink(StreamKind::Journal), Some(journal_end))?,
            ledger: ledger.open_writer(sink(StreamKind::Ledger), ledger_end)?,
        };
        let events = journal.events_path();
        if let Err(e) = pipeline
            .telemetry
            .set_event_sink_with(&events, sink(StreamKind::Events))
        {
            eprintln!(
                "dydroid: failed to open event sink {}: {e}",
                events.display()
            );
        }
        Ok(writers)
    }

    /// Appends one completed app as the quad journal frame → checkpoint
    /// → ledger frame → provenance link, in that order on the virtual op
    /// clock. Recovery's journal ∩ ledger intersection depends on the
    /// journal frame landing before the ledger frame: a crash between
    /// them leaves a journal record without its graph, never the
    /// reverse. The two event lines are observability only (recovery
    /// never reads them): a checkpoint mirrors every successful journal
    /// append, and the provenance link is the durable span
    /// cross-reference the ledger itself omits.
    fn append(&mut self, package: &str, bodies: &AppBodies, span_id: u64, telemetry: &Telemetry) {
        match self.journal.append_body(&bodies.journal) {
            Ok(()) => telemetry.emit_checkpoint(package, span_id),
            Err(e) => eprintln!("dydroid: journal append failed for {package}: {e}"),
        }
        match self.ledger.append_body(&bodies.ledger) {
            Ok(()) => telemetry.emit_provenance_link(package, span_id),
            Err(e) => eprintln!("dydroid: ledger append failed for {package}: {e}"),
        }
    }
}

/// One app's journal and ledger bodies, encoded by the worker that
/// analysed it so the collector only appends.
struct AppBodies {
    journal: String,
    ledger: String,
}

impl AppBodies {
    fn encode(record: &AppRecord, graph: &AppProvenance) -> AppBodies {
        let mut bodies = AppBodies {
            journal: String::new(),
            ledger: String::new(),
        };
        record.write_json(&mut bodies.journal);
        graph.write_json(&mut bodies.ledger);
        bodies
    }
}

/// Worker accounting of one sweep, carried into [`SweepStats`].
#[derive(Debug, Default)]
struct SweepPerf {
    worker_stats: Vec<WorkerStats>,
    sweep_ms: u64,
}

/// The live observability rig of one telemetry-on sweep (DESIGN.md
/// §5j): the straggler watchdog and, on journaled runs, the metrics
/// snapshot lines of the live event stream, fed by the collector as apps
/// complete. Built only when telemetry is enabled, so the disabled fast
/// path stays a single branch per app.
#[derive(Debug)]
struct Observatory {
    /// Summed virtual cost of the apps collected so far, the clock the
    /// metrics snapshots follow; `None` on a plain run, which keeps no
    /// event stream for snapshots to join.
    collected_us: Option<AtomicU64>,
    watchdog: Mutex<Watchdog>,
    /// Flagged stragglers, each with its app span's phase breakdown.
    stragglers: Mutex<Vec<StragglerEntry>>,
}

impl Observatory {
    /// Builds the rig for one run; `None` when telemetry is off.
    fn open(pipeline: &Pipeline, journaled: bool) -> Option<Observatory> {
        pipeline.telemetry.is_enabled().then(|| Observatory {
            collected_us: journaled.then(AtomicU64::default),
            watchdog: Mutex::default(),
            stragglers: Mutex::default(),
        })
    }

    /// Collector hook, once per completed app: feeds the watchdog the
    /// app's deterministic virtual cost (static-only apps charge none
    /// and are not observations), keeps the app span's `phases` of a
    /// flagged straggler, and emits one metrics snapshot line per
    /// [`METRICS_INTERVAL_US`] boundary its cost carries the collected
    /// clock across. The clock sums collected apps only (workers run
    /// ahead of the collector), so the line count depends on the
    /// session's apps, not on the order they complete in.
    fn on_app_done(&self, pipeline: &Pipeline, package: &str, virtual_us: u64, phases: ChildTable) {
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
                let mut phases: Vec<(String, u64)> = phases
                    .into_iter()
                    .map(|(name, us)| (name.to_string(), us))
                    .collect();
                phases.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                if let Ok(mut stragglers) = self.stragglers.lock() {
                    stragglers.push(StragglerEntry {
                        package: package.to_string(),
                        virtual_us,
                        median_virtual_us: median,
                        phases,
                    });
                }
            }
        }
        if let Some(clock) = &self.collected_us {
            let before = clock.fetch_add(virtual_us, Ordering::Relaxed);
            let crossed =
                before / METRICS_INTERVAL_US + 1..=(before + virtual_us) / METRICS_INTERVAL_US;
            for boundary in crossed {
                pipeline
                    .telemetry
                    .emit_metrics(boundary * METRICS_INTERVAL_US);
            }
        }
    }

    /// End-of-sweep: one final snapshot, so the live stream ends on the
    /// full registry until finalize rewrites it (or for good, when the
    /// run dies first).
    fn finish(&self, pipeline: &Pipeline) {
        if let Some(clock) = &self.collected_us {
            pipeline
                .telemetry
                .emit_metrics(clock.load(Ordering::Relaxed));
        }
    }

    /// Drains the flagged stragglers and the total flag count, for
    /// [`SweepStats`].
    fn take_stragglers(&self) -> (u64, Vec<StragglerEntry>) {
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

/// Mixed into the Monkey seed on reseeded retry attempts.
const RETRY_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// `(decompiled, filter, obfuscation)` from the cheap static phases.
type StaticPhases = (bool, DclFilter, ObfuscationReport);

/// An app's record and, when a ledger keeps them, its provenance graph.
type AppResult = (AppRecord, Option<AppProvenance>);

/// A sweep's results by corpus index, analysed this session or
/// recovered: each app's record and, on a journaled run, its provenance
/// graph for the ledger's finalize. A slot is `None` where no result
/// arrived; `graphs` is empty on a plain run, which keeps none.
#[derive(Debug, Default)]
struct SweepSlots {
    records: Vec<Option<AppRecord>>,
    graphs: Vec<Option<AppProvenance>>,
}

impl SweepSlots {
    /// Empty slots for `apps` corpus apps, with graph slots only when
    /// `keep_graphs`.
    fn new(apps: usize, keep_graphs: bool) -> Self {
        let mut slots = SweepSlots::default();
        slots.records.resize_with(apps, || None);
        if keep_graphs {
            slots.graphs.resize_with(apps, || None);
        }
        slots
    }

    /// Files the result of corpus app `i`.
    fn file(&mut self, i: usize, record: AppRecord, graph: Option<AppProvenance>) {
        self.records[i] = Some(record);
        if let Some(slot) = self.graphs.get_mut(i) {
            *slot = graph;
        }
    }
}

/// One stream's records of packages outside the corpus, the first per
/// package, in order of first appearance; taken out by package.
#[derive(Debug)]
struct Outside<T> {
    records: Vec<Option<T>>,
    at: HashMap<String, usize>,
}

impl<T> Default for Outside<T> {
    fn default() -> Self {
        Outside {
            records: Vec::new(),
            at: HashMap::new(),
        }
    }
}

impl<T> Outside<T> {
    /// Takes the record of `package`, if one is filed and not yet taken.
    fn take(&mut self, package: &str) -> Option<T> {
        let &i = self.at.get(package)?;
        self.records[i].take()
    }
}

/// Recovers `file` frame by frame, filing each record by its `package`:
/// the first record of a package `index` maps to a corpus index into
/// that slot of `slots`, the first of any other package into the
/// returned [`Outside`]. Later records of a package are dropped.
///
/// Also returns whether the file already lies in corpus order: frame `k`
/// (which the scan checked carries `seq` `k`) holds corpus app `k`, there
/// is one frame per corpus app, and no frame was dropped and no empty
/// line kept between them.
fn file_stream<T: crate::durable::Record>(
    file: &crate::durable::RecordFile<T>,
    index: &HashMap<&str, usize>,
    slots: &mut [Option<T>],
    package: impl Fn(&T) -> &str,
) -> std::io::Result<(crate::durable::Loaded, Outside<T>, bool)> {
    let mut outside = Outside::default();
    let mut in_order = true;
    let mut frame = 0;
    let loaded = file.recover_each(|record| {
        let at = index.get(package(&record)).copied();
        in_order &= at == Some(frame);
        frame += 1;
        match at {
            Some(i) => {
                if slots[i].is_none() {
                    slots[i] = Some(record);
                }
            }
            None if outside.at.contains_key(package(&record)) => {}
            None => {
                outside
                    .at
                    .insert(package(&record).to_string(), outside.records.len());
                outside.records.push(Some(record));
            }
        }
    })?;
    let in_order = in_order
        && loaded.records == slots.len()
        && loaded.dropped_lines == 0
        && loaded.blank_lines == 0;
    Ok((loaded, outside, in_order))
}

/// One analysed app on its way from a sweep worker to the collector.
struct Finished {
    worker: usize,
    index: usize,
    record: AppRecord,
    graph: Option<AppProvenance>,
    /// The encoded bodies to append, on a journaled sweep.
    bodies: Option<AppBodies>,
    span_id: u64,
    busy_us: u64,
    virtual_us: u64,
    phases: ChildTable,
}

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
    /// (sorted): a crash cut their append, so they are re-analysed on
    /// resume like any pending app.
    pub inconsistent: Vec<String>,
    /// Where the journal's frames end after this reconciliation, so the
    /// session's writer resumes there without a second scan.
    pub(crate) journal_end: StreamEnd,
    /// The same for the ledger; `None` when it was not recovered
    /// or its rewrite failed (the writer then scans it).
    pub(crate) ledger_end: Option<StreamEnd>,
    /// Which streams recovery found already finalized.
    pub(crate) canonical: Canonical,
}

/// Which of the journal and the ledger recovery found exactly as a
/// finalize would write them: one frame per corpus app, frame `k`
/// holding corpus app `k` with `seq` `k`, no frame dropped, no package
/// outside the corpus and no inconsistent app.
/// [`Pipeline::finalize_streams`] keeps such a stream where it lies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Canonical {
    pub(crate) journal: bool,
    pub(crate) ledger: bool,
}

/// Marks of the monotonic avm telemetry counters taken at sweep start,
/// so [`Pipeline::assemble`] can report per-run deltas: one per name of
/// [`AVM_COUNTERS`].
type AvmMarks = [u64; 7];

/// The avm counters whose per-run deltas [`SweepStats`] reports, in the
/// order [`Pipeline::assemble`] indexes them.
const AVM_COUNTERS: [&str; 7] = [
    "avm.events_dropped",
    "avm.flow_edges_truncated",
    "avm.flow_edges_deduped",
    "avm.ic_call_hits",
    "avm.ic_call_misses",
    "avm.ic_field_hits",
    "avm.ic_field_misses",
];

/// Recovery counts carried into [`Pipeline::assemble`] for [`SweepStats`].
#[derive(Debug, Default)]
struct RecoverySummary {
    recovered: u64,
    dropped: u64,
    inconsistent: u64,
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
        assert_eq!(slots.records.len(), corpus.len());
        for (app, record) in corpus.iter().zip(&slots.records) {
            let record = record.as_ref().expect("every app is swept");
            assert_eq!(record.package, app.package());
        }
        assert!(slots.graphs.is_empty(), "plain sweep kept graphs");

        // A journaled sweep appends to the ledger beside its journal and
        // keeps one graph per app for its finalize.
        let dir = std::env::temp_dir().join(format!("dydroid_graph_gate_{}", std::process::id()));
        let journal = crate::sweep::Journal::new(dir.join("sweep.jsonl"));
        journal.reset().expect("reset journal");
        let ledger = ProvenanceLedger::new(journal.provenance_path());
        let io_state = IoState::new(pipeline.config.io_retry_budget);
        let mut writers = StreamWriters::open(
            &pipeline,
            (&journal, StreamEnd::default()),
            (&ledger, None),
            &io_state,
        )
        .expect("open stream writers");
        let order: Vec<usize> = (0..corpus.len()).collect();
        let mut slots = SweepSlots::new(corpus.len(), true);
        pipeline.sweep(
            corpus,
            &order,
            &mut slots,
            Some(&mut writers),
            None,
            &SpanGuard::default(),
        );
        for (app, graph) in corpus.iter().zip(&slots.graphs) {
            assert_eq!(
                graph.as_ref().map(|g| g.package.as_str()),
                Some(app.package()),
                "journaled sweep lost the graph of `{}`",
                app.package()
            );
        }
        drop(writers);
        assert_eq!(journal.load().expect("journal").len(), corpus.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_cursor_hands_out_each_app_of_the_order_once() {
        let corpus = tiny_corpus();
        let corpus = &corpus[..60];
        let pipeline = Pipeline::new(PipelineConfig {
            workers: 4,
            environment_reruns: false,
            ..Default::default()
        });
        // Every other app, in reverse: only these are swept, each once.
        let order: Vec<usize> = (0..corpus.len()).rev().step_by(2).collect();
        let mut slots = SweepSlots::new(corpus.len(), false);
        let stats = pipeline.sweep(
            corpus,
            &order,
            &mut slots,
            None,
            None,
            &SpanGuard::default(),
        );
        assert_eq!(stats.len(), 4);
        let executed: u64 = stats.iter().map(|w| w.executed).sum();
        assert_eq!(
            executed,
            order.len() as u64,
            "an app ran twice or not at all"
        );
        for (i, (app, record)) in corpus.iter().zip(&slots.records).enumerate() {
            assert_eq!(
                record.as_ref().map(|r| r.package.as_str()),
                order.contains(&i).then(|| app.package()),
                "slot {i}"
            );
        }
    }

    #[test]
    fn perf_divides_by_the_worker_threads_that_ran() {
        // Three apps on a four-worker config run on three threads, and
        // the utilization line must say so.
        let corpus = tiny_corpus();
        let pipeline = Pipeline::new(PipelineConfig {
            workers: 4,
            telemetry: true,
            environment_reruns: false,
            ..Default::default()
        });
        let mut report = pipeline.run(&corpus[..3]);
        let mut stats = report.stats().clone();
        assert_eq!(stats.worker_stats.len(), 3);
        // A sub-millisecond sweep prints no utilization line at all.
        stats.sweep_ms = stats.sweep_ms.max(1);
        report.set_stats(stats);
        let perf = report.render_perf();
        assert!(perf.contains("% of 3 workers × "), "{perf}");
    }

    /// A finished one-worker journal over `corpus` (12 apps) cut as a
    /// kill would leave it, in a fresh directory named for `tag`, and a
    /// telemetry pipeline to resume it with. Both finalized streams hold
    /// one frame per app in corpus order. The journal is cut after 8
    /// apps and the ledger after 7: apps 8..12 are new work, and app 7,
    /// journaled without its graph, is one recovery finds inconsistent.
    fn cut_session(
        corpus: &[SyntheticApp],
        tag: &str,
    ) -> (std::path::PathBuf, crate::sweep::Journal, Pipeline) {
        let dir = std::env::temp_dir().join(format!("dydroid_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = crate::sweep::Journal::new(dir.join("sweep.jsonl"));
        journal.reset().expect("reset journal");
        let config = PipelineConfig {
            workers: 1,
            environment_reruns: false,
            ..Default::default()
        };
        Pipeline::new(config.clone())
            .run_resumable(corpus, &journal)
            .expect("first session");
        let keep_lines = |path: &Path, n: usize| {
            let text = std::fs::read_to_string(path).expect("read stream");
            let kept: String = text.split_inclusive('\n').take(n).collect();
            std::fs::write(path, kept).expect("cut stream");
        };
        keep_lines(journal.path(), 8);
        keep_lines(&journal.provenance_path(), 7);
        let pipeline = Pipeline::new(PipelineConfig {
            telemetry: true,
            ..config
        });
        (dir, journal, pipeline)
    }

    /// The live sweep gauges count this session: on a resume, the done
    /// gauge reaches the pending gauge (new apps plus the inconsistent
    /// one) by the time the run returns, while the total stays the
    /// corpus — so a poller of the pair always sees its final `N/N`.
    #[test]
    fn done_gauge_reaches_pending_gauge_on_a_resume() {
        let corpus = tiny_corpus();
        let corpus = &corpus[..12];
        let (dir, journal, pipeline) = cut_session(corpus, "resume_gauges");
        let report = pipeline
            .run_resumable(corpus, &journal)
            .expect("resumed session");
        let _ = std::fs::remove_dir_all(&dir);
        let gauge = |name: &str| pipeline.telemetry().gauge_value(name);
        assert_eq!(report.stats().recovered_records, 7);
        assert_eq!(gauge("sweep.pending"), 5);
        assert_eq!(gauge("sweep.done"), gauge("sweep.pending"));
        assert_eq!(gauge("sweep.total_apps"), corpus.len() as u64);
        // The clean corpus fails no app in either session.
        assert_eq!(gauge("sweep.failed"), 0);
    }

    /// A finished journaled sweep of `corpus` in a fresh directory named
    /// for `tag`, with its journal records and ledger graphs (corpus
    /// order) for a test to re-frame into the streams it wants to
    /// recover.
    fn finished_streams(
        corpus: &[SyntheticApp],
        tag: &str,
    ) -> (
        std::path::PathBuf,
        crate::sweep::Journal,
        Vec<AppRecord>,
        Vec<AppProvenance>,
    ) {
        let dir = std::env::temp_dir().join(format!("dydroid_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = crate::sweep::Journal::new(dir.join("sweep.jsonl"));
        Pipeline::new(PipelineConfig {
            workers: 1,
            environment_reruns: false,
            ..Default::default()
        })
        .run_resumable(corpus, &journal)
        .expect("finished sweep");
        let records = journal.load().expect("journal");
        let graphs = ProvenanceLedger::new(journal.provenance_path())
            .load()
            .expect("ledger");
        assert_eq!((records.len(), graphs.len()), (corpus.len(), corpus.len()));
        (dir, journal, records, graphs)
    }

    /// Replaces the journal and the ledger with exactly these frames.
    fn frame_streams(
        journal: &crate::sweep::Journal,
        records: &[&AppRecord],
        graphs: &[&AppProvenance],
    ) {
        journal.rewrite(records.iter().copied()).expect("journal");
        ProvenanceLedger::new(journal.provenance_path())
            .rewrite(graphs.iter().copied())
            .expect("ledger");
    }

    /// Where a stream file of `frames` frames ends as it lies on disk.
    fn file_end(path: &Path, frames: u64) -> StreamEnd {
        StreamEnd {
            next_seq: frames,
            valid_len: std::fs::metadata(path).map_or(0, |m| m.len()),
        }
    }

    fn recovered_packages(outcome: &RecoveryOutcome) -> (Vec<&str>, Vec<&str>) {
        (
            outcome.records.iter().map(|r| r.package.as_str()).collect(),
            outcome
                .provenance
                .iter()
                .map(|p| p.package.as_str())
                .collect(),
        )
    }

    /// A package the journal holds twice is recovered once, with its
    /// one graph; the journal is rewritten to the distinct apps and the
    /// ledger is left as it was.
    #[test]
    fn recovery_keeps_the_first_record_of_a_journaled_duplicate() {
        let corpus = tiny_corpus();
        let (dir, journal, records, graphs) = finished_streams(&corpus[..3], "recover_dup");
        let (a, b, c) = (&records[0], &records[1], &records[2]);
        frame_streams(
            &journal,
            &[a, b, a, c],
            &[&graphs[0], &graphs[1], &graphs[2]],
        );
        let ledger_before = file_end(&journal.provenance_path(), 3);
        let outcome = Pipeline::new(PipelineConfig::default())
            .recover_all(&journal)
            .expect("recover");
        let pkgs = [a, b, c].map(|r| r.package.as_str());
        assert_eq!(recovered_packages(&outcome), (pkgs.to_vec(), pkgs.to_vec()));
        assert!(outcome.inconsistent.is_empty());
        assert_eq!((outcome.journal_dropped, outcome.ledger_dropped), (0, 0));
        assert_eq!(outcome.journal_end, file_end(journal.path(), 3));
        assert_eq!(journal.load().expect("journal").len(), 3);
        assert_eq!(outcome.ledger_end, Some(ledger_before));
        assert_eq!(file_end(&journal.provenance_path(), 3), ledger_before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A ledger graph no journal record takes is inconsistent: the
    /// ledger is cut back to the journal's apps.
    #[test]
    fn recovery_drops_a_graph_without_a_journal_record() {
        let corpus = tiny_corpus();
        let (dir, journal, records, graphs) = finished_streams(&corpus[..3], "recover_orphan");
        frame_streams(
            &journal,
            &[&records[0], &records[1]],
            &[&graphs[0], &graphs[1], &graphs[2]],
        );
        let journal_before = file_end(journal.path(), 2);
        let outcome = Pipeline::new(PipelineConfig::default())
            .recover_all(&journal)
            .expect("recover");
        let pkgs = vec![records[0].package.as_str(), records[1].package.as_str()];
        assert_eq!(recovered_packages(&outcome), (pkgs.clone(), pkgs));
        assert_eq!(outcome.inconsistent, vec![graphs[2].package.clone()]);
        assert_eq!(outcome.journal_end, journal_before);
        assert_eq!(
            outcome.ledger_end,
            Some(file_end(&journal.provenance_path(), 2))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A journal record whose graph never landed is inconsistent: both
    /// streams are rewritten to the apps that hold both.
    #[test]
    fn recovery_drops_a_record_without_a_graph() {
        let corpus = tiny_corpus();
        let (dir, journal, records, graphs) = finished_streams(&corpus[..3], "recover_graphless");
        frame_streams(
            &journal,
            &[&records[0], &records[1], &records[2]],
            &[&graphs[0], &graphs[2]],
        );
        let outcome = Pipeline::new(PipelineConfig::default())
            .recover_all(&journal)
            .expect("recover");
        let pkgs = vec![records[0].package.as_str(), records[2].package.as_str()];
        assert_eq!(recovered_packages(&outcome), (pkgs.clone(), pkgs));
        assert_eq!(outcome.inconsistent, vec![records[1].package.clone()]);
        assert_eq!(outcome.journal_end, file_end(journal.path(), 2));
        assert_eq!(
            outcome.ledger_end,
            Some(file_end(&journal.provenance_path(), 2))
        );
        assert_eq!(journal.load().expect("journal").len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An emptied ledger makes every journaled app inconsistent: both
    /// streams end empty, and a resume re-analyses every app into the
    /// same finalized streams.
    #[test]
    fn recovery_over_an_emptied_ledger_retries_every_app() {
        let corpus = tiny_corpus();
        let corpus = &corpus[..4];
        let (dir, journal, records, _) = finished_streams(corpus, "recover_emptied");
        let first_journal = std::fs::read(journal.path()).expect("journal bytes");
        let first_ledger = std::fs::read(journal.provenance_path()).expect("ledger bytes");
        std::fs::write(journal.provenance_path(), "").expect("empty the ledger");
        let outcome = Pipeline::new(PipelineConfig::default())
            .recover_all(&journal)
            .expect("recover");
        assert!(outcome.records.is_empty() && outcome.provenance.is_empty());
        let mut pkgs: Vec<String> = records.iter().map(|r| r.package.clone()).collect();
        pkgs.sort();
        assert_eq!(outcome.inconsistent, pkgs);
        assert_eq!(outcome.journal_end, StreamEnd::default());
        assert_eq!(outcome.ledger_end, Some(StreamEnd::default()));
        assert_eq!(file_end(journal.path(), 0), StreamEnd::default());

        std::fs::write(journal.path(), &first_journal).expect("restore the journal");
        let report = Pipeline::new(PipelineConfig {
            workers: 1,
            environment_reruns: false,
            ..Default::default()
        })
        .run_resumable(corpus, &journal)
        .expect("resume");
        assert_eq!(report.stats().recovered_records, 0);
        assert_eq!(report.stats().inconsistent_apps, corpus.len() as u64);
        assert_eq!(
            std::fs::read(journal.path()).expect("journal"),
            first_journal
        );
        let ledger = std::fs::read(journal.provenance_path()).expect("ledger");
        assert_eq!(ledger, first_ledger);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A crash that cuts one app's ledger append three times over leaves
    /// the measurement as an uninterrupted run makes it: the app is
    /// unfinished work on each recovery, re-analysed by the resume, and
    /// never recorded as a failure. (An older build counted each cut as
    /// an interrupted attempt and recorded the app as "quarantined after
    /// 3 interrupted attempts".)
    #[test]
    fn three_cut_appends_of_one_app_leave_the_measurement_as_it_was() {
        let corpus = tiny_corpus();
        let corpus = &corpus[..12];
        let config = PipelineConfig {
            workers: 1,
            environment_reruns: false,
            ..Default::default()
        };
        let (dir, journal, records, graphs) = finished_streams(corpus, "recover_cut_thrice");
        let whole = crate::sweep::Journal::new(dir.join("whole.jsonl"));
        let first = Pipeline::new(config.clone())
            .run_resumable(corpus, &whole)
            .expect("uninterrupted sweep");
        let first_json = serde_json::to_string(&first).expect("serialise");
        let first_journal = std::fs::read(whole.path()).expect("journal bytes");
        let first_ledger = std::fs::read(whole.provenance_path()).expect("ledger bytes");
        let cut = || {
            let records: Vec<&AppRecord> = records[..8].iter().collect();
            let graphs: Vec<&AppProvenance> = graphs[..7].iter().collect();
            frame_streams(&journal, &records, &graphs);
        };
        let inconsistent = vec![records[7].package.clone()];
        for _ in 0..2 {
            cut();
            let outcome = Pipeline::new(config.clone())
                .recover_all(&journal)
                .expect("recover");
            assert_eq!(outcome.inconsistent, inconsistent);
        }
        cut();
        let report = Pipeline::new(config)
            .run_resumable(corpus, &journal)
            .expect("third recovery");
        assert_eq!(report.stats().inconsistent_apps, 1);
        assert_eq!(
            serde_json::to_string(&report.records()[7]).expect("serialise"),
            serde_json::to_string(&records[7]).expect("serialise")
        );
        assert_eq!(
            serde_json::to_string(&report).expect("serialise"),
            first_json
        );
        assert!(std::fs::read(journal.path()).expect("journal") == first_journal);
        assert!(std::fs::read(journal.provenance_path()).expect("ledger") == first_ledger);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Apps a journal holds beyond a (smaller) resumed corpus count as
    /// recovered and stay in the streams until finalize, which keeps
    /// only the corpus; one of them without its graph is inconsistent
    /// like any other.
    #[test]
    fn recovery_counts_apps_outside_the_corpus() {
        let corpus = tiny_corpus();
        let (dir, journal, records, graphs) = finished_streams(&corpus[..6], "recover_outside");
        let all: Vec<&AppRecord> = records.iter().collect();
        let five: Vec<&AppProvenance> = graphs[..5].iter().collect();
        frame_streams(&journal, &all, &five);
        let report = Pipeline::new(PipelineConfig {
            workers: 1,
            environment_reruns: false,
            ..Default::default()
        })
        .run_resumable(&corpus[..4], &journal)
        .expect("resume into the smaller corpus");
        assert_eq!(report.records().len(), 4);
        assert_eq!(report.stats().recovered_records, 5);
        assert_eq!(report.stats().inconsistent_apps, 1);
        let finalized: Vec<String> = journal
            .load()
            .expect("journal")
            .into_iter()
            .map(|r| r.package)
            .collect();
        let expected: Vec<String> = records[..4].iter().map(|r| r.package.clone()).collect();
        assert_eq!(finalized, expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A stream file's identity and contents: inode, mtime and bytes.
    fn file_state(path: &Path) -> (u64, std::time::SystemTime, Vec<u8>) {
        use std::os::unix::fs::MetadataExt;
        let meta = std::fs::metadata(path).expect("stream metadata");
        let modified = meta.modified().expect("mtime");
        (
            meta.ino(),
            modified,
            std::fs::read(path).expect("stream bytes"),
        )
    }

    /// A finished scale-0.01 journaled sweep with Table VIII re-runs, in
    /// a fresh directory named for `tag`, and the config that ran it.
    fn finished_sweep(
        tag: &str,
    ) -> (
        Vec<SyntheticApp>,
        std::path::PathBuf,
        crate::sweep::Journal,
        PipelineConfig,
        String,
    ) {
        let corpus = generate(&CorpusSpec {
            scale: 0.01,
            ..CorpusSpec::default()
        });
        let dir = std::env::temp_dir().join(format!("dydroid_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = crate::sweep::Journal::new(dir.join("sweep.jsonl"));
        let config = PipelineConfig {
            workers: 2,
            environment_reruns: true,
            ..Default::default()
        };
        let report = Pipeline::new(config.clone())
            .run_resumable(&corpus, &journal)
            .expect("finished sweep");
        assert_eq!(report.stats().finalized_streams, 2);
        let json = serde_json::to_string(&report).expect("serialise");
        (corpus, dir, journal, config, json)
    }

    /// Reopening a finished journal re-reads both record streams and
    /// replaces no file: the journal and the ledger keep their inodes,
    /// mtimes and bytes, the profile artifact keeps its inode, no event
    /// log is left, and the report is the finished run's.
    #[test]
    fn reopening_a_finished_journal_rewrites_no_stream() {
        use std::os::unix::fs::MetadataExt;
        let (corpus, dir, journal, config, first) = finished_sweep("reopen_keeps");
        let ledger = journal.provenance_path();
        let profile_inode = || {
            std::fs::metadata(journal.profile_path())
                .expect("artifact")
                .ino()
        };
        let before = [file_state(journal.path()), file_state(&ledger)];
        let profile_before = profile_inode();
        let report = Pipeline::new(config)
            .run_resumable(&corpus, &journal)
            .expect("reopen");
        assert_eq!(report.stats().recovered_records, corpus.len() as u64);
        assert_eq!(report.stats().finalized_streams, 0);
        assert_eq!(serde_json::to_string(&report).expect("serialise"), first);
        assert!(
            before[0] == file_state(journal.path()),
            "the journal was rewritten"
        );
        assert!(before[1] == file_state(&ledger), "the ledger was rewritten");
        assert_eq!(profile_inode(), profile_before, "the artifact was replaced");
        assert!(
            !journal.events_path().exists(),
            "the reopen left an event log"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Each finalize appends its session's stacks to the profile
    /// artifact, so a reopen keeps every stack of the sweep it reopens,
    /// in the first run's lines, ahead of its own.
    #[test]
    fn reopening_a_finished_journal_keeps_every_profile_stack() {
        let (corpus, dir, journal, config, _) = finished_sweep("reopen_profile");
        let first = std::fs::read_to_string(journal.profile_path()).expect("artifact");
        assert!(
            first
                .lines()
                .any(|line| line.starts_with("sweep;app;monkey ")),
            "the sweep's stacks are missing from the artifact:\n{first}"
        );
        let reopen = Pipeline::new(config);
        reopen.run_resumable(&corpus, &journal).expect("reopen");
        let after = std::fs::read_to_string(journal.profile_path()).expect("artifact");
        let session = reopen.telemetry().profile().folded();
        assert_eq!(after, format!("{first}{session}"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A finished journal no longer in its finalized form is rewritten by
    /// a reopen to the finished bytes, while the ledger beside it is kept:
    /// with two frames swapped (and re-sequenced, so every frame is
    /// valid), or with an empty line, which recovery keeps in the valid
    /// prefix but a finalize never writes.
    #[test]
    fn a_journal_out_of_corpus_order_is_rewritten() {
        let corpus = tiny_corpus();
        let corpus = &corpus[..6];
        for swap in [true, false] {
            let tag = if swap {
                "reopen_swapped"
            } else {
                "reopen_blank"
            };
            let (dir, journal, records, graphs) = finished_streams(corpus, tag);
            let finished = std::fs::read(journal.path()).expect("journal bytes");
            if swap {
                let mut swapped: Vec<&AppRecord> = records.iter().collect();
                swapped.swap(1, 4);
                let in_order: Vec<&AppProvenance> = graphs.iter().collect();
                frame_streams(&journal, &swapped, &in_order);
            } else {
                let mut blank = finished.clone();
                blank.push(b'\n');
                std::fs::write(journal.path(), &blank).expect("append an empty line");
            }
            let ledger = journal.provenance_path();
            let ledger_before = file_state(&ledger);
            let report = Pipeline::new(PipelineConfig {
                workers: 1,
                environment_reruns: false,
                ..Default::default()
            })
            .run_resumable(corpus, &journal)
            .expect("reopen");
            assert_eq!(report.stats().finalized_streams, 1, "{tag}");
            assert_eq!(
                std::fs::read(journal.path()).expect("journal"),
                finished,
                "{tag}"
            );
            assert!(
                ledger_before == file_state(&ledger),
                "{tag}: the ledger was rewritten"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A ledger in corpus order whose flagged app lost its environment
    /// outcomes differs from what this session's re-runs found: the
    /// reopen rewrites it back to the finished bytes and keeps the
    /// journal.
    #[test]
    fn a_ledger_missing_environment_outcomes_is_rewritten() {
        let (corpus, dir, journal, config, first) = finished_sweep("reopen_env");
        let ledger = ProvenanceLedger::new(journal.provenance_path());
        let finished = std::fs::read(ledger.path()).expect("ledger bytes");
        let mut graphs = ledger.load().expect("ledger");
        let flagged = graphs
            .iter_mut()
            .find(|graph| !graph.env_loads.is_empty())
            .expect("the corpus has an app with environment-dependent loads");
        flagged.env_loads.clear();
        ledger.rewrite(&graphs).expect("rewrite the ledger");
        assert_ne!(std::fs::read(ledger.path()).expect("ledger"), finished);
        let journal_before = file_state(journal.path());
        let report = Pipeline::new(config)
            .run_resumable(&corpus, &journal)
            .expect("reopen");
        assert_eq!(report.stats().finalized_streams, 1);
        assert_eq!(serde_json::to_string(&report).expect("serialise"), first);
        assert_eq!(std::fs::read(ledger.path()).expect("ledger"), finished);
        assert!(
            journal_before == file_state(journal.path()),
            "the journal was rewritten"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Workers charge `monkey.virtual_us` ahead of the collector, so
    /// the snapshot count must follow the collected costs alone: the
    /// same apps in two completion orders, one with every cost charged
    /// before the first app is collected, write the same lines.
    #[test]
    fn metrics_snapshot_count_ignores_completion_order() {
        let costs = [700u64, 700, 700, 2_600, 300];
        let snapshot_lines = |order: &[u64], charged_ahead: bool| {
            let pipeline = Pipeline::new(PipelineConfig::default());
            let path = std::env::temp_dir().join(format!(
                "dydroid_snapshot_order_{}_{charged_ahead}.events.jsonl",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&path);
            pipeline
                .telemetry
                .set_event_sink(&path)
                .expect("open event sink");
            let obs = Observatory::open(&pipeline, true).expect("telemetry is on");
            if charged_ahead {
                for &cost in order {
                    pipeline.telemetry.counter_add("monkey.virtual_us", cost);
                }
            }
            for &cost in order {
                if !charged_ahead {
                    pipeline.telemetry.counter_add("monkey.virtual_us", cost);
                }
                obs.on_app_done(&pipeline, "app", cost, Vec::new());
            }
            drop(pipeline);
            let bytes = std::fs::read(&path).expect("event stream exists");
            let _ = std::fs::remove_file(&path);
            crate::durable::scan_stream(&bytes)
                .bodies
                .iter()
                .filter(|body| body.contains(r#""type":"metrics""#))
                .count()
        };
        let reversed: Vec<u64> = costs.iter().rev().copied().collect();
        let in_order = snapshot_lines(&costs, false);
        assert_eq!(
            in_order as u64,
            costs.iter().sum::<u64>() / METRICS_INTERVAL_US,
            "one line per interval boundary crossed"
        );
        assert_eq!(snapshot_lines(&reversed, true), in_order);
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
