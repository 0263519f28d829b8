//! The traced run: the per-layer numbers, timed from outside the
//! program.
//!
//! The run first sweeps the corpus untraced, as `memory-sweep` does (and
//! on `store-sweep` also journaled on every core), for the reference
//! outcomes, the scheduler figures and the overhead baseline. It then
//! drives the same corpus app by app through each layer's public calls
//! in the order `Pipeline::run` makes them, accumulating busy time and
//! counts per layer; appends every record and provenance graph through
//! the durable writers; finalizes and recovers the result. The traced
//! outcomes must reproduce the untraced sweep's report byte for byte.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dydroid::durable::{IoState, SinkOptions, StreamKind};
use dydroid::environment;
use dydroid::pipeline::{DynamicOutcome, DynamicStatus, MANIFEST_SANITY_LIMIT};
use dydroid::provenance::EnvLoadOutcome;
use dydroid::scheduler::parallel_balance;
use dydroid::{
    AppProvenance, AppRecord, MeasurementReport, Pipeline, ProvenanceLedger, SweepStats,
};
use dydroid_analysis::decompiler::{self, DecompileError};
use dydroid_analysis::obfuscation::{self, ObfuscationReport};
use dydroid_analysis::DclFilter;
use dydroid_workload::{generate, SyntheticApp};

use crate::{
    corpus_spec, harness_failures, median, Args, Digest, Gate, Metrics, Outcome, Scratch, Workload,
};

/// Busy time and call count of one layer.
#[derive(Default)]
struct Layer {
    busy: Duration,
    calls: u64,
}

impl Layer {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.busy += t.elapsed();
        self.calls += 1;
        out
    }

    fn secs(&self) -> f64 {
        self.busy.as_secs_f64()
    }
}

/// Per-layer accumulators of the app-by-app pass.
#[derive(Default)]
struct Layers {
    decompile: Layer,
    decompile_failures: u64,
    filter: Layer,
    filter_passed: u64,
    rewrite: Layer,
    rewrites: u64,
    prep: Layer,
    dynamic: Layer,
    instructions: u64,
    ic_hits: u64,
    ic_misses: u64,
    provenance: Layer,
}

/// The provenance verdict label the pipeline gives each dynamic status.
fn status_label(status: &DynamicStatus) -> &'static str {
    match status {
        DynamicStatus::Exercised => "exercised",
        DynamicStatus::Crash => "crash",
        DynamicStatus::NoActivity => "no_activity",
        DynamicStatus::RewriteFailure => "rewrite_failure",
        DynamicStatus::AnalysisFailure { .. } => "harness_failure",
    }
}

/// One app through the layers, making the same calls in the same order
/// as the pipeline's own per-app analysis.
fn analyze(pipeline: &Pipeline, app: &SyntheticApp, l: &mut Layers) -> (AppRecord, AppProvenance) {
    let record = |decompiled, filter, obfuscation, rewritten, dynamic| AppRecord {
        package: app.plan.package.clone(),
        metadata: app.plan.metadata.clone(),
        decompiled,
        filter,
        obfuscation,
        rewritten,
        dynamic,
    };
    // Apps that never reach the dynamic phase get the graph the sweep
    // reconstructs from the record.
    let static_only = |l: &mut Layers, record: AppRecord| {
        let provenance = l.provenance.time(|| AppProvenance::from_record(&record));
        (record, provenance)
    };

    let decompiled = match l.decompile.time(|| decompiler::decompile(&app.apk)) {
        Ok(d) => d,
        Err(e) => {
            l.decompile_failures += 1;
            let obfuscation = match e {
                DecompileError::AntiDecompilation { .. } => {
                    ObfuscationReport::anti_decompilation_only()
                }
                _ => ObfuscationReport::default(),
            };
            let r = record(false, DclFilter::default(), obfuscation, false, None);
            return static_only(l, r);
        }
    };
    let entries = decompiled.manifest.permissions.len() + decompiled.manifest.components.len();
    if entries > MANIFEST_SANITY_LIMIT {
        let failure = DynamicOutcome::failure(format!(
            "manifest exceeds sanity bounds: {entries} entries > {MANIFEST_SANITY_LIMIT}"
        ));
        let r = record(
            true,
            DclFilter::default(),
            ObfuscationReport::default(),
            false,
            Some(failure),
        );
        return static_only(l, r);
    }
    let (filter, obfuscation) = l.filter.time(|| {
        (
            DclFilter::scan(&decompiled.classes),
            obfuscation::analyze(&decompiled),
        )
    });
    if !filter.any() {
        return static_only(l, record(true, filter, obfuscation, false, None));
    }
    l.filter_passed += 1;

    let repacked = l.rewrite.time(|| {
        decompiler::needs_rewriting(&decompiled.manifest)
            .then(|| decompiler::repackage_with_permission(&decompiled))
    });
    let install: Cow<[u8]> = match repacked {
        None => Cow::Borrowed(&app.apk),
        Some(Ok(bytes)) => {
            l.rewrites += 1;
            Cow::Owned(bytes)
        }
        Some(Err(_)) => {
            let failure = DynamicOutcome::empty(DynamicStatus::RewriteFailure);
            return static_only(l, record(true, filter, obfuscation, false, Some(failure)));
        }
    };

    let mut device = l
        .prep
        .time(|| pipeline.prepare_device(app, pipeline.config().device_config()));
    let (instructions, ic) = (device.instructions_retired(), device.ic_stats());
    let dynamic = l
        .dynamic
        .time(|| pipeline.exercise_and_analyze(app, &mut device, &install, &decompiled));
    l.instructions += device.instructions_retired() - instructions;
    let ic = device.ic_stats().since(&ic);
    l.ic_hits += ic.hits();
    l.ic_misses += ic.misses();
    // Per-path leak attribution is internal to the dynamic phase, so
    // the graph built here lacks the leak verdict edges; the build cost
    // is dominated by the flow graph and event log it walks.
    let provenance = l.provenance.time(|| {
        AppProvenance::build(
            &app.plan.package,
            status_label(&dynamic.status),
            &device.log,
            &device.hooks.flow,
            &dynamic.dex_events,
            &dynamic.native_events,
            &dynamic.malware,
            &[],
        )
    });
    let rewritten = matches!(install, Cow::Owned(_));
    (
        record(true, filter, obfuscation, rewritten, Some(dynamic)),
        provenance,
    )
}

fn timed_new(workload: Workload, samples: &mut Vec<f64>) -> Pipeline {
    let t = Instant::now();
    let pipeline = Pipeline::new(workload.config());
    samples.push(t.elapsed().as_secs_f64() * 1e3);
    pipeline
}

fn file_bytes(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Scheduler figures of an untraced sweep, from its public `SweepStats`.
fn scheduler_metrics(stats: &SweepStats, metrics: &mut Metrics) {
    let workers = stats.worker_stats.len().max(1) as f64;
    let busy_us: u64 = stats.worker_stats.iter().map(|w| w.busy_us).sum();
    let steals: u64 = stats.worker_stats.iter().map(|w| w.steals).sum();
    metrics.push("scheduler.steals", steals as f64, "count");
    metrics.push(
        "scheduler.utilization",
        busy_us as f64 / (workers * stats.sweep_ms.max(1) as f64 * 1e3),
        "ratio",
    );
    metrics.push(
        "scheduler.balance",
        parallel_balance(&stats.worker_stats),
        "ratio",
    );
    metrics.push(
        "streams.shard_contention",
        stats.shard_contention as f64,
        "count",
    );
}

pub fn run(args: &Args, scratch: &Scratch, gate: &mut Gate) -> Outcome {
    let mut metrics = Metrics::default();
    let mut new_ms = Vec::new();
    let t = Instant::now();
    let corpus = generate(&corpus_spec(args));
    let generate_s = t.elapsed().as_secs_f64();
    let apps = corpus.len();
    let mut attempted = 0u64;

    // Untraced memory sweep: the reference outcomes and the overhead
    // baseline.
    let pipeline = timed_new(Workload::Memory, &mut new_ms);
    let t = Instant::now();
    let untraced = pipeline.run(&corpus);
    let untraced_s = t.elapsed().as_secs_f64();
    drop(pipeline);
    let reference = Digest::of(&untraced);
    let mut harness = harness_failures(&untraced);
    let untraced_harness = harness;
    attempted += apps as u64;
    let mut sweep_stats = untraced.stats().clone();
    drop(untraced);
    if args.workload == Workload::Store {
        let journal = scratch.journal("store.jsonl");
        journal.reset().expect("reset the store journal");
        let pipeline = timed_new(Workload::Store, &mut new_ms);
        let report = pipeline
            .run_resumable(&corpus, &journal)
            .expect("journaled sweep");
        gate.check(Digest::of(&report) == reference, || {
            "store-sweep report differs from memory-sweep's".to_string()
        });
        attempted += apps as u64;
        harness += harness_failures(&report);
        sweep_stats = report.stats().clone();
        journal.reset().expect("remove the store journal");
    }

    // The traced pass, on the memory-sweep configuration.
    let pipeline = timed_new(Workload::Memory, &mut new_ms);
    let cache_mark = pipeline.cache_stats();
    let detector_mark = pipeline.detector_stats();
    let mut l = Layers::default();
    let mut env_layer = Layer::default();
    let t = Instant::now();
    let (records, mut graphs): (Vec<AppRecord>, Vec<AppProvenance>) = corpus
        .iter()
        .map(|app| analyze(&pipeline, app, &mut l))
        .unzip();
    let env = env_layer.time(|| environment::rerun_all(&pipeline, &corpus, &records));
    let traced_s = t.elapsed().as_secs_f64();
    attempted += apps as u64;
    let env_pairs = records
        .iter()
        .filter(|r| r.dynamic.as_ref().is_some_and(|d| !d.malware.is_empty()))
        .count()
        * environment::configurations().len();
    for (graph, record) in graphs.iter_mut().zip(&records) {
        graph.env_loads = env
            .loads
            .iter()
            .filter(|load| load.package == record.package)
            .map(|load| EnvLoadOutcome {
                path: load.path.clone(),
                configs: load.configs.clone(),
            })
            .collect();
    }
    let mut report = MeasurementReport::new(records, env.counts);
    report.set_env_loads(env.loads);
    harness += harness_failures(&report);
    gate.check(Digest::of(&report) == reference, || {
        "traced outcomes differ from memory-sweep's".to_string()
    });
    let cache = pipeline.cache_stats().since(&cache_mark);
    let detector = pipeline.detector_stats().since(&detector_mark);

    // The durable layer: per-record appends under the pipeline's sync
    // policy, the corpus-order finalize, then recovery of the result.
    let journal = scratch.journal("traced.jsonl");
    journal.reset().expect("reset the traced journal");
    let ledger = ProvenanceLedger::new(journal.provenance_path());
    let io = IoState::new(pipeline.config().io_retry_budget);
    let sink = |stream| SinkOptions {
        stream,
        policy: pipeline.config().sync_policy,
        state: Arc::clone(&io),
        harness: None,
    };
    let mut journal_append = Layer::default();
    let mut ledger_append = Layer::default();
    {
        let mut jw = journal
            .writer_with(sink(StreamKind::Journal))
            .expect("open the journal");
        let mut lw = ledger
            .writer_with(sink(StreamKind::Ledger))
            .expect("open the ledger");
        for (record, graph) in report.records().iter().zip(&graphs) {
            journal_append
                .time(|| jw.append(record))
                .expect("journal append");
            ledger_append
                .time(|| lw.append(graph))
                .expect("ledger append");
        }
    }
    let appended = file_bytes(journal.path()) + file_bytes(ledger.path());
    let mut finalize = Layer::default();
    finalize.time(|| {
        journal
            .finalize_with(report.records(), None)
            .expect("finalize the journal");
        ledger
            .finalize_with(&graphs, None)
            .expect("finalize the ledger");
    });
    let (journal_bytes, ledger_bytes) = (file_bytes(journal.path()), file_bytes(ledger.path()));
    let final_bytes = journal_bytes + ledger_bytes;
    let syncs = io.snapshot().syncs;
    drop(graphs);
    let mut recover = Layer::default();
    let recovered = recover
        .time(|| pipeline.recover_all(&journal))
        .expect("recover the finished journal");
    gate.check(
        recovered.records.len() == apps
            && recovered.provenance.len() == apps
            && recovered.journal_dropped == 0
            && recovered.ledger_dropped == 0
            && recovered.inconsistent.is_empty(),
        || {
            format!(
                "recovery kept {} records and {} graphs of {apps} ({} + {} frames dropped)",
                recovered.records.len(),
                recovered.provenance.len(),
                recovered.journal_dropped,
                recovered.ledger_dropped
            )
        },
    );
    let recovered_records = recovered.records.len();
    drop(recovered);
    journal.reset().expect("remove the traced journal");

    let busy = [
        &l.decompile,
        &l.filter,
        &l.rewrite,
        &l.prep,
        &l.dynamic,
        &l.provenance,
        &env_layer,
    ]
    .iter()
    .map(|layer| layer.secs())
    .sum::<f64>();
    let unattributed = traced_s - busy;
    gate.check(unattributed.abs() <= 0.1 * traced_s, || {
        format!("layers account for {busy:.3} s of {traced_s:.3} s traced")
    });

    let mb = |bytes: u64| bytes as f64 / 1e6;
    let ratio = |num: u64, den: u64| (den > 0).then(|| num as f64 / den as f64);
    let m = &mut metrics;
    m.push("workload.generate_s", generate_s, "s");
    m.push("pipeline.new_ms", median(new_ms), "ms");
    m.push("decompile.busy_s", l.decompile.secs(), "s");
    m.push("decompile.calls", l.decompile.calls as f64, "count");
    m.push("decompile.failures", l.decompile_failures as f64, "count");
    m.push("filter.busy_s", l.filter.secs(), "s");
    if let Some(r) = ratio(l.filter_passed, l.filter.calls) {
        m.push("filter.pass_ratio", r, "ratio");
    }
    m.push("rewrite.busy_s", l.rewrite.secs(), "s");
    m.push("rewrite.calls", l.rewrites as f64, "count");
    m.push("device.prep_busy_s", l.prep.secs(), "s");
    m.push("dynamic.busy_s", l.dynamic.secs(), "s");
    m.push("avm.instructions", l.instructions as f64, "count");
    m.push(
        "avm.minstr_per_s",
        l.instructions as f64 / 1e6 / l.dynamic.secs(),
        "Minstr/s",
    );
    if let Some(r) = ratio(l.ic_hits, l.ic_hits + l.ic_misses) {
        m.push("avm.ic_hit_ratio", r, "ratio");
    }
    m.push("cache.hits", cache.hits as f64, "count");
    m.push("cache.misses", cache.misses as f64, "count");
    if let Some(r) = ratio(cache.hits, cache.hits + cache.misses) {
        m.push("cache.hit_ratio", r, "ratio");
    }
    m.push("detector.candidates", detector.candidates as f64, "count");
    m.push("detector.pruned", detector.pruned as f64, "count");
    m.push("provenance.busy_s", l.provenance.secs(), "s");
    m.push("env.busy_s", env_layer.secs(), "s");
    m.push("env.pairs", env_pairs as f64, "count");
    m.push("journal.append_busy_s", journal_append.secs(), "s");
    m.push("journal.mb", mb(journal_bytes), "MB");
    m.push("ledger.append_busy_s", ledger_append.secs(), "s");
    m.push("ledger.mb", mb(ledger_bytes), "MB");
    m.push("finalize.busy_s", finalize.secs(), "s");
    if let Some(r) = ratio(appended + final_bytes, final_bytes) {
        m.push("durable.write_amp", r, "ratio");
    }
    m.push(
        "io.fsyncs",
        (syncs[StreamKind::Journal.index()] + syncs[StreamKind::Ledger.index()]) as f64,
        "count",
    );
    m.push("recover.busy_s", recover.secs(), "s");
    m.push("recover.records", recovered_records as f64, "count");
    m.push("recover.mb_per_s", mb(final_bytes) / recover.secs(), "MB/s");
    scheduler_metrics(&sweep_stats, m);
    m.push(
        "sweep.failed_share",
        untraced_harness as f64 / apps.max(1) as f64,
        "ratio",
    );
    m.push("trace.wall_s", traced_s, "s");
    m.push("trace.overhead_s", traced_s - untraced_s, "s");
    m.push("trace.unattributed_s", unattributed, "s");
    Outcome {
        attempted,
        harness_failures: harness,
        metrics,
    }
}
