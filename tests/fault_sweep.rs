//! End-to-end robustness: a 200-app sweep at a 20% fault rate must
//! complete, classify exactly the injected apps as failures, render every
//! table, and resume from the journal after a simulated mid-sweep kill
//! without re-analyzing completed apps.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;

use dydroid::{IoHarness, Journal, Pipeline, PipelineConfig, Telemetry};
use dydroid_workload::faults::{
    self, crash_points, crash_torture, FaultKind, FaultPlan, FaultSpec,
};
use dydroid_workload::{generate, CorpusSpec, SyntheticApp};

const CORPUS_APPS: usize = 200;
const FAULT_RATE: f64 = 0.2;
const FAULT_SEED: u64 = 17;

fn fault_corpus() -> (Vec<SyntheticApp>, Vec<FaultPlan>) {
    let mut corpus = generate(&CorpusSpec {
        scale: 0.004,
        seed: 99,
    });
    corpus.truncate(CORPUS_APPS);
    assert_eq!(corpus.len(), CORPUS_APPS, "corpus generation too small");
    let plans = faults::inject(
        &mut corpus,
        &FaultSpec {
            rate: FAULT_RATE,
            seed: FAULT_SEED,
        },
    );
    assert!(
        plans.len() >= FaultKind::ALL.len(),
        "fault rate selected too few apps for full kind coverage"
    );
    (corpus, plans)
}

fn pipeline() -> Pipeline {
    Pipeline::new(PipelineConfig {
        workers: 4,
        environment_reruns: false,
        app_deadline_ms: 400,
        ..Default::default()
    })
}

fn temp_journal(tag: &str) -> Journal {
    let path: PathBuf = std::env::temp_dir().join(format!(
        "dydroid_fault_sweep_{tag}_{}.jsonl",
        std::process::id()
    ));
    let journal = Journal::new(path);
    journal.reset().expect("reset journal");
    journal
}

#[test]
fn faulty_sweep_completes_and_classifies_exactly_the_injected_apps() {
    let (corpus, plans) = fault_corpus();
    let by_package: HashMap<&str, FaultKind> =
        plans.iter().map(|p| (p.package.as_str(), p.kind)).collect();
    // The acceptance scenario needs at least one analyzer-panicking app
    // and one deadline-exceeding app in the mix.
    assert!(plans.iter().any(|p| p.kind == FaultKind::PanicTrigger));
    assert!(plans.iter().any(|p| p.kind == FaultKind::SpinLoop));

    let journal = temp_journal("classify");
    let report = pipeline()
        .run_resumable(&corpus, &journal)
        .expect("sweep completes despite faults");
    assert_eq!(report.records().len(), CORPUS_APPS);

    for record in report.records() {
        let fault = by_package.get(record.package.as_str()).copied();
        match fault {
            Some(kind) if kind.expects_harness_failure() => {
                let reason = record.harness_failure().unwrap_or_else(|| {
                    panic!("{} ({kind:?}) should be a harness failure", record.package)
                });
                match kind {
                    FaultKind::PanicTrigger => {
                        assert!(
                            reason.contains("panic"),
                            "{}: reason should carry the panic message: {reason}",
                            record.package
                        );
                    }
                    FaultKind::SpinLoop => {
                        assert!(
                            reason.contains("deadline exceeded"),
                            "{}: reason should name the deadline: {reason}",
                            record.package
                        );
                    }
                    FaultKind::OversizedManifest => {
                        assert!(
                            reason.contains("sanity bounds"),
                            "{}: reason should name the sanity guard: {reason}",
                            record.package
                        );
                    }
                    _ => unreachable!(),
                }
            }
            Some(kind) if kind.expects_decompile_failure() => {
                assert!(
                    !record.decompiled,
                    "{} ({kind:?}) should fail decompilation",
                    record.package
                );
                assert!(
                    !record.obfuscation.anti_decompilation,
                    "{} ({kind:?}) must not look like a legit anti-decompilation app",
                    record.package
                );
            }
            Some(FaultKind::DeadRemoteHost) | None => {
                // Dead payload hosts degrade gracefully (the app may
                // crash, but the harness must not fail); clean apps
                // either decompile or are legit anti-decompilation apps.
                assert!(
                    record.harness_failure().is_none(),
                    "{}: unexpected harness failure: {:?}",
                    record.package,
                    record.harness_failure()
                );
                if fault.is_none() {
                    assert!(
                        record.decompiled || record.obfuscation.anti_decompilation,
                        "{}: clean app neither decompiled nor anti-decompilation",
                        record.package
                    );
                }
            }
            Some(_) => unreachable!(),
        }
    }

    // Exactness in the other direction: every harness failure and every
    // unexplained decompile failure traces back to an injected fault.
    for record in report.records() {
        if record.harness_failure().is_some() {
            let kind = by_package.get(record.package.as_str());
            assert!(
                kind.is_some_and(|k| k.expects_harness_failure()),
                "{}: harness failure without an injected cause",
                record.package
            );
        }
        if !record.decompiled && !record.obfuscation.anti_decompilation {
            let kind = by_package.get(record.package.as_str());
            assert!(
                kind.is_some_and(|k| k.expects_decompile_failure()),
                "{}: decompile failure without an injected cause",
                record.package
            );
        }
    }

    // Every table still renders, and Table II reports the failures.
    let text = report.render_all();
    for header in [
        "TABLE II",
        "TABLE III",
        "TABLE IV",
        "TABLE V",
        "TABLE VI",
        "TABLE VII",
        "TABLE VIII",
        "TABLE IX",
        "TABLE X",
    ] {
        assert!(text.contains(header), "missing {header}");
    }
    assert!(text.contains("Harness failure"));

    // The journal checkpointed the entire sweep.
    assert_eq!(journal.load().expect("load journal").len(), CORPUS_APPS);
    journal.reset().expect("cleanup");
}

/// The acceptance scenario for the telemetry layer: even at a 20% fault
/// rate the sweep produces a loadable Chrome trace, a session killed
/// once every app is appended leaves an event log whose checkpoints
/// agree with the journal — panicking and deadline-blown apps included —
/// and a finished sweep leaves no log.
#[test]
fn faulty_sweep_trace_is_loadable_and_events_match_journal() {
    let (corpus, _plans) = fault_corpus();
    let journal = temp_journal("trace");
    let trace_path: PathBuf = std::env::temp_dir().join(format!(
        "dydroid_fault_sweep_{}.trace.json",
        std::process::id()
    ));

    // The trace opens before the pipeline is built, so it streams every
    // span the pipeline closes.
    let telemetry = Telemetry::new(true);
    telemetry.open_trace(&trace_path).expect("open trace");
    let traced = Pipeline::with_telemetry(
        PipelineConfig {
            workers: 4,
            environment_reruns: false,
            app_deadline_ms: 400,
            ..Default::default()
        },
        telemetry,
    );
    let report = traced
        .run_resumable(&corpus, &journal)
        .expect("sweep completes despite faults");
    assert_eq!(report.records().len(), CORPUS_APPS);
    // The live failed gauge counted every harness failure it collected.
    let failed = report
        .records()
        .iter()
        .filter(|r| r.harness_failure().is_some())
        .count();
    assert!(failed > 0, "a 20% fault rate failed no app");
    assert_eq!(
        traced.telemetry().gauge_value("sweep.failed"),
        failed as u64
    );
    traced.telemetry().close_trace().expect("close trace");

    // The Chrome trace parses back with one complete event per span.
    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let parsed: serde_json::Value = serde_json::from_str(&text).expect("trace parses");
    let events = parsed
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert_eq!(
        events.len() as u64,
        traced.telemetry().profile().span_count()
    );
    assert!(events.len() >= CORPUS_APPS, "fewer events than apps");
    assert!(
        !journal.events_path().exists(),
        "a finished sweep left its event log"
    );

    // One worker makes the write-op count a function of the corpus, so a
    // counting run finds the finalize's two ops at the end, and a session
    // killed at the first of them has appended every app but committed
    // nothing: its log is left behind.
    let one_worker = PipelineConfig {
        workers: 1,
        environment_reruns: false,
        app_deadline_ms: 400,
        ..Default::default()
    };
    let counted = temp_journal("trace_counted");
    let counting = IoHarness::counting();
    let mut pipeline = Pipeline::new(one_worker.clone());
    pipeline.set_io_harness(Arc::clone(&counting));
    pipeline
        .run_resumable(&corpus, &counted)
        .expect("counted sweep");
    let finished = std::fs::read(counted.path()).expect("finished journal");
    counted.reset().expect("cleanup");
    let killed = temp_journal("trace_killed");
    let mut pipeline = Pipeline::new(one_worker.clone());
    pipeline.set_io_harness(IoHarness::new(Some(counting.ops() - 2), None));
    pipeline
        .run_resumable(&corpus, &killed)
        .expect("killed sweep still returns");

    // The log checkpoints exactly the journaled packages. Each line is a
    // checksummed frame whose `body` carries the event.
    let events_text = std::fs::read_to_string(killed.events_path()).expect("event log");
    let mut checkpointed: HashSet<String> = HashSet::new();
    for line in events_text.lines().filter(|l| !l.trim().is_empty()) {
        let v: serde_json::Value = serde_json::from_str(line).expect("event frame parses");
        let body = v.get("body").expect("framed event has a body");
        if body.get("type").and_then(|t| t.as_str()) == Some("checkpoint") {
            let app = body
                .get("app")
                .and_then(|a| a.as_str())
                .expect("checkpoint app");
            checkpointed.insert(app.to_string());
        }
    }
    let journaled: HashSet<String> = killed
        .load()
        .expect("load journal")
        .into_iter()
        .map(|r| r.package)
        .collect();
    assert_eq!(journaled.len(), CORPUS_APPS);
    assert_eq!(
        checkpointed, journaled,
        "event-log checkpoints diverge from the journal"
    );

    // The resume finalizes what the killed session appended and removes
    // the log.
    Pipeline::new(one_worker)
        .run_resumable(&corpus, &killed)
        .expect("resumed sweep");
    assert!(std::fs::read(killed.path()).expect("journal") == finished);
    assert!(!killed.events_path().exists(), "the resume left the log");

    let _ = std::fs::remove_file(&trace_path);
    killed.reset().expect("cleanup");
    journal.reset().expect("cleanup");
}

#[test]
fn sweep_resumes_after_mid_flight_kill_without_rework() {
    let (corpus, _plans) = fault_corpus();
    let journal = temp_journal("resume");

    let first = pipeline()
        .run_resumable(&corpus, &journal)
        .expect("initial sweep");
    assert_eq!(journal.load().expect("journal").len(), CORPUS_APPS);

    // Simulate a kill after 120 completed apps: keep the journal's first
    // 120 lines (plus a torn half-line, as a real kill would leave).
    const SURVIVORS: usize = 120;
    let text = std::fs::read_to_string(journal.path()).expect("read journal");
    let mut kept: String = text
        .lines()
        .take(SURVIVORS)
        .map(|l| format!("{l}\n"))
        .collect();
    kept.push_str("{\"package\":\"com.torn.midwrite\",\"metad");
    std::fs::write(journal.path(), kept).expect("truncate journal");

    let resumed = pipeline()
        .run_resumable(&corpus, &journal)
        .expect("resumed sweep");

    // Exactly the missing apps were re-analyzed and appended; the torn
    // line was dropped.
    let records = journal.load().expect("load resumed journal");
    assert_eq!(
        records.len(),
        CORPUS_APPS,
        "resume must append exactly the {} missing apps",
        CORPUS_APPS - SURVIVORS
    );
    let unique: HashSet<&str> = records.iter().map(|r| r.package.as_str()).collect();
    assert_eq!(unique.len(), CORPUS_APPS, "no package analyzed twice");

    // The resumed report covers the full corpus and matches the
    // uninterrupted run.
    assert_eq!(resumed.records().len(), CORPUS_APPS);
    assert_eq!(resumed.table2(), first.table2());
    journal.reset().expect("cleanup");
}

/// The crash-consistency acceptance: kill a journaled sweep at *every*
/// write boundary of its three persistent streams, resume it cleanly,
/// and require the finalized journal and provenance ledger to be
/// byte-identical to the fault-free run at the same seed, with no event
/// log left.
#[test]
fn crash_torture_recovers_byte_identical_streams_at_every_boundary() {
    let mut corpus = generate(&CorpusSpec {
        scale: 0.004,
        seed: 99,
    });
    corpus.truncate(6);
    let config = PipelineConfig {
        workers: 2,
        environment_reruns: false,
        app_deadline_ms: 400,
        ..Default::default()
    };

    // Both finalized streams of one finished journaled run, concatenated.
    let stream_bytes = |journal: &Journal| -> Vec<u8> {
        assert!(
            !journal.events_path().exists(),
            "a finished sweep left its event log"
        );
        let mut bytes = std::fs::read(journal.path()).expect("journal bytes");
        bytes.extend(std::fs::read(journal.provenance_path()).expect("ledger bytes"));
        bytes
    };
    let run = |tag: &str, harness: Option<Arc<IoHarness>>| -> Vec<u8> {
        let journal = temp_journal(tag);
        let mut pipeline = Pipeline::new(config.clone());
        if let Some(h) = &harness {
            pipeline.set_io_harness(Arc::clone(h));
        }
        let _ = pipeline
            .run_resumable(&corpus, &journal)
            .expect("interrupted run still returns");
        if harness.is_some() {
            // The kill froze the files mid-run; resume with a clean
            // pipeline, exactly as a restarted process would.
            let _ = Pipeline::new(config.clone())
                .run_resumable(&corpus, &journal)
                .expect("resumed run");
        }
        let bytes = stream_bytes(&journal);
        journal.reset().expect("cleanup");
        bytes
    };

    // Size the crash matrix from a counting reference run, then exercise
    // every write boundary of the small corpus.
    let counter = IoHarness::counting();
    let reference = run("torture_ref", Some(Arc::clone(&counter)));
    let total_ops = counter.ops();
    let points = crash_points(total_ops, 0);
    let report = crash_torture(
        move || (reference, total_ops),
        &points,
        |op| {
            run(
                &format!("torture_{op}"),
                Some(IoHarness::new(Some(op), None)),
            )
        },
    );
    assert!(report.total_ops > 0, "reference run wrote nothing");
    assert!(
        report.all_identical(),
        "crash points diverged: {:?} of {} ops",
        report.divergent(),
        report.total_ops
    );
}

/// The deadline watchdog reads the virtual clock alone, so host load
/// cannot move a verdict: a scale-0.05 sweep under a 1 ms deadline —
/// less than many apps take in wall time, so a wall-clock charge would
/// trip it as the host allows — run three times at two workers, beside
/// a thread that keeps a CPU busy, finalizes the same report JSON and
/// journal, retries the same apps and reports the same virtual makespan
/// every time.
#[test]
fn host_load_moves_no_deadline_verdict() {
    let corpus = generate(&CorpusSpec {
        scale: 0.05,
        seed: 7,
    });
    let busy = std::sync::atomic::AtomicBool::new(true);
    let runs: Vec<_> = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut x = 0u64;
            while busy.load(std::sync::atomic::Ordering::Relaxed) {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
            }
        });
        let runs = (0..3)
            .map(|run| {
                let pipeline = Pipeline::new(PipelineConfig {
                    workers: 2,
                    environment_reruns: false,
                    app_deadline_ms: 1,
                    ..Default::default()
                });
                let journal = temp_journal(&format!("host_load_{run}"));
                let report = pipeline
                    .run_resumable(&corpus, &journal)
                    .expect("deadline sweep");
                let journal_bytes = std::fs::read(journal.path()).expect("finalized journal");
                journal.reset().expect("cleanup");
                (
                    serde_json::to_string(&report).expect("serialise report"),
                    journal_bytes,
                    pipeline.telemetry().counter_value("sweep.retries"),
                    dydroid::scheduler::virtual_makespan_us(&report.stats().worker_stats),
                )
            })
            .collect();
        busy.store(false, std::sync::atomic::Ordering::Relaxed);
        runs
    });
    assert!(runs[0].3 > 0, "the sweep charged no virtual time");
    for (run, later) in runs.iter().enumerate().skip(1) {
        assert!(later.0 == runs[0].0, "run {run}: report JSON moved");
        assert!(later.1 == runs[0].1, "run {run}: journal moved");
        assert_eq!(later.2, runs[0].2, "run {run}: sweep.retries moved");
        assert_eq!(later.3, runs[0].3, "run {run}: virtual makespan moved");
    }
}
