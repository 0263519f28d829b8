//! End-to-end robustness: a 200-app sweep at a 20% fault rate must
//! complete, classify exactly the injected apps as failures, render every
//! table, and resume from the journal after a simulated mid-sweep kill
//! without re-analyzing completed apps.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;

use dydroid::{IoHarness, Journal, Pipeline, PipelineConfig};
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
/// rate the sweep produces a loadable Chrome trace and an event stream
/// whose checkpoints agree with the journal — panicking and
/// deadline-blown apps included.
#[test]
fn faulty_sweep_trace_is_loadable_and_events_match_journal() {
    let (corpus, _plans) = fault_corpus();
    let journal = temp_journal("trace");
    let trace_path: PathBuf = std::env::temp_dir().join(format!(
        "dydroid_fault_sweep_{}.trace.json",
        std::process::id()
    ));

    let traced = Pipeline::new(PipelineConfig {
        workers: 4,
        environment_reruns: false,
        app_deadline_ms: 400,
        ..Default::default()
    });
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
    traced
        .telemetry()
        .write_chrome_trace(&trace_path)
        .expect("write trace");

    // The Chrome trace parses back with one complete event per span.
    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let parsed: serde_json::Value = serde_json::from_str(&text).expect("trace parses");
    let events = parsed
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert_eq!(events.len(), traced.telemetry().spans().len());
    assert!(events.len() >= CORPUS_APPS, "fewer events than apps");

    // The event stream checkpoints exactly the journaled packages. Each
    // line is a checksummed frame whose `body` carries the event.
    let events_text = std::fs::read_to_string(journal.events_path()).expect("events file");
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
    let journaled: HashSet<String> = journal
        .load()
        .expect("load journal")
        .into_iter()
        .map(|r| r.package)
        .collect();
    assert_eq!(journaled.len(), CORPUS_APPS);
    assert_eq!(
        checkpointed, journaled,
        "event-stream checkpoints diverge from the journal"
    );

    let _ = std::fs::remove_file(&trace_path);
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
/// and require the finalized journal, provenance ledger and event stream
/// to be byte-identical to the fault-free run at the same seed.
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

    // All three finalized streams of one journaled run, concatenated.
    let stream_bytes = |journal: &Journal| -> Vec<u8> {
        let mut bytes = std::fs::read(journal.path()).expect("journal bytes");
        bytes.extend(std::fs::read(journal.provenance_path()).expect("ledger bytes"));
        bytes.extend(std::fs::read(journal.events_path()).expect("events bytes"));
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
