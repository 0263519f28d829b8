//! Quarantine acceptance: an app that has already used up its
//! interrupted-attempt budget is not re-analysed. Its harness-failure
//! record goes through the sweep's one append path, and the finalized
//! streams come out byte-identical at one worker and at four. The
//! converse also holds: an app whose journal record and ledger graph
//! both survived is never re-analysed or quarantined, whatever became of
//! the telemetry event stream.

use std::path::PathBuf;

use dydroid::sweep::QuarantineEntry;
use dydroid::{Journal, Pipeline, PipelineConfig};
use dydroid_workload::{generate, CorpusSpec, SyntheticApp};

fn small_corpus(n: usize) -> Vec<SyntheticApp> {
    let mut corpus = generate(&CorpusSpec {
        scale: 0.004,
        seed: 99,
    });
    corpus.truncate(n);
    assert_eq!(corpus.len(), n, "corpus generation too small");
    corpus
}

fn config(workers: usize) -> PipelineConfig {
    PipelineConfig {
        workers,
        environment_reruns: false,
        app_deadline_ms: 400,
        ..PipelineConfig::default()
    }
}

/// Seeds the quarantine file with `package` at 3 attempts, sweeps at
/// `workers`, checks the quarantined record and a clean recovery, and
/// returns the finalized journal, ledger and event stream, concatenated.
fn quarantined_sweep(corpus: &[SyntheticApp], package: &str, workers: usize) -> Vec<u8> {
    let path: PathBuf = std::env::temp_dir().join(format!(
        "dydroid_quarantine_w{workers}_{}.jsonl",
        std::process::id()
    ));
    let journal = Journal::new(path);
    journal.reset().expect("reset journal");
    journal
        .write_quarantine(&[QuarantineEntry {
            package: package.to_string(),
            attempts: 3,
        }])
        .expect("seed quarantine");

    let report = Pipeline::new(config(workers))
        .run_resumable(corpus, &journal)
        .expect("sweep");
    assert_eq!(report.records().len(), corpus.len());
    let record = report
        .records()
        .iter()
        .find(|r| r.package == package)
        .expect("quarantined app has a record");
    assert_eq!(
        record.harness_failure(),
        Some("quarantined after 3 interrupted attempts"),
        "{workers} worker(s): quarantined app was not recorded as quarantined"
    );
    assert_eq!(report.stats().quarantined, vec![package.to_string()]);

    let mut bytes = std::fs::read(journal.path()).expect("journal bytes");
    bytes.extend(std::fs::read(journal.provenance_path()).expect("ledger bytes"));
    bytes.extend(std::fs::read(journal.events_path()).expect("events bytes"));

    let outcome = Pipeline::new(config(workers))
        .recover_all(&journal)
        .expect("recover the finished journal");
    assert!(
        outcome.inconsistent.is_empty(),
        "{workers} worker(s): inconsistent apps after a finished sweep: {:?}",
        outcome.inconsistent
    );
    assert_eq!(outcome.records.len(), corpus.len());
    journal.reset().expect("cleanup");
    bytes
}

#[test]
fn quarantined_app_is_recorded_and_streams_match_across_worker_counts() {
    let corpus = small_corpus(24);
    let package = corpus[5].package().to_string();
    let serial = quarantined_sweep(&corpus, &package, 1);
    let parallel = quarantined_sweep(&corpus, &package, 4);
    assert!(!serial.is_empty());
    assert!(
        serial == parallel,
        "finalized streams differ between 1 and 4 workers"
    );
}

/// The event stream is observability, not a record stream: recovery of a
/// finished scale-0.01 sweep keeps every app whether its event stream is
/// intact, deleted, or cut to the first app's two lines, and resuming
/// three times over a cut stream re-analyses and quarantines nothing.
#[test]
fn recovery_keeps_every_app_whatever_the_event_stream_holds() {
    let corpus = generate(&CorpusSpec {
        scale: 0.01,
        ..CorpusSpec::default()
    });
    let config = PipelineConfig {
        workers: 2,
        telemetry: true,
        ..PipelineConfig::default()
    };
    let path: PathBuf =
        std::env::temp_dir().join(format!("dydroid_events_shed_{}.jsonl", std::process::id()));
    let journal = Journal::new(path);
    journal.reset().expect("reset journal");
    let first = Pipeline::new(config.clone())
        .run_resumable(&corpus, &journal)
        .expect("journaled sweep");
    assert_eq!(first.records().len(), corpus.len());
    let first_json = serde_json::to_string(&first).expect("serialise report");

    let events = std::fs::read_to_string(journal.events_path()).expect("events file");
    let cut: String = events.split_inclusive('\n').take(2).collect();
    assert_eq!(cut.lines().count(), 2, "event stream shorter than one app");
    for (case, stream) in [
        ("intact", Some(&events)),
        ("deleted", None),
        ("cut", Some(&cut)),
    ] {
        match stream {
            Some(text) => std::fs::write(journal.events_path(), text).expect("write events"),
            None => std::fs::remove_file(journal.events_path()).expect("delete events"),
        }
        let outcome = Pipeline::new(config.clone())
            .recover_all(&journal)
            .expect("recover the finished journal");
        assert!(
            outcome.inconsistent.is_empty(),
            "{case} event stream: {} apps called inconsistent",
            outcome.inconsistent.len()
        );
        assert_eq!(outcome.records.len(), corpus.len(), "{case} event stream");
    }

    for round in 1..=3 {
        std::fs::write(journal.events_path(), &cut).expect("cut events");
        let report = Pipeline::new(config.clone())
            .run_resumable(&corpus, &journal)
            .expect("resumed sweep");
        assert!(
            report.stats().quarantined.is_empty(),
            "resume {round}: {} apps quarantined",
            report.stats().quarantined.len()
        );
        assert!(
            serde_json::to_string(&report).expect("serialise report") == first_json,
            "resume {round}: report JSON differs from the first run"
        );
    }
    journal.reset().expect("cleanup");
}

/// A resume over an emptied ledger calls every app inconsistent and
/// re-analyses them all; the quarantine entries that bookkeeping wrote
/// go at finalize, so the run ends without a sidecar, and a further
/// resume changes no byte.
#[test]
fn resume_over_an_emptied_ledger_leaves_no_quarantine_sidecar() {
    let corpus = generate(&CorpusSpec {
        scale: 0.01,
        seed: 7,
    });
    let config = PipelineConfig {
        workers: 2,
        ..PipelineConfig::default()
    };
    let path: PathBuf = std::env::temp_dir().join(format!(
        "dydroid_emptied_ledger_{}.jsonl",
        std::process::id()
    ));
    let journal = Journal::new(path);
    journal.reset().expect("reset journal");
    let streams = |journal: &Journal| {
        [
            journal.path().to_path_buf(),
            journal.provenance_path(),
            journal.events_path(),
        ]
        .map(|p| std::fs::read(p).expect("finalized stream"))
    };
    let sweep = || {
        let report = Pipeline::new(config.clone())
            .run_resumable(&corpus, &journal)
            .expect("journaled sweep");
        assert_eq!(report.records().len(), corpus.len());
        report
    };
    let first = sweep();
    let first_json = serde_json::to_string(&first).expect("serialise report");
    let first_streams = streams(&journal);

    std::fs::write(journal.provenance_path(), "").expect("empty the ledger");
    let resumed = sweep();
    assert_eq!(resumed.stats().inconsistent_apps, corpus.len() as u64);
    assert!(
        !journal.quarantine_path().exists(),
        "the finished resume left a quarantine sidecar"
    );
    assert!(
        streams(&journal) == first_streams,
        "resume over an emptied ledger moved a stream"
    );
    assert!(serde_json::to_string(&resumed).expect("serialise report") == first_json);

    let again = sweep();
    assert_eq!(again.stats().inconsistent_apps, 0);
    assert!(again.stats().quarantined.is_empty());
    assert!(!journal.quarantine_path().exists());
    assert!(
        streams(&journal) == first_streams,
        "a further resume moved a stream"
    );
    assert!(serde_json::to_string(&again).expect("serialise report") == first_json);
    journal.reset().expect("cleanup");
}
