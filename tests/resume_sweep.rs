//! Resume acceptance: an app whose journal record and ledger graph both
//! survived is never re-analysed, whatever became of the telemetry event
//! log, and an app that lost either is re-analysed into the same
//! finalized streams. A finished sweep leaves only its journal, its
//! ledger and its profile artifact.

use std::path::PathBuf;

use dydroid::durable::encode_frames;
use dydroid::{Journal, Pipeline, PipelineConfig};
use dydroid_workload::{generate, CorpusSpec};

/// The files beside `journal` whose names begin with its own, by what
/// follows that name (`""` for the journal itself), sorted.
fn files_beside(journal: &Journal) -> Vec<String> {
    let name = journal
        .path()
        .file_name()
        .and_then(|n| n.to_str())
        .expect("journal file name");
    let dir = journal.path().parent().expect("journal directory");
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .expect("list the journal directory")
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter_map(|file| Some(file.strip_prefix(name)?.to_string()))
        .collect();
    files.sort();
    files
}

/// The event log is observability, not a record stream: recovery of a
/// finished scale-0.01 sweep keeps every app whether a log beside it is
/// absent, holds a checkpoint frame and a torn one, or holds a corrupt
/// frame, and resuming three times over a torn log re-analyses nothing
/// and removes the log each time.
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

    assert!(
        !journal.events_path().exists(),
        "a finished sweep left its event log"
    );
    let checkpoint = format!(
        r#"{{"type":"checkpoint","app":"{}","span":1,"t_us":0}}"#,
        corpus[0].package()
    );
    let frames = encode_frames(0, &[checkpoint.clone(), checkpoint]);
    let torn = &frames[..frames.len() - 9];
    let corrupt = frames.replacen(r#""type""#, r#""tyqe""#, 1);
    for (case, log) in [
        ("absent", None),
        ("torn", Some(torn)),
        ("corrupt", Some(&corrupt)),
    ] {
        if let Some(text) = log {
            std::fs::write(journal.events_path(), text).expect("write the log");
        }
        let outcome = Pipeline::new(config.clone())
            .recover_all(&journal)
            .expect("recover the finished journal");
        assert!(
            outcome.inconsistent.is_empty(),
            "{case} event log: {} apps called inconsistent",
            outcome.inconsistent.len()
        );
        assert_eq!(outcome.records.len(), corpus.len(), "{case} event log");
    }

    for round in 1..=3 {
        std::fs::write(journal.events_path(), torn).expect("write a torn log");
        let report = Pipeline::new(config.clone())
            .run_resumable(&corpus, &journal)
            .expect("resumed sweep");
        assert_eq!(
            report.stats().inconsistent_apps,
            0,
            "resume {round}: apps re-analysed"
        );
        assert!(
            serde_json::to_string(&report).expect("serialise report") == first_json,
            "resume {round}: report JSON differs from the first run"
        );
        assert!(
            !journal.events_path().exists(),
            "resume {round}: the event log outlived the finalize"
        );
    }
    journal.reset().expect("cleanup");
}

/// A resume over an emptied ledger calls every app inconsistent and
/// re-analyses them all, ends with no file beside the journal but the
/// ledger and the profile artifact, and a further resume changes no
/// byte.
#[test]
fn resume_over_an_emptied_ledger_leaves_only_the_finished_streams() {
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
        assert_eq!(
            files_beside(journal),
            ["", ".profile.folded", ".provenance.jsonl"],
            "a finished sweep left a stray file"
        );
        [journal.path().to_path_buf(), journal.provenance_path()]
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
        streams(&journal) == first_streams,
        "resume over an emptied ledger moved a stream"
    );
    assert!(serde_json::to_string(&resumed).expect("serialise report") == first_json);

    let again = sweep();
    assert_eq!(again.stats().inconsistent_apps, 0);
    assert!(
        streams(&journal) == first_streams,
        "a further resume moved a stream"
    );
    assert!(serde_json::to_string(&again).expect("serialise report") == first_json);
    journal.reset().expect("cleanup");
}
