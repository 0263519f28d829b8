//! Differential and consistency tests for the telemetry layer: spans and
//! metrics must never change a measured byte, the Chrome-trace export
//! must be structurally valid, the event stream must agree with the
//! journal, and a resumed sweep must stitch into the previous timeline
//! without reusing span ids.

use std::collections::HashSet;
use std::path::PathBuf;

use dydroid::obs::chrome_trace;
use dydroid::{Journal, Pipeline, PipelineConfig};
use dydroid_workload::{generate, CorpusSpec, SyntheticApp};

fn tiny_corpus() -> Vec<SyntheticApp> {
    generate(&CorpusSpec {
        scale: 0.004,
        seed: 99,
    })
}

fn small_corpus(n: usize) -> Vec<SyntheticApp> {
    let mut corpus = tiny_corpus();
    corpus.truncate(n);
    corpus
}

fn temp_journal(tag: &str) -> Journal {
    let path: PathBuf = std::env::temp_dir().join(format!(
        "dydroid_telemetry_{tag}_{}.jsonl",
        std::process::id()
    ));
    let journal = Journal::new(path);
    journal.reset().expect("reset journal");
    journal
}

/// The tentpole invariant: telemetry on and off produce byte-identical
/// report JSON — observability rides on `SweepStats`, which is excluded
/// from serialization.
#[test]
fn telemetry_on_and_off_reports_are_byte_identical() {
    let corpus = tiny_corpus();

    let on_pipeline = Pipeline::new(PipelineConfig::default());
    let on = on_pipeline.run(&corpus);
    let off = Pipeline::new(PipelineConfig {
        telemetry: false,
        ..PipelineConfig::default()
    })
    .run(&corpus);

    let on_json = serde_json::to_string(&on).expect("serialise telemetry-on report");
    let off_json = serde_json::to_string(&off).expect("serialise telemetry-off report");
    assert!(!on_json.is_empty());
    assert_eq!(on_json, off_json, "telemetry changed the measured results");

    // The telemetry-on run actually recorded: one app span per app, and
    // per-phase histograms surfaced into the perf stats.
    let stats = on.stats();
    assert_eq!(stats.app_wall.count, corpus.len() as u64);
    assert!(stats.app_wall.p50 <= stats.app_wall.p95);
    assert!(stats.app_wall.p95 <= stats.app_wall.p99);
    assert!(
        stats
            .phases
            .iter()
            .any(|(name, _)| name == "span.monkey.us"),
        "phase histograms missing the monkey span: {:?}",
        stats.phases.iter().map(|(n, _)| n).collect::<Vec<_>>()
    );
    let perf = on.render_perf();
    assert!(
        perf.contains("per-app wall"),
        "render_perf lacks percentiles: {perf}"
    );
    assert!(
        perf.contains("span.monkey.us"),
        "render_perf lacks phase table: {perf}"
    );

    // The telemetry-off run recorded nothing.
    assert_eq!(off.stats().app_wall.count, 0);
    assert!(off.stats().phases.is_empty());
}

/// The Chrome-trace document produced by a real sweep parses back and
/// carries one complete-event entry per retained span.
#[test]
fn chrome_trace_from_sweep_parses_back() {
    let corpus = small_corpus(60);
    let pipeline = Pipeline::new(PipelineConfig::default());
    let _ = pipeline.run(&corpus);

    let spans = pipeline.telemetry().spans();
    assert!(!spans.is_empty(), "sweep recorded no spans");
    let doc = chrome_trace(&spans);
    let text = serde_json::to_string(&doc).expect("serialise trace");
    let parsed: serde_json::Value = serde_json::from_str(&text).expect("trace parses back");
    let events = parsed
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert_eq!(events.len(), spans.len());
    for event in events {
        let obj = event.as_object().expect("event is an object");
        for key in ["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"] {
            assert!(
                obj.iter().any(|(k, _)| k == key),
                "trace event missing {key:?}"
            );
        }
        assert_eq!(event.get("ph").and_then(|v| v.as_str()), Some("X"));
    }
    // Phase spans reference their app span through args.parent.
    let ids: HashSet<u64> = spans.iter().map(|s| s.id).collect();
    for span in &spans {
        if span.parent != 0 {
            assert!(
                ids.contains(&span.parent),
                "span {} has dangling parent {}",
                span.id,
                span.parent
            );
        }
    }
}

/// A completed journaled run finalizes the event stream to its canonical
/// form: checksummed frames with contiguous sequence numbers whose bodies
/// are per-app checkpoint and provenance facts in corpus order — free of
/// span ids and timestamps, so the finalized stream is byte-stable
/// however the sweep interleaved.
#[test]
fn completed_event_stream_is_canonical_and_agrees_with_journal() {
    let corpus = small_corpus(60);
    let journal = temp_journal("canonical");

    let pipeline = Pipeline::new(PipelineConfig {
        environment_reruns: false,
        ..PipelineConfig::default()
    });
    let _ = pipeline
        .run_resumable(&corpus, &journal)
        .expect("initial sweep");

    let events_text = std::fs::read_to_string(journal.events_path()).expect("events file");
    let mut checkpoints: Vec<String> = Vec::new();
    let mut provenance_links: Vec<String> = Vec::new();
    for (i, line) in events_text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
    {
        let v: serde_json::Value = serde_json::from_str(line).expect("event frame parses");
        assert_eq!(
            v.get("seq").and_then(|s| s.as_u64()),
            Some(i as u64),
            "finalized frames must be contiguously sequenced"
        );
        let body = v.get("body").expect("framed event has a body");
        assert!(
            body.get("span").is_none() && body.get("t_us").is_none(),
            "canonical events must not carry span ids or timestamps: {line}"
        );
        let app = body
            .get("app")
            .and_then(|a| a.as_str())
            .expect("event app")
            .to_string();
        match body.get("type").and_then(|t| t.as_str()) {
            Some("checkpoint") => checkpoints.push(app),
            Some("provenance") => provenance_links.push(app),
            other => panic!("unexpected canonical event type {other:?}"),
        }
    }
    let journaled: Vec<String> = journal
        .load()
        .expect("journal")
        .into_iter()
        .map(|r| r.package)
        .collect();
    assert_eq!(journaled.len(), corpus.len());
    let corpus_order: Vec<String> = corpus.iter().map(|a| a.package().to_string()).collect();
    assert_eq!(
        journaled, corpus_order,
        "finalized journal is corpus-ordered"
    );
    assert_eq!(
        checkpoints, corpus_order,
        "checkpoints diverge from the corpus"
    );
    assert_eq!(
        provenance_links, corpus_order,
        "provenance links diverge from the corpus"
    );

    journal.reset().expect("cleanup");
    assert!(
        !journal.events_path().exists(),
        "journal reset must remove the event stream"
    );
}

/// A run killed mid-sweep (via the virtual-clock I/O harness) leaves a
/// live event stream whose surviving checkpoints reference recorded app
/// spans; a fresh pipeline resumes it, stitches the prior session's spans
/// into its own timeline without reusing a span id, and completes the
/// corpus.
#[test]
fn interrupted_event_stream_stitches_into_the_resumed_timeline() {
    let corpus = small_corpus(60);
    let journal = temp_journal("stitch");

    let config = PipelineConfig {
        environment_reruns: false,
        ..PipelineConfig::default()
    };
    let mut first = Pipeline::new(config.clone());
    // Freeze every persistent stream at write op 150 — mid-sweep, after
    // some apps have fully checkpointed.
    first.set_io_harness(dydroid::IoHarness::new(Some(150), None));
    let _ = first
        .run_resumable(&corpus, &journal)
        .expect("interrupted sweep still returns");

    // The torn live stream: span lines precede the checkpoints that
    // reference them, so every surviving checkpoint resolves.
    let events_text = std::fs::read_to_string(journal.events_path()).expect("events file");
    let mut app_spans: HashSet<u64> = HashSet::new();
    let mut first_ids: Vec<u64> = Vec::new();
    let mut checkpoints: Vec<(String, u64)> = Vec::new();
    for line in events_text.lines().filter(|l| !l.trim().is_empty()) {
        let Ok(v) = serde_json::from_str::<serde_json::Value>(line) else {
            continue; // torn tail
        };
        let Some(body) = v.get("body") else { continue };
        match body.get("type").and_then(|t| t.as_str()) {
            Some("span") => {
                let id = body.get("id").and_then(|i| i.as_u64()).expect("span id");
                first_ids.push(id);
                if body.get("name").and_then(|n| n.as_str()) == Some("app") {
                    app_spans.insert(id);
                }
            }
            Some("checkpoint") => {
                let app = body
                    .get("app")
                    .and_then(|a| a.as_str())
                    .expect("checkpoint app")
                    .to_string();
                let span = body.get("span").and_then(|s| s.as_u64()).expect("span ref");
                checkpoints.push((app, span));
            }
            _ => {}
        }
    }
    assert!(!first_ids.is_empty(), "crash left no spans to stitch");
    for (app, span) in &checkpoints {
        assert!(
            app_spans.contains(span),
            "checkpoint for {app} references unknown span {span}"
        );
    }

    let second = Pipeline::new(config);
    let resumed = second
        .run_resumable(&corpus, &journal)
        .expect("resumed sweep");
    assert_eq!(resumed.records().len(), corpus.len());
    assert_eq!(journal.load().expect("journal").len(), corpus.len());

    // The resumed pipeline's timeline contains the stitched first-session
    // spans plus its own, with globally unique ids.
    let spans = second.telemetry().spans();
    let resumed_ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
    let unique: HashSet<&u64> = resumed_ids.iter().collect();
    assert_eq!(unique.len(), resumed_ids.len(), "span ids collide");
    let stitched: HashSet<u64> = first_ids.iter().copied().collect();
    assert!(
        first_ids.iter().all(|id| unique.contains(id)),
        "stitched timeline lost first-session spans"
    );
    assert!(
        spans.iter().any(|s| !stitched.contains(&s.id)),
        "resume recorded no new spans"
    );

    journal.reset().expect("cleanup");
}

/// A plain (non-journaled) run's telemetry, read back once the run
/// returns, writes a trace file that is valid JSON.
#[test]
fn plain_run_telemetry_writes_a_loadable_trace() {
    let corpus = small_corpus(20);
    let trace_path = std::env::temp_dir().join(format!(
        "dydroid_telemetry_trace_{}.trace.json",
        std::process::id()
    ));
    let pipeline = Pipeline::new(PipelineConfig {
        environment_reruns: false,
        ..PipelineConfig::default()
    });
    let _ = pipeline.run(&corpus);
    pipeline
        .telemetry()
        .write_chrome_trace(&trace_path)
        .expect("write trace");
    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let parsed: serde_json::Value = serde_json::from_str(&text).expect("trace parses");
    assert!(
        parsed
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .is_some_and(|a| !a.is_empty()),
        "trace has no events"
    );
    assert_eq!(
        parsed.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ms")
    );
    let _ = std::fs::remove_file(&trace_path);
}
