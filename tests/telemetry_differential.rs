//! Differential and consistency tests for the telemetry layer: spans and
//! metrics must never change a measured byte, the Chrome-trace export
//! must be structurally valid, a killed session's event log must agree
//! with the journal, and a resumed sweep must stitch into the previous
//! timeline without reusing span ids.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use dydroid::{Journal, Pipeline, PipelineConfig, Telemetry};
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

fn temp_trace(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "dydroid_telemetry_{tag}_{}.trace.json",
        std::process::id()
    ))
}

/// A pipeline on a telemetry handle that streams its trace to `path`
/// from before the pipeline is built.
fn traced_pipeline(config: PipelineConfig, path: &Path) -> Pipeline {
    let telemetry = Telemetry::new(true);
    telemetry.open_trace(path).expect("open trace");
    Pipeline::with_telemetry(config, telemetry)
}

/// The events of the trace `pipeline` streamed to `path`, once closed.
fn trace_events(pipeline: &Pipeline, path: &Path) -> Vec<serde_json::Value> {
    pipeline.telemetry().close_trace().expect("close trace");
    let text = std::fs::read_to_string(path).expect("trace file written");
    let _ = std::fs::remove_file(path);
    let parsed: serde_json::Value = serde_json::from_str(&text).expect("trace parses back");
    assert_eq!(
        parsed.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ms")
    );
    parsed
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array")
        .clone()
}

/// A trace event's `args` member `key`, as a number.
fn arg(event: &serde_json::Value, key: &str) -> u64 {
    event
        .get("args")
        .and_then(|a| a.get(key))
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("trace event lacks args.{key}"))
}

/// The Chrome-trace document a real sweep streams parses back and
/// carries one complete-event entry per span the run closed.
#[test]
fn chrome_trace_from_sweep_parses_back() {
    let corpus = small_corpus(60);
    let path = temp_trace("sweep");
    let pipeline = traced_pipeline(PipelineConfig::default(), &path);
    let _ = pipeline.run(&corpus);

    let events = trace_events(&pipeline, &path);
    assert!(!events.is_empty(), "sweep recorded no spans");
    assert_eq!(
        events.len() as u64,
        pipeline.telemetry().profile().span_count()
    );
    for event in &events {
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
    let ids: HashSet<u64> = events.iter().map(|e| arg(e, "id")).collect();
    for event in &events {
        let (id, parent) = (arg(event, "id"), arg(event, "parent"));
        assert!(
            parent == 0 || ids.contains(&parent),
            "span {id} has dangling parent {parent}"
        );
    }
}

/// A session killed once every app is appended leaves its event log
/// beside the journal: checksummed frames with contiguous sequence
/// numbers whose checkpoint and provenance-link lines name each journaled
/// app once, each with the span that produced it. The resume that
/// finalizes the journal removes the log. One worker makes the write-op
/// count a function of the corpus, so a counting run finds the
/// finalize's two ops at the end of the run.
#[test]
fn killed_session_log_agrees_with_journal() {
    let corpus = small_corpus(60);
    let config = PipelineConfig {
        environment_reruns: false,
        workers: 1,
        ..PipelineConfig::default()
    };
    let counted = temp_journal("log_counted");
    let counting = dydroid::IoHarness::counting();
    let mut pipeline = Pipeline::new(config.clone());
    pipeline.set_io_harness(std::sync::Arc::clone(&counting));
    let _ = pipeline
        .run_resumable(&corpus, &counted)
        .expect("counted sweep");
    assert!(
        !counted.events_path().exists(),
        "a finished sweep left its event log"
    );
    counted.reset().expect("cleanup");

    let journal = temp_journal("log_killed");
    let mut pipeline = Pipeline::new(config.clone());
    pipeline.set_io_harness(dydroid::IoHarness::new(Some(counting.ops() - 2), None));
    let _ = pipeline
        .run_resumable(&corpus, &journal)
        .expect("killed sweep still returns");

    let events_text = std::fs::read_to_string(journal.events_path()).expect("event log");
    let mut app_spans: HashSet<u64> = HashSet::new();
    let mut checkpoints: Vec<(String, u64)> = Vec::new();
    let mut provenance_links: Vec<(String, u64)> = Vec::new();
    for (i, line) in events_text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
    {
        let v: serde_json::Value = serde_json::from_str(line).expect("event frame parses");
        assert_eq!(
            v.get("seq").and_then(|s| s.as_u64()),
            Some(i as u64),
            "log frames must be contiguously sequenced"
        );
        let body = v.get("body").expect("framed event has a body");
        let field = |name: &str| body.get(name).and_then(|f| f.as_str()).map(str::to_string);
        let span = || body.get("span").and_then(|s| s.as_u64()).expect("span ref");
        match field("type").as_deref() {
            Some("span") if field("name").as_deref() == Some("app") => {
                app_spans.insert(body.get("id").and_then(|i| i.as_u64()).expect("span id"));
            }
            Some("checkpoint") => checkpoints.push((field("app").expect("app"), span())),
            Some("provenance") => provenance_links.push((field("app").expect("app"), span())),
            _ => {}
        }
    }
    let journaled: Vec<String> = journal
        .load()
        .expect("journal")
        .into_iter()
        .map(|r| r.package)
        .collect();
    assert_eq!(journaled.len(), corpus.len());
    for (what, lines) in [
        ("checkpoints", &checkpoints),
        ("provenance links", &provenance_links),
    ] {
        let apps: Vec<String> = lines.iter().map(|(app, _)| app.clone()).collect();
        assert_eq!(apps, journaled, "{what} diverge from the journal");
        for (app, span) in lines {
            assert!(
                app_spans.contains(span),
                "{what}: {app} references unknown span {span}"
            );
        }
    }

    let _ = Pipeline::new(config)
        .run_resumable(&corpus, &journal)
        .expect("resumed sweep");
    let finalized: Vec<String> = journal
        .load()
        .expect("journal")
        .into_iter()
        .map(|r| r.package)
        .collect();
    let corpus_order: Vec<String> = corpus.iter().map(|a| a.package().to_string()).collect();
    assert_eq!(
        finalized, corpus_order,
        "finalized journal is corpus-ordered"
    );
    assert!(
        !journal.events_path().exists(),
        "the resume left the event log"
    );
    journal.reset().expect("cleanup");
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

    let path = temp_trace("stitch");
    let second = traced_pipeline(config, &path);
    let resumed = second
        .run_resumable(&corpus, &journal)
        .expect("resumed sweep");
    assert_eq!(resumed.records().len(), corpus.len());
    assert_eq!(journal.load().expect("journal").len(), corpus.len());

    // The resumed pipeline's trace contains the stitched first-session
    // spans plus its own, with globally unique ids.
    let events = trace_events(&second, &path);
    let resumed_ids: Vec<u64> = events.iter().map(|e| arg(e, "id")).collect();
    let unique: HashSet<&u64> = resumed_ids.iter().collect();
    assert_eq!(unique.len(), resumed_ids.len(), "span ids collide");
    let stitched: HashSet<u64> = first_ids.iter().copied().collect();
    assert!(
        first_ids.iter().all(|id| unique.contains(id)),
        "stitched timeline lost first-session spans"
    );
    assert!(
        resumed_ids.iter().any(|id| !stitched.contains(id)),
        "resume recorded no new spans"
    );

    journal.reset().expect("cleanup");
}

/// A trace opened on a plain (non-journaled) run's pipeline, after it
/// was built, streams the run's spans and none from before it opened:
/// the detector's training at construction is not in it.
#[test]
fn plain_run_telemetry_writes_a_loadable_trace() {
    let corpus = small_corpus(20);
    let path = temp_trace("plain");
    let pipeline = Pipeline::new(PipelineConfig {
        environment_reruns: false,
        ..PipelineConfig::default()
    });
    pipeline.telemetry().open_trace(&path).expect("open trace");
    let _ = pipeline.run(&corpus);
    let events = trace_events(&pipeline, &path);
    assert!(!events.is_empty(), "trace has no events");
    let is_train =
        |event: &serde_json::Value| event.get("name").and_then(|n| n.as_str()) == Some("train");
    assert!(
        !events.iter().any(is_train),
        "a span closed before the trace opened is in it"
    );
    assert_eq!(
        events.len() as u64 + 1,
        pipeline.telemetry().profile().span_count()
    );
}
