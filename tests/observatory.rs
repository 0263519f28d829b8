//! Integration tests for the sweep observatory (DESIGN.md §5j): the
//! span-derived self-time profile must be byte-identical whether it is
//! aggregated live from in-memory spans or replayed offline from the
//! persisted event streams — including after a `kill -9` mid-sweep and
//! across a resume — metrics snapshot lines must survive crashes and
//! torn tails in the live event stream, a resumed sweep must gauge the
//! whole corpus, and the straggler watchdog must flag exactly the
//! planted stragglers at its fixed threshold.

use std::collections::HashSet;
use std::path::PathBuf;

use dydroid::config::{STRAGGLER_TOP, WATCHDOG_K};
use dydroid::durable::{encode_frames, scan_stream, FramedWriter, SinkOptions, StreamKind};
use dydroid::obs::{MetricsSnapshot, SpanRecord};
use dydroid::profile::WATCHDOG_WARMUP;
use dydroid::{
    DynamicStatus, IoHarness, Journal, Pipeline, PipelineConfig, SpanProfile, Telemetry,
};
use dydroid_workload::faults::{self, FaultKind};
use dydroid_workload::{generate, CorpusSpec, SyntheticApp};
use proptest::prelude::*;
use serde::Deserialize as _;

/// Corpus size and write ops at which the crash tests kill their two
/// sessions: late enough that each session's window holds a metrics
/// snapshot line at the fixed snapshot interval.
const CRASH_CORPUS: usize = 120;
const FIRST_CRASH_OP: u64 = 300;
const SECOND_CRASH_OP: u64 = 500;

fn small_corpus(n: usize) -> Vec<SyntheticApp> {
    let mut corpus = generate(&CorpusSpec {
        scale: 0.004,
        seed: 99,
    });
    corpus.truncate(n);
    corpus
}

fn temp_journal(tag: &str) -> Journal {
    let path: PathBuf = std::env::temp_dir().join(format!(
        "dydroid_observatory_{tag}_{}.jsonl",
        std::process::id()
    ));
    let journal = Journal::new(path);
    journal.reset().expect("reset journal");
    journal
}

/// Live aggregation over a plain (non-journaled) run's event sink is
/// byte-identical to the offline replay of that sink: same folded
/// lines, same order, same self-times.
#[test]
fn offline_replay_matches_live_aggregation() {
    let corpus = small_corpus(40);
    let sink = std::env::temp_dir().join(format!(
        "dydroid_observatory_live_{}.events.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&sink);

    let pipeline = Pipeline::new(PipelineConfig {
        environment_reruns: false,
        ..PipelineConfig::default()
    });
    // Spans recorded before the sink attaches (detector training runs at
    // construction) never reach the stream; the differential covers
    // everything recorded while the sink was live.
    let pre_sink: HashSet<u64> = pipeline.telemetry().spans().iter().map(|s| s.id).collect();
    pipeline
        .telemetry()
        .set_event_sink(&sink)
        .expect("event sink");
    let _ = pipeline.run(&corpus);

    let sunk: Vec<SpanRecord> = pipeline
        .telemetry()
        .spans()
        .into_iter()
        .filter(|s| !pre_sink.contains(&s.id))
        .collect();
    let live = SpanProfile::from_spans(&sunk);
    assert!(!live.is_empty(), "sweep recorded no spans");
    let offline = SpanProfile::from_event_stream(&sink).expect("replay");
    assert_eq!(
        live.folded(),
        offline.folded(),
        "offline replay diverged from live aggregation"
    );
    // Self-time never exceeds total time, and the root sweep span is
    // present in the profile.
    for (path, entry) in live.entries() {
        assert!(entry.self_us <= entry.total_us, "self > total at {path:?}");
    }
    let _ = std::fs::remove_file(&sink);
}

/// A sweep killed mid-run (virtual-clock I/O crash) leaves a torn live
/// event stream; replaying it offline reconstructs exactly the profile
/// a fresh telemetry instance stitches from the same stream — the two
/// independent parsers of the span wire format agree byte-for-byte.
#[test]
fn killed_sweep_replay_matches_stitched_spans() {
    let corpus = small_corpus(60);
    let journal = temp_journal("killed");

    let config = PipelineConfig {
        environment_reruns: false,
        // Single-writer layout so the base event stream holds the spans.
        workers: 1,
        ..PipelineConfig::default()
    };
    let mut first = Pipeline::new(config.clone());
    first.set_io_harness(IoHarness::new(Some(150), None));
    let _ = first
        .run_resumable(&corpus, &journal)
        .expect("interrupted sweep still returns");

    let stitcher = Telemetry::new(true);
    let stitched = stitcher
        .stitch_from(&journal.events_path())
        .expect("stitch");
    assert!(stitched > 0, "crash left no spans to stitch");
    let live = SpanProfile::from_spans(&stitcher.spans());
    let offline = SpanProfile::replay_journal(&journal).expect("replay");
    assert!(!offline.is_empty());
    assert_eq!(
        live.folded(),
        offline.folded(),
        "replay diverged from stitched aggregation after a crash"
    );

    // Resuming to completion writes the profile artifact beside the
    // journal for `dcltrace profile`, and it is byte-identical to
    // aggregating the resumed pipeline's full (stitched + fresh)
    // timeline, as read through its telemetry once the run returns.
    let second = Pipeline::new(config);
    let resumed = second
        .run_resumable(&corpus, &journal)
        .expect("resumed sweep");
    assert_eq!(resumed.records().len(), corpus.len());
    let artifact = std::fs::read_to_string(journal.profile_path()).expect("journal-side artifact");
    let full = SpanProfile::from_spans(&second.telemetry().spans());
    assert_eq!(
        artifact,
        full.folded(),
        "profile artifact diverged from the resumed live timeline"
    );
    // Folded lines parse: "path;path;... <self_us>".
    for line in artifact.lines() {
        let (stack, self_us) = line.rsplit_once(' ').expect("folded line shape");
        assert!(!stack.is_empty());
        self_us.parse::<u64>().expect("self-time is integral µs");
    }

    journal.reset().expect("cleanup");
}

/// A one-worker journaled sweep over `corpus` whose I/O dies at write op
/// `crash_at`, leaving the streams as a `kill -9` would. Returns the
/// pipeline, for its in-memory telemetry.
fn crashed_session(corpus: &[SyntheticApp], journal: &Journal, crash_at: u64) -> Pipeline {
    let mut pipeline = Pipeline::new(PipelineConfig {
        environment_reruns: false,
        workers: 1,
        ..PipelineConfig::default()
    });
    pipeline.set_io_harness(IoHarness::new(Some(crash_at), None));
    let _ = pipeline
        .run_resumable(corpus, journal)
        .expect("interrupted sweep still returns");
    pipeline
}

/// The `{"type":"metrics"}` lines in the intact prefix of a journal's
/// base event stream, parsed.
fn metrics_lines(journal: &Journal) -> Vec<serde::Value> {
    let bytes = std::fs::read(journal.events_path()).expect("event stream exists");
    scan_stream(&bytes)
        .bodies
        .iter()
        .map(|body| serde_json::from_str::<serde::Value>(body).expect("event body parses"))
        .filter(|value| value.get("type").and_then(|t| t.as_str()) == Some("metrics"))
        .collect()
}

/// Metrics snapshot lines ride the live event stream through crashes:
/// a resumed session truncates the torn tail and appends after the
/// previous session's snapshots; every snapshot deserializes with
/// per-session monotone virtual clocks; finalize drops them all.
#[test]
fn metrics_stream_survives_crash_and_resume() {
    let corpus = small_corpus(CRASH_CORPUS);
    let journal = temp_journal("metrics");

    let _ = crashed_session(&corpus, &journal, FIRST_CRASH_OP);
    let mid = metrics_lines(&journal);
    assert!(!mid.is_empty(), "no snapshots before the crash");

    // A second crash keeps the stream live; a resumed writer that failed
    // to heal the first tear would leave its snapshots unreachable.
    let _ = crashed_session(&corpus, &journal, SECOND_CRASH_OP);
    let lines = metrics_lines(&journal);
    assert!(
        lines.len() > mid.len(),
        "resumed session appended no readable snapshot ({} before, {} after)",
        mid.len(),
        lines.len()
    );

    // The virtual clock is per session: monotone within a session,
    // resetting when the resumed pipeline starts its own clock. One
    // resume ⇒ at most one reset in the whole stream.
    let mut last_virtual = 0u64;
    let mut resets = 0usize;
    for value in &lines {
        let virtual_us = value
            .get("virtual_us")
            .and_then(|v| v.as_u64())
            .expect("virtual clock stamp");
        if virtual_us < last_virtual {
            resets += 1;
        }
        last_virtual = virtual_us;
        let snap = MetricsSnapshot::from_json(value.get("snapshot").expect("snapshot payload"))
            .expect("snapshot deserializes");
        assert!(
            snap.counters.iter().any(|(n, _)| n == "monkey.virtual_us"),
            "snapshot missing the virtual clock counter"
        );
    }
    assert!(
        resets <= 1,
        "virtual clock reset {resets} times across one resume"
    );

    // Finishing the sweep finalizes the event stream to its canonical
    // checkpoint/provenance lines: no snapshot survives.
    let done = Pipeline::new(PipelineConfig {
        environment_reruns: false,
        workers: 1,
        ..PipelineConfig::default()
    })
    .run_resumable(&corpus, &journal)
    .expect("resumed sweep");
    assert_eq!(done.records().len(), corpus.len());
    assert!(metrics_lines(&journal).is_empty());
    journal.reset().expect("cleanup");
}

/// A resumed sweep gauges the whole corpus, not just the apps left to
/// analyse: `dcltrace top` counts every app any session checkpointed
/// against `sweep.total_apps`, so a pending-only total read over 100%
/// and called the sweep complete before it was.
#[test]
fn resumed_sweep_gauges_the_whole_corpus() {
    let corpus = small_corpus(CRASH_CORPUS);
    let journal = temp_journal("total");

    let _ = crashed_session(&corpus, &journal, FIRST_CRASH_OP);
    let recovered = journal.load().expect("load journal").len();
    assert!(recovered > 0, "first session journaled nothing");
    let resumed = crashed_session(&corpus, &journal, SECOND_CRASH_OP);
    assert_eq!(
        resumed.telemetry().gauge_value("sweep.total_apps"),
        corpus.len() as u64
    );
    let last = metrics_lines(&journal)
        .pop()
        .expect("resumed session wrote a snapshot");
    let snap = MetricsSnapshot::from_json(last.get("snapshot").expect("snapshot payload"))
        .expect("snapshot deserializes");
    let total = snap
        .gauges
        .iter()
        .find(|(name, _)| name == "sweep.total_apps")
        .map(|(_, v)| *v);
    assert_eq!(total, Some(corpus.len() as u64));
    journal.reset().expect("cleanup");
}

/// The watchdog at its fixed threshold flags exactly the planted
/// spin-loop apps, surfaces them in `SweepStats` and `render_perf`, and
/// caps the appendix at [`STRAGGLER_TOP`]. One worker makes completion
/// order corpus order, so all six are judged after the warm-up.
#[test]
fn watchdog_flags_and_renders_stragglers() {
    let mut corpus = small_corpus(60);
    let first_planted = corpus.len() - 6;
    let planted: Vec<String> = corpus[first_planted..]
        .iter_mut()
        .map(|app| {
            faults::apply(app, FaultKind::SpinLoop);
            app.package().to_string()
        })
        .collect();
    let pipeline = Pipeline::new(PipelineConfig {
        environment_reruns: false,
        workers: 1,
        ..PipelineConfig::default()
    });
    let report = pipeline.run(&corpus);
    // Exercised apps charge virtual time, so each is a watchdog
    // observation: enough of them precede the first planted app.
    let exercised_before = report.records()[..first_planted]
        .iter()
        .filter(|r| r.dynamic.as_ref().map(|d| &d.status) == Some(&DynamicStatus::Exercised))
        .count();
    assert!(exercised_before >= WATCHDOG_WARMUP, "{exercised_before}");

    let stats = report.stats();
    assert_eq!(stats.straggler_warnings, 6);
    assert_eq!(stats.stragglers.len(), STRAGGLER_TOP);
    for s in &stats.stragglers {
        assert!(planted.contains(&s.package), "{} flagged", s.package);
        assert!(
            s.virtual_us as f64 > WATCHDOG_K * s.median_virtual_us as f64,
            "{} flagged below threshold ({} vs median {})",
            s.package,
            s.virtual_us,
            s.median_virtual_us
        );
    }
    let perf = report.render_perf();
    assert!(perf.contains("straggler(s) flagged"), "{perf}");
    assert!(perf.contains("slowest stragglers"), "{perf}");

    // The flag count also lands in the metrics registry, where the
    // progress line and `dcltrace top` read it.
    assert_eq!(
        pipeline
            .telemetry()
            .snapshot()
            .counter("watchdog.stragglers"),
        stats.straggler_warnings
    );
}

/// The default watchdog threshold stays quiet on the same corpus: 4× the
/// running median is far outside the deterministic virtual-time spread.
#[test]
fn default_watchdog_threshold_is_quiet() {
    let corpus = small_corpus(60);
    let pipeline = Pipeline::new(PipelineConfig {
        environment_reruns: false,
        ..PipelineConfig::default()
    });
    let report = pipeline.run(&corpus);
    assert_eq!(report.stats().straggler_warnings, 0);
    assert!(report.stats().stragglers.is_empty());
}

/// Synthetic live event bodies: per clock value a checkpoint line then
/// a metrics snapshot line (a miniature of the real snapshot payload).
fn event_bodies(clocks: &[u32]) -> Vec<String> {
    clocks
        .iter()
        .flat_map(|c| {
            [
                format!("{{\"type\":\"checkpoint\",\"app\":\"app{c}\",\"span\":{c},\"t_us\":{c}}}"),
                format!(
                    "{{\"type\":\"metrics\",\"virtual_us\":{c},\"snapshot\":{{\"counters\":[[\"monkey.virtual_us\",{c}]],\"gauges\":[],\"histograms\":[]}}}}"
                ),
            ]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Truncating an event stream of checkpoint and metrics lines at any
    /// byte offset recovers exactly the intact prefix — every recovered
    /// metrics line still parses as a snapshot — and a reopened event
    /// writer truncates the tear, continues the sequence, and leaves a
    /// clean stream.
    #[test]
    fn torn_metrics_stream_recovers_and_heals(
        clocks in prop::collection::vec(any::<u32>(), 1..8),
        at in any::<prop::sample::Index>(),
    ) {
        let bodies = event_bodies(&clocks);
        let encoded = encode_frames(0, &bodies);
        let cut = at.index(encoded.len() + 1);
        let scan = scan_stream(&encoded.as_bytes()[..cut]);
        prop_assert!(scan.bodies.len() <= bodies.len());
        prop_assert_eq!(&scan.bodies[..], &bodies[..scan.bodies.len()]);
        for body in &scan.bodies {
            let value: serde::Value =
                serde_json::from_str(body).expect("recovered event parses");
            if value.get("type").and_then(|t| t.as_str()) == Some("metrics") {
                prop_assert!(MetricsSnapshot::from_json(
                    value.get("snapshot").expect("snapshot payload")
                )
                .is_ok());
            }
        }

        // Healing: reopening the torn file as an event sink truncates
        // the tear and the next snapshot lands at the torn seq slot.
        let path = std::env::temp_dir().join(format!(
            "dydroid_observatory_torn_{}_{:?}.events.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&path, &encoded.as_bytes()[..cut]).expect("write torn stream");
        let mut writer = FramedWriter::open(&path, SinkOptions::direct(StreamKind::Events))
            .expect("reopen torn stream");
        prop_assert_eq!(writer.seq(), scan.bodies.len() as u64);
        writer
            .append_body(&event_bodies(&[7])[1])
            .expect("append after heal");
        writer.sync_now().expect("sync");
        drop(writer);
        let healed_bytes = std::fs::read(&path).expect("healed exists");
        let healed = scan_stream(&healed_bytes);
        prop_assert!(healed.is_clean(), "healed stream defect {:?}", healed.defect);
        prop_assert_eq!(healed.bodies.len(), scan.bodies.len() + 1);
        let _ = std::fs::remove_file(&path);
    }
}
