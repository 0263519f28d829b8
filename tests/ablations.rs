//! The four design-choice ablations of DESIGN.md §7, each pinned to the
//! exact counts it measures on a fixed corpus:
//!
//! - delete/rename suppression keeps staged ad payloads on disk (§III-B);
//! - object-level download tracking beats a path heuristic (Table I);
//! - the 90% ACFG match threshold trades recall for zero false positives;
//! - a small Monkey event budget already intercepts all reachable DCL,
//!   because most loading fires at launch (§V-C).
//!
//! A count that moves means a design choice changed its effect; update
//! the pin and EXPERIMENTS.md together.

use dydroid::{Pipeline, PipelineConfig};
use dydroid_analysis::decompiler::prepare_for_dynamic_analysis;
use dydroid_analysis::mail::CodeBinary;
use dydroid_analysis::MalwareDetector;
use dydroid_avm::{Device, DeviceConfig, Event, FileOp};
use dydroid_workload::{emit, generate, CorpusSpec, SyntheticApp};

fn corpus(scale: f64, seed: u64) -> Vec<SyntheticApp> {
    generate(&CorpusSpec { scale, seed })
}

fn pipeline(config: PipelineConfig) -> Pipeline {
    Pipeline::new(PipelineConfig {
        environment_reruns: false,
        ..config
    })
}

/// Installs and exercises `app` on a fresh device, returning the device
/// and the paths of the DEX files it loaded.
fn exercise(pipeline: &Pipeline, app: &SyntheticApp) -> Option<(Device, Vec<String>)> {
    let (decompiled, bytes, _) = prepare_for_dynamic_analysis(&app.apk).ok()?;
    let mut device = pipeline.prepare_device(app, DeviceConfig::default());
    let outcome = pipeline.exercise_and_analyze(app, &mut device, &bytes, &decompiled);
    let loaded = outcome.dex_events.iter().map(|e| e.path.clone()).collect();
    Some((device, loaded))
}

/// `(intercepted binaries, of those still on disk after the run)` over
/// the first 16 ad-SDK apps.
fn surviving_payloads(pipeline: &Pipeline, apps: &[SyntheticApp]) -> (usize, usize) {
    let (mut intercepted, mut on_disk) = (0, 0);
    for app in apps.iter().filter(|a| a.plan.google_ads).take(16) {
        let Some((device, _)) = exercise(pipeline, app) else {
            continue;
        };
        for binary in device.hooks.intercepted() {
            intercepted += 1;
            on_disk += usize::from(device.fs.exists(&binary.path));
        }
    }
    (intercepted, on_disk)
}

#[test]
fn suppression_keeps_staged_ad_payloads_on_disk() {
    let apps = corpus(0.004, 21);
    let with = pipeline(PipelineConfig {
        suppress_file_ops: true,
        ..Default::default()
    });
    let without = pipeline(PipelineConfig {
        suppress_file_ops: false,
        ..Default::default()
    });
    assert_eq!(surviving_payloads(&with, &apps), (20, 20));
    assert_eq!(surviving_payloads(&without, &apps), (20, 4));
}

/// The path heuristic: any file written after a successful network
/// fetch counts as remote.
fn heuristic_remote_paths(device: &Device) -> Vec<String> {
    let mut fetched = false;
    let mut remote = Vec::new();
    for event in device.log.events() {
        match event {
            Event::NetFetch { bytes: Some(_), .. } => fetched = true,
            Event::File {
                op: FileOp::Write,
                path,
                ..
            } if fetched => remote.push(path.clone()),
            _ => {}
        }
    }
    remote
}

#[test]
fn flow_graph_tracks_downloads_where_the_path_heuristic_fails() {
    // Remote fetchers mixed with local ad apps whose unrelated
    // ad-impression traffic fools the heuristic.
    let apps = corpus(0.004, 33);
    let pipeline = pipeline(PipelineConfig::default());
    let (mut apps_loading, mut flow_correct, mut heuristic_correct) = (0, 0, 0);
    for app in apps
        .iter()
        .filter(|a| a.plan.remote_fetch || a.plan.google_ads)
        .take(24)
    {
        let Some((device, loaded)) = exercise(&pipeline, app) else {
            continue;
        };
        if loaded.is_empty() {
            continue;
        }
        apps_loading += 1;
        let truly_remote = app.plan.remote_fetch;
        let flow_says = loaded.iter().any(|p| device.hooks.flow.is_remote(p));
        let heuristic = heuristic_remote_paths(&device);
        let heuristic_says = loaded.iter().any(|p| heuristic.contains(p));
        flow_correct += usize::from(flow_says == truly_remote);
        heuristic_correct += usize::from(heuristic_says == truly_remote);
    }
    assert_eq!((apps_loading, flow_correct, heuristic_correct), (24, 24, 1));
}

/// Three training samples for each of three families.
fn trained_detector(threshold: f64) -> MalwareDetector {
    let mut d = MalwareDetector::with_threshold(threshold);
    let swiss: Vec<_> = (0..3)
        .map(|v| CodeBinary::Dex(emit::swiss_payload(90_000 + v).0))
        .collect();
    d.train("swiss_code_monkeys", &swiss);
    let airpush: Vec<_> = (0..3)
        .map(|v| CodeBinary::Dex(emit::airpush_payload(90_000 + v).0))
        .collect();
    d.train("adware_airpush_minimob", &airpush);
    let chathook: Vec<_> = (0..3)
        .map(|v| CodeBinary::Native(emit::chathook_payload("libref.so", 90_000 + v)))
        .collect();
    d.train("chathook_ptrace", &chathook);
    d
}

/// A Swiss variant with its dropper class stripped, so only about half
/// of the training sample's ACFG blocks match: it separates the
/// threshold rungs.
fn degraded_swiss(v: usize) -> CodeBinary {
    let (mut dex, entry) = emit::swiss_payload(v);
    dex.classes_mut().retain(|c| c.name != entry);
    CodeBinary::Dex(dex)
}

/// 56 samples labelled malicious or not: 8 variants each of four
/// malware shapes and three benign payloads.
fn labelled_samples() -> Vec<(CodeBinary, bool)> {
    let mut out = Vec::new();
    for v in 0..8 {
        out.push((CodeBinary::Dex(emit::swiss_payload(v).0), true));
        out.push((degraded_swiss(v), true));
        out.push((CodeBinary::Dex(emit::airpush_payload(v).0), true));
        out.push((
            CodeBinary::Native(emit::chathook_payload("libc.so", v)),
            true,
        ));
        out.push((
            CodeBinary::Dex(emit::ad_payload("com.google.ads.dynamic.AdContent")),
            false,
        ));
        out.push((
            CodeBinary::Dex(emit::privacy_payload("com.sdk.X", &[v % 18, (v + 3) % 18])),
            false,
        ));
        out.push((CodeBinary::Native(emit::trivial_native("libeng.so")), false));
    }
    out
}

#[test]
fn acfg_threshold_trades_recall_for_zero_false_positives() {
    let samples = labelled_samples();
    assert_eq!(samples.len(), 56);
    let confusion = |threshold: f64| {
        let detector = trained_detector(threshold);
        let (mut tp, mut fp, mut fn_) = (0, 0, 0);
        for (code, malicious) in &samples {
            match (detector.detect(code).is_some(), malicious) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fn_ += 1,
                (false, false) => {}
            }
        }
        (tp, fp, fn_)
    };
    assert_eq!(confusion(0.5), (32, 16, 0));
    assert_eq!(confusion(0.9), (24, 0, 8));
    assert_eq!(confusion(0.95), (24, 0, 8));
}

#[test]
fn one_monkey_event_already_intercepts_all_reachable_dcl() {
    let apps = corpus(0.003, 55);
    for budget in [1, 5, 20, 50] {
        let pipeline = pipeline(PipelineConfig {
            monkey_events: budget,
            ..Default::default()
        });
        let (mut filtered, mut intercepted) = (0, 0);
        for app in apps.iter().filter(|a| a.plan.has_dcl_code()) {
            let record = pipeline.analyze_app(app);
            if record.filter.any() {
                filtered += 1;
                intercepted += usize::from(record.dex_intercepted() || record.native_intercepted());
            }
        }
        assert_eq!((intercepted, filtered), (78, 140), "budget {budget}");
    }
}
