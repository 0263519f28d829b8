//! Provenance integration: the download tracker must separate remotely
//! fetched code from locally packed code across real app executions,
//! including the paper's Google-Bouncer evasion experiment — plus the
//! flight-recorder ledger: chain reconstruction for every remote load,
//! environment-divergence diffing against Table VIII, DOT export
//! well-formedness, and byte-identical ledgers across same-seed and
//! resumed sweeps.

use std::path::PathBuf;

use dydroid::provenance::check_against_journal;
use dydroid::{AppProvenance, Journal, Pipeline, PipelineConfig, ProvenanceLedger};
use dydroid_workload::{generate, CorpusSpec};

#[test]
fn corpus_remote_fetchers_and_only_them_are_flagged() {
    let corpus = generate(&CorpusSpec {
        scale: 0.01,
        seed: 31,
    });
    let pipeline = Pipeline::new(PipelineConfig {
        environment_reruns: false,
        ..Default::default()
    });
    let report = pipeline.run(&corpus);
    let t5 = report.table5();

    let truth: std::collections::HashSet<&str> = corpus
        .iter()
        .filter(|a| a.plan.remote_fetch)
        .map(|a| a.plan.package.as_str())
        .collect();
    let detected: std::collections::HashSet<&str> =
        t5.apps.iter().map(|(p, _)| p.as_str()).collect();

    assert_eq!(detected, truth, "remote-fetch detection must be exact");
    for (_, urls) in &t5.apps {
        assert!(urls.iter().all(|u| u.contains("mobads.baidu.com")));
    }
}

#[test]
fn locally_packed_dcl_is_never_flagged_remote() {
    let corpus = generate(&CorpusSpec {
        scale: 0.01,
        seed: 31,
    });
    let pipeline = Pipeline::new(PipelineConfig {
        environment_reruns: false,
        ..Default::default()
    });
    // Pick ad-SDK apps: they stage payloads from local assets.
    let mut checked = 0;
    for app in corpus.iter().filter(|a| a.plan.google_ads).take(5) {
        let record = pipeline.analyze_app(app);
        if let Some(d) = record.dynamic {
            if !d.dex_events.is_empty() {
                assert!(
                    d.remote_loads.is_empty(),
                    "{} stages from assets, not the network",
                    app.plan.package
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "no ad apps exercised");
}

/// The paper's Bouncer experiment: App_L passes review while the malware
/// server is disabled, then fetches and runs App_M after release.
#[test]
fn bouncer_evasion_scenario() {
    use dydroid_avm::{Device, DeviceConfig};
    use dydroid_monkey::{Monkey, MonkeyConfig};

    let corpus = generate(&CorpusSpec {
        scale: 0.01,
        seed: 31,
    });
    let app = corpus
        .iter()
        .find(|a| a.plan.remote_fetch)
        .expect("remote-fetch app in corpus");

    // Review phase: the server withholds the payload. The app still gets
    // published (it merely fails its fetch; no remote code observed).
    let mut device = Device::new(DeviceConfig::default());
    for (domain, path, bytes) in &app.remote_resources {
        device.net.host(domain, path, bytes.clone());
        device.net.set_enabled(domain, false);
    }
    device.install(&app.apk).unwrap();
    let mut monkey = Monkey::new(MonkeyConfig::default());
    let _ = monkey.exercise(&mut device, app.package()).unwrap();
    assert_eq!(
        device.log.dcl_events().count(),
        0,
        "no dynamic load observable during review"
    );

    // After release: the server enables delivery and the code runs.
    let mut device = Device::new(DeviceConfig::default());
    for (domain, path, bytes) in &app.remote_resources {
        device.net.host(domain, path, bytes.clone());
    }
    device.install(&app.apk).unwrap();
    let mut monkey = Monkey::new(MonkeyConfig::default());
    let outcome = monkey.exercise(&mut device, app.package()).unwrap();
    assert!(outcome.is_clean());
    let events: Vec<_> = device.log.dcl_events().collect();
    assert_eq!(events.len(), 1);
    assert!(device.hooks.flow.is_remote(&events[0].path));
}

/// File → File edges: a rename after download must keep remote provenance.
#[test]
fn rename_preserves_remote_provenance_in_app() {
    use dydroid_avm::{Device, DeviceConfig};
    use dydroid_dex::builder::DexBuilder;
    use dydroid_dex::{AccessFlags, Apk, Component, Manifest, MethodRef};

    let pkg = "com.test.renamer";
    let tmp = format!("/data/data/{pkg}/cache/tmp.bin");
    let final_path = format!("/data/data/{pkg}/files/real.dex");

    let mut manifest = Manifest::new(pkg);
    manifest
        .components
        .push(Component::main_activity(format!("{pkg}.Main")));
    let mut b = DexBuilder::new();
    let c = b.class(format!("{pkg}.Main"), "android.app.Activity");
    let m = c.method("onCreate", "()V", AccessFlags::PUBLIC);
    m.registers(12);
    dydroid_workload::emit::download_to_file(m, "http://cdn.test.com/p.bin", &tmp);
    // Rename the staging file to its final location.
    m.new_instance(7, "java.io.File");
    m.const_str(8, &tmp);
    m.invoke_direct(
        MethodRef::new("java.io.File", "<init>", "(Ljava/lang/String;)V"),
        vec![7, 8],
    );
    m.const_str(9, &final_path);
    m.invoke_virtual(
        MethodRef::new("java.io.File", "renameTo", "(Ljava/lang/String;)Z"),
        vec![7, 9],
    );
    dydroid_workload::emit::dex_load_and_run(
        m,
        &final_path,
        &format!("/data/data/{pkg}/odex"),
        "com.p.P",
        "run",
    );
    m.ret_void();

    let payload = dydroid_workload::emit::trivial_payload("com.p.P");
    let apk = Apk::build(manifest, b.build());

    let mut device = Device::new(DeviceConfig::default());
    device
        .net
        .host("cdn.test.com", "/p.bin", payload.to_bytes());
    device.install(&apk.to_bytes()).unwrap();
    let proc = device.launch(pkg).unwrap();
    assert!(proc.alive, "log: {:?}", device.log.events());
    assert!(
        device.hooks.flow.is_remote(&final_path),
        "provenance must survive the rename"
    );
    assert_eq!(
        device.hooks.flow.url_sources(&final_path),
        vec!["http://cdn.test.com/p.bin".to_string()]
    );
}

// ---------------------------------------------------------------------------
// Flight-recorder ledger
// ---------------------------------------------------------------------------

fn temp_journal(tag: &str) -> Journal {
    Journal::new(
        std::env::temp_dir().join(format!("dydroid_prov_{tag}_{}.jsonl", std::process::id())),
    )
}

fn journaled_sweep(tag: &str, env_reruns: bool) -> (Journal, dydroid::MeasurementReport) {
    let corpus = generate(&CorpusSpec {
        scale: 0.02,
        ..Default::default()
    });
    let journal = temp_journal(tag);
    journal.reset().expect("reset journal");
    let pipeline = Pipeline::new(PipelineConfig {
        environment_reruns: env_reruns,
        ..Default::default()
    });
    let report = pipeline
        .run_resumable(&corpus, &journal)
        .expect("journaled sweep");
    (journal, report)
}

fn load_ledger(journal: &Journal) -> Vec<AppProvenance> {
    ProvenanceLedger::new(journal.provenance_path())
        .load()
        .expect("ledger loads")
}

/// Acceptance: for every exercised app with a remote load, the ledger
/// reconstructs the complete URL → ... → File chain — and agrees with
/// the journal on the app set.
#[test]
fn ledger_reconstructs_every_remote_chain() {
    let (journal, report) = journaled_sweep("chains", false);
    let ledger = load_ledger(&journal);
    let journaled = journal.load().expect("journal loads");
    check_against_journal(&ledger, &journaled).expect("ledger and journal app sets agree");

    let by_pkg: std::collections::HashMap<&str, &AppProvenance> =
        ledger.iter().map(|p| (p.package.as_str(), p)).collect();
    let mut remote_chains = 0;
    for record in report.records() {
        let Some(d) = &record.dynamic else { continue };
        let prov = by_pkg[record.package.as_str()];
        for (path, urls) in &d.remote_loads {
            assert!(
                prov.is_remote_chain(path),
                "{}: chain for {path} must start at a URL",
                record.package
            );
            assert!(
                !prov.loads_for(path).is_empty(),
                "{}: remote file {path} has no load node",
                record.package
            );
            let chain = prov.render_chain(path).expect("chain renders");
            assert!(
                urls.iter().any(|u| chain.starts_with(&format!("URL {u}"))),
                "{}: chain must begin at one of the download URLs {urls:?}, got: {chain}",
                record.package
            );
            assert!(chain.contains(&format!("File {path}")));
            remote_chains += 1;
        }
    }
    assert!(remote_chains > 0, "corpus produced no remote loads");
    journal.reset().expect("cleanup");
}

/// `dcltrace diff` semantics: the divergence set is exactly the loads
/// whose presence differs across the four configurations, and per-config
/// membership reproduces the Table VIII counts.
#[test]
fn env_divergence_agrees_with_table_viii() {
    let (journal, report) = journaled_sweep("envdiff", true);
    let ledger = load_ledger(&journal);

    let counts = report.env_counts();
    let loads = report.env_loads();
    assert_eq!(
        loads.len(),
        counts.total_files,
        "one EnvLoad per malicious file"
    );
    let member = |name: &str| {
        loads
            .iter()
            .filter(|l| l.configs.iter().any(|c| c == name))
            .count()
    };
    assert_eq!(member("System time"), counts.time_before_release);
    assert_eq!(member("Airplane mode/WiFi ON"), counts.airplane_wifi_on);
    assert_eq!(member("Airplane mode/WiFi OFF"), counts.airplane_wifi_off);
    assert_eq!(member("Location OFF"), counts.location_off);

    // The ledger's per-app diff is exactly the report's divergent subset.
    let from_report: Vec<(&str, &str)> = loads
        .iter()
        .filter(|l| l.configs.len() < 4)
        .map(|l| (l.package.as_str(), l.path.as_str()))
        .collect();
    let mut from_ledger = Vec::new();
    for prov in &ledger {
        for d in prov.env_diff() {
            assert_eq!(
                d.loaded_under.len() + d.missing_under.len(),
                4,
                "diff partitions the four configs"
            );
            assert!(!d.missing_under.is_empty());
            from_ledger.push((prov.package.clone(), d.path.clone()));
        }
    }
    let from_ledger: Vec<(&str, &str)> = from_ledger
        .iter()
        .map(|(p, f)| (p.as_str(), f.as_str()))
        .collect();
    assert_eq!(from_ledger, from_report, "ledger diff diverges from report");
    assert!(
        !from_report.is_empty(),
        "fixed-seed corpus must contain environment-divergent loads"
    );
    journal.reset().expect("cleanup");
}

/// Logic bombs are caught: the corpus plants trigger-guarded malware, and
/// the divergence diff surfaces it — a time bomb's payload is missing
/// exactly under the "System time" (pre-release clock) configuration.
#[test]
fn logic_bomb_divergence_is_caught_by_diff() {
    let corpus = generate(&CorpusSpec {
        scale: 0.02,
        ..Default::default()
    });
    let triggered: std::collections::HashMap<&str, bool> = corpus
        .iter()
        .filter_map(|a| {
            let (_, triggers) = a.plan.malware.as_ref()?;
            Some((
                a.plan.package.as_str(),
                triggers.iter().any(|t| {
                    t.time_bomb || t.airplane_check || t.needs_network || t.location_check
                }),
            ))
        })
        .collect();
    assert!(
        triggered.values().any(|&t| t),
        "corpus must plant trigger-guarded malware"
    );

    let (journal, _report) = journaled_sweep("bomb", true);
    let ledger = load_ledger(&journal);
    let mut bomb_diffs = 0;
    for prov in &ledger {
        for d in prov.env_diff() {
            // Divergence only ever comes from planted triggers or a
            // network-dependent fetch, never from analysis noise.
            assert!(
                triggered
                    .get(prov.package.as_str())
                    .copied()
                    .unwrap_or(false)
                    || corpus
                        .iter()
                        .any(|a| a.plan.package == prov.package && a.plan.remote_fetch),
                "{}: divergent load {} has no planted trigger",
                prov.package,
                d.path
            );
            if triggered
                .get(prov.package.as_str())
                .copied()
                .unwrap_or(false)
            {
                bomb_diffs += 1;
            }
        }
    }
    assert!(bomb_diffs > 0, "no logic-bomb divergence surfaced");
    journal.reset().expect("cleanup");
}

/// The corpus DOT export is well-formed: balanced braces, and every edge
/// references a declared node id.
#[test]
fn dot_export_parses_back() {
    let (journal, _report) = journaled_sweep("dot", false);
    let ledger = load_ledger(&journal);
    let dot = dydroid::provenance::corpus_dot(&ledger);

    assert!(dot.starts_with("digraph "));
    let opens = dot.matches('{').count();
    let closes = dot.matches('}').count();
    assert_eq!(opens, closes, "unbalanced braces");

    let mut declared: std::collections::HashSet<&str> = Default::default();
    let mut edges = 0usize;
    for line in dot.lines().map(str::trim) {
        if let Some((lhs, _)) = line.split_once(" -> ") {
            let to = line
                .split(" -> ")
                .nth(1)
                .and_then(|r| r.split_whitespace().next())
                .expect("edge target");
            assert!(declared.contains(lhs), "edge from undeclared node {lhs}");
            assert!(declared.contains(to), "edge to undeclared node {to}");
            edges += 1;
        } else if line.contains("[label=") && !line.starts_with("label") {
            if let Some(id) = line.split_whitespace().next() {
                declared.insert(id);
            }
        }
    }
    assert!(!declared.is_empty(), "no nodes declared");
    assert!(edges > 0, "no edges declared");
    journal.reset().expect("cleanup");
}

/// Determinism: two same-seed sweeps produce byte-identical ledgers, and
/// a killed-and-resumed sweep (torn journal *and* torn ledger) converges
/// to the very same bytes.
#[test]
fn ledger_is_byte_identical_across_reruns_and_resume() {
    let corpus = generate(&CorpusSpec {
        scale: 0.01,
        seed: 31,
    });
    let config = PipelineConfig {
        environment_reruns: false,
        ..Default::default()
    };
    let run = |journal: &Journal| {
        journal.reset().expect("reset");
        Pipeline::new(config.clone())
            .run_resumable(&corpus, journal)
            .expect("sweep");
    };
    let bytes_of = |journal: &Journal| -> Vec<u8> {
        std::fs::read(journal.provenance_path()).expect("ledger bytes")
    };

    let a = temp_journal("bytes_a");
    let b = temp_journal("bytes_b");
    run(&a);
    run(&b);
    let reference = bytes_of(&a);
    assert!(!reference.is_empty());
    assert_eq!(reference, bytes_of(&b), "same-seed ledgers differ");

    // Kill simulation on B: drop the journal tail and tear the ledger
    // mid-line, then resume with a fresh pipeline.
    let truncate = |path: PathBuf, keep: usize, garbage: &str| {
        let text = std::fs::read_to_string(&path).expect("read");
        let mut kept: String = text.lines().take(keep).map(|l| format!("{l}\n")).collect();
        kept.push_str(garbage);
        std::fs::write(&path, kept).expect("truncate");
    };
    truncate(b.path().to_path_buf(), 20, "");
    truncate(b.provenance_path(), 10, "{\"package\":\"com.torn");
    Pipeline::new(config.clone())
        .run_resumable(&corpus, &b)
        .expect("resumed sweep");
    assert_eq!(
        reference,
        bytes_of(&b),
        "resumed ledger diverges from the uninterrupted run"
    );
    a.reset().expect("cleanup");
    b.reset().expect("cleanup");
}

/// Provenance graphs feed only the ledger: every table comes from the
/// app records, so the report of a plain run (no ledger, no graph built)
/// is byte-identical to a journaled run's, whose ledger holds one graph
/// per app.
#[test]
fn report_is_identical_with_and_without_a_ledger() {
    let corpus = generate(&CorpusSpec {
        scale: 0.01,
        ..Default::default()
    });
    let pipeline = || Pipeline::new(PipelineConfig::default());
    let json = |report| serde_json::to_string(&report).expect("serialise report");
    let plain = json(pipeline().run(&corpus));
    let journal = Journal::new(
        std::env::temp_dir().join(format!("dydroid_prov_report_{}.jsonl", std::process::id())),
    );
    journal.reset().expect("reset journal");
    let journaled = json(
        pipeline()
            .run_resumable(&corpus, &journal)
            .expect("journaled sweep"),
    );
    let graphs = ProvenanceLedger::new(journal.provenance_path())
        .load()
        .expect("ledger loads");
    journal.reset().expect("cleanup");
    assert_eq!(graphs.len(), corpus.len(), "one ledger graph per app");
    assert_eq!(plain, journaled, "plain run vs journaled run");
}
