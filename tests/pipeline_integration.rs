//! Whole-pipeline integration: a small corpus flows through decompile →
//! filter → dynamic → static analysis, and the aggregate tables satisfy
//! the structural invariants of the paper's Table II.

use std::sync::Arc;

use dydroid::pipeline::DynamicStatus;
use dydroid::{Pipeline, PipelineConfig};
use dydroid_analysis::decompiler::{self, ANTI_REPACK_TRAP};
use dydroid_analysis::DclFilter;
use dydroid_avm::{Device, DeviceConfig};
use dydroid_workload::{generate, CorpusSpec};

fn spec() -> CorpusSpec {
    CorpusSpec {
        scale: 0.008, // ~470 apps
        seed: 2024,
    }
}

#[test]
fn table2_invariants_hold() {
    let corpus = generate(&spec());
    let pipeline = Pipeline::new(PipelineConfig {
        environment_reruns: false,
        ..Default::default()
    });
    let report = pipeline.run(&corpus);
    let t2 = report.table2();

    for col in [t2.dex, t2.native] {
        assert_eq!(
            col.failure() + col.exercised,
            col.total,
            "failure + exercised must equal the population"
        );
        assert!(col.intercepted <= col.exercised);
        assert!(col.exercised > 0);
        assert!(col.intercepted > 0);
    }
    // Interception rates must be in the paper's neighbourhood (41% / 54%).
    let dex_rate = t2.dex.intercepted as f64 / t2.dex.total as f64;
    let native_rate = t2.native.intercepted as f64 / t2.native.total as f64;
    assert!((0.30..0.55).contains(&dex_rate), "dex rate {dex_rate}");
    assert!(
        (0.40..0.70).contains(&native_rate),
        "native rate {native_rate}"
    );
    assert!(native_rate > dex_rate, "native DCL executes more often");
}

#[test]
fn report_is_deterministic() {
    let corpus = generate(&spec());
    let pipeline = Pipeline::new(PipelineConfig {
        environment_reruns: false,
        workers: 4,
        ..Default::default()
    });
    let a = pipeline.run(&corpus);
    let b = pipeline.run(&corpus);
    assert_eq!(a.table2(), b.table2());
    assert_eq!(a.table4(), b.table4());
    assert_eq!(a.table5(), b.table5());
    assert_eq!(a.table6(), b.table6());
    assert_eq!(a.table7(), b.table7());
    assert_eq!(a.table9(), b.table9());
    assert_eq!(a.table10(), b.table10());
}

#[test]
fn popularity_ordering_matches_table3() {
    let corpus = generate(&CorpusSpec {
        scale: 0.02,
        seed: 7,
    });
    let pipeline = Pipeline::new(PipelineConfig {
        environment_reruns: false,
        ..Default::default()
    });
    let report = pipeline.run(&corpus);
    let t3 = report.table3();
    // The paper's qualitative finding: DCL apps are more popular.
    assert!(t3.dex.mean_downloads > t3.without_dex.mean_downloads);
    assert!(t3.native.mean_downloads > t3.without_native.mean_downloads);
    assert!(t3.dex.mean_rating > t3.without_dex.mean_rating);
    // Native apps dominate dramatically (paper: ~3.8×).
    assert!(t3.native.mean_downloads > 2.0 * t3.without_native.mean_downloads);
}

#[test]
fn entity_distribution_matches_table4() {
    let corpus = generate(&CorpusSpec {
        scale: 0.02,
        seed: 7,
    });
    let pipeline = Pipeline::new(PipelineConfig {
        environment_reruns: false,
        ..Default::default()
    });
    let report = pipeline.run(&corpus);
    let t4 = report.table4();
    // Third-party dominates both rows (paper: 99.92% / 86.08%).
    assert!(t4.dex.third_party as f64 / t4.dex.total as f64 > 0.9);
    assert!(t4.native.third_party as f64 / t4.native.total as f64 > 0.7);
    // Native own-loading is a real minority, bigger than DEX's.
    let dex_own = t4.dex.own as f64 / t4.dex.total as f64;
    let native_own = t4.native.own as f64 / t4.native.total as f64;
    assert!(
        native_own > dex_own,
        "native own {native_own} vs dex {dex_own}"
    );
}

#[test]
fn render_all_mentions_every_table() {
    let corpus = generate(&CorpusSpec {
        scale: 0.004,
        seed: 1,
    });
    let pipeline = Pipeline::new(PipelineConfig::default());
    let report = pipeline.run(&corpus);
    let text = report.render_all();
    for needle in [
        "TABLE II",
        "TABLE III",
        "TABLE IV",
        "TABLE V",
        "TABLE VI",
        "FIGURE 3",
        "TABLE VII",
        "TABLE VIII",
        "TABLE IX",
        "TABLE X",
    ] {
        assert!(text.contains(needle), "missing {needle}");
    }
}

#[test]
fn pipeline_survives_garbage_and_hostile_apks() {
    use dydroid_workload::{AppPlan, SyntheticApp};

    // A corpus laced with broken inputs: garbage bytes, a truncated APK,
    // and an APK whose classes.dex is corrupted.
    let good = generate(&CorpusSpec {
        scale: 0.001,
        seed: 3,
    });
    let mut truncated = good[0].apk.clone();
    truncated.truncate(truncated.len() / 2);
    let mut corrupted = good[1].apk.clone();
    let mid = corrupted.len() / 2;
    corrupted[mid] ^= 0xFF;

    let hostile = |name: &str, bytes: Vec<u8>| SyntheticApp {
        plan: AppPlan::external(name),
        apk: bytes,
        remote_resources: Vec::new(),
        device_files: Vec::new(),
    };
    let mut corpus = good;
    corpus.push(hostile("garbage.one", b"not an apk at all".to_vec()));
    corpus.push(hostile("garbage.two", truncated));
    corpus.push(hostile("garbage.three", corrupted));

    let pipeline = Pipeline::new(PipelineConfig {
        environment_reruns: false,
        ..Default::default()
    });
    let report = pipeline.run(&corpus);
    assert_eq!(report.records().len(), corpus.len());
    // The hostile entries are recorded as undecompilable, nothing panics.
    let broken = report.records().iter().filter(|r| !r.decompiled).count();
    assert!(broken >= 3, "hostile inputs must be recorded, got {broken}");
}

#[test]
fn worker_count_does_not_change_results() {
    let corpus = generate(&CorpusSpec {
        scale: 0.002,
        seed: 8,
    });
    let run = |workers: usize| {
        Pipeline::new(PipelineConfig {
            workers,
            environment_reruns: false,
            ..Default::default()
        })
        .run(&corpus)
    };
    let solo = run(1);
    let parallel = run(8);
    assert_eq!(solo.table2(), parallel.table2());
    assert_eq!(solo.table6(), parallel.table6());
    assert_eq!(solo.table10(), parallel.table10());
}

#[test]
fn rates_stable_across_corpus_seeds() {
    // The measured rates are properties of the population, not of one
    // seed: two disjoint corpora must agree within tolerance.
    let rate = |seed: u64| {
        let corpus = generate(&CorpusSpec { scale: 0.02, seed });
        let report = Pipeline::new(PipelineConfig {
            environment_reruns: false,
            ..Default::default()
        })
        .run(&corpus);
        let t2 = report.table2();
        let t6 = report.table6();
        (
            t2.dex.intercepted as f64 / t2.dex.total as f64,
            t6.lexical as f64 / t6.total as f64,
        )
    };
    let (dex_a, lex_a) = rate(1111);
    let (dex_b, lex_b) = rate(2222);
    assert!((dex_a - dex_b).abs() < 0.08, "{dex_a} vs {dex_b}");
    assert!((lex_a - lex_b).abs() < 0.04, "{lex_a} vs {lex_b}");
}

#[test]
fn analyze_apk_entry_point_works_standalone() {
    let corpus = generate(&CorpusSpec {
        scale: 0.002,
        seed: 12,
    });
    let pipeline = Pipeline::new(PipelineConfig::default());
    let app = corpus.iter().find(|a| a.plan.google_ads).expect("ad app");
    let record = pipeline
        .analyze_apk(
            app.apk.clone(),
            app.remote_resources.clone(),
            app.device_files.clone(),
        )
        .expect("valid apk");
    assert_eq!(record.package, app.plan.package);
    assert!(record.dex_intercepted());
    // Garbage is an error, not a panic.
    assert!(pipeline
        .analyze_apk(b"junk".to_vec(), vec![], vec![])
        .is_err());
}

#[test]
fn pipeline_install_equals_a_fresh_parse_of_the_install_bytes() {
    // The pipeline installs each app from its decompilation's shared
    // class space instead of re-parsing `classes.dex`. What it installs
    // must still equal what `Device::install` parses from the same bytes:
    // for rewritten apps, apps that already hold the permission, and
    // anti-repackaging apps (whose rewrite fails before any install).
    let corpus = generate(&CorpusSpec {
        scale: 0.01,
        ..CorpusSpec::default()
    });
    let pipeline = Pipeline::new(PipelineConfig {
        environment_reruns: false,
        ..Default::default()
    });
    let (mut rewritten, mut original, mut anti_repack) = (0, 0, 0);
    let mut previous: Option<decompiler::DecompiledApp> = None;
    for app in &corpus {
        let Ok(decompiled) = decompiler::decompile(&app.apk) else {
            continue;
        };
        if !DclFilter::scan(&decompiled.classes).any() {
            continue;
        }
        let install = if decompiler::needs_rewriting(&decompiled.manifest) {
            match decompiler::repackage_with_permission(&decompiled) {
                Ok(bytes) => {
                    rewritten += 1;
                    bytes
                }
                Err(_) => {
                    anti_repack += 1;
                    assert!(decompiled.apk.entry(ANTI_REPACK_TRAP).is_some());
                    let record = pipeline.analyze_app(app);
                    let dynamic = record.dynamic.expect("filter passed");
                    assert_eq!(dynamic.status, DynamicStatus::RewriteFailure);
                    continue;
                }
            }
        } else {
            original += 1;
            app.apk.clone()
        };
        let pkg = app.package();
        let mut fresh = Device::new(DeviceConfig::default());
        fresh.install(&install).expect("install bytes parse");
        let want = fresh.app(pkg).expect("freshly installed");

        let mut device = pipeline.prepare_device(app, pipeline.config().device_config());
        pipeline.exercise_and_analyze(app, &mut device, &install, &decompiled);
        let got = device.app(pkg).expect("pipeline installed the app");
        assert_eq!(got.package, want.package);
        assert_eq!(got.apk, want.apk, "{pkg}: archive differs");
        assert_eq!(got.manifest, want.manifest, "{pkg}: manifest differs");
        assert_eq!(*got.classes, *want.classes, "{pkg}: classes differ");
        assert!(
            Arc::ptr_eq(&got.classes, &decompiled.classes),
            "{pkg}: byte-equal classes.dex was parsed again"
        );

        // A decompilation of a different app has a different
        // `classes.dex`, so the install parses the bytes it was given.
        if let Some(other) = &previous {
            let mut device = pipeline.prepare_device(app, pipeline.config().device_config());
            pipeline.exercise_and_analyze(app, &mut device, &install, other);
            let got = device.app(pkg).expect("pipeline installed the app");
            assert_eq!(*got.classes, *want.classes, "{pkg}: fallback parse differs");
            assert!(!Arc::ptr_eq(&got.classes, &other.classes));
        }
        previous = Some(decompiled);
    }
    assert!(
        rewritten > 0 && original > 0 && anti_repack > 0,
        "corpus lacks an install kind: {rewritten} rewritten, {original} original, {anti_repack} anti-repackaging"
    );
}

/// Two corpus entries with one package name — an app and its repackaged
/// clone — each get their own analysed record. Results are filed by
/// corpus index, so the second entry is not mistaken for a record lost
/// to a dead worker (a false Table II harness failure).
#[test]
fn duplicate_packages_each_keep_their_record() {
    let mut corpus = generate(&CorpusSpec {
        scale: 0.005,
        seed: 5,
    });
    corpus.push(corpus[3].clone());
    let clone = corpus.len() - 1;
    let config = PipelineConfig {
        workers: 2,
        environment_reruns: false,
        ..Default::default()
    };
    let journal = dydroid::Journal::new(std::env::temp_dir().join(format!(
        "dydroid_duplicate_packages_{}.jsonl",
        std::process::id()
    )));
    journal.reset().expect("reset journal");
    let plain = Pipeline::new(config.clone()).run(&corpus);
    let journaled = Pipeline::new(config)
        .run_resumable(&corpus, &journal)
        .expect("fresh journaled sweep");
    journal.reset().expect("cleanup");
    for (name, report) in [("run", &plain), ("run_resumable", &journaled)] {
        let records = report.records();
        assert_eq!(records.len(), corpus.len(), "{name}");
        let harness: Vec<&str> = records.iter().filter_map(|r| r.harness_failure()).collect();
        assert!(harness.is_empty(), "{name}: harness failures {harness:?}");
        let t2 = report.table2();
        assert_eq!(
            (t2.dex.harness_failure, t2.native.harness_failure),
            (0, 0),
            "{name}"
        );
        let original = serde_json::to_string(&records[3]).expect("serialise");
        assert_eq!(
            serde_json::to_string(&records[clone]).expect("serialise"),
            original,
            "{name}: the clone's record differs from the original's"
        );
    }
}
