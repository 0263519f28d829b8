//! Differential tests for the content-addressed analysis cache and the
//! indexed signature matcher, plus the pinned Table VIII re-run outcome:
//! the optimizations must not change a single verdict, and the cache
//! must analyse each unique intercepted binary exactly once.

use dydroid::environment::{config_names, rerun_all, EnvCounts, EnvLoad, EnvOutcome};
use dydroid::training::reference_detector;
use dydroid::{AnalysisCache, Pipeline, PipelineConfig};
use dydroid_analysis::acfg::DEFAULT_THRESHOLD;
use dydroid_analysis::mail::CodeBinary;
use dydroid_analysis::taint::TaintAnalysis;
use dydroid_analysis::BinarySig;
use dydroid_dex::Apk;
use dydroid_workload::{generate, CorpusSpec, SyntheticApp};

/// ~235 apps with every archetype represented, including malware, so the
/// Table VIII environment re-runs actually trigger.
fn tiny_corpus() -> Vec<dydroid_workload::SyntheticApp> {
    generate(&CorpusSpec {
        scale: 0.004,
        seed: 99,
    })
}

/// Calls `f(package, bytes)` for every payload an app of `corpus` could
/// load: its APK entries, hosted remote resources and planted device
/// files.
fn for_each_payload(corpus: &[SyntheticApp], mut f: impl FnMut(&str, &[u8])) {
    for app in corpus {
        let apk = Apk::parse(&app.apk).ok();
        let payloads = apk
            .iter()
            .flat_map(Apk::entries)
            .map(|e| &e.data)
            .chain(app.remote_resources.iter().map(|(_, _, bytes)| bytes))
            .chain(app.device_files.iter().map(|(_, _, bytes)| bytes));
        for bytes in payloads {
            f(app.package(), bytes);
        }
    }
}

/// The cache invariant: for every payload of the scale-0.01 corpus, the
/// verdict served by one shared cache, warm with every payload walked
/// before it, equals the verdict of a fresh cold cache, which computes
/// the lookup.
#[test]
fn warm_cache_verdicts_match_cold_computes_per_payload() {
    let corpus = generate(&CorpusSpec {
        scale: 0.01,
        seed: CorpusSpec::default().seed,
    });
    let detector = reference_detector(DEFAULT_THRESHOLD);
    let taint = TaintAnalysis::new();
    let shared = AnalysisCache::new();
    let mut payloads = 0u64;
    for_each_payload(&corpus, |package, bytes| {
        let cold = AnalysisCache::new();
        assert_eq!(
            shared.analyze(bytes, &detector, &taint),
            cold.analyze(bytes, &detector, &taint),
            "{package}: warm and cold verdicts diverge"
        );
        assert_eq!(cold.stats().misses, 1, "a cold cache computes its lookup");
        payloads += 1;
    });
    let stats = shared.stats();
    assert_eq!(stats.hits + stats.misses, payloads);
    assert!(stats.hits > 0, "no payload was served warm");
    assert!(stats.sig_builds > 0, "no payload parsed as code");
}

/// The indexed matcher invariant: for every payload of the scale-0.01
/// corpus that parses as code (APK entries, hosted remote resources and
/// planted device files), the inverted block index returns exactly the
/// naive quadratic scan's verdict at the paper's 90% match threshold,
/// where near-boundary variant scores decide verdicts.
#[test]
fn indexed_detector_matches_naive_on_corpus_payloads() {
    let corpus = generate(&CorpusSpec {
        scale: 0.01,
        seed: CorpusSpec::default().seed,
    });
    let indexed = reference_detector(0.9);
    let naive = reference_detector(0.9);

    let mut matched = 0;
    for_each_payload(&corpus, |package, bytes| {
        let Ok(binary) = CodeBinary::from_bytes(bytes) else {
            return;
        };
        let sig = BinarySig::build(&binary);
        let verdict = indexed.detect_sig(&sig);
        assert_eq!(
            verdict,
            naive.detect_sig_naive(&sig),
            "{package}: indexed and naive verdicts diverge"
        );
        matched += usize::from(verdict.is_some());
    });
    assert!(matched > 0, "no corpus payload matched a trained family");

    // The index actually ran (and pruned), while the naive scan
    // considered every sample and pruned nothing.
    let istats = indexed.stats();
    let nstats = naive.stats();
    assert!(istats.candidates > 0, "indexed path saw no candidates");
    assert!(
        istats.fully_scored <= istats.candidates,
        "scored candidates cannot exceed generated ones"
    );
    assert_eq!(nstats.pruned, 0, "naive scan must not prune");
    assert!(
        nstats.candidates >= istats.candidates,
        "the index must not consider more samples than the naive scan"
    );
}

/// Exactly-once: every cache miss is a distinct binary, every signature
/// build corresponds to one miss, and re-sweeping the same corpus on the
/// same pipeline performs zero additional analyses.
#[test]
fn cache_analyzes_each_unique_binary_exactly_once() {
    let corpus = tiny_corpus();
    let pipeline = Pipeline::new(PipelineConfig::default());

    let _ = pipeline.run(&corpus);
    let first = pipeline.cache_stats();
    assert!(first.misses > 0, "corpus must intercept some binaries");
    assert!(first.hits > 0, "corpus must contain duplicate binaries");
    assert_eq!(
        first.misses, first.entries,
        "every miss must create exactly one cache entry"
    );
    assert_eq!(
        first.sig_builds, first.misses,
        "one BinarySig::build per unique binary"
    );
    assert!(
        first.taint_runs <= first.misses,
        "taint runs only on the dex subset of unique binaries"
    );

    // Second sweep over the same corpus: all lookups must hit.
    let _ = pipeline.run(&corpus);
    let second = pipeline.cache_stats();
    assert_eq!(
        second.sig_builds, first.sig_builds,
        "re-sweep must not rebuild any signature"
    );
    assert_eq!(
        second.taint_runs, first.taint_runs,
        "re-sweep must not re-run taint analysis"
    );
    assert_eq!(second.misses, first.misses, "re-sweep must not miss");
    assert!(second.hits > first.hits, "re-sweep lookups must all hit");
    assert_eq!(second.entries, first.entries);
}

/// The Table VIII re-runs of the fixed-seed corpus reproduce a pinned
/// outcome: per-config counts and, per malicious file, the configs under
/// which it still loaded.
#[test]
fn env_reruns_reproduce_pinned_outcome() {
    let corpus = tiny_corpus();
    // Sweep once without re-runs to obtain the flagged records.
    let pipeline = Pipeline::new(PipelineConfig {
        environment_reruns: false,
        ..PipelineConfig::default()
    });
    let report = pipeline.run(&corpus);

    let names = config_names();
    let load = |package: &str, path: &str, configs: &[usize]| EnvLoad {
        package: package.to_string(),
        path: path.to_string(),
        configs: configs.iter().map(|&c| names[c].to_string()).collect(),
    };
    let tinyfarm = "com.com2us.tinyfarm.normal.freefull.google.global.android.common";
    let expected = EnvOutcome {
        counts: EnvCounts {
            total_files: 4,
            time_before_release: 3,
            airplane_wifi_on: 3,
            airplane_wifi_off: 2,
            location_off: 3,
        },
        loads: vec![
            load(
                "com.sktelecom.hoppin.mobile",
                "/data/data/com.sktelecom.hoppin.mobile/cache/mal0.dex",
                &[1, 2, 3],
            ),
            load(
                "com.oshare.app",
                "/data/data/com.oshare.app/cache/mal0.dex",
                &[0, 3],
            ),
            load(
                tinyfarm,
                &format!("/data/app-lib/{tinyfarm}/libchathook0.so"),
                &[0, 1, 3],
            ),
            load(
                tinyfarm,
                &format!("/data/app-lib/{tinyfarm}/libchathook1.so"),
                &[0, 1, 2],
            ),
        ],
    };
    assert_eq!(rerun_all(&pipeline, &corpus, report.records()), expected);
}
