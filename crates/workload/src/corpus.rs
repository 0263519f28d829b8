//! Corpus generation: planning plus materialisation.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::factory::{build_app, BuildOutput};
use crate::plan::{plan_corpus, AppPlan};
use crate::spec::CorpusSpec;

/// One generated app: ground truth, APK bytes, and environment fixtures.
#[derive(Debug, Clone)]
pub struct SyntheticApp {
    /// The ground-truth blueprint.
    pub plan: AppPlan,
    /// Installable APK bytes.
    pub apk: Vec<u8>,
    /// Remote resources the app expects hosted: `(domain, path, bytes)`.
    pub remote_resources: Vec<(String, String, Vec<u8>)>,
    /// Files other apps planted on the device: `(path, owner, bytes)`.
    pub device_files: Vec<(String, String, Vec<u8>)>,
}

impl SyntheticApp {
    /// The app's package name.
    pub fn package(&self) -> &str {
        &self.plan.package
    }
}

/// Plan indices a generation worker claims at a time. The expensive
/// populations (packers, anti-decompilation, malware) sit together at the
/// front of the plan order, so the corpus is dealt out in small chunks
/// rather than split into one contiguous share per thread.
const CHUNK: usize = 64;

/// Generates the full corpus for a specification. Deterministic: the
/// output is identical on any number of cores.
///
/// Planning is serial, because its RNG order defines the corpus. Each
/// app is then built from its plan alone, on every available core:
/// workers claim runs of `CHUNK` plan indices from one shared
/// cursor and fill those apps in place, so an app's bytes never depend
/// on which thread built it, and no second corpus-length buffer is
/// allocated. A panic while building an app propagates to the caller.
pub fn generate(spec: &CorpusSpec) -> Vec<SyntheticApp> {
    let mut corpus: Vec<SyntheticApp> = plan_corpus(spec)
        .into_iter()
        .map(|plan| SyntheticApp {
            plan,
            apk: Vec::new(),
            remote_resources: Vec::new(),
            device_files: Vec::new(),
        })
        .collect();
    // Each chunk is claimed exactly once, so its lock is never contended;
    // it only hands the claiming worker its slots.
    let chunks: Vec<Mutex<&mut [SyntheticApp]>> =
        corpus.chunks_mut(CHUNK).map(Mutex::new).collect();
    let cursor = AtomicUsize::new(0);
    let build_chunks = || {
        // `Relaxed` suffices: the read-modify-write alone makes each
        // chunk index unique, and the scope's join publishes the slots.
        while let Some(chunk) = chunks.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let mut chunk = chunk.lock().expect("a chunk is claimed once");
            for app in chunk.iter_mut() {
                let BuildOutput {
                    apk,
                    remote,
                    device_files,
                } = build_app(&app.plan);
                app.apk = apk;
                app.remote_resources = remote;
                app.device_files = device_files;
            }
        }
    };
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(chunks.len());
    // The calling thread builds too; the scope joins the helpers and
    // re-raises a panic from any of them.
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(build_chunks);
        }
        build_chunks();
    });
    drop(chunks);
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_corpus_generates() {
        let spec = CorpusSpec {
            scale: 0.01,
            seed: 5,
        };
        let corpus = generate(&spec);
        assert_eq!(corpus.len(), spec.total_apps());
        // Every APK parses.
        for app in &corpus {
            assert!(
                dydroid_dex::Apk::parse(&app.apk).is_ok(),
                "unparsable apk for {}",
                app.package()
            );
        }
        // Remote-fetch apps carry fixtures.
        assert!(corpus
            .iter()
            .any(|a| a.plan.remote_fetch && !a.remote_resources.is_empty()));
        // Foreign-storage victims carry device files.
        assert!(corpus.iter().any(|a| !a.device_files.is_empty()));
    }

    #[test]
    fn corpus_deterministic() {
        let spec = CorpusSpec {
            scale: 0.005,
            seed: 11,
        };
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.plan, y.plan);
            assert_eq!(x.apk, y.apk);
        }
    }

    /// Asserts `a` and `b` hold the same apps, field by field, in order.
    fn assert_same_corpus(a: &[SyntheticApp], b: &[SyntheticApp], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: corpus length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.plan, y.plan, "{what}: plan {i}");
            assert!(x.apk == y.apk, "{what}: apk of {}", x.package());
            assert_eq!(x.remote_resources, y.remote_resources, "{what}: remote {i}");
            assert_eq!(x.device_files, y.device_files, "{what}: device files {i}");
        }
    }

    /// Parallel generation builds exactly what one thread building each
    /// plan in order would, at a scale where every special population is
    /// present (and spans several chunks).
    #[test]
    fn parallel_generation_equals_serial_build() {
        for seed in [7, 0xD1D501D] {
            let spec = CorpusSpec { scale: 0.05, seed };
            let serial: Vec<SyntheticApp> = plan_corpus(&spec)
                .into_iter()
                .map(|plan| {
                    let out = build_app(&plan);
                    SyntheticApp {
                        plan,
                        apk: out.apk,
                        remote_resources: out.remote,
                        device_files: out.device_files,
                    }
                })
                .collect();
            assert!(serial.len() > 4 * CHUNK);
            type Member = fn(&SyntheticApp) -> bool;
            let populations: [(&str, Member); 5] = [
                ("packer", |a| a.plan.packer),
                ("anti-decompilation", |a| a.plan.anti_decompilation),
                ("malware", |a| a.plan.malware.is_some()),
                ("remote fetch", |a| !a.remote_resources.is_empty()),
                ("device files", |a| !a.device_files.is_empty()),
            ];
            for (population, member) in populations {
                assert!(
                    serial.iter().any(member),
                    "seed {seed}: no {population} app"
                );
            }
            assert_same_corpus(&generate(&spec), &serial, &format!("seed {seed}"));
        }
    }

    /// Generations running at the same time (as tests do) share nothing:
    /// each returns the same corpus.
    #[test]
    fn concurrent_generations_agree() {
        const RUNS: usize = 3;
        let spec = CorpusSpec {
            scale: 0.01,
            seed: 3,
        };
        let start = std::sync::Barrier::new(RUNS);
        let corpora: Vec<Vec<SyntheticApp>> = std::thread::scope(|scope| {
            let runs: Vec<_> = (0..RUNS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        generate(&spec)
                    })
                })
                .collect();
            runs.into_iter()
                .map(|run| run.join().expect("generation panicked"))
                .collect()
        });
        for (k, corpus) in corpora.iter().enumerate().skip(1) {
            assert_same_corpus(corpus, &corpora[0], &format!("run {k}"));
        }
    }
}
