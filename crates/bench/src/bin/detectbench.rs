//! rebar-style detection benchmark: trains a synthetic multi-family
//! detector, then runs the same test set through the inverted block
//! index the sweep uses, sequentially and fanned over a thread pool (the
//! way sweep workers share one detector), verifies both produce
//! identical verdicts, and emits a unified `BENCH_detect.json`
//! measurement record with the index's pruning counters. Wall-clock
//! passes are sampled over several rounds (rebar warmup/sample
//! discipline); the flagged count is a deterministic `Steady` identity
//! benchcmp gates across machines.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use dydroid_analysis::{BinarySig, BlockSig, FamilyMatch, MalwareDetector};
use dydroid_bench::measure::sample_rounds;
use dydroid_bench::{ArgParser, CommonArgs, Direction, Measurement, Stats, EXIT_FINDING};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

const USAGE: &str = "detectbench [--families N] [--family-samples M] [--tests T] [--blocks B] \
[--threshold F] [--seed S] [--out PATH] [--samples N] [--warmup N]";

/// A family's base signature: variants of one family mutate this shared
/// block sequence, so intra-family overlap is high and cross-family
/// overlap is negligible — the shape real ACFG signatures have.
fn family_base(rng: &mut ChaCha8Rng, blocks: usize) -> Vec<BlockSig> {
    (0..blocks)
        .map(|_| BlockSig {
            pattern: rng.next_u64(),
            out_degree: (rng.next_u64() % 3) as u8,
        })
        .collect()
}

/// One variant: the family base with each position independently
/// replaced by a fresh random block with probability `mutation`.
fn variant(rng: &mut ChaCha8Rng, base: &[BlockSig], mutation: f64) -> BinarySig {
    let sigs = base
        .iter()
        .map(|&b| {
            if rng.gen_bool(mutation) {
                BlockSig {
                    pattern: rng.next_u64(),
                    out_degree: (rng.next_u64() % 3) as u8,
                }
            } else {
                b
            }
        })
        .collect();
    BinarySig::from_blocks(sigs)
}

/// A test binary unrelated to every family (fresh random blocks).
fn benign(rng: &mut ChaCha8Rng, blocks: usize) -> BinarySig {
    let sigs = (0..blocks)
        .map(|_| BlockSig {
            pattern: rng.next_u64(),
            out_degree: (rng.next_u64() % 3) as u8,
        })
        .collect();
    BinarySig::from_blocks(sigs)
}

/// Runs every test through `detect` and returns verdicts + wall ms.
fn timed_pass<F>(tests: &[BinarySig], detect: F) -> (Vec<Option<FamilyMatch>>, f64)
where
    F: Fn(&BinarySig) -> Option<FamilyMatch>,
{
    let t0 = Instant::now();
    let verdicts = tests.iter().map(detect).collect();
    (verdicts, t0.elapsed().as_secs_f64() * 1e3)
}

/// Fans the test set over `workers` threads against the shared detector
/// (the detection API is `&self`; counters are atomic).
fn timed_parallel(
    detector: &MalwareDetector,
    tests: &[BinarySig],
    workers: usize,
) -> (Vec<Option<FamilyMatch>>, f64) {
    let t0 = Instant::now();
    let slots: Vec<std::sync::Mutex<Option<FamilyMatch>>> =
        tests.iter().map(|_| std::sync::Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    crossbeam::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= tests.len() {
                    break;
                }
                *slots[i].lock().unwrap() = detector.detect_sig(&tests[i]);
            });
        }
    })
    .expect("detection workers");
    let verdicts = slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap())
        .collect();
    (verdicts, t0.elapsed().as_secs_f64() * 1e3)
}

fn verdicts_identical(a: &[Option<FamilyMatch>], b: &[Option<FamilyMatch>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (None, None) => true,
            (Some(x), Some(y)) => x.family == y.family && x.score.to_bits() == y.score.to_bits(),
            _ => false,
        })
}

fn main() {
    let mut parser = ArgParser::new(USAGE);
    let mut common = CommonArgs::for_bench("BENCH_detect.json", 3, 1);
    common.scale = 0.0;
    common.seed = 0xD37EC7;
    let mut families = 12usize;
    let mut family_samples = 8usize;
    let mut tests_n = 400usize;
    let mut blocks = 300usize;
    let mut threshold = dydroid_analysis::acfg::DEFAULT_THRESHOLD;
    while let Some(arg) = parser.next() {
        if common.accept(&arg, &mut parser) {
            continue;
        }
        match arg.as_str() {
            "--families" => families = parser.value("--families", "an integer"),
            "--family-samples" => family_samples = parser.value("--family-samples", "an integer"),
            "--tests" => tests_n = parser.value("--tests", "an integer"),
            "--blocks" => blocks = parser.value("--blocks", "an integer"),
            "--threshold" => threshold = parser.value("--threshold", "a float"),
            other => parser.fail(&format!("unknown argument {other:?}")),
        }
    }
    let mut rng = ChaCha8Rng::seed_from_u64(common.seed);

    eprintln!(
        "detectbench: training {families} families x {family_samples} samples ({blocks} blocks each) ..."
    );
    let mut detector = MalwareDetector::with_threshold(threshold);
    let mut bases = Vec::with_capacity(families);
    for f in 0..families {
        let base = family_base(&mut rng, blocks);
        let sigs = (0..family_samples)
            .map(|_| variant(&mut rng, &base, 0.02))
            .collect();
        detector.train_sigs(format!("family_{f:02}"), sigs);
        bases.push(base);
    }

    // Test set: half unseen family variants (mutation 1-12%, so scores
    // straddle the 0.9 default threshold), half unrelated binaries.
    let tests: Vec<BinarySig> = (0..tests_n)
        .map(|i| {
            if i % 2 == 0 {
                let base = &bases[rng.gen_range(0..bases.len())];
                let mutation = 0.01 + 0.11 * (i % 11) as f64 / 10.0;
                variant(&mut rng, base, mutation)
            } else {
                benign(&mut rng, blocks)
            }
        })
        .collect();
    eprintln!(
        "detectbench: {} tests against {} samples",
        tests.len(),
        detector.sample_count()
    );

    let workload = format!("f{families}x{family_samples}-t{tests_n}-b{blocks}");
    let mut record = Measurement::new("detect", &workload, common.scale, common.seed);
    record.samples = common.samples;
    record.warmup = common.warmup;

    // One counted pass first: the pruning counters of exactly one pass
    // over the test set, independent of how many timing rounds follow.
    let mark = detector.stats();
    let (indexed, _) = timed_pass(&tests, |t| detector.detect_sig(t));
    let stats = detector.stats().since(&mark);
    let hits = indexed.iter().filter(|v| v.is_some()).count();
    eprintln!(
        "detectbench: {} / {} flagged; {} candidates, {} pruned, {} fully scored, {} early exits",
        hits,
        tests.len(),
        stats.candidates,
        stats.pruned,
        stats.fully_scored,
        stats.early_exits
    );
    record.counter("detector.candidates", stats.candidates);
    record.counter("detector.pruned", stats.pruned);
    record.counter("detector.fully_scored", stats.fully_scored);
    record.counter("detector.early_exits", stats.early_exits);

    eprintln!(
        "detectbench: indexed sequential pass ({} warmup + {} sample rounds) ...",
        common.warmup, common.samples
    );
    let indexed_ms = sample_rounds(common.samples, common.warmup, || {
        timed_pass(&tests, |t| detector.detect_sig(t)).1
    });
    let indexed_med = Stats::from_samples(&indexed_ms).median;

    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4);
    eprintln!("detectbench: indexed parallel pass ({workers} workers) ...");
    let mut par_verdicts: Option<Vec<Option<FamilyMatch>>> = None;
    let parallel_ms = sample_rounds(common.samples, common.warmup, || {
        let (verdicts, ms) = timed_parallel(&detector, &tests, workers);
        par_verdicts = Some(verdicts);
        ms
    });
    let parallel_med = Stats::from_samples(&parallel_ms).median;
    if !verdicts_identical(&indexed, &par_verdicts.expect("parallel rounds")) {
        eprintln!("detectbench: FAIL — parallel and sequential verdicts differ");
        std::process::exit(EXIT_FINDING);
    }

    record.push_metric("indexed_wall_ms", "ms", Direction::Lower, false, indexed_ms);
    record.push_metric(
        "parallel_wall_ms",
        "ms",
        Direction::Lower,
        false,
        parallel_ms,
    );
    // Deterministic identity: the verdict count must never move for a
    // fixed shape + seed, on any machine.
    record.push_metric(
        "flagged",
        "count",
        Direction::Steady,
        true,
        vec![hits as f64],
    );

    let counters = serde_json::json!({
        "candidates": stats.candidates,
        "pruned": stats.pruned,
        "fully_scored": stats.fully_scored,
        "early_exits": stats.early_exits,
    });
    record.payload = serde_json::json!({
        "families": families,
        "samples_per_family": family_samples,
        "blocks_per_sample": blocks,
        "tests": tests_n,
        "threshold": threshold,
        "workers": workers,
        "flagged": hits,
        "indexed_ms": indexed_med,
        "parallel_ms": parallel_med,
        "counters": counters,
    });

    record
        .write_pretty(&common.out)
        .expect("write bench output");
    eprintln!("detectbench: wrote {}", common.out);
}
