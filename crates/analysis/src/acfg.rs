//! Annotated control-flow graphs and the DroidNative-like matcher.
//!
//! Each MAIL function becomes an [`Acfg`]: basic blocks annotated with a
//! pattern signature (the hash of the block's statement sequence plus its
//! out-degree). Detection is subgraph matching against trained family
//! signatures: a test binary is flagged when, for some training sample,
//! at least `threshold` (default 90%, as in the paper) of the training
//! sample's annotated blocks have a parallel match in the test binary.
//!
//! # Indexed matching
//!
//! The matcher is *indexed*: at train time every sample's block multiset
//! is folded into an inverted index `BlockSig → [(sample, count)]`
//! (`SigIndex`). Detection builds the test binary's block pool once,
//! walks only the test's **distinct** signatures through the index, and
//! accumulates the exact multiset-intersection size per candidate sample
//! in a single pass — samples sharing no block with the test are never
//! touched, so per-binary cost no longer grows with the full trained
//! corpus. A precomputed integer bound (`min_matched`, the smallest
//! matched-block count whose score reaches the threshold under the same
//! `f64` comparison the naive scan performs) prunes candidates without a
//! division, and an exact-1.0 match ends the candidate scan early (no
//! later sample can *strictly* beat it, which is what best-match
//! selection requires). The quadratic reference scan survives as
//! [`MalwareDetector::detect_sig_naive`] for baselines and differential
//! tests; both paths return identical [`FamilyMatch`] verdicts.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::mail::{CodeBinary, MailFunction};

/// The default match threshold from the paper (≥ 90% ACFG match).
pub const DEFAULT_THRESHOLD: f64 = 0.9;

/// A basic block's annotation: a stable hash of its MAIL statement
/// sequence, plus its out-degree in the CFG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlockSig {
    /// Hash of the statement sequence.
    pub pattern: u64,
    /// Number of CFG successors.
    pub out_degree: u8,
}

/// An annotated CFG for one function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Acfg {
    /// Function identifier.
    pub name: String,
    /// One signature per basic block.
    pub blocks: Vec<BlockSig>,
}

impl Acfg {
    /// Builds the ACFG of a MAIL function.
    pub fn build(func: &MailFunction) -> Self {
        let code = &func.code;
        let n = code.len();
        // Leaders: entry, every branch target, every instruction after a
        // control transfer.
        let mut is_leader = vec![false; n.max(1)];
        if n > 0 {
            is_leader[0] = true;
        }
        for (i, insn) in code.iter().enumerate() {
            if let Some(t) = insn.target {
                if (t as usize) < n {
                    is_leader[t as usize] = true;
                }
            }
            if (insn.target.is_some() || !insn.falls_through) && i + 1 < n {
                is_leader[i + 1] = true;
            }
        }
        // Block spans.
        let mut starts: Vec<usize> = (0..n).filter(|&i| is_leader[i]).collect();
        starts.push(n);
        let mut block_of = vec![0usize; n];
        for w in 0..starts.len().saturating_sub(1) {
            block_of[starts[w]..starts[w + 1]].fill(w);
        }
        let block_count = starts.len().saturating_sub(1);
        // Successors: each block's terminator contributes at most a
        // branch target and a fall-through edge; collect then sort+dedup
        // instead of scanning the vector per insertion.
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); block_count];
        for (w, edges) in succs.iter_mut().enumerate() {
            let last = starts[w + 1] - 1;
            let insn = &code[last];
            if let Some(t) = insn.target {
                if (t as usize) < n {
                    edges.push(block_of[t as usize]);
                }
            }
            if insn.falls_through && last + 1 < n {
                edges.push(block_of[last + 1]);
            }
            edges.sort_unstable();
            edges.dedup();
        }
        // Signatures.
        let mut blocks = Vec::with_capacity(block_count);
        for w in 0..block_count {
            let mut hasher = DefaultHasher::new();
            for insn in &code[starts[w]..starts[w + 1]] {
                insn.stmt.hash(&mut hasher);
            }
            blocks.push(BlockSig {
                pattern: hasher.finish(),
                out_degree: succs[w].len().min(255) as u8,
            });
        }
        Acfg {
            name: func.name.clone(),
            blocks,
        }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// Fraction of `training`'s blocks with a parallel match in `test`
/// (multiset containment over block signatures).
pub fn match_fraction(training: &[BlockSig], test: &[BlockSig]) -> f64 {
    if training.is_empty() {
        return 0.0;
    }
    let mut pool: HashMap<BlockSig, usize> = HashMap::new();
    for sig in test {
        *pool.entry(*sig).or_insert(0) += 1;
    }
    let mut matched = 0usize;
    for sig in training {
        if let Some(count) = pool.get_mut(sig) {
            if *count > 0 {
                *count -= 1;
                matched += 1;
            }
        }
    }
    matched as f64 / training.len() as f64
}

/// A whole binary's signature: the flattened block multiset of all its
/// function ACFGs (weighted subgraph matching across functions).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinarySig {
    blocks: Vec<BlockSig>,
    functions: usize,
}

impl BinarySig {
    /// Builds the signature of a binary.
    pub fn build(binary: &CodeBinary) -> Self {
        let funcs = binary.to_mail();
        let acfgs: Vec<Acfg> = funcs.iter().map(Acfg::build).collect();
        let functions = acfgs.len();
        let total: usize = acfgs.iter().map(|a| a.blocks.len()).sum();
        // Consume the ACFGs and drain their blocks by move — no per-graph
        // clone of the block vectors.
        let mut blocks = Vec::with_capacity(total);
        for mut acfg in acfgs {
            blocks.append(&mut acfg.blocks);
        }
        BinarySig { blocks, functions }
    }

    /// A signature from a raw block multiset (synthetic corpora: the
    /// property tests and `detectbench` build signature sets directly).
    pub fn from_blocks(blocks: Vec<BlockSig>) -> Self {
        BinarySig {
            blocks,
            functions: 1,
        }
    }

    /// The flattened block multiset.
    pub fn blocks(&self) -> &[BlockSig] {
        &self.blocks
    }

    /// Total annotated blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }
}

/// A positive detection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FamilyMatch {
    /// Matched family name.
    pub family: String,
    /// ACFG match score in `[0, 1]`.
    pub score: f64,
}

/// Cumulative counters of the signature matcher, for perf telemetry
/// (candidate generation and pruning effectiveness). Monotonic over the
/// detector's lifetime; snapshot via [`MalwareDetector::stats`] and
/// subtract with [`DetectorStats::since`] for per-run deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectorStats {
    /// Samples sharing at least one block signature with a test binary
    /// (the inverted index touched their accumulator). The naive scan
    /// counts every non-trivial sample here — it considers them all.
    pub candidates: u64,
    /// Candidates skipped by the threshold bound: their accumulated
    /// matched count could not reach `threshold × block_count`, so no
    /// score was computed.
    pub pruned: u64,
    /// Candidates fully scored against the threshold.
    pub fully_scored: u64,
    /// Detections cut short by an exact-1.0 match (no later sample can
    /// strictly beat a perfect score).
    pub early_exits: u64,
}

impl DetectorStats {
    /// The counter deltas accumulated since `earlier`.
    pub fn since(&self, earlier: &DetectorStats) -> DetectorStats {
        DetectorStats {
            candidates: self.candidates - earlier.candidates,
            pruned: self.pruned - earlier.pruned,
            fully_scored: self.fully_scored - earlier.fully_scored,
            early_exits: self.early_exits - earlier.early_exits,
        }
    }

    /// Fraction of candidates the threshold bound eliminated without a
    /// full score, in `[0, 1]` (0 when no candidates were generated) —
    /// the telemetry layer's headline pruning-effectiveness figure.
    pub fn prune_rate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.pruned as f64 / self.candidates as f64
        }
    }
}

/// Interior-mutable counters behind the `&self` detection API.
#[derive(Debug, Default)]
struct DetectorCounters {
    candidates: AtomicU64,
    pruned: AtomicU64,
    fully_scored: AtomicU64,
    early_exits: AtomicU64,
}

impl DetectorCounters {
    fn snapshot(&self) -> DetectorStats {
        DetectorStats {
            candidates: self.candidates.load(Ordering::Relaxed),
            pruned: self.pruned.load(Ordering::Relaxed),
            fully_scored: self.fully_scored.load(Ordering::Relaxed),
            early_exits: self.early_exits.load(Ordering::Relaxed),
        }
    }
}

impl Clone for DetectorCounters {
    fn clone(&self) -> Self {
        let s = self.snapshot();
        DetectorCounters {
            candidates: AtomicU64::new(s.candidates),
            pruned: AtomicU64::new(s.pruned),
            fully_scored: AtomicU64::new(s.fully_scored),
            early_exits: AtomicU64::new(s.early_exits),
        }
    }
}

/// One trained sample as the index sees it.
#[derive(Debug, Clone)]
struct IndexedSample {
    /// Index into the detector's family vector.
    family: u32,
    /// Total annotated blocks (the score denominator).
    block_count: u32,
    /// Smallest matched-block count whose score passes the threshold
    /// under the exact `f64` comparison of the naive scan
    /// (`block_count + 1` when unreachable, e.g. threshold > 1).
    min_matched: u32,
}

/// The inverted block index over all trained samples (see module docs).
///
/// Samples are numbered in `(family, sample)` training order — the same
/// order the naive scan visits them — so best-match tie-breaking (first
/// strictly-greatest score wins) is preserved exactly.
#[derive(Debug, Clone, Default)]
struct SigIndex {
    samples: Vec<IndexedSample>,
    /// `BlockSig → [(sample id, count of that signature in the sample)]`.
    postings: HashMap<BlockSig, Vec<(u32, u32)>>,
}

/// The smallest integer `m` with `(m as f64 / block_count as f64) >=
/// threshold`, computed by local search so it agrees bit-for-bit with
/// the naive scan's comparison (`block_count + 1` when no `m` passes —
/// thresholds above 1.0, or NaN).
fn min_matched(threshold: f64, block_count: usize) -> u32 {
    let bc = block_count as f64;
    let unreachable = block_count as u64 + 1;
    let guess = (threshold * bc).ceil();
    let mut m = if guess.is_nan() || guess < 0.0 {
        0
    } else if guess >= unreachable as f64 {
        unreachable
    } else {
        guess as u64
    };
    // Correct float rounding in either direction against the exact
    // comparison the scorer performs.
    while m > 0 && (m - 1) as f64 / bc >= threshold {
        m -= 1;
    }
    // Deliberately the negation of the scorer's `>=`, not `<`: a NaN
    // threshold compares false either way, and the negation keeps "m
    // does not pass" and "m passes" exact complements.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    while m < unreachable && !(m as f64 / bc >= threshold) {
        m += 1;
    }
    m as u32
}

/// The trained detector.
///
/// # Example
///
/// ```
/// use dydroid_analysis::mail::CodeBinary;
/// use dydroid_analysis::MalwareDetector;
/// use dydroid_dex::DexFile;
///
/// let mut detector = MalwareDetector::new();
/// // Train on family samples (empty here for brevity)...
/// let benign = CodeBinary::Dex(DexFile::new());
/// assert!(detector.detect(&benign).is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct MalwareDetector {
    threshold: f64,
    families: Vec<(String, Vec<BinarySig>)>,
    /// Rebuilt after every `train` call and on deserialization.
    index: SigIndex,
    stats: DetectorCounters,
}

impl Serialize for MalwareDetector {
    fn to_json(&self) -> serde::Value {
        // The index is derived state: serialize only the trained model
        // and rebuild the postings on the way back in.
        serde::Value::Object(vec![
            ("threshold".to_string(), self.threshold.to_json()),
            ("families".to_string(), self.families.to_json()),
        ])
    }
}

impl Deserialize for MalwareDetector {
    fn from_json(v: &serde::Value) -> Result<Self, serde::Error> {
        let mut detector = MalwareDetector {
            threshold: Deserialize::from_json(serde::__field(v, "threshold"))?,
            families: Deserialize::from_json(serde::__field(v, "families"))?,
            index: SigIndex::default(),
            stats: DetectorCounters::default(),
        };
        detector.rebuild_index();
        Ok(detector)
    }
}

impl MalwareDetector {
    /// Creates a detector with the paper's 90% threshold.
    pub fn new() -> Self {
        Self::with_threshold(DEFAULT_THRESHOLD)
    }

    /// Creates a detector with a custom threshold (ablation benches sweep
    /// this).
    pub fn with_threshold(threshold: f64) -> Self {
        MalwareDetector {
            threshold,
            families: Vec::new(),
            index: SigIndex::default(),
            stats: DetectorCounters::default(),
        }
    }

    /// The active threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// A snapshot of the matcher counters.
    pub fn stats(&self) -> DetectorStats {
        self.stats.snapshot()
    }

    /// Trains a family from sample binaries. Call once per family.
    pub fn train(&mut self, family: impl Into<String>, samples: &[CodeBinary]) {
        let sigs: Vec<BinarySig> = samples
            .iter()
            .map(BinarySig::build)
            .filter(|s| s.block_count() > 0)
            .collect();
        self.train_sigs(family, sigs);
    }

    /// Trains a family from prebuilt signatures (synthetic corpora:
    /// property tests and `detectbench`). Empty signatures are dropped,
    /// mirroring [`MalwareDetector::train`].
    pub fn train_sigs(&mut self, family: impl Into<String>, sigs: Vec<BinarySig>) {
        let sigs: Vec<BinarySig> = sigs.into_iter().filter(|s| s.block_count() > 0).collect();
        self.families.push((family.into(), sigs));
        self.rebuild_index();
    }

    /// Rebuilds the inverted index from the trained families. Each
    /// sample's block multiset is folded into the postings exactly once,
    /// at train time — never per detection.
    fn rebuild_index(&mut self) {
        let mut index = SigIndex::default();
        for (fid, (_, samples)) in self.families.iter().enumerate() {
            for sample in samples {
                // Trivial training samples (< 2 blocks) over-match; the
                // naive scan skips them, so the index omits them.
                if sample.block_count() < 2 {
                    continue;
                }
                let sid = index.samples.len() as u32;
                let mut counts: HashMap<BlockSig, u32> =
                    HashMap::with_capacity(sample.blocks.len());
                for sig in &sample.blocks {
                    *counts.entry(*sig).or_insert(0) += 1;
                }
                for (sig, count) in counts {
                    index.postings.entry(sig).or_default().push((sid, count));
                }
                index.samples.push(IndexedSample {
                    family: fid as u32,
                    block_count: sample.block_count() as u32,
                    min_matched: min_matched(self.threshold, sample.block_count()),
                });
            }
        }
        self.index = index;
    }

    /// Number of trained samples across all families.
    pub fn sample_count(&self) -> usize {
        self.families.iter().map(|(_, s)| s.len()).sum()
    }

    /// Detects whether `binary` matches any trained family; returns the
    /// best match at or above the threshold.
    pub fn detect(&self, binary: &CodeBinary) -> Option<FamilyMatch> {
        self.verdict(binary).1
    }

    /// Builds the binary's signature exactly once and returns it
    /// together with the detection verdict, so batch pipelines (e.g. a
    /// content-addressed analysis cache) can reuse the signature instead
    /// of rebuilding it per consumer.
    pub fn verdict(&self, binary: &CodeBinary) -> (BinarySig, Option<FamilyMatch>) {
        let sig = BinarySig::build(binary);
        let hit = self.detect_sig(&sig);
        (sig, hit)
    }

    /// The quadratic reference scan: every trained sample scored with
    /// [`match_fraction`], rebuilding the test pool per sample. Kept as
    /// the baseline for `detectbench` and the differential tests.
    pub fn detect_sig_naive(&self, test: &BinarySig) -> Option<FamilyMatch> {
        let mut best: Option<FamilyMatch> = None;
        let mut considered = 0u64;
        for (family, samples) in &self.families {
            for sample in samples {
                // Guard against trivial training samples over-matching:
                // a training signature needs substance.
                if sample.block_count() < 2 {
                    continue;
                }
                considered += 1;
                let score = match_fraction(&sample.blocks, &test.blocks);
                if score >= self.threshold && best.as_ref().map(|b| score > b.score).unwrap_or(true)
                {
                    best = Some(FamilyMatch {
                        family: family.clone(),
                        score,
                    });
                }
            }
        }
        // The naive scan considers (and fully scores) every sample.
        self.stats
            .candidates
            .fetch_add(considered, Ordering::Relaxed);
        self.stats
            .fully_scored
            .fetch_add(considered, Ordering::Relaxed);
        best
    }

    /// Detection over a prebuilt signature (for batch pipelines), by
    /// the indexed matcher: build the test pool once, accumulate the
    /// exact multiset-intersection size per candidate via the inverted
    /// index, prune on the integer threshold bound, early-exit on an
    /// exact 1.0. Verdicts are identical to
    /// [`MalwareDetector::detect_sig_naive`].
    pub fn detect_sig(&self, test: &BinarySig) -> Option<FamilyMatch> {
        let index = &self.index;
        if index.samples.is_empty() {
            return None;
        }
        // The test binary's block pool, built once per detection — not
        // once per trained sample.
        let mut pool: HashMap<BlockSig, u32> = HashMap::with_capacity(test.blocks.len());
        for sig in &test.blocks {
            *pool.entry(*sig).or_insert(0) += 1;
        }
        // Single pass over the test's distinct signatures: only samples
        // sharing a block ever get their accumulator touched. The sum of
        // min(sample count, test count) over shared signatures is
        // exactly `match_fraction`'s multiset-intersection numerator.
        let mut matched = vec![0u32; index.samples.len()];
        for (sig, &test_count) in &pool {
            if let Some(postings) = index.postings.get(sig) {
                for &(sid, sample_count) in postings {
                    matched[sid as usize] += sample_count.min(test_count);
                }
            }
        }
        let mut candidates = 0u64;
        let mut pruned = 0u64;
        let mut fully_scored = 0u64;
        let mut early_exit = false;
        let mut best: Option<(u32, f64)> = None;
        // Candidates visited in training order — the naive scan's order —
        // so equal-score tie-breaking picks the same sample.
        for (sid, sample) in index.samples.iter().enumerate() {
            let m = matched[sid];
            if m > 0 {
                candidates += 1;
            }
            if m < sample.min_matched {
                // The accumulated count cannot reach threshold ×
                // block_count: skip without computing a score. Samples
                // with m == 0 were never real candidates (a zero score
                // can still pass a non-positive threshold, which is why
                // the bound — not `m > 0` — gates the skip).
                if m > 0 {
                    pruned += 1;
                }
                continue;
            }
            fully_scored += 1;
            let score = f64::from(m) / f64::from(sample.block_count);
            // Identical comparison to the naive scan (also the NaN
            // backstop: `score >= NaN` is false).
            if score >= self.threshold && best.map(|(_, b)| score > b).unwrap_or(true) {
                best = Some((sample.family, score));
                if m == sample.block_count {
                    // Exact 1.0: no later sample can strictly beat it.
                    early_exit = true;
                    break;
                }
            }
        }
        self.stats
            .candidates
            .fetch_add(candidates, Ordering::Relaxed);
        self.stats.pruned.fetch_add(pruned, Ordering::Relaxed);
        self.stats
            .fully_scored
            .fetch_add(fully_scored, Ordering::Relaxed);
        if early_exit {
            self.stats.early_exits.fetch_add(1, Ordering::Relaxed);
        }
        best.map(|(fid, score)| FamilyMatch {
            family: self.families[fid as usize].0.clone(),
            score,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dydroid_dex::builder::DexBuilder;
    use dydroid_dex::native::{Arch, NativeFunction};
    use dydroid_dex::{AccessFlags, CmpKind, DexFile, MethodRef, NativeInsn, NativeLibrary};

    /// A malicious-looking dex: exfiltrates identifiers over SMS inside a
    /// conditional.
    fn mal_dex(pkg: &str, konst: i64) -> DexFile {
        let mut b = DexBuilder::new();
        let c = b.class(format!("{pkg}.Payload"), "java.lang.Object");
        let m = c.method("go", "()V", AccessFlags::PUBLIC);
        m.registers(8);
        m.invoke_static(
            MethodRef::new(
                "android.telephony.TelephonyManager",
                "getDeviceId",
                "()Ljava/lang/String;",
            ),
            vec![],
        );
        m.move_result(1);
        m.const_int(2, konst);
        let end = m.label();
        m.if_zero(CmpKind::Eq, 2, end);
        m.invoke_static(
            MethodRef::new(
                "android.telephony.SmsManager",
                "sendTextMessage",
                "(Ljava/lang/String;Ljava/lang/String;)V",
            ),
            vec![1, 1],
        );
        m.bind(end);
        m.ret_void();
        b.build()
    }

    fn benign_dex() -> DexFile {
        let mut b = DexBuilder::new();
        let c = b.class("com.app.Ui", "android.app.Activity");
        let m = c.method("onCreate", "()V", AccessFlags::PUBLIC);
        m.registers(4);
        m.const_str(1, "hello");
        m.invoke_static(
            MethodRef::new("android.util.Log", "d", "(Ljava/lang/String;)I"),
            vec![1],
        );
        m.ret_void();
        b.build()
    }

    fn ptrace_lib(target: &str) -> NativeLibrary {
        // Root check → branch → ptrace/hook/exfiltrate: the control-flow
        // shape is what the ACFG keys on; the target string varies.
        let code = vec![
            NativeInsn::Syscall {
                name: "setuid".to_string(),
                arg: None,
            },
            NativeInsn::Branch {
                cond: dydroid_dex::NativeCond::Zero,
                reg: 0,
                target: 6,
            },
            NativeInsn::Syscall {
                name: "ptrace".to_string(),
                arg: Some(target.to_string()),
            },
            NativeInsn::Syscall {
                name: "hook".to_string(),
                arg: Some("chat".to_string()),
            },
            NativeInsn::Syscall {
                name: "send".to_string(),
                arg: Some("c2.example.com:chatlog".to_string()),
            },
            NativeInsn::Ret,
            NativeInsn::Ret,
        ];
        NativeLibrary::new("libhook.so", Arch::Arm)
            .with_function(NativeFunction::exported("JNI_OnLoad", code))
    }

    #[test]
    fn acfg_block_structure() {
        let dex = mal_dex("com.m", 1);
        let funcs = crate::mail::translate_dex(&dex);
        let acfg = Acfg::build(&funcs[0]);
        // Blocks: [entry..ifz], [sms call], [ret]
        assert_eq!(acfg.len(), 3);
        assert!(!acfg.is_empty());
        // Entry block branches two ways.
        assert_eq!(acfg.blocks[0].out_degree, 2);
    }

    #[test]
    fn variant_detected_exact_structure() {
        let mut d = MalwareDetector::new();
        d.train("swiss_sms", &[CodeBinary::Dex(mal_dex("com.m", 1))]);
        // Variant: different package name and constant.
        let variant = CodeBinary::Dex(mal_dex("com.other.pkg", 777));
        let m = d.detect(&variant).expect("variant must match");
        assert_eq!(m.family, "swiss_sms");
        assert!(m.score >= 0.99, "score {}", m.score);
    }

    #[test]
    fn benign_not_flagged() {
        let mut d = MalwareDetector::new();
        d.train("swiss_sms", &[CodeBinary::Dex(mal_dex("com.m", 1))]);
        assert!(d.detect(&CodeBinary::Dex(benign_dex())).is_none());
    }

    #[test]
    fn native_family_detected_across_variants() {
        let mut d = MalwareDetector::new();
        d.train(
            "chathook_ptrace",
            &[CodeBinary::Native(ptrace_lib("com.tencent.mobileqq"))],
        );
        let variant = CodeBinary::Native(ptrace_lib("com.tencent.mm"));
        assert!(d.detect(&variant).is_some());
    }

    #[test]
    fn threshold_sweep_changes_sensitivity() {
        // A test sample embedding the malicious function plus benign code:
        // strict containment still matches; an impossible threshold never
        // does.
        let mut strict = MalwareDetector::with_threshold(0.9);
        let mut lax = MalwareDetector::with_threshold(0.5);
        let training = CodeBinary::Dex(mal_dex("com.m", 1));
        strict.train("fam", std::slice::from_ref(&training));
        lax.train("fam", std::slice::from_ref(&training));

        // Build a partial variant: same source call, but no SMS block.
        let mut b = DexBuilder::new();
        let c = b.class("com.p.Partial", "java.lang.Object");
        let m = c.method("go", "()V", AccessFlags::PUBLIC);
        m.registers(8);
        m.invoke_static(
            MethodRef::new(
                "android.telephony.TelephonyManager",
                "getDeviceId",
                "()Ljava/lang/String;",
            ),
            vec![],
        );
        m.move_result(1);
        m.ret_void();
        let partial = CodeBinary::Dex(b.build());

        assert!(strict.detect(&partial).is_none(), "90% must reject partial");
        // At 50% the shared source block may or may not match depending on
        // block shapes; the full variant always matches both.
        let full = CodeBinary::Dex(mal_dex("com.q", 5));
        assert!(strict.detect(&full).is_some());
        assert!(lax.detect(&full).is_some());
    }

    #[test]
    fn empty_training_sample_ignored() {
        let mut d = MalwareDetector::new();
        d.train("empty", &[CodeBinary::Dex(DexFile::new())]);
        assert_eq!(d.sample_count(), 0);
        assert!(d.detect(&CodeBinary::Dex(benign_dex())).is_none());
    }

    #[test]
    fn match_fraction_bounds() {
        let a = BlockSig {
            pattern: 1,
            out_degree: 1,
        };
        let b = BlockSig {
            pattern: 2,
            out_degree: 1,
        };
        assert_eq!(match_fraction(&[], &[a]), 0.0);
        assert_eq!(match_fraction(&[a], &[a]), 1.0);
        assert_eq!(match_fraction(&[a, b], &[a]), 0.5);
        // Multiset semantics: one test block can't match two training blocks.
        assert_eq!(match_fraction(&[a, a], &[a]), 0.5);
    }

    #[test]
    fn verdict_returns_reusable_signature() {
        let mut d = MalwareDetector::new();
        d.train("swiss_sms", &[CodeBinary::Dex(mal_dex("com.m", 1))]);
        let variant = CodeBinary::Dex(mal_dex("com.other", 9));
        let (sig, hit) = d.verdict(&variant);
        assert!(sig.block_count() > 0);
        assert_eq!(hit, d.detect_sig(&sig), "signature reuse matches detect");
        assert_eq!(hit, d.detect(&variant));
    }

    #[test]
    fn min_matched_agrees_with_float_comparison() {
        for &bc in &[1usize, 2, 3, 7, 10, 90, 1000] {
            for &threshold in &[-1.0, 0.0, 0.25, 0.5, 0.9, 0.99, 1.0, 1.5] {
                let m = min_matched(threshold, bc) as usize;
                // Everything below m fails the scorer's comparison;
                // m itself (when reachable) passes.
                for k in 0..m.min(bc + 1) {
                    assert!(
                        (k as f64 / bc as f64) < threshold,
                        "k={k} bc={bc} t={threshold}"
                    );
                }
                if m <= bc {
                    assert!(
                        m as f64 / bc as f64 >= threshold,
                        "m={m} bc={bc} t={threshold}"
                    );
                }
            }
            // NaN: nothing passes.
            assert_eq!(min_matched(f64::NAN, bc) as usize, bc + 1);
        }
    }

    #[test]
    fn indexed_and_naive_verdicts_agree() {
        let mut d = MalwareDetector::new();
        d.train("swiss_sms", &[CodeBinary::Dex(mal_dex("com.m", 1))]);
        d.train(
            "chathook_ptrace",
            &[CodeBinary::Native(ptrace_lib("com.tencent.mobileqq"))],
        );
        for binary in [
            CodeBinary::Dex(mal_dex("com.other", 42)),
            CodeBinary::Dex(benign_dex()),
            CodeBinary::Native(ptrace_lib("com.tencent.mm")),
            CodeBinary::Dex(DexFile::new()),
        ] {
            let sig = BinarySig::build(&binary);
            assert_eq!(d.detect_sig(&sig), d.detect_sig_naive(&sig));
        }
    }

    #[test]
    fn index_prunes_disjoint_samples() {
        let block = |p| BlockSig {
            pattern: p,
            out_degree: 1,
        };
        let mut d = MalwareDetector::new();
        d.train_sigs(
            "fam_a",
            vec![BinarySig::from_blocks(vec![block(1), block(2)])],
        );
        d.train_sigs(
            "fam_b",
            vec![BinarySig::from_blocks(vec![block(3), block(4)])],
        );
        // Shares one block with fam_a, none with fam_b.
        let test = BinarySig::from_blocks(vec![block(1), block(9)]);
        assert!(d.detect_sig(&test).is_none(), "50% < 90% threshold");
        let stats = d.stats();
        assert_eq!(stats.candidates, 1, "fam_b never becomes a candidate");
        assert_eq!(stats.pruned, 1, "fam_a pruned by the threshold bound");
        assert_eq!(stats.fully_scored, 0);
    }

    #[test]
    fn exact_match_exits_early() {
        let block = |p| BlockSig {
            pattern: p,
            out_degree: 1,
        };
        let sample = vec![block(1), block(2), block(3)];
        let mut d = MalwareDetector::new();
        d.train_sigs("fam", vec![BinarySig::from_blocks(sample.clone())]);
        d.train_sigs("fam2", vec![BinarySig::from_blocks(sample.clone())]);
        let hit = d
            .detect_sig(&BinarySig::from_blocks(sample))
            .expect("exact match");
        assert_eq!(hit.family, "fam", "first perfect sample wins");
        assert_eq!(hit.score, 1.0);
        assert_eq!(d.stats().early_exits, 1);
    }

    #[test]
    fn detector_roundtrips_with_index_rebuilt() {
        let mut d = MalwareDetector::with_threshold(0.8);
        d.train("swiss_sms", &[CodeBinary::Dex(mal_dex("com.m", 1))]);
        let json = serde_json::to_string(&d).expect("serialise detector");
        let back: MalwareDetector = serde_json::from_str(&json).expect("deserialise detector");
        assert_eq!(back.threshold(), 0.8);
        assert_eq!(back.sample_count(), d.sample_count());
        // The rebuilt index must detect exactly like the original.
        let sig = BinarySig::build(&CodeBinary::Dex(mal_dex("x.y", 7)));
        assert_eq!(back.detect_sig(&sig), d.detect_sig(&sig));
        assert!(back.detect_sig(&sig).is_some());
    }

    #[test]
    fn detector_stats_since_subtracts() {
        let mut d = MalwareDetector::new();
        d.train("swiss_sms", &[CodeBinary::Dex(mal_dex("com.m", 1))]);
        let sig = BinarySig::build(&CodeBinary::Dex(mal_dex("a.b", 2)));
        let _ = d.detect_sig(&sig);
        let mark = d.stats();
        let _ = d.detect_sig(&sig);
        let delta = d.stats().since(&mark);
        assert_eq!(delta.candidates, 1);
        assert_eq!(delta.fully_scored, 1);
    }

    #[test]
    fn best_family_wins() {
        let mut d = MalwareDetector::new();
        d.train("exact", &[CodeBinary::Dex(mal_dex("com.m", 1))]);
        d.train(
            "native_fam",
            &[CodeBinary::Native(ptrace_lib("com.tencent.mm"))],
        );
        let m = d.detect(&CodeBinary::Dex(mal_dex("x.y", 3))).unwrap();
        assert_eq!(m.family, "exact");
    }
}
