//! Reference malware training set.
//!
//! The paper trains DroidNative on 1,240 apps from 19 families collected
//! from the Malware Genome Project and Contagio. Our stand-in trains the
//! three families the measurement actually detects, using payload variants
//! generated *independently* of the corpus (different variant ids), so
//! detection is genuine variant matching, not byte identity.

use dydroid_analysis::mail::CodeBinary;
use dydroid_analysis::MalwareDetector;
use dydroid_workload::plan::MalwareFamily;

use crate::telemetry::Telemetry;

/// Variant ids reserved for training (the corpus derives its variants
/// from package-name hashes modulo 1,000, so these never collide).
const TRAINING_VARIANTS: [usize; 3] = [100_001, 100_002, 100_003];

/// [`reference_detector`] under a "train" telemetry span, so pipeline
/// construction shows up in the trace timeline.
pub fn reference_detector_traced(threshold: f64, telemetry: &Telemetry) -> MalwareDetector {
    let mut span = telemetry.span("train");
    let detector = reference_detector(threshold);
    span.field("samples", detector.sample_count());
    detector
}

/// Builds a detector trained on reference samples of the three families.
pub fn reference_detector(threshold: f64) -> MalwareDetector {
    let mut detector = MalwareDetector::with_threshold(threshold);

    let swiss: Vec<CodeBinary> = TRAINING_VARIANTS
        .iter()
        .map(|&v| CodeBinary::Dex(dydroid_workload::emit::swiss_payload(v).0))
        .collect();
    detector.train(MalwareFamily::SwissCodeMonkeys.name(), &swiss);

    let airpush: Vec<CodeBinary> = TRAINING_VARIANTS
        .iter()
        .map(|&v| CodeBinary::Dex(dydroid_workload::emit::airpush_payload(v).0))
        .collect();
    detector.train(MalwareFamily::AirpushMinimob.name(), &airpush);

    let chathook: Vec<CodeBinary> = TRAINING_VARIANTS
        .iter()
        .map(|&v| CodeBinary::Native(dydroid_workload::emit::chathook_payload("libref.so", v)))
        .collect();
    detector.train(MalwareFamily::ChathookPtrace.name(), &chathook);

    detector
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detector_catches_unseen_variants() {
        let detector = reference_detector(0.9);
        assert_eq!(detector.sample_count(), 9);
        // Corpus-side variants use small ids — unseen during training.
        let (dex, _) = dydroid_workload::emit::swiss_payload(7);
        let m = detector
            .detect(&CodeBinary::Dex(dex))
            .expect("swiss variant");
        assert_eq!(m.family, "swiss_code_monkeys");
        let lib = dydroid_workload::emit::chathook_payload("libx.so", 42);
        let m = detector
            .detect(&CodeBinary::Native(lib))
            .expect("chathook variant");
        assert_eq!(m.family, "chathook_ptrace");
    }

    #[test]
    fn reference_detector_survives_serialization() {
        // The inverted block index is derived state: it is excluded from
        // the serialized form and rebuilt on deserialize, so a reloaded
        // detector must reproduce the original verdicts exactly.
        let detector = reference_detector(0.9);
        let json = serde_json::to_string(&detector).expect("serialize");
        let reloaded: MalwareDetector = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(reloaded.sample_count(), detector.sample_count());
        let (dex, _) = dydroid_workload::emit::swiss_payload(7);
        let probe = CodeBinary::Dex(dex);
        let before = detector.detect(&probe).expect("swiss variant");
        let after = reloaded.detect(&probe).expect("swiss variant after reload");
        assert_eq!(after.family, before.family);
        assert_eq!(after.score.to_bits(), before.score.to_bits());
        let benign = dydroid_workload::emit::trivial_native("libengine.so");
        assert!(reloaded.detect(&CodeBinary::Native(benign)).is_none());
    }

    #[test]
    fn detector_passes_benign_payloads() {
        let detector = reference_detector(0.9);
        let ad = dydroid_workload::emit::ad_payload("com.google.ads.dynamic.AdContent");
        assert!(detector.detect(&CodeBinary::Dex(ad)).is_none());
        let lib = dydroid_workload::emit::trivial_native("libengine.so");
        assert!(detector.detect(&CodeBinary::Native(lib)).is_none());
        let privacy =
            dydroid_workload::emit::privacy_payload("com.sdk.C", &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert!(detector.detect(&CodeBinary::Dex(privacy)).is_none());
    }
}
