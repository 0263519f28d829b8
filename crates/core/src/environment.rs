//! Runtime-environment re-runs (Table VIII).
//!
//! Every app whose loaded code was flagged as malware is re-executed under
//! the paper's four configurations — system time before release, airplane
//! mode with WiFi re-enabled, airplane mode fully offline, and location
//! service disabled — recording which of the malicious files are still
//! loaded in each. Aggregate counts feed Table VIII ([`EnvCounts`]);
//! the per-file outcomes ([`EnvLoad`]) feed the provenance ledger, where
//! `dcltrace diff` surfaces loads that only occur under some configs —
//! the logic-bomb signal.
//!
//! The re-runs are one loop on the calling thread: each flagged app is
//! decompiled and rewritten a single time, then run under the four
//! configurations in Table VIII order. Each (app × config) pair runs under
//! `catch_unwind`, so a panicking re-run counts as "not loaded" for that
//! pair alone and never aborts the sweep.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use dydroid_analysis::decompiler::{self, DecompiledApp};
use dydroid_avm::DeviceConfig;
use dydroid_workload::emit::RELEASE_MS;
use dydroid_workload::SyntheticApp;
use serde::{Deserialize, Serialize};

use crate::pipeline::{AppRecord, Pipeline};

/// Malicious-file load counts per configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnvCounts {
    /// Total malicious files observed in the baseline run.
    pub total_files: usize,
    /// Files loaded with the system time set before the release date.
    pub time_before_release: usize,
    /// Files loaded under airplane mode with WiFi re-enabled.
    pub airplane_wifi_on: usize,
    /// Files loaded under airplane mode fully offline.
    pub airplane_wifi_off: usize,
    /// Files loaded with the location service disabled.
    pub location_off: usize,
}

/// One malicious file's re-run outcome: the configurations (by Table
/// VIII name) under which it still loaded.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnvLoad {
    /// Owning app's package.
    pub package: String,
    /// The malicious path.
    pub path: String,
    /// Config names under which the file loaded, in Table VIII order.
    pub configs: Vec<String>,
}

/// Aggregate counts plus per-file detail from the environment re-runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnvOutcome {
    /// Table VIII counts.
    pub counts: EnvCounts,
    /// Per-file outcomes: corpus order by app, path-sorted within an app.
    pub loads: Vec<EnvLoad>,
}

/// The four non-baseline configuration names, in Table VIII order.
pub fn config_names() -> [&'static str; 4] {
    [
        "System time",
        "Airplane mode/WiFi ON",
        "Airplane mode/WiFi OFF",
        "Location OFF",
    ]
}

/// The four non-baseline configurations, in Table VIII order.
pub fn configurations() -> [(&'static str, DeviceConfig); 4] {
    let base = DeviceConfig::default();
    let names = config_names();
    [
        (
            names[0],
            DeviceConfig {
                time_ms: RELEASE_MS - 86_400_000,
                ..base.clone()
            },
        ),
        (
            names[1],
            DeviceConfig {
                airplane_mode: true,
                wifi_on: true,
                ..base.clone()
            },
        ),
        (
            names[2],
            DeviceConfig {
                airplane_mode: true,
                wifi_on: false,
                ..base.clone()
            },
        ),
        (
            names[3],
            DeviceConfig {
                location_enabled: false,
                ..base
            },
        ),
    ]
}

/// The malware-flagged subset of the corpus with their malicious paths.
fn flagged_apps<'c>(
    corpus: &'c [SyntheticApp],
    records: &[AppRecord],
) -> Vec<(&'c SyntheticApp, Vec<String>)> {
    corpus
        .iter()
        .zip(records)
        .filter_map(|(app, record)| {
            let dynamic = record.dynamic.as_ref()?;
            if dynamic.malware.is_empty() {
                return None;
            }
            let paths: Vec<String> = dynamic.malware.iter().map(|m| m.path.clone()).collect();
            Some((app, paths))
        })
        .collect()
}

/// Folds per-(app, config) load flags — one `bool` per malicious-path
/// entry — into Table VIII counts and per-file [`EnvLoad`] detail, in
/// flagged order.
fn assemble_outcome(
    flagged: &[(&SyntheticApp, Vec<String>)],
    flags_for: impl Fn(usize, usize) -> Option<Vec<bool>>,
) -> EnvOutcome {
    let names = config_names();
    let mut outcome = EnvOutcome::default();
    for (a, (app, paths)) in flagged.iter().enumerate() {
        outcome.counts.total_files += paths.len();
        // Distinct paths, with one presence flag per config each.
        let mut per_path: BTreeMap<&str, [bool; 4]> = BTreeMap::new();
        for c in 0..names.len() {
            let flags = flags_for(a, c).unwrap_or_else(|| vec![false; paths.len()]);
            let loaded = flags.iter().filter(|b| **b).count();
            match c {
                0 => outcome.counts.time_before_release += loaded,
                1 => outcome.counts.airplane_wifi_on += loaded,
                2 => outcome.counts.airplane_wifi_off += loaded,
                _ => outcome.counts.location_off += loaded,
            }
            for (path, flag) in paths.iter().zip(&flags) {
                per_path.entry(path).or_insert([false; 4])[c] |= *flag;
            }
        }
        for (path, present) in per_path {
            outcome.loads.push(EnvLoad {
                package: app.plan.package.clone(),
                path: path.to_string(),
                configs: names
                    .iter()
                    .zip(present)
                    .filter(|(_, p)| *p)
                    .map(|(n, _)| (*n).to_string())
                    .collect(),
            });
        }
    }
    outcome
}

/// Re-runs every malware-flagged app under the four configurations:
/// decompile/rewrite once per app, then exercise it once per
/// configuration. A pair that panics, or an app that fails to prepare,
/// contributes no loads.
pub fn rerun_all(
    pipeline: &Pipeline,
    corpus: &[SyntheticApp],
    records: &[AppRecord],
) -> EnvOutcome {
    let flagged = flagged_apps(corpus, records);
    let configs = configurations();
    let loaded: Vec<Vec<Option<Vec<bool>>>> = flagged
        .iter()
        .map(|(app, paths)| {
            let prepared = decompiler::prepare_for_dynamic_analysis(&app.apk).ok();
            configs
                .iter()
                .map(|(name, config)| {
                    let (decompiled, bytes, _) = prepared.as_ref()?;
                    catch_unwind(AssertUnwindSafe(|| {
                        loaded_flags(pipeline, app, name, config, decompiled, bytes, paths)
                    }))
                    .ok()
                })
                .collect()
        })
        .collect();
    assemble_outcome(&flagged, |a, c| loaded[a][c].clone())
}

/// Exercises one prepared app under `config` and reports, per malicious
/// path entry, whether the file still loaded.
fn loaded_flags(
    pipeline: &Pipeline,
    app: &SyntheticApp,
    config_name: &str,
    config: &DeviceConfig,
    decompiled: &DecompiledApp,
    install_bytes: &[u8],
    malicious_paths: &[String],
) -> Vec<bool> {
    let mut span = pipeline.telemetry().span("env_rerun");
    span.field("app", &app.plan.package);
    span.field("config", config_name);
    let mut device = pipeline.prepare_device(app, config.clone());
    let (outcome, _, _) =
        pipeline.exercise_and_analyze_salted(app, &mut device, install_bytes, decompiled, 0, &span);
    // A crash after loading does not un-load the file: count events
    // regardless of the final status (interception happens at load time).
    let flags: Vec<bool> = malicious_paths
        .iter()
        .map(|p| {
            outcome
                .dex_events
                .iter()
                .chain(outcome.native_events.iter())
                .any(|e| e.path == *p)
        })
        .collect();
    span.field("loaded", flags.iter().filter(|b| **b).count());
    flags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configurations_cover_table_viii() {
        let configs = configurations();
        assert_eq!(configs.len(), 4);
        assert!(configs[0].1.time_ms < RELEASE_MS);
        assert!(configs[1].1.airplane_mode && configs[1].1.wifi_on);
        assert!(configs[2].1.airplane_mode && !configs[2].1.wifi_on);
        assert!(!configs[3].1.location_enabled);
        let names = config_names();
        for (i, (name, _)) in configs.iter().enumerate() {
            assert_eq!(*name, names[i]);
        }
    }
}
