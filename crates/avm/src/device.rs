//! The simulated device: filesystem + network + state + installed apps +
//! instrumentation, and app install/launch.

use std::collections::HashMap;
use std::sync::Arc;

use dydroid_dex::manifest::WRITE_EXTERNAL_STORAGE;
use dydroid_dex::{Apk, DexFile, Manifest, NativeLibrary};

use crate::error::AvmError;
use crate::events::{Event, EventLog};
use crate::fs::{FileSystem, FsPolicy, Owner};
use crate::hooks::Instrumentation;
use crate::net::Network;
use crate::paths;
use crate::process::Process;

/// Mutable runtime-environment state — the four knobs Table VIII varies.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceState {
    /// System time in milliseconds since the epoch.
    pub time_ms: i64,
    /// Airplane mode (disables mobile data).
    pub airplane_mode: bool,
    /// WiFi radio state (independent of airplane mode, as in the paper's
    /// "airplane mode / WiFi ON" configuration).
    pub wifi_on: bool,
    /// Whether the location service is enabled.
    pub location_enabled: bool,
}

/// Initial device configuration.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Android API level; 18 = Android 4.3, the version the paper
    /// instruments. 19+ changes external-storage write semantics.
    pub api_level: u32,
    /// Initial system time (ms). The default is far enough in the future
    /// that release-date logic bombs fire.
    pub time_ms: i64,
    /// Initial airplane-mode state.
    pub airplane_mode: bool,
    /// Initial WiFi state.
    pub wifi_on: bool,
    /// Initial location-service state.
    pub location_enabled: bool,
    /// Whether the DyDroid instrumentation is present (an unmodified
    /// retail device would be `false`).
    pub instrumented: bool,
    /// Run processes on the legacy string-resolving interpreter instead
    /// of the pre-resolved fast path. Outcomes are identical; this knob
    /// exists only as the reference for differential tests.
    pub legacy_interp: bool,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            api_level: 18,
            // 2016-11-01, matching the crawl date of the paper's data set.
            time_ms: 1_477_958_400_000,
            airplane_mode: false,
            wifi_on: true,
            location_enabled: true,
            instrumented: true,
            legacy_interp: false,
        }
    }
}

/// An installed application.
#[derive(Debug, Clone)]
pub struct InstalledApp {
    /// Package name.
    pub package: String,
    /// The full archive (assets are served from here).
    pub apk: Apk,
    /// Parsed manifest.
    pub manifest: Manifest,
    /// Parsed primary bytecode. Every launch's process shares it as its
    /// base class space; DCL loads append spaces beside it, never into it.
    pub classes: Arc<DexFile>,
}

/// The simulated device.
#[derive(Debug)]
pub struct Device {
    /// Filesystem.
    pub fs: FileSystem,
    /// Network.
    pub net: Network,
    /// Mutable runtime-environment state.
    pub state: DeviceState,
    /// DyDroid instrumentation.
    pub hooks: Instrumentation,
    /// Instrumentation event log.
    pub log: EventLog,
    api_level: u32,
    installed: HashMap<String, InstalledApp>,
    instructions_retired: u64,
    legacy_interp: bool,
    ic: crate::resolved::IcStats,
}

impl Device {
    /// Creates a device from a configuration.
    pub fn new(config: DeviceConfig) -> Self {
        let mut hooks = Instrumentation::new();
        hooks.enabled = config.instrumented;
        Device {
            fs: FileSystem::new(),
            net: Network::new(),
            state: DeviceState {
                time_ms: config.time_ms,
                airplane_mode: config.airplane_mode,
                wifi_on: config.wifi_on,
                location_enabled: config.location_enabled,
            },
            hooks,
            log: EventLog::new(),
            api_level: config.api_level,
            installed: HashMap::new(),
            instructions_retired: 0,
            legacy_interp: config.legacy_interp,
            ic: crate::resolved::IcStats::default(),
        }
    }

    /// The device API level.
    pub fn api_level(&self) -> u32 {
        self.api_level
    }

    /// Total interpreter instructions retired on this device, across
    /// every process and callback. Feeds the pipeline's telemetry layer
    /// (processes are created and dropped inside the Monkey, so their
    /// per-process counters are invisible to the caller).
    pub fn instructions_retired(&self) -> u64 {
        self.instructions_retired
    }

    /// Accumulates retired instructions (called by the interpreter when
    /// an entry point returns).
    pub(crate) fn charge_instructions(&mut self, used: u64) {
        self.instructions_retired += used;
    }

    /// Whether processes on this device run the legacy reference
    /// interpreter instead of the pre-resolved fast path.
    pub fn legacy_interp(&self) -> bool {
        self.legacy_interp
    }

    /// Inline-cache hit/miss totals across every process run on this
    /// device (all zero under the legacy interpreter, which has no
    /// caches).
    pub fn ic_stats(&self) -> crate::resolved::IcStats {
        self.ic
    }

    /// Accumulates inline-cache counters (called by the process when a
    /// top-level entry returns, like [`Device::charge_instructions`]).
    pub(crate) fn charge_ic(&mut self, delta: &crate::resolved::IcStats) {
        self.ic.add(delta);
    }

    /// Whether any network path is available: mobile data unless airplane
    /// mode, or WiFi regardless.
    pub fn network_available(&self) -> bool {
        !self.state.airplane_mode || self.state.wifi_on
    }

    /// Installs an app from APK bytes: parses the archive, its manifest
    /// and its bytecode, then installs them through
    /// [`Device::install_parsed`].
    ///
    /// # Errors
    ///
    /// Returns [`AvmError::Apk`]/[`AvmError::Dex`] when the archive or its
    /// mandatory entries are malformed, or [`AvmError::AlreadyInstalled`].
    pub fn install(&mut self, apk_bytes: &[u8]) -> Result<String, AvmError> {
        let apk = Apk::parse(apk_bytes)?;
        let manifest = apk.manifest()?;
        let classes = apk.classes()?;
        self.install_parsed(apk, manifest, classes)
    }

    /// Installs an already-parsed app: `manifest` and `classes` must be
    /// the parse of `apk`'s manifest and `classes.dex` entries. Extracts
    /// native libraries to `/data/app-lib/<pkg>/` and keeps `classes` as
    /// the shared base class space of every launch, so a caller that
    /// already holds the parsed bytecode installs it without a re-parse
    /// or a copy.
    ///
    /// # Errors
    ///
    /// Returns [`AvmError::AlreadyInstalled`].
    pub fn install_parsed(
        &mut self,
        apk: Apk,
        manifest: Manifest,
        classes: impl Into<Arc<DexFile>>,
    ) -> Result<String, AvmError> {
        let package = manifest.package.clone();
        if self.installed.contains_key(&package) {
            return Err(AvmError::AlreadyInstalled(package));
        }
        // Extract native libraries, mirroring the installer.
        for entry in apk.entries_under("lib/") {
            let soname = paths::basename(&entry.path);
            let dest = format!("{}/{}", paths::app_lib_dir(&package), soname);
            self.fs
                .write_system(&dest, entry.data.clone(), Owner::app(package.clone()));
        }
        self.installed.insert(
            package.clone(),
            InstalledApp {
                package: package.clone(),
                apk,
                manifest,
                classes: classes.into(),
            },
        );
        Ok(package)
    }

    /// Removes an installed app (files in its internal storage remain, as
    /// on a real uninstall-without-cleanup; tests rely on simplicity here).
    pub fn uninstall(&mut self, pkg: &str) -> bool {
        self.installed.remove(pkg).is_some()
    }

    /// Whether a package is installed.
    pub fn is_installed(&self, pkg: &str) -> bool {
        self.installed.contains_key(pkg)
    }

    /// The installed app record.
    pub fn app(&self, pkg: &str) -> Option<&InstalledApp> {
        self.installed.get(pkg)
    }

    /// All installed package names.
    pub fn installed_packages(&self) -> Vec<&str> {
        let mut pkgs: Vec<&str> = self.installed.keys().map(String::as_str).collect();
        pkgs.sort_unstable();
        pkgs
    }

    /// Whether `pkg` holds `permission` per its manifest.
    pub fn has_permission(&self, pkg: &str, permission: &str) -> bool {
        self.installed
            .get(pkg)
            .map(|a| a.manifest.has_permission(permission))
            .unwrap_or(false)
    }

    /// Runs a filesystem write on behalf of `pkg`.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::FsError`] as [`AvmError::Fs`].
    pub fn app_write(&mut self, pkg: &str, path: &str, data: Vec<u8>) -> Result<(), AvmError> {
        let installed = &self.installed;
        let api = self.api_level;
        let check = move |p: &str| {
            installed
                .get(p)
                .map(|a| a.manifest.has_permission(WRITE_EXTERNAL_STORAGE))
                .unwrap_or(false)
        };
        let policy = FsPolicy {
            api_level: api,
            external_writers: &check,
        };
        self.fs
            .write(path, data, &Owner::app(pkg.to_string()), &policy)?;
        Ok(())
    }

    /// Runs a filesystem append on behalf of `pkg`.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::FsError`] as [`AvmError::Fs`].
    pub fn app_append(&mut self, pkg: &str, path: &str, data: &[u8]) -> Result<(), AvmError> {
        let installed = &self.installed;
        let api = self.api_level;
        let check = move |p: &str| {
            installed
                .get(p)
                .map(|a| a.manifest.has_permission(WRITE_EXTERNAL_STORAGE))
                .unwrap_or(false)
        };
        let policy = FsPolicy {
            api_level: api,
            external_writers: &check,
        };
        self.fs
            .append(path, data, &Owner::app(pkg.to_string()), &policy)?;
        Ok(())
    }

    /// Deletes a file on behalf of `pkg`, honouring the interception
    /// hook's mutual exclusion: queued files are *silently not deleted*.
    /// Returns whether the app observes success.
    pub fn app_delete(&mut self, pkg: &str, path: &str) -> bool {
        if self.hooks.should_block_file_op(path) {
            self.hooks.note_blocked_op();
            self.log.push(Event::File {
                op: crate::events::FileOp::Delete,
                path: path.to_string(),
                suppressed: true,
                package: pkg.to_string(),
            });
            // The hook makes the operation appear successful.
            return true;
        }
        let installed = &self.installed;
        let api = self.api_level;
        let check = move |p: &str| {
            installed
                .get(p)
                .map(|a| a.manifest.has_permission(WRITE_EXTERNAL_STORAGE))
                .unwrap_or(false)
        };
        let policy = FsPolicy {
            api_level: api,
            external_writers: &check,
        };
        let ok = self
            .fs
            .delete(path, &Owner::app(pkg.to_string()), &policy)
            .is_ok();
        self.log.push(Event::File {
            op: crate::events::FileOp::Delete,
            path: path.to_string(),
            suppressed: false,
            package: pkg.to_string(),
        });
        ok
    }

    /// Renames a file on behalf of `pkg`, honouring mutual exclusion.
    /// Returns whether the app observes success.
    pub fn app_rename(&mut self, pkg: &str, from: &str, to: &str) -> bool {
        if self.hooks.should_block_file_op(from) {
            self.hooks.note_blocked_op();
            self.log.push(Event::File {
                op: crate::events::FileOp::Rename,
                path: from.to_string(),
                suppressed: true,
                package: pkg.to_string(),
            });
            return true;
        }
        let installed = &self.installed;
        let api = self.api_level;
        let check = move |p: &str| {
            installed
                .get(p)
                .map(|a| a.manifest.has_permission(WRITE_EXTERNAL_STORAGE))
                .unwrap_or(false)
        };
        let policy = FsPolicy {
            api_level: api,
            external_writers: &check,
        };
        let ok = self
            .fs
            .rename(from, to, &Owner::app(pkg.to_string()), &policy)
            .is_ok();
        self.log.push(Event::File {
            op: crate::events::FileOp::Rename,
            path: from.to_string(),
            suppressed: false,
            package: pkg.to_string(),
        });
        if ok {
            self.hooks.flow.add_edge(
                crate::flow::FlowNode::File(from.to_string()),
                crate::flow::FlowNode::File(to.to_string()),
            );
        }
        ok
    }

    /// Creates a process for `pkg` and runs its launch sequence: the
    /// custom `Application` class (if declared) and then `onCreate` of the
    /// main activity. Crashes are recorded in the log; the returned
    /// process reflects liveness in [`Process::alive`].
    ///
    /// # Errors
    ///
    /// Returns [`AvmError::NotInstalled`] for unknown packages.
    pub fn launch(&mut self, pkg: &str) -> Result<Process, AvmError> {
        let app = self
            .installed
            .get(pkg)
            .ok_or_else(|| AvmError::NotInstalled(pkg.to_string()))?;
        let mut process = Process::new(pkg.to_string(), Arc::clone(&app.classes), &app.manifest);
        // Run the Application container first (packers hinge on this).
        if let Some(app_class) = app.manifest.application_class.clone() {
            process.run_entry(self, &app_class, "onCreate");
        }
        if !process.alive {
            return Ok(process);
        }
        if let Some(main) = self
            .installed
            .get(pkg)
            .and_then(|a| a.manifest.main_activity())
            .map(|c| c.class.clone())
        {
            process.run_entry(self, &main, "onCreate");
        }
        Ok(process)
    }

    /// Loads an asset entry from an installed app's APK.
    pub fn asset(&self, pkg: &str, name: &str) -> Option<&[u8]> {
        self.installed
            .get(pkg)
            .and_then(|a| a.apk.entry(&format!("assets/{name}")))
    }

    /// Resolves a native library search, mirroring `loadLibrary`:
    /// the app's extracted directory first, then `/system/lib`.
    pub fn resolve_library(&self, pkg: &str, libname: &str) -> Option<String> {
        let fname = paths::map_library_name(libname);
        let app_path = format!("{}/{}", paths::app_lib_dir(pkg), fname);
        if self.fs.exists(&app_path) {
            return Some(app_path);
        }
        let sys_path = format!("{}/{}", paths::SYSTEM_LIB, fname);
        if self.fs.exists(&sys_path) {
            return Some(sys_path);
        }
        None
    }

    /// Installs a system native library (trusted, skipped by the logger).
    pub fn install_system_library(&mut self, lib: &NativeLibrary) {
        let path = format!("{}/{}", paths::SYSTEM_LIB, lib.soname);
        self.fs.write_system(&path, lib.to_bytes(), Owner::System);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dydroid_dex::native::{Arch, NativeFunction, NativeInsn};
    use dydroid_dex::{Component, Manifest};

    fn minimal_apk(pkg: &str) -> Vec<u8> {
        let mut manifest = Manifest::new(pkg);
        manifest
            .components
            .push(Component::main_activity(format!("{pkg}.Main")));
        let mut dex = dydroid_dex::builder::DexBuilder::new();
        {
            let c = dex.class(format!("{pkg}.Main"), "android.app.Activity");
            let m = c.method("onCreate", "()V", dydroid_dex::AccessFlags::PUBLIC);
            m.ret_void();
        }
        Apk::build(manifest, dex.build()).to_bytes()
    }

    #[test]
    fn install_and_query() {
        let mut d = Device::new(DeviceConfig::default());
        let pkg = d.install(&minimal_apk("com.a")).unwrap();
        assert_eq!(pkg, "com.a");
        assert!(d.is_installed("com.a"));
        assert_eq!(d.installed_packages(), vec!["com.a"]);
        assert!(matches!(
            d.install(&minimal_apk("com.a")),
            Err(AvmError::AlreadyInstalled(_))
        ));
        assert!(d.uninstall("com.a"));
        assert!(!d.uninstall("com.a"));
    }

    #[test]
    fn install_rejects_garbage() {
        let mut d = Device::new(DeviceConfig::default());
        assert!(matches!(d.install(b"junk"), Err(AvmError::Apk(_))));
    }

    #[test]
    fn native_libs_extracted_on_install() {
        let mut manifest = Manifest::new("com.a");
        manifest
            .components
            .push(Component::main_activity("com.a.Main"));
        let lib = NativeLibrary::new("libx.so", Arch::Arm).with_function(NativeFunction::exported(
            "JNI_OnLoad",
            vec![NativeInsn::Ret],
        ));
        let mut apk = Apk::build(manifest, DexFile::new());
        apk.put("lib/armeabi/libx.so", lib.to_bytes());
        let mut d = Device::new(DeviceConfig::default());
        d.install(&apk.to_bytes()).unwrap();
        assert!(d.fs.exists("/data/app-lib/com.a/libx.so"));
        assert_eq!(
            d.resolve_library("com.a", "x"),
            Some("/data/app-lib/com.a/libx.so".to_string())
        );
    }

    #[test]
    fn library_resolution_falls_back_to_system() {
        let mut d = Device::new(DeviceConfig::default());
        let lib = NativeLibrary::new("libssl.so", Arch::Arm);
        d.install_system_library(&lib);
        assert_eq!(
            d.resolve_library("com.none", "ssl"),
            Some("/system/lib/libssl.so".to_string())
        );
        assert_eq!(d.resolve_library("com.none", "missing"), None);
    }

    #[test]
    fn network_availability_matrix() {
        let mut d = Device::new(DeviceConfig::default());
        assert!(d.network_available());
        d.state.airplane_mode = true;
        d.state.wifi_on = true;
        assert!(d.network_available(), "airplane + wifi on = available");
        d.state.wifi_on = false;
        assert!(!d.network_available(), "airplane + wifi off = offline");
        d.state.airplane_mode = false;
        assert!(d.network_available());
    }

    #[test]
    fn delete_suppression_via_hook() {
        let mut d = Device::new(DeviceConfig::default());
        d.install(&minimal_apk("com.a")).unwrap();
        d.app_write("com.a", "/data/data/com.a/cache/ad1.dex", vec![1])
            .unwrap();
        d.hooks.intercept(crate::hooks::InterceptedBinary {
            path: "/data/data/com.a/cache/ad1.dex".to_string(),
            data: vec![1],
            kind: crate::events::DclKind::DexClassLoader,
            call_site_class: "com.ads.X".to_string(),
            package: "com.a".to_string(),
        });
        assert!(d.app_delete("com.a", "/data/data/com.a/cache/ad1.dex"));
        // Still there: the hook silently blocked the delete.
        assert!(d.fs.exists("/data/data/com.a/cache/ad1.dex"));
    }

    #[test]
    fn delete_without_hook_removes() {
        let mut d = Device::new(DeviceConfig::default());
        d.install(&minimal_apk("com.a")).unwrap();
        d.app_write("com.a", "/data/data/com.a/cache/x", vec![1])
            .unwrap();
        assert!(d.app_delete("com.a", "/data/data/com.a/cache/x"));
        assert!(!d.fs.exists("/data/data/com.a/cache/x"));
    }

    #[test]
    fn rename_records_flow_edge() {
        let mut d = Device::new(DeviceConfig::default());
        d.install(&minimal_apk("com.a")).unwrap();
        d.app_write("com.a", "/data/data/com.a/cache/t", vec![1])
            .unwrap();
        assert!(d.app_rename(
            "com.a",
            "/data/data/com.a/cache/t",
            "/data/data/com.a/files/t"
        ));
        assert!(d.fs.exists("/data/data/com.a/files/t"));
    }

    #[test]
    fn launch_unknown_package() {
        let mut d = Device::new(DeviceConfig::default());
        assert!(matches!(d.launch("nope"), Err(AvmError::NotInstalled(_))));
    }

    #[test]
    fn launch_runs_main_activity() {
        let mut d = Device::new(DeviceConfig::default());
        d.install(&minimal_apk("com.a")).unwrap();
        let p = d.launch("com.a").unwrap();
        assert!(p.alive);
    }
}
