//! The unpack/decompile/repackage front-end (baksmali + apktool stand-in).
//!
//! Mirrors the paper's implementation section: the APK is unpacked and
//! its `classes.dex` parsed once into a shared [`DexFile`]; apps that need
//! it are rewritten with `WRITE_EXTERNAL_STORAGE` injected and repacked.
//! The filter and the obfuscation analysis scan the parsed `DexFile`
//! directly, and the pipeline hands the same `Arc` on to install and
//! every launch; smali text is rendered only on demand, through
//! [`dydroid_dex::smali::disassemble`]. Both steps have the failure modes
//! the measurement reports in Table II:
//!
//! - **anti-decompilation**: some apps exploit a known decompiler bug —
//!   modeled faithfully as a real pattern our decompiler refuses to
//!   handle: a method whose *first* instruction is a self-targeting
//!   `goto` (a valid-for-the-VM but degenerate loop header that breaks
//!   the decompiler's block-ordering assumption, as apktool's bug did);
//! - **anti-repackaging**: apps carrying a resource-table trap entry
//!   (`res/raw/.pack`) that crashes the rebuild step, as packers do to
//!   apktool.

use dydroid_dex::manifest::WRITE_EXTERNAL_STORAGE;
use dydroid_dex::{Apk, ApkError, DexFile, Instruction, Manifest};

use std::fmt;
use std::sync::Arc;

/// The resource-table entry packers plant to break repackaging.
pub const ANTI_REPACK_TRAP: &str = "res/raw/.pack";

/// Decompilation/repackaging errors.
#[derive(Debug, Clone, PartialEq)]
pub enum DecompileError {
    /// The archive or a mandatory entry failed to parse.
    Unpack(ApkError),
    /// The app triggers the decompiler's anti-decompilation bug.
    AntiDecompilation {
        /// Class containing the trigger pattern.
        class: String,
    },
    /// The rebuild step crashed (anti-repackaging).
    AntiRepackaging,
}

impl fmt::Display for DecompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecompileError::Unpack(e) => write!(f, "unpack failed: {e}"),
            DecompileError::AntiDecompilation { class } => {
                write!(
                    f,
                    "decompiler crashed on class {class} (anti-decompilation)"
                )
            }
            DecompileError::AntiRepackaging => write!(f, "repackaging crashed (anti-repackaging)"),
        }
    }
}

impl std::error::Error for DecompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DecompileError::Unpack(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ApkError> for DecompileError {
    fn from(e: ApkError) -> Self {
        DecompileError::Unpack(e)
    }
}

/// A successfully decompiled app: parsed manifest and parsed classes,
/// which the downstream detectors scan directly.
#[derive(Debug, Clone)]
pub struct DecompiledApp {
    /// Parsed manifest.
    pub manifest: Manifest,
    /// Parsed primary DEX, shared with the device the app is installed on.
    pub classes: Arc<DexFile>,
    /// The archive itself (assets/lib inspection).
    pub apk: Apk,
}

impl DecompiledApp {
    /// The application package name.
    pub fn package(&self) -> &str {
        &self.manifest.package
    }
}

/// Whether a DEX file contains the decompiler-killing pattern.
fn has_anti_decompilation_pattern(dex: &DexFile) -> Option<String> {
    for (class, method) in dex.methods() {
        if let Some(Instruction::Goto { target: 0 }) = method.code.first() {
            return Some(class.name.clone());
        }
    }
    None
}

/// Unpacks and decompiles an APK.
///
/// # Errors
///
/// Returns [`DecompileError::Unpack`] for malformed archives and
/// [`DecompileError::AntiDecompilation`] when the decompiler bug triggers.
pub fn decompile(apk_bytes: &[u8]) -> Result<DecompiledApp, DecompileError> {
    let apk = Apk::parse(apk_bytes)?;
    let manifest = apk.manifest()?;
    let classes = apk.classes()?;
    if let Some(class) = has_anti_decompilation_pattern(&classes) {
        return Err(DecompileError::AntiDecompilation { class });
    }
    Ok(DecompiledApp {
        manifest,
        classes: Arc::new(classes),
        apk,
    })
}

/// Whether an app needs rewriting before dynamic analysis: the paper's
/// harness stores logs on external storage, so the permission must exist.
pub fn needs_rewriting(manifest: &Manifest) -> bool {
    !manifest.has_permission(WRITE_EXTERNAL_STORAGE)
}

/// Rewrites the app to add `WRITE_EXTERNAL_STORAGE` and repacks it.
///
/// # Errors
///
/// Returns [`DecompileError::AntiRepackaging`] when the app carries the
/// repack trap.
pub fn repackage_with_permission(app: &DecompiledApp) -> Result<Vec<u8>, DecompileError> {
    if app.apk.entry(ANTI_REPACK_TRAP).is_some() {
        return Err(DecompileError::AntiRepackaging);
    }
    let mut apk = app.apk.clone();
    let mut manifest = app.manifest.clone();
    manifest.add_permission(WRITE_EXTERNAL_STORAGE);
    apk.set_manifest(&manifest);
    Ok(apk.to_bytes())
}

/// Convenience: decompile, then produce the (possibly rewritten) APK bytes
/// ready for installation, reporting whether rewriting happened.
///
/// # Errors
///
/// Propagates both failure modes.
pub fn prepare_for_dynamic_analysis(
    apk_bytes: &[u8],
) -> Result<(DecompiledApp, Vec<u8>, bool), DecompileError> {
    let app = decompile(apk_bytes)?;
    if needs_rewriting(&app.manifest) {
        let rewritten = repackage_with_permission(&app)?;
        Ok((app, rewritten, true))
    } else {
        Ok((app, apk_bytes.to_vec(), false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dydroid_dex::builder::DexBuilder;
    use dydroid_dex::{smali, AccessFlags, Component};

    fn plain_apk(pkg: &str) -> Apk {
        let mut manifest = Manifest::new(pkg);
        manifest
            .components
            .push(Component::main_activity(format!("{pkg}.Main")));
        let mut b = DexBuilder::new();
        b.class(format!("{pkg}.Main"), "android.app.Activity")
            .method("onCreate", "()V", AccessFlags::PUBLIC)
            .ret_void();
        Apk::build(manifest, b.build())
    }

    #[test]
    fn decompiles_plain_app() {
        let app = decompile(&plain_apk("com.a").to_bytes()).unwrap();
        assert_eq!(app.package(), "com.a");
        // smali is rendered on demand from the parsed classes.
        assert!(smali::disassemble(&app.classes).contains(".class public Lcom/a/Main;"));
    }

    #[test]
    fn garbage_fails_unpack() {
        assert!(matches!(
            decompile(b"not an apk"),
            Err(DecompileError::Unpack(_))
        ));
    }

    #[test]
    fn anti_decompilation_pattern_crashes_decompiler() {
        let mut manifest = Manifest::new("com.anti");
        manifest
            .components
            .push(Component::main_activity("com.anti.Main"));
        let mut b = DexBuilder::new();
        {
            let c = b.class("com.anti.Main", "android.app.Activity");
            c.method("onCreate", "()V", AccessFlags::PUBLIC).ret_void();
            // The degenerate self-loop head that kills the decompiler.
            let m = c.method("trap", "()V", AccessFlags::PRIVATE);
            let head = m.label();
            m.bind(head);
            m.goto(head);
        }
        let apk = Apk::build(manifest, b.build());
        // The *device* can still install and run this app...
        let mut device = dydroid_avm::Device::new(dydroid_avm::DeviceConfig::default());
        assert!(device.install(&apk.to_bytes()).is_ok());
        // ...but the decompiler crashes.
        assert!(matches!(
            decompile(&apk.to_bytes()),
            Err(DecompileError::AntiDecompilation { class }) if class == "com.anti.Main"
        ));
    }

    #[test]
    fn rewriting_injects_permission() {
        let apk = plain_apk("com.a");
        let app = decompile(&apk.to_bytes()).unwrap();
        assert!(needs_rewriting(&app.manifest));
        let rewritten = repackage_with_permission(&app).unwrap();
        let reparsed = decompile(&rewritten).unwrap();
        assert!(reparsed.manifest.has_permission(WRITE_EXTERNAL_STORAGE));
        assert!(!needs_rewriting(&reparsed.manifest));
    }

    #[test]
    fn rewriting_skipped_when_permission_present() {
        let mut apk = plain_apk("com.a");
        let mut m = apk.manifest().unwrap();
        m.add_permission(WRITE_EXTERNAL_STORAGE);
        apk.set_manifest(&m);
        let (_, bytes, rewritten) = prepare_for_dynamic_analysis(&apk.to_bytes()).unwrap();
        assert!(!rewritten);
        assert_eq!(bytes, apk.to_bytes());
    }

    #[test]
    fn anti_repackaging_trap_crashes_rebuild() {
        let mut apk = plain_apk("com.packtrap");
        apk.put(ANTI_REPACK_TRAP, vec![0xDE, 0xAD]);
        let result = prepare_for_dynamic_analysis(&apk.to_bytes());
        assert!(matches!(result, Err(DecompileError::AntiRepackaging)));
    }

    #[test]
    fn display_forms() {
        assert!(DecompileError::AntiRepackaging
            .to_string()
            .contains("repackaging"));
        assert!(DecompileError::AntiDecompilation {
            class: "x.Y".into()
        }
        .to_string()
        .contains("x.Y"));
    }
}
