//! The AndroidManifest model.
//!
//! Serialised as a simple line-oriented text format (standing in for binary
//! AXML) inside the APK entry `AndroidManifest.xml`.

use std::fmt;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

/// Errors from manifest parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// A required field was missing.
    Missing(&'static str),
    /// A line could not be interpreted.
    BadLine(String),
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Missing(what) => write!(f, "manifest missing {what}"),
            ManifestError::BadLine(line) => write!(f, "unparseable manifest line: {line:?}"),
        }
    }
}

impl std::error::Error for ManifestError {}

/// The kind of an application component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ComponentKind {
    /// `<activity>`.
    Activity,
    /// `<service>`.
    Service,
    /// `<receiver>`.
    Receiver,
    /// `<provider>`.
    Provider,
}

impl ComponentKind {
    /// The manifest tag name.
    pub fn tag(self) -> &'static str {
        match self {
            ComponentKind::Activity => "activity",
            ComponentKind::Service => "service",
            ComponentKind::Receiver => "receiver",
            ComponentKind::Provider => "provider",
        }
    }

    /// Parses a tag name.
    pub fn from_tag(tag: &str) -> Option<Self> {
        Some(match tag {
            "activity" => ComponentKind::Activity,
            "service" => ComponentKind::Service,
            "receiver" => ComponentKind::Receiver,
            "provider" => ComponentKind::Provider,
            _ => return None,
        })
    }
}

/// A declared application component.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Component {
    /// Component kind.
    pub kind: ComponentKind,
    /// Dotted class name implementing the component.
    pub class: String,
    /// Whether the component is exported.
    pub exported: bool,
    /// Whether this is the launcher entry point (activities only).
    pub main: bool,
}

impl Component {
    /// A non-exported component of the given kind.
    pub fn new(kind: ComponentKind, class: impl Into<String>) -> Self {
        Component {
            kind,
            class: class.into(),
            exported: false,
            main: false,
        }
    }

    /// A launcher activity.
    pub fn main_activity(class: impl Into<String>) -> Self {
        Component {
            kind: ComponentKind::Activity,
            class: class.into(),
            exported: true,
            main: true,
        }
    }
}

/// The Android manifest: package identity, SDK levels, permissions,
/// the optional custom `Application` class and the component list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Application package name, e.g. `com.example.app`.
    pub package: String,
    /// Version code.
    pub version_code: u32,
    /// `minSdkVersion`.
    pub min_sdk: u32,
    /// `targetSdkVersion`.
    pub target_sdk: u32,
    /// Requested permissions, e.g. `android.permission.INTERNET`.
    pub permissions: Vec<String>,
    /// The `android:name` attribute of `<application>`: a custom
    /// [`Application`](https://developer.android.com/reference/android/app/Application)
    /// subclass run before any component — the packer container hook the
    /// obfuscation detector looks for.
    pub application_class: Option<String>,
    /// Declared components.
    pub components: Vec<Component>,
}

impl Manifest {
    /// Creates a minimal manifest for `package` with no components.
    pub fn new(package: impl Into<String>) -> Self {
        Manifest {
            package: package.into(),
            version_code: 1,
            min_sdk: 9,
            target_sdk: 18,
            permissions: Vec::new(),
            application_class: None,
            components: Vec::new(),
        }
    }

    /// Whether `permission` is requested.
    pub fn has_permission(&self, permission: &str) -> bool {
        self.permissions.iter().any(|p| p == permission)
    }

    /// Adds `permission` if not already present.
    pub fn add_permission(&mut self, permission: impl Into<String>) {
        let p = permission.into();
        if !self.has_permission(&p) {
            self.permissions.push(p);
        }
    }

    /// The launcher activity class, if one is declared.
    pub fn main_activity(&self) -> Option<&Component> {
        self.components
            .iter()
            .find(|c| c.kind == ComponentKind::Activity && c.main)
    }

    /// All activity components.
    pub fn activities(&self) -> impl Iterator<Item = &Component> {
        self.components
            .iter()
            .filter(|c| c.kind == ComponentKind::Activity)
    }

    /// Whether the app supports OS versions below Android 4.4 (API 19) —
    /// relevant to the external-storage code-injection vulnerability.
    pub fn supports_pre_kitkat(&self) -> bool {
        self.min_sdk < 19
    }

    /// Serialises to the line-oriented text format.
    pub fn to_text(&self) -> String {
        // Writing into a `String` cannot fail.
        let mut out = String::new();
        let _ = writeln!(out, "package: {}", self.package);
        let _ = writeln!(out, "version-code: {}", self.version_code);
        let _ = writeln!(out, "min-sdk: {}", self.min_sdk);
        let _ = writeln!(out, "target-sdk: {}", self.target_sdk);
        for p in &self.permissions {
            let _ = writeln!(out, "uses-permission: {p}");
        }
        if let Some(app) = &self.application_class {
            let _ = writeln!(out, "application: {app}");
        }
        for c in &self.components {
            let _ = writeln!(
                out,
                "{}: {} exported={} main={}",
                c.kind.tag(),
                c.class,
                c.exported,
                c.main
            );
        }
        out
    }

    /// Parses the line-oriented text format produced by [`Manifest::to_text`].
    ///
    /// # Errors
    ///
    /// Returns [`ManifestError`] when a required field is missing or a line
    /// is malformed.
    pub fn parse(text: &str) -> Result<Self, ManifestError> {
        let mut package = None;
        let mut version_code = 1;
        let mut min_sdk = 9;
        let mut target_sdk = 18;
        let mut permissions = Vec::new();
        let mut application_class = None;
        let mut components = Vec::new();

        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once(':')
                .ok_or_else(|| ManifestError::BadLine(line.to_string()))?;
            let value = value.trim();
            match key.trim() {
                "package" => package = Some(value.to_string()),
                "version-code" => {
                    version_code = value
                        .parse()
                        .map_err(|_| ManifestError::BadLine(line.to_string()))?;
                }
                "min-sdk" => {
                    min_sdk = value
                        .parse()
                        .map_err(|_| ManifestError::BadLine(line.to_string()))?;
                }
                "target-sdk" => {
                    target_sdk = value
                        .parse()
                        .map_err(|_| ManifestError::BadLine(line.to_string()))?;
                }
                "uses-permission" => permissions.push(value.to_string()),
                "application" => application_class = Some(value.to_string()),
                tag => {
                    let kind = ComponentKind::from_tag(tag)
                        .ok_or_else(|| ManifestError::BadLine(line.to_string()))?;
                    let mut parts = value.split_whitespace();
                    let class = parts
                        .next()
                        .ok_or_else(|| ManifestError::BadLine(line.to_string()))?
                        .to_string();
                    let mut exported = false;
                    let mut main = false;
                    for attr in parts {
                        match attr {
                            "exported=true" => exported = true,
                            "exported=false" => exported = false,
                            "main=true" => main = true,
                            "main=false" => main = false,
                            _ => return Err(ManifestError::BadLine(line.to_string())),
                        }
                    }
                    components.push(Component {
                        kind,
                        class,
                        exported,
                        main,
                    });
                }
            }
        }
        Ok(Manifest {
            package: package.ok_or(ManifestError::Missing("package"))?,
            version_code,
            min_sdk,
            target_sdk,
            permissions,
            application_class,
            components,
        })
    }
}

/// Commonly used permission name: write access to external storage.
pub const WRITE_EXTERNAL_STORAGE: &str = "android.permission.WRITE_EXTERNAL_STORAGE";
/// Commonly used permission name: network access.
pub const INTERNET: &str = "android.permission.INTERNET";
/// Commonly used permission name: coarse/fine location (folded into one).
pub const ACCESS_FINE_LOCATION: &str = "android.permission.ACCESS_FINE_LOCATION";
/// Commonly used permission name: read phone state (IMEI etc.).
pub const READ_PHONE_STATE: &str = "android.permission.READ_PHONE_STATE";

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        let mut m = Manifest::new("com.example.app");
        m.version_code = 7;
        m.min_sdk = 14;
        m.target_sdk = 18;
        m.add_permission(INTERNET);
        m.add_permission(WRITE_EXTERNAL_STORAGE);
        m.application_class = Some("com.example.app.App".to_string());
        m.components
            .push(Component::main_activity("com.example.app.Main"));
        m.components.push(Component::new(
            ComponentKind::Service,
            "com.example.app.Svc",
        ));
        m
    }

    #[test]
    fn text_round_trip() {
        let m = sample();
        let text = m.to_text();
        let back = Manifest::parse(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn missing_package_rejected() {
        assert_eq!(
            Manifest::parse("min-sdk: 9\n"),
            Err(ManifestError::Missing("package"))
        );
    }

    #[test]
    fn bad_line_rejected() {
        assert!(Manifest::parse("package: a\ngarbage line").is_err());
        assert!(Manifest::parse("package: a\nwidget: X").is_err());
        assert!(Manifest::parse("package: a\nmin-sdk: NaN").is_err());
    }

    #[test]
    fn permission_dedup() {
        let mut m = Manifest::new("a");
        m.add_permission(INTERNET);
        m.add_permission(INTERNET);
        assert_eq!(m.permissions.len(), 1);
        assert!(m.has_permission(INTERNET));
    }

    #[test]
    fn main_activity_lookup() {
        let m = sample();
        assert_eq!(m.main_activity().unwrap().class, "com.example.app.Main");
        assert_eq!(m.activities().count(), 1);
    }

    #[test]
    fn pre_kitkat_check() {
        let mut m = Manifest::new("a");
        m.min_sdk = 14;
        assert!(m.supports_pre_kitkat());
        m.min_sdk = 19;
        assert!(!m.supports_pre_kitkat());
    }
}
