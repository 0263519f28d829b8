//! The APK-like archive container.
//!
//! A simplified stand-in for ZIP: a magic header followed by named entries,
//! each carrying a CRC-32 that is verified on read. Provides the standard
//! well-known entries (`AndroidManifest.xml`, `classes.dex`, `assets/…`,
//! `lib/…`) plus anti-repackaging and anti-decompilation markers that the
//! decompiler failure modes in Table II exercise.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::checksum::crc32;
use crate::dexfile::DexFile;
use crate::encode::{Reader, Writer};
use crate::manifest::Manifest;
use crate::{DexError, ManifestError};

/// Magic bytes of an encoded archive.
pub const APK_MAGIC: &[u8; 4] = b"SAPK";

/// Errors produced by APK packing and unpacking.
#[derive(Debug, Clone, PartialEq)]
pub enum ApkError {
    /// The file does not start with [`APK_MAGIC`].
    BadMagic,
    /// An entry's stored CRC-32 does not match its data.
    CrcMismatch {
        /// Entry path.
        entry: String,
    },
    /// The archive ended early or an entry is malformed.
    Malformed(String),
    /// A well-known entry is missing.
    MissingEntry(&'static str),
    /// The embedded manifest failed to parse.
    Manifest(ManifestError),
    /// The embedded `classes.dex` failed to parse.
    Dex(DexError),
}

impl fmt::Display for ApkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApkError::BadMagic => write!(f, "bad magic, not an apk"),
            ApkError::CrcMismatch { entry } => write!(f, "crc mismatch in entry {entry:?}"),
            ApkError::Malformed(msg) => write!(f, "malformed apk: {msg}"),
            ApkError::MissingEntry(e) => write!(f, "apk missing entry {e:?}"),
            ApkError::Manifest(e) => write!(f, "apk manifest: {e}"),
            ApkError::Dex(e) => write!(f, "apk classes.dex: {e}"),
        }
    }
}

impl std::error::Error for ApkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ApkError::Manifest(e) => Some(e),
            ApkError::Dex(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ManifestError> for ApkError {
    fn from(e: ManifestError) -> Self {
        ApkError::Manifest(e)
    }
}

impl From<DexError> for ApkError {
    fn from(e: DexError) -> Self {
        ApkError::Dex(e)
    }
}

/// One named entry in the archive.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ApkEntry {
    /// Entry path, e.g. `classes.dex` or `assets/payload.bin`.
    pub path: String,
    /// Raw entry bytes.
    pub data: Vec<u8>,
}

impl ApkEntry {
    /// Creates an entry.
    pub fn new(path: impl Into<String>, data: Vec<u8>) -> Self {
        ApkEntry {
            path: path.into(),
            data,
        }
    }
}

/// Well-known entry path of the manifest.
pub const MANIFEST_ENTRY: &str = "AndroidManifest.xml";
/// Well-known entry path of the primary bytecode.
pub const CLASSES_ENTRY: &str = "classes.dex";

/// An APK-like archive: an ordered list of entries.
///
/// # Example
///
/// ```
/// use dydroid_dex::{Apk, DexFile, Manifest};
///
/// let apk = Apk::build(Manifest::new("com.example.app"), DexFile::new());
/// let bytes = apk.to_bytes();
/// let back = Apk::parse(&bytes)?;
/// assert_eq!(back.manifest()?.package, "com.example.app");
/// # Ok::<(), dydroid_dex::ApkError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Apk {
    entries: Vec<ApkEntry>,
}

impl Apk {
    /// Creates an empty archive.
    pub fn new() -> Self {
        Apk {
            entries: Vec::new(),
        }
    }

    /// Builds an archive with the two mandatory entries.
    pub fn build(manifest: Manifest, classes: DexFile) -> Self {
        let mut apk = Apk::new();
        apk.put(MANIFEST_ENTRY, manifest.to_text().into_bytes());
        apk.put(CLASSES_ENTRY, classes.to_bytes());
        apk
    }

    /// Inserts or replaces an entry by path.
    pub fn put(&mut self, path: impl Into<String>, data: Vec<u8>) {
        let path = path.into();
        if let Some(e) = self.entries.iter_mut().find(|e| e.path == path) {
            e.data = data;
        } else {
            self.entries.push(ApkEntry::new(path, data));
        }
    }

    /// Looks up an entry's bytes.
    pub fn entry(&self, path: &str) -> Option<&[u8]> {
        self.entries
            .iter()
            .find(|e| e.path == path)
            .map(|e| e.data.as_slice())
    }

    /// Removes an entry; returns whether it existed.
    pub fn remove(&mut self, path: &str) -> bool {
        let before = self.entries.len();
        self.entries.retain(|e| e.path != path);
        self.entries.len() != before
    }

    /// All entries in insertion order.
    pub fn entries(&self) -> &[ApkEntry] {
        &self.entries
    }

    /// Entries under a path prefix, e.g. `assets/` or `lib/`.
    pub fn entries_under<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a ApkEntry> {
        self.entries
            .iter()
            .filter(move |e| e.path.starts_with(prefix))
    }

    /// Parses and returns the manifest.
    ///
    /// # Errors
    ///
    /// Returns [`ApkError::MissingEntry`] or [`ApkError::Manifest`].
    pub fn manifest(&self) -> Result<Manifest, ApkError> {
        let data = self
            .entry(MANIFEST_ENTRY)
            .ok_or(ApkError::MissingEntry(MANIFEST_ENTRY))?;
        let text = std::str::from_utf8(data)
            .map_err(|_| ApkError::Malformed("manifest is not UTF-8".to_string()))?;
        Ok(Manifest::parse(text)?)
    }

    /// Replaces the manifest entry.
    pub fn set_manifest(&mut self, manifest: &Manifest) {
        self.put(MANIFEST_ENTRY, manifest.to_text().into_bytes());
    }

    /// Parses and returns the primary `classes.dex`.
    ///
    /// # Errors
    ///
    /// Returns [`ApkError::MissingEntry`] or [`ApkError::Dex`].
    pub fn classes(&self) -> Result<DexFile, ApkError> {
        let data = self
            .entry(CLASSES_ENTRY)
            .ok_or(ApkError::MissingEntry(CLASSES_ENTRY))?;
        Ok(DexFile::parse(data)?)
    }

    /// Replaces the `classes.dex` entry.
    pub fn set_classes(&mut self, classes: &DexFile) {
        self.put(CLASSES_ENTRY, classes.to_bytes());
    }

    /// Serialises the archive into an exact-size buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let len = self.entries.iter().fold(APK_MAGIC.len() + 4, |n, e| {
            n + 4 + e.path.len() + 4 + 4 + e.data.len()
        });
        let mut w = Writer::with_capacity(len);
        w.bytes(APK_MAGIC);
        w.u32(self.entries.len() as u32);
        for e in &self.entries {
            w.str(&e.path);
            w.u32(crc32(&e.data));
            w.blob(&e.data);
        }
        w.into_bytes()
    }

    /// Parses an archive, verifying per-entry CRCs.
    ///
    /// # Errors
    ///
    /// Returns [`ApkError::BadMagic`], [`ApkError::Malformed`] on structural
    /// problems, or [`ApkError::CrcMismatch`] on corrupted entries.
    pub fn parse(data: &[u8]) -> Result<Self, ApkError> {
        let mut r = Reader::new(data);
        let magic = r
            .take(4, "apk magic")
            .map_err(|e| ApkError::Malformed(e.to_string()))?;
        if magic != APK_MAGIC {
            return Err(ApkError::BadMagic);
        }
        let count = r
            .u32("entry count")
            .map_err(|e| ApkError::Malformed(e.to_string()))?;
        let mut entries = Vec::with_capacity(count.min(65_536) as usize);
        for _ in 0..count {
            let path = r
                .str("entry path")
                .map_err(|e| ApkError::Malformed(e.to_string()))?
                .to_string();
            let stored_crc = r
                .u32("entry crc")
                .map_err(|e| ApkError::Malformed(e.to_string()))?;
            let data = r
                .blob("entry data")
                .map_err(|e| ApkError::Malformed(e.to_string()))?;
            if crc32(data) != stored_crc {
                return Err(ApkError::CrcMismatch { entry: path });
            }
            entries.push(ApkEntry {
                path,
                data: data.to_vec(),
            });
        }
        Ok(Apk { entries })
    }

    /// Total payload size across entries, in bytes.
    pub fn payload_size(&self) -> usize {
        self.entries.iter().map(|e| e.data.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassDef;

    fn sample() -> Apk {
        let mut dex = DexFile::new();
        dex.add_class(ClassDef::new("com.example.Main", "java.lang.Object"));
        let mut apk = Apk::build(Manifest::new("com.example.app"), dex);
        apk.put("assets/payload.bin", vec![1, 2, 3, 4]);
        apk.put("lib/armeabi/libnative.so", vec![9, 9]);
        apk
    }

    #[test]
    fn round_trip() {
        let apk = sample();
        let back = Apk::parse(&apk.to_bytes()).unwrap();
        assert_eq!(back, apk);
    }

    #[test]
    fn manifest_and_classes_accessors() {
        let apk = sample();
        assert_eq!(apk.manifest().unwrap().package, "com.example.app");
        assert_eq!(apk.classes().unwrap().classes().len(), 1);
    }

    #[test]
    fn encoders_return_exact_size_buffers() {
        // Corpus APKs and payloads are kept for a whole run: no slack.
        let apk = sample();
        let bytes = apk.to_bytes();
        assert_eq!(bytes.capacity(), bytes.len());
        let dex = apk.classes().unwrap().to_bytes();
        assert_eq!(dex.capacity(), dex.len());
        let empty = DexFile::new().to_bytes();
        assert_eq!(empty.capacity(), empty.len());
    }

    #[test]
    fn bad_magic() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'Z';
        assert_eq!(Apk::parse(&bytes), Err(ApkError::BadMagic));
    }

    #[test]
    fn entry_corruption_detected() {
        let apk = sample();
        let mut bytes = apk.to_bytes();
        // Flip a byte near the end (inside the last entry's data).
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(matches!(
            Apk::parse(&bytes),
            Err(ApkError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn truncated_archive_is_malformed() {
        let bytes = sample().to_bytes();
        assert!(matches!(
            Apk::parse(&bytes[..bytes.len() - 3]),
            Err(ApkError::Malformed(_) | ApkError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn put_replaces() {
        let mut apk = sample();
        let n = apk.entries().len();
        apk.put("assets/payload.bin", vec![7]);
        assert_eq!(apk.entries().len(), n);
        assert_eq!(apk.entry("assets/payload.bin"), Some(&[7u8][..]));
    }

    #[test]
    fn remove_entry() {
        let mut apk = sample();
        assert!(apk.remove("assets/payload.bin"));
        assert!(!apk.remove("assets/payload.bin"));
        assert!(apk.entry("assets/payload.bin").is_none());
    }

    #[test]
    fn entries_under_prefix() {
        let apk = sample();
        assert_eq!(apk.entries_under("assets/").count(), 1);
        assert_eq!(apk.entries_under("lib/").count(), 1);
        assert_eq!(apk.entries_under("res/").count(), 0);
    }

    #[test]
    fn missing_entries_reported() {
        let apk = Apk::new();
        assert_eq!(apk.manifest(), Err(ApkError::MissingEntry(MANIFEST_ENTRY)));
        assert_eq!(apk.classes(), Err(ApkError::MissingEntry(CLASSES_ENTRY)));
    }

    #[test]
    fn payload_size() {
        let apk = sample();
        assert!(apk.payload_size() > 6);
    }

    #[test]
    fn set_manifest_round_trip() {
        let mut apk = sample();
        let mut m = apk.manifest().unwrap();
        m.add_permission(crate::manifest::WRITE_EXTERNAL_STORAGE);
        apk.set_manifest(&m);
        assert!(apk
            .manifest()
            .unwrap()
            .has_permission(crate::manifest::WRITE_EXTERNAL_STORAGE));
    }
}
