//! Byte-level pins of the dex codec, taken against a generated corpus.
//!
//! `corpus_bytes_are_pinned` fixes every byte the generator emits at
//! scale 0.05, seed 7: the app count, the total bytes and one FNV-1a
//! digest over every APK and every fixture in corpus order. A codec
//! change that moves one encoded byte fails here.
//!
//! `codec_failure_modes_are_pinned` fixes what the parsers say about
//! damaged input. For one corpus APK, its `classes.dex` and one of its
//! native libraries, it parses every prefix and, for every 64th byte, a
//! copy with that byte flipped, and digests the `Debug` text of each
//! result. Table II's decompile-failure classes are read from these
//! errors, so a change that moves one `Err` (or one `Ok`) fails here.

use std::fmt::{self, Debug, Write};

use dydroid_dex::{Apk, DexFile, NativeLibrary};
use dydroid_workload::{generate, CorpusSpec};

/// FNV-1a 64, fed incrementally (bytes or formatted text).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Length-prefixed bytes, so adjacent fields cannot run together.
    fn field(&mut self, bytes: &[u8]) {
        self.bytes(&(bytes.len() as u64).to_le_bytes());
        self.bytes(bytes);
    }
}

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// `(apps, total bytes, FNV-1a digest)` of `generate(scale 0.05, seed 7)`.
const CORPUS: (usize, usize, u64) = (2_937, 4_129_649, 0xba29_77be_20e6_10fd);

#[test]
fn corpus_bytes_are_pinned() {
    let corpus = generate(&CorpusSpec {
        scale: 0.05,
        seed: 7,
    });
    let mut h = Fnv::new();
    let mut total = 0;
    for app in &corpus {
        h.field(app.package().as_bytes());
        h.field(&app.apk);
        total += app.apk.len();
        for (domain, path, bytes) in &app.remote_resources {
            h.field(domain.as_bytes());
            h.field(path.as_bytes());
            h.field(bytes);
            total += bytes.len();
        }
        for (path, owner, bytes) in &app.device_files {
            h.field(path.as_bytes());
            h.field(owner.as_bytes());
            h.field(bytes);
            total += bytes.len();
        }
    }
    assert_eq!(
        (corpus.len(), total, h.0),
        CORPUS,
        "generate(scale 0.05, seed 7) moved"
    );
}

/// Digests `parse`'s `Debug` text for every prefix of `data` and for a
/// copy with each 64th byte flipped.
fn damage_digest<T: Debug>(data: &[u8], parse: impl Fn(&[u8]) -> T) -> u64 {
    let mut h = Fnv::new();
    for len in 0..=data.len() {
        write!(h, "{:?}", parse(&data[..len])).unwrap();
    }
    let mut copy = data.to_vec();
    for at in (0..data.len()).step_by(64) {
        copy[at] ^= 0xFF;
        write!(h, "{:?}", parse(&copy)).unwrap();
        copy[at] ^= 0xFF;
    }
    h.0
}

/// `(apk, classes.dex, native library)` damage digests.
const FAILURE_MODES: (u64, u64, u64) = (
    0x79b0_7cf1_f5b7_8157,
    0xfc0e_230d_4b0b_f610,
    0x3a02_16ef_d6c0_84fc,
);

#[test]
fn codec_failure_modes_are_pinned() {
    let corpus = generate(&CorpusSpec {
        scale: 0.01,
        seed: 7,
    });
    // The first app that ships a native library.
    let (apk_bytes, apk) = corpus
        .iter()
        .map(|app| (&app.apk, Apk::parse(&app.apk).expect("corpus apk parses")))
        .find(|(_, apk)| apk.entries_under("lib/").next().is_some())
        .expect("the corpus ships a native library");
    let dex = apk.entry("classes.dex").expect("classes.dex");
    let lib = &apk.entries_under("lib/").next().unwrap().data;
    assert!(DexFile::parse(dex).is_ok() && NativeLibrary::parse(lib).is_ok());
    let digests = (
        damage_digest(apk_bytes, Apk::parse),
        damage_digest(dex, DexFile::parse),
        damage_digest(lib, NativeLibrary::parse),
    );
    assert_eq!(
        digests, FAILURE_MODES,
        "a parse result on damaged input moved"
    );
}
