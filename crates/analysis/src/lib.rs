//! # dydroid-analysis
//!
//! The static-analysis half of DyDroid:
//!
//! - [`decompiler`] — the baksmali/apktool equivalent: unpack an APK and
//!   parse its bytecode once into a shared `DexFile` (smali text only on
//!   demand, via `dydroid_dex::smali::disassemble`), with the realistic
//!   failure modes (anti-decompilation, anti-repackaging) that Table II's
//!   failure rows measure, plus the permission-injecting rewriter;
//! - [`filter`] — the static pre-filter for DCL-related code, scanning the
//!   parsed `DexFile`;
//! - [`obfuscation`] — detectors for the five hardening techniques of
//!   Table VI, including the three-rule DEX-encryption pattern, also over
//!   the parsed `DexFile`;
//! - [`entity`] — own vs. third-party attribution from call-site classes;
//! - [`taint`] — a FlowDroid-like data-flow analysis over intercepted DEX
//!   code with the paper's modified entry-point rule (Table X);
//! - [`mail`] + [`acfg`] — a DroidNative-like malware detector: translate
//!   DEX *and* native code to a MAIL-like IR, build annotated control-flow
//!   graphs, and subgraph-match against trained family signatures
//!   (Table VII);
//! - [`vuln`] — the code-injection vulnerability classifier (Table IX).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acfg;
pub mod decompiler;
pub mod entity;
pub mod filter;
pub mod mail;
pub mod obfuscation;
pub mod taint;
pub mod vuln;
pub mod wordlist;

pub use acfg::{Acfg, BinarySig, BlockSig, DetectorStats, FamilyMatch, MalwareDetector};
pub use decompiler::{DecompileError, DecompiledApp};
pub use entity::Entity;
pub use filter::DclFilter;
pub use obfuscation::{ObfuscationReport, Technique};
pub use taint::{Leak, PrivacyCategory, PrivacyType, TaintAnalysis};
pub use vuln::VulnKind;
