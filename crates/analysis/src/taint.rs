//! FlowDroid-like static taint analysis over intercepted DEX code
//! (Section III-C-b, Table X).
//!
//! Differences from stock FlowDroid mirror the paper's modifications:
//! there is no manifest or layout available for the loaded code, so
//! *every public method is an entry point*; the analysis is context- and
//! flow-insensitive but field-sensitive at the `(class, field)` level and
//! interprocedural through call summaries iterated to a fixpoint.
//!
//! Sources are the 18 privacy types in 5 categories; sinks follow the
//! SuSi catalogue (logging, network output, SMS, file output).

use std::collections::HashMap;

use dydroid_dex::{DexFile, Instruction, Method};
use serde::{Deserialize, Serialize};

/// The five privacy categories of Table X.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PrivacyCategory {
    /// Real-time location (L).
    Location,
    /// Smartphone identifiers (PI).
    PhoneIdentity,
    /// User identifiers (UI).
    UserIdentity,
    /// Installed apps/packages (UP).
    UsagePattern,
    /// Default content providers (CP).
    ContentProvider,
}

/// The 18 privacy data types of Table X.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PrivacyType {
    /// GPS / network location.
    Location,
    /// IMEI.
    Imei,
    /// IMSI.
    Imsi,
    /// ICCID (SIM serial).
    Iccid,
    /// Phone number.
    PhoneNumber,
    /// Device accounts.
    Account,
    /// Installed applications.
    InstalledApplications,
    /// Installed packages.
    InstalledPackages,
    /// Contacts provider.
    Contact,
    /// Calendar provider.
    Calendar,
    /// Call log provider.
    CallLog,
    /// Browser history & bookmarks.
    Browser,
    /// Audio media store.
    Audio,
    /// Image media store.
    Image,
    /// Video media store.
    Video,
    /// System settings.
    Settings,
    /// MMS store.
    Mms,
    /// SMS store.
    Sms,
}

impl PrivacyType {
    /// All 18 types, in Table X order.
    pub const ALL: [PrivacyType; 18] = [
        PrivacyType::Location,
        PrivacyType::Imei,
        PrivacyType::Imsi,
        PrivacyType::Iccid,
        PrivacyType::PhoneNumber,
        PrivacyType::Account,
        PrivacyType::InstalledApplications,
        PrivacyType::InstalledPackages,
        PrivacyType::Contact,
        PrivacyType::Calendar,
        PrivacyType::CallLog,
        PrivacyType::Browser,
        PrivacyType::Audio,
        PrivacyType::Image,
        PrivacyType::Video,
        PrivacyType::Settings,
        PrivacyType::Mms,
        PrivacyType::Sms,
    ];

    /// The category this type belongs to.
    pub fn category(self) -> PrivacyCategory {
        use PrivacyType as P;
        match self {
            P::Location => PrivacyCategory::Location,
            P::Imei | P::Imsi | P::Iccid => PrivacyCategory::PhoneIdentity,
            P::PhoneNumber | P::Account => PrivacyCategory::UserIdentity,
            P::InstalledApplications | P::InstalledPackages => PrivacyCategory::UsagePattern,
            _ => PrivacyCategory::ContentProvider,
        }
    }

    /// Human-readable name as printed in Table X.
    pub fn label(self) -> &'static str {
        use PrivacyType as P;
        match self {
            P::Location => "Location",
            P::Imei => "IMEI",
            P::Imsi => "IMSI",
            P::Iccid => "ICCID",
            P::PhoneNumber => "Phone number",
            P::Account => "Account",
            P::InstalledApplications => "Installed applications",
            P::InstalledPackages => "Installed packages",
            P::Contact => "Contact",
            P::Calendar => "Calendar",
            P::CallLog => "CallLog",
            P::Browser => "Browser",
            P::Audio => "Audio",
            P::Image => "Image",
            P::Video => "Video",
            P::Settings => "Settings",
            P::Mms => "MMS",
            P::Sms => "SMS",
        }
    }

    fn bit(self) -> u32 {
        1 << (Self::ALL.iter().position(|t| *t == self).expect("in ALL") as u32)
    }

    fn from_mask(mask: u32) -> Vec<PrivacyType> {
        Self::ALL
            .iter()
            .copied()
            .filter(|t| mask & t.bit() != 0)
            .collect()
    }
}

/// Maps an API `(class, method)` to the privacy type it sources.
pub fn api_source(class: &str, method: &str) -> Option<PrivacyType> {
    Some(match (class, method) {
        ("android.telephony.TelephonyManager", "getDeviceId") => PrivacyType::Imei,
        ("android.telephony.TelephonyManager", "getSubscriberId") => PrivacyType::Imsi,
        ("android.telephony.TelephonyManager", "getSimSerialNumber") => PrivacyType::Iccid,
        ("android.telephony.TelephonyManager", "getLine1Number") => PrivacyType::PhoneNumber,
        ("android.location.LocationManager", "getLastKnownLocation") => PrivacyType::Location,
        ("android.accounts.AccountManager", "getAccounts") => PrivacyType::Account,
        ("android.content.pm.PackageManager", "getInstalledApplications") => {
            PrivacyType::InstalledApplications
        }
        ("android.content.pm.PackageManager", "getInstalledPackages") => {
            PrivacyType::InstalledPackages
        }
        ("android.provider.Settings", "getString") => PrivacyType::Settings,
        _ => return None,
    })
}

/// Maps a content-provider URI to the privacy type it exposes.
pub fn uri_source(uri: &str) -> Option<PrivacyType> {
    let table = [
        ("content://contacts", PrivacyType::Contact),
        ("content://com.android.calendar", PrivacyType::Calendar),
        ("content://call_log", PrivacyType::CallLog),
        ("content://browser", PrivacyType::Browser),
        ("content://media/audio", PrivacyType::Audio),
        ("content://media/images", PrivacyType::Image),
        ("content://media/video", PrivacyType::Video),
        ("content://settings", PrivacyType::Settings),
        ("content://mms", PrivacyType::Mms),
        ("content://sms", PrivacyType::Sms),
    ];
    table
        .iter()
        .find(|(prefix, _)| uri.starts_with(prefix))
        .map(|(_, t)| *t)
}

/// Whether an API `(class, method)` is a sink (SuSi-style list).
pub fn is_sink(class: &str, method: &str) -> bool {
    matches!(
        (class, method),
        ("android.util.Log", _)
            | (
                "java.io.OutputStream" | "java.io.FileOutputStream",
                "write" | "writeString"
            )
            | (
                "android.telephony.SmsManager",
                "sendTextMessage" | "sendDataMessage"
            )
            | ("org.apache.http.HttpClient", "execute")
            | ("java.io.Writer", "write")
    )
}

/// A detected source→sink flow.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Leak {
    /// The leaked privacy type.
    pub privacy: PrivacyType,
    /// The sink API (`class.method`).
    pub sink: String,
    /// Class containing the leaking call.
    pub class: String,
    /// Method containing the leaking call.
    pub method: String,
}

#[derive(Default, Clone)]
struct MethodSummary {
    param_taint: Vec<u32>,
    ret_taint: u32,
}

/// The taint analysis engine. Holds per-run state; use [`TaintAnalysis::run`].
#[derive(Debug, Default)]
pub struct TaintAnalysis {
    max_passes: usize,
}

impl TaintAnalysis {
    /// Creates an engine with the default fixpoint bound.
    pub fn new() -> Self {
        TaintAnalysis { max_passes: 10 }
    }

    /// Runs the analysis over a DEX file, returning all detected leaks
    /// (deduplicated).
    pub fn run(&self, dex: &DexFile) -> Vec<Leak> {
        let mut summaries: HashMap<String, MethodSummary> = HashMap::new();
        let mut field_taint: HashMap<(String, String), u32> = HashMap::new();
        let mut leaks: Vec<Leak> = Vec::new();

        let methods: Vec<(&str, &Method)> =
            dex.methods().map(|(c, m)| (c.name.as_str(), m)).collect();

        for pass in 0..self.max_passes.max(1) {
            let mut changed = false;
            for (class, method) in &methods {
                let key = method_key(class, &method.name);
                let in_params = summaries
                    .get(&key)
                    .map(|s| s.param_taint.clone())
                    .unwrap_or_default();
                let outcome =
                    analyze_method(class, method, &in_params, &summaries, &mut field_taint);
                // Merge return taint.
                let entry = summaries.entry(key).or_default();
                if entry.ret_taint | outcome.ret_taint != entry.ret_taint {
                    entry.ret_taint |= outcome.ret_taint;
                    changed = true;
                }
                // Merge call-site argument taints into callee summaries.
                for (callee, arg_taints) in outcome.calls {
                    let entry = summaries.entry(callee).or_default();
                    if entry.param_taint.len() < arg_taints.len() {
                        entry.param_taint.resize(arg_taints.len(), 0);
                    }
                    for (i, t) in arg_taints.iter().enumerate() {
                        if entry.param_taint[i] | t != entry.param_taint[i] {
                            entry.param_taint[i] |= t;
                            changed = true;
                        }
                    }
                }
                for leak in outcome.leaks {
                    if !leaks.contains(&leak) {
                        leaks.push(leak);
                        changed = true;
                    }
                }
                if outcome.fields_changed {
                    changed = true;
                }
            }
            if !changed && pass > 0 {
                break;
            }
        }
        leaks
    }

    /// Convenience: the distinct privacy types leaked anywhere in the DEX.
    pub fn leaked_types(&self, dex: &DexFile) -> Vec<PrivacyType> {
        let mut types: Vec<PrivacyType> = self.run(dex).into_iter().map(|l| l.privacy).collect();
        types.sort();
        types.dedup();
        types
    }
}

fn method_key(class: &str, method: &str) -> String {
    format!("{class}->{method}")
}

struct MethodOutcome {
    ret_taint: u32,
    leaks: Vec<Leak>,
    calls: Vec<(String, Vec<u32>)>,
    fields_changed: bool,
}

fn analyze_method(
    class: &str,
    method: &Method,
    param_taint: &[u32],
    summaries: &HashMap<String, MethodSummary>,
    field_taint: &mut HashMap<(String, String), u32>,
) -> MethodOutcome {
    let mut regs: Vec<u32> = vec![0; method.registers as usize];
    let mut const_strs: Vec<Option<String>> = vec![None; method.registers as usize];
    for (i, t) in param_taint.iter().enumerate() {
        if i < regs.len() {
            regs[i] = *t;
        }
    }
    let mut ret_taint = 0u32;
    let mut leaks = Vec::new();
    let mut calls: Vec<(String, Vec<u32>)> = Vec::new();
    let mut fields_changed = false;
    let mut last_result = 0u32;

    // Two linear passes approximate loop-carried taint within the method;
    // the outer fixpoint covers the rest.
    for _ in 0..2 {
        for insn in &method.code {
            match insn {
                Instruction::Const { dst, .. } => {
                    regs[*dst as usize] = 0;
                    const_strs[*dst as usize] = None;
                }
                Instruction::ConstString { dst, value } => {
                    regs[*dst as usize] = 0;
                    const_strs[*dst as usize] = Some(value.clone());
                }
                Instruction::ConstNull { dst } => {
                    regs[*dst as usize] = 0;
                    const_strs[*dst as usize] = None;
                }
                Instruction::Move { dst, src } => {
                    regs[*dst as usize] = regs[*src as usize];
                    const_strs[*dst as usize] = const_strs[*src as usize].clone();
                }
                Instruction::MoveResult { dst } => {
                    regs[*dst as usize] = last_result;
                    const_strs[*dst as usize] = None;
                }
                Instruction::BinOp { dst, a, b, .. } => {
                    regs[*dst as usize] = regs[*a as usize] | regs[*b as usize];
                }
                Instruction::IGet { dst, field, .. } | Instruction::SGet { dst, field } => {
                    regs[*dst as usize] = field_taint
                        .get(&(field.class.clone(), field.name.clone()))
                        .copied()
                        .unwrap_or(0);
                }
                Instruction::IPut { src, field, .. } | Instruction::SPut { src, field } => {
                    let t = regs[*src as usize];
                    if t != 0 {
                        let entry = field_taint
                            .entry((field.class.clone(), field.name.clone()))
                            .or_insert(0);
                        if *entry | t != *entry {
                            *entry |= t;
                            fields_changed = true;
                        }
                    }
                }
                Instruction::Invoke {
                    method: mref, args, ..
                } => {
                    let arg_taints: Vec<u32> = args.iter().map(|r| regs[*r as usize]).collect();
                    let any_taint: u32 = arg_taints.iter().fold(0, |a, b| a | b);

                    // Sinks: any tainted argument leaks.
                    if is_sink(&mref.class, &mref.name) && any_taint != 0 {
                        for privacy in PrivacyType::from_mask(any_taint) {
                            let leak = Leak {
                                privacy,
                                sink: format!("{}.{}", mref.class, mref.name),
                                class: class.to_string(),
                                method: method.name.clone(),
                            };
                            if !leaks.contains(&leak) {
                                leaks.push(leak);
                            }
                        }
                    }

                    // Sources: API-based...
                    if let Some(t) = api_source(&mref.class, &mref.name) {
                        last_result = t.bit();
                    } else if mref.class == "android.content.ContentResolver"
                        && mref.name == "query"
                    {
                        // ...and URI-based (the URI is a const string arg).
                        let uri_taint = args
                            .iter()
                            .filter_map(|r| const_strs[*r as usize].as_deref())
                            .find_map(uri_source)
                            .map(PrivacyType::bit)
                            .unwrap_or(0);
                        last_result = uri_taint;
                    } else if crate::filter::NATIVE_LOAD_APIS
                        .iter()
                        .any(|(c, _)| mref.class == *c)
                        || mref.class.starts_with("java.")
                        || mref.class.starts_with("android.")
                        || mref.class.starts_with("dalvik.")
                    {
                        // Framework call: taint flows through (e.g.
                        // String.concat of a tainted value stays tainted).
                        last_result = any_taint;
                    } else {
                        // App-internal call: record for the summary pass
                        // and use the callee's known return taint.
                        let key = method_key(&mref.class, &mref.name);
                        last_result = summaries.get(&key).map(|s| s.ret_taint).unwrap_or(0);
                        calls.push((key, arg_taints));
                    }
                }
                Instruction::Return { reg } => {
                    ret_taint |= regs[*reg as usize];
                }
                _ => {}
            }
        }
    }

    MethodOutcome {
        ret_taint,
        leaks,
        calls,
        fields_changed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dydroid_dex::builder::DexBuilder;
    use dydroid_dex::{AccessFlags, FieldRef, MethodRef};

    fn imei_call(m: &mut dydroid_dex::builder::MethodBuilder, dst: u16) {
        m.invoke_static(
            MethodRef::new(
                "android.telephony.TelephonyManager",
                "getDeviceId",
                "()Ljava/lang/String;",
            ),
            vec![],
        );
        m.move_result(dst);
    }

    fn log_sink(m: &mut dydroid_dex::builder::MethodBuilder, reg: u16) {
        m.const_str(7, "tag");
        m.invoke_static(
            MethodRef::new(
                "android.util.Log",
                "d",
                "(Ljava/lang/String;Ljava/lang/String;)I",
            ),
            vec![7, reg],
        );
    }

    #[test]
    fn direct_source_to_sink() {
        let mut b = DexBuilder::new();
        let c = b.class("com.sdk.Track", "java.lang.Object");
        let m = c.method("report", "()V", AccessFlags::PUBLIC);
        m.registers(8);
        imei_call(m, 1);
        log_sink(m, 1);
        m.ret_void();
        let leaks = TaintAnalysis::new().run(&b.build());
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].privacy, PrivacyType::Imei);
        assert_eq!(leaks[0].sink, "android.util.Log.d");
        assert_eq!(leaks[0].class, "com.sdk.Track");
    }

    #[test]
    fn no_leak_without_sink() {
        let mut b = DexBuilder::new();
        let c = b.class("com.sdk.Quiet", "java.lang.Object");
        let m = c.method("peek", "()V", AccessFlags::PUBLIC);
        m.registers(8);
        imei_call(m, 1);
        m.ret_void();
        assert!(TaintAnalysis::new().run(&b.build()).is_empty());
    }

    #[test]
    fn untainted_sink_is_clean() {
        let mut b = DexBuilder::new();
        let c = b.class("com.sdk.Clean", "java.lang.Object");
        let m = c.method("log", "()V", AccessFlags::PUBLIC);
        m.registers(8);
        m.const_str(1, "benign");
        log_sink(m, 1);
        m.ret_void();
        assert!(TaintAnalysis::new().run(&b.build()).is_empty());
    }

    #[test]
    fn taint_through_framework_string_ops() {
        let mut b = DexBuilder::new();
        let c = b.class("com.sdk.Concat", "java.lang.Object");
        let m = c.method("report", "()V", AccessFlags::PUBLIC);
        m.registers(8);
        imei_call(m, 1);
        m.const_str(2, "imei=");
        m.invoke_virtual(
            MethodRef::new(
                "java.lang.String",
                "concat",
                "(Ljava/lang/String;)Ljava/lang/String;",
            ),
            vec![2, 1],
        );
        m.move_result(3);
        log_sink(m, 3);
        m.ret_void();
        let leaks = TaintAnalysis::new().run(&b.build());
        assert_eq!(leaks.len(), 1);
    }

    #[test]
    fn taint_through_fields() {
        let mut b = DexBuilder::new();
        {
            let c = b.class("com.sdk.Store", "java.lang.Object");
            let m = c.method("collect", "()V", AccessFlags::PUBLIC);
            m.registers(8);
            imei_call(m, 1);
            m.sput(1, FieldRef::new("com.sdk.G", "stash", "Ljava/lang/String;"));
            m.ret_void();
            let m = c.method("flush", "()V", AccessFlags::PUBLIC);
            m.registers(8);
            m.sget(1, FieldRef::new("com.sdk.G", "stash", "Ljava/lang/String;"));
            log_sink(m, 1);
            m.ret_void();
        }
        let leaks = TaintAnalysis::new().run(&b.build());
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].method, "flush");
    }

    #[test]
    fn taint_interprocedural_through_params() {
        let mut b = DexBuilder::new();
        {
            let c = b.class("com.sdk.A", "java.lang.Object");
            let m = c.method("collect", "()V", AccessFlags::PUBLIC);
            m.registers(8);
            imei_call(m, 1);
            m.invoke_static(
                MethodRef::new("com.sdk.B", "post", "(Ljava/lang/String;)V"),
                vec![1],
            );
            m.ret_void();
        }
        {
            let c = b.class("com.sdk.B", "java.lang.Object");
            let m = c.method(
                "post",
                "(Ljava/lang/String;)V",
                AccessFlags::PUBLIC | AccessFlags::STATIC,
            );
            m.registers(8);
            log_sink(m, 0); // param 0
            m.ret_void();
        }
        let leaks = TaintAnalysis::new().run(&b.build());
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].class, "com.sdk.B");
    }

    /// `com.sdk.Entry.go` reads the IMEI and hands it down a chain of
    /// `hops` static `pass` methods, each also stashing it in a field;
    /// the last hop logs it.
    fn chained_payload(hops: usize) -> DexFile {
        let mut b = DexBuilder::new();
        for i in 0..hops {
            let cls = format!("com.sdk.stage{i}.Hop");
            let c = b.class(&cls, "java.lang.Object");
            let m = c.method(
                "pass",
                "(Ljava/lang/String;)V",
                AccessFlags::PUBLIC | AccessFlags::STATIC,
            );
            m.registers(8);
            if i + 1 < hops {
                let next = format!("com.sdk.stage{}.Hop", i + 1);
                m.invoke_static(
                    MethodRef::new(&next, "pass", "(Ljava/lang/String;)V"),
                    vec![0],
                );
            } else {
                log_sink(m, 0);
            }
            m.sput(0, FieldRef::new(&cls, "stash", "Ljava/lang/String;"));
            m.ret_void();
        }
        let c = b.class("com.sdk.Entry", "java.lang.Object");
        let m = c.method("go", "()V", AccessFlags::PUBLIC);
        m.registers(8);
        imei_call(m, 1);
        m.invoke_static(
            MethodRef::new("com.sdk.stage0.Hop", "pass", "(Ljava/lang/String;)V"),
            vec![1],
        );
        m.ret_void();
        b.build()
    }

    #[test]
    fn taint_survives_deep_static_call_chains() {
        for hops in [2, 8, 32] {
            let leaks = TaintAnalysis::new().run(&chained_payload(hops));
            assert_eq!(leaks.len(), 1, "{hops} hops: {leaks:?}");
            assert_eq!(leaks[0].class, format!("com.sdk.stage{}.Hop", hops - 1));
        }
    }

    #[test]
    fn taint_interprocedural_through_returns() {
        let mut b = DexBuilder::new();
        {
            let c = b.class("com.sdk.Src", "java.lang.Object");
            let m = c.method(
                "grab",
                "()Ljava/lang/String;",
                AccessFlags::PUBLIC | AccessFlags::STATIC,
            );
            m.registers(8);
            imei_call(m, 1);
            m.ret(1);
        }
        {
            let c = b.class("com.sdk.Use", "java.lang.Object");
            let m = c.method("send", "()V", AccessFlags::PUBLIC);
            m.registers(8);
            m.invoke_static(
                MethodRef::new("com.sdk.Src", "grab", "()Ljava/lang/String;"),
                vec![],
            );
            m.move_result(1);
            log_sink(m, 1);
            m.ret_void();
        }
        let leaks = TaintAnalysis::new().run(&b.build());
        assert_eq!(leaks.len(), 1, "{leaks:?}");
        assert_eq!(leaks[0].class, "com.sdk.Use");
    }

    #[test]
    fn content_provider_uri_sources() {
        for (uri, expected) in [
            ("content://contacts/people", PrivacyType::Contact),
            ("content://sms/inbox", PrivacyType::Sms),
            ("content://media/images/thumbs", PrivacyType::Image),
        ] {
            let mut b = DexBuilder::new();
            let c = b.class("com.sdk.Cp", "java.lang.Object");
            let m = c.method("dump", "()V", AccessFlags::PUBLIC);
            m.registers(8);
            m.const_str(1, uri);
            m.invoke_static(
                MethodRef::new(
                    "android.content.ContentResolver",
                    "query",
                    "(Ljava/lang/String;)Ljava/lang/String;",
                ),
                vec![1],
            );
            m.move_result(2);
            log_sink(m, 2);
            m.ret_void();
            let leaks = TaintAnalysis::new().run(&b.build());
            assert_eq!(leaks.len(), 1, "uri {uri}");
            assert_eq!(leaks[0].privacy, expected);
        }
    }

    #[test]
    fn unknown_uri_produces_no_taint() {
        let mut b = DexBuilder::new();
        let c = b.class("com.sdk.Cp", "java.lang.Object");
        let m = c.method("dump", "()V", AccessFlags::PUBLIC);
        m.registers(8);
        m.const_str(1, "content://com.custom.provider/data");
        m.invoke_static(
            MethodRef::new(
                "android.content.ContentResolver",
                "query",
                "(Ljava/lang/String;)Ljava/lang/String;",
            ),
            vec![1],
        );
        m.move_result(2);
        log_sink(m, 2);
        m.ret_void();
        assert!(TaintAnalysis::new().run(&b.build()).is_empty());
    }

    #[test]
    fn multiple_types_tracked_independently() {
        let mut b = DexBuilder::new();
        let c = b.class("com.sdk.Multi", "java.lang.Object");
        let m = c.method("report", "()V", AccessFlags::PUBLIC);
        m.registers(8);
        imei_call(m, 1);
        m.invoke_static(
            MethodRef::new(
                "android.location.LocationManager",
                "getLastKnownLocation",
                "()Ljava/lang/String;",
            ),
            vec![],
        );
        m.move_result(2);
        log_sink(m, 1);
        log_sink(m, 2);
        m.ret_void();
        let dex = b.build();
        let types = TaintAnalysis::new().leaked_types(&dex);
        assert_eq!(types, vec![PrivacyType::Location, PrivacyType::Imei]);
    }

    #[test]
    fn all_types_have_unique_bits_and_categories() {
        let mut seen = std::collections::HashSet::new();
        for t in PrivacyType::ALL {
            assert!(seen.insert(t.bit()));
            let _ = t.category();
            assert!(!t.label().is_empty());
        }
        assert_eq!(PrivacyType::ALL.len(), 18);
        // Category sizes per Table X: L=1, PI=3, UI=2, UP=2, CP=10.
        let count = |cat| {
            PrivacyType::ALL
                .iter()
                .filter(|t| t.category() == cat)
                .count()
        };
        assert_eq!(count(PrivacyCategory::Location), 1);
        assert_eq!(count(PrivacyCategory::PhoneIdentity), 3);
        assert_eq!(count(PrivacyCategory::UserIdentity), 2);
        assert_eq!(count(PrivacyCategory::UsagePattern), 2);
        assert_eq!(count(PrivacyCategory::ContentProvider), 10);
    }

    #[test]
    fn sms_sink_detected() {
        let mut b = DexBuilder::new();
        let c = b.class("com.mal.Exfil", "java.lang.Object");
        let m = c.method("steal", "()V", AccessFlags::PUBLIC);
        m.registers(8);
        imei_call(m, 1);
        m.const_str(2, "+100200300");
        m.invoke_static(
            MethodRef::new(
                "android.telephony.SmsManager",
                "sendTextMessage",
                "(Ljava/lang/String;Ljava/lang/String;)V",
            ),
            vec![2, 1],
        );
        m.ret_void();
        let leaks = TaintAnalysis::new().run(&b.build());
        assert_eq!(leaks.len(), 1);
        assert!(leaks[0].sink.contains("SmsManager"));
    }
}
