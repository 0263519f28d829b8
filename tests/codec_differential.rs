//! Differential properties of the JSON codec the durable streams use.
//!
//! Encoding: `serde_json::to_string` writes straight from the value, and
//! must produce exactly the bytes of the `Value` tree's compact encoding
//! for strings (multi-byte and astral UTF-8, quotes, backslashes, control
//! characters), integer extremes, floats (`-0.0`, `1e300`, non-finite as
//! `null`), hash-ordered maps and sets, and every derived shape. Strings
//! and numbers are also checked against the formatting the streams were
//! first written with, and the text must parse back to the same encoding.
//!
//! Decoding: `serde_json::from_str` decodes straight from the text, and
//! for every input must agree with parsing the text into a `Value` and
//! calling `from_json` — both `Ok` with equal values, or both `Err` —
//! on valid documents, every truncation, random byte edits, duplicate,
//! unknown and missing keys, wrong types, non-objects where a struct is
//! expected, malformed enum objects, nesting past 128 levels, unpaired
//! surrogates, and every body of a finalized sweep's streams. Recovery of
//! a journal whose bodies stop decoding mid-stream ends at the same frame
//! either way, and appends after it continue the sequence.
//!
//! Round trip: finalize keeps a stream recovery found already in corpus
//! order instead of re-encoding it, which is only byte-identical if every
//! body the sweep writes re-encodes to itself. A scale-0.05 sweep's
//! finalized journal and ledger are checked body by body.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt::Debug;
use std::path::PathBuf;

use dydroid::durable::{encode_frames, scan_stream};
use dydroid::{AppProvenance, AppRecord, IoHarness, Journal, Pipeline, PipelineConfig};
use dydroid_workload::{generate, CorpusSpec};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};

/// Drawn from to build strings: ASCII, every escaped character, DEL,
/// two- to four-byte UTF-8 and the last scalar value.
const CHARS: &str = "aZ0 :/\"\\\n\r\t\u{0}\u{8}\u{c}\u{1f}\u{7f}éß€中\u{FFFD}😀𝄞\u{10FFFF}";

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::sample::select(CHARS.chars().collect::<Vec<char>>()),
        0..24,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

fn int() -> impl Strategy<Value = i64> {
    prop_oneof![
        any::<i64>(),
        prop::sample::select(vec![i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX]),
    ]
}

fn uint() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        prop::sample::select(vec![0, 1, u64::from(u32::MAX), u64::MAX - 1, u64::MAX]),
    ]
}

/// Any `f64` bit pattern, NaN and infinities included.
fn float() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        prop::sample::select(vec![
            0.0,
            -0.0,
            1e300,
            -1e300,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            0.1,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]),
    ]
}

/// The string escaping the on-disk streams were first written with,
/// one char at a time: the encoders share a faster writer, and it must
/// produce these bytes.
fn reference_string(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.5
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Unit;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Newtype(String);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Pair(i64, Option<u8>);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Empty {}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Plain,
    Bare(),
    Wrapped(String),
    Tuple(u64, f64, Vec<char>),
    Named {
        label: String,
        #[serde(skip)]
        scratch: u32,
        weight: f32,
    },
    Hidden {
        #[serde(skip)]
        only: u8,
    },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Doc {
    text: String,
    chars: Vec<char>,
    signed: i64,
    unsigned: u64,
    small: (i8, u16, i32, usize),
    ratio: f64,
    maybe: Option<String>,
    missing: Option<u32>,
    shapes: Vec<Shape>,
    by_name: HashMap<String, i64>,
    by_id: BTreeMap<u32, String>,
    tags: HashSet<String>,
    ordered: BTreeSet<i64>,
    boxed: Box<Pair>,
    unit: Unit,
    newtype: Newtype,
    empty: Empty,
    #[serde(skip)]
    cache: Vec<u8>,
    tree: Value,
}

/// A hand-written impl: `to_string` must fall back to the tree.
struct TreeOnly(Vec<i64>);

impl Serialize for TreeOnly {
    fn to_json(&self) -> Value {
        Value::Array(self.0.iter().rev().map(Serialize::to_json).collect())
    }
}

/// The direct encoding equals the tree's, and the text parses back to
/// a `Value` that re-encodes to the same bytes.
fn check_encoding<T: Serialize + ?Sized>(x: &T) -> Result<String, String> {
    let direct = serde_json::to_string(x).map_err(|e| e.to_string())?;
    let tree = x.to_json().to_compact_string();
    if direct != tree {
        return Err(format!("direct {direct:?} != tree {tree:?}"));
    }
    let value: Value = serde_json::from_str(&direct).map_err(|e| format!("{e}: {direct:?}"))?;
    let again = serde_json::to_string(&value).map_err(|e| e.to_string())?;
    if again != direct {
        return Err(format!("re-encoded {again:?} != {direct:?}"));
    }
    Ok(direct)
}

fn doc(
    words: Vec<String>,
    signed: i64,
    unsigned: u64,
    ratio: f64,
    weight: f64,
    keys: Vec<(String, i64)>,
    tree_text: String,
) -> Doc {
    let text = words.concat();
    let chars: Vec<char> = text.chars().take(6).collect();
    Doc {
        text: text.clone(),
        chars: chars.clone(),
        signed,
        unsigned,
        small: (
            signed as i8,
            unsigned as u16,
            signed as i32,
            unsigned as usize,
        ),
        ratio: finite(ratio),
        maybe: words.first().cloned(),
        missing: None,
        shapes: vec![
            Shape::Plain,
            Shape::Bare(),
            Shape::Wrapped(text.clone()),
            Shape::Tuple(unsigned, finite(ratio), chars),
            Shape::Named {
                label: words.last().cloned().unwrap_or_default(),
                scratch: 0,
                weight: (finite(weight) as f32).clamp(f32::MIN, f32::MAX),
            },
            Shape::Hidden { only: 0 },
        ],
        by_name: keys.iter().cloned().collect(),
        by_id: keys.iter().map(|(k, v)| (*v as u32, k.clone())).collect(),
        tags: words.iter().cloned().collect(),
        ordered: keys.iter().map(|(_, v)| *v).collect(),
        boxed: Box::new(Pair(signed, Some(unsigned as u8))),
        unit: Unit,
        newtype: Newtype(tree_text.clone()),
        empty: Empty {},
        cache: Vec::new(),
        tree: Value::Object(vec![
            (tree_text.clone(), Value::Str(tree_text)),
            (
                "n".to_string(),
                Value::Array(vec![signed.to_json(), unsigned.to_json()]),
            ),
        ]),
    }
}

/// Decodes `text` directly and through the tree: `Ok(Some(v))` when both
/// decode to the same value, `Ok(None)` when both reject it, and `Err`
/// with both results when they disagree.
fn decode_both<T: Deserialize + Debug>(
    text: &str,
    same: impl Fn(&T, &T) -> bool,
) -> Result<Option<T>, String> {
    let direct = serde_json::from_str::<T>(text);
    let tree = serde_json::from_str::<Value>(text).and_then(|v| T::from_json(&v));
    match (direct, tree) {
        (Ok(d), Ok(t)) if same(&d, &t) => Ok(Some(d)),
        (Err(_), Err(_)) => Ok(None),
        (d, t) => Err(format!("{text:?}: direct {d:?} but tree {t:?}")),
    }
}

fn decode_eq<T: Deserialize + Debug + PartialEq>(text: &str) -> Result<Option<T>, String> {
    decode_both(text, |a: &T, b: &T| a == b)
}

/// Equality by encoding, for record types without `PartialEq`.
fn same_encoding<T: Serialize>(a: &T, b: &T) -> bool {
    serde_json::to_string(a).unwrap() == serde_json::to_string(b).unwrap()
}

/// A small struct for hand-written inputs: a required field, an optional
/// one, a skipped one and an enum list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Small {
    a: u32,
    b: Option<String>,
    #[serde(skip)]
    c: u8,
    d: Vec<Shape>,
}

/// Every field optional: any non-object decodes (all `None`) on the tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Loose {
    x: Option<i64>,
    y: Option<Vec<u8>>,
}

/// Bytes the random edits draw from: JSON punctuation, literals' first
/// letters, digits, escapes and whitespace.
const EDITS: &[u8] = b"{}[]:,\"\\/ \n0123456789-+.eEntfuabx";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn strings_encode_like_the_tree_and_round_trip(s in text()) {
        let encoded = check_encoding(&s)?;
        prop_assert_eq!(&encoded, &reference_string(&s));
        let back: String = serde_json::from_str(&encoded).map_err(|e| e.to_string())?;
        prop_assert_eq!(back, s);
    }

    #[test]
    fn integers_encode_like_the_tree_and_round_trip(i in int(), u in uint()) {
        let encoded = check_encoding(&(i, u))?;
        prop_assert_eq!(&encoded, &format!("[{i},{u}]"));
        let back: (i64, u64) = serde_json::from_str(&encoded).map_err(|e| e.to_string())?;
        prop_assert_eq!(back, (i, u));
        check_encoding(&(i as i32, i as i8, i as i16, i as isize))?;
        check_encoding(&(u as u32, u as u16, u as u8, u as usize))?;
    }

    #[test]
    fn floats_encode_like_the_tree_and_round_trip(x in float()) {
        let encoded = check_encoding(&x)?;
        if x.is_finite() {
            prop_assert_eq!(&encoded, &format!("{x:?}"));
            let back: f64 = serde_json::from_str(&encoded).map_err(|e| e.to_string())?;
            prop_assert_eq!(back.to_bits(), x.to_bits());
        } else {
            prop_assert_eq!(encoded.as_str(), "null");
        }
        check_encoding(&(x as f32))?;
        check_encoding(&vec![Some(x), None])?;
    }

    #[test]
    fn derived_documents_encode_like_the_tree_and_round_trip(
        words in prop::collection::vec(text(), 0..5),
        signed in int(),
        unsigned in uint(),
        ratio in float(),
        weight in float(),
        keys in prop::collection::vec((text(), int()), 0..6),
        tree_text in text(),
    ) {
        let d = doc(words, signed, unsigned, ratio, weight, keys, tree_text);
        let encoded = check_encoding(&d)?;
        let back: Doc = serde_json::from_str(&encoded).map_err(|e| e.to_string())?;
        prop_assert_eq!(&serde_json::to_string(&back).unwrap(), &encoded);
        check_encoding(&TreeOnly(vec![signed, 0, -1]))?;

        let decoded = decode_both::<Doc>(&encoded, same_encoding)?;
        prop_assert!(decoded.is_some(), "valid document rejected: {}", encoded);
        let shapes = serde_json::to_string(&d.shapes).unwrap();
        prop_assert!(decode_eq::<Vec<Shape>>(&shapes)?.is_some());
        let pretty = serde_json::to_string_pretty(&d).unwrap();
        prop_assert!(decode_both::<Doc>(&pretty, same_encoding)?.is_some());
    }

    #[test]
    fn every_truncation_decodes_alike(
        words in prop::collection::vec(text(), 0..3),
        signed in int(),
        keys in prop::collection::vec((text(), int()), 0..3),
    ) {
        let d = doc(words, signed, signed as u64, 0.5, 1.5, keys, "t".to_string());
        let encoded = serde_json::to_string(&d).unwrap();
        for cut in (0..encoded.len()).filter(|&cut| encoded.is_char_boundary(cut)) {
            prop_assert!(decode_both::<Doc>(&encoded[..cut], same_encoding)?.is_none());
        }
        let shapes = serde_json::to_string(&d.shapes).unwrap();
        for cut in (0..shapes.len()).filter(|&cut| shapes.is_char_boundary(cut)) {
            decode_eq::<Vec<Shape>>(&shapes[..cut])?;
            decode_eq::<Small>(&shapes[..cut])?;
        }
    }

    #[test]
    fn random_edits_decode_alike(
        words in prop::collection::vec(text(), 0..3),
        signed in int(),
        edits in prop::collection::vec((any::<usize>(), prop::sample::select(EDITS.to_vec()), 0..3u8), 1..4),
    ) {
        let d = doc(words, signed, 7, 0.25, 2.0, vec![("k".to_string(), signed)], "t".to_string());
        let small = Small {
            a: signed as u32,
            b: d.maybe.clone(),
            c: 0,
            d: d.shapes.clone(),
        };
        for encoded in [serde_json::to_string(&d).unwrap(), serde_json::to_string(&small).unwrap()] {
            let mut bytes = encoded.into_bytes();
            for (at, byte, op) in &edits {
                let at = at % (bytes.len() + 1);
                match op {
                    0 => bytes.insert(at, *byte),
                    1 if at < bytes.len() => bytes[at] = *byte,
                    _ if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => {}
                }
            }
            let Ok(edited) = String::from_utf8(bytes) else { continue };
            decode_both::<Doc>(&edited, same_encoding)?;
            decode_eq::<Small>(&edited)?;
            decode_eq::<Loose>(&edited)?;
            decode_eq::<Vec<Shape>>(&edited)?;
            decode_eq::<Value>(&edited)?;
        }
    }

    #[test]
    fn hash_collections_encode_in_sorted_order(
        entries in prop::collection::vec((text(), uint()), 0..12),
    ) {
        let map: HashMap<String, u64> = entries.iter().cloned().collect();
        // The same entries inserted in the opposite order, under another
        // hasher seed: the encoding must not see the difference.
        let mut reversed: Vec<(&String, &u64)> = map.iter().collect();
        reversed.reverse();
        let rebuilt: HashMap<String, u64> =
            reversed.into_iter().map(|(k, v)| (k.clone(), *v)).collect();
        let encoded = check_encoding(&map)?;
        prop_assert_eq!(serde_json::to_string(&rebuilt).unwrap(), encoded.clone());

        let pairs: Vec<(String, u64)> = serde_json::from_str(&encoded).map_err(|e| e.to_string())?;
        let keys: Vec<String> = pairs.iter().map(|(k, _)| serde_json::to_string(k).unwrap()).collect();
        prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "map entries not sorted: {}", encoded);

        let set: HashSet<String> = entries.iter().map(|(k, _)| k.clone()).collect();
        let encoded_set = check_encoding(&set)?;
        let items: Vec<String> = serde_json::from_str(&encoded_set).map_err(|e| e.to_string())?;
        let encoded_items: Vec<String> = items.iter().map(|k| serde_json::to_string(k).unwrap()).collect();
        prop_assert!(encoded_items.windows(2).all(|w| w[0] < w[1]), "set not sorted: {}", encoded_set);
        prop_assert_eq!(items.into_iter().collect::<HashSet<_>>(), set);
    }
}

#[test]
fn hand_written_inputs_decode_alike() {
    let ok = |text: &str| -> Small {
        decode_eq::<Small>(text)
            .unwrap_or_else(|e| panic!("{e}"))
            .unwrap_or_else(|| panic!("{text:?} rejected on both paths"))
    };
    let err = |text: &str| {
        let decoded = decode_eq::<Small>(text).unwrap_or_else(|e| panic!("{e}"));
        assert!(decoded.is_none(), "{text:?} accepted: {decoded:?}");
    };
    let plain = Small {
        a: 5,
        b: None,
        c: 0,
        d: vec![],
    };
    // Duplicate keys: the first wins, later ones are still validated.
    assert_eq!(ok(r#"{"a":5,"d":[],"a":"not a number"}"#), plain);
    assert_eq!(ok(r#"{"a":5,"d":[],"d":7,"b":null,"b":"x"}"#), plain);
    err(r#"{"a":5,"d":[],"a":[1,}"#);
    // Unknown keys (a skipped field's name among them) are validated and
    // ignored; missing keys decode from null.
    assert_eq!(
        ok(r#"{"zz":{"deep":[1,2,{"q":null}]},"c":9,"a":5,"d":[]}"#),
        plain
    );
    err(r#"{"zz":{"deep":[1,2,{"q":nul}]},"a":5,"d":[]}"#);
    err(r#"{"zz":"\ud800","a":5,"d":[]}"#);
    err(r#"{"d":[]}"#);
    err(r#"{"a":5}"#);
    assert_eq!(ok(r#"{"a":5,"d":[],"b":null}"#), plain);
    assert_eq!(ok(r#" { "a" : 5 , "d" : [ ] } "#), plain);
    assert_eq!(ok(r#"{"\u0061":5,"d":[]}"#), plain);
    // Wrong types, and integral floats into an integer field.
    err(r#"{"a":"5","d":[]}"#);
    err(r#"{"a":-1,"d":[]}"#);
    err(r#"{"a":1.5,"d":[]}"#);
    err(r#"{"a":4294967296,"d":[]}"#);
    assert_eq!(ok(r#"{"a":5.0,"d":[]}"#), plain);
    assert_eq!(ok(r#"{"a":5e0,"d":[]}"#), plain);
    err(r#"{"a":5,"b":7,"d":[]}"#);
    err(r#"{"a":5,"d":{}}"#);
    err(r#"{"a":5,"d":[],}"#);
    err(r#"{"a":5,"d":[]} x"#);
    // A non-object where a struct is expected goes through the tree:
    // with every field optional it decodes, otherwise it fails.
    for text in ["5", "\"x\"", "[1]", "null", "true", "[]", "-0.5"] {
        err(text);
        assert_eq!(
            decode_eq::<Loose>(text).unwrap(),
            Some(Loose { x: None, y: None }),
            "{text}"
        );
        assert_eq!(decode_eq::<Unit>(text).unwrap(), Some(Unit));
        assert_eq!(decode_eq::<Empty>(text).unwrap(), Some(Empty {}));
    }
    err("");
    err("nul");
    // Enums: unit variants are strings, payload variants one-member
    // objects; none, two, or a unit variant's name as a key are errors.
    let shapes = |text: &str| decode_eq::<Vec<Shape>>(text).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(
        shapes(
            r#"["Plain",{"Bare":[]},{"Wrapped":"w"},{"Tuple":[1,2.5,["c"]]},{"Named":{"weight":1,"label":"l","scratch":3}},{"Hidden":7}]"#
        ),
        Some(vec![
            Shape::Plain,
            Shape::Bare(),
            Shape::Wrapped("w".to_string()),
            Shape::Tuple(1, 2.5, vec!['c']),
            Shape::Named {
                label: "l".to_string(),
                scratch: 0,
                weight: 1.0
            },
            Shape::Hidden { only: 0 },
        ])
    );
    assert_eq!(shapes(r#"[{"Named":5}]"#), None);
    assert_eq!(shapes(r#"[{"Named":{"weight":1}}]"#), None);
    assert_eq!(
        shapes(r#"[{"Named":{"weight":1,"label":"a","label":5}}]"#),
        Some(vec![Shape::Named {
            label: "a".to_string(),
            scratch: 0,
            weight: 1.0
        }])
    );
    for text in [
        "[{}]",
        r#"[{"Wrapped":"a","Plain":1}]"#,
        r#"[{"Wrapped":"a","Wrapped":"b"}]"#,
        r#"[{"Plain":null}]"#,
        r#"["Wrapped"]"#,
        r#"["Nope"]"#,
        r#"[{"Nope":1}]"#,
        r#"[{"Bare":[1]}]"#,
        r#"[{"Bare":{}}]"#,
        r#"[{"Tuple":[1,2.5]}]"#,
        r#"[{"Tuple":[1,2.5,[],4]}]"#,
        r#"[{"Tuple":"x"}]"#,
        "[5]",
        "[null]",
    ] {
        assert_eq!(shapes(text), None, "{text}");
    }
    // Tuples and maps.
    assert_eq!(
        decode_eq::<Pair>("[-3,null]").unwrap(),
        Some(Pair(-3, None))
    );
    assert_eq!(decode_eq::<Pair>("[-3]").unwrap(), None);
    assert_eq!(decode_eq::<Pair>("[-3,1,2]").unwrap(), None);
    assert_eq!(decode_eq::<Pair>("{}").unwrap(), None);
    let map = decode_eq::<BTreeMap<String, u8>>(r#"[["a",1],["a",2],["b",3]]"#).unwrap();
    assert_eq!(map.map(|m| m["a"]), Some(2), "later map entries overwrite");
    assert_eq!(
        decode_eq::<HashMap<String, u8>>(r#"[["a",1,2]]"#).unwrap(),
        None
    );
    assert_eq!(
        decode_eq::<HashSet<u8>>("[1,1,2]")
            .unwrap()
            .map(|s| s.len()),
        Some(2)
    );
}

#[test]
fn nesting_and_surrogates_decode_alike() {
    let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    for depth in [127, 128, 129, 300] {
        let text = nest(depth);
        let accepted = depth <= 128;
        assert_eq!(
            decode_eq::<Value>(&text).unwrap().is_some(),
            accepted,
            "{depth}"
        );
        let wrapped = format!(r#"{{"a":5,"d":[],"zz":{}}}"#, nest(depth - 1));
        assert_eq!(
            decode_eq::<Small>(&wrapped).unwrap().is_some(),
            accepted,
            "{depth}"
        );
        let in_doc = format!(r#"{{"x":1,"y":[],"z":{}}}"#, nest(depth - 1));
        assert_eq!(
            decode_eq::<Loose>(&in_doc).unwrap().is_some(),
            accepted,
            "{depth}"
        );
    }
    let deep_vec = format!("{}1{}", "[".repeat(129), "]".repeat(129));
    assert_eq!(decode_eq::<Vec<Vec<Value>>>(&deep_vec).unwrap(), None);
    for text in [
        r#""\ud800""#,
        r#""\ud800\u0041""#,
        r#""\ud800\ud800""#,
        r#""\udc00""#,
        r#""\ud800x""#,
        r#""\u12""#,
        r#""\x""#,
        "\"abc",
    ] {
        assert_eq!(decode_eq::<String>(text).unwrap(), None, "{text}");
        let keyed = format!(r#"{{{text}:1,"a":5,"d":[]}}"#);
        assert_eq!(decode_eq::<Small>(&keyed).unwrap(), None, "{keyed}");
        let valued = format!(r#"{{"b":{text},"a":5,"d":[]}}"#);
        assert_eq!(decode_eq::<Small>(&valued).unwrap(), None, "{valued}");
    }
    assert_eq!(
        decode_eq::<String>(r#""\udbff\udfff \u00e9\n""#)
            .unwrap()
            .as_deref(),
        Some("\u{10FFFF} é\n")
    );
}

/// Resumes the sweep with `recovered` apps already consistent, crashing
/// at the first finalize op (one journal and one ledger append per
/// pending app come before it), then checks that this session's appends
/// continued both streams' sequences: each scans clean and holds every
/// corpus app once.
fn resume_then_crash_before_finalize(
    corpus: &[dydroid_workload::SyntheticApp],
    journal: &Journal,
    config: &PipelineConfig,
    recovered: usize,
) {
    let appends = 2 * (corpus.len() - recovered) as u64;
    let mut pipeline = Pipeline::new(config.clone());
    pipeline.set_io_harness(IoHarness::new(Some(appends), None));
    let _ = pipeline
        .run_resumable(corpus, journal)
        .expect("resumed sweep");
    let mut expected: Vec<String> = corpus.iter().map(|a| a.package().to_string()).collect();
    expected.sort();
    for path in [journal.path().to_path_buf(), journal.provenance_path()] {
        let bytes = std::fs::read(&path).expect("stream");
        let scan = scan_stream(&bytes);
        assert!(
            scan.is_clean(),
            "{}: sequence broken: {:?}",
            path.display(),
            scan.defect
        );
        let mut packages: Vec<String> = scan
            .bodies
            .iter()
            .map(|b| {
                let v: Value = serde_json::from_str(b).expect("body");
                v["package"].as_str().expect("package").to_string()
            })
            .collect();
        packages.sort();
        assert_eq!(packages, expected, "{}", path.display());
    }
}

fn temp_journal(tag: &str) -> Journal {
    let path: PathBuf =
        std::env::temp_dir().join(format!("dydroid_codec_{tag}_{}.jsonl", std::process::id()));
    let journal = Journal::new(path);
    journal.reset().expect("reset journal");
    journal
}

/// Every body of `path`, decoded on both paths.
fn decode_stream<T: Deserialize + Serialize + Debug>(path: &std::path::Path) -> usize {
    let bytes = std::fs::read(path).expect("stream exists");
    let scan = scan_stream(&bytes);
    assert!(scan.is_clean(), "{}: {:?}", path.display(), scan.defect);
    for body in &scan.bodies {
        let decoded = decode_both::<T>(body, same_encoding).unwrap_or_else(|e| panic!("{e}"));
        let decoded = decoded.unwrap_or_else(|| panic!("body rejected: {body}"));
        assert_eq!(&serde_json::to_string(&decoded).unwrap(), body);
    }
    scan.bodies.len()
}

#[test]
fn finalized_sweep_bodies_decode_alike() {
    let corpus = generate(&CorpusSpec {
        scale: 0.01,
        ..CorpusSpec::default()
    });
    let journal = temp_journal("sweep");
    let report = Pipeline::new(PipelineConfig {
        workers: 2,
        ..PipelineConfig::default()
    })
    .run_resumable(&corpus, &journal)
    .expect("journaled sweep");
    assert_eq!(report.records().len(), corpus.len());
    assert_eq!(decode_stream::<AppRecord>(journal.path()), corpus.len());
    assert_eq!(
        decode_stream::<AppProvenance>(&journal.provenance_path()),
        corpus.len()
    );
    journal.reset().expect("cleanup");
}

/// Decodes every body of the finalized stream at `path` and re-encodes
/// it (`write_json(read_json(body))`); the re-encoded bodies, framed from
/// sequence 0, must be the file byte for byte. Returns the body count.
fn re_encode_stream<T: Deserialize + Serialize>(path: &std::path::Path) -> usize {
    let bytes = std::fs::read(path).expect("stream exists");
    let scan = scan_stream(&bytes);
    assert!(scan.is_clean(), "{}: {:?}", path.display(), scan.defect);
    let mut re_encoded = Vec::with_capacity(scan.bodies.len());
    for body in &scan.bodies {
        let value: T = serde_json::from_str(body).unwrap_or_else(|e| panic!("{e}: {body}"));
        let mut out = String::new();
        value.write_json(&mut out);
        assert_eq!(&out, body, "{}", path.display());
        re_encoded.push(out);
    }
    assert!(
        encode_frames(0, &re_encoded).as_bytes() == bytes.as_slice(),
        "{} is not the reframed re-encoding of its bodies",
        path.display()
    );
    re_encoded.len()
}

#[test]
fn finalized_sweep_bodies_re_encode_to_themselves() {
    let corpus = generate(&CorpusSpec {
        scale: 0.05,
        ..CorpusSpec::default()
    });
    let journal = temp_journal("re_encode");
    let report = Pipeline::new(PipelineConfig::default())
        .run_resumable(&corpus, &journal)
        .expect("journaled sweep");
    assert!(
        !report.env_loads().is_empty(),
        "the ledger carries environment outcomes"
    );
    assert_eq!(re_encode_stream::<AppRecord>(journal.path()), corpus.len());
    assert_eq!(
        re_encode_stream::<AppProvenance>(&journal.provenance_path()),
        corpus.len()
    );
    journal.reset().expect("cleanup");
}

#[test]
fn recovery_ends_where_bodies_stop_decoding_and_resumes_without_a_gap() {
    let corpus = generate(&CorpusSpec {
        scale: 0.01,
        ..CorpusSpec::default()
    });
    let config = PipelineConfig {
        workers: 1,
        telemetry: false,
        environment_reruns: false,
        ..PipelineConfig::default()
    };
    let journal = temp_journal("recovery");
    Pipeline::new(config.clone())
        .run_resumable(&corpus, &journal)
        .expect("journaled sweep");

    // Keep the first 20 frames; frame 12 gets a body whose CRC is valid
    // but which does not decode as an `AppRecord`, and a torn half
    // frame follows.
    let bytes = std::fs::read(journal.path()).expect("journal");
    let mut bodies: Vec<String> = scan_stream(&bytes).bodies[..20]
        .iter()
        .map(|b| b.to_string())
        .collect();
    bodies[12] = bodies[12].replacen("\"package\":", "\"package\":5,\"was\":", 1);
    let oracle = bodies
        .iter()
        .position(|b| {
            serde_json::from_str::<Value>(b)
                .and_then(|v| AppRecord::from_json(&v))
                .is_err()
        })
        .expect("the tree rejects the edited body");
    assert_eq!(oracle, 12);
    let mut text = encode_frames(0, &bodies);
    text.push_str("{\"seq\":20,\"len\":9");
    std::fs::write(journal.path(), &text).expect("write damaged journal");

    let recovery = journal.recover_counted().expect("recover");
    assert_eq!(recovery.records.len(), oracle);
    assert_eq!(recovery.dropped_lines, bodies.len() - oracle + 1);
    assert_eq!(recovery.end.next_seq, oracle as u64);

    // Resume with the damaged file in place again.
    std::fs::write(journal.path(), &text).expect("write damaged journal");
    resume_then_crash_before_finalize(&corpus, &journal, &config, oracle);

    journal.reset().expect("cleanup");
}
