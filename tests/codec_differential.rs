//! Differential properties of the JSON codec the durable streams use:
//! `serde_json::to_string` writes straight from the value, and must
//! produce exactly the bytes of the `Value` tree's compact encoding for
//! strings (multi-byte and astral UTF-8, quotes, backslashes, control
//! characters), integer extremes, floats (`-0.0`, `1e300`, non-finite as
//! `null`), hash-ordered maps and sets, and every derived shape. Strings
//! and numbers are also checked against the formatting the streams were
//! first written with, and the text must parse back to the same encoding.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

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
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), encoded);
        check_encoding(&TreeOnly(vec![signed, 0, -1]))?;
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
